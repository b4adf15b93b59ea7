"""Tests for the benchmark harness and the command line interface."""

import contextlib
import csv
import dataclasses
import importlib.util
import io
import json
import logging
import os
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import holoqa
from holoqa import harness, metrics
from holoqa.cli import main
from holoqa.errors import (
    CorruptInput,
    DegenerateAmplitude,
    DegenerateRanks,
    DegenerateReference,
    DimMismatch,
    HoloQAError,
    InvalidField,
    NoOverlap,
    UnknownMetric,
)
from holoqa.field import (
    ApertureSpec,
    HologramForm,
    WaveField,
    dequantize_components,
    quantize_components,
)
from holoqa.harness import (
    TrackConfig,
    emit_report,
    load_manifest,
    run_track,
    score_components_avg,
)
from holoqa.metrics import REAL_METRICS, evaluate_real, gradient
from holoqa.stats import Display, MosRecord, read_mos_csv, evaluate_metric
from holoqa.synth import generate_demo_dataset
from holoqa.transform import load_gray_pgm


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    """A one-scene 32x32 dataset, for tests that run it many times."""
    root = str(tmp_path_factory.mktemp("tiny"))
    manifest = generate_demo_dataset(root, size=32, aperture=24, scenes=("dots",))
    return {"root": root, "manifest": manifest, "mos": os.path.join(root, "mos.csv")}


@pytest.fixture(scope="module")
def small_report(demo_dataset):
    manifest = load_manifest(demo_dataset["manifest"])
    mos = read_mos_csv(demo_dataset["mos"])
    config = TrackConfig("qa1", metrics=("mse", "psnr", "ssim", "ssrm_C"))
    return run_track(manifest, mos, config), config


class TestManifest:
    def test_load(self, demo_dataset):
        m = load_manifest(demo_dataset["manifest"])
        assert len(m.stimuli) == 4
        assert m.views == ("center", "corner")
        q = m.load_reference(m.stimuli[0])
        assert q.rows == 256


class TestTrackConfig:
    def test_default_metric_sets(self):
        assert len(TrackConfig("qa1").resolved_metrics()) == 18
        assert len(TrackConfig("qa3").resolved_metrics()) == 13

    def test_unknown_metric_rejected(self):
        with pytest.raises(UnknownMetric):
            TrackConfig("qa1", metrics=("nope",)).resolved_metrics()

    def test_duplicate_metric_rejected(self):
        with pytest.raises(UnknownMetric):
            TrackConfig("qa3", metrics=("mse", "mse", "psnr")).resolved_metrics()

    def test_complex_metric_rejected_on_view_tracks(self):
        with pytest.raises(UnknownMetric):
            TrackConfig("qa3", metrics=("mse_C",)).resolved_metrics()

    def test_unknown_track_rejected(self):
        with pytest.raises(UnknownMetric):
            TrackConfig("qa9").resolved_metrics()

    @pytest.mark.parametrize("percentile", [150.0, -0.5, float("nan"), "99"],
                             ids=["above-100", "negative", "nan", "text"])
    def test_bad_clip_percentile_rejected(self, percentile):
        with pytest.raises(InvalidField):
            TrackConfig("qa3", clip_percentile=percentile)

    def test_integral_float_upsample_runs_as_its_int(self, tiny_dataset, tmp_path):
        manifest = load_manifest(tiny_dataset["manifest"])
        mos = read_mos_csv(tiny_dataset["mos"])
        reports = []
        for m in (2, 2.0):
            config = TrackConfig("qa2", metrics=("mse",), upsample_m=m)
            out = tmp_path / repr(m)
            paths = emit_report(run_track(manifest, mos, config), str(out), config)
            reports.append({name: (out / name).read_bytes()
                            for name in map(os.path.basename, paths)})
        assert reports[1] == reports[0]


class TestRunTrack:
    def test_report_structure(self, small_report):
        report, _ = small_report
        assert set(report.criteria) == set(Display)
        for rows in report.criteria.values():
            assert [r.metric_id for r in rows] == list(report.metric_ids)
        # 4 scenes x 3 levels x 2 views x 4 metrics
        assert len(report.raw_scores) == 4 * 3 * 2 * 4

    def test_significance_shape(self, small_report):
        report, _ = small_report
        for mat in report.significance.values():
            k = len(mat.metric_ids)
            assert mat.entries.shape == (k, k)
            assert np.array_equal(mat.entries, -mat.entries.T)

    def test_rank_sum_checksum(self, small_report):
        report, _ = small_report
        n = len(report.metric_ids)
        expected = len(report.criteria) * 6 * n * (n + 1) / 2
        assert sum(report.rank_sums.values()) == pytest.approx(expected)

    def test_missing_mos_skips_sample(self, demo_dataset):
        manifest = load_manifest(demo_dataset["manifest"])
        mos = [r for r in read_mos_csv(demo_dataset["mos"])
               if not (r.display is Display.OPT and r.view == "corner")]
        report = run_track(manifest, mos, TrackConfig("qa1", metrics=("mse",)))
        assert Display.OPT in report.criteria       # still evaluated on center

    def test_no_overlap_raises(self, demo_dataset):
        manifest = load_manifest(demo_dataset["manifest"])
        mos = [MosRecord("absent:requant7", Display.OPT, "center", 0, 3.0, 0.5, 20)]
        with pytest.raises(NoOverlap):
            run_track(manifest, mos, TrackConfig("qa1", metrics=("mse",)))

    def test_criteria_reproducible_from_raw_scores(self, small_report, demo_dataset):
        report, _ = small_report
        mos = read_mos_csv(demo_dataset["mos"])
        by_key = {}
        for r in mos:
            by_key.setdefault((r.stimulus_id, r.display, r.view), []).append(r)
        # rebuild the OPT table for mse from the raw scores
        scores, records = [], []
        for rec in report.raw_scores:
            if rec.metric_id != "mse":
                continue
            group = by_key[(rec.stimulus_id, Display.OPT, rec.view)]
            scores.append(rec.value)
            records.append(MosRecord(
                rec.stimulus_id, Display.OPT, rec.view, -1,
                float(np.mean([g.mos for g in group])),
                float(np.mean([g.std for g in group])),
                int(round(np.mean([g.n for g in group]))),
            ))
        row = evaluate_metric("mse", scores, records).row
        got = next(r for r in report.criteria[Display.OPT] if r.metric_id == "mse")
        assert row == got

    def test_degenerate_metric_row_is_all_nan(self, demo_dataset, tmp_path, monkeypatch):
        def degenerate(*args):
            raise DegenerateRanks("constant scores")
        monkeypatch.setattr(harness, "evaluate_metric", degenerate)
        manifest = load_manifest(demo_dataset["manifest"])
        config = TrackConfig("qa1", metrics=("mse",))
        report = run_track(manifest, read_mos_csv(demo_dataset["mos"]), config)
        emit_report(report, str(tmp_path), config)
        for display in Display:
            with open(tmp_path / f"qa1_{display.value}_criteria.csv") as fh:
                (row,) = csv.DictReader(fh)
            assert row.pop("metric") == "mse"
            assert len(row) == 9
            assert set(row.values()) == {"nan"}


@pytest.fixture(scope="module")
def dots_dataset(tmp_path_factory):
    """One reference with two distorted versions."""
    root = str(tmp_path_factory.mktemp("dots"))
    manifest = generate_demo_dataset(root, scenes=("dots",), bits_levels=(7, 6),
                                     seed=1234)
    return load_manifest(manifest), read_mos_csv(os.path.join(root, "mos.csv"))


def _counted(monkeypatch, name):
    """Wrap ``holoqa.harness.<name>``; returns the list of its call arguments."""
    calls = []
    fn = getattr(harness, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    monkeypatch.setattr(harness, name, counted)
    return calls


class TestReferenceFirst:
    """Each reference is prepared once per stimulus and each distorted field
    once; the stages are looked up on ``holoqa.harness`` at call time."""

    def test_qa2_converts_each_field_once(self, dots_dataset, monkeypatch):
        manifest, mos = dots_dataset
        calls = _counted(monkeypatch, "fourier_to_fresnel")
        report = run_track(manifest, mos, TrackConfig("qa2", metrics=("mse", "fsim")))
        (entry,) = manifest.stimuli
        assert len(calls) == 1 + len(entry.distorted)
        # raw scores keep manifest order: tag, then view
        assert [(r.stimulus_id, r.view) for r in report.raw_scores[::2]] == [
            (f"{entry.stimulus_id}:{tag}", view)
            for tag in entry.distorted for view in manifest.views]

    def test_qa4_renders_each_field_view_once(self, dots_dataset, monkeypatch):
        manifest, mos = dots_dataset
        resolves = _counted(monkeypatch, "resolve_params")
        renders = _counted(monkeypatch, "reconstruct_view")
        report = run_track(manifest, mos, TrackConfig("qa4", metrics=("mse", "fsim")))
        (entry,) = manifest.stimuli
        n_views = len(manifest.views) * len(entry.focal_offsets)
        assert len(resolves) == n_views
        assert len(renders) == (1 + len(entry.distorted)) * n_views
        assert len({(id(f), ap, offset) for f, ap, offset in renders}) == len(renders)
        assert [(r.stimulus_id, r.view, r.focal_index) for r in report.raw_scores[::2]] == [
            (f"{entry.stimulus_id}:{tag}", view, fi)
            for tag in entry.distorted for view in manifest.views
            for fi in range(len(entry.focal_offsets))]

    def test_dark_reference_raises_before_any_version_renders(self, dots_dataset,
                                                              monkeypatch):
        manifest, mos = dots_dataset
        renders = []

        def dark(f, ap, offset):
            renders.append(f)
            return np.zeros((ap.height, ap.width))
        monkeypatch.setattr(harness, "reconstruct_view", dark)
        with pytest.raises(DegenerateAmplitude):
            run_track(manifest, mos, TrackConfig("qa3", metrics=("mse",)))
        assert len(renders) == 1


def _view_pool_threads() -> list:
    return [t for t in threading.enumerate() if t.name.startswith("holoqa-score")]


def _watched_renders(monkeypatch, manifest, hook):
    """Patch ``holoqa.harness.reconstruct_view`` so that the render of
    (view, focal) #k on the calling thread (the reference) or on a view-pool
    worker (a distorted version) calls ``hook(k, on_worker)`` first."""
    (entry,) = manifest.stimuli
    q = manifest.load_reference(entry)
    sites = [(ApertureSpec.for_view(view, q.rows, q.cols, entry.aperture_size), offset)
             for view in manifest.views for offset in entry.focal_offsets]
    render = harness.reconstruct_view

    def watched(f, ap, offset):
        hook(sites.index((ap, offset)),
             threading.current_thread().name.startswith("holoqa-score"))
        return render(f, ap, offset)
    monkeypatch.setattr(harness, "reconstruct_view", watched)


class TestViewPool:
    """qa3/qa4 score each (view, focal)'s distorted versions on a two-worker
    pool; the error of the earliest (view, focal) in manifest order wins, and
    it is raised only after every submitted job has ended."""

    @pytest.mark.parametrize("track", ["qa3", "qa4"])
    def test_versions_render_on_the_pool_and_no_worker_outlives_it(
            self, dots_dataset, monkeypatch, track):
        manifest, mos = dots_dataset
        where = []
        _watched_renders(monkeypatch, manifest, lambda k, on_worker: where.append(on_worker))
        run_track(manifest, mos, TrackConfig(track, metrics=("mse",)))
        (entry,) = manifest.stimuli
        n_sites = len(manifest.views) * len(entry.focal_offsets)
        assert where.count(False) == n_sites
        assert where.count(True) == n_sites * len(entry.distorted)
        assert _view_pool_threads() == []

    def test_earliest_job_error_wins(self, dots_dataset, monkeypatch):
        manifest, mos = dots_dataset
        later_raised = threading.Event()
        waited = []

        def fail(k, on_worker):
            if on_worker and k == 0:
                waited.append(later_raised.wait(5))     # job #2 raises first
                raise DegenerateAmplitude("job #1")
            if on_worker and k == 1:
                later_raised.set()
                raise CorruptInput("job #2")
        _watched_renders(monkeypatch, manifest, fail)
        with pytest.raises(DegenerateAmplitude, match="job #1"):
            run_track(manifest, mos, TrackConfig("qa3", metrics=("mse",)))
        assert waited and all(waited)
        assert _view_pool_threads() == []

    def test_earlier_job_error_wins_over_reference_error(self, dots_dataset, monkeypatch):
        manifest, mos = dots_dataset
        ref_failed = threading.Event()
        waited = []

        def fail(k, on_worker):
            if not on_worker and k == 1:
                ref_failed.set()
                raise CorruptInput("reference #2")
            if on_worker and k == 0:
                waited.append(ref_failed.wait(5))   # the reference of #2 fails first
                raise DegenerateAmplitude("job #1")
        _watched_renders(monkeypatch, manifest, fail)
        with pytest.raises(DegenerateAmplitude, match="job #1"):
            run_track(manifest, mos, TrackConfig("qa4", metrics=("mse",)))
        assert waited and all(waited)
        assert _view_pool_threads() == []

    def test_reference_error_raised_after_earlier_jobs_end(self, dots_dataset, monkeypatch):
        manifest, mos = dots_dataset
        scored = []
        evaluate = harness.evaluate_real

        def fail(k, on_worker):
            if on_worker:
                time.sleep(0.2)         # job #1 ends after the reference of #2 fails
            elif k == 1:
                raise CorruptInput("reference #2")

        def counted(*args, **kwargs):
            value = evaluate(*args, **kwargs)
            scored.append(value)
            return value
        _watched_renders(monkeypatch, manifest, fail)
        monkeypatch.setattr(harness, "evaluate_real", counted)
        with pytest.raises(CorruptInput, match="reference #2"):
            run_track(manifest, mos, TrackConfig("qa3", metrics=("mse",)))
        (entry,) = manifest.stimuli
        assert len(scored) == len(entry.distorted)
        assert _view_pool_threads() == []


@pytest.fixture(scope="module")
def two_stimuli(tmp_path_factory):
    """Two references with two distorted versions each."""
    root = str(tmp_path_factory.mktemp("two"))
    manifest = generate_demo_dataset(root, size=64, aperture=48, scenes=("dots", "ring"),
                                     bits_levels=(7, 6), seed=1234)
    return load_manifest(manifest), read_mos_csv(os.path.join(root, "mos.csv"))


def _watched_stimulus_renders(monkeypatch, manifest, hook):
    """Patch ``holoqa.harness.reconstruct_view`` so that every render calls
    ``hook(stimulus_index, on_worker)`` first; the stimulus is told by the
    rendered field's data."""
    owner = {}
    for i, entry in enumerate(manifest.stimuli):
        for q in (manifest.load_reference(entry),
                  *(manifest.load_distorted(entry, tag) for tag in entry.distorted)):
            owner[harness.dequantize_components(q).data.tobytes()] = i
    render = harness.reconstruct_view

    def watched(f, ap, offset):
        hook(owner[f.data.tobytes()],
             threading.current_thread().name.startswith("holoqa-score"))
        return render(f, ap, offset)
    monkeypatch.setattr(harness, "reconstruct_view", watched)


def _watched_field_stream(monkeypatch, manifest, config, convert_hook, score_hook):
    """Patch ``holoqa.harness.fourier_to_fresnel`` and ``evaluate_real`` so
    that each call first calls ``convert_hook(stimulus_index, on_worker)`` or
    ``score_hook(stimulus_index)``; the stimulus is told by the converted
    field's data or by the scored reference plane."""
    owner = {}
    m = config.upsample_m if config.track == "qa2" else 1
    for i, entry in enumerate(manifest.stimuli):
        for q in (manifest.load_reference(entry),
                  *(manifest.load_distorted(entry, tag) for tag in entry.distorted)):
            owner[harness.dequantize_components(q).data.tobytes()] = i
        ref_q = harness._prepared_field(config, manifest, entry)
        size = (entry.aperture_size[0] * m, entry.aperture_size[1] * m)
        for view in manifest.views:
            crop = harness.extract_aperture_quantized(
                ref_q, ApertureSpec.for_view(view, ref_q.rows, ref_q.cols, size))
            for plane in (crop.real_plane, crop.imag_plane):
                owner[plane.astype(np.float64).tobytes()] = i
    convert, evaluate = harness.fourier_to_fresnel, harness.evaluate_real

    def watched_convert(f, m):
        convert_hook(owner[f.data.tobytes()],
                     threading.current_thread().name.startswith("holoqa-score"))
        return convert(f, m)

    def watched_evaluate(metric_id, ref, dist, **kwargs):
        score_hook(owner[ref.tobytes()])
        return evaluate(metric_id, ref, dist, **kwargs)
    monkeypatch.setattr(harness, "fourier_to_fresnel", watched_convert)
    monkeypatch.setattr(harness, "evaluate_real", watched_evaluate)


class TestJobStream:
    """Every track submits the next stimulus's jobs before reading the
    current one's; the error of the earliest (stimulus, view, focal) still
    wins, and a qa1/qa2 stimulus's fields are converted on the pool."""

    def test_earlier_stimulus_job_error_wins_over_later_reference_error(
            self, two_stimuli, monkeypatch):
        manifest, mos = two_stimuli
        ref_failed = threading.Event()
        waited = []

        def fail(i, on_worker):
            if i == 1 and not on_worker:
                ref_failed.set()
                raise CorruptInput("reference of stimulus #2")
            if i == 0 and on_worker:
                # the next stimulus's reference is prepared while this job runs
                waited.append(ref_failed.wait(5))
                raise DegenerateAmplitude("job of stimulus #1")
        _watched_stimulus_renders(monkeypatch, manifest, fail)
        with pytest.raises(DegenerateAmplitude, match="stimulus #1"):
            run_track(manifest, mos, TrackConfig("qa4", metrics=("mse",)))
        assert waited and all(waited)
        assert _view_pool_threads() == []

    def test_earlier_stimulus_job_error_wins_over_later_job_error(
            self, two_stimuli, monkeypatch):
        manifest, mos = two_stimuli
        later_raised = threading.Event()
        first = threading.Lock()
        waited = []

        def fail(i, on_worker):
            if on_worker and i == 0 and first.acquire(blocking=False):
                # the other worker runs stimulus #1's other jobs, then a job of
                # stimulus #2, which is submitted ahead and raises first
                waited.append(later_raised.wait(5))
                raise DegenerateAmplitude("job of stimulus #1")
            if on_worker and i == 1:
                later_raised.set()
                raise CorruptInput("job of stimulus #2")
        _watched_stimulus_renders(monkeypatch, manifest, fail)
        with pytest.raises(DegenerateAmplitude, match="stimulus #1"):
            run_track(manifest, mos, TrackConfig("qa3", metrics=("mse",)))
        assert waited == [True]
        assert _view_pool_threads() == []

    def test_later_reference_error_raised_after_earlier_jobs_end(
            self, two_stimuli, monkeypatch):
        manifest, mos = two_stimuli
        ended = []

        def fail(i, on_worker):
            if on_worker and i == 0:
                time.sleep(0.05)
                ended.append(i)
            elif i == 1 and not on_worker:
                raise CorruptInput("reference of stimulus #2")
        _watched_stimulus_renders(monkeypatch, manifest, fail)
        with pytest.raises(CorruptInput, match="stimulus #2"):
            run_track(manifest, mos, TrackConfig("qa3", metrics=("mse",)))
        entry = manifest.stimuli[0]
        n_sites = len(manifest.views) * len(entry.focal_offsets)
        assert len(ended) == n_sites * len(entry.distorted)
        assert _view_pool_threads() == []

    def test_samples_keep_manifest_order(self, two_stimuli):
        manifest, mos = two_stimuli
        report = run_track(manifest, mos, TrackConfig("qa3", metrics=("mse",)))
        assert [(r.stimulus_id, r.view, r.focal_index) for r in report.raw_scores] == [
            (f"{entry.stimulus_id}:{tag}", view, fi)
            for entry in manifest.stimuli for tag in entry.distorted
            for view in manifest.views for fi in range(len(entry.focal_offsets))]

    def test_field_job_error_wins_over_later_conversion_error(self, two_stimuli,
                                                             monkeypatch):
        manifest, mos = two_stimuli
        config = TrackConfig("qa2", metrics=("mse", "psnr_C"))
        converted = threading.Event()
        first = threading.Lock()
        waited, on_workers = [], []

        def convert_hook(i, on_worker):
            on_workers.append(on_worker)
            if i == 1:
                converted.set()
                raise InvalidField("conversion of stimulus #2")

        def score_hook(i):
            if i == 0 and first.acquire(blocking=False):
                # the next stimulus's fields convert while this job runs
                waited.append(converted.wait(5))
                raise DegenerateReference("job of stimulus #1")
        _watched_field_stream(monkeypatch, manifest, config, convert_hook, score_hook)
        with pytest.raises(DegenerateReference, match="stimulus #1"):
            run_track(manifest, mos, config)
        assert waited == [True]
        assert on_workers and all(on_workers)
        assert _view_pool_threads() == []

    @pytest.mark.parametrize("track", ["qa1", "qa2"])
    def test_field_job_error_wins_over_later_job_error(self, two_stimuli, monkeypatch,
                                                       track):
        manifest, mos = two_stimuli
        config = TrackConfig(track, metrics=("mse", "ssim"))
        later_raised = threading.Event()
        first = threading.Lock()
        waited = []

        def score_hook(i):
            if i == 0 and first.acquire(blocking=False):
                waited.append(later_raised.wait(5))     # a job of stimulus #2 raises first
                raise DegenerateReference("job of stimulus #1")
            if i == 1:
                later_raised.set()
                raise DimMismatch("job of stimulus #2")
        _watched_field_stream(monkeypatch, manifest, config, lambda i, w: None, score_hook)
        with pytest.raises(DegenerateReference, match="stimulus #1"):
            run_track(manifest, mos, config)
        assert waited == [True]
        assert _view_pool_threads() == []

    @pytest.mark.parametrize("track", ["qa1", "qa2"])
    def test_field_samples_keep_manifest_order(self, two_stimuli, track):
        manifest, mos = two_stimuli
        ids = ("mse", "psnr_C")
        report = run_track(manifest, mos, TrackConfig(track, metrics=ids))
        assert [(r.stimulus_id, r.view, r.focal_index, r.metric_id)
                for r in report.raw_scores] == [
            (f"{entry.stimulus_id}:{tag}", view, -1, mid)
            for entry in manifest.stimuli for tag in entry.distorted
            for view in manifest.views for mid in ids]
        assert _view_pool_threads() == []


class TestFitsOnPool:
    """Every (display, metric) logistic fit runs on the run's pool; the rows
    keep (display, metric) order and a degenerate metric keeps its warning
    and its NaN row."""

    def test_rows_order_and_degenerate_row(self, two_stimuli, monkeypatch, caplog):
        manifest, mos = two_stimuli
        threads = []
        evaluate = harness.evaluate_metric

        def recorded(metric_id, scores, records, *fit):
            threads.append(threading.current_thread().name)
            if metric_id == "psnr" and records[0].display is Display.LF:
                raise DegenerateRanks("constant scores")
            return evaluate(metric_id, scores, records, *fit)
        monkeypatch.setattr(harness, "evaluate_metric", recorded)
        ids = ("mse", "psnr", "ssim")
        with caplog.at_level(logging.WARNING, logger="holoqa.harness"):
            report = run_track(manifest, mos, TrackConfig("qa3", metrics=ids))
        assert len(threads) == len(ids) * len(Display)
        assert all(name.startswith("holoqa-score") for name in threads)
        assert list(report.criteria) == list(Display)
        for display, rows in report.criteria.items():
            assert [r.metric_id for r in rows] == list(ids)
            for row in rows:
                values = dataclasses.astuple(row)[1:]
                if display is Display.LF and row.metric_id == "psnr":
                    assert all(np.isnan(values))
                else:
                    assert np.all(np.isfinite(values))
        assert [r.getMessage() for r in caplog.records if "degenerate" in r.getMessage()] == [
            "metric psnr degenerate on display LF: constant scores"]
        assert list(report.significance[Display.LF].metric_ids) == ["mse", "ssim"]
        assert _view_pool_threads() == []


    def test_one_fit_job_per_distinct_score_vector(self, two_stimuli, monkeypatch):
        """Displays matched on the same samples share one fit job per
        metric; a display matched on fewer samples gets a job of its own.
        Every row equals its display's ``evaluate_metric`` taken alone."""
        manifest, mos = two_stimuli
        dropped = next(r for r in mos if r.display is Display.LF)
        mos = [r for r in mos if r is not dropped]
        jobs = _counted(monkeypatch, "_evaluate_displays")
        ids = ("mse", "ssim")
        report = run_track(manifest, mos, TrackConfig("qa3", metrics=ids))
        assert sorted((args[0], len(args[2])) for args in jobs) == [
            ("mse", 1), ("mse", 2), ("ssim", 1), ("ssim", 2)]
        scores = {}
        for r in report.raw_scores:
            scores.setdefault((r.stimulus_id, r.view, r.focal_index), {})[r.metric_id] = r.value
        by_key = harness._mos_lookup(mos)
        for display, rows in report.criteria.items():
            matched = [(s, rec) for key, s in scores.items()
                       if (rec := harness._matched_mos(by_key, key[0], display, *key[1:]))]
            assert len(matched) == len(scores) - (display is Display.LF)
            for row in rows:
                alone = evaluate_metric(row.metric_id, [s[row.metric_id] for s, _ in matched],
                                        [rec for _, rec in matched])
                assert row == alone.row


    def test_fit_job_keeps_each_displays_own_error(self):
        """A display whose criteria raise DegenerateRanks gets that error and
        the others their evaluations; if the shared fits raise, every
        display raises the error ``evaluate_metric`` alone raises first."""
        rng = np.random.default_rng(5)

        def records(values, display):
            return [MosRecord(f"s{i}", display, "center", 0, float(v), 0.5, 20)
                    for i, v in enumerate(values)]
        good = records(rng.uniform(1.0, 5.0, 8), Display.OPT)
        flat = records(np.full(8, 3.0), Display.LF)
        scores = list(rng.uniform(0.0, 1.0, 8))
        ev, err = harness._evaluate_displays("mse", scores, [good, flat])
        alone = evaluate_metric("mse", scores, good)
        assert (ev.row, ev.fit) == (alone.row, alone.fit)
        assert np.array_equal(ev.abs_residuals, alone.abs_residuals)
        assert isinstance(err, DegenerateRanks)
        assert str(err) == "constant vector; correlation undefined"
        for bad, message in (([0.5] * 8, "constant vector; correlation undefined"),
                             (scores[:4], "logistic fit needs >= 5 paired samples")):
            out = harness._evaluate_displays("mse", bad, [good[:len(bad)]] * 2)
            assert [str(e) for e in out] == [message] * 2


def _aliased(manifest, mos, k):
    """``manifest`` and ``mos`` with every distorted version listed ``k``
    times, as aliases of the same files with matching MOS rows."""
    stimuli = tuple(dataclasses.replace(e, distorted={
        f"{tag}~{i}": base for tag, base in e.distorted.items() for i in range(k)})
        for e in manifest.stimuli)
    records = [dataclasses.replace(r, stimulus_id=f"{r.stimulus_id}~{i}")
               for r in mos for i in range(k)]
    return dataclasses.replace(manifest, stimuli=stimuli), records


@pytest.mark.parametrize("track", ["qa3", "qa4"])
def test_view_track_memory_does_not_grow_by_a_field_per_version(demo_dataset, track):
    """qa3/qa4 hold distorted versions quantized and dequantize one per job,
    so listing every version 4 times instead of once raises the traced peak
    by less than half a dequantized field per added version."""
    manifest = load_manifest(demo_dataset["manifest"])
    mos = read_mos_csv(demo_dataset["mos"])
    peaks = []
    for k in (1, 4):
        aliased = _aliased(manifest, mos, k)
        tracemalloc.start()
        try:
            run_track(*aliased, TrackConfig(track, metrics=("mse",)))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    entry = manifest.stimuli[0]
    q = manifest.load_reference(entry)
    field_bytes = q.rows * q.cols * np.dtype(np.complex128).itemsize
    added = 3 * len(entry.distorted)
    assert peaks[1] - peaks[0] < 0.5 * field_bytes * added


def _quantized(img):
    return quantize_components(WaveField(img + 1j * img[::-1].T, 8e-6, 640e-9,
                                         HologramForm.FOURIER))


def _planes(q):
    return q.real_plane.astype(np.float64), q.imag_plane.astype(np.float64)


class TestComponentAveraging:
    """qa1/qa2 score the real planes and the imaginary planes of a view as two
    jobs on the run's pool and average them; ``score_components_avg`` scores
    one metric's two planes, the imaginary one on a pool."""

    def test_threaded_planes_equal_serial_average(self, image, noisy_versions):
        ref_q = _quantized(image)
        ref_re, ref_im = _planes(ref_q)
        dists = [_quantized(dist) for dist in noisy_versions]
        ids = tuple(REAL_METRICS)
        planes_ref = ({}, {})        # cold for the first version, then warm
        with ThreadPoolExecutor(max_workers=2) as pool:
            # the two plane jobs of one view, running at once
            re_job = pool.submit(harness._score_planes, ids, ref_q.real_plane,
                                 [q.real_plane for q in dists])
            im_job = pool.submit(harness._score_planes, ids, ref_q.imag_plane,
                                 [q.imag_plane for q in dists])
            for dist_q, re, im in zip(dists, re_job.result(), im_job.result()):
                dist_re, dist_im = _planes(dist_q)
                for mid in ids:
                    want = 0.5 * (evaluate_real(mid, ref_re, dist_re)
                                  + evaluate_real(mid, ref_im, dist_im))
                    assert 0.5 * (re[mid] + im[mid]) == want, mid
                    got = score_components_avg(mid, ref_q, dist_q, (None, None),
                                               (None, None), pool)
                    assert got == want, mid
            # version-major: one warm reference scratch pair across all 13 metrics
            for dist_q in dists:
                dist_re, dist_im = _planes(dist_q)
                planes = ({}, {})
                for mid in ids:
                    want = 0.5 * (evaluate_real(mid, ref_re, dist_re)
                                  + evaluate_real(mid, ref_im, dist_im))
                    got = score_components_avg(mid, ref_q, dist_q, planes, planes_ref,
                                               pool)
                    assert got == want, mid
        ref_keys = {"spectrum", "scales", "blocks", "prewitt", "pc", "scharr", "pyramid",
                    "vif_scales"}
        assert [set(r) for r in planes_ref] == [ref_keys, ref_keys]

    @pytest.mark.parametrize("failing, raised", [
        ({"real", "imag"}, DegenerateReference),
        ({"imag"}, DimMismatch),
        ({"real"}, DegenerateReference),
    ])
    def test_error_precedence(self, image, monkeypatch, failing, raised):
        ref_q = _quantized(image)
        ref_im = _planes(ref_q)[1]
        calls = []

        def fake_evaluate_real(metric_id, ref, dist, scratch=None, ref_scratch=None):
            plane = "imag" if np.array_equal(ref, ref_im) else "real"
            if plane == "imag":
                time.sleep(0.2)     # the imaginary plane ends last
            calls.append((plane, threading.current_thread() is threading.main_thread()))
            if plane == "real" and "real" in failing:
                raise DegenerateReference("real plane")
            if plane == "imag" and "imag" in failing:
                raise DimMismatch("imaginary plane")
            return 1.0

        monkeypatch.setattr(metrics, "evaluate_real", fake_evaluate_real)
        with ThreadPoolExecutor(max_workers=2) as pool:
            with pytest.raises(HoloQAError) as info:
                score_components_avg("mse", ref_q, ref_q, (None, None), (None, None), pool)
            # both planes ran, the imaginary one on the pool, and it had ended
            assert sorted(calls) == [("imag", False), ("real", True)]
        assert type(info.value) is raised

    def test_averages_plane_scores(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        f = WaveField(data, 8e-6, 640e-9, HologramForm.FOURIER)
        ref_q = quantize_components(f)
        dist_q = quantize_components(
            WaveField(data + 0.05 * (rng.normal(size=(64, 64))
                                     + 1j * rng.normal(size=(64, 64))),
                      8e-6, 640e-9, HologramForm.FOURIER)
        )
        with ThreadPoolExecutor(max_workers=2) as pool:
            score = score_components_avg("mse", ref_q, dist_q, (None, None),
                                         (None, None), pool)
        re_v = evaluate_real("mse", ref_q.real_plane.astype(float),
                             dist_q.real_plane.astype(float))
        im_v = evaluate_real("mse", ref_q.imag_plane.astype(float),
                             dist_q.imag_plane.astype(float))
        assert score == pytest.approx(0.5 * (re_v + im_v), rel=1e-12)

    def test_qa1_run_scores_planes_on_at_most_two_pool_threads(self, dots_dataset,
                                                               monkeypatch):
        manifest, mos = dots_dataset
        threads = {"real": [], "complex": []}
        for kind in threads:
            evaluate = getattr(harness, f"evaluate_{kind}")

            def recorded(*args, _evaluate=evaluate, _kind=kind, **kwargs):
                threads[_kind].append(threading.current_thread())
                return _evaluate(*args, **kwargs)
            monkeypatch.setattr(harness, f"evaluate_{kind}", recorded)
        run_track(manifest, mos, TrackConfig("qa1", metrics=("mse", "ssim", "psnr_C")))
        (entry,) = manifest.stimuli
        pairs = len(manifest.views) * len(entry.distorted)
        assert len(threads["real"]) == 2 * 2 * pairs
        assert len(threads["complex"]) == pairs
        workers = set(threads["real"] + threads["complex"])
        assert 1 <= len(workers) <= 2
        assert all(t.name.startswith("holoqa-score") for t in workers)


class TestFamilyMajor:
    """Every scoring job scores family-major: per metric family a fresh
    reference scratch, dropped before the next family starts."""

    def _recorded(self, monkeypatch):
        """Patch ``holoqa.harness.evaluate_real``; returns the (family,
        families whose keys the reference scratch holds) of every call."""
        family_of = {mid: family[0] for family in metrics.FAMILIES for mid in family}
        owner = {}
        calls = []
        evaluate = harness.evaluate_real

        def recorded(metric_id, ref, dist, scratch=None, ref_scratch=None):
            value = evaluate(metric_id, ref, dist, scratch=scratch, ref_scratch=ref_scratch)
            for key in ref_scratch:
                owner.setdefault(key, family_of[metric_id])
            calls.append((family_of[metric_id], {owner[key] for key in ref_scratch}))
            return value
        monkeypatch.setattr(harness, "evaluate_real", recorded)
        return calls, owner

    def _check(self, calls, owner, n_versions):
        assert [family for family, _ in calls] == [
            family[0] for family in metrics.FAMILIES
            for _ in range(n_versions) for _ in family]
        assert all(held <= {family} for family, held in calls)
        assert len(owner) == 8      # every key, each held by its family only

    def test_scores_equal_scratch_free_and_scratch_holds_one_family(
            self, demo_dataset, monkeypatch):
        manifest = load_manifest(demo_dataset["manifest"])
        entry = manifest.stimuli[0]
        ref_q = manifest.load_reference(entry)
        dists = [(tag, manifest.load_distorted(entry, tag)) for tag in entry.distorted]
        assert len(dists) >= 3
        ids = tuple(REAL_METRICS)
        assert sorted(mid for family in metrics.FAMILIES for mid in family) == sorted(ids)
        ap = ApertureSpec.for_view("center", ref_q.rows, ref_q.cols, entry.aperture_size)
        calls, owner = self._recorded(monkeypatch)

        # hologram planes
        ref_crop = harness.extract_aperture_quantized(ref_q, ap)
        crops = [harness.extract_aperture_quantized(q, ap) for _, q in dists]
        for plane in ("real_plane", "imag_plane"):
            calls.clear()
            got = harness._score_planes(ids, getattr(ref_crop, plane),
                                        [getattr(c, plane) for c in crops])
            self._check(calls, owner, len(dists))
            ref = getattr(ref_crop, plane).astype(np.float64)
            for crop, scores in zip(crops, got):
                dist = getattr(crop, plane).astype(np.float64)
                for mid in ids:
                    assert scores[mid] == metrics.evaluate_real(mid, ref, dist), mid

        # rendered views, as a qa3 job renders and scores them
        offset = entry.focal_offsets[0]
        ref_amp = harness.reconstruct_view(harness.dequantize_components(ref_q), ap, offset)
        bound = harness.view_clip_bound(ref_amp, 99.9)
        ref_codes = harness.clip_and_quantize_view(ref_amp, bound)
        calls.clear()
        got = harness._score_versions(TrackConfig("qa3"), dists, ap, offset, None, bound,
                                      ref_codes, ids)
        self._check(calls, owner, len(dists))
        assert [tag for tag, _ in got] == list(entry.distorted)
        for (_, q), (_, scores) in zip(dists, got):
            amp = harness.reconstruct_view(harness.dequantize_components(q), ap, offset)
            dist = harness.clip_and_quantize_view(amp, bound).astype(np.float64)
            for mid in ids:
                assert scores[mid] == metrics.evaluate_real(
                    mid, ref_codes.astype(np.float64), dist), mid

    def test_complex_scores_equal_scratch_free(self, demo_dataset):
        """A complex-crop job keeps one reference scratch across its versions
        (the FFT ranks ssrm_C and ssrmt_C share); its scores equal
        scratch-free ``evaluate_complex`` bit for bit."""
        manifest = load_manifest(demo_dataset["manifest"])
        entry = manifest.stimuli[0]
        ref_q = manifest.load_reference(entry)
        ap = ApertureSpec.for_view("center", ref_q.rows, ref_q.cols, entry.aperture_size)
        ref_crop = harness.extract_aperture_quantized(ref_q, ap)
        crops = [harness.extract_aperture_quantized(manifest.load_distorted(entry, tag), ap)
                 for tag in entry.distorted]
        assert len(crops) >= 3
        ids = ("mse", *metrics.COMPLEX_METRICS)      # the real id is not scored
        got = harness._score_complex(ids, ref_crop, crops)
        ref = harness.dequantize_components(ref_crop).data
        for crop, scores in zip(crops, got):
            dist = harness.dequantize_components(crop).data
            assert list(scores) == list(metrics.COMPLEX_METRICS)
            for mid in metrics.COMPLEX_METRICS:
                assert scores[mid] == metrics.evaluate_complex(mid, ref, dist), mid


@pytest.fixture(scope="module")
def qa2_view(demo_dataset):
    """The reference crop and three distorted crops of one qa2 view, as a
    qa2-demo job scores them: 384x384 Fresnel planes (256^2 fields, m = 2)."""
    manifest = load_manifest(demo_dataset["manifest"])
    entry = manifest.stimuli[0]
    config = TrackConfig("qa2")
    ref_q, *dists = [harness._prepared_field(config, manifest, entry, tag)
                     for tag in (None, *entry.distorted)]
    size = tuple(config.upsample_m * n for n in entry.aperture_size)
    ap = ApertureSpec.for_view("center", ref_q.rows, ref_q.cols, size)
    crops = [harness.extract_aperture_quantized(q, ap) for q in dists]
    assert size == (384, 384) and len(crops) == 3
    return harness.extract_aperture_quantized(ref_q, ap), crops


# Traced peak of one scoring job, in 384^2 float64 planes (1.18 MB each),
# three versions, warm caches. Measured with NumPy 2.4: mse 4.0, ssrm 10.0,
# ssim 11.37, uqi 9.04, gmsd 7.0, fsim 12.25, nlpd 8.68, vifp 9.72, complex
# crops 12.06; each bound adds 1 plane for other NumPy and Python versions.
# A view's two plane jobs run at once in the same family, and each worker
# thread's malloc arena keeps its largest transient, so a run's peak follows
# the heaviest job.
JOB_PEAK_PLANES = {"mse": 5.0, "ssrm": 11.0, "ssim": 12.4, "uqi": 10.1, "gmsd": 8.0,
                   "fsim": 13.3, "nlpd": 9.7, "vifp": 10.8, "complex": 13.1}
# qa2's conversion of one 256^2 field (``_prepared_field``), in the same
# planes: measured 10.01, bound with 1 plane added
PREPARED_PEAK_PLANES = 11.1
# FSIM's log-Gabor bank at 384^2: four spreads and four radial quadrants
# of 193^2, 5.01 planes
BANK_PLANES = 5.1


def _traced_peak(job, *args) -> int:
    """Bytes ``job(*args)`` allocates at its traced peak, once a first call
    has filled the module-level caches (window spectra, log-Gabor factors,
    FFT plans)."""
    job(*args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        job(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("family", metrics.FAMILIES, ids=lambda family: family[0])
def test_plane_job_peak(qa2_view, family):
    """One family's real-plane job stays within its bound."""
    ref_crop, crops = qa2_view
    peak = _traced_peak(harness._score_planes, family, ref_crop.real_plane,
                        [c.real_plane for c in crops])
    planes = peak / (ref_crop.real_plane.size * 8)
    assert planes <= JOB_PEAK_PLANES[family[0]], planes


def test_complex_job_peak(qa2_view):
    """The complex-crop job stays within its bound."""
    ref_crop, crops = qa2_view
    peak = _traced_peak(harness._score_complex, metrics.COMPLEX_METRICS, ref_crop, crops)
    planes = peak / (ref_crop.real_plane.size * 8)
    assert planes <= JOB_PEAK_PLANES["complex"], planes


def test_prepared_field_peak(demo_dataset):
    """qa2's conversion of one field to Fresnel form stays within its bound."""
    manifest = load_manifest(demo_dataset["manifest"])
    entry = manifest.stimuli[0]
    peak = _traced_peak(harness._prepared_field, TrackConfig("qa2"), manifest, entry)
    assert peak / (384 * 384 * 8) <= PREPARED_PEAK_PLANES, peak


def test_log_gabor_bank_size():
    """The 384^2 log-Gabor bank keeps only a quadrant of each radial profile."""
    spreads, radials = gradient._log_gabor_factors(384, 384)
    planes = sum(a.nbytes for a in spreads + radials) / (384 * 384 * 8)
    assert planes <= BANK_PLANES, planes


@pytest.fixture(scope="module")
def qa4_view(demo_dataset):
    """The dequantized reference, the quantized distorted versions, the
    centre aperture and the focal offsets of demo dataset 1234's first
    stimulus, as a qa4 job renders them: 192x192 views, three versions."""
    manifest = load_manifest(demo_dataset["manifest"])
    entry = manifest.stimuli[0]
    ref = dequantize_components(manifest.load_reference(entry))
    dists = tuple((tag, manifest.load_distorted(entry, tag)) for tag in entry.distorted)
    ap = ApertureSpec.for_view("center", ref.rows, ref.cols, entry.aperture_size)
    assert (ap.height, ap.width) == (192, 192) and len(dists) == 3
    return ref, dists, ap, entry.focal_offsets


# Traced peaks of the qa4 paths in 192^2 float64 planes (295 kB each), at
# each focal offset of the qa4_view, warm caches. Measured with NumPy 2.4: a
# whole ``_score_versions`` job 13.10 (FSIM's scoring sets it) and the
# reference preparation on the calling thread 5.0; each bound adds 1 plane.
QA4_PLANE = 192 * 192 * 8
QA4_JOB_PLANES = 14.1
REFERENCE_VIEW_PLANES = 6.1
# one metric's fit job, 48 samples against three displays, its grid widened
# by two scores 1e-12 apart: measured 2.08 MB, bound with 1 plane added
FIT_JOB_BYTES = 2.08e6 + QA4_PLANE


@pytest.mark.parametrize("focal", [0, 1])
def test_qa4_job_peak(qa4_view, focal):
    """One qa4 job (render, despeckle, quantize and score three versions)
    stays within its bound."""
    ref, dists, ap, offsets = qa4_view
    config = TrackConfig("qa4")
    wp, bound, codes = harness._reference_view(config, ref, ap, offsets[focal])
    peak = _traced_peak(harness._score_versions, config, dists, ap, offsets[focal], wp,
                        bound, codes, config.resolved_metrics())
    assert peak / QA4_PLANE <= QA4_JOB_PLANES, peak / QA4_PLANE


@pytest.mark.parametrize("focal", [0, 1])
def test_reference_view_peak(qa4_view, focal):
    """One (view, focal) reference preparation of qa4 stays within its bound."""
    ref, _, ap, offsets = qa4_view
    peak = _traced_peak(harness._reference_view, TrackConfig("qa4"), ref, ap, offsets[focal])
    assert peak / QA4_PLANE <= REFERENCE_VIEW_PLANES, peak / QA4_PLANE


def test_fit_job_peak():
    """One metric's fit job on 48 samples and three displays stays within
    its bound: the grid is projected a block at a time and kept nowhere."""
    rng = np.random.default_rng(27)
    scores = rng.lognormal(0.0, 1.0, 48)
    scores[1] = scores[0] * (1.0 + 1e-12)
    record_sets = [[MosRecord(f"s{i}", display, "center", 0, float(mos), 0.5, 20)
                    for i, mos in enumerate(rng.uniform(1.0, 5.0, 48))]
                   for display in Display]
    peak = _traced_peak(harness._evaluate_displays, "mse", list(scores), record_sets)
    assert peak <= FIT_JOB_BYTES, peak


def test_traced_attributes_resolve():
    """Every attribute the benchmark's span tracer wraps exists after import."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr in spans.WRAPPED:
        assert hasattr(importlib.import_module(module), attr), (module, attr)


class TestEmitReport:
    def test_files_written_and_round_trip(self, small_report, tmp_path):
        report, config = small_report
        out = str(tmp_path / "rep")
        paths = emit_report(report, out, config)
        names = {os.path.basename(p) for p in paths}
        for display in ("OPT", "LF", "2D"):
            assert f"qa1_{display}_criteria.csv" in names
            assert f"qa1_{display}_criteria.txt" in names
            assert f"qa1_{display}_significance.csv" in names
        assert "qa1_ranksums.csv" in names
        assert "qa1_raw_scores.csv" in names
        assert "qa1_config.json" in names

        with open(os.path.join(out, "qa1_OPT_criteria.csv")) as fh:
            rows = list(csv.DictReader(fh))
        for row, want in zip(rows, report.criteria[Display.OPT]):
            assert row["metric"] == want.metric_id
            assert abs(float(row["srocc"]) - want.srocc) < 1e-12
            assert abs(float(row["rmse"]) - want.rmse) < 1e-12

        with open(os.path.join(out, "qa1_raw_scores.csv")) as fh:
            raw = list(csv.DictReader(fh))
        assert len(raw) == len(report.raw_scores)
        assert abs(float(raw[0]["value"]) - report.raw_scores[0].value) < 1e-12
        with open(os.path.join(out, "qa1_raw_scores.csv")) as fh:
            assert "np." not in fh.read()

    def test_rank_sum_file_checksum(self, small_report, tmp_path):
        report, config = small_report
        out = str(tmp_path / "rep2")
        emit_report(report, out, config)
        with open(os.path.join(out, "qa1_ranksums.csv")) as fh:
            rows = list(csv.DictReader(fh))
        n = len(report.metric_ids)
        total = sum(float(r["rank_sum"]) for r in rows)
        assert total == pytest.approx(len(report.criteria) * 6 * n * (n + 1) / 2)

    def test_empty_metrics_error_before_files(self, small_report, tmp_path):
        report, _ = small_report
        out = str(tmp_path / "never")
        stub = report.__class__(report.track, (), report.criteria,
                                report.significance, report.rank_sums,
                                report.raw_scores)
        with pytest.raises(UnknownMetric):
            emit_report(stub, out)
        assert not os.path.exists(out)


def _python(*args):
    """A fresh interpreter that imports the ``holoqa`` under test."""
    src = os.path.dirname(os.path.dirname(holoqa.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def _run_module(*args):
    """``python -m holoqa.cli`` in a fresh interpreter."""
    return _python("-m", "holoqa.cli", *args)


def _cli(*args):
    """``holoqa.cli.main`` in this process, with stdout, stderr and the
    exit code (argparse's ``SystemExit`` included) captured as
    ``_run_module`` reports them; warnings go to the captured stderr as
    they would in a fresh interpreter."""
    out, err = io.StringIO(), io.StringIO()
    handler = logging.StreamHandler(err)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    logging.getLogger().addHandler(handler)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(args))
            except SystemExit as exc:
                code = exc.code or 0
    finally:
        logging.getLogger().removeHandler(handler)
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def _edit_json(edit):
    """Text maker: ``edit`` applied to the parsed JSON document."""
    def make(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return make


def _bad_mos(edit):
    """Case maker: the demo MOS table with ``edit`` applied to its rows
    (header first), next to the demo manifest."""
    def make(demo, tmp_path):
        with open(demo["mos"], newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        edit(rows)
        path = tmp_path / "mos.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        return demo["manifest"], str(path)
    return make


def _absolute_manifest(data):
    """The manifest document of dataset ``data``, its field paths made
    absolute so it stays valid in another directory."""
    with open(data["manifest"], encoding="utf-8") as fh:
        doc = json.load(fh)
    for s in doc["stimuli"]:
        s["reference"] = os.path.join(data["root"], s["reference"])
        s["distorted"] = {tag: os.path.join(data["root"], base)
                          for tag, base in s["distorted"].items()}
    return doc


def _bad_manifest(edit):
    """Case maker: the demo manifest, its field paths made absolute, with its
    text passed through ``edit``."""
    def make(demo, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(edit(json.dumps(_absolute_manifest(demo))), encoding="utf-8")
        return str(path), demo["mos"]
    return make


def _set_first_row(column, value):
    def edit(rows):
        rows[1][rows[0].index(column)] = value
    return edit


def _set_stimulus(key, value):
    return _edit_json(lambda doc: doc["stimuli"][0].update({key: value}))


BAD_INPUTS = {
    "mos-missing-column": _bad_mos(lambda rows: [r.pop() for r in rows]),
    "mos-non-numeric": _bad_mos(_set_first_row("mos", "high")),
    "mos-unknown-display": _bad_mos(_set_first_row("display", "VR")),
    "mos-non-finite": _bad_mos(_set_first_row("std", "nan")),
    "mos-negative-std": _bad_mos(_set_first_row("std", "-1")),
    "mos-zero-n": _bad_mos(_set_first_row("n", "0")),
    "mos-negative-focal": _bad_mos(_set_first_row("focal_index", "-3")),
    "mos-duplicate-key": _bad_mos(lambda rows: rows.append(list(rows[1]))),
    "mos-outside-scale": _bad_mos(_set_first_row("mos", "9.0")),
    "manifest-no-reference": _bad_manifest(
        _edit_json(lambda doc: doc["stimuli"][0].pop("reference"))),
    "manifest-invalid-json": _bad_manifest(lambda text: text[:len(text) // 2]),
    "manifest-stimuli-number": _bad_manifest(_edit_json(
        lambda doc: doc.update(stimuli=3))),
    "manifest-stimulus-number": _bad_manifest(_edit_json(
        lambda doc: doc["stimuli"].append(3))),
    "manifest-scale-text": _bad_manifest(_edit_json(
        lambda doc: doc.update(rating_scale="abc"))),
    "manifest-scale-reversed": _bad_manifest(_edit_json(
        lambda doc: doc.update(rating_scale=[5, 1]))),
    "manifest-unknown-view": _bad_manifest(_edit_json(
        lambda doc: doc.update(views=["center", "left"]))),
    "manifest-aperture-text": _bad_manifest(_set_stimulus("aperture_size", ["a", 2])),
    "manifest-focal-text": _bad_manifest(_set_stimulus("focal_offsets", ["x"])),
    "manifest-focal-empty": _bad_manifest(_set_stimulus("focal_offsets", [])),
    "manifest-duplicate-id": _bad_manifest(_edit_json(
        lambda doc: doc["stimuli"].append(doc["stimuli"][0]))),
    "manifest-duplicate-view": _bad_manifest(_edit_json(
        lambda doc: doc.update(views=["center", "center"]))),
    "manifest-nul-path": _bad_manifest(_set_stimulus("reference", "fields/dots\0ref")),
}

# any JSON value: NaN, infinities and 1e308 included
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats()
    | st.sampled_from([1e308, -0.0, "center", "corner", "requant5"]) | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)


BAD_SIDECARS = {
    "invalid-json": lambda text: text[:len(text) // 2],
    "not-an-object": lambda text: "[1, 2]",
    "no-rows": _edit_json(lambda doc: doc.pop("rows")),
    "no-wavelength": _edit_json(lambda doc: doc.pop("wavelength")),
    "no-affine-scale": _edit_json(lambda doc: doc["real_affine"].pop("scale")),
    "rows-not-int": _edit_json(lambda doc: doc.update(rows="abc")),
    "pitch-not-number": _edit_json(lambda doc: doc.update(pixel_pitch=None)),
    "pitch-nan": _edit_json(lambda doc: doc.update(pixel_pitch=float("nan"))),
    "affine-not-object": _edit_json(lambda doc: doc.update(imag_affine=3)),
    "grid-negative": _edit_json(lambda doc: doc.update(rows=-1, cols=-1)),
    "grid-empty": _edit_json(lambda doc: doc.update(rows=0, cols=0)),
}
# planes that hold exactly the samples such a sidecar declares
_SIDECAR_PLANES = {"grid-negative": b"\x00", "grid-empty": b""}

_PLAN = {"m": 2, "z": 0.1, "source_rows": 256, "source_cols": 256,
         "target_rows": 512, "target_cols": 512, "target_pitch": 4e-6,
         "wavelength": 6.4e-7}

BAD_PLANS = {
    "missing-key": {k: v for k, v in _PLAN.items() if k != "z"},
    "extra-key": dict(_PLAN, shift=0.0),
    "m-text": dict(_PLAN, m="2"),
    "z-null": dict(_PLAN, z=None),
    "m-one": dict(_PLAN, m=1),
    "wavelength-zero": dict(_PLAN, wavelength=0),
}


@pytest.fixture(scope="module")
def fresnel_base(demo_dataset, tmp_path_factory):
    """``ring_ref`` converted to a 512x512 float32 Fresnel field, the grid
    ``_PLAN`` inverts."""
    base = str(tmp_path_factory.mktemp("fresnel") / "ring_fresnel")
    out = _cli("convert", "--in", os.path.join(demo_dataset["root"], "fields", "ring_ref"),
               "--out", base)
    assert out.returncode == 0, out.stderr
    return base


class TestCli:
    # one fresh-interpreter run per exit code (0, 2, 1); the rest run in-process

    def test_version(self):
        out = _run_module("--version")
        assert out.returncode == 0
        assert "holoqa" in out.stdout

    def test_import_loads_no_stats_signal_or_optimize_and_starts_no_thread(self):
        out = _python("-c", "import sys, threading, holoqa.cli; "
                            "print(sorted(m for m in sys.modules if m.startswith("
                            "('scipy.stats', 'scipy.signal', 'scipy.optimize'))), "
                            "threading.active_count())")
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["[]", "1"]

    def test_bench_fits_without_loading_optimize(self, tmp_path):
        # a whole qa4 run, logistic fits included, in a fresh interpreter
        root = str(tmp_path)
        manifest = generate_demo_dataset(root, scenes=("dots",), bits_levels=(7, 6),
                                         seed=1234)
        rep = os.path.join(root, "rep")
        out = _python("-c", "import sys, holoqa.cli; code = holoqa.cli.main(["
                            f"'bench', '--manifest', {manifest!r}, '--mos', "
                            f"{os.path.join(root, 'mos.csv')!r}, '--track', 'qa4', "
                            f"'--out', {rep!r}]); "
                            "print(code, [m for m in sys.modules "
                            "if m.startswith('scipy.optimize')])")
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "0 []"
        with open(os.path.join(rep, "qa4_OPT_criteria.csv"), newline="",
                  encoding="utf-8") as fh:
            rmse = [float(r["rmse"]) for r in csv.DictReader(fh)]
        assert rmse and all(np.isfinite(rmse))

    def test_unknown_metric_exit_2_lists_registry(self, demo_dataset):
        out = _run_module("bench", "--manifest", demo_dataset["manifest"],
                          "--mos", demo_dataset["mos"], "--track", "qa1",
                          "--metrics", "bogus", "--out", "/tmp/never")
        assert out.returncode == 2
        assert "bogus" in out.stderr
        assert "ssim" in out.stderr and "vifp" in out.stderr

    def test_missing_file_exit_1(self):
        out = _run_module("bench", "--manifest", "/nonexistent/m.json",
                          "--mos", "/nonexistent/mos.csv", "--track", "qa1",
                          "--out", "/tmp/never")
        assert out.returncode == 1

    @pytest.mark.parametrize("command,value", [
        ("bench", ","), ("bench", " , "), ("bench", ""), ("score", ","), ("score", ""),
    ], ids=["bench-comma", "bench-blank", "bench-empty", "score-comma", "score-empty"])
    def test_empty_metrics_exit_2(self, demo_dataset, tmp_path, command, value):
        rep = tmp_path / "rep"
        if command == "bench":
            args = ("--manifest", demo_dataset["manifest"], "--mos", demo_dataset["mos"],
                    "--track", "qa3", "--out", str(rep))
        else:
            base = os.path.join(demo_dataset["root"], "fields", "dots_ref")
            args = ("--ref", base, "--dist", base)
        out = _cli(command, *args, "--metrics", value)
        assert out.returncode == 2
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith("error: ")
        assert out.stdout == ""
        assert not rep.exists()

    def test_score_pair_of_views(self, demo_dataset, tmp_path):
        root = demo_dataset["root"]
        ref_base = os.path.join(root, "fields", "dots_ref")
        a = str(tmp_path / "a.pgm")
        b = str(tmp_path / "b.pgm")
        assert _cli("reconstruct", "--in", ref_base, "--out", a,
                    "--aperture", "192", "192").returncode == 0
        dist_base = os.path.join(root, "fields", "dots_requant5")
        assert _cli("reconstruct", "--in", dist_base, "--out", b,
                    "--aperture", "192", "192").returncode == 0
        maps = tmp_path / "maps"
        out = _cli("score", "--ref", a, "--dist", b,
                   "--metrics", "mse,ssim,gmsd", "--emit-maps", "--out", str(maps))
        assert out.returncode == 0
        lines = dict(l.split("\t") for l in out.stdout.strip().splitlines())
        assert set(lines) == {"mse", "ssim", "gmsd"}
        assert float(lines["ssim"]) < 1.0
        assert sorted(os.listdir(maps)) == ["gmsd_map.pgm", "ssim_map.pgm"]
        for name, side in (("ssim_map.pgm", 182), ("gmsd_map.pgm", 192)):
            codes = load_gray_pgm(str(maps / name))
            assert codes.shape == (side, side)
            assert codes.min() == 0 and codes.max() == 255

    def test_score_field_bases_scores_amplitudes(self, demo_dataset, fresnel_base, tmp_path):
        from holoqa.field import load_any_field
        from holoqa.metrics import evaluate_real

        fields = os.path.join(demo_dataset["root"], "fields")
        dist_fresnel = str(tmp_path / "ring_requant5_fresnel")
        assert _cli("convert", "--in", os.path.join(fields, "ring_requant5"),
                    "--out", dist_fresnel).returncode == 0
        # an 8-bit pair, then a float32 pair
        for ref_base, dist_base in [(os.path.join(fields, "ring_ref"),
                                     os.path.join(fields, "ring_requant5")),
                                    (fresnel_base, dist_fresnel)]:
            out = _cli("score", "--ref", ref_base, "--dist", dist_base, "--metrics", "mse,ssim")
            assert out.returncode == 0, out.stderr
            lines = dict(l.split("\t") for l in out.stdout.strip().splitlines())
            ref = np.abs(load_any_field(ref_base).data)
            dist = np.abs(load_any_field(dist_base).data)
            assert lines == {mid: repr(evaluate_real(mid, ref, dist)) for mid in ("mse", "ssim")}

    def test_score_identity_is_perfect(self, demo_dataset):
        base = os.path.join(demo_dataset["root"], "fields", "dots_ref")
        out = _cli("score", "--ref", base, "--dist", base,
                   "--metrics", "mse_C,psnr_C")
        assert out.returncode == 0
        lines = dict(l.split("\t") for l in out.stdout.strip().splitlines())
        assert float(lines["mse_C"]) == 0.0
        assert lines["psnr_C"].strip() == "inf"

    def test_reconstruct_sidecar_records_offset_and_focus_distance(self, demo_dataset,
                                                                    tmp_path):
        from holoqa.field import load_any_field
        from holoqa.transform import nominal_focus_distance

        base = os.path.join(demo_dataset["root"], "fields", "dots_ref")
        view = tmp_path / "v.pgm"
        assert _cli("reconstruct", "--in", base, "--out", str(view), "--view", "center",
                    "--aperture", "192", "192", "--focal-offset", "0.001").returncode == 0
        meta = json.loads((tmp_path / "v.pgm.json").read_text())
        assert meta["focal_offset"] == 0.001
        assert meta["focus_distance"] == nominal_focus_distance(load_any_field(base)) + 0.001

    def test_denoise_round_trip(self, demo_dataset, tmp_path):
        base = os.path.join(demo_dataset["root"], "fields", "bars_ref")
        view = str(tmp_path / "v.pgm")
        den = str(tmp_path / "d.pgm")
        assert _cli("reconstruct", "--in", base, "--out", view).returncode == 0
        assert _cli("denoise", "--in", view, "--out", den).returncode == 0
        from holoqa.transform import load_gray_pgm

        assert load_gray_pgm(den).shape == load_gray_pgm(view).shape

    @pytest.mark.parametrize("content", [
        b"P5\n16 16\n255\n" + bytes(range(40 - 13)),   # 40-byte cut of 16x16
        b"P5\nsixteen 16\n255\n" + bytes(256),
        b"P5\n0 0\n255\n",
        b"P5\n5 0\n255\n",
    ], ids=["truncated", "bad-dims", "empty", "no-rows"])
    def test_denoise_bad_pgm_exit_1(self, tmp_path, content):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(content)
        out = _cli("denoise", "--in", str(bad), "--out", str(tmp_path / "d.pgm"))
        assert out.returncode == 1
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith("error: ")

    def test_score_empty_pgm_exit_1(self, tmp_path):
        bad = tmp_path / "empty.pgm"
        bad.write_bytes(b"P5\n0 0\n255\n")
        out = _cli("score", "--ref", str(bad), "--dist", str(bad), "--metrics", "mse,psnr")
        assert out.returncode == 1
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith("error: ")
        assert out.stdout == ""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_score_fuzzed_pgm_exits_1_or_scores(self, tmp_path_factory, data):
        dim = st.one_of(st.integers(0, 4).map(str),
                        st.sampled_from(["-1", "-3", "x", "2.5", "+2", "\uff12"]))
        tokens = [data.draw(st.sampled_from(["P5", "P5", "P2", "p5"])),
                  data.draw(dim), data.draw(dim),
                  data.draw(st.sampled_from(["255", "255", "0", "1", "65535", "-255", "max"]))]
        seps = st.sampled_from([" ", "\n", "\t ", "\n# comment\n", " #c 7\n"])
        header = tokens[0] + "".join(data.draw(seps) + t for t in tokens[1:]) + "\n"
        declared = (int(tokens[1]) * int(tokens[2])
                    if tokens[1].isdigit() and tokens[2].isdigit() else 4)
        size = max(0, declared + data.draw(st.integers(-2, 2)))
        body = data.draw(st.binary(min_size=size, max_size=size))
        path = tmp_path_factory.getbasetemp() / "fuzzed.pgm"
        path.write_bytes(header.encode() + body)
        out = _cli("score", "--ref", str(path), "--dist", str(path), "--metrics", "mse,psnr")
        if out.returncode == 1:
            assert len(out.stderr.splitlines()) == 1
            assert out.stderr.startswith("error: ")
        else:
            assert out.returncode == 0, out.stderr
            assert "nan" not in out.stdout.lower()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_bench_fuzzed_manifest_exits_1_or_runs(self, tmp_path_factory, tiny_dataset,
                                                   data):
        doc = _absolute_manifest(tiny_dataset)
        stimulus = doc["stimuli"][0]
        target = data.draw(st.sampled_from(["top", "stimulus", "distorted", "delete"]))
        if target == "delete":
            del stimulus[data.draw(st.sampled_from(sorted(stimulus)))]
        else:
            where = {"top": doc, "stimulus": stimulus,
                     "distorted": stimulus["distorted"]}[target]
            where[data.draw(st.sampled_from(sorted(where)))] = data.draw(_JSON_VALUES)
        base = tmp_path_factory.getbasetemp()
        path = base / "fuzzed_manifest.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = _cli("bench", "--manifest", str(path), "--mos", tiny_dataset["mos"],
                   "--track", "qa1", "--metrics", "mse", "--out", str(base / "fuzzed_rep"))
        if out.returncode == 1:
            # warnings (a stimulus with no MOS record) may come first
            errors = [l for l in out.stderr.splitlines() if l.startswith("error: ")]
            assert len(errors) == 1, out.stderr
        else:
            assert out.returncode == 0, out.stderr

    def test_bench_relocated_manifest_exit_0(self, demo_dataset, tmp_path):
        # the unedited case maker output is valid: each bad input fails on its edit
        manifest, mos = _bad_manifest(lambda text: text)(demo_dataset, tmp_path)
        out = _cli("bench", "--manifest", manifest, "--mos", mos, "--track", "qa1",
                   "--metrics", "mse", "--out", str(tmp_path / "rep"))
        assert out.returncode == 0
        assert out.stderr == ""

    @pytest.mark.parametrize("make", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
    def test_bench_malformed_input_exit_1(self, demo_dataset, tmp_path, make):
        manifest, mos = make(demo_dataset, tmp_path)
        out = _cli("bench", "--manifest", manifest, "--mos", mos, "--track", "qa1",
                   "--metrics", "mse", "--out", str(tmp_path / "rep"))
        assert out.returncode == 1
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith("error: ")

    def test_duplicate_metric_exit_2(self, demo_dataset, tmp_path):
        out = _cli("bench", "--manifest", demo_dataset["manifest"],
                   "--mos", demo_dataset["mos"], "--track", "qa3",
                   "--metrics", "mse,mse,psnr", "--out", str(tmp_path / "rep"))
        assert out.returncode == 2
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith("error: ") and "'mse'" in out.stderr
        assert not os.path.exists(tmp_path / "rep")

    @pytest.mark.parametrize("name,edit", BAD_SIDECARS.items(), ids=BAD_SIDECARS.keys())
    def test_reconstruct_bad_sidecar_exit_1(self, demo_dataset, tmp_path, name, edit):
        src = os.path.join(demo_dataset["root"], "fields", "dots_ref")
        base = str(tmp_path / "dots_ref")
        for ext in (".re.u8", ".im.u8"):
            if name in _SIDECAR_PLANES:
                with open(base + ext, "wb") as fh:
                    fh.write(_SIDECAR_PLANES[name])
            else:
                shutil.copy(src + ext, base + ext)
        with open(src + ".meta.json", encoding="utf-8") as fh:
            text = fh.read()
        with open(base + ".meta.json", "w", encoding="utf-8") as fh:
            fh.write(edit(text))
        out = _cli("reconstruct", "--in", base, "--out", str(tmp_path / "v.pgm"))
        assert out.returncode == 1
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith("error: ")

    @pytest.mark.parametrize("command,flag,value", [
        ("denoise", "--wiener-noise", "abc"),
        ("denoise", "--wiener-noise", "nan"),
        ("denoise", "--wiener-noise", "-1"),
        ("bench", "--wiener-noise", "nan"),
        ("bench", "--wiener-noise", "inf"),
        ("denoise", "--wiener-noise", "inf"),
        ("reconstruct", "--clip-percentile", "150"),
        ("reconstruct", "--clip-percentile", "nan"),
        ("bench", "--clip-percentile", "-0.5"),
        ("bench", "--clip-percentile", "abc"),
        ("reconstruct", "--focal-offset", "nan"),
        ("reconstruct", "--focal-offset", "inf"),
        ("denoise", "--wiener-window", "4"),
        ("bench", "--wiener-window", "1"),
        ("synth", "--size", "0"),
        ("synth", "--aperture", "-4"),
        ("bench", "--upsample-m", "1"),
        ("convert", "--upsample-m", "0"),
    ], ids=["denoise-noise-text", "denoise-noise-nan", "denoise-noise-negative",
            "bench-noise-nan", "bench-noise-inf", "denoise-noise-inf",
            "reconstruct-percentile-150", "reconstruct-percentile-nan",
            "bench-percentile-negative", "bench-percentile-text",
            "reconstruct-focal-nan", "reconstruct-focal-inf", "denoise-window-even",
            "bench-window-1", "synth-size-0", "synth-aperture-negative",
            "bench-upsample-1", "convert-upsample-0"])
    def test_bad_flag_value_exit_2(self, demo_dataset, tmp_path, command, flag, value):
        target = tmp_path / "out"
        args = {
            "denoise": ("--in", str(tmp_path / "absent.pgm"), "--out", str(target)),
            "reconstruct": ("--in", os.path.join(demo_dataset["root"], "fields", "dots_ref"),
                            "--out", str(target)),
            "bench": ("--manifest", demo_dataset["manifest"], "--mos", demo_dataset["mos"],
                      "--track", "qa4", "--out", str(target)),
            "convert": ("--in", os.path.join(demo_dataset["root"], "fields", "ring_ref"),
                        "--out", str(target)),
            "synth": ("--out", str(target)),
        }[command]
        out = _cli(command, *args, flag, value)
        assert out.returncode == 2
        assert f"argument {flag}: invalid" in out.stderr and repr(value) in out.stderr
        assert "Traceback" not in out.stderr
        assert not target.exists()

    @pytest.mark.parametrize("size, bad", [(("0", "0"), "0"), (("-4", "8"), "-4")],
                             ids=["zero", "negative"])
    def test_bad_aperture_exit_2(self, demo_dataset, tmp_path, size, bad):
        target = tmp_path / "view.pgm"
        out = _cli("reconstruct", "--in", os.path.join(demo_dataset["root"], "fields",
                                                       "dots_ref"),
                   "--out", str(target), "--aperture", *size)
        assert out.returncode == 2
        assert "argument --aperture: invalid" in out.stderr and repr(bad) in out.stderr
        assert "Traceback" not in out.stderr
        assert not target.exists()

    def test_aperture_larger_than_field_exit_1(self, demo_dataset, tmp_path):
        target = tmp_path / "view.pgm"
        out = _cli("reconstruct", "--in", os.path.join(demo_dataset["root"], "fields",
                                                       "dots_ref"),
                   "--out", str(target), "--aperture", "300", "300")
        assert out.returncode == 1
        assert out.stderr == ("error: 300x300 window at (-22, -22) does not fit a "
                              "256x256 field\n")
        assert not target.exists()

    def test_convert_inverse_without_plan_exit_2(self, demo_dataset, tmp_path):
        base = os.path.join(demo_dataset["root"], "fields", "ring_ref")
        out = _cli("convert", "--in", base, "--out", str(tmp_path / "back"),
                   "--inverse")
        assert out.returncode == 2
        assert "--plan" in out.stderr
        assert "Traceback" not in out.stderr

    def test_convert_plan_template_exit_0(self, fresnel_base, tmp_path):
        # the unedited plan inverts the Fresnel field: each bad plan fails on its edit
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(_PLAN), encoding="utf-8")
        out = _cli("convert", "--in", fresnel_base, "--out", str(tmp_path / "back"),
                   "--inverse", "--plan", str(path))
        assert out.returncode == 0, out.stderr
        assert out.stderr == ""

    @pytest.mark.filterwarnings("error")   # no NumPy warning before the error line
    @pytest.mark.parametrize("plan", BAD_PLANS.values(), ids=BAD_PLANS.keys())
    def test_convert_bad_plan_exit_1(self, fresnel_base, tmp_path, plan):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan), encoding="utf-8")
        out = _cli("convert", "--in", fresnel_base, "--out", str(tmp_path / "back"),
                   "--inverse", "--plan", str(path))
        assert out.returncode == 1
        assert len(out.stderr.splitlines()) == 1
        assert out.stderr.startswith("error: ")
        assert not os.path.exists(tmp_path / "back.meta.json")

    def test_convert_round_trip(self, demo_dataset, tmp_path):
        base = os.path.join(demo_dataset["root"], "fields", "ring_ref")
        fres = str(tmp_path / "fres")
        back = str(tmp_path / "back")
        assert _cli("convert", "--in", base, "--out", fres).returncode == 0
        assert _cli("convert", "--in", fres, "--out", back, "--inverse",
                    "--plan", fres + ".plan.json").returncode == 0
        from holoqa.field import dequantize_components, load_field, load_quantized

        orig = dequantize_components(load_quantized(base))
        rt = load_field(back)
        rel = (np.linalg.norm(rt.data - orig.data)
               / np.linalg.norm(orig.data))
        # float32 storage bounds the round trip, conversion itself is lossless
        assert rel < 1e-6

    def test_bench_emits_reports(self, demo_dataset, tmp_path):
        out_dir = str(tmp_path / "rep")
        out = _cli("bench", "--manifest", demo_dataset["manifest"],
                   "--mos", demo_dataset["mos"], "--track", "qa1",
                   "--metrics", "mse,ssim", "--out", out_dir)
        assert out.returncode == 0
        assert os.path.exists(os.path.join(out_dir, "qa1_ranksums.csv"))
        with open(os.path.join(out_dir, "qa1_config.json")) as fh:
            cfg = json.load(fh)
        assert cfg["metrics"] == ["mse", "ssim"]
