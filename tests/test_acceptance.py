"""Acceptance suite: one test per binding criterion (1-9), named so that the
verbose pytest output gives one pass/fail line per criterion. Criterion 10
needs an external hologram dataset and is skipped unless its environment
variables are set.
"""

import csv
import filecmp
import math
import os
import time

import numpy as np
import pytest

from holoqa.field import HologramForm, WaveField
from holoqa.harness import TrackConfig, emit_report, load_manifest, run_track
from holoqa.metrics import (
    ALL_METRIC_IDS,
    COMPLEX_METRICS,
    REAL_METRICS,
    evaluate_complex,
    evaluate_real,
    perfect_value,
)
from holoqa.stats import (
    CRITERIA,
    CriteriaRow,
    Display,
    LogisticFit,
    MosRecord,
    fit_logistic4,
    krcc,
    outlier_ratio,
    pcc,
    rank_aggregate,
    read_mos_csv,
    significance_matrix,
    srocc,
)
from holoqa.transform import (
    compute_focus_distance,
    fourier_to_fresnel,
    fresnel_to_fourier,
)

_BITS = (7, 6, 5, 4)


def test_criterion_01_conversion_invertibility():
    rng = np.random.default_rng(100)
    data = rng.normal(size=(512, 512)) + 1j * rng.normal(size=(512, 512))
    f = WaveField(data, 8e-6, 640e-9, HologramForm.FOURIER)
    t0 = time.perf_counter()
    fres, plan = fourier_to_fresnel(f, 2)
    back = fresnel_to_fourier(fres, plan)
    elapsed = time.perf_counter() - t0
    rel = np.linalg.norm(back.data - f.data) / np.linalg.norm(f.data)
    assert rel < 1e-9
    assert elapsed < 5.0
    print(f"criterion 1 PASS: round-trip rel error {rel:.2e} in {elapsed:.2f} s")


def test_criterion_02_focus_distance_formula():
    z = compute_focus_distance(2048, 8e-6, 640e-9, 2)
    assert z == pytest.approx(0.4096, rel=0, abs=1e-15)
    base = compute_focus_distance(1024, 4e-6, 640e-9, 2)
    assert compute_focus_distance(2048, 4e-6, 640e-9, 2) == pytest.approx(
        2.0 * base, rel=1e-12)
    assert compute_focus_distance(1024, 8e-6, 640e-9, 2) == pytest.approx(
        4.0 * base, rel=1e-12)
    assert compute_focus_distance(1024, 4e-6, 320e-9, 2) == pytest.approx(
        2.0 * base, rel=1e-12)
    print("criterion 2 PASS: z = 0.4096 m and scaling laws hold to 1e-12")


def test_criterion_03_metric_identity_suite():
    rng = np.random.default_rng(101)
    img = rng.integers(0, 256, (200, 200)).astype(np.float64)
    for mid in REAL_METRICS:
        assert evaluate_real(mid, img, img.copy()) == perfect_value(mid), mid
    fld = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    for mid in COMPLEX_METRICS:
        assert evaluate_complex(mid, fld, fld.copy()) == perfect_value(mid), mid
    print("criterion 3 PASS: all 18 metrics perfect on identical inputs")


def test_criterion_04_monotonicity(monotonicity_dataset):
    manifest = load_manifest(monotonicity_dataset["manifest"])
    mos = read_mos_csv(monotonicity_dataset["mos"])
    for track in ("qa1", "qa3"):
        report = run_track(manifest, mos, TrackConfig(track))
        per_scene = {}
        for rec in report.raw_scores:
            scene, tag = rec.stimulus_id.split(":")
            per_scene.setdefault((scene, rec.metric_id), {}).setdefault(
                tag, []).append(rec.value)
        for (scene, mid), by_tag in per_scene.items():
            vec = [float(np.mean(by_tag[f"requant{b}"])) for b in _BITS]
            vec = [v if np.isfinite(v) else 1e18 for v in vec]
            assert abs(srocc(vec, list(_BITS))) == 1.0, (track, scene, mid)
    print("criterion 4 PASS: SROCC vs bit depth is 1.0 for every metric "
          "on 3 holograms in qa1 and qa3")


def test_criterion_05_rank_statistic_oracles():
    def brute_srocc(x, y):
        def ranks(v):
            v = np.asarray(v, dtype=float)
            return np.array([np.sum(v < a) + (np.sum(v == a) + 1) / 2.0
                             for a in v])
        rx = ranks(x) - ranks(x).mean()
        ry = ranks(y) - ranks(y).mean()
        return float(np.sum(rx * ry)
                     / np.sqrt(np.sum(rx ** 2) * np.sum(ry ** 2)))

    def brute_krcc(x, y):
        n = len(x)
        conc = disc = tx = ty = 0
        for i in range(n):
            for j in range(i + 1, n):
                a = np.sign(x[i] - x[j])
                b = np.sign(y[i] - y[j])
                if a == 0:
                    tx += 1
                if b == 0:
                    ty += 1
                if a != 0 and b != 0:
                    if a == b:
                        conc += 1
                    else:
                        disc += 1
        n0 = n * (n - 1) // 2
        return (conc - disc) / np.sqrt(float(n0 - tx) * float(n0 - ty))

    rng = np.random.default_rng(102)
    checked = 0
    while checked < 200:
        n = int(rng.integers(3, 13))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        if checked % 2:
            x = np.round(x)
            y = np.round(y)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        assert abs(srocc(x, y) - brute_srocc(x, y)) < 1e-12
        assert abs(krcc(x, y) - brute_krcc(x, y)) < 1e-12
        checked += 1
    print("criterion 5 PASS: SROCC/KRCC match brute-force oracles on "
          "200 vectors with and without ties")


def test_criterion_06_logistic_fit():
    rng = np.random.default_rng(103)
    beta = (1.1, 4.9, 0.3, 0.8)
    x = np.sort(rng.uniform(-2.5, 3.0, 50))
    y = LogisticFit(*beta, True, 0.0).predict(x)
    fit = fit_logistic4(x, y)
    for got, want in zip((fit.b1, fit.b2, fit.b3, abs(fit.b4)), beta):
        assert abs(got - want) / abs(want) < 0.01
    xs = np.linspace(0.0, 10.0, 30)
    ys = 5.0 - 0.35 * xs
    dec_fit = fit_logistic4(xs, ys)
    pred = dec_fit.predict(xs)
    assert np.all(np.diff(pred) <= 1e-9)
    assert pcc(pred, ys) > 0.0
    print("criterion 6 PASS: logistic parameters recovered within 1%, "
          "decreasing relation fit is monotone with positive fitted PCC")


def test_criterion_07_outlier_ratio_and_significance():
    x = np.linspace(1.0, 5.0, 10)
    fit = fit_logistic4(x, x)
    records = [
        MosRecord(f"s{i}", Display.OPT, "center", 0,
                  float(xi + (10.0 if i < 3 else 0.0)),
                  0.5 if i < 3 else 2.0, 20)
        for i, xi in enumerate(x)
    ]
    assert outlier_ratio(fit, x, records) == pytest.approx(0.3)

    rng = np.random.default_rng(104)
    sets = {f"m{i}": np.abs(rng.normal(0, 1 + i, 30)) for i in range(5)}
    mat = significance_matrix(sets)
    assert np.array_equal(mat.entries, -mat.entries.T)
    assert np.all(np.diag(mat.entries) == 0)

    base = np.abs(rng.normal(0, 1, 40))
    shifted = significance_matrix({"good": base, "bad": base + 2.0})
    i = shifted.metric_ids.index("good")
    j = shifted.metric_ids.index("bad")
    assert shifted.entries[i, j] == 1 and shifted.entries[j, i] == -1
    print("criterion 7 PASS: outlier ratio 0.3, significance matrices "
          "antisymmetric, shifted pair detected as +1/-1")


def test_criterion_08_rank_aggregation_checksum():
    rng = np.random.default_rng(105)
    n = 7
    tables = []
    for _ in range(3):
        rows = []
        for i in range(n):
            v = [float(rng.uniform()) for _ in range(6)]
            rows.append(CriteriaRow(f"m{i}", *v, *v[:3]))  # signed = absolute
        tables.append(rows)
    # per criterion row: scores sum to n(n+1)/2
    for table in tables:
        sums = rank_aggregate([table])
        assert sum(sums.values()) == pytest.approx(6 * n * (n + 1) / 2)
    totals = rank_aggregate(tables)
    assert sum(totals.values()) == pytest.approx(18 * n * (n + 1) / 2)
    print("criterion 8 PASS: rank scores sum to n(n+1)/2 per criterion row, "
          "grand totals to 18*n(n+1)/2")


GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _assert_golden_raw_scores(report):
    """Raw scores equal tests/golden/<track>_raw_scores.csv at rtol 1e-9, with
    the +inf PSNR sentinel matched exactly (see tests/golden/record.py)."""
    with open(os.path.join(GOLDEN_DIR, f"{report.track}_raw_scores.csv"),
              newline="", encoding="utf-8") as fh:
        golden = list(csv.DictReader(fh))
    assert len(report.raw_scores) == len(golden)
    for rec, want in zip(report.raw_scores, golden):
        key = (rec.stimulus_id, rec.view, str(rec.focal_index), rec.metric_id)
        assert key == (want["stimulus_id"], want["view"], want["focal_index"],
                       want["metric"])
        w = float(want["value"])
        if math.isinf(w) or math.isinf(rec.value):
            assert rec.value == w, key
        else:
            assert abs(rec.value - w) <= 1e-9 * abs(w), (key, rec.value, w)


def _assert_golden_criteria(report):
    """Every criteria cell equals tests/golden/<track>_<display>_criteria.csv
    at rtol 1e-9, NaN (degenerate metric) matching NaN."""
    for display, rows in report.criteria.items():
        name = f"{report.track}_{display.value}_criteria.csv"
        with open(os.path.join(GOLDEN_DIR, name), newline="", encoding="utf-8") as fh:
            golden = list(csv.DictReader(fh))
        assert [r.metric_id for r in rows] == [g["metric"] for g in golden], name
        for row, want in zip(rows, golden):
            for col in CRITERIA + ("srocc_signed", "krcc_signed", "pcc_nofit_signed"):
                got, w = getattr(row, col), float(want[col])
                key = (name, row.metric_id, col)
                if math.isnan(w) or math.isnan(got):
                    assert math.isnan(w) and math.isnan(got), key
                else:
                    assert abs(got - w) <= 1e-9 * abs(w), (key, got, w)


def test_criterion_09_end_to_end_desk_scale(demo_dataset, tmp_path):
    manifest = load_manifest(demo_dataset["manifest"])
    mos = read_mos_csv(demo_dataset["mos"])
    t0 = time.perf_counter()
    reports = {}
    for track in ("qa1", "qa2", "qa3", "qa4"):
        config = TrackConfig(track)
        report = run_track(manifest, mos, config)
        out = str(tmp_path / track)
        emit_report(report, out, config)
        reports[track] = (report, config, out)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0

    for track, (report, _, out) in reports.items():
        assert set(report.criteria) == set(Display)
        n_metrics = len(report.metric_ids)
        for rows in report.criteria.values():
            assert len(rows) == n_metrics
        assert len(report.significance) == 3
        assert len(report.rank_sums) == n_metrics
        assert os.path.exists(os.path.join(out, f"{track}_ranksums.csv"))
        _assert_golden_raw_scores(report)
        _assert_golden_criteria(report)

    # byte-identical re-run of one track
    report, config, out = reports["qa1"]
    rerun = run_track(manifest, mos, config)
    out2 = str(tmp_path / "qa1_rerun")
    emit_report(rerun, out2, config)
    for name in os.listdir(out):
        assert filecmp.cmp(os.path.join(out, name), os.path.join(out2, name),
                           shallow=False), name
    print(f"criterion 9 PASS: all four tracks completed in {elapsed:.0f} s "
          "with complete reports, byte-identical on re-run")


@pytest.mark.skipif(
    "HOLOQA_EXTDB_MANIFEST" not in os.environ,
    reason="external hologram dataset not provided "
           "(set HOLOQA_EXTDB_MANIFEST and HOLOQA_EXTDB_MOS)",
)
def test_criterion_10_external_dataset_reproduction():
    manifest = load_manifest(os.environ["HOLOQA_EXTDB_MANIFEST"])
    mos = read_mos_csv(os.environ["HOLOQA_EXTDB_MOS"])
    qa1 = run_track(manifest, mos, TrackConfig("qa1", metrics=("ssim",)))
    ssim_row = next(r for r in qa1.criteria[Display.OPT])
    assert abs(ssim_row.srocc - 0.9069) <= 0.05
    qa3 = run_track(manifest, mos, TrackConfig("qa3", metrics=("mse",)))
    mse_row = next(r for r in qa3.criteria[Display.OPT])
    assert abs(mse_row.srocc - 0.9347) <= 0.05
    print("criterion 10 PASS: external-dataset correlations reproduced")
