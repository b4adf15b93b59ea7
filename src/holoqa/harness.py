"""Benchmark harness: dataset manifests, the four evaluation tracks and
report emission.

Tracks:

* qa1 scores the quantized hologram crops directly (complex metrics on the
  dequantized fields, real metrics averaged over the two 8-bit planes);
* qa2 first converts reference and distorted fields from Fourier to Fresnel
  form and then scores like qa1 (aperture windows scale with the upsampling
  factor);
* qa3 scores 8-bit amplitude reconstructions of each view and focal plane,
  every version clipped against the reference's bound;
* qa4 is qa3 with adaptive Wiener despeckling of both amplitudes before the
  clip, with AUTO noise variance resolved once per reference view (view and
  focal plane) and shared by every distorted version.

Scoring is reference-first: each stimulus's reference and each distorted
field are loaded and prepared (qa2: converted) once; then, one view at a
time, the reference is cropped or rendered once and every distorted version
is scored against it.

``run_track`` owns the run's one two-worker pool, and every track scores as
one job stream on it: the next stimulus's jobs are submitted before the
current stimulus's are read (at most one stimulus ahead). qa1/qa2 load and
convert a stimulus's fields on the pool, then submit three jobs per view:
the real planes, the imaginary planes (every real metric of every distorted
version) and the complex crops. qa3/qa4 prepare each reference (view,
focal) on the calling thread and submit its distorted versions as one job
that dequantizes, renders, despeckles (qa4), quantizes and scores them.
Every scoring job scores family-major (``_score_planes``): each metric
family gets a reference scratch of its own, which keeps the reference-only
intermediates across the versions and is dropped before the next family.
No error leaves ``run_track`` before every submitted job has ended, and the
error of the earliest (stimulus, view, focal) wins, from a preparation or a
job. Within one (view, focal), errors are raised in job order (qa1/qa2: real
planes, imaginary planes, complex crops) and, inside a job, in family and
then version order. The criteria then run on the same pool, one job per
(metric, distinct matched score vector) that takes the logistic fits of
every display matched on it together.

Evaluation samples are one score per (stimulus, view) for qa1/qa2 and one per
(stimulus, view, focal plane) for qa3/qa4; MOS records are matched at the
same granularity (averaged over focal planes for qa1/qa2) and correlations
are computed per display type.
"""

from __future__ import annotations

import csv
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as _dc_field

import numpy as np

from . import metrics
from .denoise import WienerParams, resolve_params, wiener_denoise
from .errors import CorruptInput, DegenerateRanks, InvalidField, NoOverlap, UnknownMetric
from .field import (
    _NUMBER,
    VIEWS,
    ApertureSpec,
    QuantizedField,
    WaveField,
    _check_keys,
    _of_type,
    dequantize_components,
    extract_aperture_quantized,
    load_quantized,
    quantize_components,
    read_json_object,
    write_json,
)
from .metrics import (
    ALL_METRIC_IDS,
    COMPLEX_METRICS,
    REAL_METRICS,
    check_metric_ids,
    evaluate_complex,
    evaluate_real,
    metric_families,
)
from .stats import (
    CRITERIA,
    CriteriaRow,
    Display,
    MosRecord,
    _definite_scores,
    evaluate_metric,
    fit_logistic4_sets,
    rank_aggregate,
    significance_matrix,
)
from .transform import (
    _check_factor,
    clip_and_quantize_view,
    fourier_to_fresnel,
    reconstruct_view,
    view_clip_bound,
)

log = logging.getLogger(__name__)

TRACKS = ("qa1", "qa2", "qa3", "qa4")


@dataclass(frozen=True)
class StimulusEntry:
    """One reference hologram with its distorted versions and view geometry."""

    stimulus_id: str
    reference: str                 # file base, relative to the manifest dir
    distorted: dict                # tag -> file base
    aperture_size: tuple           # (height, width)
    focal_offsets: tuple           # meters, one reconstruction per entry


@dataclass(frozen=True)
class DatasetManifest:
    root: str
    rating_scale: tuple
    views: tuple
    stimuli: tuple

    def load_reference(self, entry: StimulusEntry) -> QuantizedField:
        return load_quantized(os.path.join(self.root, entry.reference))

    def load_distorted(self, entry: StimulusEntry, tag: str) -> QuantizedField:
        return load_quantized(os.path.join(self.root, entry.distorted[tag]))


# required stimulus keys and their JSON types
_STIMULUS_TYPES = {"id": str, "reference": str, "distorted": dict,
                   "aperture_size": list, "focal_offsets": list}


def _check_list(path: str, where: str, value, ok, size: int = 0) -> list:
    """``value``; raises CorruptInput unless it is a non-empty list (of
    ``size`` entries when given) whose entries all pass ``ok``."""
    if not (isinstance(value, list) and value and len(value) == (size or len(value))
            and all(ok(v) for v in value)):
        raise CorruptInput(f"{path}: {where} holds {value!r}")
    return value


def _is_number(v) -> bool:
    return _of_type(v, _NUMBER)


def load_manifest(path: str) -> DatasetManifest:
    """Read a dataset manifest; raises CorruptInput on invalid JSON, on a
    missing or mistyped key, on a stimulus id or view listed twice, on a field
    path with a NUL byte, and unless
    ``rating_scale`` is two finite numbers lo < hi, ``aperture_size`` two
    positive ints, ``focal_offsets`` a non-empty list of finite numbers and
    ``views`` a list of known views."""
    doc = read_json_object(path, "manifest")
    _check_keys(path, doc, {"stimuli": list}, "manifest")
    stimuli = {}
    for i, s in enumerate(doc["stimuli"]):
        if not isinstance(s, dict):
            raise CorruptInput(f"{path}: stimulus #{i} is not a JSON object")
        where = f"stimulus {s.get('id', f'#{i}')!r}"
        _check_keys(path, s, _STIMULUS_TYPES, where)
        if s["id"] in stimuli:
            raise CorruptInput(f"{path}: {where} is listed twice")
        _check_keys(path, s["distorted"], dict.fromkeys(s["distorted"], str),
                    f"{where} distorted")
        if any("\0" in base for base in (s["reference"], *s["distorted"].values())):
            raise CorruptInput(f"{path}: {where} names a field path with a NUL byte")
        stimuli[s["id"]] = StimulusEntry(
            s["id"],
            s["reference"],
            dict(s["distorted"]),
            tuple(_check_list(path, f"{where} aperture_size", s["aperture_size"],
                              lambda v: _of_type(v, int) and v > 0, 2)),
            tuple(float(v) for v in _check_list(
                path, f"{where} focal_offsets", s["focal_offsets"], _is_number)),
        )
    lo, hi = _check_list(path, "rating_scale", doc.get("rating_scale", [1.0, 5.0]),
                         _is_number, 2)
    if not lo < hi:
        raise CorruptInput(f"{path}: rating_scale [{lo}, {hi}] is not increasing")
    views = _check_list(path, "views", doc.get("views", ["center"]), VIEWS.__contains__)
    if len(set(views)) != len(views):
        raise CorruptInput(f"{path}: views {views} list a view twice")
    return DatasetManifest(os.path.dirname(os.path.abspath(path)),
                           (float(lo), float(hi)), tuple(views), tuple(stimuli.values()))


@dataclass(frozen=True)
class TrackConfig:
    track: str
    metrics: tuple = ()
    upsample_m: int = 2
    clip_percentile: float = 99.9
    wiener: WienerParams = _dc_field(default_factory=WienerParams)

    def __post_init__(self):
        # an integral float (2.0) is kept as the int it names
        object.__setattr__(self, "upsample_m", _check_factor(self.upsample_m))
        if not (_is_number(self.clip_percentile) and 0 <= self.clip_percentile <= 100):
            raise InvalidField(
                f"clip_percentile must be a number in [0, 100], got {self.clip_percentile!r}"
            )

    def resolved_metrics(self) -> tuple:
        if self.track not in TRACKS:
            raise UnknownMetric(f"unknown track {self.track!r}; known: {', '.join(TRACKS)}")
        if self.metrics:
            ids = check_metric_ids(self.metrics)
        elif self.track in ("qa1", "qa2"):
            ids = ALL_METRIC_IDS
        else:
            ids = tuple(REAL_METRICS)
        for mid in ids:
            if self.track in ("qa3", "qa4") and mid in COMPLEX_METRICS:
                raise UnknownMetric(
                    f"{mid!r} consumes complex fields and is not defined on "
                    f"amplitude views (track {self.track})"
                )
        return ids


@dataclass(frozen=True)
class ScoreRecord:
    stimulus_id: str
    view: str
    focal_index: int
    metric_id: str
    value: float


@dataclass(frozen=True)
class EvalReport:
    track: str
    metric_ids: tuple
    criteria: dict          # Display -> list[CriteriaRow]
    significance: dict      # Display -> SignificanceMatrix
    rank_sums: dict         # metric_id -> float
    raw_scores: tuple       # ScoreRecord, manifest order


def score_components_avg(metric_id: str, ref: QuantizedField, dist: QuantizedField,
                         scratch: tuple, ref_scratch: tuple, pool) -> float:
    """Mean of a real metric over the 8-bit real and imaginary planes of one
    pair, with (real, imaginary) pairs of scratches. The imaginary planes are
    scored on ``pool`` while this thread scores the real planes; no error is
    raised before both have ended, and a real-plane error wins. The tracks
    score whole planes as jobs instead (``_score_planes``)."""
    im_future = pool.submit(metrics.evaluate_real, metric_id,
                            ref.imag_plane.astype(np.float64),
                            dist.imag_plane.astype(np.float64), scratch[1], ref_scratch[1])
    try:
        re_score = metrics.evaluate_real(metric_id, ref.real_plane.astype(np.float64),
                                         dist.real_plane.astype(np.float64), scratch[0],
                                         ref_scratch[0])
    finally:
        im_future.exception()       # waits without raising
    return 0.5 * (re_score + im_future.result())


def _score_planes(metric_ids, ref_codes: np.ndarray, versions) -> list:
    """The real metrics of ``metric_ids`` on the 8-bit ``ref_codes`` against
    each 8-bit plane or view of ``versions``, one dict of scores per version.
    Family-major: each metric family (``metrics.FAMILIES``) gets a fresh
    reference scratch, dropped before the next family starts, and each
    version is cast once per family and scored with a pair scratch of its
    own, so the scratches hold one family's intermediates at a time."""
    ref = ref_codes.astype(np.float64)
    out = [{} for _ in versions]
    for family in metric_families(metric_ids):
        ref_scratch = {}
        for codes, scores in zip(versions, out):
            dist, scratch = codes.astype(np.float64), {}
            for mid in family:
                scores[mid] = evaluate_real(mid, ref, dist, scratch=scratch,
                                            ref_scratch=ref_scratch)
    return out


def _score_complex(metric_ids, ref_crop: QuantizedField, crops) -> list:
    """The complex metrics of ``metric_ids`` on each dequantized crop of
    ``crops`` against the reference crop's, one dict of scores per crop. Each
    crop is dequantized once and scored with a pair scratch of its own; the
    reference scratch (the FFT ranks ssrm_C/ssrmt_C share) lives for the job."""
    ids = [mid for mid in metric_ids if mid in COMPLEX_METRICS]
    if not ids:
        return [{} for _ in crops]
    ref = dequantize_components(ref_crop).data
    ref_scratch = {}
    out = []
    for crop in crops:
        dist, scratch = dequantize_components(crop).data, {}
        out.append({mid: evaluate_complex(mid, ref, dist, scratch=scratch,
                                          ref_scratch=ref_scratch) for mid in ids})
    return out


def _prepared_field(config: TrackConfig, manifest: DatasetManifest, entry: StimulusEntry,
                    tag: str | None = None) -> QuantizedField:
    """``entry``'s reference (``tag`` None) or distorted version ``tag`` as
    qa1 scores it, as loaded; qa2 converts it to Fresnel form and requantizes
    it."""
    q = (manifest.load_reference(entry) if tag is None
         else manifest.load_distorted(entry, tag))
    if config.track != "qa2":
        return q
    fresnel, _ = fourier_to_fresnel(dequantize_components(q), config.upsample_m)
    return quantize_components(fresnel)


def _submit_fields(config: TrackConfig, manifest: DatasetManifest, entry: StimulusEntry,
                   metric_ids, pool, jobs: list) -> None:
    """Load and prepare (qa2: convert) ``entry``'s reference and distorted
    fields on the pool, then append three jobs per view to ``jobs`` as each
    is submitted: the real planes, the imaginary planes (every real metric,
    ``_score_planes``) and the complex crops (``_score_complex``). The
    fields are held quantized, 2 bytes per sample, and cropped here."""
    fields = [pool.submit(_prepared_field, config, manifest, entry, tag)
              for tag in (None, *entry.distorted)]
    ref_q, *dists = [f.result() for f in fields]     # the earliest error wins
    m = config.upsample_m if config.track == "qa2" else 1
    ap_size = (entry.aperture_size[0] * m, entry.aperture_size[1] * m)
    for view in manifest.views:
        ap = ApertureSpec.for_view(view, ref_q.rows, ref_q.cols, ap_size)
        ref_crop = extract_aperture_quantized(ref_q, ap)
        crops = [extract_aperture_quantized(q, ap) for q in dists]
        jobs.append(pool.submit(_score_planes, metric_ids, ref_crop.real_plane,
                                [c.real_plane for c in crops]))
        jobs.append(pool.submit(_score_planes, metric_ids, ref_crop.imag_plane,
                                [c.imag_plane for c in crops]))
        jobs.append(pool.submit(_score_complex, metric_ids, ref_crop, crops))


def _field_samples(manifest: DatasetManifest, entry: StimulusEntry, jobs: list) -> list:
    """Hologram-domain samples (tag, view, -1, scores) of one stimulus's
    jobs, read in submission order: each real metric is the mean of its
    real-plane and imaginary-plane scores."""
    samples = []
    triples = iter(jobs)
    for view, re_job, im_job, complex_job in zip(manifest.views, triples, triples, triples):
        for tag, re, im, cx in zip(entry.distorted, re_job.result(), im_job.result(),
                                   complex_job.result()):
            samples.append((tag, view, -1, {**{mid: 0.5 * (re[mid] + im[mid]) for mid in re},
                                            **cx}))
    return samples


def _score_versions(config: TrackConfig, dists, ap, offset, wp, bound, ref_codes,
                    metric_ids) -> list:
    """One qa3/qa4 job: (tag, scores) of every quantized distorted version at
    one (view, focal), each dequantized, rendered, despeckled with ``wp``
    (qa4) and quantized with the reference's ``bound``, then scored against
    the reference's 8-bit ``ref_codes`` (``_score_planes``). Only the 8-bit
    views outlive their version's rendering."""
    views = [_version_codes(config, dist_q, ap, offset, wp, bound) for _, dist_q in dists]
    return list(zip((tag for tag, _ in dists), _score_planes(metric_ids, ref_codes, views)))


def _version_codes(config: TrackConfig, dist_q: QuantizedField, ap, offset, wp,
                   bound) -> np.ndarray:
    """The 8-bit view of one quantized distorted version in a qa3/qa4 job."""
    amp = reconstruct_view(dequantize_components(dist_q), ap, offset)
    if config.track == "qa4":
        amp = wiener_denoise(amp, wp)
    return clip_and_quantize_view(amp, bound)


def _submit_views(config: TrackConfig, manifest: DatasetManifest, entry: StimulusEntry,
                  metric_ids, pool, jobs: list) -> None:
    """Render, despeckle (qa4, AUTO noise resolved here) and quantize each
    (view, focal) of ``entry``'s reference on the calling thread, and append
    each (view, focal)'s job to ``jobs`` as it is submitted. The versions are
    held quantized (2 bytes per sample) and each job dequantizes one at a
    time, so memory does not grow by a complex field per version; each
    queued reference view is held as its 8-bit codes."""
    ref = dequantize_components(manifest.load_reference(entry))
    dists = tuple((tag, manifest.load_distorted(entry, tag)) for tag in entry.distorted)
    for view in manifest.views:
        ap = ApertureSpec.for_view(view, ref.rows, ref.cols, entry.aperture_size)
        for offset in entry.focal_offsets:
            wp, bound, ref_codes = _reference_view(config, ref, ap, offset)
            jobs.append(pool.submit(_score_versions, config, dists, ap, offset, wp, bound,
                                    ref_codes, metric_ids))


def _reference_view(config: TrackConfig, ref: WaveField, ap, offset):
    """(Wiener parameters, clip bound, 8-bit codes) of the reference's view
    at (``ap``, ``offset``): rendered, despeckled with the parameters it
    resolves (qa4, else None) and quantized against its own clip bound."""
    amp = reconstruct_view(ref, ap, offset)
    wp = None
    if config.track == "qa4":
        wp = resolve_params(amp, config.wiener)
        amp = wiener_denoise(amp, wp)
    bound = view_clip_bound(amp, config.clip_percentile)
    return wp, bound, clip_and_quantize_view(amp, bound)


def _view_samples(manifest: DatasetManifest, entry: StimulusEntry, jobs: list) -> list:
    """View-domain samples (tag, view, focal_index, scores) of one
    stimulus's jobs, read in submission order."""
    sites = [(view, fi) for view in manifest.views for fi in range(len(entry.focal_offsets))]
    return [(tag, view, fi, scores) for (view, fi), job in zip(sites, jobs)
            for tag, scores in job.result()]


def _job_stream(config: TrackConfig, manifest: DatasetManifest, metric_ids, pool):
    """(entry, samples) per stimulus, in manifest order, as one job stream:
    the next stimulus's jobs are submitted (qa1/qa2 ``_submit_fields``,
    qa3/qa4 ``_submit_views``) before the current one's are read, so the
    pool keeps working while the calling thread prepares the next stimulus
    (at most one stimulus ahead). On a submission error it waits for every
    job submitted, and the earliest job error, else the submission error,
    is raised."""
    submit, read = ((_submit_fields, _field_samples) if config.track in ("qa1", "qa2")
                    else (_submit_views, _view_samples))
    ahead = None
    for entry in manifest.stimuli:
        jobs = []
        try:
            submit(config, manifest, entry, metric_ids, pool, jobs)
        except Exception:
            for job in (ahead[1] if ahead else []) + jobs:
                job.result()        # an earlier job's error wins
            raise
        if ahead:
            yield ahead[0], read(manifest, *ahead)
        ahead = entry, jobs
    if ahead:
        yield ahead[0], read(manifest, *ahead)


def _evaluate_displays(metric_id: str, scores, record_sets) -> list:
    """One fit job: ``evaluate_metric`` of one metric's matched ``scores``
    against each display's MOS records of ``record_sets``, their logistic
    fits taken together first (``fit_logistic4_sets``), so the fit grid is
    projected once. Per display its MetricEvaluation, or the DegenerateRanks
    it raised; if the fits raise, each display raises its own error in
    ``evaluate_metric``."""
    try:
        fits = fit_logistic4_sets(_definite_scores(scores),
                                  [[r.mos for r in records] for records in record_sets])
    except DegenerateRanks:
        fits = [None] * len(record_sets)
    out = []
    for records, fit in zip(record_sets, fits):
        try:
            out.append(evaluate_metric(metric_id, scores, records, fit))
        except DegenerateRanks as exc:
            out.append(exc)
    return out


def _mos_lookup(mos_records):
    by_key = {}
    for r in mos_records:
        by_key.setdefault((r.stimulus_id, r.display, r.view), {})[r.focal_index] = r
    return by_key


def _matched_mos(by_key, stimulus_id, display, view, focal_index):
    group = by_key.get((stimulus_id, display, view))
    if not group:
        return None
    if focal_index >= 0:
        return group.get(focal_index)
    # hologram-domain sample: average the per-focal-plane MOS statistics
    recs = list(group.values())
    return MosRecord(
        stimulus_id, display, view, -1,
        float(np.mean([r.mos for r in recs])),
        float(np.mean([r.std for r in recs])),
        int(round(np.mean([r.n for r in recs]))),
    )


def run_track(manifest: DatasetManifest, mos_records, config: TrackConfig) -> EvalReport:
    """Score every stimulus pair of the manifest, match MOS per display and
    evaluate every metric on all six criteria. Raises CorruptInput on a MOS
    value outside the manifest's rating scale. The criteria run on the run's
    pool too: one job per (metric, distinct matched score vector), which
    fits that vector against the MOS of every display it was matched on
    (``_evaluate_displays``), submitted metric-major and read in (display,
    metric) order."""
    metric_ids = config.resolved_metrics()
    lo, hi = manifest.rating_scale
    for r in mos_records:
        if not lo <= r.mos <= hi:
            raise CorruptInput(f"MOS {r.mos!r} of {r.stimulus_id}/{r.display.value} "
                               f"lies outside the rating scale [{lo!r}, {hi!r}]")

    samples = []      # (stimulus_id, view, focal_index, scores dict), manifest order
    criteria = {}
    significance = {}
    tables = []
    with ThreadPoolExecutor(max_workers=2, thread_name_prefix="holoqa-score") as pool:
        for entry, entry_samples in _job_stream(config, manifest, metric_ids, pool):
            # scored reference-first, recorded in manifest order (tag, view, focal)
            tags = list(entry.distorted)
            samples += [(f"{entry.stimulus_id}:{tag}", view, fi, scores)
                        for tag, view, fi, scores in sorted(
                            entry_samples, key=lambda sample: tags.index(sample[0]))]

        by_key = _mos_lookup(mos_records)
        matched = {}
        for display in Display:
            pairs = []
            for sid, view, fi, scores in samples:
                rec = _matched_mos(by_key, sid, display, view, fi)
                if rec is None:
                    log.warning("no MOS for %s/%s view=%s focal=%s; sample skipped",
                                sid, display.value, view, fi)
                    continue
                pairs.append((scores, rec))
            if pairs:
                matched[display] = pairs
        if not matched:
            raise NoOverlap("no manifest stimulus has a matching MOS record")
        fits = {}       # (display, metric) -> (fit job, index of its display)
        for mid in metric_ids:
            groups = {}     # displays by their matched score vector
            for display, pairs in matched.items():
                scores = [s[mid] for s, _ in pairs]
                groups.setdefault(np.array(scores).tobytes(), (scores, []))[1].append(display)
            for scores, displays in groups.values():
                job = pool.submit(_evaluate_displays, mid, scores,
                                  [[r for _, r in matched[d]] for d in displays])
                fits.update({(d, mid): (job, k) for k, d in enumerate(displays)})
        for display in matched:
            rows = []
            residual_sets = {}
            for mid in metric_ids:
                job, k = fits[display, mid]
                ev = job.result()[k]
                if isinstance(ev, DegenerateRanks):
                    log.warning("metric %s degenerate on display %s: %s",
                                mid, display.value, ev)
                    rows.append(CriteriaRow(mid, *[float("nan")] * 6))
                else:
                    rows.append(ev.row)
                    residual_sets[mid] = ev.abs_residuals
            criteria[display] = rows
            if residual_sets:
                significance[display] = significance_matrix(residual_sets)
            tables.append([r for r in rows if np.isfinite(r.srocc)])

    rank_sums = rank_aggregate([t for t in tables if t])
    raw = tuple(ScoreRecord(sid, view, fi, mid, scores[mid])
                for sid, view, fi, scores in samples for mid in metric_ids)
    return EvalReport(config.track, metric_ids, criteria, significance, rank_sums, raw)


# ---------------------------------------------------------------------------
# report emission

def _write_csv(path: str, header: list, rows) -> None:
    """Write one report table: ``header``, then ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def emit_report(report: EvalReport, out_dir: str, config: TrackConfig | None = None) -> list:
    """Write the deterministic report set; returns the paths written.

    Per display: a criteria CSV plus an aligned text rendering and a
    significance CSV; per run: rank sums, raw per-stimulus scores and, when a
    config is supplied, an echo of the run configuration.
    """
    if not report.metric_ids:
        raise UnknownMetric("empty metric list")
    os.makedirs(out_dir, exist_ok=True)
    written = []

    if config is not None:
        path = os.path.join(out_dir, f"{report.track}_config.json")
        write_json(path, {
            "track": config.track,
            "metrics": list(report.metric_ids),
            "upsample_m": config.upsample_m,
            "clip_percentile": config.clip_percentile,
            "wiener_window": [config.wiener.window] * 2,
            "wiener_noise_variance": config.wiener.noise_variance,
        })
        written.append(path)

    for display, rows in report.criteria.items():
        path = os.path.join(out_dir, f"{report.track}_{display.value}_criteria.csv")
        columns = CRITERIA + ("srocc_signed", "krcc_signed", "pcc_nofit_signed")
        _write_csv(path, ["metric", *columns],
                   ([r.metric_id] + [repr(getattr(r, c)) for c in columns] for r in rows))
        written.append(path)

        txt = os.path.join(out_dir, f"{report.track}_{display.value}_criteria.txt")
        with open(txt, "w", encoding="utf-8") as fh:
            header = f"{'metric':<10}" + "".join(f"{c:>15}" for c in CRITERIA)
            fh.write(header + "\n")
            for r in rows:
                fh.write(f"{r.metric_id:<10}"
                         + "".join(f"{getattr(r, c):>15.4f}" for c in CRITERIA)
                         + "\n")
        written.append(txt)

    for display, mat in report.significance.items():
        path = os.path.join(out_dir, f"{report.track}_{display.value}_significance.csv")
        _write_csv(path, ["metric"] + list(mat.metric_ids),
                   ([mid] + [int(v) for v in row]
                    for mid, row in zip(mat.metric_ids, mat.entries)))
        written.append(path)

    path = os.path.join(out_dir, f"{report.track}_ranksums.csv")
    order = sorted(report.rank_sums, key=lambda m: (-report.rank_sums[m], m))
    _write_csv(path, ["metric", "rank_sum"],
               ([mid, repr(report.rank_sums[mid])] for mid in order))
    written.append(path)

    path = os.path.join(out_dir, f"{report.track}_raw_scores.csv")
    _write_csv(path, ["stimulus_id", "view", "focal_index", "metric", "value"],
               ([rec.stimulus_id, rec.view, rec.focal_index, rec.metric_id, repr(rec.value)]
                for rec in report.raw_scores))
    written.append(path)
    return written
