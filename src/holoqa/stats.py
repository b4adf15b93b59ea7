"""VQEG-style statistical evaluation of metric predictions against MOS:
rank correlations, linear correlation before/after a 4-parameter logistic
fit, RMSE, outlier ratio, pairwise significance testing and rank-score
aggregation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import stdtr

from .errors import CorruptInput, DegenerateRanks, StimulusMismatch


class Display(Enum):
    OPT = "OPT"
    LF = "LF"
    TWO_D = "2D"


@dataclass(frozen=True)
class MosRecord:
    """Subjective score statistics for one stimulus on one display."""

    stimulus_id: str
    display: Display
    view: str
    focal_index: int
    mos: float
    std: float
    n: int


_MOS_COLUMNS = ("stimulus_id", "display", "view", "focal_index", "mos", "std", "n")


def read_mos_csv(path: str) -> list[MosRecord]:
    """Parse the MOS CSV (header: stimulus_id,display,view,focal_index,mos,std,n).

    Raises CorruptInput on a missing column, a non-numeric field, an unknown
    display, a non-finite mos or std, std < 0, n < 1, focal_index < 0 (a
    record rates one focal plane) or a repeated
    (stimulus_id, display, view, focal_index) key.
    """
    records = []
    keys = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in _MOS_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise CorruptInput(f"{path}: missing MOS column(s): {', '.join(missing)}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            try:
                rec = MosRecord(
                    row["stimulus_id"],
                    Display(row["display"]),
                    row["view"],
                    int(row["focal_index"]),
                    float(row["mos"]),
                    float(row["std"]),
                    int(row["n"]),
                )
            except (TypeError, ValueError) as exc:
                raise CorruptInput(f"{where}: malformed MOS row: {exc}") from None
            if not (np.isfinite(rec.mos) and np.isfinite(rec.std)):
                raise CorruptInput(f"{where}: mos and std must be finite")
            if rec.std < 0.0:
                raise CorruptInput(f"{where}: std must be >= 0, got {rec.std}")
            if rec.n < 1:
                raise CorruptInput(f"{where}: n must be >= 1, got {rec.n}")
            if rec.focal_index < 0:
                raise CorruptInput(f"{where}: focal_index must be >= 0, "
                                   f"got {rec.focal_index}")
            key = (rec.stimulus_id, rec.display, rec.view, rec.focal_index)
            if key in keys:
                raise CorruptInput(f"{where}: duplicate MOS record for {key[0]}/"
                                   f"{rec.display.value} view={rec.view} "
                                   f"focal={rec.focal_index}")
            keys.add(key)
            records.append(rec)
    return records


def write_mos_csv(records, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(_MOS_COLUMNS)
        for r in records:
            w.writerow([r.stimulus_id, r.display.value, r.view, r.focal_index,
                        repr(r.mos), repr(r.std), r.n])


# ---------------------------------------------------------------------------
# correlation coefficients

def _as_vectors(x, y, min_len=3):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < min_len:
        raise DegenerateRanks(
            f"need two equal-length vectors of >= {min_len} entries, "
            f"got {x.shape} / {y.shape}"
        )
    return x, y


def pcc(x, y) -> float:
    """Sample Pearson correlation coefficient."""
    x, y = _as_vectors(x, y)
    xd = x - x.mean()
    yd = y - y.mean()
    denom = np.sqrt(np.sum(xd * xd) * np.sum(yd * yd))
    if denom == 0.0:
        raise DegenerateRanks("constant vector; correlation undefined")
    return float(np.sum(xd * yd) / denom)


def midranks(x) -> np.ndarray:
    """1-based ranks of the flattened ``x``, ties sharing the mean of their
    span: the values of ``scipy.stats.rankdata(x, method="average")`` (exact,
    as mid-ranks are half-integers). Any NaN makes every rank NaN."""
    x = np.ravel(x)
    order = np.argsort(x)
    s = x[order]
    if s.size and np.isnan(s[-1]):      # argsort puts NaN last
        return np.full(s.size, np.nan)
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:], s.size]
    ranks = np.empty(s.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def srocc(x, y) -> float:
    """Spearman rank-order correlation: Pearson on mid-ranks (ties averaged)."""
    x, y = _as_vectors(x, y)
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise DegenerateRanks("constant vector; rank correlation undefined")
    return pcc(midranks(x), midranks(y))


def krcc(x, y) -> float:
    """Kendall's tau-b (tie-corrected) by explicit pair counting, one row of
    pairs (i, j > i) at a time so memory stays O(n)."""
    x, y = _as_vectors(x, y)
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise DegenerateRanks("constant vector; rank correlation undefined")
    concordant = discordant = tied_x = tied_y = 0
    for i in range(x.size - 1):
        # comparison-based signs stay defined for +/-inf sentinel scores
        dx = (x[i] > x[i + 1:]).astype(np.int64) - (x[i] < x[i + 1:])
        dy = (y[i] > y[i + 1:]).astype(np.int64) - (y[i] < y[i + 1:])
        prod = dx * dy
        concordant += int(np.count_nonzero(prod > 0))
        discordant += int(np.count_nonzero(prod < 0))
        tied_x += int(np.count_nonzero(dx == 0))
        tied_y += int(np.count_nonzero(dy == 0))
    n_pairs = x.size * (x.size - 1) // 2
    denom = np.sqrt(float(n_pairs - tied_x) * float(n_pairs - tied_y))
    if denom == 0.0:
        raise DegenerateRanks("all pairs tied; tau-b undefined")
    return float((concordant - discordant) / denom)


# ---------------------------------------------------------------------------
# 4-parameter logistic fit

@dataclass(frozen=True)
class LogisticFit:
    """Monotone 4-parameter logistic predictor
    f(x) = b1 + (b2 - b1) / (1 + exp(-(x - b3)/|b4|))."""

    b1: float
    b2: float
    b3: float
    b4: float
    converged: bool
    residual_norm: float

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return _logistic(np.array([self.b1, self.b2, self.b3, self.b4]), x)


def _logistic(beta, x):
    b1, b2, b3, b4 = beta
    u = (x - b3) / abs(b4)
    # clipped to avoid overflow in exp; the sigmoid saturates anyway
    s = 1.0 / (1.0 + np.exp(-np.clip(u, -500.0, 500.0)))
    return b1 + (b2 - b1) * s


def _logistic_jacobian(beta, x):
    b1, b2, b3, b4 = beta
    a4 = abs(b4)
    u = (x - b3) / a4
    s = 1.0 / (1.0 + np.exp(-np.clip(u, -500.0, 500.0)))
    sp = s * (1.0 - s)
    j = np.empty((x.size, 4))
    j[:, 0] = 1.0 - s
    j[:, 1] = s
    j[:, 2] = -(b2 - b1) * sp / a4
    j[:, 3] = -(b2 - b1) * sp * u / a4 * np.sign(b4)
    return j


def fit_logistic4(scores, mos) -> LogisticFit:
    """Least-squares 4-parameter logistic fit of MOS against metric scores.

    Tries the standard initialization and its direction-flipped twin (for
    anti-correlated metrics), keeping the lowest-residual solution.
    """
    # imported here, so `import holoqa.cli` does not load scipy.optimize
    from scipy.optimize import least_squares

    x = np.asarray(scores, dtype=np.float64)
    y = np.asarray(mos, dtype=np.float64)
    if x.size < 5 or x.shape != y.shape:
        raise DegenerateRanks("logistic fit needs >= 5 paired samples")
    if np.all(x == x[0]):
        raise DegenerateRanks("constant scores; logistic fit undefined")

    b3 = float(np.median(x))
    b4 = float(np.std(x) / 4.0) or 1.0
    lo, hi = float(np.min(y)), float(np.max(y))
    fits = [least_squares(lambda b: _logistic(b, x) - y, beta0,
                          jac=lambda b: _logistic_jacobian(b, x), method="lm")
            for beta0 in ([lo, hi, b3, b4], [hi, lo, b3, b4])]
    best = min(fits, key=lambda res: np.linalg.norm(res.fun))
    b1, b2, b3, b4 = (float(v) for v in best.x)
    return LogisticFit(b1, b2, b3, b4, bool(best.status > 0),
                       float(np.linalg.norm(best.fun)))


def rmse_fitted(pred, mos) -> float:
    """RMS error between the fitted predictions and the MOS."""
    return float(np.sqrt(np.mean((pred - np.asarray(mos, dtype=np.float64)) ** 2)))


# z of the two-sided 95% confidence interval of a MOS record
CI_MULTIPLIER = 1.96


def outlier_ratio(pred, mos_records) -> float:
    """Fraction of fitted predictions outside the per-record 95% confidence
    interval mos +- CI_MULTIPLIER * std / sqrt(n)."""
    mos = np.array([r.mos for r in mos_records])
    std = np.array([r.std for r in mos_records])
    half = CI_MULTIPLIER * std / np.sqrt([r.n for r in mos_records])
    outliers = np.count_nonzero((pred < mos - half) | (pred > mos + half))
    return int(outliers) / len(mos_records)


# ---------------------------------------------------------------------------
# significance testing and rank aggregation

@dataclass(frozen=True)
class SignificanceMatrix:
    metric_ids: tuple
    entries: np.ndarray   # values in {-1, 0, +1}; entry[i, j] = +1 means row
                          # metric i predicts significantly better than j


# level of the paired t-test between two metrics' absolute residuals
SIGNIFICANCE_ALPHA = 0.05


def significance_matrix(residual_sets: dict) -> SignificanceMatrix:
    """Two-sided paired t-test on absolute residual vectors for each metric pair.

    Residuals must be paired per stimulus (same length and order).
    """
    ids = tuple(residual_sets)
    vectors = [np.abs(np.asarray(residual_sets[mid], dtype=np.float64)) for mid in ids]
    n = vectors[0].size
    for mid, v in zip(ids, vectors):
        if v.size != n:
            raise StimulusMismatch(
                f"residual vector for {mid} has length {v.size}, expected {n}"
            )
    k = len(ids)
    entries = np.zeros((k, k), dtype=int)
    for i in range(k):
        for j in range(i + 1, k):
            d = vectors[i] - vectors[j]
            sd = d.std(ddof=1)
            if sd == 0.0:
                continue
            t_stat = d.mean() / (sd / np.sqrt(n))
            p = 2.0 * stdtr(n - 1, -abs(t_stat))
            if p < SIGNIFICANCE_ALPHA:
                sign = -1 if t_stat > 0 else 1   # larger residuals = worse
                entries[i, j] = sign
                entries[j, i] = -sign
    return SignificanceMatrix(ids, entries)


@dataclass(frozen=True)
class CriteriaRow:
    """Six evaluation criteria for one metric against one MOS set.

    The correlations are stored signed; ``srocc``, ``krcc`` and ``pcc_nofit``
    report their absolute values (the sign convention for distance metrics).
    """

    metric_id: str
    srocc_signed: float
    krcc_signed: float
    pcc_nofit_signed: float
    pcc_fitted: float
    rmse: float
    outlier_ratio: float

    srocc = property(lambda self: abs(self.srocc_signed))
    krcc = property(lambda self: abs(self.krcc_signed))
    pcc_nofit = property(lambda self: abs(self.pcc_nofit_signed))


CRITERIA = ("srocc", "krcc", "pcc_nofit", "pcc_fitted", "rmse", "outlier_ratio")
# criteria where smaller values indicate better prediction
ASCENDING_CRITERIA = frozenset({"rmse", "outlier_ratio"})


@dataclass(frozen=True)
class MetricEvaluation:
    row: CriteriaRow
    fit: LogisticFit
    abs_residuals: np.ndarray


def _definite_scores(scores) -> np.ndarray:
    """Replace +inf sentinels (perfect PSNR) by max finite + one score step so
    the logistic fit stays finite; rank statistics are unaffected."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.any(np.isinf(scores)):
        return scores
    finite = scores[np.isfinite(scores)]
    if finite.size == 0:
        raise DegenerateRanks("all scores are infinite")
    uniq = np.unique(finite)
    step = float(np.min(np.diff(uniq))) if uniq.size > 1 else 1.0
    out = scores.copy()
    out[np.isinf(out)] = uniq.max() + step
    return out


def evaluate_metric(metric_id: str, scores, mos_records) -> MetricEvaluation:
    """Compute all six criteria for one metric's scores against MOS records."""
    mos = np.array([r.mos for r in mos_records], dtype=np.float64)
    s = srocc(scores, mos)  # rank statistics tolerate the +inf sentinel
    k = krcc(scores, mos)
    fit_scores = _definite_scores(scores)
    p0 = pcc(fit_scores, mos)
    fit = fit_logistic4(fit_scores, mos)
    pred = fit.predict(fit_scores)
    row = CriteriaRow(metric_id, s, k, p0, pcc(pred, mos), rmse_fitted(pred, mos),
                      outlier_ratio(pred, mos_records))
    return MetricEvaluation(row, fit, np.abs(pred - mos))


def rank_aggregate(tables: list) -> dict:
    """Per-metric sums of ranking scores over all criteria rows of all tables.

    In each criterion row the best metric scores n (the number of metrics)
    and the worst scores 1; ties share the mean of their span.
    """
    totals: dict[str, float] = {}
    for table in tables:
        ids = [row.metric_id for row in table]
        for crit in CRITERIA:
            values = np.array([getattr(row, crit) for row in table], dtype=np.float64)
            if crit in ASCENDING_CRITERIA:
                scores = midranks(-values)
            else:
                scores = midranks(values)
            for mid, sc in zip(ids, scores):
                totals[mid] = totals.get(mid, 0.0) + float(sc)
    return totals
