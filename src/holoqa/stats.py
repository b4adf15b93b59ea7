"""VQEG-style statistical evaluation of metric predictions against MOS:
rank correlations, linear correlation before/after a 4-parameter logistic
fit, RMSE, outlier ratio, pairwise significance testing and rank-score
aggregation.
"""

from __future__ import annotations

import csv
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.ndimage import minimum_filter
from scipy.special import expit, stdtr

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

def _as_vectors(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 3:
        raise DegenerateRanks(
            "need two equal-length vectors of >= 3 entries, "
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
    return pcc(midranks(x), midranks(y))


def krcc(x, y) -> float:
    """Kendall's tau-b (tie-corrected) by explicit pair counting, one row of
    pairs (i, j > i) at a time so memory stays O(n)."""
    x, y = _as_vectors(x, y)
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
#
# For fixed (b3, |b4|) the model is linear in (b1, b2), so the fit searches
# the two shape parameters and takes (b1, b2) in closed form: variable
# projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973). The search
# runs on the scores less their median, divided by their span, so the offset
# and scale of a metric's scores do not steer it.

# Beyond |u| = TAIL_U the sigmoid equals its exponential tail to double
# precision (exp(-40) < 2**-57), so an optimum at b3 = +-inf is represented
# by b3 placed TAIL_U * |b4| beyond the scores, and a step by |b4| below
# 1 / (2 * TAIL_U) of the smallest gap between scores.
TAIL_U = 40.0
# |b4| of the line limit, in score spans: over the scores |u| < 1.7e-5, where
# the sigmoid's cubic term and the round-off of b1, b2 ~ 1/u both stay near
# 1e-11 of the fitted range.
LINE_WIDTH = 3e4
_GRID_PER_DECADE = 3      # grid rows per decade of |b4|
_GRID_WIDTH = 10.0        # widest |b4| of the grid, in score spans
_GRID_BYTES = 1 << 20     # largest temporary of the grid
_BASINS = 3               # grid minima polished
_FD = 1e-4                # central-difference step of the polish, in units of u
# (w, t) offsets of the central differences, in units of _FD
_STENCIL = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                     [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
# damping of the Newton step, relative to the Hessian's diagonal, one trial
# step each; the least-damped step is also tried stretched
_DAMPING = 10.0 ** np.arange(-12.0, 6.1, 0.75)
_STRETCH = np.array([[2.0], [4.0], [8.0]])
_TAIL_JUMP = 8.0          # |b4|s beyond the end score from which a start may take a tail
_HORIZON = 10             # steps a start gets to reach the lowest residual at its pace
_MAX_STEPS = 200          # polish steps per fit
_RTOL = 1e-13             # a step that lowers the residual less ends a start


@dataclass(frozen=True)
class LogisticFit:
    """Monotone 4-parameter logistic predictor
    f(x) = b1 + (b2 - b1) / (1 + exp(-(x - b3)/|b4|)).

    ``converged`` is False when the least-squares optimum lies at infinity,
    so the parameters hold its limit: an exponential tail (b3 placed
    ``TAIL_U * |b4|`` beyond the scores) or a line (|b4| at ``LINE_WIDTH``
    score spans). It is also False if the polish runs out of steps."""

    b1: float
    b2: float
    b3: float
    b4: float
    converged: bool
    residual_norm: float

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return _logistic((self.b1, self.b2, self.b3, self.b4), x)


def _logistic(beta, x):
    # b1 (1 - s) + b2 s, with 1 - s = expit(-u) computed directly, so the
    # upper tail keeps its digits as the lower one does
    b1, b2, b3, b4 = beta
    u = (x - b3) / abs(b4)
    return b1 * expit(-u) + b2 * expit(u)


@dataclass(frozen=True)
class _Frame:
    """The working coordinates of one fit: the scores less their median and
    divided by their span (so scores near the median keep their
    differences to full precision), the centred MOS, the centre and half
    width of the scores' range, and the range [t_lo, t_hi] of log|b4|.

    The search runs on (w, t = log|b4|), with b3 = mid + w * (half + TAIL_U *
    |b4|): w = -1 and w = +1 are the two tail limits at every |b4|. Shapes
    (b3, a = |b4|) hold one shape per leading index with a trailing axis of
    length 1."""

    xs: np.ndarray
    yc: np.ndarray
    mid: float
    half: float
    t_lo: float
    t_hi: float

    def b3(self, w, a):
        return self.mid + w * (self.half + TAIL_U * a)

    def w(self, b3, a):
        """The inverse of ``b3``."""
        return (b3 - self.mid) / (self.half + TAIL_U * a)

    def project(self, b3, a):
        """sign, su = sign * u, the column v = expit(su), v centred (vc) and
        svv = |vc|^2, inf for a constant column (it fits nothing). v is s when
        b3 lies above the middle of the scores, else 1 - s = expit(-u), so
        the column is small over most scores and a tail keeps its digits."""
        sign = np.where(b3 >= self.mid, 1.0, -1.0)
        su = (self.xs - b3) * (sign / a)
        v = expit(su)
        vc = v - v.mean(axis=-1, keepdims=True)
        svv = np.sum(vc * vc, axis=-1, keepdims=True)
        svv[svv == 0.0] = np.inf
        return sign, su, v, vc, svv

    def rss(self, b3, a):
        """Residual sum of squares of the best b1 + (b2 - b1) s at (b3, a)."""
        *_, vc, svv = self.project(b3, a)
        return self.projected_rss(vc, svv)

    def projected_rss(self, vc, svv):
        """``rss`` of the projected columns (vc, svv)."""
        r = self.yc - vc * (vc @ self.yc)[..., None] / svv
        return np.sum(r * r, axis=-1)


# The projected grid of the last fit's working-frame scores, (xs bytes,
# [(vc, svv) per block]). It does not depend on the MOS, so a metric's fits
# on the three displays, which share their scores, project the grid once.
# One entry, kept only up to _GRID_MEMO_BYTES (about 1.2 MB at 48 samples);
# the lock is held while a grid is projected.
_GRID_MEMO_BYTES = 4 << 20
_GRID_LOCK = threading.Lock()
_grid_memo = [None]


def _grid_rss(frame: _Frame, flat_b3, flat_a) -> np.ndarray:
    """``frame.rss`` at the grid points (flat_b3, flat_a), evaluated a block
    of points at a time, so no temporary exceeds _GRID_BYTES."""
    chunk = max(1, _GRID_BYTES // (8 * frame.xs.size))
    blocks = range(0, flat_b3.size, chunk)

    def project(i):
        return frame.project(flat_b3[i:i + chunk], flat_a[i:i + chunk])[3:]

    if 8 * flat_b3.size * frame.xs.size > _GRID_MEMO_BYTES:
        return np.concatenate([frame.projected_rss(*project(i)) for i in blocks])
    key = frame.xs.tobytes()
    with _GRID_LOCK:
        if _grid_memo[0] is None or _grid_memo[0][0] != key:
            _grid_memo[0] = key, [project(i) for i in blocks]
        projected = _grid_memo[0][1]
    return np.concatenate([frame.projected_rss(vc, svv) for vc, svv in projected])


def _grid_starts(frame: _Frame):
    """(w, log|b4|) of the starts of the polish: the lowest _BASINS local
    minima of the residual over a grid, and one start on each shoulder.

    The grid's b3 takes, per distinct score, the points 3 |b4| below and
    above it and the midpoint to the next score (where a small |b4| gives an
    exact step), one |b4| and a quarter span beyond either end, and the two
    tail limits; |b4| is log-spaced from t_lo to _GRID_WIDTH spans
    (``_grid_rss``). A shoulder start lies one |b4| beyond an end score, at the
    |b4| where that end's tail fits best: a finite basin often lies there,
    between the grid's columns."""
    distinct = np.unique(frame.xs)
    t_top = np.log(_GRID_WIDTH)
    t = np.linspace(frame.t_lo, t_top, 1 + int(np.ceil(
        _GRID_PER_DECADE * (t_top - frame.t_lo) / np.log(10.0))))[:, None]
    a = np.exp(t)
    mids = np.append(0.5 * (distinct[1:] + distinct[:-1]), np.nan)
    inner = np.stack([distinct - 3.0 * a, distinct + 3.0 * a,
                      np.broadcast_to(mids, (t.size, mids.size))],
                     axis=-1).reshape(t.size, -1)[:, :-1]
    b3 = np.hstack([np.full_like(t, distinct[0] - 0.25), distinct[0] - a, inner,
                    distinct[-1] + a, np.full_like(t, distinct[-1] + 0.25)])
    w = np.hstack([-np.ones_like(t), frame.w(b3, a), np.ones_like(t)])
    flat_b3 = frame.b3(w, a).reshape(-1, 1)
    flat_a = np.broadcast_to(a, w.shape).reshape(-1, 1)
    rss = _grid_rss(frame, flat_b3, flat_a).reshape(w.shape)
    rows, cols = np.nonzero(
        rss <= minimum_filter(rss, 3, mode="constant", cval=np.inf))
    order = np.argsort(rss[rows, cols], kind="stable")
    _, first = np.unique(rss[rows, cols][order], return_index=True)
    pick = order[np.sort(first)[:_BASINS]]
    ends = np.argmin(rss[:, [0, -1]], axis=0)
    shoulder = np.array([distinct[0] - a[ends[0], 0], distinct[-1] + a[ends[1], 0]])
    return (np.concatenate([w[rows[pick], cols[pick]], frame.w(shoulder, a[ends, 0])]),
            np.concatenate([t[rows[pick], 0], t[ends, 0]]))


def _polish(frame: _Frame, w, t):
    """Damped Newton on (w, log|b4|) of every start at once.

    The gradient of the residual is exact; its curvature is taken both as
    Gauss-Newton's and as the Hessian by central differences on _STENCIL.
    Each step tries the Newton step of either curvature under each damping
    of _DAMPING (and the least-damped ones stretched by _STRETCH), and the
    limits the start may head to; the start moves to the lowest residual if
    it is lower. A step that crosses a bound of (w, t) ends on it, so a limit
    is reached exactly. A start stops when a step lowers its residual by
    less than _RTOL, or when, at its last step's pace, it would not reach
    the lowest residual within _HORIZON steps. Returns w, t, the residual
    sums of squares and whether each start stopped by the _RTOL rule."""
    a_lo = np.exp(frame.t_lo)
    all_w, all_t = np.clip(w, -1.0, 1.0), np.clip(t, frame.t_lo, frame.t_hi)
    all_a = np.exp(all_t)[:, None]
    all_rss = frame.rss(frame.b3(all_w[:, None], all_a), all_a)
    active = np.ones(all_w.size, dtype=bool)
    settled = np.zeros(all_w.size, dtype=bool)
    for _ in range(_MAX_STEPS):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        w, t, rss = all_w[idx, None], all_t[idx, None], all_rss[idx]
        a = np.exp(t)
        b3 = frame.b3(w, a)
        # derivatives in units where a step of one moves u by about one: w
        # by hw = a / (half + TAIL_U a), t by 1. The model is mean(y) + d vc,
        # so df/d(w, t) = d v (1 - v) dsu/d(w, t) and the gradient
        # -2 r . df/d(w, t) is exact
        sign, su, v, vc, svv = frame.project(b3, a)
        d = (vc @ frame.yc)[:, None] / svv
        hw = a / (frame.half + TAIL_U * a)
        jac = -(d * v * (1.0 - v))[:, None] * np.stack(
            [np.broadcast_to(sign * (frame.half + TAIL_U * a) / a * hw, su.shape),
             su + sign * TAIL_U * w], axis=1)
        grad = -2.0 * (jac @ (frame.yc - d * vc)[..., None])[..., 0]
        # two curvatures: the Gauss-Newton one, 2 J'J with J projected off
        # (1, v) (Kaufman's form), and the Hessian by central differences
        jac -= jac.mean(axis=-1, keepdims=True)
        jac -= vc[:, None] * (jac @ vc[..., None]) / svv[:, None]
        sa = np.exp(t + _FD * _STENCIL[:, 1])
        f = frame.rss(frame.b3(w + _FD * hw * _STENCIL[:, 0], sa)[..., None],
                      sa[..., None])
        fd = np.stack([f[:, 0] - 2.0 * rss + f[:, 1],
                       (f[:, 4] - f[:, 5] - f[:, 6] + f[:, 7]) / 4.0,
                       f[:, 2] - 2.0 * rss + f[:, 3]], axis=-1) / _FD ** 2
        gn = 2.0 * jac @ jac.transpose(0, 2, 1)
        h11 = np.stack([gn[:, 0, 0], fd[:, 0]], axis=1)[..., None]
        h12 = np.stack([gn[:, 0, 1], fd[:, 1]], axis=1)[..., None]
        h22 = np.stack([gn[:, 1, 1], fd[:, 2]], axis=1)[..., None]
        g1, g2 = grad[:, None, :1], grad[:, None, 1:]
        m = _DAMPING * np.maximum(np.abs(h11), np.abs(h22))
        with np.errstate(divide="ignore", invalid="ignore"):
            det = (h11 + m) * (h22 + m) - h12 * h12
            step = -np.stack([((h22 + m) * g1 - h12 * g2) / det * hw[:, None],
                              ((h11 + m) * g2 - h12 * g1) / det], axis=-1)
        step[~np.isfinite(step)] = 0.0
        step = np.concatenate([step, _STRETCH * step[:, :, :1]], axis=2).reshape(
            idx.size, -1, 2)
        # the limits: both tails at the start's |b4| and at the least-damped
        # step's, the line at its w, and the step at the smallest |b4| with u
        # kept at the score nearest b3 (that score partway between b1, b2)
        near = frame.xs[np.argmin(np.abs(frame.xs - b3), axis=-1)][:, None]
        one = np.ones_like(w)
        t_step = t + step[:, 0, 1:]
        limits = [(one, t), (-one, t), (one, t_step), (-one, t_step),
                  (w, one * frame.t_hi),
                  (frame.w(near + (b3 - near) * (a_lo / a), a_lo), one * frame.t_lo)]
        tw = np.clip(np.concatenate([w[:, None] + step[..., :1],
                                     np.stack([lw for lw, _ in limits], axis=1)], axis=1),
                     -1.0, 1.0)
        tt = np.clip(np.concatenate([t[:, None] + step[..., 1:],
                                     np.stack([lt for _, lt in limits], axis=1)], axis=1),
                     frame.t_lo, frame.t_hi)
        ta = np.exp(tt)
        trial = frame.rss(frame.b3(tw, ta), ta)
        # a start takes a tail only from _TAIL_JUMP |b4| beyond the end
        # score, so a finite basin just short of the tail is not skipped
        short = ((b3 - frame.mid) * np.sign(w) - frame.half < _TAIL_JUMP * a)[:, 0]
        trial[short, -len(limits):-2] = np.inf
        pick = (np.arange(idx.size), np.argmin(trial, axis=1))
        new = trial[pick]
        take = new < rss
        all_w[idx[take]], all_t[idx[take]] = tw[pick][take, 0], tt[pick][take, 0]
        all_rss[idx[take]] = new[take]
        done = new >= rss * (1.0 - _RTOL)
        settled[idx[done]] = True
        slow = new - (rss - new) * _HORIZON >= all_rss.min()
        active[idx[done | slow]] = False
    return all_w, all_t, all_rss, settled


def fit_logistic4(scores, mos) -> LogisticFit:
    """Least-squares 4-parameter logistic fit of MOS against metric scores.

    A grid over (b3, log|b4|) picks the basins of the residual; a damped
    Newton polish refines them, the standard start (b3 at the median score,
    |b4| a quarter of the scores' standard deviation) and the two shoulder
    starts, and the lowest residual wins. The sign of b2 - b1 comes out of
    the closed form, so increasing and decreasing relations need no separate
    starts.
    """
    x = np.asarray(scores, dtype=np.float64)
    y = np.asarray(mos, dtype=np.float64)
    if x.size < 5 or x.shape != y.shape:
        raise DegenerateRanks("logistic fit needs >= 5 paired samples")
    if np.all(x == x[0]):
        raise DegenerateRanks("constant scores; logistic fit undefined")

    centre = float(np.median(x))
    span = float(np.max(x)) - float(np.min(x))
    xs = (x - centre) / span
    lo, hi = float(np.min(xs)), float(np.max(xs))
    # |b4| reaches the step limit at the smallest gap between scores, or at
    # the resolution of the unit span where a gap falls below it
    gap = max(float(np.min(np.diff(np.unique(xs)))), 2.0 ** -52)
    frame = _Frame(xs, y - np.mean(y), 0.5 * (lo + hi), 0.5 * (hi - lo),
                   float(np.log(gap / (2.0 * TAIL_U))), float(np.log(LINE_WIDTH)))
    grid_w, grid_t = _grid_starts(frame)
    a0 = np.std(xs) / 4.0
    w, t, rss, settled = _polish(
        frame, np.append(grid_w, frame.w(0.0, a0)),
        np.append(grid_t, np.log(a0)))
    k = int(np.argmin(rss))
    w, t = w[k], t[k]
    # an optimum the limit matches to _RTOL is reported as that limit: the
    # tail on the side of b3, or the line
    for lw, lt in ((np.sign(w) or 1.0, t), (w, frame.t_hi)):
        la = np.full((1, 1), np.exp(lt))
        if frame.rss(frame.b3(lw, la), la)[0] <= rss[k] * (1.0 + _RTOL):
            w, t = lw, lt
    a = float(np.exp(t))
    b3 = float(frame.b3(w, a))
    # (b1, b2) by least squares on the columns (1 - s, s), each scaled to
    # unit norm, so a tail's tiny column keeps its weight
    u = (xs - b3) / a
    cols = np.stack([expit(-u), expit(u)], axis=1)
    norms = np.linalg.norm(cols, axis=0)
    norms[norms == 0.0] = 1.0
    b1, b2 = np.linalg.lstsq(cols / norms, y, rcond=None)[0] / norms
    beta = (float(b1), float(b2), centre + span * b3, span * a)
    at_limit = abs(w) == 1.0 or t == frame.t_hi
    return LogisticFit(*beta, bool(settled[k] and not at_limit),
                       float(np.linalg.norm(y - _logistic(beta, x))))


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


# criterion values this close, relative, are one value: two equal fits can
# differ in the last bits of their criteria
TIE_RTOL = 1e-12


def _tied(values) -> np.ndarray:
    """``values`` with each run of sorted neighbours within TIE_RTOL
    relative set to the run's smallest value."""
    order = np.argsort(values, kind="stable")
    s = values[order]
    near = np.abs(np.diff(s)) <= TIE_RTOL * np.maximum(np.abs(s[1:]), np.abs(s[:-1]))
    starts = np.flatnonzero(np.r_[True, ~near])
    out = np.empty_like(s)
    out[order] = np.repeat(s[starts], np.diff(np.r_[starts, s.size]))
    return out


def rank_aggregate(tables: list) -> dict:
    """Per-metric sums of ranking scores over all criteria rows of all tables.

    In each criterion row the best metric scores n (the number of metrics)
    and the worst scores 1; ties, values within TIE_RTOL relative, share the
    mean of their span.
    """
    totals: dict[str, float] = {}
    for table in tables:
        ids = [row.metric_id for row in table]
        for crit in CRITERIA:
            values = _tied(np.array([getattr(row, crit) for row in table], dtype=np.float64))
            if crit in ASCENDING_CRITERIA:
                scores = midranks(-values)
            else:
                scores = midranks(values)
            for mid, sc in zip(ids, scores):
                totals[mid] = totals.get(mid, 0.0) + float(sc)
    return totals
