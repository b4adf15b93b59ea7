"""Tests for correlation statistics, logistic fitting, significance testing
and rank aggregation, against brute-force definitional oracles."""

import csv
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import rankdata

from holoqa import stats as stats_module
from holoqa.errors import DegenerateRanks, StimulusMismatch
from holoqa.harness import TRACKS, _matched_mos, _mos_lookup
from holoqa.stats import (
    ASCENDING_CRITERIA,
    CI_MULTIPLIER,
    CRITERIA,
    CriteriaRow,
    Display,
    LogisticFit,
    MosRecord,
    _definite_scores,
    evaluate_metric,
    fit_logistic4,
    krcc,
    midranks,
    outlier_ratio,
    pcc,
    rank_aggregate,
    read_mos_csv,
    rmse_fitted,
    significance_matrix,
    srocc,
    write_mos_csv,
)

# strictly increasing on the integers, exact in float64 for |x| <= 50
_INCREASING = (lambda v: v, lambda v: 3.0 * v + 1.0, lambda v: v ** 3)

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _brute_srocc(x, y):
    """Definitional Spearman: Pearson of mid-ranks computed by sorting."""
    def ranks(v):
        v = np.asarray(v, dtype=float)
        r = np.empty(v.size)
        for i, val in enumerate(v):
            less = np.sum(v < val)
            equal = np.sum(v == val)
            r[i] = less + (equal + 1) / 2.0
        return r

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float(np.sum(rx * ry) / np.sqrt(np.sum(rx ** 2) * np.sum(ry ** 2)))


def _brute_krcc(x, y):
    """Definitional tau-b by explicit O(n^2) pair enumeration."""
    n = len(x)
    conc = disc = tx = ty = 0
    for i in range(n):
        for j in range(i + 1, n):
            a = np.sign(x[i] - x[j])
            b = np.sign(y[i] - y[j])
            if a == 0 and b == 0:
                tx += 1
                ty += 1
            elif a == 0:
                tx += 1
            elif b == 0:
                ty += 1
            elif a == b:
                conc += 1
            else:
                disc += 1
    n0 = n * (n - 1) // 2
    return (conc - disc) / np.sqrt((n0 - tx) * (n0 - ty))


def _table_krcc(x, y):
    """The former krcc body: n x n int64 sign tables, upper triangle summed."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dx = (x[:, None] > x[None, :]).astype(np.int64) - (x[:, None] < x[None, :])
    dy = (y[:, None] > y[None, :]).astype(np.int64) - (y[:, None] < y[None, :])
    iu = np.triu_indices(x.size, k=1)
    prod = dx[iu] * dy[iu]
    concordant = np.sum(prod > 0)
    discordant = np.sum(prod < 0)
    tied_x = np.sum(dx[iu] == 0)
    tied_y = np.sum(dy[iu] == 0)
    n_pairs = iu[0].size
    denom = np.sqrt(float(n_pairs - tied_x) * float(n_pairs - tied_y))
    return float((concordant - discordant) / denom)


# few distinct values, so ties are common, plus the +/-inf sentinels
_SCORES = st.sampled_from([-np.inf, -1.5, 0.0, 0.25, 3.0, np.inf]) | st.floats(-5.0, 5.0)


class TestCorrelations:
    def test_pcc_perfect_line(self):
        x = np.arange(10.0)
        assert pcc(x, 3.0 * x - 1.0) == pytest.approx(1.0)
        assert pcc(x, -2.0 * x + 5.0) == pytest.approx(-1.0)

    def test_srocc_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = rng.integers(3, 13)
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            if trial % 2:
                # inject ties
                x = np.round(x * 2) / 2
                y = np.round(y * 2) / 2
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert srocc(x, y) == pytest.approx(_brute_srocc(x, y), abs=1e-12)

    def test_krcc_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for trial in range(200):
            n = rng.integers(3, 13)
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            if trial % 2:
                x = np.round(x * 2) / 2
                y = np.round(y * 2) / 2
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert krcc(x, y) == pytest.approx(_brute_krcc(x, y), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 40).flatmap(
        lambda n: st.tuples(st.lists(_SCORES, min_size=n, max_size=n),
                            st.lists(_SCORES, min_size=n, max_size=n))))
    def test_krcc_equals_pair_table_formula(self, xy):
        x, y = xy
        if x.count(x[0]) == len(x) or y.count(y[0]) == len(y):
            with pytest.raises(DegenerateRanks):
                krcc(x, y)
            return
        assert krcc(x, y) == _table_krcc(x, y)

    def test_rank_statistics_monotone_invariant(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        fx = np.exp(2.0 * x) + 1.0     # strictly increasing transform
        assert srocc(fx, y) == pytest.approx(srocc(x, y), abs=1e-12)
        assert krcc(fx, y) == pytest.approx(krcc(x, y), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 30).flatmap(
        lambda n: st.tuples(st.lists(st.integers(-50, 50), min_size=n, max_size=n),
                            st.lists(st.integers(-50, 50), min_size=n, max_size=n))),
           st.sampled_from(_INCREASING), st.sampled_from(_INCREASING),
           st.booleans())
    def test_rank_statistics_under_strictly_monotone_maps(self, xy, f, g, flip):
        # integer samples: the maps are exact, so no two values merge
        x, y = (np.array(v, dtype=np.float64) for v in xy)
        assume(np.any(x != x[0]) and np.any(y != y[0]))
        sign = -1.0 if flip else 1.0
        fx = sign * f(x)       # decreasing map when flipped
        for stat in (srocc, krcc):
            assert stat(fx, g(y)) == sign * stat(x, y)
            assert stat(g(y), fx) == sign * stat(y, x)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateRanks):
            srocc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateRanks):
            pcc([1.0, 2.0], [1.0, 2.0])


def _assert_rankdata_ranks(x):
    got = midranks(x)
    want = rankdata(x, method="average")
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


class TestMidranks:
    """``midranks`` gives exactly the values of ``rankdata(method="average")``."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_SCORES | st.sampled_from([np.nan, -0.0]) | st.floats(),
                    min_size=1, max_size=40))
    def test_equals_rankdata(self, values):
        _assert_rankdata_ranks(np.array(values, dtype=np.float64))

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([1, 24, 147_456]), st.integers(0, 2**32 - 1),
           st.sampled_from([1, 2, 7, 1000, None]),
           st.sets(st.sampled_from([np.inf, -np.inf, np.nan])))
    def test_equals_rankdata_at_metric_sizes(self, n, seed, levels, specials):
        # 24 samples per display; 147,456 = 384^2 FFT magnitudes in SSRM
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) if levels is None else rng.integers(0, levels, n) / 3.0
        for v in specials:
            x[rng.integers(0, n, 1 + n // 10)] = v
        _assert_rankdata_ranks(x)
        _assert_rankdata_ranks(-x)

    def test_integer_and_empty_input(self):
        _assert_rankdata_ranks(np.array([3, 1, 1, 2, 3, 3]))
        _assert_rankdata_ranks(np.array([], dtype=np.float64))


def _best_step_residual(x, y):
    """Residual norm of the best two-level fit split at one threshold between
    distinct scores: the |b4| -> 0 limit of the logistic."""
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    best = np.inf
    for i in np.flatnonzero(xs[1:] != xs[:-1]) + 1:
        lo, hi = ys[:i], ys[i:]
        best = min(best, np.sum((lo - lo.mean()) ** 2) + np.sum((hi - hi.mean()) ** 2))
    return float(np.sqrt(best))


def _line_residual(x, y):
    """Residual norm of the least-squares line: the |b4| -> inf limit."""
    design = np.column_stack([np.ones_like(x), x - x.mean()])
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    return float(np.linalg.norm(y - design @ coef))


class TestLogisticFit:
    def test_recovers_known_parameters(self):
        rng = np.random.default_rng(3)
        beta = (1.2, 4.8, 0.5, 0.7)
        x = np.sort(rng.uniform(-2.0, 3.0, 40))
        y = LogisticFit(*beta, True, 0.0).predict(x)
        fit = fit_logistic4(x, y)
        assert fit.converged
        recovered = (fit.b1, fit.b2, fit.b3, abs(fit.b4))
        for got, want in zip(recovered, beta):
            assert got == pytest.approx(want, rel=0.01)

    def test_decreasing_relation(self):
        x = np.linspace(0.0, 10.0, 30)
        y = 5.0 - 0.4 * x
        fit = fit_logistic4(x, y)
        pred = fit.predict(x)
        assert np.all(np.diff(pred) <= 1e-9)
        assert pcc(pred, y) > 0.999

    def test_near_linear_data(self):
        x = np.linspace(1.0, 2.0, 20)
        y = 2.0 * x + 1.0
        fit = fit_logistic4(x, y)
        assert rmse_fitted(fit.predict(x), y) < 1e-4

    def test_needs_five_samples(self):
        with pytest.raises(DegenerateRanks):
            fit_logistic4([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])

    def test_optimum_at_infinity_not_converged(self):
        # exp(3x) is the lower tail of a logistic with |b4| = 1/3: the fit
        # only approaches it as b2 and b3 run off to infinity, so the solver
        # exhausts its evaluation budget
        x = np.linspace(0.0, 1.0, 20)
        fit = fit_logistic4(x, np.exp(3.0 * x))
        assert fit.converged is False

    # scores on a quarter grid and maps whose products and sums are exact, so
    # the mapped scores are the exact affine image of the drawn ones
    @settings(max_examples=60, deadline=None)
    @given(st.integers(5, 30).flatmap(lambda n: st.tuples(
        st.lists(st.integers(-40, 40), min_size=n, max_size=n),
        st.lists(st.floats(1.0, 5.0), min_size=n, max_size=n))),
        st.sampled_from([2.0 ** -10, 0.5, 3.0, 2.0 ** 10]),
        st.sampled_from([-1024.0, 0.0, 12.5]))
    def test_reaches_step_and_line_and_ignores_affine_maps(self, xy, scale, shift):
        x = np.array(xy[0]) / 4.0
        y = np.array(xy[1])
        assume(np.any(x != x[0]))
        fit = fit_logistic4(x, y)
        # round-off of the residual of an exact fit
        slack = 1e-12 * np.linalg.norm(y)
        for bound in (_best_step_residual(x, y), _line_residual(x, y)):
            assert fit.residual_norm <= bound * (1.0 + 1e-6) + slack
        mapped = fit_logistic4(scale * x + shift, y)
        assert abs(mapped.residual_norm - fit.residual_norm) <= (
            1e-9 * fit.residual_norm + slack)

    def test_shared_grid_fits_equal_fresh_ones_across_threads(self):
        # fits of one score vector against several MOS vectors share the
        # projected grid; each must equal its fit with the memo emptied
        rng = np.random.default_rng(11)
        score_sets = [rng.lognormal(0.0, 1.0, 48), rng.uniform(0.0, 1.0, 48)]
        jobs = [(x, rng.uniform(1.0, 5.0, 48)) for x in score_sets for _ in range(3)]
        fresh = []
        for x, y in jobs:
            stats_module._grid_memo[0] = None
            fresh.append(fit_logistic4(x, y))
        assert stats_module._grid_memo[0] is not None
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                shared = list(pool.map(lambda job: fit_logistic4(*job), jobs * 2))
        finally:
            sys.setswitchinterval(interval)
        assert shared == fresh * 2


# rows where the hand-rolled loop stalled short of the optimum
STALLED = {("qa2", "2D", "uqi"), ("qa1", "2D", "msssim"),
           ("qa1", "OPT", "uqi"), ("qa3", "2D", "nmse")}


def _golden_rmse(keys):
    """(track, display, metric) -> rmse of the criteria goldens."""
    out = {}
    for track, display in {key[:2] for key in keys}:
        name = f"{track}_{display}_criteria.csv"
        with open(os.path.join(GOLDEN_DIR, name), newline="", encoding="utf-8") as fh:
            for r in csv.DictReader(fh):
                out[(track, display, r["metric"])] = float(r["rmse"])
    return out


def test_demo_fits_no_worse_than_hand_rolled_loop():
    """Per (track, display, metric) rmse of the criteria golden (demo dataset
    1234) against tests/golden/parent_fit_rmse.csv, the same rows recorded
    with record.py under the former hand-rolled Levenberg-Marquardt loop."""
    with open(os.path.join(GOLDEN_DIR, "parent_fit_rmse.csv"), newline="",
              encoding="utf-8") as fh:
        parent = {(r["track"], r["display"], r["metric"]): float(r["rmse"])
                  for r in csv.DictReader(fh)}
    new = _golden_rmse(parent)
    assert len(parent) == 186 and set(new) == set(parent)
    for key, old in parent.items():
        assert new[key] <= old * (1.0 + 1e-4), (key, new[key], old)
    for key in STALLED:
        assert new[key] < 0.99 * parent[key], (key, new[key], parent[key])


def _demo_fit_inputs(mos_path):
    """(track, display, metric) -> (scores, MOS) of every logistic fit of the
    demo dataset: the raw-score goldens matched to the demo MOS as run_track
    matches them, with the +inf sentinel replaced as evaluate_metric does."""
    by_key = _mos_lookup(read_mos_csv(mos_path))
    fits = {}
    for track in TRACKS:
        samples = {}
        with open(os.path.join(GOLDEN_DIR, f"{track}_raw_scores.csv"), newline="",
                  encoding="utf-8") as fh:
            for r in csv.DictReader(fh):
                key = (r["stimulus_id"], r["view"], int(r["focal_index"]))
                samples.setdefault(key, {})[r["metric"]] = float(r["value"])
        for display in Display:
            matched = [(scores, rec) for (sid, view, fi), scores in samples.items()
                       if (rec := _matched_mos(by_key, sid, display, view, fi)) is not None]
            for metric in matched[0][0]:
                fits[(track, display.value, metric)] = (
                    _definite_scores([s[metric] for s, _ in matched]),
                    np.array([rec.mos for _, rec in matched]))
    return fits


def test_demo_fits_reach_step_and_line(demo_dataset):
    """Every criteria-golden rmse of demo dataset 1234 is at or below the best
    single-threshold step and the least-squares line of its fit's data,
    within 1e-6 relative: both are limits of the logistic family."""
    fits = _demo_fit_inputs(demo_dataset["mos"])
    rmse = _golden_rmse(fits)
    assert len(fits) == 186 and set(rmse) == set(fits)
    for key, (x, y) in fits.items():
        residual = rmse[key] * np.sqrt(x.size)
        bound = min(_best_step_residual(x, y), _line_residual(x, y))
        assert residual <= bound * (1.0 + 1e-6), (key, residual, bound)


def _loop_outlier_ratio(pred, records):
    """The per-record loop that outlier_ratio's array form replaced."""
    outliers = 0
    for p, rec in zip(pred, records):
        half = CI_MULTIPLIER * rec.std / np.sqrt(rec.n)
        if p < rec.mos - half or p > rec.mos + half:
            outliers += 1
    return outliers / len(records)


# (mos, std, n, prediction): a drawn prediction, or one exactly on the CI's
# low or high bound or on the MOS
_RECORD_AND_PREDICTION = st.tuples(
    st.floats(1.0, 5.0), st.floats(0.0, 4.0), st.integers(1, 50),
    st.one_of(st.floats(0.0, 6.0), st.sampled_from(["low", "high", "mos"])))


class TestOutlierRatio:
    def test_hand_constructed_three_of_ten(self):
        # identity-like fit: predictions equal scores
        x = np.linspace(1.0, 5.0, 10)
        fit = fit_logistic4(x, x)
        records = []
        for i, xi in enumerate(x):
            if i < 3:
                # push the CI far away so the prediction is an outlier
                records.append(MosRecord(f"s{i}", Display.OPT, "center", 0,
                                         float(xi + 10.0), 0.5, 20))
            else:
                records.append(MosRecord(f"s{i}", Display.OPT, "center", 0,
                                         float(xi), 2.0, 20))
        assert outlier_ratio(fit.predict(x), records) == pytest.approx(0.3)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_RECORD_AND_PREDICTION, min_size=1, max_size=30))
    def test_array_form_matches_per_record_loop(self, drawn):
        records = [MosRecord(f"s{i}", Display.OPT, "center", 0, mos, std, n)
                   for i, (mos, std, n, _) in enumerate(drawn)]
        pred = []
        for rec, (_, _, _, at) in zip(records, drawn):
            half = CI_MULTIPLIER * rec.std / np.sqrt(rec.n)
            bounds = {"low": rec.mos - half, "high": rec.mos + half, "mos": rec.mos}
            pred.append(bounds[at] if isinstance(at, str) else at)
        pred = np.array(pred)
        got = outlier_ratio(pred, records)
        assert got == _loop_outlier_ratio(pred, records) and type(got) is float
        mos = np.array([r.mos for r in records])
        assert rmse_fitted(pred, mos) == float(np.sqrt(np.mean((pred - mos) ** 2)))
        if len(records) < 5:
            return
        try:
            row = evaluate_metric("m", pred, records).row
        except DegenerateRanks:
            return
        for crit in ("srocc", "krcc", "pcc_nofit"):
            assert getattr(row, crit) == abs(getattr(row, f"{crit}_signed"))


class TestSignificance:
    def test_antisymmetric_zero_diagonal(self):
        rng = np.random.default_rng(4)
        sets = {f"m{i}": rng.normal(0, 1 + i, 30) for i in range(4)}
        mat = significance_matrix(sets)
        assert np.array_equal(mat.entries, -mat.entries.T)
        assert np.all(np.diag(mat.entries) == 0)

    def test_shifted_pair_detected(self):
        rng = np.random.default_rng(5)
        base = np.abs(rng.normal(0, 1, 40))
        sets = {"good": base, "bad": base + 2.0}
        mat = significance_matrix(sets)
        i, j = mat.metric_ids.index("good"), mat.metric_ids.index("bad")
        assert mat.entries[i, j] == 1
        assert mat.entries[j, i] == -1

    def test_identical_residuals_not_significant(self):
        base = np.linspace(0.1, 1.0, 20)
        mat = significance_matrix({"a": base, "b": base.copy()})
        assert np.all(mat.entries == 0)

    def test_length_mismatch(self):
        with pytest.raises(StimulusMismatch):
            significance_matrix({"a": np.ones(5), "b": np.ones(6)})

    @pytest.mark.parametrize("df", [1, 5, 11, 23, 47])
    def test_stdtr_p_value_equals_t_sf(self, df):
        # significance_matrix's two-sided p = 2 * stdtr(df, -|t|), bit for bit
        # the Student-t survival function it replaces
        from scipy.special import stdtr
        from scipy.stats import t as t_dist

        rng = np.random.default_rng(df)
        ts = np.concatenate([[0.0, 1e-300, 50.0, np.inf],
                             np.abs(rng.standard_normal(500)) * 4.0,
                             rng.uniform(0.0, 40.0, 500)])
        for t_stat in ts:
            assert 2.0 * stdtr(df, -abs(t_stat)) == 2.0 * t_dist.sf(abs(t_stat), df)


class TestEvaluateMetric:
    @staticmethod
    def _records(mos):
        return [MosRecord(f"s{i}", Display.OPT, "center", 0, float(m), 0.5, 20)
                for i, m in enumerate(mos)]

    def test_perfect_scores(self):
        mos = np.linspace(1.0, 5.0, 12)
        ev = evaluate_metric("m", mos, self._records(mos))
        assert ev.row.srocc == 1.0
        assert ev.row.krcc == 1.0
        assert ev.row.pcc_nofit == pytest.approx(1.0)
        assert ev.row.rmse < 1e-6
        assert ev.row.outlier_ratio == 0.0

    def test_anticorrelated_distance_metric(self):
        mos = np.linspace(1.0, 5.0, 12)
        scores = 100.0 - 15.0 * mos          # decreasing distance metric
        ev = evaluate_metric("m", scores, self._records(mos))
        assert ev.row.srocc == 1.0           # absolute value reported
        assert ev.row.srocc_signed == -1.0
        assert ev.row.pcc_fitted > 0.999     # fit flips the direction

    def test_fitted_pcc_not_below_raw(self):
        rng = np.random.default_rng(6)
        mos = np.linspace(1.0, 5.0, 20)
        scores = mos ** 3 + rng.normal(0, 0.4, 20)
        ev = evaluate_metric("m", scores, self._records(mos))
        assert ev.row.pcc_fitted >= ev.row.pcc_nofit - 1e-9

    def test_inf_sentinel_handled(self):
        mos = np.array([1.0, 2.0, 3.0, 4.0, 4.5, 5.0])
        scores = np.array([10.0, 20.0, 30.0, 40.0, 45.0, np.inf])
        ev = evaluate_metric("psnr", scores, self._records(mos))
        assert ev.row.srocc == 1.0
        assert np.isfinite(ev.row.rmse)

    def test_reproducible_from_raw_vectors(self):
        rng = np.random.default_rng(7)
        mos = np.linspace(1.0, 5.0, 12)
        scores = mos + rng.normal(0, 0.3, 12)
        records = self._records(mos)
        a = evaluate_metric("m", scores, records).row
        b = evaluate_metric("m", scores.copy(), list(records)).row
        assert a == b


class TestRankAggregation:
    @staticmethod
    def _table(values_by_metric):
        rows = []
        for mid, v in values_by_metric.items():
            rows.append(CriteriaRow(mid, v, v, v, v, 1.0 - v, 1.0 - v))
        return rows

    def test_single_criterion_ordering(self):
        table = self._table({"a": 0.9, "b": 0.5, "c": 0.1})
        sums = rank_aggregate([table])
        # a is best on all six criteria (ascending ones inverted by design)
        assert sums["a"] == 6 * 3
        assert sums["b"] == 6 * 2
        assert sums["c"] == 6 * 1

    def test_tie_shares_mean_rank(self):
        table = self._table({"a": 0.5, "b": 0.5, "c": 0.5})
        sums = rank_aggregate([table])
        assert all(v == pytest.approx(6 * 2.0) for v in sums.values())

    def test_round_off_apart_values_share_a_rank(self):
        # two equal fits whose criteria differ in the last bit, as msssim and
        # gmsd do on the demo's qa1 OPT display
        rmse = 0.4
        table = [CriteriaRow(mid, 0.9, 0.8, 0.7, 0.6, r, 0.1)
                 for mid, r in (("a", rmse), ("b", np.nextafter(rmse, 1.0)))]
        table.append(CriteriaRow("c", 0.5, 0.5, 0.5, 0.5, 0.5, 0.5))
        sums = rank_aggregate([table])
        assert sums["a"] == sums["b"] == 5 * 2.5 + 2.5
        assert sums["c"] == 6 * 1.0

    def test_checksum_per_run(self):
        rng = np.random.default_rng(8)
        tables = []
        for _ in range(3):
            tables.append(self._table(
                {f"m{i}": float(rng.uniform()) for i in range(5)}
            ))
        sums = rank_aggregate(tables)
        n = 5
        assert sum(sums.values()) == pytest.approx(3 * 6 * n * (n + 1) / 2)

    def test_criteria_directions(self):
        assert set(ASCENDING_CRITERIA) == {"rmse", "outlier_ratio"}
        assert len(CRITERIA) == 6


class TestMosCsv:
    def test_round_trip(self, tmp_path):
        records = [
            MosRecord("h1:c1", Display.OPT, "center", 0, 3.2, 0.51, 20),
            MosRecord("h1:c1", Display.LF, "corner", 1, 4.0, 0.25, 18),
            MosRecord("h2:c2", Display.TWO_D, "center", 0, 1.75, 1.0, 22),
        ]
        path = str(tmp_path / "mos.csv")
        write_mos_csv(records, path)
        assert read_mos_csv(path) == records
