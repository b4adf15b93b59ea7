"""Output checks for one `holoqa bench` invocation.

* the full report file set, and the paths the CLI printed, match the track;
* raw per-stimulus scores match the golden file of the dataset at rtol 1e-9
  (no absolute slack), with the ``+inf`` PSNR sentinel matched exactly;
* criteria, significance and rank-sum tables have the right shape and only
  finite values. Their values are not pinned: the stats layer is expected to
  change them on purpose.

Byte-identity across the invocations of a run is checked by the caller from
``file_digests``.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

DISPLAYS = ("OPT", "LF", "2D")
RTOL = 1e-9
CRITERIA_HEADER = ["metric", "srocc", "krcc", "pcc_nofit", "pcc_fitted", "rmse",
                   "outlier_ratio", "srocc_signed", "krcc_signed", "pcc_nofit_signed"]


def expected_files(track: str) -> set:
    names = {f"{track}_config.json", f"{track}_ranksums.csv", f"{track}_raw_scores.csv"}
    for d in DISPLAYS:
        names |= {f"{track}_{d}_criteria.csv", f"{track}_{d}_criteria.txt",
                  f"{track}_{d}_significance.csv"}
    return names


def file_digests(out_dir: str) -> dict:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _read_csv(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _number(text: str) -> float:
    # the report writes repr() of the value, which NumPy 2 spells
    # "np.float64(x)" for NumPy scalars
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _scores_match(got: float, want: float) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)


def check_raw_scores(path: str, golden_path: str) -> list:
    got = _read_csv(path)
    want = _read_csv(golden_path)
    if len(got) != len(want) or got[:1] != want[:1]:
        return [f"raw scores: {len(got)} lines, golden has {len(want)}"]
    problems = []
    for g, w in zip(got[1:], want[1:]):
        if g[:4] != w[:4]:
            problems.append(f"raw scores: row {g[:4]} where golden has {w[:4]}")
        elif not _scores_match(_number(g[4]), _number(w[4])):
            problems.append(f"raw scores: {'/'.join(g[:4])} = {g[4]}, golden {w[4]}")
    return problems


def _finite_cells(rows, first_col: int) -> bool:
    return all(math.isfinite(_number(v)) for r in rows for v in r[first_col:])


def check_tables(out_dir: str, track: str, metric_ids: list) -> list:
    problems = []
    n = len(metric_ids)
    for d in DISPLAYS:
        rows = _read_csv(os.path.join(out_dir, f"{track}_{d}_criteria.csv"))
        if rows[0] != CRITERIA_HEADER or [r[0] for r in rows[1:]] != metric_ids \
                or any(len(r) != len(CRITERIA_HEADER) for r in rows):
            problems.append(f"{d} criteria table has the wrong shape")
        elif not _finite_cells(rows[1:], 1):
            problems.append(f"{d} criteria table has non-finite values")
        with open(os.path.join(out_dir, f"{track}_{d}_criteria.txt"), encoding="utf-8") as fh:
            if len(fh.read().splitlines()) != n + 1:
                problems.append(f"{d} criteria text has the wrong number of lines")
        rows = _read_csv(os.path.join(out_dir, f"{track}_{d}_significance.csv"))
        if rows[0] != ["metric"] + metric_ids or [r[0] for r in rows[1:]] != metric_ids \
                or any(len(r) != n + 1 or not set(r[1:]) <= {"-1", "0", "1"}
                       for r in rows[1:]):
            problems.append(f"{d} significance matrix has the wrong shape")
    rows = _read_csv(os.path.join(out_dir, f"{track}_ranksums.csv"))
    if rows[0] != ["metric", "rank_sum"] or sorted(r[0] for r in rows[1:]) != sorted(metric_ids):
        problems.append("rank sums have the wrong shape")
    elif not _finite_cells(rows[1:], 1):
        problems.append("rank sums have non-finite values")
    return problems


def check_invocation(out_dir: str, printed: list, track: str, golden_path: str) -> list:
    """All problems found with one invocation's report; empty when correct."""
    if not os.path.isdir(out_dir):
        return ["no report directory"]
    want = expected_files(track)
    have = set(os.listdir(out_dir))
    if have != want:
        return [f"report files differ: missing {sorted(want - have)}, "
                f"unexpected {sorted(have - want)}"]
    if sorted(os.path.basename(p) for p in printed) != sorted(want):
        return ["printed paths differ from the report file set"]
    if not os.path.isfile(golden_path):
        return [f"no golden scores at {golden_path}"]
    golden = _read_csv(golden_path)
    metric_ids = list(dict.fromkeys(r[3] for r in golden[1:]))
    try:
        return (check_raw_scores(os.path.join(out_dir, f"{track}_raw_scores.csv"),
                                 golden_path)
                + check_tables(out_dir, track, metric_ids))
    except (ValueError, IndexError) as exc:
        return [f"malformed report: {exc}"]
