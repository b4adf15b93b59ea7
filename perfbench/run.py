"""Pipeline benchmark: one `holoqa bench` invocation, end to end.

    python3 perfbench/run.py --workload {qa1-demo,qa2-demo,qa4-unshared,all}
                             [--seed 1234] [--seconds 10] [--trace 0|1]

Run from the root of a source checkout; the library is imported from its
``src`` directory. Each timed invocation runs in a fresh interpreter
(perfbench/child.py) as the first and only one there, as it is for a CLI user.

--trace 0 reports the end-to-end metrics: ``bench_s`` (median wall seconds of
``holoqa.cli.main(["bench", ...])``), ``setup_s`` (median seconds of
``import holoqa.cli``, taken in SETUP_SAMPLES import-only interpreters plus
each bench interpreter) and ``peak_rss_mb`` (median peak resident memory of
the bench process). No tracing code is loaded in these runs.

--trace 1 alternates an untraced and a traced invocation and reports the
per-layer metrics of the traced ones (see README.md), plus
``trace.overhead_s``, the traced minus the untraced ``bench_s``.

Invocations repeat while one more is expected to end within --seconds, and
run at least once. Every one is checked (perfbench/checks.py), and every
emitted file must have the same digest in all invocations of the run. The last line of standard output is
the JSON result; the full record, with run metadata and spans, goes to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from checks import check_invocation, file_digests
from spans import layer_metrics
from workloads import WORKLOADS, build_inputs, dataset_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

SETUP_SAMPLES = 2
RUN_DEADLINE_S = 170.0    # a run must end within 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


class Run:
    """One workload run: its inputs, invocations and results."""

    def __init__(self, workload: str, seed: int, trace: bool, deadline: float):
        self.workload = workload
        self.track = WORKLOADS[workload]
        self.seed = seed
        self.dataset_seed = dataset_seed(workload, seed)
        self.trace = trace
        self.deadline = deadline
        self.tag = f"{workload}-seed{seed}-trace{int(trace)}"
        self.work = os.path.join(WORK_ROOT, f"{self.tag}-{os.getpid()}")
        self.golden = os.path.join(HERE, "golden", workload,
                                   f"seed{self.dataset_seed}.csv")
        self.invocations = []
        self.setup = []
        self.generate_s = None

    def _child(self, name: str, extra: list) -> dict:
        result_path = os.path.join(self.work, f"{name}.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), result_path] + extra
        with open(os.path.join(self.work, f"{name}.stdout"), "w") as out, \
                open(os.path.join(self.work, f"{name}.stderr"), "w") as err:
            try:
                subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=out, stderr=err,
                               timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                return {"problems": ["timed out"]}
        try:
            with open(result_path, encoding="utf-8") as fh:
                res = json.load(fh)
        except (OSError, ValueError):
            with open(os.path.join(self.work, f"{name}.stderr")) as fh:
                tail = fh.read().strip().splitlines()[-1:]
            return {"problems": [f"child process failed: {tail}"]}
        res["problems"] = []
        if not res["holoqa_file"].startswith(SRC + os.sep):
            res["problems"].append(f"imported holoqa from {res['holoqa_file']}")
        return res

    def import_only(self) -> None:
        res = self._child(f"setup{len(self.setup)}", [])
        if res["problems"]:
            raise RuntimeError(f"import holoqa.cli failed: {res['problems']}")
        self.setup.append(res["import_s"])

    def invoke(self, traced: bool) -> None:
        k = len(self.invocations)
        name = f"inv{k}"
        out = os.path.join(self.work, f"out{k}")
        extra = []
        if traced:
            spans = os.path.join(OUT_ROOT, f"{self.tag}-spans{k}.json")
            extra = ["--trace", spans, f"{self.tag}-{k}"]
        extra += ["--", "--manifest", self.manifest, "--mos", self.mos,
                  "--track", self.track, "--out", out]
        res = self._child(name, extra)
        res["traced"] = traced
        if traced:
            res["spans"] = spans
        if "rc" in res:
            if res["rc"] != 0:
                res["problems"].append(f"exit code {res['rc']}")
            with open(os.path.join(self.work, f"{name}.stdout")) as fh:
                printed = fh.read().splitlines()
            res["problems"] += check_invocation(out, printed, self.track, self.golden)
            if os.path.isdir(out):
                res["digests"] = file_digests(out)
        self.invocations.append(res)

    def execute(self, seconds: float) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        os.makedirs(OUT_ROOT, exist_ok=True)
        try:
            t0 = time.perf_counter()
            self.manifest, self.mos = build_inputs(
                self.workload, self.seed, os.path.join(self.work, "data"))
            self.generate_s = time.perf_counter() - t0
            if not self.trace:
                for _ in range(SETUP_SAMPLES):
                    self.import_only()
            # repeat while one more round is expected to end within `seconds`
            start = time.perf_counter()
            rounds = []
            while True:
                t_round = time.perf_counter()
                self.invoke(traced=False)
                if self.trace:
                    self.invoke(traced=True)
                rounds.append(time.perf_counter() - t_round)
                need = statistics.median(rounds)
                if time.perf_counter() - start + need > seconds or \
                        time.monotonic() + need > self.deadline:
                    break
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        self._check_identity()

    def _check_identity(self) -> None:
        digested = [r for r in self.invocations if "digests" in r]
        for r in digested[1:]:
            if r["digests"] != digested[0]["digests"]:
                r["problems"].append("report bytes differ from the run's first invocation")

    # -- results -------------------------------------------------------------

    @property
    def failed(self) -> int:
        return sum(1 for r in self.invocations if r["problems"])

    def end_to_end(self) -> dict:
        bench = [r["bench_s"] for r in self.invocations if "bench_s" in r]
        setup = self.setup + [r["import_s"] for r in self.invocations if "import_s" in r]
        rss = [r["peak_rss_mb"] for r in self.invocations if "peak_rss_mb" in r]
        metrics = {}
        for name, unit, values in (("bench_s", "s", bench), ("setup_s", "s", setup),
                                   ("peak_rss_mb", "MB", rss)):
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit,
                                 "samples": len(values)}
        return metrics

    def per_layer(self) -> dict:
        per_inv = []
        for r in self.invocations:
            if r["traced"] and "rc" in r:
                with open(r["spans"], encoding="utf-8") as fh:
                    per_inv.append(layer_metrics(json.load(fh)))
        metrics = {}
        if per_inv:
            for name in per_inv[0]:
                metrics[name] = statistics.median(m[name] for m in per_inv)
        metrics["synth.generate_s"] = self.generate_s
        plain = [r["bench_s"] for r in self.invocations if not r["traced"] and "bench_s" in r]
        traced = [r["bench_s"] for r in self.invocations if r["traced"] and "bench_s" in r]
        if plain and traced:
            metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        return {name: {"value": v, "unit": layer_unit(name)} for name, v in metrics.items()}


def layer_unit(name: str) -> str:
    if name == "metrics.mpix_per_s":
        return "Mpx/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def run_metadata() -> dict:
    import numpy
    import scipy

    import holoqa

    commit = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                    capture_output=True, text=True).stdout.strip() or None
            dirty = bool(subprocess.run(["git", "status", "--porcelain", "--", "src"],
                                        cwd=ROOT, timeout=30, capture_output=True,
                                        text=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    src_digest = hashlib.sha256()
    pkg = os.path.join(SRC, "holoqa")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(filenames):
            path = os.path.join(dirpath, f)
            src_digest.update(os.path.relpath(path, pkg).encode())
            with open(path, "rb") as fh:
                src_digest.update(fh.read())
    blas = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name") for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "commit": commit,
        "src_dirty": dirty,
        "src_sha256": src_digest.hexdigest(),
        "holoqa": holoqa.__version__,
        "kernel_backend": getattr(holoqa, "KERNEL_BACKEND", None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "machine": platform.machine(),
    }


def _print_summary(run: Run, metrics: dict) -> None:
    n = len(run.invocations)
    mode = "traced" if run.trace else "untraced"
    print(f"[{run.workload}] seed={run.seed} dataset_seed={run.dataset_seed} "
          f"{mode} invocations={n}")
    for name, m in metrics.items():
        samples = f"  (median of {m['samples']})" if "samples" in m else ""
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}{samples}")
    print(f"  {'error_rate':<34} {run.failed / max(n, 1):>14.6g} "
          f"ratio  ({run.failed} failed / {n} attempted)")
    for r in run.invocations:
        for p in r["problems"][:5]:
            print(f"  FAILED: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "holoqa", "cli.py")):
        print(f"error: no holoqa sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    meta = run_metadata()
    print("meta " + json.dumps(meta, sort_keys=True))
    deadline = time.monotonic() + RUN_DEADLINE_S * len(names)
    attempted = failed = 0
    result_metrics = {}
    for name in names:
        run = Run(name, args.seed, bool(args.trace), deadline)
        run.execute(args.seconds)
        metrics = run.per_layer() if run.trace else run.end_to_end()
        _print_summary(run, metrics)
        attempted += len(run.invocations)
        failed += run.failed
        record = {"meta": meta, "workload": name, "seed": args.seed,
                  "dataset_seed": run.dataset_seed, "seconds": args.seconds,
                  "trace": args.trace, "metrics": metrics,
                  "setup_samples": run.setup, "invocations": run.invocations}
        with open(os.path.join(OUT_ROOT, f"{run.tag}.json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, m in metrics.items():
            result_metrics[prefix + metric] = {"value": m["value"], "unit": m["unit"]}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
