"""One timed `holoqa bench` invocation, as the first and only one in a fresh
interpreter.

    python3 perfbench/child.py RESULT_JSON [--trace SPANS_JSON INVOCATION_ID]
                               [-- BENCH_ARGS...]

Times ``import holoqa.cli`` (the set-up every `holoqa` command pays), then,
when bench arguments follow ``--``, one ``holoqa.cli.main(["bench", ...])``.
Writes the timings, the exit code and the process's peak resident memory to
RESULT_JSON. With ``--trace`` the tracing wrappers are installed after the
import and the spans are written to SPANS_JSON; without it nothing of the
library is wrapped.
"""

import json
import os
import sys
import time


def _peak_rss_mb() -> float:
    # VmHWM belongs to this process image only; ru_maxrss can carry over the
    # parent's peak through fork/exec
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv) -> int:
    result_path = argv[0]
    rest = argv[1:]
    bench_args = None
    if "--" in rest:
        cut = rest.index("--")
        bench_args = rest[cut + 1:]
        rest = rest[:cut]
    trace = None
    if rest[:1] == ["--trace"]:
        trace = (rest[1], rest[2])

    t0 = time.perf_counter()
    import holoqa.cli as cli
    import_s = time.perf_counter() - t0
    result = {"import_s": import_s, "holoqa_file": os.path.abspath(cli.__file__)}

    if bench_args is not None:
        argv_bench = ["bench"] + bench_args
        if trace is None:
            c1 = time.process_time()
            t1 = time.perf_counter()
            rc = cli.main(argv_bench)
            result["bench_s"] = time.perf_counter() - t1
            result["bench_cpu_s"] = time.process_time() - c1
        else:
            from spans import Tracer, install

            tracer = Tracer(trace[1])
            install(tracer)
            t1 = time.perf_counter()
            rc = tracer.span("cli.main", cli.main, argv_bench)
            result["bench_s"] = time.perf_counter() - t1
            tracer.dump(trace[0])
        result["rc"] = rc
        result["peak_rss_mb"] = _peak_rss_mb()

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
