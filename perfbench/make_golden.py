"""Record the golden raw scores the benchmark checks every run against.

    python3 perfbench/make_golden.py [--workload NAME ...]

For each workload and each dataset seed of the pool, builds the inputs,
runs ``holoqa bench`` once and stores its ``<track>_raw_scores.csv`` as
``perfbench/golden/<workload>/seed<dataset seed>.csv``. Run it from the root
of a source checkout, only when a change to the scores is intended.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import POOLS, WORKLOADS, build_dataset

    import holoqa.cli as cli

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS),
                        choices=list(WORKLOADS))
    args = parser.parse_args()
    work = os.path.join(ROOT, ".perfbench_work", f"golden-{os.getpid()}")
    try:
        for name in args.workload:
            track = WORKLOADS[name]
            os.makedirs(os.path.join(HERE, "golden", name), exist_ok=True)
            for ds in POOLS[name]:
                shutil.rmtree(work, ignore_errors=True)
                manifest, mos = build_dataset(name, ds, os.path.join(work, "data"))
                out = os.path.join(work, "out")
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cli.main(["bench", "--manifest", manifest, "--mos", mos,
                                   "--track", track, "--out", out])
                if rc != 0:
                    raise SystemExit(f"{name} seed {ds}: holoqa bench exited {rc}")
                shutil.copyfile(os.path.join(out, f"{track}_raw_scores.csv"),
                                os.path.join(HERE, "golden", name, f"seed{ds}.csv"))
                print(f"{name} seed{ds}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
