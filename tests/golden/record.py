"""Record the golden report tables the tier-1 suite checks.

    PYTHONPATH=src python3 tests/golden/record.py

Generates the demo dataset (``generate_demo_dataset(seed=1234)``) in a
temporary directory, runs every track with its default metrics and copies
the per-stimulus raw scores (``<track>_raw_scores.csv``) and the per-display
criteria tables (``<track>_<display>_criteria.csv``) that ``emit_report``
writes into ``tests/golden/``. Run it only when a change to the scores or
criteria is intended.
"""

import os
import shutil
import sys
import tempfile

from holoqa.harness import TRACKS, TrackConfig, emit_report, load_manifest, run_track
from holoqa.stats import read_mos_csv
from holoqa.synth import generate_demo_dataset

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    with tempfile.TemporaryDirectory() as root:
        manifest = load_manifest(generate_demo_dataset(root, seed=1234))
        mos = read_mos_csv(os.path.join(root, "mos.csv"))
        out = os.path.join(root, "reports")
        for track in TRACKS:
            report = run_track(manifest, mos, TrackConfig(track))
            for path in emit_report(report, out):
                name = os.path.basename(path)
                if name.endswith(("_raw_scores.csv", "_criteria.csv")):
                    shutil.copyfile(path, os.path.join(HERE, name))
                    print(os.path.join(HERE, name), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
