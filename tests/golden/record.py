"""Record the golden per-stimulus raw scores the tier-1 suite checks.

    PYTHONPATH=src python3 tests/golden/record.py

Generates the demo dataset (``generate_demo_dataset(seed=1234)``) in a
temporary directory, runs every track with its default metrics and writes
``tests/golden/<track>_raw_scores.csv`` with each value as ``repr(float)``.
Run it only when a change to the scores is intended.
"""

import csv
import os
import sys
import tempfile

from holoqa.harness import TRACKS, TrackConfig, load_manifest, run_track
from holoqa.stats import read_mos_csv
from holoqa.synth import generate_demo_dataset

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    with tempfile.TemporaryDirectory() as root:
        manifest = load_manifest(generate_demo_dataset(root, seed=1234))
        mos = read_mos_csv(os.path.join(root, "mos.csv"))
        for track in TRACKS:
            report = run_track(manifest, mos, TrackConfig(track))
            path = os.path.join(HERE, f"{track}_raw_scores.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh)
                w.writerow(["stimulus_id", "view", "focal_index", "metric", "value"])
                for rec in report.raw_scores:
                    w.writerow([rec.stimulus_id, rec.view, rec.focal_index,
                                rec.metric_id, repr(float(rec.value))])
            print(path, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
