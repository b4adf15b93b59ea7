"""Workload inputs for the pipeline benchmark.

Every workload is built from the public demo generator only
(``generate_demo_dataset``, ``read_mos_csv``, ``write_mos_csv``) plus the
manifest JSON, so the benchmark keeps working while the library's internals
change.

The run seed selects one dataset seed of the workload's pool,
``POOLS[workload][(seed - 1234) mod len(pool)]``; seed 1234 selects dataset
1234, the demo dataset the ROADMAP baseline was measured on. Every dataset of
a pool has golden raw scores stored under ``perfbench/golden``, so each run's
output is checked value by value whatever seed it was given.

The logistic fits of the stats layer take a data-dependent number of
Levenberg-Marquardt iterations: over dataset seeds 1234-1289 their work on
qa4-unshared ranges from 1 300 to 35 700 iterations (0.2 to 4.3 s of a
10-13 s invocation). A pool drawn from consecutive seeds would make the
run-to-run spread measure that range rather than the program. Each pool is
therefore dataset 1234 plus the seven scanned datasets whose fit work is
closest to dataset 1234's (within 12%; qa1-demo: among those with 5 of 54
fits unconverged, as on dataset 1234). Every seed thus carries the fit cost
of the baseline dataset, unconverged fits included, with different content.
README.md lists the scan.
"""

from __future__ import annotations

import json
import os

WORKLOADS = {
    # name: track run by `holoqa bench`
    "qa1-demo": "qa1",
    "qa2-demo": "qa2",
    "qa4-unshared": "qa4",
}

BASE_SEED = 1234
POOLS = {
    "qa1-demo": (1234, 1259, 1252, 1244, 1245, 1248, 1239, 1242),
    "qa2-demo": (1234, 1254, 1257, 1255, 1249, 1238, 1253, 1236),
    "qa4-unshared": (1234, 1246, 1240, 1283, 1282, 1269, 1260, 1275),
}

# qa4-unshared: 12 references, one distorted version each
UNSHARED_SCENES = ("dots", "cloud")   # the scenes whose content follows the seed
UNSHARED_BITS = (7, 6, 5)
UNSHARED_COUNT = 12


def dataset_seed(workload: str, seed: int) -> int:
    pool = POOLS[workload]
    return pool[(seed - BASE_SEED) % len(pool)]


def build_inputs(workload: str, seed: int, out_dir: str) -> tuple[str, str]:
    """Write the inputs of ``workload`` for run seed ``seed`` into ``out_dir``;
    returns (manifest path, MOS CSV path)."""
    return build_dataset(workload, dataset_seed(workload, seed), out_dir)


def build_dataset(workload: str, ds: int, out_dir: str) -> tuple[str, str]:
    """Write the inputs of ``workload`` for dataset seed ``ds``."""
    from holoqa.synth import generate_demo_dataset

    if workload in ("qa1-demo", "qa2-demo"):
        manifest = generate_demo_dataset(out_dir, seed=ds)
        return manifest, os.path.join(out_dir, "mos.csv")
    if workload == "qa4-unshared":
        return build_unshared(out_dir, ds)
    raise ValueError(f"unknown workload {workload!r}")


def build_unshared(out_dir: str, seed: int) -> tuple[str, str]:
    """qa4-unshared: ``UNSHARED_COUNT`` demo-generator calls, each with one
    seed-dependent scene, its own derived seed and one bit depth (cycling
    7/6/5), merged into one manifest and one MOS file with unique stimulus
    ids. No reference is shared, so there is nothing to reuse across pairs."""
    from holoqa.stats import MosRecord, read_mos_csv, write_mos_csv
    from holoqa.synth import generate_demo_dataset

    merged = None
    records = []
    for i in range(UNSHARED_COUNT):
        scene = UNSHARED_SCENES[i % len(UNSHARED_SCENES)]
        bits = UNSHARED_BITS[i % len(UNSHARED_BITS)]
        sub = f"u{i:02d}"
        sub_dir = os.path.join(out_dir, sub)
        path = generate_demo_dataset(sub_dir, seed=seed * 100 + i,
                                     bits_levels=(bits,), scenes=(scene,))
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if merged is None:
            merged = {k: v for k, v in doc.items() if k != "stimuli"}
            merged["stimuli"] = []
        for stim in doc["stimuli"]:
            stim["id"] = f"{sub}-{stim['id']}"
            stim["reference"] = f"{sub}/{stim['reference']}"
            stim["distorted"] = {tag: f"{sub}/{base}"
                                 for tag, base in stim["distorted"].items()}
            merged["stimuli"].append(stim)
        for r in read_mos_csv(os.path.join(sub_dir, "mos.csv")):
            records.append(MosRecord(f"{sub}-{r.stimulus_id}", r.display, r.view,
                                     r.focal_index, r.mos, r.std, r.n))

    manifest = os.path.join(out_dir, "manifest.json")
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=1, sort_keys=True)
    mos = os.path.join(out_dir, "mos.csv")
    write_mos_csv(records, mos)
    return manifest, mos
