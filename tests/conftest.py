"""Shared fixtures: session-scoped demo datasets (generation is the costly
part, so tests and the acceptance suite reuse one copy), a test image with
three noisy versions, and a guard that fails any test leaving a thread
alive."""

import os
import threading

import numpy as np
import pytest

from holoqa.synth import generate_demo_dataset


@pytest.fixture(autouse=True)
def no_thread_left_alive():
    """``run_track``'s scoring pool joins its workers before it returns, so a
    test ends with no more threads than it started with."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads left alive: {left}")


@pytest.fixture(scope="session")
def demo_dataset(tmp_path_factory):
    """Standard demo dataset: 4 holograms x 3 distortion levels."""
    root = str(tmp_path_factory.mktemp("demo"))
    manifest = generate_demo_dataset(root, seed=1234)
    return {"root": root, "manifest": manifest,
            "mos": os.path.join(root, "mos.csv")}


@pytest.fixture(scope="session")
def monotonicity_dataset(tmp_path_factory):
    """Structured dataset for the monotonicity criterion: 3 holograms x
    requantization levels {7, 6, 5, 4} bits."""
    root = str(tmp_path_factory.mktemp("mono"))
    manifest = generate_demo_dataset(
        root, scenes=("bars", "grid", "spokes"), bits_levels=(7, 6, 5, 4),
        seed=1234,
    )
    return {"root": root, "manifest": manifest,
            "mos": os.path.join(root, "mos.csv")}


@pytest.fixture(scope="module")
def image():
    rng = np.random.default_rng(0)
    yy, xx = np.mgrid[0:200, 0:200]
    base = 90 + 60 * np.sin(xx / 7.0) * np.cos(yy / 9.0) + rng.normal(0, 12, (200, 200))
    return np.clip(np.round(base), 0, 255).astype(np.float64)


@pytest.fixture(scope="module")
def noisy_versions(image):
    rng = np.random.default_rng(1)
    out = []
    for sigma in (2.0, 6.0, 18.0):
        noisy = image + rng.normal(0, sigma, image.shape)
        out.append(np.clip(np.round(noisy), 0, 255).astype(np.float64))
    return out
