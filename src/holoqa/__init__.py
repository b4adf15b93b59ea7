"""holoqa: quality assessment pipeline for digital holograms.

Subpackages cover the hologram data model (:mod:`holoqa.field`), wavefield
transforms and reconstruction (:mod:`holoqa.transform`), speckle denoising
(:mod:`holoqa.denoise`), the full-reference metric suite
(:mod:`holoqa.metrics`), statistical evaluation against subjective scores
(:mod:`holoqa.stats`) and the benchmark harness plus CLI
(:mod:`holoqa.harness`, :mod:`holoqa.cli`).
"""

__version__ = "0.1.0"

from .errors import HoloQAError
from .field import (
    ApertureSpec,
    HologramForm,
    QuantizedField,
    WaveField,
    dequantize_components,
    quantize_components,
)
from .metrics import ALL_METRIC_IDS, evaluate_complex, evaluate_real

__all__ = [
    "__version__",
    "HoloQAError",
    "ApertureSpec",
    "HologramForm",
    "QuantizedField",
    "WaveField",
    "dequantize_components",
    "quantize_components",
    "ALL_METRIC_IDS",
    "evaluate_complex",
    "evaluate_real",
]
