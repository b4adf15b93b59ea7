"""Exception hierarchy shared by all holoqa modules."""


class HoloQAError(Exception):
    """Base class for all holoqa errors."""


class InvalidField(HoloQAError):
    """Wavefield data violates its invariants (non-finite samples, bad shape)."""


class ApertureOutOfBounds(HoloQAError):
    """Aperture window does not lie fully inside the source field."""


class CorruptInput(HoloQAError):
    """Malformed input file: on-disk data size disagrees with its sidecar
    metadata or PGM header, or a manifest or MOS table is invalid."""


class UnsupportedFormat(HoloQAError):
    """Unknown dtype or hologram form tag in a sidecar document."""


class InvalidFactor(HoloQAError):
    """Upsampling factor is not an integer >= 2."""


class FormMismatch(HoloQAError):
    """Operation applied to a hologram of the wrong form (Fourier vs Fresnel)."""


class PlanMismatch(HoloQAError):
    """Conversion plan does not match the field it is applied to."""


class DegenerateAmplitude(HoloQAError):
    """All-zero reference amplitude; no clip bound can be derived."""


class WindowTooLarge(HoloQAError):
    """Filter window larger than the image it is applied to."""


class DimMismatch(HoloQAError):
    """Reference and distorted inputs have different shapes."""


class DegenerateReference(HoloQAError):
    """Zero-energy reference input for a normalized measure."""


class DegenerateRanks(HoloQAError):
    """Constant input vector; rank correlation undefined."""


class InputTooSmall(HoloQAError):
    """Input smaller than the minimum a windowed/multi-scale metric supports."""


class StimulusMismatch(HoloQAError):
    """Residual vectors are not paired over the same stimulus set."""


class NoOverlap(HoloQAError):
    """Empty intersection between manifest stimuli and MOS records."""


class ZeroScene(HoloQAError):
    """Point-cloud scene with no points."""


class UnknownMetric(HoloQAError):
    """Metric id not present in the registry."""
