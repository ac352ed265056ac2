"""Exception types shared across the package."""


class CaosError(Exception):
    """Base class for all caossim errors."""


class UnsupportedOrder(CaosError):
    """Requested Hadamard order has no supported construction."""


class TimingError(CaosError):
    """Carrier cycles or samples per bit F are not integers, or F is outside 2 <= F < 2**32."""


class NyquistError(CaosError):
    """Sampling rate too low for the highest carrier."""


class LayoutError(CaosError):
    """Scene layout does not fit the pixel grid."""


class DimensionMismatch(CaosError):
    """Scene and plan grids disagree."""


class LengthMismatch(CaosError):
    """Sample stream length is not bits * samples_per_bit."""


class PlanMismatch(CaosError):
    """Stream provenance parameters disagree with the decoding plan."""


class EmptyRegion(CaosError):
    """A metrics region contains no pixels."""


class ConfigError(CaosError):
    """Malformed or unknown configuration content."""
