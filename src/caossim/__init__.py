"""Deterministic simulator and codec for FDMA-CDMA coded-access camera signals.

The package models the full signal path of a coded-access point-detector
camera: balanced Walsh code books (codes), triple space-time-frequency
coding plans (plan), synthetic targets and spectral models (scene),
encoded detector sample streams with noise and ADC effects (sensor),
per-bit spectrum-analysis decoding back to linear irradiance images
(decode), quality and security metrics (metrics), and end-to-end
experiment presets with a command-line front end (presets, cli).
"""

from .codes import CodeBook, codebook, hadamard
from .decode import RecoveredImage, decode_capture, decode_frame, dsp_gain_db, per_bit_spectra
from .errors import (
    CaosError,
    ConfigError,
    DimensionMismatch,
    EmptyRegion,
    LayoutError,
    LengthMismatch,
    NyquistError,
    PlanMismatch,
    TimingError,
    UnsupportedOrder,
)
from .metrics import crosstalk, patch_dr, speedup, wrong_key_correlation
from .plan import (
    CodingPlan,
    FrequencyPlan,
    Mode,
    PixelGrid,
    build_plan,
    coding_element,
    reallocate,
)
from .scene import (
    DetectorModel,
    Scene,
    SpectralCurve,
    band_integrate,
    dual_band_source,
    gaussian_spectrum,
    hdr_patch_target,
    two_hole_target,
)
from .sensor import (
    DualStreams,
    SampleStream,
    StreamFile,
    add_noise,
    apply_adc,
    capture,
    capture_dual,
    synthesize,
)

__version__ = "0.1.0"
