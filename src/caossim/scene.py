"""Synthetic targets, spectral models and per-pixel effective irradiances.

Everything here is in relative units: sources, filters and detector
responsivities are piecewise-linear curves over wavelength in nm, and a
scene reduces to a nonnegative irradiance value per grid pixel once folded
through a detector band. Image arrays are indexed [row, column], i.e. pixel
(m, n) lives at array[n - 1, m - 1].
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LayoutError
from .plan import PixelGrid, write_at


@dataclass(frozen=True, eq=False)
class SpectralCurve:
    """Piecewise-linear spectrum: strictly increasing wavelengths, values >= 0."""

    wavelengths: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        wl = np.asarray(self.wavelengths, dtype=np.float64)
        vals = np.asarray(self.values, dtype=np.float64)
        if wl.ndim != 1 or wl.shape != vals.shape or wl.size < 2:
            raise ConfigError("curve needs matching 1-D wavelength/value arrays, length >= 2")
        if not np.all(np.diff(wl) > 0):
            raise ConfigError("wavelengths must be strictly increasing")
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise ConfigError("curve values must be finite and >= 0")
        object.__setattr__(self, "wavelengths", wl)
        object.__setattr__(self, "values", vals)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.wavelengths[0]), float(self.wavelengths[-1])

    def sample(self, wavelengths: np.ndarray) -> np.ndarray:
        """Linear interpolation, zero outside the support."""
        return np.interp(wavelengths, self.wavelengths, self.values, left=0.0, right=0.0)


def flat_spectrum(lo_nm: float, hi_nm: float, value: float = 1.0) -> SpectralCurve:
    """Flat band between two wavelengths, zero outside."""
    return SpectralCurve(np.array([lo_nm, hi_nm]), np.array([value, value]))


def gaussian_spectrum(center_nm: float, fwhm_nm: float) -> SpectralCurve:
    """Gaussian line shape with peak 1, truncated at center +- 2 sigma.

    The compact support stands in for the steep skirts of real LEDs and
    interference filters: curves whose nominal bands do not overlap
    integrate to exactly zero against each other. 1025 knots keep the
    half-maximum crossings accurate to well under 0.5 nm.
    """
    if fwhm_nm <= 0:
        raise ConfigError("fwhm must be > 0")
    sigma = fwhm_nm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    half = 2.0 * sigma
    wl = np.linspace(center_nm - half, center_nm + half, 1025)
    vals = np.exp(-0.5 * ((wl - center_nm) / sigma) ** 2)
    return SpectralCurve(wl, vals)


def band_integrate(a: SpectralCurve, b: SpectralCurve, refine: int = 4) -> float:
    """Trapezoidal integral of a(l) * b(l) over the overlapping support.

    Quadrature runs on the union of both knot sets, each interval split
    `refine` times. Returns 0.0 when the supports are disjoint.
    """
    lo = max(a.support[0], b.support[0])
    hi = min(a.support[1], b.support[1])
    if hi <= lo:
        return 0.0
    grid = np.unique(np.clip(np.concatenate([a.wavelengths, b.wavelengths]), lo, hi))
    if refine > 1:
        steps = np.linspace(0.0, 1.0, refine, endpoint=False)[1:]
        extra = grid[:-1, None] + np.diff(grid)[:, None] * steps[None, :]
        grid = np.unique(np.concatenate([grid, extra.ravel()]))
    product = a.sample(grid) * b.sample(grid)
    return float(np.trapezoid(product, grid))


def _detected(curve: SpectralCurve, responsivity) -> float:
    """Band integral of a spectrum seen through a curve or flat responsivity."""
    if isinstance(responsivity, SpectralCurve):
        return band_integrate(curve, responsivity)
    return float(responsivity) * float(np.trapezoid(curve.values, curve.wavelengths))


@dataclass(frozen=True, eq=False)
class Scene:
    """Target description over a pixel grid.

    Exactly one of irradiance (scalar map) or per_source (stack of P maps
    for active multi-source captures) is set. With a spectrum, every pixel
    radiates that one spectrum, scaled by its irradiance value.
    """

    grid: PixelGrid
    irradiance: np.ndarray | None = None
    spectrum: SpectralCurve | None = None
    per_source: np.ndarray | None = None

    def __post_init__(self):
        if (self.irradiance is None) == (self.per_source is None):
            raise ConfigError("a scene needs exactly one of irradiance and per_source")
        if self.spectrum is not None and self.irradiance is None:
            raise ConfigError("a scene spectrum applies to irradiance only, not to per_source")
        shape = (self.grid.rows, self.grid.columns)
        if self.irradiance is not None:
            arr = np.asarray(self.irradiance, dtype=np.float64)
            if arr.shape != shape:
                raise ConfigError(f"irradiance shape {arr.shape} != grid {shape}")
            if np.any(arr < 0) or not np.all(np.isfinite(arr)):
                raise ConfigError("irradiance must be finite and >= 0")
            object.__setattr__(self, "irradiance", arr)
        if self.per_source is not None:
            arr = np.asarray(self.per_source, dtype=np.float64)
            if arr.ndim != 3 or arr.shape[1:] != shape:
                raise ConfigError("per_source must be (sources, rows, cols)")
            if np.any(arr < 0) or not np.all(np.isfinite(arr)):
                raise ConfigError("per_source must be finite and >= 0")
            object.__setattr__(self, "per_source", arr)

    @property
    def source_count(self) -> int:
        return 0 if self.per_source is None else self.per_source.shape[0]

    def effective_irradiance(self, responsivity=1.0) -> np.ndarray:
        """Scalar per-pixel map seen by a detector with the given responsivity.

        Scalar scenes are treated as already detector-referred; a curve
        responsivity only matters for spectral scenes.
        """
        if self.irradiance is None:
            raise ConfigError("a per-source scene has no single irradiance map")
        if self.spectrum is None:
            return self.irradiance
        return self.irradiance * _detected(self.spectrum, responsivity)


@dataclass(frozen=True)
class DetectorModel:
    """Point detector chain: responsivity, gain, noise terms, optional ADC.

    Each noise term is on exactly when its size is > 0. shot_noise is the
    shot variance per unit signal (Gaussian, per-sample variance shot_noise *
    signal). pink_noise is (expected rms amplitude, alpha) of stationary
    1/f**alpha noise, flat below sample rate / sensor.PINK_TAPS (sensor.Noise).
    """

    responsivity: SpectralCurve | float = 1.0
    gain: float = 1.0
    noise_sigma: float = 0.0
    shot_noise: float = 0.0
    pink_noise: tuple[float, float] = (0.0, 1.0)
    adc_bits: int | None = None
    adc_fullscale: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.pink_noise, tuple) and len(self.pink_noise) == 2):
            raise ConfigError(f"pink_noise must be (amplitude, alpha), got {self.pink_noise!r}")
        amp, alpha = self.pink_noise
        for name, value in (
            ("gain", self.gain),
            ("noise_sigma", self.noise_sigma),
            ("shot_noise", self.shot_noise),
            ("adc_fullscale", self.adc_fullscale),
            ("pink noise amplitude", amp),
        ):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.gain <= 0:
            raise ConfigError("gain must be > 0")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")
        if self.shot_noise < 0:
            raise ConfigError("shot_noise must be >= 0")
        if amp < 0 or not (0.0 < alpha <= 2.0):
            raise ConfigError("pink noise needs amplitude >= 0 and 0 < alpha <= 2")
        if self.adc_bits is not None:
            # 2**53 - 1 levels is the most a float64 step still resolves.
            if not 1 <= self.adc_bits <= 53:
                raise ConfigError(f"adc_bits must be between 1 and 53, got {self.adc_bits}")
            if self.adc_fullscale <= 0:
                raise ConfigError("adc_fullscale must be > 0 when adc_bits is set")


# ---------------------------------------------------------------------------
# Target constructors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PatchLayout:
    """Rectangles (col0, row0, width, height), 0-based, plus the dark margin."""

    patches: tuple[tuple[int, int, int, int], ...]
    background: np.ndarray  # boolean mask of pixels outside every patch


def hdr_patch_layout(grid: PixelGrid, layout: tuple[int, int]) -> PatchLayout:
    """Split the grid into layout = (rows, cols) cells with an inset patch each."""
    rows, cols = layout
    if rows < 1 or cols < 1:
        raise LayoutError(f"a {rows}x{cols} layout needs at least one row and one column")
    if grid.columns < cols or grid.rows < rows:
        raise LayoutError(f"grid {grid.columns}x{grid.rows} too small for {rows}x{cols} layout")
    cell_w = grid.columns // cols
    cell_h = grid.rows // rows
    inset_x = cell_w // 4
    inset_y = cell_h // 4
    patches = []
    for r in range(rows):
        for c in range(cols):
            x0 = c * cell_w + inset_x
            y0 = r * cell_h + inset_y
            w = max(1, cell_w - 2 * inset_x)
            h = max(1, cell_h - 2 * inset_y)
            patches.append((x0, y0, w, h))
    mask = np.ones((grid.rows, grid.columns), dtype=bool)
    for x0, y0, w, h in patches:
        mask[y0 : y0 + h, x0 : x0 + w] = False
    return PatchLayout(patches=tuple(patches), background=mask)


def hdr_patch_target(
    grid: PixelGrid,
    levels_db,
    layout: tuple[int, int],
    convention: int = 20,
) -> Scene:
    """Calibrated multi-patch test target on a dark background.

    The brightest patch (level 0 dB) has relative irradiance 1; a patch D dB
    down carries 10**(-D / convention). convention 20 treats the dB numbers
    as amplitude-style irradiance ratios, 10 as power-style. A level whose
    irradiance is not a positive finite float raises LayoutError.
    """
    levels = [float(x) for x in levels_db]
    rows, cols = layout
    if len(levels) != rows * cols:
        raise LayoutError(f"{len(levels)} levels do not fill a {rows}x{cols} layout")
    pl = hdr_patch_layout(grid, layout)
    img = np.zeros((grid.rows, grid.columns))
    for level, (x0, y0, w, h) in zip(levels, pl.patches):
        try:
            value = 10.0 ** (-level / convention)
        except OverflowError:
            value = math.inf
        if not 0.0 < value < math.inf:
            raise LayoutError(f"patch level {level} dB gives irradiance {value}, not in (0, inf)")
        img[y0 : y0 + h, x0 : x0 + w] = value
    return Scene(grid=grid, irradiance=img)


def disc_mask(grid: PixelGrid, center: tuple[int, int], radius: float) -> np.ndarray:
    """Boolean mask of pixels within radius of a 1-based (m, n) center."""
    mm, nn = np.meshgrid(
        np.arange(1, grid.columns + 1), np.arange(1, grid.rows + 1)
    )
    return (mm - center[0]) ** 2 + (nn - center[1]) ** 2 <= radius**2


def _check_disc(grid: PixelGrid, center, radius: float, what: str) -> None:
    """LayoutError unless center is a grid pixel and radius is finite and >= 0."""
    m, n = center
    if not (1 <= m <= grid.columns and 1 <= n <= grid.rows):
        raise LayoutError(f"{what} ({m}, {n}) outside the grid")
    if not 0.0 <= radius < math.inf:
        raise LayoutError(f"{what} radius must be finite and >= 0, got {radius}")


def dual_band_source(
    grid: PixelGrid,
    spot: tuple[int, int],
    radius: float,
) -> Scene:
    """Broadband fiber-spot target spanning 350-1800 nm.

    The spot carries a normalized blackbody spectrum at a halogen bulb's
    color temperature, 2850 K, so both a silicon-band and a germanium-band
    detector see it.
    """
    _check_disc(grid, spot, radius, "spot")
    wl = np.arange(350.0, 1800.0 + 1e-9, 2.0)
    # Planck's law up to constants, peak-normalized.
    x = 1.4388e7 / (wl * 2850.0)  # hc / (lambda k T) with lambda in nm
    vals = (1.0 / wl**5) / np.expm1(x)
    vals /= vals.max()
    scale = disc_mask(grid, spot, radius).astype(np.float64)
    return Scene(grid=grid, irradiance=scale, spectrum=SpectralCurve(wl, vals))


def si_band_responsivity() -> SpectralCurve:
    """Flat stand-in for a silicon point detector band."""
    return flat_spectrum(320.0, 1000.0)


def ge_band_responsivity() -> SpectralCurve:
    """Flat stand-in for a germanium point detector band."""
    return flat_spectrum(800.0, 1800.0)


def two_hole_target(
    grid: PixelGrid,
    hole_positions,
    hole_filters,
    sources,
    hole_radius: float,
) -> Scene:
    """Active-illumination target: filtered holes under P modulated sources.

    sources is a list of (spectrum, channel) pairs ordered by channel; the
    per-source irradiance of a hole pixel is the source x filter band
    integral, zero elsewhere.
    """
    if len(hole_filters) != len(hole_positions):
        raise ConfigError("one filter per hole required")
    for pos in hole_positions:
        _check_disc(grid, pos, hole_radius, "hole")

    ordered = sorted(sources, key=lambda sc: sc[1])
    maps = np.zeros((len(ordered), grid.rows, grid.columns))
    for p, (spectrum, _channel) in enumerate(ordered):
        for pos, filt in zip(hole_positions, hole_filters):
            # On the union knots alone, as the filtered spectrum's own trapezoid.
            value = band_integrate(spectrum, filt, refine=1)
            if value <= 0.0:
                continue
            maps[p][disc_mask(grid, pos, hole_radius)] = value
    return Scene(grid=grid, per_source=maps)


# ---------------------------------------------------------------------------
# File formats: 16-bit PGM, float CSV
# ---------------------------------------------------------------------------


def write_image_pgm(image: np.ndarray, path) -> None:
    """Store a nonnegative float image as 16-bit binary PGM.

    Values are divided by the image max and quantized to 0..65535; the scale
    is kept in a header comment so loads can restore absolute values.
    """
    arr = np.asarray(image, dtype=np.float64)
    scale = float(arr.max()) if arr.size and arr.max() > 0 else 1.0
    q = np.clip(np.round(arr / scale * 65535.0), 0, 65535).astype(">u2")
    header = f"P5\n# scale {scale!r}\n{arr.shape[1]} {arr.shape[0]}\n65535\n"
    write_at(path, header.encode("ascii") + q.tobytes())


def read_image_pgm(path) -> np.ndarray:
    """A 16-bit binary PGM as floats, times the scale in its header comment.

    A file that is not such a PGM, or ends before its last pixel, raises
    ConfigError naming it.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = []
    scale = 1.0
    pos = 0
    try:
        while len(tokens) < 4:
            end = data.index(b"\n", pos)  # a header line without its newline ends the file
            text = data[pos:end].decode("ascii", errors="replace").strip()
            pos = end + 1
            if text.startswith("#"):
                parts = text[1:].split()
                if len(parts) == 2 and parts[0] == "scale":
                    scale = float(parts[1])
                continue
            tokens.extend(text.split())
        width, height = int(tokens[1]), int(tokens[2])
        if tokens[0] != "P5" or tokens[3] != "65535" or width < 1 or height < 1:
            raise ValueError
        pixels = np.frombuffer(data, dtype=">u2", offset=pos, count=width * height)
    except ValueError:
        raise ConfigError(f"{path} is not a complete 16-bit binary PGM") from None
    return pixels.reshape(height, width).astype(np.float64) / 65535.0 * scale


def write_image_csv(image: np.ndarray, path) -> None:
    buf = io.BytesIO()
    np.savetxt(buf, np.asarray(image, dtype=np.float64), delimiter=",", fmt="%.17g")
    write_at(path, buf.getvalue())


def read_image_csv(path) -> np.ndarray:
    """A float CSV image, one line per row; no cells or a non-finite cell raise ConfigError."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt's "input contained no data"
            image = np.loadtxt(path, delimiter=",", ndmin=2)
    except (ValueError, UserWarning) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    bad = np.argwhere(~np.isfinite(image))
    if bad.size:
        row, col = bad[0]
        value = image[row, col]
        raise ConfigError(f"{path}: non-finite value {value} in row {row + 1}, column {col + 1}")
    return image
