"""Deterministic simulator and codec for FDMA-CDMA coded-access camera signals.

The package models the full signal path of a coded-access point-detector
camera: balanced Walsh code books (codes), triple space-time-frequency
coding plans (plan), synthetic targets and spectral models (scene),
encoded detector sample streams with noise and ADC effects (sensor),
per-bit spectrum-analysis decoding back to linear irradiance images
(decode), quality and security metrics (metrics), and end-to-end
experiment presets with a command-line front end (presets, cli).
"""

from . import codes, decode, errors, metrics, plan, scene, sensor

__version__ = "0.1.0"
