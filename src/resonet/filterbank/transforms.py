"""Pointwise feature transforms applied after spectral analysis."""

from __future__ import annotations

import math
import warnings

import numpy as np

from ..errors import ConfigError, DegenerateInputWarning


def normalize_maxabs(z: np.ndarray) -> np.ndarray:
    """Scale a real matrix so its largest magnitude becomes exactly 1.

    An all-zero input cannot be normalized; it is returned as zeros and a
    DegenerateInputWarning is emitted.
    """
    z = np.asarray(z, dtype=np.float64)
    peak = np.max(np.abs(z)) if z.size else 0.0
    if peak == 0.0:
        warnings.warn("all-zero matrix passed to normalize_maxabs",
                      DegenerateInputWarning, stacklevel=2)
        return np.zeros_like(z)
    return z / peak


def exponent_transform(x: np.ndarray, alpha: float) -> np.ndarray:
    """Raise entries of a normalized matrix to a real power.

    Writing ``alpha = n + eps`` with integer n and eps in (-0.5, 0.5],
    nonnegative entries map to ``x**alpha`` and negative entries to
    ``|x|**alpha * (-1)**n * cos(pi*eps)``, i.e. the real part of the
    principal-branch complex power.  ``alpha = 0`` maps every entry
    (zero included) to 1.
    """
    if not math.isfinite(alpha):
        raise ConfigError(f"exponent must be finite, got {alpha}")
    x = np.asarray(x, dtype=np.float64)
    n = math.ceil(alpha - 0.5)
    eps = alpha - n
    mag = np.abs(x) ** alpha
    neg_scale = (-1.0) ** n * math.cos(math.pi * eps)
    return np.where(x < 0.0, mag * neg_scale, mag)


def spectro_hp_from_complex(z: np.ndarray) -> np.ndarray:
    """Hardware-inspired sin/cos map of a complex spectrum.

    Real and imaginary parts are normalized jointly by the larger of the
    two peak magnitudes, then combined as ``|sin(sqrt|re|)| -
    |cos(sqrt|im|)|``.  Outputs lie in [-1, 1]; a zero input maps to -1
    everywhere (and warns, since the joint normalization is degenerate).
    """
    re, im = normalize_maxabs(np.stack([np.real(z), np.imag(z)]))
    return np.abs(np.sin(np.sqrt(np.abs(re)))) - np.abs(np.cos(np.sqrt(np.abs(im))))
