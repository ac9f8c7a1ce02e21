"""Time-multiplexed single-node reservoir.

A feature matrix X (n_rows x n_frames) is expanded through a fixed
binary mask M (n_theta x n_rows) and flattened column by column into a
drive sequence that one physical node integrates sequentially:

    x[(tau) * n_theta + theta] = (M X)[theta, tau]

so the theta index varies fastest.  The node is a spin-torque-style
oscillator whose amplitude relaxes exponentially toward an
input-dependent equilibrium:

    v_i = v_inf(x_i) * (1 - exp(-dt/t_relax)) + v_{i-1} * exp(-dt/t_relax)
    v_inf(x)  = c * sqrt(max(0, i_dc - x - i_c))

where the drive x is the masked sequence already scaled to a current
by the caller's input gain.  Times are in nanoseconds and currents
in milliamperes; ``c`` fixes the (arbitrary) amplitude unit.  Because
each virtual-node step is much shorter than the relaxation time, the
node never settles within a frame and consecutive virtual neurons stay
coupled through the decaying state.

Both nodes are first-order linear recurrences in their state, which
``_linear_scan`` evaluates as a blocked prefix scan: a few matrix
products per clip in place of one Python step per drive sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dataset import _TAG_MASK, philox
from .errors import ConfigError, DataError

NODE_KINDS = ("stno", "tanh")
_SCAN_ROW = 64


@dataclass(frozen=True)
class StnoParams:
    """Oscillator constants.  Times in ns, currents in mA."""

    dt: float = 5.0
    t_relax: float = 410.0
    i_dc: float = 6.0
    i_c: float = 4.9
    c: float = 1.0
    allow_coarse_timestep: bool = False

    def __post_init__(self) -> None:
        if self.dt <= 0 or self.t_relax <= 0:
            raise ConfigError("dt and t_relax must be positive")
        if self.i_dc <= self.i_c:
            raise ConfigError(
                f"bias current ({self.i_dc} mA) must exceed the oscillation "
                f"threshold ({self.i_c} mA)")
        if self.dt >= self.t_relax and not self.allow_coarse_timestep:
            raise ConfigError(
                f"virtual-node spacing dt={self.dt} must be smaller than "
                f"t_relax={self.t_relax}; set allow_coarse_timestep to override")
        if self.c <= 0:
            raise ConfigError("amplitude scale c must be positive")

    @property
    def decay(self) -> float:
        return math.exp(-self.dt / self.t_relax)

    @property
    def rest_amplitude(self) -> float:
        """Steady-state amplitude under zero drive."""
        return self.c * math.sqrt(self.i_dc - self.i_c)


@dataclass(frozen=True)
class TanhParams:
    gain: float = 1.0
    leak: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.leak <= 1.0:
            raise ConfigError(f"leak must lie in [0, 1], got {self.leak}")


@dataclass(frozen=True)
class BinaryMask:
    """Fixed +/-1 input expansion, shape (n_theta, n_rows)."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise DataError("mask must be a nonempty 2-d array")
        if not np.all(np.abs(arr) == 1.0):
            raise DataError("mask entries must all be +1 or -1")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)


def gen_mask(seed: int, n_theta: int, n_rows: int) -> BinaryMask:
    """Draw an i.i.d. +/-1 mask from a counter-based stream (Philox 4x64).

    Pure function of (seed, n_theta, n_rows); the stream is reproducible
    bit-for-bit across platforms.
    """
    if n_theta < 1 or n_rows < 1:
        raise ConfigError(f"mask dimensions must be positive, got {n_theta}x{n_rows}")
    bits = philox(_TAG_MASK, seed).integers(0, 2, size=(n_theta, n_rows))
    return BinaryMask(bits * 2.0 - 1.0)


def mask_and_flatten(features: np.ndarray, mask: BinaryMask) -> np.ndarray:
    """Expand features through the mask and serialize theta-fastest."""
    x = np.asarray(features)
    if x.ndim != 2:
        raise DataError("features must be 2-d")
    if mask.entries.shape[1] != x.shape[0]:
        raise DataError(
            f"mask expects {mask.entries.shape[1]} feature rows, got {x.shape[0]}")
    return (mask.entries @ x).flatten(order="F")


def stno_run(x: np.ndarray, p: StnoParams, v0: float | None = None) -> np.ndarray:
    """Integrate the oscillator over a drive sequence.

    Equivalent to stepping the module docstring's recurrence once per
    sample with drive ``x[i]`` (in mA), evaluated by ``_linear_scan``.
    ``v0`` defaults to the rest amplitude; outputs are finite and
    nonnegative.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DataError("drive sequence must be 1-d")
    if v0 is None:
        v0 = p.rest_amplitude
    if v0 < 0:
        raise DataError(f"initial amplitude must be nonnegative, got {v0}")
    if x.size == 0:
        return np.empty(0)
    v_inf = p.c * np.sqrt(np.maximum(0.0, p.i_dc - x - p.i_c))
    a = p.decay
    return _linear_scan((1.0 - a) * v_inf, a, v0)


def node_run_reference(x: np.ndarray, p: TanhParams, v0: float = 0.0) -> np.ndarray:
    """Leaky-tanh node: the ``tanh`` node kind of README's ablation table.

    v_i = (1 - p.leak) * v_{i-1} + p.leak * tanh(p.gain * x_i); there is no
    state feedback into the nonlinearity.  ``p.leak = 0`` freezes the state
    at ``v0``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return np.empty(0)
    return _linear_scan(p.leak * np.tanh(p.gain * x), 1.0 - p.leak, v0)


@lru_cache(maxsize=16)
def _scan_tables(a: float) -> tuple[np.ndarray, np.ndarray]:
    """``(table, carry)`` for a scan row with coefficient ``a``:
    ``table[j, i] = a**(i - j)`` for ``j <= i`` (else 0) and
    ``carry[i] = a**(i + 1)``.  Powers below the smallest normal float
    are flushed to 0, so no product runs on subnormals."""
    powers = a ** np.arange(_SCAN_ROW + 1, dtype=np.float64)
    powers[powers < np.finfo(np.float64).tiny] = 0.0
    k = np.arange(_SCAN_ROW)
    table = np.triu(powers[np.abs(k[None, :] - k[:, None])])
    carry = powers[1:]
    table.flags.writeable = carry.flags.writeable = False
    return table, carry


def _linear_scan(u: np.ndarray, a: float, y0: float) -> np.ndarray:
    """``y[i] = a * y[i-1] + u[i]`` from ``y[-1] = y0``, for 0 <= a <= 1.

    A blocked prefix scan (Blelloch, CMU-CS-90-190): ``u`` is cut into
    zero-padded rows of ``_SCAN_ROW`` samples, each row is scanned from
    zero by one product with ``_scan_tables(a)``, the row ends are carried
    across rows by the same scan one level up (coefficient
    ``a**_SCAN_ROW``), and each row gets ``a**(i + 1)`` times the end of
    the row before it.  At ``a = 0`` a finite ``u`` comes back exactly.
    """
    n = u.size
    rows = -(-n // _SCAN_ROW)
    table, carry = _scan_tables(float(a))
    padded = np.zeros(rows * _SCAN_ROW)
    padded[:n] = u
    y = padded.reshape(rows, _SCAN_ROW) @ table
    starts = np.empty(rows)
    starts[0] = y0
    if rows > 1:
        starts[1:] = _linear_scan(y[:-1, -1], carry[-1], y0)
    y += starts[:, None] * carry
    return y.ravel()[:n]


def reshape_states(v: np.ndarray, n_theta: int, n_frames: int) -> np.ndarray:
    """Invert the theta-fastest flattening back to (n_theta, n_frames)."""
    v = np.asarray(v)
    if v.size != n_theta * n_frames:
        raise DataError(
            f"cannot reshape {v.size} node outputs into {n_theta}x{n_frames}")
    return v.reshape((n_theta, n_frames), order="F")
