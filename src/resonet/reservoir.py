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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import ConfigError, DataError

NODE_KINDS = ("stno", "tanh")

_TAG_MASK = 7


@dataclass(frozen=True)
class BinaryMask:
    """Fixed +/-1 input expansion, shape (n_theta, n_rows)."""

    entries: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise DataError("mask must be a nonempty 2-d array")
        if not np.all(np.abs(arr) == 1.0):
            raise DataError("mask entries must all be +1 or -1")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def n_theta(self) -> int:
        return self.entries.shape[0]


def gen_mask(seed: int, n_theta: int, n_rows: int) -> BinaryMask:
    """Draw an i.i.d. +/-1 mask from a counter-based stream (Philox 4x64).

    Pure function of (seed, n_theta, n_rows); the stream is reproducible
    bit-for-bit across platforms.
    """
    if n_theta < 1 or n_rows < 1:
        raise ConfigError(f"mask dimensions must be positive, got {n_theta}x{n_rows}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([_TAG_MASK, seed])))
    entries = rng.integers(0, 2, size=(n_theta, n_rows)).astype(np.float64) * 2.0 - 1.0
    return BinaryMask(entries, seed)


def mask_and_flatten(features: np.ndarray, mask: BinaryMask) -> np.ndarray:
    """Expand features through the mask and serialize theta-fastest."""
    x = np.asarray(features)
    if x.ndim != 2:
        raise DataError("features must be 2-d")
    if mask.entries.shape[1] != x.shape[0]:
        raise DataError(
            f"mask expects {mask.entries.shape[1]} feature rows, got {x.shape[0]}")
    return (mask.entries @ x).flatten(order="F")


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


def stno_run(x: np.ndarray, p: StnoParams, v0: float | None = None) -> np.ndarray:
    """Integrate the oscillator over a drive sequence.

    Equivalent to stepping the module docstring's recurrence once per
    sample with drive ``x[i]`` (in mA), evaluated as a first-order
    linear recurrence.  ``v0`` defaults to the rest amplitude; outputs
    are finite and nonnegative.
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
    v, _ = lfilter([1.0], [1.0, -a], (1.0 - a) * v_inf, zi=[a * v0])
    return v


def node_run_reference(x: np.ndarray, gain: float = 1.0, leak: float = 1.0,
                       v0: float = 0.0) -> np.ndarray:
    """Leaky-tanh reference node used for cross-checks.

    v_i = (1 - leak) * v_{i-1} + leak * tanh(gain * x_i); there is no
    state feedback into the nonlinearity.  ``leak = 0`` freezes the state
    at ``v0``.
    """
    if not 0.0 <= leak <= 1.0:
        raise ConfigError(f"leak must lie in [0, 1], got {leak}")
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return np.empty(0)
    z = np.tanh(gain * x)
    v, _ = lfilter([leak], [1.0, -(1.0 - leak)], z, zi=[(1.0 - leak) * v0])
    return v


@dataclass(frozen=True)
class TanhParams:
    gain: float = 1.0
    leak: float = 1.0
    v0: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.leak <= 1.0:
            raise ConfigError(f"leak must lie in [0, 1], got {self.leak}")


def reshape_states(v: np.ndarray, n_theta: int, n_frames: int) -> np.ndarray:
    """Invert the theta-fastest flattening back to (n_theta, n_frames)."""
    v = np.asarray(v)
    if v.size != n_theta * n_frames:
        raise DataError(
            f"cannot reshape {v.size} node outputs into {n_theta}x{n_frames}")
    return v.reshape((n_theta, n_frames), order="F")
