"""Reservoir node kinds and their constants.

Kept apart from ``reservoir``, so that configuration and pipeline specs
can name and validate a node without loading the integrators.  See
``reservoir`` for the node equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

NODE_KINDS = ("stno", "tanh")


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
    v0: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.leak <= 1.0:
            raise ConfigError(f"leak must lie in [0, 1], got {self.leak}")
