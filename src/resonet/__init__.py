"""Spoken-digit ablation benchmark.

Separates what a nonlinear acoustic filterbank contributes to
spoken-digit recognition from what a time-multiplexed single-oscillator
reservoir adds on top, using a linear pseudo-inverse readout and
exhaustive balanced cross-validation throughout.

The layers are imported from their modules (``resonet.evalharness``,
``resonet.readout`` and so on); the package itself loads none of them,
so a process pays only for the layers it uses.
"""

__version__ = "0.1.0"
