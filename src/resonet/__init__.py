"""Spoken-digit ablation benchmark.

Separates what a nonlinear acoustic filterbank contributes to
spoken-digit recognition from what a time-multiplexed single-oscillator
reservoir adds on top, using a linear pseudo-inverse readout and
exhaustive balanced cross-validation throughout.

The layers are imported from their modules (``resonet.evalharness``,
``resonet.readout`` and so on); the package itself loads none of them,
so a process pays only for the layers it uses.  Importing the package
pins OpenBLAS to one thread, whatever the environment says, for every
numpy loaded after it: ``--workers`` is the only thread count a run
has, and its readout sums round the same on any number of cores.
"""

import os

# OpenBLAS reads this once, when numpy loads it. Its threads only spin on the readout's
# small QRs and solves, and a threaded reduction rounds differently at each core count.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
