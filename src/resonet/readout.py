"""Linear readout trained by least squares, plus scoring.

Training fits W in W V = T, where V concatenates the per-clip state (or
feature) matrices column wise and T the matching one-hot target
matrices: W = T pinv(V), the minimum-norm least-squares solution with
singular values below ``rtol * sigma_max`` treated as zero.  V itself is
never formed.  ``factor`` reduces a pool of clips to the triangular
factor [R | C] of [V^T | T^T] (R^T R = V V^T, R^T C = V T^T), one block
of clips at a time, and ``solve`` stacks the factors of any number of
pools and solves R W^T = C, which has the same singular values and the
same minimum-norm solution as the full problem.  Classification applies
W to a clip's frame-mean state and picks the largest component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericalError

N_CLASSES = 10
FACTOR_CHUNK = 50   # clips per QR block in ``factor``; bounds its transient memory


@dataclass(frozen=True)
class ReadoutOptions:
    rtol: float = 1e-10
    ridge: float = 0.0
    bias: bool = False

    def __post_init__(self) -> None:
        if self.rtol <= 0:
            raise ConfigError("rtol must be positive")
        if self.ridge < 0:
            raise ConfigError("ridge must be nonnegative")


@dataclass(frozen=True)
class ReadoutModel:
    weights: np.ndarray
    options: ReadoutOptions

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != N_CLASSES:
            raise DataError(f"weights must have {N_CLASSES} rows, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise NumericalError("trained weights contain non-finite entries")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


def build_targets(digit: int, n_frames: int) -> np.ndarray:
    """One-hot target matrix (N_CLASSES x n_frames) held for every frame."""
    if not 0 <= digit < N_CLASSES:
        raise DataError(f"digit out of range: {digit}")
    if n_frames < 1:
        raise DataError(f"n_frames must be positive, got {n_frames}")
    t = np.zeros((N_CLASSES, n_frames))
    t[digit] = 1.0
    return t


def factor(states: Sequence, targets: Sequence,
           options: ReadoutOptions = ReadoutOptions()) -> np.ndarray:
    """Triangular factor [R | C] of one pool of clips.

    ``states`` and ``targets`` are matched sequences of matrices with a
    shared row count on the state side and one target column per state
    column; with ``options.bias`` a row of ones joins the states.  The
    result has n_inputs + N_CLASSES columns and at most n_inputs rows,
    with R^T R = V V^T and R^T C = V T^T.  Clips are factored
    ``FACTOR_CHUNK`` at a time, each block stacked under the factor so
    far (TSQR), so only one block of frames is ever held at once.
    """
    if len(states) == 0 or len(states) != len(targets):
        raise DataError(
            f"need matching nonempty state/target sequences, got "
            f"{len(states)} and {len(targets)}")
    vs = [np.asarray(s, dtype=np.float64) for s in states]
    ts = [np.asarray(t, dtype=np.float64) for t in targets]
    n_rows = vs[0].shape[0]
    for v, t in zip(vs, ts):
        if v.shape[0] != n_rows:
            raise DataError(f"inconsistent state row counts: {v.shape[0]} vs {n_rows}")
        if t.shape != (N_CLASSES, v.shape[1]):
            raise DataError(
                f"target shape {t.shape} does not match states with {v.shape[1]} frames")
    n = n_rows + (1 if options.bias else 0)
    r = np.empty((0, n + N_CLASSES))
    for start in range(0, len(vs), FACTOR_CHUNK):
        chunk = range(start, min(start + FACTOR_CHUNK, len(vs)))
        # one frame per row, filled column-major: the layout LAPACK reads,
        # which copies each clip's states without a strided transpose
        block = np.empty((r.shape[0] + sum(vs[i].shape[1] for i in chunk),
                          n + N_CLASSES), order="F")
        block[:r.shape[0]] = r
        row = r.shape[0]
        for i in chunk:
            end = row + vs[i].shape[1]
            block[row:end, :n_rows] = vs[i].T
            block[row:end, n_rows:n] = 1.0          # the bias column, if any
            block[row:end, n:] = ts[i].T
            row = end
        # rows past n hold only the residual of the targets, which no
        # solution depends on
        r = np.linalg.qr(block, mode="r")[:n]
    return r


def solve(factors: Sequence[np.ndarray],
          options: ReadoutOptions = ReadoutOptions()) -> ReadoutModel:
    """Readout weights from the stacked factors of disjoint clip pools.

    Stacking the pools' factors gives a factor of their union, so the
    minimum-norm least-squares solution of R W^T = C is T pinv(V) over
    all their clips, with the same ``rtol`` cutoff.  With ``ridge > 0``
    the rows sqrt(ridge) * I (against zero targets) join R, which turns
    the same solve into ridge regression.
    """
    if len(factors) == 0:
        raise DataError("need at least one readout factor")
    width = factors[0].shape[1]
    if width <= N_CLASSES or any(f.shape[1] != width for f in factors):
        raise DataError("readout factors must share one width above the class count")
    stacked = np.vstack(factors)
    n = width - N_CLASSES
    r, c = stacked[:, :n], stacked[:, n:]
    if options.ridge > 0.0:
        r = np.vstack([r, math.sqrt(options.ridge) * np.eye(n)])
        c = np.vstack([c, np.zeros((n, N_CLASSES))])
    sol, _, _, _ = np.linalg.lstsq(r, c, rcond=options.rtol)
    w = sol.T
    if not np.all(np.isfinite(w)):
        raise NumericalError("readout training produced non-finite weights")
    return ReadoutModel(w, options)


def train_pinv(states: Sequence, targets: Sequence,
               options: ReadoutOptions = ReadoutOptions()) -> ReadoutModel:
    """Fit readout weights over one pool of clips (see ``factor``)."""
    return solve([factor(states, targets, options)], options)


def predict_means(model: ReadoutModel, means: np.ndarray) -> np.ndarray:
    """Class scores of clips given their frame-mean states.

    ``means`` has shape (n_clips, n_inputs); the scores have shape
    (n_clips, N_CLASSES).  Scores are linear in the states, so this is
    the frame average of W V.
    """
    m = np.asarray(means, dtype=np.float64)
    if m.ndim != 2:
        raise DataError("frame means must be 2-d")
    if model.options.bias:
        m = np.hstack([m, np.ones((m.shape[0], 1))])
    if m.shape[1] != model.weights.shape[1]:
        raise DataError(
            f"model expects {model.weights.shape[1]} state rows, got {m.shape[1]}")
    return m @ model.weights.T


def predict(model: ReadoutModel, states) -> np.ndarray:
    """Frame-averaged class scores for one clip, shape (N_CLASSES,)."""
    v = np.asarray(states, dtype=np.float64)
    if v.ndim != 2:
        raise DataError("states must be 2-d")
    return predict_means(model, v.mean(axis=1)[None])[0]


def classify(scores: np.ndarray) -> int:
    """Largest score wins; ties resolve to the lowest class index."""
    scores = np.asarray(scores)
    if scores.shape != (N_CLASSES,):
        raise DataError(f"scores must have shape ({N_CLASSES},), got {scores.shape}")
    return int(np.argmax(scores))


def score_wsr(predicted: Sequence[int], actual: Sequence[int]) -> float:
    """Word success rate in percent."""
    if len(predicted) == 0 or len(predicted) != len(actual):
        raise DataError("predicted/actual must be nonempty and equally long")
    hits = sum(1 for p, a in zip(predicted, actual) if p == a)
    return 100.0 * hits / len(predicted)


def score_mse(estimates: Sequence[np.ndarray], targets: Sequence[np.ndarray]) -> float:
    """Mean squared error over all clips and target components."""
    if len(estimates) == 0 or len(estimates) != len(targets):
        raise DataError("estimates/targets must be nonempty and equally long")
    total = 0.0
    count = 0
    for e, t in zip(estimates, targets):
        e = np.asarray(e, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        if e.shape != t.shape:
            raise DataError(f"estimate shape {e.shape} != target shape {t.shape}")
        diff = e - t
        total += float(np.sum(diff * diff))
        count += diff.size
    return total / count


@dataclass(frozen=True)
class Metrics:
    """WSR/MSE pair, with spreads when aggregated over folds."""

    wsr: float
    mse: float
    wsr_std: float = 0.0
    mse_std: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.wsr <= 100.0:
            raise DataError(f"wsr out of range: {self.wsr}")
        if self.mse < 0.0 or self.wsr_std < 0.0 or self.mse_std < 0.0:
            raise DataError("mse and spreads must be nonnegative")
