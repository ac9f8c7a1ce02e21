"""Linear readout trained by least squares, plus scoring.

Training fits W in W V = T, where V concatenates the per-clip state (or
feature) matrices column wise and T holds each clip's digit one-hot on
every frame: W = T pinv(V), the minimum-norm least-squares solution with
singular values below ``rtol * sigma_max`` treated as zero.  The map is
purely linear in the states, as the paper's readout is.  Neither V nor T
is formed.  ``factor`` reduces a pool of clips and their digits to the
triangular factor [R | C] of [V^T | T^T] (R^T R = V V^T, R^T C = V T^T),
one block of clips at a time.  A block's ``design`` is a
column-major view into one flat buffer (``design_buffer``) that every
block of a pool reuses; the caller writes the block's inputs into it,
and ``extend`` writes the factor so far and the targets around them and
factors the stack.  A caller that makes its blocks one by one (the
harness's ``_reduce``) calls them per block.  ``merge`` re-factors
the stacked factors of disjoint pools into one factor of their union,
and ``solve`` stacks the factors of any number of pools and solves
R W^T = C, which has the same singular values and the same minimum-norm
solution as the full problem; ``solve`` is the one step that reads
``ReadoutOptions``.  Each QR factors its column-major block in place with
LAPACK's dgeqrt from the OpenBLAS that numpy bundles, found on first use,
or goes to ``np.linalg.qr`` where numpy bundles none; the two agree to
rounding, so report bytes hold per path and per CPU kernel.
Where inputs repeat exactly (at alpha = 0 every feature row is the same
pattern of ones and padding zeros), each distinct input is factored once,
so a factor has one R row per distinct input.  Classification applies W
to a clip's frame-mean state and picks the largest component; ``evaluate``
scores a set of clips that way.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import N_CLASSES
from .errors import ConfigError, DataError, NumericalError

# Clips per QR block of a factor.  A block costs its design, which the
# QR factors in place, so this sets a route's transient.  25 splits every
# 50-clip subset and the 400-clip stratified pool evenly, and was fastest
# at n_theta 400: a subset's QRs took 78.7 ms in blocks of 25, 83.0 ms at
# 50 and 99.3 ms at 10 (medians of 7; one BLAS thread, 2-vCPU x86_64).
FACTOR_CHUNK = 25

# Panel width of dgeqrt's recursive QR (``_qr_r``).  A 2765x75 baseline
# block took 2.5 ms at 32 against 2.8 at 16, 3.0 at 64 and 5.6 in
# np.linalg.qr; a 3100x410 node block 41 ms at 32 and 64 against 53 at 16
# and 69 in np.linalg.qr (medians of 9, same machine).
NB = 32

# Leading rows whose column sums screen a block for copied input columns
# (``_copied_columns``): a block with no copies pays a pass over these
# rows, not over all of them.
SCREEN_ROWS = 64


@dataclass(frozen=True)
class ReadoutOptions:
    rtol: float = 1e-10
    ridge: float = 0.0

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


def factor(states: Sequence, digits: Sequence[int]) -> np.ndarray:
    """Triangular factor [R | C] of one pool of clips.

    ``states`` is a sequence of matrices with a shared row count, one
    column per frame, and ``digits`` the matching clip digits: clip i's
    target is ``digits[i]`` one-hot on each of its frames.  The result
    has n_inputs + N_CLASSES columns and at most n_inputs rows, with
    R^T R = V V^T and R^T C = V T^T; when inputs repeat exactly, it has
    one row per distinct input.  Clips are factored ``FACTOR_CHUNK`` at a
    time, each block's states written into its ``design`` and stacked
    under the factor so far (``extend``), so only one block of frames is
    held at once.
    """
    if len(states) == 0 or len(states) != len(digits):
        raise DataError(
            f"need matching nonempty state/digit sequences, got "
            f"{len(states)} and {len(digits)}")
    vs = [np.asarray(s, dtype=np.float64) for s in states]
    for d in digits:
        if not 0 <= d < N_CLASSES:
            raise DataError(f"digit out of range: {d}")
    n_rows = vs[0].shape[0]
    for v in vs:
        if v.shape[0] != n_rows:
            raise DataError(f"inconsistent state row counts: {v.shape[0]} vs {n_rows}")
    starts = range(0, len(vs), FACTOR_CHUNK)
    frames = [[v.shape[1] for v in vs[i:i + FACTOR_CHUNK]] for i in starts]
    buffer = design_buffer(n_rows, max(map(sum, frames)))
    r = None
    for i, f in zip(starts, frames):
        block = design(buffer, r, n_rows, sum(f))
        block[block.shape[0] - sum(f):, :n_rows] = np.hstack(vs[i:i + FACTOR_CHUNK]).T
        r = extend(r, block, digits[i:i + FACTOR_CHUNK], f)
    return r


def design_buffer(n_inputs: int, n_frames: int) -> np.ndarray:
    """One flat buffer that holds the ``design`` of any block of at most
    ``n_frames`` frames of ``n_inputs`` inputs, under any factor of them."""
    return np.empty((n_inputs + n_frames) * (n_inputs + N_CLASSES))


def design(buffer: np.ndarray, r: np.ndarray | None, n_inputs: int,
           n_frames: int) -> np.ndarray:
    """The design of a block of ``n_frames`` frames stacked under the
    factor ``r`` (None before a pool's first block), as a view of the head
    of ``buffer`` (``design_buffer``): the factor's rows, then one row per
    frame; the ``n_inputs`` input columns, then N_CLASSES target
    columns.  The caller writes the frames' inputs, the last ``n_frames``
    rows of the first ``n_inputs`` columns, and ``extend`` the rest.  It
    is column-major, the layout LAPACK reads, so the block QR factors it
    in place.
    """
    rows, cols = (0 if r is None else r.shape[0]) + n_frames, n_inputs + N_CLASSES
    return buffer[:rows * cols].reshape((rows, cols), order="F")


def extend(r: np.ndarray | None, block: np.ndarray, digits: Sequence[int],
           frames: Sequence[int]) -> np.ndarray:
    """The factor [R | C] of a pool grown by one block of clips.

    ``r`` is the factor of the blocks before (None before the first), and
    ``block`` the block's ``design`` under it, its frames' inputs written;
    clip i of the block has ``frames[i]`` frames and digit ``digits[i]``,
    checked by the caller.  The factor's rows and T are written here,
    each clip's frames taking target columns that are zero but at its
    digit, and the block is factored again (TSQR), so only its frames are
    held.  Input columns that are exact copies of an earlier one are left
    out of the QR and take their factor column from that one, so the
    factor has one row per distinct column; a block without copies is
    factored as it stands.
    """
    n = block.shape[1] - N_CLASSES
    row = 0
    if r is not None:
        row = r.shape[0]
        block[:row] = r
    block[row:, n:] = np.repeat(np.eye(N_CLASSES)[digits], frames, axis=0)
    return _triangular(block, n)


def merge(factors: Sequence[np.ndarray]) -> np.ndarray:
    """One factor of the union of disjoint pools, from their factors.

    The factors are stacked in the order given and factored again (the
    TSQR merge step ``extend`` takes under each block), so ``solve``
    over the result equals ``solve`` over the stacked factors, with at
    most n_inputs rows to work through instead of their sum.  No ridge
    rows are added; ``solve`` adds them.  The stack is column-major, as
    a block's ``design`` is.
    """
    width = factors[0].shape[1]
    stacked = np.concatenate(factors, out=np.empty(
        (sum(f.shape[0] for f in factors), width), order="F"))
    return _triangular(stacked, width - N_CLASSES)


def _triangular(block: np.ndarray, n: int) -> np.ndarray:
    """R-factor rows of ``block``, whose first ``n`` columns are inputs and
    whose last N_CLASSES are targets, with one row per distinct input."""
    # rows past n hold only the residual of the targets, which no
    # solution depends on
    source = _copied_columns(block, n)
    if source is None:
        return _qr_r(block)[:n]
    # QR over exact copies shrinks each copy's residue by about eps
    # and then runs on subnormals; factor each distinct column once
    kept, position = np.unique(source, return_inverse=True)
    k = kept.size
    rk = _qr_r(np.asfortranarray(block[:, np.r_[kept, n:n + N_CLASSES]]))[:k]
    return np.hstack([rk[:, position], rk[:, k:]])


_INT, _REAL = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)


@functools.cache
def _dgeqrt():
    """LAPACK's dgeqrt, with 64-bit integers, from the OpenBLAS that numpy
    bundles, as a ctypes function; None where numpy bundles none (a numpy
    built on MKL, Accelerate or a system LAPACK)."""
    root = Path(np.__file__).parent
    for lib in sorted([*root.parent.glob("numpy.libs/*openblas*"),
                       *root.glob(".dylibs/*openblas*")]):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in ("scipy_dgeqrt_64_", "dgeqrt_64_"):   # numpy 2, numpy 1.2x wheels
            routine = getattr(handle, name, None)
            if routine is not None:
                # M, N, NB, A, LDA, T, LDT, WORK, INFO
                routine.argtypes = [_INT, _INT, _INT, _REAL, _INT, _REAL, _INT, _REAL, _INT]
                routine.restype = None
                return routine
    return None


def _qr_r(block: np.ndarray) -> np.ndarray:
    """The leading min(m, n) rows of the R factor of the (m, n) ``block``,
    what ``np.linalg.qr(block, mode="r")`` gives.

    A writeable column-major float64 block is factored in place, so its
    entries are lost, by dgeqrt: LAPACK's recursive panel QR (Elmroth and
    Gustavson), where ``np.linalg.qr`` copies the block twice and, below
    128 columns, runs the unblocked level-2 QR.  Any other block is
    copied column-major first.  Without numpy's OpenBLAS (``_dgeqrt``)
    the block goes to ``np.linalg.qr``.
    """
    dgeqrt = _dgeqrt()
    if dgeqrt is None:
        return np.linalg.qr(block, mode="r")
    a = np.require(block, np.float64, ["F", "A", "W"])
    m, n = a.shape
    k = min(m, n)
    nb = max(1, min(NB, k))
    t, work, info = np.empty(nb * max(k, 1)), np.empty(nb * max(n, 1)), ctypes.c_int64()
    m_, n_, nb_, lda = (ctypes.c_int64(x) for x in (m, n, nb, max(1, m)))
    dgeqrt(m_, n_, nb_, a.ctypes.data_as(_REAL), lda, t.ctypes.data_as(_REAL), nb_,
           work.ctypes.data_as(_REAL), info)
    if info.value:
        raise NumericalError(f"dgeqrt rejected argument {-info.value}")
    return np.triu(a[:k])


def _copied_columns(block: np.ndarray, n: int) -> np.ndarray | None:
    """For each of the first ``n`` columns of ``block``, the index of the
    first column equal to it; None when all of them differ.

    Column sums filter the candidates.  Equal columns have equal sums over
    any rows, so a block whose sums over its leading ``SCREEN_ROWS`` rows
    all differ has no copies, which costs only those rows.  Otherwise
    column j is compared entry by entry only with earlier columns of its
    full sum that copy no other, in order.
    """
    if np.unique(block[:SCREEN_ROWS, :n].sum(axis=0)).size == n:
        return None
    sums = block[:, :n].sum(axis=0)
    if np.unique(sums).size == n:
        return None
    source = np.arange(n)
    for j in range(n):
        for i in np.flatnonzero(sums[:j] == sums[j]):
            if source[i] == i and np.array_equal(block[:, i], block[:, j]):
                source[j] = i
                break
    return None if np.array_equal(source, np.arange(n)) else source


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
    return ReadoutModel(sol.T, options)


def train_pinv(states: Sequence, digits: Sequence[int],
               options: ReadoutOptions = ReadoutOptions()) -> ReadoutModel:
    """Fit readout weights over one pool of clips and their digits (see ``factor``)."""
    return solve([factor(states, digits)], options)


def predict_means(model: ReadoutModel, means: np.ndarray) -> np.ndarray:
    """Class scores of clips given their frame-mean states.

    ``means`` has shape (n_clips, n_inputs); the scores have shape
    (n_clips, N_CLASSES).  Scores are linear in the states, so this is
    the frame average of W V.
    """
    m = np.asarray(means, dtype=np.float64)
    if m.ndim != 2:
        raise DataError("frame means must be 2-d")
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


def score_wsr(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Word success rate in percent of two equally long class arrays."""
    predicted, actual = np.asarray(predicted), np.asarray(actual)
    if predicted.size == 0 or predicted.shape != actual.shape:
        raise DataError("predicted/actual must be nonempty and equally long")
    return 100.0 * int(np.count_nonzero(predicted == actual)) / predicted.size


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


def evaluate(model: ReadoutModel, means: np.ndarray, digits: np.ndarray) -> Metrics:
    """WSR and MSE of clips given their frame-mean states and digits,
    scored all at once.

    Each decision is the clip's largest score, ties going to the lowest
    class, and the clips' squared errors against their one-hot digits are
    added in clip order, so both metrics equal clip-by-clip scoring to the
    last bit; that oracle lives in the tests.
    """
    scores = predict_means(model, means)
    diff = scores - np.eye(N_CLASSES)[digits]
    per_clip = (diff * diff).sum(axis=1)
    return Metrics(score_wsr(scores.argmax(axis=1), digits),
                   float(np.add.accumulate(per_clip)[-1]) / diff.size)
