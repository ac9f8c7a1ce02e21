from pathlib import Path

import numpy as np
import pytest

import resonet.readout as readout
from resonet.errors import ConfigError, DataError
from resonet.filterbank import FeatureMatrix, exponent_transform, pad_to
from resonet.readout import (FACTOR_CHUNK, N_CLASSES, Metrics, ReadoutModel,
                             ReadoutOptions, factor, merge, predict, predict_means,
                             score_wsr, solve, train_pinv)
from resonet.readout import _copied_columns, _qr_r


def classify(scores: np.ndarray) -> int:
    """One clip's decision: the largest score wins, ties resolve to the
    lowest class index.  With ``score_mse``, the clip-by-clip scoring that
    fold scoring (``evaluate``) is held to."""
    scores = np.asarray(scores)
    if scores.shape != (N_CLASSES,):
        raise DataError(f"scores must have shape ({N_CLASSES},), got {scores.shape}")
    return int(np.argmax(scores))


def score_mse(estimates, targets) -> float:
    """Mean squared error over all clips and target components, added
    clip by clip."""
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


def one_hot_targets(states, digits) -> np.ndarray:
    """The target matrix T of a pool: each clip's digit one-hot on every
    one of its frames, clip by clip as V holds the states.  The readout
    never forms it; oracles do."""
    return np.hstack([np.eye(N_CLASSES)[:, [d] * np.shape(v)[1]]
                      for v, d in zip(states, digits)])


def _toy_problem(rng, n_rows=12, n_clips=30, n_frames=8):
    states, digits = [], []
    w_true = rng.standard_normal((10, n_rows))
    for _ in range(n_clips):
        d = int(rng.integers(0, 10))
        v = rng.standard_normal((n_rows, n_frames))
        states.append(v)
        digits.append(d)
    return states, digits


def test_train_pinv_matches_explicit_pseudoinverse(rng):
    states, digits = _toy_problem(rng)
    model = train_pinv(states, digits)
    big_v = np.hstack(states)
    big_t = one_hot_targets(states, digits)
    want = big_t @ np.linalg.pinv(big_v, rcond=1e-10)
    assert np.max(np.abs(model.weights - want)) < 1e-10


def test_train_pinv_ridge_matches_normal_equations(rng):
    states, digits = _toy_problem(rng)
    lam = 0.37
    model = train_pinv(states, digits, ReadoutOptions(ridge=lam))
    big_v = np.hstack(states)
    big_t = one_hot_targets(states, digits)
    gram = big_v @ big_v.T + lam * np.eye(big_v.shape[0])
    want = np.linalg.solve(gram, big_v @ big_t.T).T
    assert np.max(np.abs(model.weights - want)) < 1e-10


def test_factor_keeps_the_gram_matrices_across_chunks(rng):
    states, digits = _toy_problem(rng, n_clips=2 * FACTOR_CHUNK + 7)
    f = factor(states, digits)
    big_v = np.hstack(states)
    big_t = one_hot_targets(states, digits)
    n = big_v.shape[0]
    assert f.shape == (n, n + 10)
    r, c = f[:, :n], f[:, n:]
    assert np.allclose(r.T @ r, big_v @ big_v.T, rtol=0, atol=1e-10)
    assert np.allclose(r.T @ c, big_v @ big_t.T, rtol=0, atol=1e-10)


def test_solve_over_stacked_factors_equals_one_pool(rng):
    states, digits = _toy_problem(rng, n_clips=40)
    parts = [factor(states[a:b], digits[a:b]) for a, b in ((0, 3), (3, 25), (25, 40))]
    stacked = solve(parts)
    whole = train_pinv(states, digits)
    assert np.max(np.abs(stacked.weights - whole.weights)) < 1e-10
    with pytest.raises(DataError):
        solve([])
    with pytest.raises(DataError):
        solve([parts[0], parts[1][:, 1:]])


def test_factor_of_a_short_pool_keeps_the_min_norm_cutoff(rng):
    # fewer frames than state rows: rank-deficient, minimum-norm solution
    v = rng.standard_normal((30, 12))
    t = one_hot_targets([v], [4])
    f = factor([v], [4])
    assert f.shape == (12, 40)
    w = train_pinv([v], [4]).weights
    assert np.max(np.abs(w - t @ np.linalg.pinv(v, rcond=1e-10))) < 1e-10


def test_train_pinv_shape_errors(rng):
    v = rng.standard_normal((4, 6))
    with pytest.raises(DataError):
        train_pinv([], [])
    with pytest.raises(DataError):
        train_pinv([v, rng.standard_normal((5, 6))], [1, 2])
    with pytest.raises(DataError, match="digit out of range: 10"):
        factor([v], [10])


def test_readout_options_validation():
    with pytest.raises(ConfigError):
        ReadoutOptions(rtol=-1.0)
    with pytest.raises(ConfigError):
        ReadoutOptions(ridge=-0.5)


def test_predict_averages_frames():
    from resonet.readout import ReadoutModel
    w = np.zeros((10, 2))
    w[4] = [1.0, 0.0]
    model = ReadoutModel(w, ReadoutOptions())
    v = np.array([[1.0, 3.0], [0.0, 0.0]])
    scores = predict(model, v)
    assert scores[4] == pytest.approx(2.0)
    assert scores[0] == 0.0


def test_predict_means_scores_a_batch_like_predict(rng):
    from resonet.readout import ReadoutModel
    model = ReadoutModel(rng.standard_normal((10, 6)), ReadoutOptions())
    clips = [rng.standard_normal((6, 9)) for _ in range(4)]
    batch = predict_means(model, np.array([c.mean(axis=1) for c in clips]))
    for c, row in zip(clips, batch):
        want = (model.weights @ c).mean(axis=1)
        assert np.allclose(row, want, rtol=0, atol=1e-12)
        assert np.allclose(predict(model, c), want, rtol=0, atol=1e-12)
    with pytest.raises(DataError):
        predict_means(model, np.zeros((2, 5)))


def test_classify_tie_breaks_low():
    scores = np.zeros(10)
    scores[3] = scores[7] = 0.5
    assert classify(scores) == 3
    with pytest.raises(DataError):
        classify(np.zeros(9))


def test_score_wsr_and_mse_hand_values():
    assert score_wsr([1, 2, 3, 4], [1, 2, 0, 0]) == 50.0
    with pytest.raises(DataError):
        score_wsr([1], [1, 2])
    est = [np.array([1.0] + [0.0] * 9), np.array([0.0] * 10)]
    tgt = [np.zeros(10), np.zeros(10)]
    tgt[0][0] = 1.0
    tgt[1][5] = 1.0
    # first clip exact, second misses its one-hot entirely -> total error 1
    # spread over 2 clips x 10 components
    got = score_mse(est, tgt)
    assert got == pytest.approx(1.0 / 20.0)


def test_scale_invariance_of_argmax(rng):
    states, digits = _toy_problem(rng, n_rows=8, n_clips=20)
    model_1 = train_pinv(states, digits)
    model_k = train_pinv([7.3 * v for v in states], digits)
    probe = rng.standard_normal((8, 5))
    a = classify(predict(model_1, probe))
    b = classify(predict(model_k, 7.3 * probe))
    assert a == b


def test_metrics_validation():
    Metrics(50.0, 0.1)
    with pytest.raises(DataError):
        Metrics(101.0, 0.1)
    with pytest.raises(DataError):
        Metrics(50.0, -0.1)


# ---------------------------------------------------------------------------
# pools whose inputs repeat exactly: each distinct input is factored once

TINY = np.finfo(float).tiny


def _copied_pool(rng, n_clips, sources, n_rows=12, n_frames=9, copies_in=None):
    """A pool in which input row j of every clip in ``copies_in`` (every
    clip when None) is a copy of row ``sources[j]``; other clips keep
    independent rows."""
    states, digits = _toy_problem(rng, n_rows, n_clips, n_frames)
    for c, v in enumerate(states):
        if copies_in is None or c in copies_in:
            v[:] = v[sources]
    return states, digits


def _pool_design(states, digits):
    return np.hstack(states), one_hot_targets(states, digits)


def _assert_factor_keeps_the_grams(f, big_v, big_t):
    n = big_v.shape[0]
    r, c = f[:, :n], f[:, n:]
    gram, cross = big_v @ big_v.T, big_v @ big_t.T
    assert np.max(np.abs(r.T @ r - gram)) <= 1e-12 * np.max(np.abs(gram))
    assert np.max(np.abs(r.T @ c - cross)) <= 1e-12 * np.max(np.abs(cross))
    assert not np.any((f != 0.0) & (np.abs(f) < TINY)), "subnormal factor entries"


ALL_COPIES = [0] * 12
A_FEW_COPIES = [0, 1, 2, 1, 4, 5, 6, 1, 8, 4, 10, 11]


@pytest.mark.parametrize("sources, n_clips, copies_in, n_distinct", [
    (ALL_COPIES, 30, None, 1),
    (A_FEW_COPIES, 30, None, 9),
    (ALL_COPIES, 2 * FACTOR_CHUNK + 7, None, 1),
    (A_FEW_COPIES, 2 * FACTOR_CHUNK + 7, None, 9),
    (A_FEW_COPIES, 2 * FACTOR_CHUNK + 7, range(FACTOR_CHUNK), 12),
    (ALL_COPIES, 2 * FACTOR_CHUNK + 7, range(FACTOR_CHUNK, 2 * FACTOR_CHUNK + 7), 12),
], ids=["all-copies", "a-few-copies", "all-copies-every-block",
        "a-few-copies-every-block", "copies-in-the-first-block",
        "copies-in-the-later-blocks"])
def test_factor_of_repeated_inputs_keeps_the_grams(rng, sources, n_clips, copies_in,
                                                   n_distinct):
    states, digits = _copied_pool(rng, n_clips, sources, copies_in=copies_in)
    f = factor(states, digits)
    assert f.shape == (n_distinct, 12 + 10)
    _assert_factor_keeps_the_grams(f, *_pool_design(states, digits))


def test_solve_over_mixed_height_factors_matches_the_pseudoinverse(rng):
    """Pools with all, some and no repeated inputs give factors of 1, 9
    and 12 rows; stacked, alone or in part, they solve to T pinv(V) with
    the decisions of those weights."""
    opts = ReadoutOptions()
    pools = [_copied_pool(rng, 30, ALL_COPIES), _copied_pool(rng, 40, A_FEW_COPIES),
             _toy_problem(rng, n_clips=25, n_frames=9)]
    factors = [factor(s, d) for s, d in pools]
    assert [f.shape[0] for f in factors] == [1, 9, 12]
    for used in ([0], [1], [0, 1], [0, 1, 2], [2, 0]):
        states = [v for k in used for v in pools[k][0]]
        digits = [d for k in used for d in pools[k][1]]
        big_v, big_t = _pool_design(states, digits)
        want = big_t @ np.linalg.pinv(big_v, rcond=opts.rtol)
        got = solve([factors[k] for k in used], opts).weights
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), used
        model, ref = ReadoutModel(got, opts), ReadoutModel(want, opts)
        for v in states:
            assert classify(predict(model, v)) == classify(predict(ref, v))


def test_distinct_inputs_with_equal_sums_take_the_plain_qr(rng):
    """Inputs whose sums collide but whose values differ are not copies:
    the factor is bitwise the one plain block QR of the block."""
    v = rng.integers(-4, 5, size=(12, 40)).astype(float)
    v[3] = v[7][::-1]                  # same integer sum, different column
    v[9] = np.roll(v[2], 1)
    sums = v.sum(axis=1)
    assert sums[3] == sums[7] and sums[9] == sums[2]
    t = one_hot_targets([v], [6])
    f = factor([v], [6])
    block = np.asfortranarray(np.hstack([v.T, t.T]))
    assert np.array_equal(f, _qr_r(block)[:12])


def _copied_columns_pairwise(block, n):
    """Each of the first ``n`` columns' first equal column, every pair
    compared; None when each column is its own."""
    source = np.array([next(i for i in range(j + 1)
                            if np.array_equal(block[:, i], block[:, j])) for j in range(n)])
    return None if np.array_equal(source, np.arange(n)) else source


@pytest.mark.parametrize("seed", range(12))
def test_copied_columns_match_a_pairwise_scan(seed):
    """Small integer blocks with planted copies, copies of copies and
    reversed columns (equal sums, mostly different entries)."""
    rng = np.random.default_rng(seed)
    n, rows = int(rng.integers(2, 40)), int(rng.integers(1, 9))
    block = rng.integers(-3, 4, size=(rows, n + N_CLASSES)).astype(float)
    for _ in range(int(rng.integers(1, n))):
        i, j = rng.choice(n, size=2, replace=False)
        block[:, j] = block[::-1, i] if rng.random() < 0.3 else block[:, i]
    want = _copied_columns_pairwise(block, n)
    got = _copied_columns(np.asfortranarray(block), n)
    assert (got is None) == (want is None)
    assert want is None or np.array_equal(got, want)


def test_copied_columns_look_below_the_screened_rows(rng):
    """Columns that agree on the ``SCREEN_ROWS`` rows whose sums screen a
    block, but not below them, are not copies, even with equal full sums;
    a copy that agrees on every row still is."""
    n, rows = 12, readout.SCREEN_ROWS + 40
    block = rng.integers(-3, 4, size=(rows, n + N_CLASSES)).astype(float)
    block[:readout.SCREEN_ROWS, 5] = block[:readout.SCREEN_ROWS, 2]
    block[readout.SCREEN_ROWS:, 5] = block[readout.SCREEN_ROWS:, 2][::-1]
    block[readout.SCREEN_ROWS, 5] += 1.0               # equal full sums, other entries
    block[readout.SCREEN_ROWS + 1, 5] -= 1.0
    assert block[:, 5].sum() == block[:, 2].sum()
    assert not np.array_equal(block[:, 5], block[:, 2])
    assert _copied_columns(np.asfortranarray(block), n) is None
    block[readout.SCREEN_ROWS:, 9] = block[readout.SCREEN_ROWS:, 2]
    block[:readout.SCREEN_ROWS, 9] = block[:readout.SCREEN_ROWS, 2]
    want = np.arange(n)
    want[9] = 2
    assert np.array_equal(_copied_columns(np.asfortranarray(block), n), want)


def test_an_alpha_0_block_of_the_default_corpus_collapses_to_one_column(spectra):
    """At alpha = 0 every true entry is 1 and padding is 0, so every
    feature column of a 25-clip baseline block copies the first."""
    features = [FeatureMatrix(exponent_transform(fm.values, 0.0), "spectro_exp",
                              fm.clip_id, 0.0) for fm in spectra.features[:FACTOR_CHUNK]]
    inputs = np.hstack(list(pad_to(features, spectra.n_frames_max))).T
    n = inputs.shape[1]
    block = np.zeros((inputs.shape[0], n + N_CLASSES), order="F")
    block[:, :n] = inputs
    assert np.array_equal(_copied_columns(block, n), np.zeros(n, dtype=int))


# ---------------------------------------------------------------------------
# merged factors: one factor of the union of pools, solved as their stack

def _low_rank_pool(rng, rank, n_clips=20, n_rows=12, n_frames=9):
    """A pool whose inputs span only ``rank`` directions."""
    basis = rng.standard_normal((n_rows, rank))
    states = [basis @ rng.standard_normal((rank, n_frames)) for _ in range(n_clips)]
    return states, [int(d) for d in rng.integers(0, 10, n_clips)]


def _pools(rng, kind):
    if kind == "random":
        return [_toy_problem(rng, n_clips=c) for c in (3, 2 * FACTOR_CHUNK + 7, 20)]
    if kind == "rank-deficient":
        # rank 4 alone, rank 8 with the second pool, a short third pool
        return [_low_rank_pool(rng, 4), _low_rank_pool(rng, 4),
                _toy_problem(rng, n_clips=1, n_frames=5)]
    if kind == "copies":
        return [_copied_pool(rng, 30, A_FEW_COPIES), _copied_pool(rng, 20, A_FEW_COPIES),
                _copied_pool(rng, 25, ALL_COPIES)]
    raise ValueError(kind)


@pytest.mark.parametrize("kind", ["random", "rank-deficient", "copies"])
def test_solve_over_a_merged_factor_matches_the_stacked_factors(rng, kind):
    """Merging the factors of disjoint pools, at once or one pool at a time
    as the folds' runs are merged, solves to the weights and decisions of
    the stacked factors."""
    opts = ReadoutOptions()
    pools = _pools(rng, kind)
    factors = [factor(s, d) for s, d in pools]
    means = np.array([v.mean(axis=1) for s, _ in pools for v in s])
    for used in ([0, 1], [1, 2], [0, 1, 2]):
        want = solve([factors[k] for k in used], opts)
        merged = [merge([factors[k] for k in used])]
        if len(used) == 3:
            merged.append(merge([merge(factors[:2]), factors[2]]))
            merged.append(merge([factors[0], merge(factors[1:])]))
        for f in merged:
            assert f.shape[0] <= f.shape[1] - N_CLASSES
            got = solve([f], opts)
            rel = np.linalg.norm(got.weights - want.weights) / np.linalg.norm(want.weights)
            assert rel <= 1e-10, (used, rel)
            assert np.array_equal(predict_means(got, means).argmax(axis=1),
                                  predict_means(want, means).argmax(axis=1)), used


def test_a_merged_factor_keeps_one_row_per_distinct_input(rng):
    """Inputs copied in every pool stay copies of the union, and are
    merged as one row; an input copied in only some pools is distinct."""
    pools = [_copied_pool(rng, 30, A_FEW_COPIES), _copied_pool(rng, 40, A_FEW_COPIES),
             _copied_pool(rng, 25, ALL_COPIES)]
    factors = [factor(s, d) for s, d in pools]
    assert [f.shape[0] for f in factors] == [9, 9, 1]
    for used in ([0, 1], [0, 2], [0, 1, 2]):
        f = merge([factors[k] for k in used])
        assert f.shape == (9, 12 + N_CLASSES), used
        _assert_factor_keeps_the_grams(f, *_pool_design(
            [v for k in used for v in pools[k][0]],
            [d for k in used for d in pools[k][1]]))
    # copies of different sources: only the columns every pool copies
    other = _copied_pool(rng, 30, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0])
    f = merge([factors[0], factor(*other)])
    assert f.shape[0] == 12
    assert merge([factors[2], factors[2]]).shape[0] == 1


# ---------------------------------------------------------------------------
# the block QR: dgeqrt in place, against np.linalg.qr

# R entries agree to this much of a block's largest entry, each row taken
# with the sign of the reference's diagonal; random node- and
# baseline-shaped blocks agree to about 6e-16, the rows of the alpha = 1
# block above its rank cut to about 2e-14
QR_RTOL = 1e-13
WEIGHTS_RTOL = 1e-10


def _assert_same_r(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, np.triu(got))
    k = min(want.shape)
    sign = np.where(np.signbit(np.diag(got)) == np.signbit(np.diag(want)), 1.0, -1.0)
    scale = np.max(np.abs(want), initial=0.0)
    assert np.max(np.abs(got[:k] * sign[:, None] - want), initial=0.0) <= QR_RTOL * scale


def _design_block(states, digits, r=None):
    """The design ``extend`` factors: the factor so far over one row per
    frame, the inputs then the targets, column-major."""
    frames = np.hstack([np.hstack(states).T, one_hot_targets(states, digits).T])
    return np.asfortranarray(frames if r is None else np.vstack([r, frames]))


@pytest.mark.parametrize("n_inputs, n_frames", [(400, 108), (65, 108)],
                         ids=["node-3100x410", "baseline-2765x75"])
def test_block_qr_matches_numpy_under_a_factor(rng, n_inputs, n_frames):
    """A block of FACTOR_CHUNK clips stacked under the factor of the
    blocks before, as ``extend`` hands it over, is factored in place."""
    pools = [_toy_problem(rng, n_inputs, FACTOR_CHUNK, n_frames) for _ in range(2)]
    earlier = _design_block(*pools[0])
    r = np.linalg.qr(earlier, mode="r")[:n_inputs]
    block = _design_block(*pools[1], r)
    assert block.shape == (n_inputs + FACTOR_CHUNK * n_frames, n_inputs + N_CLASSES)
    want = np.linalg.qr(block, mode="r")
    got = _qr_r(block)
    _assert_same_r(got, want)
    if readout._dgeqrt() is not None:
        assert np.array_equal(np.triu(block[:got.shape[0]]), got), "not factored in place"


def test_block_qr_of_an_alpha_1_baseline_block_keeps_the_rank_cut(spectra):
    """At alpha = 1 the 65 spectral inputs span 64 directions (README,
    "Rank cut").  On a baseline-shaped block of the default corpus both
    factors solve at rank 64, to the same weights and decisions; their rows
    above the cut agree, and the last row is rounding noise in both."""
    features = pad_to(spectra.features[:2 * FACTOR_CHUNK], spectra.n_frames_max)
    states, digits = list(features), [int(d) for d in spectra.digits[:2 * FACTOR_CHUNK]]
    r = factor(states[FACTOR_CHUNK:], digits[FACTOR_CHUNK:])
    block = _design_block(states[:FACTOR_CHUNK], digits[:FACTOR_CHUNK], r)
    assert block.shape == (65 + FACTOR_CHUNK * spectra.n_frames_max, 65 + N_CLASSES)
    want = np.linalg.qr(block, mode="r")[:65]
    got = _qr_r(block)[:65]
    _assert_same_r(got[:64], want[:64])
    for f in (got, want):
        assert np.linalg.lstsq(f[:, :65], f[:, 65:], rcond=ReadoutOptions().rtol)[2] == 64
    w_got, w_want = solve([got]).weights, solve([want]).weights
    assert np.max(np.abs(w_got - w_want)) <= WEIGHTS_RTOL * np.max(np.abs(w_want))
    means = features.mean(axis=2)
    assert np.array_equal(predict_means(ReadoutModel(w_got, ReadoutOptions()), means).argmax(1),
                          predict_means(ReadoutModel(w_want, ReadoutOptions()), means).argmax(1))


@pytest.mark.parametrize("kind", ["wide", "one-row", "all-zero", "empty"])
def test_block_qr_matches_numpy_on_short_and_zero_blocks(rng, kind):
    """Fewer rows than columns gives min(m, n) rows, as np.linalg.qr does."""
    shape = {"wide": (5, 22), "one-row": (1, 22), "all-zero": (30, 22), "empty": (0, 22)}[kind]
    block = rng.standard_normal(shape) if kind in ("wide", "one-row") else np.zeros(shape)
    want = np.linalg.qr(block, mode="r")
    _assert_same_r(_qr_r(np.asfortranarray(block)), want)


def test_copied_columns_reach_the_block_qr_column_major(rng, monkeypatch):
    """The copied-columns path selects the distinct columns into a
    column-major block, so dgeqrt factors it in place, and its factor
    matches the one np.linalg.qr gives."""
    states, digits = _copied_pool(rng, 2 * FACTOR_CHUNK + 7, A_FEW_COPIES)
    layouts, qr_r = [], readout._qr_r

    def recording_qr_r(block):
        layouts.append((block.shape, block.flags.f_contiguous))
        return qr_r(block)

    monkeypatch.setattr(readout, "_qr_r", recording_qr_r)
    got = factor(states, digits)
    assert layouts == [((FACTOR_CHUNK * 9, 9 + N_CLASSES), True),
                       ((9 + FACTOR_CHUNK * 9, 9 + N_CLASSES), True),
                       ((9 + 7 * 9, 9 + N_CLASSES), True)]
    monkeypatch.setattr(readout, "_dgeqrt", lambda: None)
    want = factor(states, digits)
    _assert_same_r(got, want)
    _assert_factor_keeps_the_grams(got, *_pool_design(states, digits))


def test_without_numpys_openblas_the_factor_is_numpys_qr(rng, monkeypatch, tmp_path):
    """Where numpy bundles no OpenBLAS (MKL, Accelerate or a system LAPACK)
    the resolver finds nothing and each block goes to np.linalg.qr: the
    factor is that QR's, bit for bit."""
    v = rng.standard_normal((12, 40))
    block = _design_block([v], [6])
    readout._dgeqrt.cache_clear()
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    try:
        assert readout._dgeqrt() is None
        assert np.array_equal(factor([v], [6]), np.linalg.qr(block, mode="r")[:12])
    finally:
        readout._dgeqrt.cache_clear()


def test_the_block_qr_is_resolved_on_first_use(fresh_python):
    """Importing the readout resolves nothing; the first factor finds
    dgeqrt in the OpenBLAS that numpy bundles."""
    root = Path(np.__file__).parent
    if not [*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]:
        pytest.skip("numpy bundles no OpenBLAS")
    out = fresh_python("""
import numpy as np
import resonet.readout as readout
print(readout._dgeqrt.cache_info().currsize)
readout.factor([np.eye(3)], [1])
print(readout._dgeqrt() is not None)
""").split()
    assert out == ["0", "True"]
