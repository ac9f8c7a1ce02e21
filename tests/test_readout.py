import numpy as np
import pytest

from resonet.errors import ConfigError, DataError
from resonet.readout import (FACTOR_CHUNK, Metrics, ReadoutOptions, build_targets,
                             classify, factor, predict, predict_means, score_mse,
                             score_wsr, solve, train_pinv)


def _toy_problem(rng, n_rows=12, n_clips=30, n_frames=8):
    states, targets, digits = [], [], []
    w_true = rng.standard_normal((10, n_rows))
    for _ in range(n_clips):
        d = int(rng.integers(0, 10))
        v = rng.standard_normal((n_rows, n_frames))
        states.append(v)
        targets.append(build_targets(d, n_frames))
        digits.append(d)
    return states, targets, digits


def test_build_targets_one_hot():
    t = build_targets(3, 5)
    assert t.shape == (10, 5)
    assert np.all(t[3] == 1.0)
    assert t.sum() == 5.0
    with pytest.raises(DataError):
        build_targets(10, 5)
    with pytest.raises(DataError):
        build_targets(0, 0)


def test_train_pinv_matches_explicit_pseudoinverse(rng):
    states, targets, _ = _toy_problem(rng)
    model = train_pinv(states, targets)
    big_v = np.hstack(states)
    big_t = np.hstack(targets)
    want = big_t @ np.linalg.pinv(big_v, rcond=1e-10)
    assert np.max(np.abs(model.weights - want)) < 1e-10


def test_train_pinv_ridge_matches_normal_equations(rng):
    states, targets, _ = _toy_problem(rng)
    lam = 0.37
    model = train_pinv(states, targets, ReadoutOptions(ridge=lam))
    big_v = np.hstack(states)
    big_t = np.hstack(targets)
    gram = big_v @ big_v.T + lam * np.eye(big_v.shape[0])
    want = np.linalg.solve(gram, big_v @ big_t.T).T
    assert np.max(np.abs(model.weights - want)) < 1e-10


def test_factor_keeps_the_gram_matrices_across_chunks(rng):
    states, targets, _ = _toy_problem(rng, n_clips=2 * FACTOR_CHUNK + 7)
    opts = ReadoutOptions(bias=True)
    f = factor(states, targets, opts)
    big_v = np.vstack([np.hstack(states), np.ones(sum(v.shape[1] for v in states))])
    big_t = np.hstack(targets)
    n = big_v.shape[0]
    assert f.shape == (n, n + 10)
    r, c = f[:, :n], f[:, n:]
    assert np.allclose(r.T @ r, big_v @ big_v.T, rtol=0, atol=1e-10)
    assert np.allclose(r.T @ c, big_v @ big_t.T, rtol=0, atol=1e-10)


def test_solve_over_stacked_factors_equals_one_pool(rng):
    states, targets, _ = _toy_problem(rng, n_clips=40)
    parts = [factor(states[a:b], targets[a:b]) for a, b in ((0, 3), (3, 25), (25, 40))]
    stacked = solve(parts)
    whole = train_pinv(states, targets)
    assert np.max(np.abs(stacked.weights - whole.weights)) < 1e-10
    with pytest.raises(DataError):
        solve([])
    with pytest.raises(DataError):
        solve([parts[0], parts[1][:, 1:]])


def test_factor_of_a_short_pool_keeps_the_min_norm_cutoff(rng):
    # fewer frames than state rows: rank-deficient, minimum-norm solution
    v = rng.standard_normal((30, 12))
    t = build_targets(4, 12)
    f = factor([v], [t])
    assert f.shape == (12, 40)
    w = train_pinv([v], [t]).weights
    assert np.max(np.abs(w - t @ np.linalg.pinv(v, rcond=1e-10))) < 1e-10


def test_train_pinv_bias_row_fits_offsets(rng):
    # targets that are a pure constant per class need the bias row
    v = rng.standard_normal((4, 200))
    t = np.zeros((10, 200))
    t[2] = 1.0  # constant target independent of the states
    with_bias = train_pinv([v], [t], ReadoutOptions(bias=True))
    pred = predict(with_bias, v)
    assert pred[2] == pytest.approx(1.0, abs=1e-8)


def test_train_pinv_shape_errors(rng):
    v = rng.standard_normal((4, 6))
    with pytest.raises(DataError):
        train_pinv([], [])
    with pytest.raises(DataError):
        train_pinv([v], [build_targets(1, 5)])
    with pytest.raises(DataError):
        train_pinv([v, rng.standard_normal((5, 6))],
                   [build_targets(1, 6), build_targets(2, 6)])


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
    model = ReadoutModel(rng.standard_normal((10, 7)), ReadoutOptions(bias=True))
    clips = [rng.standard_normal((6, 9)) for _ in range(4)]
    batch = predict_means(model, np.array([c.mean(axis=1) for c in clips]))
    for c, row in zip(clips, batch):
        want = (model.weights @ np.vstack([c, np.ones(9)])).mean(axis=1)
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
    states, targets, _ = _toy_problem(rng, n_rows=8, n_clips=20)
    model_1 = train_pinv(states, targets)
    model_k = train_pinv([7.3 * v for v in states], targets)
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
