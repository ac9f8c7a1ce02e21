"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line on success (run with ``-s`` to see
them).  Thresholds and runtime budgets are frozen; do not loosen them to
make a failing build pass.  Criteria 6 and 7 share corpora and routes
through a module-level cache, so the file is meant to run as a unit.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from resonet.cli import main
from resonet.dataset import load_manifest, partition_subsets
from resonet.evalharness import (PipelineSpec, alpha_sweep, baseline_route,
                                 cross_validate, enumerate_folds, prepare_corpus,
                                 with_node)
from resonet.filterbank import exponent_transform, pad_to
from resonet.readout import (ReadoutOptions, factor, predict, predict_means, score_wsr,
                             solve, train_pinv)
from resonet.reservoir import (StnoParams, gen_mask, mask_and_flatten, reshape_states,
                               stno_run)
from test_cli import _count_featurize
from test_evalharness import chance_band, reference_node_stage
from test_readout import classify, one_hot_targets

WORKERS = max(4, os.cpu_count() or 1)

_CACHE: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _session_corpora(corpus, baseline, spectra):
    """The default corpus, its alpha = 2 baseline route and its alpha = 1
    features are the session's (``conftest``)."""
    _CACHE["corpus"] = corpus
    _CACHE[("features", 1.0)] = spectra
    _CACHE.setdefault(("baseline", 2.0), (cross_validate(baseline, 9), baseline))


def _baseline_report(alpha: float):
    key = ("baseline", alpha)
    if key not in _CACHE:
        pipe = PipelineSpec(filter_kind="spectro_exp", alpha=alpha)
        features = _CACHE.get(("features", alpha))
        if features is None:
            manifest, partition = _CACHE["corpus"]
            features = prepare_corpus(manifest, partition.groups(manifest), pipe,
                                      workers=WORKERS)
        prep = baseline_route(features, pipe)
        _CACHE[key] = (cross_validate(prep, 9), prep)
    return _CACHE[key]


def _total_states(alpha: float) -> np.ndarray:
    """The total route's node states, which the route does not keep, from
    the per-clip reference node stage over the corpus features."""
    key = ("states", alpha)
    if key not in _CACHE:
        _, prep = _total_report(alpha)
        states, input_gain = reference_node_stage(pad_to(prep.corpus.features),
                                                  prep.pipeline)
        assert input_gain == prep.input_gain
        _CACHE[key] = states
    return _CACHE[key]


def _baseline_wsr(alpha: float) -> float:
    return _baseline_report(alpha)[0].test.wsr


def _total_report(alpha: float, **node):
    """The N = 9 report and route of the total route at n_theta 400, built
    over the corpus of ``_baseline_report(alpha)``; ``node`` replaces the
    pipeline's node fields (the default oscillator when empty)."""
    key = ("total", alpha, tuple(sorted(node.items())))
    if key not in _CACHE:
        _, base = _baseline_report(alpha)
        fields = {"node_kind": "stno", "n_theta": 400, "mask_seed": 1, **node}
        prep = with_node(base.corpus, replace(base.pipeline, **fields))
        _CACHE[key] = (cross_validate(prep, 9), prep)
    return _CACHE[key]


def test_criterion_01_exponent_matches_complex_power():
    """Pointwise transform agrees with principal-branch complex evaluation.

    100 exponents x 100 points = 1e4 (x, alpha) pairs.  The deviation is
    measured against a unit floor because the inputs are normalized to
    [-1, 1]: near the zero crossings of cos(pi*alpha) a strict quotient
    compares two rounding residues and means nothing.
    """
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    alphas = np.concatenate([
        rng.uniform(0.05, 8.0, size=82),
        np.arange(0.0, 9.0),        # integer exponents
        np.arange(0.0, 9.0) + 0.5,  # branch-convention edge
    ])
    worst = 0.0
    for alpha in alphas:
        x = rng.uniform(-1.0, 1.0, size=100)
        got = exponent_transform(x, float(alpha))
        want = np.real(np.power(x.astype(complex), float(alpha)))
        err = np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0))
        worst = max(worst, float(err))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12, f"relative deviation {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 1: exponent oracle over 1e4 pairs, "
          f"max rel dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_large_alpha_parity():
    """Huge even/odd exponents keep only the extremal elements, signed."""
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    bound = 0.98 ** 1000
    for trial in range(100):
        x = rng.uniform(-0.98, 0.98, size=(40, 60))
        i, j = int(rng.integers(0, 40)), int(rng.integers(0, 60))
        sign = -1.0 if trial % 2 else 1.0
        x[i, j] = sign
        even = exponent_transform(x, 1000.0)
        odd = exponent_transform(x, 1001.0)
        assert even[i, j] == 1.0
        assert odd[i, j] == sign
        small = np.ones_like(x, dtype=bool)
        small[i, j] = False
        assert np.max(np.abs(even[small])) <= bound
        assert np.max(np.abs(odd[small])) <= bound
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 2: parity law at n=1000/1001, leak bound "
          f"{bound:.2e}, {elapsed:.2f}s")


def test_criterion_03_stno_closed_form():
    """Constant drive relaxes exponentially toward its fixed point."""
    t0 = time.perf_counter()
    p = StnoParams()  # dt=5 ns, t_relax=410 ns, i_dc=6 mA, i_c=4.9 mA
    k = np.arange(1, 100_001, dtype=np.float64)
    worst = 0.0
    for drive in (-3.0, 3.0):
        head = p.i_dc - drive - p.i_c
        v_inf = math.sqrt(head) if head > 0 else 0.0
        v0 = p.rest_amplitude
        got = stno_run(np.full(100_000, drive), p, v0=v0)
        want = v_inf + (v0 - v_inf) * np.exp(-k * p.dt / p.t_relax)
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12, f"deviation {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 3: closed-form relaxation at +/-3 mA, "
          f"max dev {worst:.2e} over 1e5 steps, {elapsed:.2f}s")


def test_criterion_04_pseudo_inverse_oracle():
    """train_pinv equals the normal equations and sits at the minimum."""
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        v = rng.standard_normal((40, 60))
        digits = rng.integers(0, 10, size=60)
        t = np.zeros((10, 60))
        t[digits, np.arange(60)] = 1.0
        # the class varies frame by frame: the readout sees 60 one-frame clips
        model = train_pinv([v[:, [j]] for j in range(60)], digits,
                           ReadoutOptions(rtol=1e-10))
        w = model.weights
        want = np.linalg.solve(v @ v.T, v @ t.T).T
        rel = np.linalg.norm(w - want) / np.linalg.norm(want)
        worst = max(worst, float(rel))
        base = np.linalg.norm(w @ v - t)
        deltas = rng.standard_normal((100, 10, 40))
        perturbed = np.linalg.norm((w + 1e-4 * deltas) @ v - t[None], axis=(1, 2))
        assert np.all(perturbed >= base), "a perturbation reduced the residual"
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8, f"relative Frobenius deviation {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 4: pseudo-inverse vs normal equations, max rel "
          f"dev {worst:.2e}, 100x100 perturbations never improve, {elapsed:.2f}s")


def test_criterion_05_fold_exhaustiveness():
    t0 = time.perf_counter()
    for n in range(1, 10):
        folds = enumerate_folds(n)
        assert len(folds) == math.comb(10, n)
        assert len({f.train_subsets for f in folds}) == len(folds)
        for f in folds:
            assert set(f.train_subsets) | set(f.test_subsets) == set(range(10))
    assert len(enumerate_folds(5)) == 252
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 5: fold counts match C(10,N) for N=1..9, "
          f"252 distinct at N=5, {elapsed:.2f}s")


def test_criterion_06_linear_filter_sits_at_chance():
    """The front end's nonlinearity carries the class information."""
    t0 = time.perf_counter()
    wsr_1 = _baseline_wsr(1.0)
    wsr_2 = _baseline_wsr(2.0)
    lo, hi = chance_band(10, 500, 3.0)
    elapsed = time.perf_counter() - t0
    assert lo <= wsr_1 <= hi, f"WSR(alpha=1) = {wsr_1:.2f} outside [{lo:.2f}, {hi:.2f}]"
    assert wsr_2 - wsr_1 >= 30.0, f"separation {wsr_2 - wsr_1:.2f} < 30 points"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    print(f"PASS criterion 6: WSR(1)={wsr_1:.2f} in [{lo:.2f},{hi:.2f}], "
          f"WSR(2)={wsr_2:.2f}, separation {wsr_2 - wsr_1:.1f} pts, {elapsed:.1f}s")


def test_criterion_07_reservoir_gain_ordering():
    """The oscillator helps most where the front end is linear."""
    t0 = time.perf_counter()
    total_1, _ = _total_report(1.0)
    total_2, _ = _total_report(2.0)
    gain_1 = total_1.test.wsr - _baseline_wsr(1.0)
    gain_2 = total_2.test.wsr - _baseline_wsr(2.0)
    elapsed = time.perf_counter() - t0
    assert gain_2 >= 0.0, f"gain at alpha=2 is negative: {gain_2:.2f}"
    assert gain_1 > gain_2, f"gain ordering violated: {gain_1:.2f} <= {gain_2:.2f}"
    assert elapsed < 1800.0, f"took {elapsed:.1f}s"
    print(f"PASS criterion 7: gain(alpha=1)={gain_1:+.2f} > "
          f"gain(alpha=2)={gain_2:+.2f} >= 0 at n_theta=400, {elapsed:.1f}s")


def test_the_reservoir_gain_is_nonlinearity_not_memory():
    """Not a release criterion: pins README's reading of the gain.

    An oscillator with no memory (t_relax 1e-3 ns, so its decay is exactly
    0) scores within a point of the default one at alpha 1 and 2, while a
    memoryless odd nonlinearity (the tanh node at leak 1) recovers little
    of the alpha 1 gain: the rectifying sqrt(max(0, .)) carries it.
    """
    t0 = time.perf_counter()
    memoryless = StnoParams(t_relax=1e-3, allow_coarse_timestep=True)
    assert memoryless.decay == 0.0
    default = {a: _total_report(a)[0].test.wsr for a in (1.0, 2.0)}
    flat = {a: _total_report(a, stno=memoryless)[0].test.wsr for a in (1.0, 2.0)}
    tanh = _total_report(1.0, node_kind="tanh")[0].test.wsr
    elapsed = time.perf_counter() - t0
    for a in (1.0, 2.0):
        assert abs(flat[a] - default[a]) <= 1.0, \
            f"alpha={a:g}: memoryless {flat[a]:.2f} vs default {default[a]:.2f}"
    assert tanh <= default[1.0] - 40.0, \
        f"tanh {tanh:.2f} vs stno {default[1.0]:.2f} at alpha=1"
    print(f"PASS nonlinearity, not memory: memoryless {flat[1.0]:.1f} / {flat[2.0]:.1f} "
          f"vs default {default[1.0]:.1f} / {default[2.0]:.1f} at alpha 1 / 2, "
          f"tanh {tanh:.1f} at alpha 1, {elapsed:.1f}s")


def test_criterion_08_state_scale_invariance():
    """Scaling all node states by 7.3 must not move any decision."""
    t0 = time.perf_counter()
    _, prep = _total_report(2.0)
    states = _total_states(2.0)
    lam = 7.3
    fold = enumerate_folds(9)[0]
    tr = prep.corpus.indices_of_subsets(fold.train_subsets)
    te = prep.corpus.indices_of_subsets(fold.test_subsets)
    m0 = train_pinv([states[i] for i in tr], prep.corpus.digits[tr])
    m1 = train_pinv([lam * states[i] for i in tr], prep.corpus.digits[tr])
    mse0 = mse1 = 0.0
    for i in te:
        t = np.zeros(10)
        t[int(prep.corpus.digits[i])] = 1.0
        p0 = predict(m0, states[i])
        p1 = predict(m1, lam * states[i])
        assert classify(p0) == classify(p1), f"class moved on clip {i}"
        mse0 += float(np.sum((p0 - t) ** 2))
        mse1 += float(np.sum((p1 - t) ** 2))
    ratio = mse1 / mse0
    elapsed = time.perf_counter() - t0
    assert abs(ratio - 1.0) < 1e-9, f"MSE ratio {ratio!r} deviates from 1"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"PASS criterion 8: lambda=7.3 leaves every class fixed, "
          f"MSE ratio-1 = {ratio - 1.0:.2e}, {elapsed:.1f}s")


def reference_readout(states, digits, options: ReadoutOptions) -> np.ndarray:
    """Oracle readout: one least-squares solve over the concatenated clips.

    This is the direct form the factored readout replaces: every frame
    of every training clip is one row of a single design matrix, against
    its clip's one-hot digit.
    """
    big_v = np.hstack(states)
    sol, _, _, _ = np.linalg.lstsq(big_v.T, one_hot_targets(states, digits).T,
                                   rcond=options.rtol)
    return sol.T


def test_factored_readout_matches_reference_on_every_fold():
    """Per-subset factors give the direct solve's weights and decisions."""
    t0 = time.perf_counter()
    worst = 0.0
    base_report, base_prep = _baseline_report(2.0)
    total_report, total_prep = _total_report(2.0)
    routes = [(base_report, base_prep, pad_to(base_prep.corpus.features)),
              (total_report, total_prep, _total_states(2.0))]
    for report, prep, states in routes:
        corpus = prep.corpus
        for fm in report.folds:
            tr = corpus.indices_of_subsets(fm.fold.train_subsets)
            want = reference_readout([states[i] for i in tr], corpus.digits[tr],
                                     prep.pipeline.readout)
            got = fm.model.weights
            rel = float(np.linalg.norm(got - want) / np.linalg.norm(want))
            worst = max(worst, rel)
            assert rel < 1e-9, f"fold {fm.fold.describe()}: rel dev {rel:.3e}"
            # every clip, train and test, with frame-averaged W V as the score
            for i in range(len(corpus.clip_ids)):
                ref = classify((want @ states[i]).mean(axis=1))
                assert classify(predict(fm.model, states[i])) == ref, \
                    f"fold {fm.fold.describe()}: decision moved on clip {i}"
    elapsed = time.perf_counter() - t0
    print(f"PASS factored readout: 20 folds on both routes, max rel dev "
          f"{worst:.2e}, every decision identical, {elapsed:.1f}s")


def test_baseline_decisions_do_not_depend_on_padding():
    """Not a release criterion: pins README's frame-padding bullet.

    On the baseline route a padded frame is a zero feature, which adds
    nothing to V V^T or V T^T, so training on each clip's true frames
    gives every fold's weights. The readout has no constant input, so the
    padded frame mean is a positive rescale of the true-frame mean, which
    keeps its argmax.
    """
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (1.0, 2.0):
        report, prep = _baseline_report(alpha)
        corpus = prep.corpus
        n_frames = [fm.n_frames for fm in corpus.features]
        # one weight per feature row: no constant input joins the features
        assert report.folds[0].model.weights.shape[1] == corpus.features[0].n_rows
        assert min(n_frames) < corpus.n_frames_max
        tensors = pad_to(corpus.features)
        true = [x[:, :n] for x, n in zip(tensors, n_frames)]
        for fm in report.folds:
            tr = corpus.indices_of_subsets(fm.fold.train_subsets)
            want = reference_readout([true[i] for i in tr], corpus.digits[tr],
                                     prep.pipeline.readout)
            got = fm.model.weights
            rel = float(np.linalg.norm(got - want) / np.linalg.norm(want))
            worst = max(worst, rel)
            assert rel < 1e-9, f"alpha={alpha:g} fold {fm.fold.describe()}: rel dev {rel:.3e}"
            for i in corpus.indices_of_subsets(fm.fold.test_subsets):
                assert classify(want @ true[i].mean(axis=1)) == \
                    classify(predict(fm.model, tensors[i])), \
                    f"alpha={alpha:g} fold {fm.fold.describe()}: decision moved on clip {i}"
    elapsed = time.perf_counter() - t0
    print(f"PASS padding invariance: 20 baseline folds at alpha 1 and 2 trained on "
          f"true frames, max rel dev {worst:.2e}, every test decision identical, "
          f"{elapsed:.1f}s")


def test_the_headline_holds_on_true_frames():
    """Not a release criterion: pins README's reading of frame padding on
    the total route.

    The oscillator runs on each clip's true frames only, under the padded
    route's corpus-wide input gain; every fold trains on true-frame
    targets and scores true-frame means. The mean test WSR stays within
    1.0 point of its golden value at alpha 1 and 2.
    """
    t0 = time.perf_counter()
    golden = {1.0: 62.0, 2.0: 69.8}
    got = {}
    for alpha in golden:
        _, prep = _total_report(alpha)
        pipe, corpus = prep.pipeline, prep.corpus
        tensors = pad_to(corpus.features)
        mask = gen_mask(pipe.mask_seed, pipe.n_theta, tensors.shape[1])
        states = []
        for x, n in zip(tensors, [fm.n_frames for fm in corpus.features]):
            drive = prep.input_gain * mask_and_flatten(x[:, :n], mask)
            states.append(reshape_states(stno_run(drive, pipe.stno), pipe.n_theta, n))
        factors = {}
        for k in range(10):
            idx = corpus.indices_of_subsets([k])
            factors[k] = factor([states[i] for i in idx], corpus.digits[idx])
        means = np.array([v.mean(axis=1) for v in states])
        wsrs = []
        for fold in enumerate_folds(9):
            model = solve([factors[k] for k in fold.train_subsets], pipe.readout)
            te = corpus.indices_of_subsets(fold.test_subsets)
            decided = predict_means(model, means[te]).argmax(axis=1)
            wsrs.append(score_wsr(decided.tolist(), corpus.digits[te].tolist()))
        got[alpha] = float(np.mean(wsrs))
    elapsed = time.perf_counter() - t0
    print(f"true-frame total WSR {got[1.0]:.1f} / {got[2.0]:.1f} at alpha 1 / 2, "
          f"golden {golden[1.0]:.1f} / {golden[2.0]:.1f}")
    for alpha, want in golden.items():
        assert abs(got[alpha] - want) <= 1.0, \
            f"alpha={alpha:g}: true-frame total {got[alpha]:.2f} vs golden {want:.1f}"
    print(f"PASS headline on true frames: {got[1.0]:.1f} / {got[2.0]:.1f} at alpha 1 / 2, "
          f"within 1.0 point of {golden[1.0]:.1f} / {golden[2.0]:.1f}, {elapsed:.1f}s")


def test_criterion_09_bench_runs_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("RESONET_CACHE_DIR", str(tmp_path / "cache"))
    t0 = time.perf_counter()
    conf = tmp_path / "run.conf"
    conf.write_text(
        "corpus.kind = synthetic\n"
        "corpus.synth_seed = 1001\n"
        "filter.kind = spectro_exp\n"
        "filter.alpha = 2.0\n"
        "node.kind = stno\n"
        "node.n_theta = 400\n"
    )
    assert main(["bench", "--config", str(conf), "--workers", str(WORKERS),
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["bench", "--config", str(conf), "--workers", str(WORKERS),
                 "--out", str(tmp_path / "b")]) == 0
    names = ["report_baseline.csv", "report_total.csv", "summary.md"]
    names += [f"models/fold_{i:03d}.rnbm" for i in range(10)]
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between runs"
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 9: two bench runs byte-identical over "
          f"{len(names)} artifacts, {elapsed:.1f}s")


def _report_fold_wsrs(path) -> list[tuple[float, float]]:
    """Each fold's (train, test) WSR, as a ``bench`` report CSV writes it."""
    rows = [line.split(",") for line in path.read_text().splitlines()
            if line[:1].isdigit()]
    return [(float(row[2]), float(row[4])) for row in rows]


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_a_file_backed_copy_of_the_corpus_gives_every_fold(tmp_path, monkeypatch,
                                                           file_corpus, alpha):
    """Not a release criterion: the default corpus as 16-bit WAVs behind a
    manifest (``corpus.kind = manifest``, the way a real corpus enters)
    gives every fold's train and test WSR of the synthetic corpus on both
    ``bench`` routes, and with them the golden numbers.  At alpha 2
    ``featurize`` warms the feature cache first, and ``bench`` reads it
    and featurizes no clip."""
    monkeypatch.setenv("RESONET_CACHE_DIR", str(tmp_path / "cache"))
    t0 = time.perf_counter()
    conf = tmp_path / "run.conf"
    conf.write_text(f"corpus.kind = manifest\ncorpus.manifest = {file_corpus}\n"
                    f"filter.kind = spectro_exp\nfilter.alpha = {alpha}\n"
                    "node.kind = stno\nnode.n_theta = 400\n")
    argv = ["--config", str(conf), "--workers", str(WORKERS), "--out", str(tmp_path)]
    warm = alpha == 2.0
    if warm:
        assert main(["featurize", *argv]) == 0
        assert len(list((tmp_path / "cache").rglob("*.rnbf"))) == 500
    featurized = _count_featurize(monkeypatch)
    assert main(["bench", *argv]) == 0
    assert len(featurized) == (0 if warm else 500)
    for name, (report, _) in [("baseline", _baseline_report(alpha)),
                              ("total", _total_report(alpha))]:
        want = [(fm.train.wsr, fm.test.wsr) for fm in report.folds]
        assert _report_fold_wsrs(tmp_path / f"report_{name}.csv") == want, name
    elapsed = time.perf_counter() - t0
    print(f"PASS file-backed corpus at alpha {alpha:g}: every fold's WSR of the "
          f"synthetic corpus on both routes{', from a warm cache' if warm else ''}, "
          f"{elapsed:.1f}s")


TI46 = os.environ.get("RESONET_TI46_MANIFEST", "")


@pytest.mark.skipif(not TI46, reason="set RESONET_TI46_MANIFEST to run")
def test_criterion_10_reference_corpus_numbers():
    """Licensed-corpus check: reference WSRs within +/-2 points."""
    manifest = load_manifest(TI46)
    partition = partition_subsets(manifest, 55)
    expected = {"cochlear": (95.8, 99.6), "mfcc": (77.2, 99.2)}
    lines = []
    for kind, (want_base, want_total) in expected.items():
        pipe = PipelineSpec(filter_kind=kind)
        corpus = prepare_corpus(manifest, partition.groups(manifest), pipe, workers=WORKERS)
        base = cross_validate(baseline_route(corpus, pipe), 9).test.wsr
        node = replace(pipe, node_kind="stno", n_theta=400)
        total = cross_validate(with_node(corpus, node), 9).test.wsr
        assert abs(base - want_base) <= 2.0, f"{kind} baseline {base:.1f}"
        assert abs(total - want_total) <= 2.0, f"{kind} total {total:.1f}"
        lines.append(f"{kind}: base {base:.1f}, total {total:.1f}")
    base_pipe = PipelineSpec(filter_kind="spectro_exp", alpha=1.0)
    alphas = (0.0, 0.2, 0.5, 1.0, 2.0, 4.0)
    spectra = prepare_corpus(manifest, partition.groups(manifest), base_pipe,
                             workers=WORKERS)
    reports = alpha_sweep(spectra, base_pipe, alphas, 9)
    peak_alpha, peak = max(zip(alphas, reports), key=lambda p: p[1].test.wsr)
    peak_wsr = peak.test.wsr
    assert peak_alpha == 0.2, f"sweep peak at alpha={peak_alpha}"
    assert abs(peak_wsr - 88.0) <= 3.0, f"sweep peak {peak_wsr:.1f}"
    print("PASS criterion 10: " + "; ".join(lines) +
          f"; sweep peak {peak_wsr:.1f} at alpha={peak_alpha}")
