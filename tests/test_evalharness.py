import dataclasses
import math
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import resonet.evalharness as evalharness
import resonet.filterbank as filterbank
import resonet.readout as readout
import resonet.reservoir as reservoir
from resonet.cachefile import feature_cache_path, write_feature_cache
from resonet.config import SCHEMA
from resonet.dataset import N_CLASSES, realize_clip
from resonet.errors import ConfigError, DataError, NumericalError
from resonet.evalharness import (CrossValReport, FoldSpec, PipelineSpec, Route,
                                 alpha_sweep, baseline_route,
                                 condition_markdown, cross_validate, enumerate_folds,
                                 prepare_corpus, report_to_csv, run_fold,
                                 stratified_report, summary_markdown, with_node)
from resonet.filterbank import FeatureMatrix, featurize, pad_to
from resonet.readout import (FACTOR_CHUNK, Metrics, evaluate, factor, predict,
                             predict_means, score_wsr, solve, train_pinv)
from resonet.reservoir import (StnoParams, gen_mask, mask_and_flatten, node_run_reference,
                               reshape_states, stno_run)
from test_readout import classify, score_mse


def test_fold_spec_normalizes_and_validates():
    f = FoldSpec((3, 1, 2))
    assert f.train_subsets == (1, 2, 3)
    assert f.test_subsets == (0, 4, 5, 6, 7, 8, 9)
    assert f.describe() == "1+2+3"
    with pytest.raises(DataError):
        FoldSpec((1, 1))
    with pytest.raises(DataError):
        FoldSpec(tuple(range(10)))
    with pytest.raises(DataError):
        FoldSpec((0, 10))


def test_enumerate_folds_counts():
    assert len(enumerate_folds(5)) == 252
    assert len(enumerate_folds(9)) == 10
    assert len({f.train_subsets for f in enumerate_folds(4)}) == 210
    with pytest.raises(ConfigError):
        enumerate_folds(0)
    with pytest.raises(ConfigError):
        enumerate_folds(10)


def chance_band(n_classes: int, n_trials: int, n_sigma: float = 3.0) -> tuple[float, float]:
    """Symmetric band around chance-level WSR for a balanced task."""
    p = 1.0 / n_classes
    center = 100.0 * p
    std = 100.0 * math.sqrt(p * (1.0 - p) / n_trials)
    return center - n_sigma * std, center + n_sigma * std


def test_chance_band_formula():
    lo, hi = chance_band(10, 500, 3.0)
    std = 100.0 * math.sqrt(0.1 * 0.9 / 500)
    assert lo == pytest.approx(10.0 - 3 * std)
    assert hi == pytest.approx(10.0 + 3 * std)


def test_pipeline_spec_validation():
    PipelineSpec(filter_kind="mfcc")
    with pytest.raises(ConfigError):
        PipelineSpec(filter_kind="mfcc", node_kind="lstm")
    with pytest.raises(ConfigError):
        PipelineSpec(filter_kind="mfcc", node_kind="stno", n_theta=0)
    spec = PipelineSpec(filter_kind="spectro_exp", alpha=2.0, node_kind="stno")
    assert "alpha=2" in spec.describe()


def test_prepare_corpus_baseline_shapes(baseline, corpus):
    manifest, partition = corpus
    prep = baseline
    tensors = pad_to(prep.corpus.features)
    assert tensors.shape[0] == 500
    assert tensors.shape[1] == 65
    assert tensors.shape[2] == prep.corpus.n_frames_max
    assert prep.input_gain is None
    where = {cid: k for k, ids in enumerate(partition.subsets) for cid in ids}
    for i, cid in enumerate(prep.corpus.clip_ids):
        assert where[cid] == prep.corpus.subset_of[i]


def test_preparations_keep_the_front_end_features_unpadded(baseline, spectra):
    """No field of a corpus or of a route holds a padded copy of the
    corpus; each clip's features are kept as the front end gave them."""
    for corpus, kind in ((baseline.corpus, baseline.pipeline.filter_kind),
                         (spectra, "spectro_exp")):
        padded = len(corpus.clip_ids) * corpus.features[0].n_rows * corpus.n_frames_max
        for holder in (corpus, baseline):
            for f in dataclasses.fields(holder):
                value = getattr(holder, f.name)
                assert not (isinstance(value, np.ndarray) and value.size >= padded), f.name
        assert [fm.clip_id for fm in corpus.features] == list(corpus.clip_ids)
        assert {fm.filter_kind for fm in corpus.features} == {kind}


def test_prepare_corpus_worker_invariance(corpus):
    manifest, partition = corpus
    pipe = PipelineSpec(filter_kind="mfcc")
    groups = partition.groups(manifest)
    a = prepare_corpus(manifest, groups, pipe, workers=1)
    b = prepare_corpus(manifest, groups, pipe, workers=4)
    assert a.clip_ids == b.clip_ids
    assert np.array_equal(pad_to(a.features), pad_to(b.features))


def test_cochlear_features_are_worker_invariant(corpus, tmp_path, monkeypatch):
    """The cochlea's loop keeps its buffers per batch, so the featurize
    thread pool cannot mix clips, and a batch that reads some of its runs
    from the cache and featurizes the rest puts each entry in its place:
    at one and two workers, cached or not, every entry comes back in entry
    order with the bytes its own clip gives, or those its file holds.
    Batches of 5 make 12 clips three batches, the last one short."""
    monkeypatch.setattr(evalharness, "COCHLEAR_BATCH", 5)
    manifest, partition = corpus
    picked = {cid for ids in partition.subsets[:4] for cid in ids[:3]}
    small = replace(manifest, entries=tuple(e for e in manifest.entries if e.clip_id in picked))
    assert len(small.entries) == 12
    pipe = PipelineSpec(filter_kind="cochlear")
    alone = [entry_features(e, pipe, small) for e in small.entries]
    # cached runs inside each batch, marked by doubled values; 5 to 9 all cached
    cache = tmp_path / "0123456789abcdef"          # a feature hash
    held = {i: FeatureMatrix(2.0 * alone[i].values, "cochlear", alone[i].clip_id)
            for i in (1, 2, 5, 6, 7, 8, 9, 11)}
    for fm in held.values():
        write_feature_cache(feature_cache_path(cache, fm.clip_id), fm, cache.name)
    cold = [fm.values.tobytes() for fm in alone]
    warm = [held.get(i, fm).values.tobytes() for i, fm in enumerate(alone)]
    for workers in (1, 2):
        for root, want in ((None, cold), (cache, warm)):
            got = list(evalharness.corpus_features(small, pipe, workers=workers, cache=root))
            assert [fm.clip_id for fm in got] == [e.clip_id for e in small.entries]
            assert [fm.values.tobytes() for fm in got] == want, (workers, root)


def test_cochlear_batches_run_on_one_thread_at_two_workers(corpus, monkeypatch):
    """Each cochlear batch already serves its clips in every numpy call, so
    ``corpus_features`` runs the batches on one thread whatever the worker
    count: a second thread would only contend for the interpreter lock."""
    monkeypatch.setattr(evalharness, "COCHLEAR_BATCH", 5)
    manifest, _ = corpus
    threads, cochleagrams = [], filterbank.cochleagrams

    def recording_cochleagrams(clips, *args, **kwargs):
        threads.append(threading.get_ident())
        return cochleagrams(clips, *args, **kwargs)

    monkeypatch.setattr(filterbank, "cochleagrams", recording_cochleagrams)
    small = replace(manifest, entries=manifest.entries[:12])
    got = list(evalharness.corpus_features(small, PipelineSpec(filter_kind="cochlear"),
                                           workers=2))
    assert len(got) == 12
    assert len(threads) == 3 and len(set(threads)) == 1


def entry_features(entry, pipeline, manifest):
    """One entry of ``manifest`` realized and run through the pipeline's
    front end on its own: what ``corpus_features`` yields for it without a
    cache."""
    return featurize(realize_clip(entry, sample_rate=manifest.sample_rate,
                                  noise_seed=manifest.noise_seed),
                     pipeline.filter_kind, pipeline.alpha, stft_cfg=pipeline.stft,
                     mfcc_cfg=pipeline.mfcc, cochlear_cfg=pipeline.cochlear)


NODE_PIPE = PipelineSpec(filter_kind="spectro_exp", alpha=2.0, node_kind="stno",
                         n_theta=40, drive_ma=3.0)


def test_corpus_features_keeps_a_bounded_window_of_clips_in_flight(corpus, monkeypatch):
    """A consumer that stops after one clip leaves at most ``2 * workers``
    clips featurized ahead of it, not the rest of the corpus."""
    manifest, _ = corpus
    featurized, featurize_ = [], filterbank.featurize

    def counting_featurize(clip, *args, **kwargs):
        featurized.append(clip.clip_id)
        return featurize_(clip, *args, **kwargs)

    monkeypatch.setattr(filterbank, "featurize", counting_featurize)
    feats = evalharness.corpus_features(replace(manifest, entries=manifest.entries[:40]),
                                        PipelineSpec(filter_kind="spectro_exp", alpha=1.0),
                                        workers=2)
    assert next(feats).clip_id == manifest.entries[0].clip_id
    seen = 0
    for _ in range(50):     # until the pool has gone idle, 10 s at most
        time.sleep(0.2)
        if len(featurized) == seen:
            break
        seen = len(featurized)
    assert 1 <= len(featurized) <= 5
    feats.close()


@pytest.fixture(scope="module")
def node_route(corpus, baseline):
    """A small node route of ``baseline.corpus``, its clips' states from
    ``reference_node_stage`` (the route keeps none), and each clip's
    unpadded features."""
    manifest, _ = corpus
    prep = with_node(baseline.corpus, NODE_PIPE)
    states, _ = reference_node_stage(pad_to(baseline.corpus.features), NODE_PIPE)
    by_id = {e.clip_id: e for e in manifest.entries}
    feats = [entry_features(by_id[cid], NODE_PIPE, manifest)
             for cid in prep.corpus.clip_ids]
    return prep, states, feats


def _clip_peaks(prep, feats):
    mask = gen_mask(NODE_PIPE.mask_seed, NODE_PIPE.n_theta, feats[0].n_rows)
    return np.array([np.max(np.abs(mask_and_flatten(x, mask)))
                     for x in pad_to(feats, prep.corpus.n_frames_max)])


def test_with_node_route(node_route):
    prep, states, feats = node_route
    assert states.shape[1] == 40
    assert prep.frame_means.shape == (500, 40)
    assert prep.input_gain is not None and prep.input_gain > 0
    # the scaled drive peaks exactly at drive_ma over the corpus
    assert prep.input_gain == pytest.approx(3.0 / float(np.max(_clip_peaks(prep, feats))))
    assert np.all(states >= 0.0)


def test_preparations_keep_each_clips_true_frame_count(baseline, node_route):
    prep, _, feats = node_route
    want = [f.n_frames for f in feats]
    assert min(want) < prep.corpus.n_frames_max == max(want)
    assert [fm.n_frames for fm in baseline.corpus.features] == want
    assert [fm.n_frames for fm in prep.corpus.features] == want


def test_input_gain_takes_the_peak_over_the_whole_corpus(node_route):
    """Drive scaling sees every clip, including each fold's test clips."""
    prep, _, feats = node_route
    peaks = _clip_peaks(prep, feats)
    top = int(np.argmax(peaks))
    assert prep.input_gain == pytest.approx(NODE_PIPE.drive_ma / peaks[top], rel=1e-12)
    # the fold that tests on the loudest clip's subset never trains on it,
    # and its train clips alone would give a larger gain
    fold = FoldSpec(tuple(k for k in range(10) if k != prep.corpus.subset_of[top]))
    train_peak = float(np.max(peaks[prep.corpus.indices_of_subsets(fold.train_subsets)]))
    assert train_peak < peaks[top]
    assert prep.input_gain < NODE_PIPE.drive_ma / train_peak


def test_fold_scores_average_over_padded_frames(node_route):
    """A clip's score is W times its mean over all n_frames_max frames.

    On the node route the padded frames hold the oscillator relaxing
    under zero drive, not zeros, so the true-frame mean scores differently.
    """
    prep, states, feats = node_route
    fold = FoldSpec(tuple(range(9)))
    fm = run_fold(fold, prep)
    w = fm.model.weights
    test_idx = prep.corpus.indices_of_subsets(fold.test_subsets)
    padded = [(w @ states[i]).mean(axis=1) for i in test_idx]
    true = [(w @ states[i][:, :feats[i].n_frames]).mean(axis=1) for i in test_idx]
    onehot = [np.eye(10)[prep.corpus.digits[i]] for i in test_idx]
    digits = [int(prep.corpus.digits[i]) for i in test_idx]
    assert fm.test.wsr == score_wsr([int(np.argmax(s)) for s in padded], digits)
    assert fm.test.mse == pytest.approx(score_mse(padded, onehot), rel=1e-9)
    short = [i for i in test_idx if feats[i].n_frames < prep.corpus.n_frames_max]
    assert short, "every test clip has the longest frame count"
    assert all(np.all(states[i][:, feats[i].n_frames:] > 0.0) for i in short)
    assert score_mse(true, onehot) != pytest.approx(fm.test.mse, rel=1e-6)


def reference_node_stage(tensors, pipeline):
    """The node stage as it once ran: every clip's drive held at once, the
    node run clip by clip into a list of state matrices, then stacked."""
    n_frames = tensors.shape[2]
    mask = gen_mask(pipeline.mask_seed, pipeline.n_theta, tensors.shape[1])
    drives = [mask_and_flatten(x, mask) for x in tensors]
    peak = max(float(np.max(np.abs(d))) for d in drives)
    input_gain = pipeline.drive_ma / peak if peak > 0.0 else 0.0
    states = []
    for d in drives:
        if pipeline.node_kind == "stno":
            v = stno_run(input_gain * d, pipeline.stno)
        else:
            v = node_run_reference(input_gain * d, pipeline.tanh)
        states.append(reshape_states(v, pipeline.n_theta, n_frames))
    return np.stack(states), input_gain


def assert_matches_reference(prep, states, factored):
    """A streamed route against its reference inputs (``reference_node_stage``
    states, or freshly padded features on a route without a node): every
    clip's frame mean equals the mean over its reference inputs, and each
    group in ``factored``, and no other, has the factor that
    ``readout.factor`` computes from its clips' reference inputs."""
    # frame means sum in memory order, so this also pins the state layout
    assert np.array_equal(prep.frame_means, states.mean(axis=2))
    assert sorted(prep.factors) == sorted(factored)
    corpus = prep.corpus
    for k in factored:
        idx = corpus.indices_of_subsets([k])
        want = factor([states[i] for i in idx], corpus.digits[idx])
        assert np.array_equal(prep.factors[k], want), f"group {k}"


@pytest.mark.parametrize("node_kind", ["stno", "tanh"])
def test_node_stage_matches_the_per_clip_reference(baseline, node_kind):
    pipe = replace(baseline.pipeline, node_kind=node_kind, n_theta=40)
    prep = with_node(baseline.corpus, pipe)
    states, input_gain = reference_node_stage(pad_to(baseline.corpus.features), pipe)
    assert prep.input_gain == input_gain
    assert_matches_reference(prep, states, range(10))


@pytest.mark.parametrize("route, layout", [
    ("stno", "interleaved-thirds"), ("stno", "one-uneven-group"),
    ("baseline", "interleaved-thirds"), ("baseline", "one-uneven-group")],
    ids=["interleaved-thirds", "one-uneven-group",
         "baseline-interleaved-thirds", "baseline-one-uneven-group"])
def test_streamed_node_route_matches_the_reference_at_block_edges(corpus, baseline,
                                                                  route, layout):
    """Groups whose sizes are not multiples of FACTOR_CHUNK end in a short
    block; group 1, left out of ``factored``, gets frame means and no
    factor.  Both routes reduce their blocks through the same loop."""
    n = len(baseline.corpus.clip_ids)
    if layout == "interleaved-thirds":         # 167, 167 and 166 clips
        groups, factored = np.arange(n) % 3, (0, 2)
    else:                                      # 123 clips, then 377
        groups, factored = (np.arange(n) >= 123).astype(int), (0,)
    if route == "baseline":
        manifest, _ = corpus
        prep = baseline_route(prepare_corpus(manifest, groups, baseline.pipeline, workers=4),
                              baseline.pipeline, factored=factored)
        assert prep.corpus.clip_ids == baseline.corpus.clip_ids
        assert np.array_equal(prep.corpus.subset_of, groups)
        inputs = pad_to(baseline.corpus.features)
    else:
        base = replace(baseline.corpus, subset_of=groups)
        prep = with_node(base, NODE_PIPE, factored=factored)
        inputs, input_gain = reference_node_stage(pad_to(base.features), NODE_PIPE)
        assert prep.input_gain == input_gain
    assert_matches_reference(prep, inputs, factored)


def test_with_node_never_holds_the_state_tensor(baseline, node_route):
    """The node route's largest transient is one block of states, far
    below the (n_clips, n_theta, n_frames_max) state array."""
    prep, _, _ = node_route
    full = len(prep.corpus.clip_ids) * NODE_PIPE.n_theta * prep.corpus.n_frames_max * 8
    tracemalloc.start()
    try:
        with_node(baseline.corpus, NODE_PIPE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full, f"peak {peak} bytes, state array {full} bytes"


def _two_subsets(corpus):
    """The clips of subsets 0 and 1 of ``corpus``, 100 on the default one."""
    idx = corpus.indices_of_subsets([0, 1])
    return evalharness.Corpus(tuple(corpus.clip_ids[i] for i in idx), corpus.digits[idx],
                              corpus.subset_of[idx], tuple(corpus.features[i] for i in idx))


def test_with_node_writes_each_block_of_readout_inputs_once(baseline):
    """The node's states land in the block's design, which the route
    reuses and the block QR factors in place, so a node block costs one
    design, not also a state buffer, a design filled from it or a copy
    for the QR.  The traced peak at n_theta 400 (16.7 MiB) stays under
    the bytes the route must hold: the design buffer, the padded feature
    block, each group's factor and the one the QR is making, and the
    frame means, plus a margin of half a block of states for what else
    is traced (the mask, one clip's drive and states, the QR's triangle
    and its small work arrays): 19.3 MiB.  A separate state buffer adds
    a whole block of states, and a QR that copies the design (as
    ``np.linalg.qr`` does, 25.4 MiB) a whole design; either overshoots."""
    small = _two_subsets(baseline.corpus)
    assert len(small.clip_ids) == 100
    peak, bound = _node_route_peak(small, workers=1)
    assert peak <= bound, f"peak {peak / 2**20:.2f} MiB over the bound {bound / 2**20:.2f} MiB"


def _node_route_peak(corpus, workers):
    """The traced peak of ``with_node`` at n_theta 400 on ``workers``
    threads, and the bound of the test above with one more design buffer
    and one more padded feature block per thread past the first."""
    pipe = replace(NODE_PIPE, n_theta=400)
    n, n_frames = pipe.n_theta, corpus.n_frames_max
    design = (n + FACTOR_CHUNK * n_frames) * (n + N_CLASSES) * 8    # design_buffer
    padded = FACTOR_CHUNK * corpus.features[0].n_rows * n_frames * 8
    factors = (np.unique(corpus.subset_of).size + 1) * (n + N_CLASSES) ** 2 * 8
    frame_means = len(corpus.clip_ids) * n * 8
    states = FACTOR_CHUNK * n * n_frames * 8
    bound = workers * (design + padded) + factors + frame_means + states // 2
    tracemalloc.start()
    try:
        with_node(corpus, pipe, workers=workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, bound


def test_each_node_route_thread_holds_one_design_and_one_padded_block(baseline):
    """At two workers the route holds one more design buffer and one more
    padded feature block than at one, and nothing else of their size: the
    100 clips in four groups of 25, two per thread, so a pool that
    allocated per block or per group, or ran a thread per group, would
    hold at least one design more and overshoot the bound."""
    small = _two_subsets(baseline.corpus)
    four = replace(small, subset_of=np.arange(100) // FACTOR_CHUNK)
    peak, bound = _node_route_peak(four, workers=2)
    assert peak <= bound, f"peak {peak / 2**20:.2f} MiB over the bound {bound / 2**20:.2f} MiB"


@pytest.mark.parametrize("workers", [2, 3])
def test_with_node_has_the_same_bytes_at_any_worker_count(node_route, monkeypatch, workers):
    """The groups run on ``workers`` threads, and frame means, input gain
    and every factor, in group order, keep their bytes.  Three workers
    split the ten groups unevenly (4, 3 and 3) and outnumber the cores of
    a two-core machine; the threads switch as often as they can."""
    serial = node_route[0]
    threads, stno_run_ = set(), reservoir.stno_run

    def stno_run_noting_its_thread(*args):
        threads.add(threading.get_ident())
        return stno_run_(*args)

    monkeypatch.setattr(reservoir, "stno_run", stno_run_noting_its_thread)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = with_node(serial.corpus, NODE_PIPE, workers=workers)
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) == workers
    assert got.frame_means.tobytes() == serial.frame_means.tobytes()
    assert got.input_gain == serial.input_gain
    assert list(got.factors) == list(serial.factors) == list(range(10))
    for k, f in serial.factors.items():
        assert got.factors[k].tobytes() == f.tobytes(), f"subset {k}"


def test_a_failing_group_raises_its_error_at_any_worker_count(baseline, monkeypatch):
    """One clip of a later group (the first of subset 7) gives a NaN: at
    two workers the route raises the error it raises at one, and its
    pool's threads are gone when it does."""
    pipe = replace(NODE_PIPE, n_theta=4)
    bad = baseline.corpus.indices_of_subsets([7])[0]
    tensors = pad_to(baseline.corpus.features)
    mask = gen_mask(pipe.mask_seed, pipe.n_theta, tensors.shape[1])
    _, gain = reference_node_stage(tensors, pipe)
    bad_drive = gain * mask_and_flatten(tensors[bad], mask)

    def stno_run_spoiling_one_clip(drive, params):
        v = stno_run(drive, params)
        if np.array_equal(drive, bad_drive):
            v[0] = np.nan
        return v

    monkeypatch.setattr(reservoir, "stno_run", stno_run_spoiling_one_clip)
    errors = []
    for workers in (1, 2):
        before = set(threading.enumerate())
        with pytest.raises(NumericalError) as caught:
            with_node(baseline.corpus, pipe, workers=workers)
        assert set(threading.enumerate()) == before
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1] == (NumericalError, "stno node states have non-finite entries")


def test_every_qr_reads_a_column_major_stack(baseline, monkeypatch):
    """LAPACK reads columns, and the block QR (``readout._qr_r``) factors
    a column-major block in place but must copy any other: each block's
    design, and each merge's stack of factors, reaches it column-major."""
    layouts, qr_r = [], readout._qr_r

    def recording_qr_r(a):
        layouts.append((a.shape, a.flags.f_contiguous))
        return qr_r(a)

    monkeypatch.setattr(readout, "_qr_r", recording_qr_r)
    small = _two_subsets(baseline.corpus)
    baseline_route(replace(small, subset_of=np.zeros(100, dtype=int)), baseline.pipeline)
    node = with_node(small, NODE_PIPE)
    readout.merge([node.factors[0], node.factors[1]])

    def blocks(n_clips, n_inputs):
        # a group's blocks of FACTOR_CHUNK clips, each after the first
        # stacked under the factor so far, which has n_inputs rows
        return [((n_inputs if start else 0) + min(FACTOR_CHUNK, n_clips - start)
                 * small.n_frames_max, n_inputs + N_CLASSES)
                for start in range(0, n_clips, FACTOR_CHUNK)]

    # the baseline's one pool of 100 clips; the node route's two groups of
    # 50; the merge of the node route's two factors
    assert [shape for shape, _ in layouts] == (
        blocks(100, 65) + blocks(50, 40) + blocks(50, 40) + [(80, 40 + N_CLASSES)])
    assert all(f for _, f in layouts), layouts


def test_baseline_route_copies_the_corpus_once(corpus):
    """Building a corpus and its baseline route holds each clip's
    features as the front end gave them, once, and pads no more than the
    blocks the reduction works on: its peak stays under the true-frame
    feature bytes plus two padded blocks, never a padded copy of the corpus."""
    manifest, partition = corpus
    pipe = PipelineSpec(filter_kind="spectro_exp", alpha=1.0)
    tracemalloc.start()
    try:
        prep = baseline_route(prepare_corpus(manifest, partition.groups(manifest), pipe,
                                             workers=1), pipe, factored=())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_rows = prep.frame_means.shape[1]
    features = sum(fm.n_frames for fm in prep.corpus.features) * n_rows * 8
    block = FACTOR_CHUNK * n_rows * prep.corpus.n_frames_max * 8
    assert peak < features + 2 * block, \
        f"peak {(peak - features) / block:.2f} blocks over the true-frame features"


def test_memoryless_oscillator_frame_means_are_the_closed_form(baseline):
    """At t_relax 1e-3 ns the oscillator has no memory (its decay is
    exactly 0), so every frame mean is the mean of the equilibrium
    amplitudes of ``input_gain * (M @ X)``, bit for bit: an oracle for
    the node route that needs no reference integrator."""
    stno = StnoParams(t_relax=1e-3, allow_coarse_timestep=True)
    assert stno.decay == 0.0
    pipe = replace(NODE_PIPE, stno=stno)
    prep = with_node(baseline.corpus, pipe, factored=())
    tensors = pad_to(baseline.corpus.features)
    mask = gen_mask(pipe.mask_seed, pipe.n_theta, tensors.shape[1])
    for i, x in enumerate(tensors):
        drive = prep.input_gain * (mask.entries @ x)
        v = stno.c * np.sqrt(np.maximum(0.0, stno.i_dc - drive - stno.i_c))
        # summed over frames in the node route's frame-major memory order
        assert np.array_equal(prep.frame_means[i], np.asfortranarray(v).mean(axis=1)), i


def test_bench_node_route_matches_the_lfilter_integrator_on_every_fold(
        baseline, monkeypatch, lfilter_stno_run):
    """``bench``'s total route (alpha = 2 spectra, stno at n_theta 400),
    integrated by the blocked scan and by ``lfilter``: frame means within
    1e-12 relative, every N = 9 fold's weights within 1e-9 relative, and
    the same decision on every clip of both splits of every fold."""
    pipe = replace(baseline.pipeline, node_kind="stno")
    assert pipe.n_theta == 400
    got = with_node(baseline.corpus, pipe)
    monkeypatch.setattr(reservoir, "stno_run", lfilter_stno_run)
    want = with_node(baseline.corpus, pipe)
    assert got.input_gain == want.input_gain
    ref = want.frame_means
    assert np.all(np.abs(got.frame_means - ref) <= 1e-12 * np.abs(ref))
    got_cv, want_cv = cross_validate(got, 9), cross_validate(want, 9)
    for g, w in zip(got_cv.folds, want_cv.folds):
        assert g.fold == w.fold
        weights = w.model.weights
        assert np.max(np.abs(g.model.weights - weights)) <= 1e-9 * np.max(np.abs(weights))
        for subsets in (g.fold.train_subsets, g.fold.test_subsets):
            idx = got.corpus.indices_of_subsets(subsets)
            assert np.array_equal(
                np.argmax(predict_means(g.model, got.frame_means[idx]), axis=1),
                np.argmax(predict_means(w.model, ref[idx]), axis=1)), g.fold.describe()
        assert (g.train.wsr, g.test.wsr) == (w.train.wsr, w.test.wsr)


@pytest.mark.parametrize("value, match", [(-1.0, "nonnegative"), (np.nan, "non-finite")])
def test_node_stage_rejects_unusable_oscillator_states(baseline, monkeypatch,
                                                       value, match):
    monkeypatch.setattr(reservoir, "stno_run", lambda x, p: np.full(x.size, value))
    pipe = replace(baseline.pipeline, node_kind="stno", n_theta=4)
    with pytest.raises(NumericalError, match=match):
        with_node(baseline.corpus, pipe)


@pytest.mark.parametrize("layout", ["subsets", "one-uneven-group"])
@pytest.mark.parametrize("value, match", [(-1.0, "nonnegative"), (np.nan, "non-finite")])
def test_node_stage_checks_the_last_block_of_the_last_group(baseline, monkeypatch,
                                                            value, match, layout):
    """One bad clip, in the block the node stage runs last, still fails:
    the last of ten one-block subsets, or the eighth block of a group."""
    base = baseline.corpus
    if layout == "one-uneven-group":           # 123 clips, then 377
        base = replace(base, subset_of=(np.arange(len(base.clip_ids)) >= 123).astype(int))
    pipe = replace(baseline.pipeline, node_kind="stno", n_theta=4)
    last = base.indices_of_subsets([max(base.subset_of)])[-1]
    tensors = pad_to(base.features)
    mask = gen_mask(pipe.mask_seed, pipe.n_theta, tensors.shape[1])
    _, gain = reference_node_stage(tensors, pipe)
    bad_drive = gain * mask_and_flatten(tensors[last], mask)
    hits = []

    def stno_run_spoiling_one_clip(drive, params):
        v = stno_run(drive, params)
        if np.array_equal(drive, bad_drive):
            hits.append(len(hits))
            v[-1] = value
        return v

    monkeypatch.setattr(reservoir, "stno_run", stno_run_spoiling_one_clip)
    with pytest.raises(NumericalError, match=match):
        with_node(base, pipe)
    assert hits == [0]


def test_run_fold_produces_both_splits(baseline):
    fold = FoldSpec(tuple(range(9)))
    fm = run_fold(fold, baseline)
    assert 0.0 <= fm.test.wsr <= 100.0
    assert fm.train.mse > 0.0
    assert fm.test.mse > 0.0


def clip_by_clip_metrics(model, prep, idx):
    """Fold scoring as it once ran: ``classify`` on each clip's scores and
    ``score_mse`` over per-clip lists."""
    scores = predict_means(model, prep.frame_means[idx])
    actual = [int(d) for d in prep.corpus.digits[idx]]
    return Metrics(score_wsr([classify(s) for s in scores], actual),
                   score_mse(list(scores), list(np.eye(10)[actual])))


def test_fold_scoring_matches_clip_by_clip_scoring_exactly():
    """Random score sets, half of them built from small integers so that
    classes tie (the lowest tied class wins): the same WSR and the same
    MSE to the last bit as scoring clip by clip."""
    rng = np.random.default_rng(12)
    for case in range(300):
        n_clips, n_inputs = int(rng.integers(1, 120)), int(rng.integers(1, 12))
        if case % 2:
            means = rng.integers(-2, 3, (n_clips, n_inputs)).astype(float)
            weights = rng.integers(-1, 2, (10, n_inputs)).astype(float)
        else:
            means = rng.standard_normal((n_clips, n_inputs)) * 10.0 ** rng.integers(-3, 4)
            weights = rng.standard_normal((10, n_inputs))
        model = readout.ReadoutModel(weights, readout.ReadoutOptions())
        clips = evalharness.Corpus(tuple(map(str, range(n_clips))),
                                   rng.integers(0, 10, n_clips),
                                   np.zeros(n_clips, dtype=int), ())
        prep = Route(clips, PipelineSpec(filter_kind="mfcc"), means, {})
        idx = rng.permutation(n_clips)[:int(rng.integers(1, n_clips + 1))]
        assert readout.evaluate(model, means[idx], clips.digits[idx]) == \
            clip_by_clip_metrics(model, prep, idx), f"case {case}"


def test_fold_metrics_match_clip_by_clip_scoring_on_every_fold(baseline):
    for fm in cross_validate(baseline, 9).folds:
        for split, subsets in ((fm.train, fm.fold.train_subsets),
                               (fm.test, fm.fold.test_subsets)):
            idx = baseline.corpus.indices_of_subsets(subsets)
            assert split == clip_by_clip_metrics(fm.model, baseline, idx)


def test_run_fold_refuses_a_subset_that_was_not_factored(corpus):
    manifest, partition = corpus
    pipe = PipelineSpec(filter_kind="spectro_exp", alpha=2.0)
    prep = baseline_route(prepare_corpus(manifest, partition.groups(manifest), pipe,
                                         workers=4), pipe, factored=(0,))
    assert sorted(prep.factors) == [0]
    # the first fold, 0+...+8, needs subset 1 first
    with pytest.raises(DataError, match=r"fold 0\+1\+2\+3\+4\+5\+6\+7\+8 .*subset 1\b"):
        cross_validate(prep, 9)


@pytest.mark.parametrize("n_train", range(1, 10))
def test_train_runs_cover_each_folds_train_subsets(n_train):
    """Contiguous, disjoint and in order; together exactly the train
    subsets; at most min(N, 11 - N) of them, a bound some fold reaches."""
    counts = []
    for fold in enumerate_folds(n_train):
        runs = fold.train_runs
        assert all(start < stop for start, stop in runs)
        assert all(a[1] < b[0] for a, b in zip(runs, runs[1:])), runs
        assert tuple(k for start, stop in runs for k in range(start, stop)) == \
            fold.train_subsets
        counts.append(len(runs))
    assert max(counts) == min(n_train, 11 - n_train)


@pytest.mark.parametrize("n_train, n_merges", [(9, 16), (1, 0)])
def test_cross_validate_merges_each_run_once(baseline, monkeypatch, n_train, n_merges):
    """At N = 9 the prefixes and suffixes of the ten subsets take eight
    merges each and every fold solves from at most two factors; at N = 1
    each fold solves from its one subset's factor, as it stands."""
    merged, solved = [], []
    merge_, solve_ = evalharness.merge, evalharness.solve

    def counting_merge(factors):
        f = merge_(factors)
        merged.append(f.shape[0])
        return f

    def counting_solve(factors, *args):
        solved.append([f.shape[0] for f in factors])
        return solve_(factors, *args)

    monkeypatch.setattr(evalharness, "merge", counting_merge)
    monkeypatch.setattr(evalharness, "solve", counting_solve)
    report = cross_validate(baseline, n_train)
    assert len(merged) == n_merges
    assert all(rows <= 65 for rows in merged)
    assert [len(s) for s in solved] == [len(f.fold.train_runs) for f in report.folds]
    if n_train == 1:
        assert [s[0] for s in solved] == [baseline.factors[k].shape[0] for k in range(10)]


@pytest.mark.parametrize("n_train", [8, 5])
def test_merged_runs_match_the_stacked_subset_factors(node_route, n_train):
    """Beyond N = 9 a fold stacks up to min(N, 11 - N) merged runs, some in
    the middle of the subset range; each fold's WSRs and decisions are
    those of solving over its train subsets' factors, stacked."""
    prep, _, _ = node_route
    corpus = prep.corpus
    report = cross_validate(prep, n_train)
    assert max(len(f.fold.train_runs) for f in report.folds) == min(n_train, 11 - n_train)
    for fm in report.folds:
        want = solve([prep.factors[k] for k in fm.fold.train_subsets], prep.pipeline.readout)
        rel = np.linalg.norm(fm.model.weights - want.weights) / np.linalg.norm(want.weights)
        assert rel <= 1e-9, f"fold {fm.fold.describe()}: rel dev {rel:.3e}"
        assert np.array_equal(predict_means(fm.model, prep.frame_means).argmax(axis=1),
                              predict_means(want, prep.frame_means).argmax(axis=1))
        for split, subsets in ((fm.train, fm.fold.train_subsets),
                               (fm.test, fm.fold.test_subsets)):
            idx = corpus.indices_of_subsets(subsets)
            assert split.wsr == evaluate(want, prep.frame_means[idx], corpus.digits[idx]).wsr


def test_cross_validate_aggregates_match_folds(baseline):
    report = cross_validate(baseline, 9)
    assert len(report.folds) == 10
    wsr = [f.test.wsr for f in report.folds]
    assert report.test.wsr == pytest.approx(np.mean(wsr))
    assert report.test.wsr_std == pytest.approx(np.std(wsr, ddof=1))
    mse_tr = np.mean([f.train.mse for f in report.folds])
    mse_te = np.mean([f.test.mse for f in report.folds])
    assert report.overfit_ratio == pytest.approx(mse_te / mse_tr)


def test_cross_validate_worker_invariance(baseline, corpus):
    # workers reach the featurize and node stages; folds run in order
    manifest, partition = corpus
    serial = prepare_corpus(manifest, partition.groups(manifest), baseline.pipeline,
                            workers=1)
    a = cross_validate(baseline_route(serial, baseline.pipeline), 8)
    b = cross_validate(baseline, 8)
    assert len(a.folds) == len(b.folds) == 45
    for fa, fb in zip(a.folds, b.folds):
        assert fa.fold.train_subsets == fb.fold.train_subsets
        assert fa.test.wsr == fb.test.wsr
        assert fa == fb
        assert np.array_equal(fa.model.weights, fb.model.weights)


def test_gain_report_arithmetic(baseline):
    """The summary's gain line is total minus baseline test WSR."""
    base = cross_validate(baseline, 9)
    fake_total = CrossValReport.from_folds("x total", 9, base.folds)
    text = summary_markdown(base, fake_total)
    assert "Reservoir gain: **+0.0 points**" in text
    assert "| x total |" in text


def test_gain_report_rejects_mismatched_folds(baseline):
    """The summary reports no gain between routes that ran different folds."""
    base = cross_validate(baseline, 9)
    other = cross_validate(baseline, 8)
    with pytest.raises(DataError):
        summary_markdown(base, other)


def test_report_to_csv_layout(baseline):
    report = cross_validate(baseline, 9)
    text = report_to_csv(report, ["config abc"])
    lines = text.strip().split("\n")
    assert lines[0] == "# config abc"
    assert lines[1].startswith("# pipeline:")
    assert lines[2].startswith("fold,")
    assert len(lines) == 3 + 10 + 2  # headers, folds, mean and std rows
    assert lines[-2].startswith("mean,")
    assert lines[-1].startswith("std,")


def test_summary_markdown_mentions_routes(baseline):
    report = cross_validate(baseline, 9)
    text = summary_markdown(report, header_lines=["config abc"])
    assert "baseline" in text
    assert "| WSR" in text or "WSR" in text
    assert "Reservoir gain" not in text


def reference_stratified_grid(manifest, pipeline, train_utterances, test_snrs):
    """The stratified grid as it once was computed, for ``synthetic-white``
    cells: every clip featurized and padded together, the node stage of
    ``reference_node_stage``, one ``train_pinv`` over the training clips,
    then ``classify(predict(...))`` clip by clip in each cell."""
    train = [e for e in manifest.entries if e.label.utterance < train_utterances]
    test = [e for e in manifest.entries if e.label.utterance >= train_utterances]
    cells = [[replace(e, label=replace(e.label, snr_db=snr,
                                       noise_type="clean" if math.isinf(snr)
                                       else "synthetic-white"))
              for e in test] for snr in test_snrs]
    entries = train + [e for pool in cells for e in pool]
    feats = [entry_features(e, pipeline, manifest) for e in entries]
    tensors = pad_to(feats)
    if pipeline.node_kind is not None:
        tensors, _ = reference_node_stage(tensors, pipeline)
    model = train_pinv(list(tensors[:len(train)]), [e.label.digit for e in train],
                       pipeline.readout)
    grid, start = [], len(train)
    for pool in cells:
        preds = [classify(predict(model, m)) for m in tensors[start:start + len(pool)]]
        grid.append([score_wsr(preds, [e.label.digit for e in pool])])
        start += len(pool)
    return np.array(grid)


@pytest.mark.parametrize("node_kind", [None, "stno"], ids=["baseline", "stno"])
def test_stratified_grid_matches_the_per_clip_reference(corpus, node_kind):
    manifest, _ = corpus
    pipe = PipelineSpec(filter_kind="spectro_exp", alpha=2.0, node_kind=node_kind,
                        n_theta=24)
    snrs = (math.inf, 10.0)
    report = stratified_report(manifest, pipe, 8, test_snrs=snrs,
                               test_noise_types=("synthetic-white",), workers=4)
    # the noise the CLI mixes, at the config's seed
    manifest = replace(manifest, noise_seed=SCHEMA["corpus.noise_seed"][1])
    base = reference_stratified_grid(manifest, replace(pipe, node_kind=None), 8, snrs)
    if node_kind is None:
        assert np.array_equal(report.wsr, base)
        assert report.gain is None
    else:
        total = reference_stratified_grid(manifest, pipe, 8, snrs)
        assert np.array_equal(report.wsr, total)
        assert np.array_equal(report.gain, total - base)


def test_stratified_report_grid(corpus):
    manifest, _ = corpus
    pipe = PipelineSpec(filter_kind="spectro_exp", alpha=2.0)
    report = stratified_report(
        manifest, pipe, 8,
        test_snrs=(math.inf, 10.0),
        test_noise_types=("synthetic-white",), workers=4)
    assert report.wsr.shape == (2, 1)
    assert report.row_avg.shape == (2,)
    assert np.all(report.wsr >= 0.0) and np.all(report.wsr <= 100.0)
    text = condition_markdown(report, ["config abc"])
    assert "clean" in text
    assert "10" in text


def test_stratified_with_gain_grid(corpus):
    manifest, _ = corpus
    pipe = PipelineSpec(filter_kind="spectro_exp", alpha=2.0, node_kind="stno",
                        n_theta=24)
    report = stratified_report(
        manifest, pipe, 8,
        test_snrs=(math.inf,), test_noise_types=("synthetic-white",), workers=4)
    assert report.gain is not None
    assert report.gain.shape == report.wsr.shape


def test_stratified_grid_is_worker_invariant(corpus):
    manifest, _ = corpus
    pipe = PipelineSpec(filter_kind="spectro_exp", alpha=2.0, node_kind="stno",
                        n_theta=24)
    reports = [stratified_report(
        manifest, pipe, 8,
        test_snrs=(math.inf, 10.0), test_noise_types=("synthetic-white",),
        workers=w) for w in (1, 2)]
    assert np.array_equal(reports[0].wsr, reports[1].wsr)
    assert np.array_equal(reports[0].gain, reports[1].gain)


def test_stratified_node_route_factors_only_the_training_pool(corpus, monkeypatch):
    """In the stratified layout (the training pool, then each test clip in
    every cell, a clip's cells next to each other) the streamed route
    matches the reference, and each route factors the 400-clip training
    pool once and no cell."""
    manifest, _ = corpus
    pipe = PipelineSpec(filter_kind="spectro_exp", alpha=2.0, node_kind="stno",
                        n_theta=24)
    routes, factored = [], []
    with_node_, extend_ = evalharness.with_node, evalharness.extend

    def keeping_with_node(base, pipeline, factored=None, **kwargs):
        prep = with_node_(base, pipeline, factored, **kwargs)
        routes.append((base, prep))
        return prep

    def counting_extend(r, block, digits, *args):
        if r is None:       # a group's first block starts its factor
            factored.append(0)
        factored[-1] += len(digits)
        return extend_(r, block, digits, *args)

    monkeypatch.setattr(evalharness, "with_node", keeping_with_node)
    monkeypatch.setattr(evalharness, "extend", counting_extend)
    stratified_report(manifest, pipe, 8, test_snrs=(math.inf, 10.0),
                      test_noise_types=("synthetic-white",), workers=4)
    (base, prep), = routes
    assert list(base.subset_of) == [0] * 400 + [1, 2] * 100
    states, input_gain = reference_node_stage(pad_to(base.features), pipe)
    assert prep.input_gain == input_gain
    assert_matches_reference(prep, states, (0,))
    assert factored == [400, 400]


def _sweep(spectra, alphas, monkeypatch):
    """``alpha_sweep``'s reports, and each exponent's route and the report
    ``cross_validate`` gave for it."""
    swept, cross_validate_ = [], evalharness.cross_validate

    def keeping_cross_validate(prep, n_train):
        report = cross_validate_(prep, n_train)
        swept.append((prep, report))
        return report

    monkeypatch.setattr(evalharness, "cross_validate", keeping_cross_validate)
    return alpha_sweep(spectra, PipelineSpec(filter_kind="mfcc"), alphas, 9), swept


@pytest.mark.parametrize("alpha", [0.0, 0.2, 0.5, 1.0, 2.0, 4.0])
def test_sweep_derives_each_exponent_as_the_spectro_exp_front_end(corpus, spectra,
                                                                 monkeypatch, alpha):
    """Each exponent, derived block by block from the one spectrum pass,
    has the frame means and factors of the ``spectro_exp`` front end's
    features at that exponent, freshly padded.  At alpha = 0 every true
    entry maps to 1, so equal frame means show that the padding stays
    zero, not what the reused block held before."""
    manifest, partition = corpus
    assert {(fm.filter_kind, fm.alpha) for fm in spectra.features} == {("spectro_exp", 1.0)}
    assert min(fm.n_frames for fm in spectra.features) < spectra.n_frames_max
    (report,), ((prep, kept),) = _sweep(spectra, [alpha], monkeypatch)
    pipe = PipelineSpec(filter_kind="spectro_exp", alpha=alpha)
    want = prepare_corpus(manifest, partition.groups(manifest), pipe, workers=4)
    assert report is kept and report.pipeline == pipe.describe()
    assert prep.pipeline == pipe
    assert prep.corpus.clip_ids == want.clip_ids
    assert [fm.n_frames for fm in prep.corpus.features] == \
        [fm.n_frames for fm in want.features]
    assert_matches_reference(prep, pad_to(want.features), range(10))


def test_sweep_rejects_non_finite_transformed_entries(spectra):
    """An exact zero inside a clip's true frames has no finite negative
    power; the padding zeros of every other clip do not count."""
    last = spectra.indices_of_subsets([9])[-1]
    values = spectra.features[last].values.copy()
    values[3, spectra.features[last].n_frames - 1] = 0.0
    features = list(spectra.features)
    features[last] = replace(features[last], values=values)
    spoiled = replace(spectra, features=tuple(features))
    assert min(fm.n_frames for i, fm in enumerate(spoiled.features) if i != last) < \
        spoiled.n_frames_max
    with pytest.raises(DataError, match=f"{spoiled.clip_ids[last]!r} has non-finite"):
        alpha_sweep(spoiled, PipelineSpec(filter_kind="mfcc"), [-1.0], 9)


# ---------------------------------------------------------------------------
# repeated readout inputs: factored once, against one plain QR per block

def _plain_qr(monkeypatch):
    """The reference: factor every block with one QR, copies and all."""
    monkeypatch.setattr(readout, "_copied_columns", lambda block, n: None)


def _assert_same_readouts(prep, got: CrossValReport, want: CrossValReport):
    """Fold by fold: weights within 1e-9 relative, and the same decision
    on every clip of the corpus."""
    assert [f.fold for f in got.folds] == [f.fold for f in want.folds]
    for g, w in zip(got.folds, want.folds):
        ref = w.model.weights
        assert np.max(np.abs(g.model.weights - ref)) <= 1e-9 * np.max(np.abs(ref))
        assert np.array_equal(np.argmax(predict_means(g.model, prep.frame_means), axis=1),
                              np.argmax(predict_means(w.model, prep.frame_means), axis=1))
    for split in ("train", "test"):
        g, w = getattr(got, split), getattr(want, split)
        assert (g.wsr, g.wsr_std) == (w.wsr, w.wsr_std)


def test_sweep_readouts_match_the_plain_qr_on_every_fold(spectra, monkeypatch):
    """At every default exponent each fold trains the weights and makes
    the decisions of one plain QR per block.  At alpha = 0 every feature
    row is the same, so each subset factor has one row and no subnormal
    entry, where plain QR leaves 65 rows running down to subnormals."""
    alphas = SCHEMA["sweep.alphas"][1]
    assert alphas[0] == 0.0
    reports, swept = _sweep(spectra, alphas, monkeypatch)
    _plain_qr(monkeypatch)
    want_reports, want = _sweep(spectra, alphas, monkeypatch)
    points = [(r.test.wsr, r.test.wsr_std) for r in reports]
    assert points == [(r.test.wsr, r.test.wsr_std) for r in want_reports]
    assert points[0] == (10.0, 0.0)
    for (prep, report), (_, ref) in zip(swept, want):
        _assert_same_readouts(prep, report, ref)
    zero, plain_zero = swept[0][0], want[0][0]
    tiny = np.finfo(float).tiny
    for k in range(10):
        f = zero.factors[k]
        assert f.shape == (1, 65 + 10)
        assert not np.any((f != 0.0) & (np.abs(f) < tiny))
        assert plain_zero.factors[k].shape == (65, 65 + 10)
    for (prep, _), (ref, _) in zip(swept[1:], want[1:]):
        for k in range(10):
            assert np.array_equal(prep.factors[k], ref.factors[k])


def test_bench_readouts_match_the_plain_qr_on_every_fold(corpus, baseline,
                                                         monkeypatch):
    """``bench``'s routes (alpha = 2 spectra, then the stno node at
    n_theta 400) repeat no input, so every factor is bitwise the plain
    QR's, and so are the weights and decisions."""
    manifest, partition = corpus
    total_pipe = replace(baseline.pipeline, node_kind="stno")
    assert total_pipe.n_theta == 400
    total = with_node(baseline.corpus, total_pipe)
    got = [(p, cross_validate(p, 9)) for p in (baseline, total)]
    _plain_qr(monkeypatch)
    plain = prepare_corpus(manifest, partition.groups(manifest), baseline.pipeline,
                           workers=4)
    refs = (baseline_route(plain, baseline.pipeline), with_node(plain, total_pipe))
    for (prep, report), ref in zip(got, refs):
        assert sorted(ref.factors) == sorted(prep.factors) == list(range(10))
        for k in range(10):
            assert np.array_equal(prep.factors[k], ref.factors[k]), f"subset {k}"
        _assert_same_readouts(prep, report, cross_validate(ref, 9))
