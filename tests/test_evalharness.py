import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import resonet.evalharness as evalharness
from resonet.dataset import SubsetPartition, build_synth_manifest
from resonet.errors import ConfigError, DataError, NumericalError
from resonet.evalharness import (CrossValReport, FoldSpec, GainReport,
                                 PipelineSpec, chance_band, clip_features,
                                 condition_markdown, cross_validate,
                                 enumerate_folds, prepare_corpus, report_to_csv,
                                 run_fold, stratified_report, summary_markdown,
                                 with_node)
from resonet.filterbank import pad_to
from resonet.readout import (Metrics, build_targets, classify, factor, predict,
                             score_mse, score_wsr, train_pinv)
from resonet.reservoir import (gen_mask, mask_and_flatten, node_run_reference,
                               reshape_states, stno_run)


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


@pytest.fixture(scope="module")
def baseline_prep(corpus):
    manifest, partition = corpus
    pipe = PipelineSpec(filter_kind="spectro_exp", alpha=2.0)
    return prepare_corpus(manifest, partition, pipe, workers=4)


def test_prepare_corpus_baseline_shapes(baseline_prep, corpus):
    manifest, partition = corpus
    prep = baseline_prep
    assert prep.tensors.shape[0] == 500
    assert prep.tensors.shape[1] == 65
    assert prep.tensors.shape[2] == prep.n_frames_max
    assert prep.input_gain is None
    where = partition.subset_of()
    for i, cid in enumerate(prep.clip_ids):
        assert where[cid] == prep.subset_of[i]


def test_prepare_corpus_worker_invariance(corpus):
    manifest, partition = corpus
    pipe = PipelineSpec(filter_kind="mfcc")
    a = prepare_corpus(manifest, partition, pipe, workers=1)
    b = prepare_corpus(manifest, partition, pipe, workers=4)
    assert a.clip_ids == b.clip_ids
    assert np.array_equal(a.tensors, b.tensors)


def test_cochlear_features_are_worker_invariant(corpus):
    """The cochlea's gain-control loop keeps its buffers per call, so the
    featurize thread pool cannot mix clips."""
    manifest, partition = corpus
    small = SubsetPartition(tuple(ids[:2] for ids in partition.subsets[:3]), partition.seed)
    pipe = PipelineSpec(filter_kind="cochlear")
    a = prepare_corpus(manifest, small, pipe, workers=1)
    b = prepare_corpus(manifest, small, pipe, workers=2)
    assert a.clip_ids == b.clip_ids
    assert np.array_equal(a.tensors, b.tensors)


NODE_PIPE = PipelineSpec(filter_kind="spectro_exp", alpha=2.0, node_kind="stno",
                         n_theta=40, drive_ma=3.0)


@pytest.fixture(scope="module")
def node_route(corpus, baseline_prep):
    """A small node-route preparation, its clips' states from
    ``reference_node_stage`` (the preparation keeps none), and each clip's
    unpadded features.  ``baseline_prep`` is its baseline route."""
    manifest, partition = corpus
    prep = prepare_corpus(manifest, partition, NODE_PIPE, workers=4)
    states, _ = reference_node_stage(baseline_prep.tensors, NODE_PIPE)
    by_id = {e.clip_id: e for e in manifest.entries}
    feats = [clip_features(by_id[cid], NODE_PIPE, sample_rate=manifest.sample_rate)
             for cid in prep.clip_ids]
    return prep, states, feats


def _clip_peaks(prep, feats):
    mask = gen_mask(NODE_PIPE.mask_seed, NODE_PIPE.n_theta, feats[0].n_rows)
    return np.array([np.max(np.abs(mask_and_flatten(pad_to(f, prep.n_frames_max).values,
                                                    mask)))
                     for f in feats])


def test_prepare_corpus_node_route(node_route):
    prep, states, feats = node_route
    assert states.shape[1] == 40
    assert prep.frame_means.shape == (500, 40)
    assert prep.input_gain is not None and prep.input_gain > 0
    # the scaled drive peaks exactly at drive_ma over the corpus
    assert prep.input_gain == pytest.approx(3.0 / float(np.max(_clip_peaks(prep, feats))))
    assert np.all(states >= 0.0)
    assert prep.tensors is None


def test_input_gain_takes_the_peak_over_the_whole_corpus(node_route):
    """Drive scaling sees every clip, including each fold's test clips."""
    prep, _, feats = node_route
    peaks = _clip_peaks(prep, feats)
    top = int(np.argmax(peaks))
    assert prep.input_gain == pytest.approx(NODE_PIPE.drive_ma / peaks[top], rel=1e-12)
    # the fold that tests on the loudest clip's subset never trains on it,
    # and its train clips alone would give a larger gain
    fold = FoldSpec(tuple(k for k in range(10) if k != prep.subset_of[top]))
    train_peak = float(np.max(peaks[prep.indices_of_subsets(fold.train_subsets)]))
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
    test_idx = prep.indices_of_subsets(fold.test_subsets)
    padded = [(w @ states[i]).mean(axis=1) for i in test_idx]
    true = [(w @ states[i][:, :feats[i].n_frames]).mean(axis=1) for i in test_idx]
    onehot = [np.eye(10)[prep.digits[i]] for i in test_idx]
    digits = [int(prep.digits[i]) for i in test_idx]
    assert fm.test.wsr == score_wsr([int(np.argmax(s)) for s in padded], digits)
    assert fm.test.mse == pytest.approx(score_mse(padded, onehot), rel=1e-9)
    short = [i for i in test_idx if feats[i].n_frames < prep.n_frames_max]
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
            t = pipeline.tanh
            v = node_run_reference(input_gain * d, t.gain, t.leak, t.v0)
        states.append(reshape_states(v, pipeline.n_theta, n_frames))
    return np.stack(states), input_gain


def assert_matches_reference(prep, states, factored):
    """A streamed route against its reference inputs (``reference_node_stage``
    states, or the padded features on the baseline route): every clip's
    frame mean equals the mean over its reference inputs, and each group
    in ``factored``, and no other, has the factor that ``readout.factor``
    computes from its clips' reference inputs."""
    # the total route keeps no states; the baseline keeps its features
    assert (prep.tensors is None) == (prep.pipeline.node_kind is not None)
    # frame means sum in memory order, so this also pins the state layout
    assert np.array_equal(prep.frame_means, states.mean(axis=2))
    assert sorted(prep.factors) == sorted(factored)
    for k in factored:
        idx = prep.indices_of_subsets([k])
        want = factor([states[i] for i in idx],
                      [build_targets(int(prep.digits[i]), prep.n_frames_max) for i in idx],
                      prep.pipeline.readout)
        assert np.array_equal(prep.factors[k], want), f"group {k}"


@pytest.mark.parametrize("node_kind", ["stno", "tanh"])
def test_node_stage_matches_the_per_clip_reference(baseline_prep, node_kind):
    pipe = replace(baseline_prep.pipeline, node_kind=node_kind, n_theta=40)
    prep = with_node(baseline_prep, pipe)
    states, input_gain = reference_node_stage(baseline_prep.tensors, pipe)
    assert prep.input_gain == input_gain
    assert_matches_reference(prep, states, range(10))


@pytest.mark.parametrize("route, layout", [
    ("stno", "interleaved-thirds"), ("stno", "one-uneven-group"),
    ("baseline", "interleaved-thirds"), ("baseline", "one-uneven-group")],
    ids=["interleaved-thirds", "one-uneven-group",
         "baseline-interleaved-thirds", "baseline-one-uneven-group"])
def test_streamed_node_route_matches_the_reference_at_block_edges(corpus, baseline_prep,
                                                                  route, layout):
    """Groups whose sizes are not multiples of FACTOR_CHUNK end in a short
    block; group 1, left out of ``factored``, gets frame means and no
    factor.  Both routes reduce their blocks through the same loop."""
    n = len(baseline_prep.clip_ids)
    if layout == "interleaved-thirds":         # 167, 167 and 166 clips
        groups, factored = np.arange(n) % 3, (0, 2)
    else:                                      # 123 clips, then 377
        groups, factored = (np.arange(n) >= 123).astype(int), (0,)
    if route == "baseline":
        manifest, partition = corpus
        ids = np.array(baseline_prep.clip_ids)
        regrouped = SubsetPartition(tuple(tuple(ids[groups == k])
                                          for k in range(groups.max() + 1)),
                                    partition.seed)
        prep = prepare_corpus(manifest, regrouped, baseline_prep.pipeline, workers=4,
                              factored=factored)
        assert prep.clip_ids == baseline_prep.clip_ids
        assert np.array_equal(prep.subset_of, groups)
        inputs = baseline_prep.tensors
    else:
        base = replace(baseline_prep, subset_of=groups)
        prep = with_node(base, NODE_PIPE, factored=factored)
        inputs, input_gain = reference_node_stage(base.tensors, NODE_PIPE)
        assert prep.input_gain == input_gain
    assert_matches_reference(prep, inputs, factored)


def test_with_node_never_holds_the_state_tensor(baseline_prep, node_route):
    """The node route's largest transient is one block of states, far
    below the (n_clips, n_theta, n_frames_max) state array."""
    prep, _, _ = node_route
    full = len(prep.clip_ids) * NODE_PIPE.n_theta * prep.n_frames_max * 8
    tracemalloc.start()
    try:
        with_node(baseline_prep, NODE_PIPE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full, f"peak {peak} bytes, state array {full} bytes"


@pytest.mark.parametrize("value, match", [(-1.0, "nonnegative"), (np.nan, "non-finite")])
def test_node_stage_rejects_unusable_oscillator_states(baseline_prep, monkeypatch,
                                                       value, match):
    monkeypatch.setattr(evalharness, "stno_run", lambda x, p: np.full(x.size, value))
    pipe = replace(baseline_prep.pipeline, node_kind="stno", n_theta=4)
    with pytest.raises(NumericalError, match=match):
        with_node(baseline_prep, pipe)


@pytest.mark.parametrize("layout", ["subsets", "one-uneven-group"])
@pytest.mark.parametrize("value, match", [(-1.0, "nonnegative"), (np.nan, "non-finite")])
def test_node_stage_checks_the_last_block_of_the_last_group(baseline_prep, monkeypatch,
                                                            value, match, layout):
    """One bad clip, in the block the node stage runs last, still fails:
    the last of ten one-block subsets, or the eighth block of a group."""
    base = baseline_prep
    if layout == "one-uneven-group":           # 123 clips, then 377
        base = replace(base, subset_of=(np.arange(len(base.clip_ids)) >= 123).astype(int))
    pipe = replace(base.pipeline, node_kind="stno", n_theta=4)
    last = base.indices_of_subsets([max(base.subset_of)])[-1]
    mask = gen_mask(pipe.mask_seed, pipe.n_theta, base.tensors.shape[1])
    _, gain = reference_node_stage(base.tensors, pipe)
    bad_drive = gain * mask_and_flatten(base.tensors[last], mask)
    hits = []

    def stno_run_spoiling_one_clip(drive, params):
        v = stno_run(drive, params)
        if np.array_equal(drive, bad_drive):
            hits.append(len(hits))
            v[-1] = value
        return v

    monkeypatch.setattr(evalharness, "stno_run", stno_run_spoiling_one_clip)
    with pytest.raises(NumericalError, match=match):
        with_node(base, pipe)
    assert hits == [0]


def test_run_fold_produces_both_splits(baseline_prep):
    fold = FoldSpec(tuple(range(9)))
    fm = run_fold(fold, baseline_prep)
    assert 0.0 <= fm.test.wsr <= 100.0
    assert fm.train.mse > 0.0
    assert fm.overfit_ratio > 0.0


def test_cross_validate_aggregates_match_folds(baseline_prep):
    report = cross_validate(baseline_prep, 9)
    assert len(report.folds) == 10
    wsr = [f.test.wsr for f in report.folds]
    assert report.test.wsr == pytest.approx(np.mean(wsr))
    assert report.test.wsr_std == pytest.approx(np.std(wsr, ddof=1))
    mse_tr = np.mean([f.train.mse for f in report.folds])
    mse_te = np.mean([f.test.mse for f in report.folds])
    assert report.overfit_ratio == pytest.approx(mse_te / mse_tr)


def test_cross_validate_worker_invariance(baseline_prep, corpus):
    # workers reach the featurize and node stages; folds run in order
    manifest, partition = corpus
    serial = prepare_corpus(manifest, partition, baseline_prep.pipeline, workers=1)
    a = cross_validate(serial, 8)
    b = cross_validate(baseline_prep, 8)
    assert len(a.folds) == len(b.folds) == 45
    for fa, fb in zip(a.folds, b.folds):
        assert fa.fold.train_subsets == fb.fold.train_subsets
        assert fa.test.wsr == fb.test.wsr
        assert fa == fb
        assert np.array_equal(fa.model.weights, fb.model.weights)


def test_gain_report_arithmetic(baseline_prep):
    base = cross_validate(baseline_prep, 9)
    fake_total = CrossValReport.from_folds("x total", 9, base.folds)
    gain = GainReport(base, fake_total)
    assert gain.gain_points == pytest.approx(0.0)


def test_gain_report_rejects_mismatched_folds(baseline_prep):
    base = cross_validate(baseline_prep, 9)
    other = cross_validate(baseline_prep, 8)
    with pytest.raises(DataError):
        GainReport(base, other)


def test_report_to_csv_layout(baseline_prep):
    report = cross_validate(baseline_prep, 9)
    text = report_to_csv(report, ["config abc"])
    lines = text.strip().split("\n")
    assert lines[0] == "# config abc"
    assert lines[1].startswith("# pipeline:")
    assert lines[2].startswith("fold,")
    assert len(lines) == 3 + 10 + 2  # headers, folds, mean and std rows
    assert lines[-2].startswith("mean,")
    assert lines[-1].startswith("std,")


def test_summary_markdown_mentions_routes(baseline_prep):
    report = cross_validate(baseline_prep, 9)
    text = summary_markdown([report], None, ["config abc"])
    assert "baseline" in text
    assert "| WSR" in text or "WSR" in text


def reference_stratified_grid(manifest, pipeline, train_utterances, test_snrs,
                              noise_seed):
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
    feats = [clip_features(e, pipeline, sample_rate=manifest.sample_rate,
                           noise_seed=noise_seed) for e in entries]
    n_frames = max(f.n_frames for f in feats)
    tensors = np.stack([pad_to(f, n_frames).values for f in feats])
    if pipeline.node_kind is not None:
        tensors, _ = reference_node_stage(tensors, pipeline)
    model = train_pinv(list(tensors[:len(train)]),
                       [build_targets(e.label.digit, n_frames) for e in train],
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
                               test_noise_types=("synthetic-white",),
                               noise_seed=2002, workers=4)
    base = reference_stratified_grid(manifest, replace(pipe, node_kind=None), 8,
                                     snrs, 2002)
    if node_kind is None:
        assert np.array_equal(report.wsr, base)
        assert report.gain is None
    else:
        total = reference_stratified_grid(manifest, pipe, 8, snrs, 2002)
        assert np.array_equal(report.wsr, total)
        assert np.array_equal(report.gain, total - base)


def test_stratified_report_grid(corpus):
    manifest, _ = corpus
    pipe = PipelineSpec(filter_kind="spectro_exp", alpha=2.0)
    report = stratified_report(
        manifest, pipe, 8,
        test_snrs=(math.inf, 10.0),
        test_noise_types=("synthetic-white",),
        noise_seed=2002, workers=4)
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
        test_snrs=(math.inf,), test_noise_types=("synthetic-white",),
        noise_seed=2002, workers=4)
    assert report.gain is not None
    assert report.gain.shape == report.wsr.shape


def test_stratified_grid_is_worker_invariant(corpus):
    manifest, _ = corpus
    pipe = PipelineSpec(filter_kind="spectro_exp", alpha=2.0, node_kind="stno",
                        n_theta=24)
    reports = [stratified_report(
        manifest, pipe, 8,
        test_snrs=(math.inf, 10.0), test_noise_types=("synthetic-white",),
        noise_seed=2002, workers=w) for w in (1, 2)]
    assert np.array_equal(reports[0].wsr, reports[1].wsr)
    assert np.array_equal(reports[0].gain, reports[1].gain)


def test_stratified_node_route_factors_only_the_training_pool(corpus, monkeypatch):
    """In the stratified layout (the training pool, then one group per
    cell, each contiguous) the streamed route matches the reference, and
    each route factors the 400-clip training pool once and no cell."""
    manifest, _ = corpus
    pipe = PipelineSpec(filter_kind="spectro_exp", alpha=2.0, node_kind="stno",
                        n_theta=24)
    routes, factored = [], []
    with_node_, factor_blocks_ = evalharness.with_node, evalharness.factor_blocks

    def keeping_with_node(base, pipeline, factored=None):
        prep = with_node_(base, pipeline, factored)
        routes.append((base, prep))
        return prep

    def counting_factor_blocks(blocks, *args):
        blocks = list(blocks)
        factored.append(sum(len(inputs) for inputs, _ in blocks))
        return factor_blocks_(blocks, *args)

    monkeypatch.setattr(evalharness, "with_node", keeping_with_node)
    monkeypatch.setattr(evalharness, "factor_blocks", counting_factor_blocks)
    stratified_report(manifest, pipe, 8, test_snrs=(math.inf, 10.0),
                      test_noise_types=("synthetic-white",), noise_seed=2002, workers=4)
    (base, prep), = routes
    assert list(base.subset_of) == [0] * 400 + [1] * 100 + [2] * 100
    states, input_gain = reference_node_stage(base.tensors, pipe)
    assert prep.input_gain == input_gain
    assert_matches_reference(prep, states, (0,))
    assert factored == [400, 400]
