import math
from dataclasses import replace

import numpy as np
import pytest

from resonet.dataset import build_synth_manifest
from resonet.errors import ConfigError, DataError
from resonet.evalharness import (CrossValReport, FoldSpec, GainReport,
                                 PipelineSpec, chance_band, condition_markdown,
                                 cross_validate, enumerate_folds, prepare_corpus,
                                 report_to_csv, run_fold, stratified_report,
                                 summary_markdown)
from resonet.readout import Metrics


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
    assert spec.route() == "total"


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


def test_prepare_corpus_node_route(corpus):
    manifest, partition = corpus
    pipe = PipelineSpec(filter_kind="spectro_exp", alpha=2.0, node_kind="stno",
                        n_theta=40, drive_ma=3.0)
    prep = prepare_corpus(manifest, partition, pipe, workers=4)
    assert prep.tensors.shape[1] == 40
    assert prep.input_gain is not None and prep.input_gain > 0
    # the scaled drive peaks exactly at drive_ma over the corpus
    from resonet.filterbank import pad_to
    from resonet.reservoir import gen_mask, mask_and_flatten
    from resonet.dataset import realize_clip
    from resonet.filterbank import featurize
    mask = gen_mask(pipe.mask_seed, 40, 65)
    peak = 0.0
    for e in manifest.entries:
        fm = featurize(realize_clip(e), "spectro_exp", 2.0)
        fm = pad_to(fm, prep.n_frames_max)
        peak = max(peak, float(np.max(np.abs(mask_and_flatten(fm, mask)))))
    assert prep.input_gain == pytest.approx(3.0 / peak)
    assert np.all(prep.tensors >= 0.0)


def test_run_fold_produces_both_splits(baseline_prep):
    fold = FoldSpec(tuple(range(9)))
    fm = run_fold(fold, baseline_prep)
    assert 0.0 <= fm.test.wsr <= 100.0
    assert fm.train.mse > 0.0
    assert fm.overfit_ratio > 0.0


def test_cross_validate_aggregates_match_folds(baseline_prep):
    report = cross_validate(baseline_prep, 9, workers=4)
    assert len(report.folds) == 10
    wsr = [f.test.wsr for f in report.folds]
    assert report.test.wsr == pytest.approx(np.mean(wsr))
    assert report.test.wsr_std == pytest.approx(np.std(wsr, ddof=1))
    mse_tr = np.mean([f.train.mse for f in report.folds])
    mse_te = np.mean([f.test.mse for f in report.folds])
    assert report.overfit_ratio == pytest.approx(mse_te / mse_tr)


def test_cross_validate_worker_invariance(baseline_prep):
    a = cross_validate(baseline_prep, 8, workers=1)
    b = cross_validate(baseline_prep, 8, workers=4)
    assert len(a.folds) == len(b.folds) == 45
    for fa, fb in zip(a.folds, b.folds):
        assert fa.fold.train_subsets == fb.fold.train_subsets
        assert fa.test.wsr == fb.test.wsr


def test_gain_report_arithmetic(baseline_prep):
    base = cross_validate(baseline_prep, 9, workers=4)
    fake_total = CrossValReport.from_folds("x total", 9, base.folds)
    gain = GainReport(base, fake_total)
    assert gain.gain_points == pytest.approx(0.0)


def test_gain_report_rejects_mismatched_folds(baseline_prep):
    base = cross_validate(baseline_prep, 9, workers=4)
    other = cross_validate(baseline_prep, 8, workers=4)
    with pytest.raises(DataError):
        GainReport(base, other)


def test_report_to_csv_layout(baseline_prep):
    report = cross_validate(baseline_prep, 9, workers=4)
    text = report_to_csv(report, ["config abc"])
    lines = text.strip().split("\n")
    assert lines[0] == "# config abc"
    assert lines[1].startswith("# pipeline:")
    assert lines[2].startswith("fold,")
    assert len(lines) == 3 + 10 + 2  # headers, folds, mean and std rows
    assert lines[-2].startswith("mean,")
    assert lines[-1].startswith("std,")


def test_summary_markdown_mentions_routes(baseline_prep):
    report = cross_validate(baseline_prep, 9, workers=4)
    text = summary_markdown([report], None, ["config abc"])
    assert "baseline" in text
    assert "| WSR" in text or "WSR" in text


def test_stratified_report_grid(corpus):
    manifest, _ = corpus
    pipe = PipelineSpec(filter_kind="spectro_exp", alpha=2.0)
    report = stratified_report(
        manifest, pipe, lambda e: e.label.utterance < 8,
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
        manifest, pipe, lambda e: e.label.utterance < 8,
        test_snrs=(math.inf,), test_noise_types=("synthetic-white",),
        noise_seed=2002, workers=4)
    assert report.gain is not None
    assert report.gain.shape == report.wsr.shape


def test_stratified_grid_is_worker_invariant(corpus):
    manifest, _ = corpus
    pipe = PipelineSpec(filter_kind="spectro_exp", alpha=2.0, node_kind="stno",
                        n_theta=24)
    reports = [stratified_report(
        manifest, pipe, lambda e: e.label.utterance < 8,
        test_snrs=(math.inf, 10.0), test_noise_types=("synthetic-white",),
        noise_seed=2002, workers=w) for w in (1, 2)]
    assert np.array_equal(reports[0].wsr, reports[1].wsr)
    assert np.array_equal(reports[0].gain, reports[1].gain)
