"""Cross-validation harness and ablation reports.

The corpus is split into ten balanced subsets; a fold trains on N of
them and tests on the other 10 - N, and every one of the C(10, N)
subset choices is evaluated.  The same folds are run twice, once on raw
filterbank features (the baseline) and once on reservoir states, and the
difference of mean test WSR, in percentage points, is the reservoir's
gain.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .dataset import Manifest, ManifestEntry, SubsetPartition, realize_clip
from .errors import ConfigError, DataError
from .filterbank import (CochlearConfig, FeatureMatrix, MfccConfig, StftConfig,
                         featurize, pad_to)
from .readout import (Metrics, ReadoutModel, ReadoutOptions, build_targets,
                      classify, factor, predict, predict_means, score_mse,
                      score_wsr, solve, train_pinv)
from .reservoir import (NeuronStates, StnoParams, TanhParams, gen_mask,
                        mask_and_flatten, node_run_reference, reshape_states,
                        stno_run)

N_SUBSETS = 10
N_CLASSES = 10


@dataclass(frozen=True)
class FoldSpec:
    """One train/test split over the ten subsets."""

    train_subsets: tuple[int, ...]

    def __post_init__(self) -> None:
        t = tuple(self.train_subsets)
        if len(t) != len(set(t)):
            raise DataError(f"duplicate subset indices in fold: {t}")
        if not t or len(t) >= N_SUBSETS:
            raise DataError(f"fold must train on 1..{N_SUBSETS - 1} subsets, got {len(t)}")
        if any(not 0 <= k < N_SUBSETS for k in t):
            raise DataError(f"subset indices must lie in 0..{N_SUBSETS - 1}: {t}")
        object.__setattr__(self, "train_subsets", tuple(sorted(t)))

    @property
    def test_subsets(self) -> tuple[int, ...]:
        return tuple(k for k in range(N_SUBSETS) if k not in self.train_subsets)

    @property
    def n_train(self) -> int:
        return len(self.train_subsets)

    def describe(self) -> str:
        return "+".join(str(k) for k in self.train_subsets)


def enumerate_folds(n_train: int) -> list[FoldSpec]:
    """All C(10, n_train) folds, in deterministic lexicographic order."""
    if not 1 <= n_train <= N_SUBSETS - 1:
        raise ConfigError(f"n_train must lie in 1..{N_SUBSETS - 1}, got {n_train}")
    return [FoldSpec(c) for c in combinations(range(N_SUBSETS), n_train)]


def chance_band(n_classes: int, n_trials: int, n_sigma: float = 3.0) -> tuple[float, float]:
    """Symmetric band around chance-level WSR for a balanced task."""
    p = 1.0 / n_classes
    center = 100.0 * p
    std = 100.0 * math.sqrt(p * (1.0 - p) / n_trials)
    return center - n_sigma * std, center + n_sigma * std


@dataclass(frozen=True)
class PipelineSpec:
    """Everything between a clip and a readout column, minus the corpus."""

    filter_kind: str
    alpha: float | None = None
    stft: StftConfig = field(default_factory=StftConfig)
    mfcc: MfccConfig = field(default_factory=MfccConfig)
    cochlear: CochlearConfig = field(default_factory=CochlearConfig)
    node_kind: str | None = None          # None -> baseline (features feed the readout)
    n_theta: int = 400
    mask_seed: int = 1
    stno: StnoParams = field(default_factory=StnoParams)
    tanh: TanhParams = field(default_factory=TanhParams)
    drive_ma: float = 3.0                 # target peak drive after input scaling
    readout: ReadoutOptions = field(default_factory=ReadoutOptions)

    def __post_init__(self) -> None:
        if self.node_kind not in (None, "stno", "tanh"):
            raise ConfigError(f"unknown node kind {self.node_kind!r}")
        if self.node_kind is not None and self.n_theta < 1:
            raise ConfigError(f"n_theta must be positive, got {self.n_theta}")
        if self.drive_ma <= 0:
            raise ConfigError("drive_ma must be positive")

    def describe(self) -> str:
        name = self.filter_kind
        if self.filter_kind == "spectro_exp":
            name += f"(alpha={self.alpha:g})"
        if self.node_kind is None:
            return f"{name} baseline"
        return f"{name} + {self.node_kind}(n_theta={self.n_theta})"

    def route(self) -> str:
        return "baseline" if self.node_kind is None else "total"


def clip_features(entry: ManifestEntry, pipeline: PipelineSpec, *,
                  sample_rate: int, noise_seed: int = 0) -> FeatureMatrix:
    """Realize one manifest entry and run it through the pipeline's front end."""
    clip = realize_clip(entry, sample_rate=sample_rate, noise_seed=noise_seed)
    return featurize(clip, pipeline.filter_kind, pipeline.alpha,
                     stft_cfg=pipeline.stft, mfcc_cfg=pipeline.mfcc,
                     cochlear_cfg=pipeline.cochlear)


def _map(fn: Callable, items: Sequence, workers: int) -> list:
    """``fn`` over ``items`` in order, on a thread pool when workers > 1."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _baseline_stage(entries: Sequence[ManifestEntry], pipeline: PipelineSpec, *,
                    sample_rate: int, noise_seed: int, workers: int,
                    features: dict[str, FeatureMatrix] | None = None) -> np.ndarray:
    """Realize and featurize every entry (or reuse its cached features) and
    pad all of them to one frame count: shape (n_clips, n_rows, n_frames_max).
    """
    def _load(entry: ManifestEntry) -> FeatureMatrix:
        if features is not None and entry.clip_id in features:
            return features[entry.clip_id]
        return clip_features(entry, pipeline, sample_rate=sample_rate,
                             noise_seed=noise_seed)

    feats = _map(_load, entries, workers)
    n_frames_max = max(f.n_frames for f in feats)
    return np.stack([pad_to(f, n_frames_max).values for f in feats])


def _node_stage(tensors: np.ndarray, pipeline: PipelineSpec,
                clip_ids: Sequence[str], workers: int) -> tuple[np.ndarray, float]:
    """Mask, scale and run the node over padded features; returns the
    states, shape (n_clips, n_theta, n_frames), and the input gain.

    The input scale maps the largest masked feature magnitude over all of
    ``tensors`` onto ``drive_ma``, so the drive spans +/-drive_ma.  State
    integration restarts from the rest amplitude at every clip boundary.
    """
    n_frames = tensors.shape[2]
    mask = gen_mask(pipeline.mask_seed, pipeline.n_theta, tensors.shape[1])
    drives = [mask_and_flatten(x, mask) for x in tensors]
    peak = max(float(np.max(np.abs(d))) for d in drives)
    input_gain = pipeline.drive_ma / peak if peak > 0.0 else 0.0

    def _states(i: int) -> np.ndarray:
        if pipeline.node_kind == "stno":
            v = stno_run(drives[i], replace(pipeline.stno, input_gain=input_gain))
        else:
            t = pipeline.tanh
            v = node_run_reference(input_gain * drives[i], t.gain, t.leak, t.v0)
        return NeuronStates(reshape_states(v, pipeline.n_theta, n_frames),
                            clip_ids[i], node_kind=pipeline.node_kind).values

    return np.stack(_map(_states, range(len(drives)), workers)), input_gain


@dataclass
class PreparedCorpus:
    """Per-clip readout inputs, padded to a common frame count.

    ``tensors[i]`` is the matrix fed to the readout for clip i: padded
    features on the baseline route, reshaped node states on the total
    route.  ``frame_means[i]`` is its mean over all ``n_frames_max``
    frames, padding included, which is what fold scoring reads.  Built
    once, read-only afterward; folds only reindex it.
    """

    clip_ids: tuple[str, ...]
    digits: np.ndarray
    subset_of: np.ndarray
    tensors: np.ndarray          # (n_clips, n_rows, n_frames_max)
    n_frames_max: int
    pipeline: PipelineSpec
    input_gain: float | None = None
    frame_means: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.frame_means = self.tensors.mean(axis=2)

    def indices_of_subsets(self, subsets: Sequence[int]) -> np.ndarray:
        wanted = set(subsets)
        return np.array([i for i, s in enumerate(self.subset_of) if s in wanted])


def prepare_corpus(manifest: Manifest, partition: SubsetPartition,
                   pipeline: PipelineSpec, *, noise_seed: int = 0,
                   workers: int = 1,
                   features: dict[str, FeatureMatrix] | None = None) -> PreparedCorpus:
    """Featurize (or reuse cached features for) every clip and, when a
    node is configured, run the reservoir over the padded features.
    """
    subset_of_map = partition.subset_of()
    entries = [e for e in manifest.entries if e.clip_id in subset_of_map]
    if not entries:
        raise DataError("no manifest entries covered by the partition")
    tensors = _baseline_stage(entries, pipeline, sample_rate=manifest.sample_rate,
                              noise_seed=noise_seed, workers=workers,
                              features=features)
    prep = PreparedCorpus(tuple(e.clip_id for e in entries),
                          np.array([e.label.digit for e in entries]),
                          np.array([subset_of_map[e.clip_id] for e in entries]),
                          tensors, tensors.shape[2],
                          replace(pipeline, node_kind=None))
    if pipeline.node_kind is None:
        return prep
    return with_node(prep, pipeline, workers=workers)


def with_node(prep: PreparedCorpus, pipeline: PipelineSpec, *,
              workers: int = 1) -> PreparedCorpus:
    """The total route of a baseline preparation: the same clips, folds
    and padded features, with the node's states as readout inputs.
    ``pipeline`` must share the preparation's front end.
    """
    states, input_gain = _node_stage(prep.tensors, pipeline, prep.clip_ids, workers)
    return replace(prep, tensors=states, pipeline=pipeline, input_gain=input_gain)


@dataclass(frozen=True)
class FoldMetrics:
    fold: FoldSpec
    train: Metrics
    test: Metrics
    model: ReadoutModel = field(compare=False, repr=False)

    @property
    def overfit_ratio(self) -> float:
        return self.test.mse / self.train.mse if self.train.mse > 0 else math.inf


def _evaluate(model: ReadoutModel, prep: PreparedCorpus, idx: np.ndarray) -> Metrics:
    scores = predict_means(model, prep.frame_means[idx])
    actual = [int(d) for d in prep.digits[idx]]
    return Metrics(score_wsr([classify(s) for s in scores], actual),
                   score_mse(list(scores), list(np.eye(N_CLASSES)[actual])))


def subset_factor(prep: PreparedCorpus, subset: int) -> np.ndarray:
    """The readout factor (see ``readout.factor``) of one subset's clips."""
    idx = prep.indices_of_subsets([subset])
    if idx.size == 0:
        raise DataError(f"subset {subset} has no clips")
    return factor([prep.tensors[i] for i in idx],
                  [build_targets(int(prep.digits[i]), prep.n_frames_max) for i in idx],
                  prep.pipeline.readout)


def run_fold(fold: FoldSpec, prep: PreparedCorpus,
             factors: Sequence[np.ndarray]) -> FoldMetrics:
    """Train on the fold's train subsets, score both splits.

    ``factors[k]`` is subset k's readout factor (``subset_factor``).
    """
    train_idx = prep.indices_of_subsets(fold.train_subsets)
    test_idx = prep.indices_of_subsets(fold.test_subsets)
    if train_idx.size == 0 or test_idx.size == 0:
        raise DataError(f"fold {fold.describe()} has an empty split")
    if set(train_idx) & set(test_idx):
        raise DataError(f"fold {fold.describe()} train/test overlap")
    model = solve([factors[k] for k in fold.train_subsets], prep.pipeline.readout,
                  trained_on=fold.describe(),
                  node_kind=prep.pipeline.node_kind or "none",
                  filter_kind=prep.pipeline.filter_kind)
    return FoldMetrics(fold, _evaluate(model, prep, train_idx),
                       _evaluate(model, prep, test_idx), model)


@dataclass(frozen=True)
class CrossValReport:
    pipeline: str
    n_train: int
    folds: tuple[FoldMetrics, ...]
    train: Metrics
    test: Metrics
    overfit_ratio: float

    @staticmethod
    def from_folds(pipeline: str, n_train: int,
                   folds: Sequence[FoldMetrics]) -> "CrossValReport":
        train = _aggregate([f.train for f in folds])
        test = _aggregate([f.test for f in folds])
        ratio = test.mse / train.mse if train.mse > 0 else math.inf
        return CrossValReport(pipeline, n_train, tuple(folds), train, test, ratio)


def _aggregate(metrics: Sequence[Metrics]) -> Metrics:
    wsr = np.array([m.wsr for m in metrics])
    mse = np.array([m.mse for m in metrics])
    ddof = 1 if len(metrics) > 1 else 0
    return Metrics(float(wsr.mean()), float(mse.mean()),
                   float(wsr.std(ddof=ddof)), float(mse.std(ddof=ddof)))


def cross_validate(prep: PreparedCorpus, n_train: int) -> CrossValReport:
    """Run every fold, in fold order.

    Each subset is factored once and every fold solves from the stacked
    factors of its train subsets.  Folds run one after another: BLAS
    already spreads each factorization and solve over the cores, and a
    thread pool over folds made cross-validation slower.
    """
    factors = [subset_factor(prep, k) for k in range(N_SUBSETS)]
    results = [run_fold(f, prep, factors) for f in enumerate_folds(n_train)]
    return CrossValReport.from_folds(prep.pipeline.describe(), n_train, results)


@dataclass(frozen=True)
class GainReport:
    baseline: CrossValReport
    total: CrossValReport

    def __post_init__(self) -> None:
        if self.baseline.n_train != self.total.n_train:
            raise DataError(
                f"gain needs matching fold sizes, got N={self.baseline.n_train} "
                f"vs N={self.total.n_train}")
        if len(self.baseline.folds) != len(self.total.folds):
            raise DataError("gain needs the same fold enumeration on both routes")
        for fb, ft in zip(self.baseline.folds, self.total.folds):
            if fb.fold != ft.fold:
                raise DataError("gain needs identical folds on both routes")

    @property
    def gain_points(self) -> float:
        """Mean test WSR difference, total minus baseline, in points."""
        return self.total.test.wsr - self.baseline.test.wsr


@dataclass(frozen=True)
class SweepPoint:
    alpha: float
    wsr: float
    wsr_std: float


def alpha_sweep(manifest: Manifest, partition: SubsetPartition,
                base: PipelineSpec, alphas: Sequence[float], n_train: int, *,
                noise_seed: int = 0, workers: int = 1) -> list[SweepPoint]:
    """Baseline test WSR as a function of the spectral exponent."""
    if len(alphas) == 0:
        raise ConfigError("alpha sweep needs at least one exponent")
    points = []
    for alpha in alphas:
        pipe = replace(base, filter_kind="spectro_exp", alpha=float(alpha),
                       node_kind=None)
        prep = prepare_corpus(manifest, partition, pipe,
                              noise_seed=noise_seed, workers=workers)
        report = cross_validate(prep, n_train)
        points.append(SweepPoint(float(alpha), report.test.wsr, report.test.wsr_std))
    return points


# ---------------------------------------------------------------------------
# condition-stratified evaluation

@dataclass(frozen=True)
class ConditionReport:
    """WSR grid over (snr, noise_type) cells with row/column means."""

    snrs: tuple[float, ...]
    noise_types: tuple[str, ...]
    wsr: np.ndarray                    # (n_snrs, n_types)
    gain: np.ndarray | None            # same shape, total minus baseline
    n_train_clips: int
    n_test_clips: int

    @property
    def row_avg(self) -> np.ndarray:
        return self.wsr.mean(axis=1)

    @property
    def col_avg(self) -> np.ndarray:
        return self.wsr.mean(axis=0)

    @property
    def overall(self) -> float:
        return float(self.wsr.mean())


def stratified_report(manifest: Manifest, pipeline: PipelineSpec,
                      train_filter: Callable[[ManifestEntry], bool], *,
                      test_snrs: Sequence[float], test_noise_types: Sequence[str],
                      noise_seed: int = 0, with_baseline: bool = True,
                      workers: int = 1) -> ConditionReport:
    """Train once on a mixed-condition pool, test per condition cell.

    ``train_filter`` selects the training entries; everything else is the
    test pool.  Synthetic test entries are re-realized at each cell's
    (noise_type, snr) condition, while file-backed test entries join only
    the cells whose condition matches their manifest tag.  Training
    entries are realized at their tagged conditions.  All clips, train
    and test, are padded together and share one input scale.
    """
    if not test_snrs or not test_noise_types:
        raise ConfigError("stratified evaluation needs test snrs and noise types")
    train_entries = [e for e in manifest.entries if train_filter(e)]
    test_entries = [e for e in manifest.entries if not train_filter(e)]
    if not train_entries:
        raise DataError("stratified training pool is empty")
    if not test_entries:
        raise DataError("stratified test pool is empty")

    def _tag_matches(label, ntype: str, snr: float) -> bool:
        if label.snr_db != snr:
            return False
        return label.noise_type == ntype or (math.isinf(snr)
                                             and label.noise_type == "clean")

    def _at(entry: ManifestEntry, ntype: str, snr: float) -> ManifestEntry:
        label = replace(entry.label, snr_db=snr,
                        noise_type="clean" if math.isinf(snr) else ntype)
        return replace(entry, label=label)

    cells: dict[tuple[int, int], list[ManifestEntry]] = {}
    for r, snr in enumerate(test_snrs):
        for c, ntype in enumerate(test_noise_types):
            snr = float(snr)
            pool = [_at(e, ntype, snr) if e.is_synthetic else e for e in test_entries
                    if e.is_synthetic or _tag_matches(e.label, ntype, snr)]
            if not pool:
                raise DataError(
                    f"no test clips for condition ({ntype!r}, {snr} dB)")
            cells[(r, c)] = pool

    entries = train_entries + [e for pool in cells.values() for e in pool]
    features = _baseline_stage(entries, pipeline, sample_rate=manifest.sample_rate,
                               noise_seed=noise_seed, workers=workers)
    n_train, n_frames = len(train_entries), features.shape[2]
    targets = [build_targets(e.label.digit, n_frames) for e in train_entries]

    def _grid(route_pipeline: PipelineSpec, tensors: np.ndarray) -> np.ndarray:
        model = train_pinv(list(tensors[:n_train]), targets, route_pipeline.readout,
                           trained_on="stratified",
                           node_kind=route_pipeline.node_kind or "none",
                           filter_kind=route_pipeline.filter_kind)
        grid = np.zeros((len(test_snrs), len(test_noise_types)))
        start = n_train
        for (r, c), pool in cells.items():
            preds = [classify(predict(model, m))
                     for m in tensors[start:start + len(pool)]]
            grid[r, c] = score_wsr(preds, [e.label.digit for e in pool])
            start += len(pool)
        return grid

    base = replace(pipeline, node_kind=None)
    if pipeline.node_kind is None:
        wsr, gain = _grid(base, features), None
    else:
        states, _ = _node_stage(features, pipeline, [e.clip_id for e in entries],
                                workers)
        wsr = _grid(pipeline, states)
        gain = wsr - _grid(base, features) if with_baseline else None
    return ConditionReport(tuple(float(s) for s in test_snrs),
                           tuple(test_noise_types), wsr, gain,
                           n_train_clips=len(train_entries),
                           n_test_clips=len(test_entries))


# ---------------------------------------------------------------------------
# serialization helpers (plain strings; the CLI decides where they go)

def _fmt(x: float) -> str:
    return repr(float(x))


def report_to_csv(report: CrossValReport, header_lines: Sequence[str] = ()) -> str:
    lines = [f"# {h}" for h in header_lines]
    lines.append(f"# pipeline: {report.pipeline}")
    lines.append("fold,train_subsets,train_wsr,train_mse,test_wsr,test_mse")
    for i, fm in enumerate(report.folds):
        lines.append(",".join([str(i), fm.fold.describe(),
                               _fmt(fm.train.wsr), _fmt(fm.train.mse),
                               _fmt(fm.test.wsr), _fmt(fm.test.mse)]))
    lines.append(",".join(["mean", "-",
                           _fmt(report.train.wsr), _fmt(report.train.mse),
                           _fmt(report.test.wsr), _fmt(report.test.mse)]))
    lines.append(",".join(["std", "-",
                           _fmt(report.train.wsr_std), _fmt(report.train.mse_std),
                           _fmt(report.test.wsr_std), _fmt(report.test.mse_std)]))
    return "\n".join(lines) + "\n"


def summary_markdown(reports: Sequence[CrossValReport],
                     gain: GainReport | None = None,
                     header_lines: Sequence[str] = ()) -> str:
    out = [f"<!-- {h} -->" for h in header_lines]
    out.append("# Benchmark summary")
    out.append("")
    out.append("| Pipeline | Train WSR (std) | Train MSE (std) | Test WSR (std) | Test MSE (std) | MSE ratio |")
    out.append("|---|---|---|---|---|---|")
    for r in reports:
        out.append(
            f"| {r.pipeline} "
            f"| {r.train.wsr:.1f} ({r.train.wsr_std:.1f}) "
            f"| {r.train.mse:.4g} ({r.train.mse_std:.2g}) "
            f"| {r.test.wsr:.1f} ({r.test.wsr_std:.1f}) "
            f"| {r.test.mse:.4g} ({r.test.mse_std:.2g}) "
            f"| {r.overfit_ratio:.3f} |")
    out.append("")
    if gain is not None:
        out.append(f"Reservoir gain: **{gain.gain_points:+.1f} points** "
                   f"(total {gain.total.test.wsr:.1f} vs baseline "
                   f"{gain.baseline.test.wsr:.1f}, N={gain.total.n_train}).")
        out.append("")
    return "\n".join(out)


def condition_markdown(report: ConditionReport,
                       header_lines: Sequence[str] = ()) -> str:
    def cell(r: int, c: int) -> str:
        s = f"{report.wsr[r, c]:.2f}"
        if report.gain is not None:
            s += f" ({report.gain[r, c]:+.2f})"
        return s

    out = [f"<!-- {h} -->" for h in header_lines]
    out.append("# Condition-stratified WSR")
    out.append("")
    head = "| SNR (dB) | " + " | ".join(report.noise_types) + " | avg |"
    out.append(head)
    out.append("|" + "---|" * (len(report.noise_types) + 2))
    for r, snr in enumerate(report.snrs):
        snr_s = "clean" if math.isinf(snr) else f"{snr:g}"
        row = [snr_s] + [cell(r, c) for c in range(len(report.noise_types))]
        row.append(f"{report.row_avg[r]:.2f}")
        out.append("| " + " | ".join(row) + " |")
    avg_row = ["avg"] + [f"{v:.2f}" for v in report.col_avg] + [f"{report.overall:.2f}"]
    out.append("| " + " | ".join(avg_row) + " |")
    out.append("")
    out.append(f"Trained on {report.n_train_clips} clips; "
               f"{report.n_test_clips} test clips per cell population.")
    return "\n".join(out) + "\n"
