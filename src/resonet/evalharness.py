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
from typing import Callable, Collection, Sequence

import numpy as np

from .dataset import Manifest, ManifestEntry, SubsetPartition, realize_clip
from .errors import ConfigError, DataError, NumericalError
from .filterbank import (CochlearConfig, FeatureMatrix, MfccConfig, StftConfig,
                         featurize, pad_to)
from .readout import (FACTOR_CHUNK, Metrics, ReadoutModel, ReadoutOptions,
                      build_targets, classify, factor_blocks,
                      predict_means, score_mse, score_wsr, solve)
from .reservoir import (NODE_KINDS, StnoParams, TanhParams, gen_mask,
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
        if self.node_kind is not None and self.node_kind not in NODE_KINDS:
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


def clip_features(entry: ManifestEntry, pipeline: PipelineSpec, *,
                  sample_rate: int, noise_seed: int = 0) -> FeatureMatrix:
    """Realize one manifest entry and run it through the pipeline's front end."""
    clip = realize_clip(entry, sample_rate=sample_rate, noise_seed=noise_seed)
    return featurize(clip, pipeline.filter_kind, pipeline.alpha,
                     stft_cfg=pipeline.stft, mfcc_cfg=pipeline.mfcc,
                     cochlear_cfg=pipeline.cochlear)


def _baseline_stage(entries: Sequence[ManifestEntry], groups: Sequence[int],
                    pipeline: PipelineSpec, *, sample_rate: int, noise_seed: int,
                    workers: int, features: dict[str, FeatureMatrix] | None = None,
                    factored: Collection[int] | None = None) -> PreparedCorpus:
    """Realize and featurize every entry (or reuse its cached features) and
    pad all of them to one frame count: the baseline route, with entry i
    in group ``groups[i]`` and the groups in ``factored`` (every group
    when None) factored.  With ``workers > 1`` clips are featurized on a
    thread pool, in order.
    """
    def _load(entry: ManifestEntry) -> FeatureMatrix:
        if features is not None and entry.clip_id in features:
            return features[entry.clip_id]
        return clip_features(entry, pipeline, sample_rate=sample_rate,
                             noise_seed=noise_seed)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            feats = list(pool.map(_load, entries))
    else:
        feats = [_load(e) for e in entries]
    n_frames_max = max(f.n_frames for f in feats)
    tensors = np.stack([pad_to(f, n_frames_max).values for f in feats])
    # free the unpadded features before the arrays below are allocated on
    # top of them, so the heap they held can shrink (lower peak RSS)
    del feats
    prep = PreparedCorpus(tuple(e.clip_id for e in entries),
                          np.array([e.label.digit for e in entries]), np.array(groups),
                          n_frames_max, replace(pipeline, node_kind=None), tensors=tensors)
    return _reduce(prep, tensors.shape[1], lambda idx: tensors[idx], factored)


def _reduce(prep: PreparedCorpus, n_inputs: int,
            run_block: Callable[[np.ndarray], np.ndarray],
            factored: Collection[int] | None) -> PreparedCorpus:
    """``prep`` with every clip's frame-mean readout input and the readout
    factor of each group in ``factored`` (every group when None).

    Each group's clips are taken in index order, ``FACTOR_CHUNK`` at a
    time: the blocks ``factor`` forms.  ``run_block(idx)`` gives those
    clips' readout inputs, shaped (clips, n_inputs, n_frames_max); the
    block is averaged over frames, stacked under its group's factor when
    the group is in ``factored``, and dropped, so no more than one block
    of inputs is produced at once.
    """
    frame_means = np.empty((len(prep.clip_ids), n_inputs))

    def _blocks(idx: np.ndarray):
        for start in range(0, idx.size, FACTOR_CHUNK):
            chunk = idx[start:start + FACTOR_CHUNK]
            block = run_block(chunk)
            frame_means[chunk] = block.mean(axis=2)
            yield block, [build_targets(int(prep.digits[i]), prep.n_frames_max)
                          for i in chunk]

    factors = {}
    for group in (int(g) for g in np.unique(prep.subset_of)):
        blocks = _blocks(prep.indices_of_subsets([group]))
        if factored is None or group in factored:
            factors[group] = factor_blocks(blocks, prep.pipeline.readout)
        else:
            for _ in blocks:        # frame means only
                pass
    return replace(prep, frame_means=frame_means, factors=factors)


@dataclass
class PreparedCorpus:
    """Per-clip readout inputs, padded to a common frame count, reduced.

    Both routes reduce every clip's readout input in one loop, 50 clips
    at a time (``_reduce``).  ``frame_means[i]`` is clip i's input
    averaged over all ``n_frames_max`` frames, padding included, which is
    what fold scoring reads.  ``factors[k]`` holds the readout factor
    (see ``readout.factor``) of group k's inputs, for each group the
    preparation was asked to train on, which is what training reads.
    On the baseline route ``tensors[i]`` keeps clip i's padded features,
    because the node and ``export-features`` read them; on the total
    route the node states are never kept and ``tensors`` is None.
    ``subset_of[i]`` is clip i's group: its cross-validation subset, or
    its pool in a stratified report.  Built once, read-only afterward;
    folds only reindex it.
    """

    clip_ids: tuple[str, ...]
    digits: np.ndarray
    subset_of: np.ndarray
    n_frames_max: int
    pipeline: PipelineSpec
    frame_means: np.ndarray | None = field(default=None, repr=False)  # (n_clips, n_inputs)
    tensors: np.ndarray | None = None             # (n_clips, n_rows, n_frames_max)
    input_gain: float | None = None
    factors: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def indices_of_subsets(self, subsets: Sequence[int]) -> np.ndarray:
        wanted = set(subsets)
        return np.array([i for i, s in enumerate(self.subset_of) if s in wanted])


def prepare_corpus(manifest: Manifest, partition: SubsetPartition,
                   pipeline: PipelineSpec, *, noise_seed: int = 0,
                   workers: int = 1,
                   features: dict[str, FeatureMatrix] | None = None,
                   factored: Collection[int] | None = None) -> PreparedCorpus:
    """Featurize (or reuse cached features for) every clip and, when a
    node is configured, run the reservoir over the padded features; the
    subsets in ``factored`` (every subset when None) are factored.
    """
    subset_of_map = partition.subset_of()
    entries = [e for e in manifest.entries if e.clip_id in subset_of_map]
    if not entries:
        raise DataError("no manifest entries covered by the partition")
    node = pipeline.node_kind is not None
    prep = _baseline_stage(entries, [subset_of_map[e.clip_id] for e in entries],
                           pipeline, sample_rate=manifest.sample_rate,
                           noise_seed=noise_seed, workers=workers, features=features,
                           factored=() if node else factored)
    return with_node(prep, pipeline, factored) if node else prep


def with_node(prep: PreparedCorpus, pipeline: PipelineSpec,
              factored: Collection[int] | None = None) -> PreparedCorpus:
    """The total route of a baseline preparation: the same clips and
    folds, with the node's frame-mean states as scoring inputs and the
    factors of the groups in ``factored`` (every group when None) as
    training inputs.  ``pipeline`` must share the preparation's front end.

    The input scale maps the largest masked feature magnitude over the
    whole corpus onto ``drive_ma``, so the drive spans +/-drive_ma.  State
    integration restarts from the rest amplitude at every clip boundary.
    The node runs one clip at a time, as the single physical node does,
    one block of ``_reduce`` at a time; each block's states are checked
    before they are reduced.  Overflow inside the node is not warned
    about: the state check reports it as a ``NumericalError``.
    """
    n_frames = prep.n_frames_max
    mask = gen_mask(pipeline.mask_seed, pipeline.n_theta, prep.tensors.shape[1])
    peak = max(float(np.abs(mask.entries @ x).max()) for x in prep.tensors)
    input_gain = pipeline.drive_ma / peak if peak > 0.0 else 0.0
    t = pipeline.tanh

    def _run_block(idx: np.ndarray) -> np.ndarray:
        # frame-major within each clip, the layout of the reshaped states;
        # frame means are summed in this memory order
        states = np.empty((idx.size, n_frames, pipeline.n_theta)).transpose(0, 2, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            for j, i in enumerate(idx):
                drive = input_gain * mask_and_flatten(prep.tensors[i], mask)
                if pipeline.node_kind == "stno":
                    v = stno_run(drive, pipeline.stno)
                else:
                    v = node_run_reference(drive, t.gain, t.leak, t.v0)
                states[j] = reshape_states(v, pipeline.n_theta, n_frames)
        if not np.all(np.isfinite(states)):
            raise NumericalError(f"{pipeline.node_kind} node states have non-finite entries")
        if pipeline.node_kind == "stno" and states.min() < 0.0:
            raise NumericalError("oscillator states must be nonnegative")
        return states

    node = replace(prep, pipeline=pipeline, tensors=None, input_gain=input_gain)
    return _reduce(node, pipeline.n_theta, _run_block, factored)


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


def run_fold(fold: FoldSpec, prep: PreparedCorpus) -> FoldMetrics:
    """Train on the fold's train subsets' factors, score both splits."""
    train_idx = prep.indices_of_subsets(fold.train_subsets)
    test_idx = prep.indices_of_subsets(fold.test_subsets)
    if train_idx.size == 0 or test_idx.size == 0:
        raise DataError(f"fold {fold.describe()} has an empty split")
    if set(train_idx) & set(test_idx):
        raise DataError(f"fold {fold.describe()} train/test overlap")
    model = solve([prep.factors[k] for k in fold.train_subsets], prep.pipeline.readout)
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

    Every fold solves from the stacked factors of its train subsets,
    which the preparation holds.  Folds run one after another: BLAS
    already spreads each factorization and solve over the cores, and a
    thread pool over folds made cross-validation slower.
    """
    results = [run_fold(f, prep) for f in enumerate_folds(n_train)]
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
        # drop this exponent's preparation before the next one is built
        del prep
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
                      train_utterances: int, *,
                      test_snrs: Sequence[float], test_noise_types: Sequence[str],
                      noise_seed: int = 0, workers: int = 1) -> ConditionReport:
    """Train once on a mixed-condition pool, test per condition cell.

    Entries with an utterance index below ``train_utterances`` form the
    training pool; everything else is the test pool.  Synthetic test
    entries are re-realized at each cell's (noise_type, snr) condition,
    while file-backed test entries join only the cells whose condition
    matches their manifest tag.  Training entries are realized at their
    tagged conditions.  All clips, train and test, are padded together
    and share one input scale.  The readout is trained and scored as a
    fold is: the training pool is group 0 of one preparation and cell j
    is group 1 + j.
    """
    if not test_snrs or not test_noise_types:
        raise ConfigError("stratified evaluation needs test snrs and noise types")
    train_entries = [e for e in manifest.entries if e.label.utterance < train_utterances]
    test_entries = [e for e in manifest.entries if e.label.utterance >= train_utterances]
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

    cells: list[list[ManifestEntry]] = []        # row-major over (snr, noise_type)
    for snr in (float(s) for s in test_snrs):
        for ntype in test_noise_types:
            pool = [_at(e, ntype, snr) if e.is_synthetic else e for e in test_entries
                    if e.is_synthetic or _tag_matches(e.label, ntype, snr)]
            if not pool:
                raise DataError(
                    f"no test clips for condition ({ntype!r}, {snr} dB)")
            cells.append(pool)

    entries = train_entries + [e for pool in cells for e in pool]
    groups = [0] * len(train_entries) + [1 + j for j, pool in enumerate(cells)
                                         for _ in pool]
    # only the training pool is factored; cells need frame means alone
    base = _baseline_stage(entries, groups, pipeline, sample_rate=manifest.sample_rate,
                           noise_seed=noise_seed, workers=workers, factored=(0,))

    def _grid(prep: PreparedCorpus) -> np.ndarray:
        model = solve([prep.factors[0]], prep.pipeline.readout)
        wsr = [_evaluate(model, prep, prep.indices_of_subsets([1 + j])).wsr
               for j in range(len(cells))]
        return np.array(wsr).reshape(len(test_snrs), len(test_noise_types))

    if pipeline.node_kind is None:
        wsr, gain = _grid(base), None
    else:
        wsr = _grid(with_node(base, pipeline, factored=(0,)))
        gain = wsr - _grid(base)
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
