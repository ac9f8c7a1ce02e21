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
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import combinations, groupby
from pathlib import Path
from typing import Callable, Collection, Iterator, Sequence

import numpy as np

from . import reservoir
from .cachefile import STALE_ADVICE, feature_cache_path, read_feature_cache
from .dataset import N_SUBSETS, AudioClip, Manifest, ManifestEntry, read_clip, realize_clip
from .errors import CacheError, ConfigError, DataError, NumericalError, ResonetError
from .filterbank import (COCHLEAR_BATCH, CochlearConfig, FeatureMatrix, MfccConfig,
                         StftConfig, exponent_transform, featurize_batch, pad_to)
from .readout import (FACTOR_CHUNK, Metrics, ReadoutModel, ReadoutOptions, design,
                      design_buffer, evaluate, extend, merge, solve)


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
    def train_runs(self) -> tuple[tuple[int, int], ...]:
        """The train subsets as maximal runs of consecutive indices, in
        order, each a (start, stop) range.  Test subsets separate the runs,
        so there are at most min(N, 11 - N) of them."""
        runs: list[list[int]] = []
        for k in self.train_subsets:
            if runs and runs[-1][1] == k:
                runs[-1][1] = k + 1
            else:
                runs.append([k, k + 1])
        return tuple((start, stop) for start, stop in runs)

    def describe(self) -> str:
        return "+".join(str(k) for k in self.train_subsets)


def enumerate_folds(n_train: int) -> list[FoldSpec]:
    """All C(10, n_train) folds, in deterministic lexicographic order."""
    if not 1 <= n_train <= N_SUBSETS - 1:
        raise ConfigError(f"n_train must lie in 1..{N_SUBSETS - 1}, got {n_train}")
    return [FoldSpec(c) for c in combinations(range(N_SUBSETS), n_train)]


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
    stno: reservoir.StnoParams = field(default_factory=reservoir.StnoParams)
    tanh: reservoir.TanhParams = field(default_factory=reservoir.TanhParams)
    drive_ma: float = 3.0                 # target peak drive after input scaling
    readout: ReadoutOptions = field(default_factory=ReadoutOptions)

    def __post_init__(self) -> None:
        if self.node_kind is not None and self.node_kind not in reservoir.NODE_KINDS:
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


def corpus_features(manifest: Manifest, pipeline: PipelineSpec, *, workers: int,
                    cache: Path | None = None) -> Iterator[FeatureMatrix]:
    """Every manifest entry's features, in entry order: read from its file
    in ``cache`` (``feature_cache_path``) where that exists, else realized at the
    manifest's sample rate and noise seed and featurized, the one place an
    entry becomes features.  Consecutive entries that share a clip id (a
    ``stratified`` test clip's cells) form one run, whose source is read
    once (``read_clip``) and mixed with each entry's own noise tag.
    Consecutive runs form a batch: for the cochlear front end, which runs a
    batch's uncached clips at once (``featurize_batch``), of at least
    ``COCHLEAR_BATCH`` entries; for the others, which featurize clip by
    clip, of one run.  Batches go to a pool of ``workers`` threads (one for
    the cochlea, whose numpy calls already serve a whole batch, so a second
    thread only contends for the interpreter lock) that keeps at most twice
    as many batches as threads in flight: a running batch holds
    its clips' buffers (for the cochlea about 0.5 MB a clip), a finished
    one its features until they are consumed.  ``cache`` is a ``<cache
    root>/<feature hash>`` directory, and a file in it from another
    configuration or for another clip is a ``CacheError``.  Only the
    configured front end on the manifest's own conditions may read it: not
    ``sweep`` (``spectro_exp`` at alpha 1) nor ``stratified`` (test clips at
    other noise conditions under the same clip id), which pass None.
    Manifest clip ids are unique, so every run with a cache is a single
    entry.
    """
    def _load(batch: list[list[ManifestEntry]]) -> list[FeatureMatrix]:
        features: list[FeatureMatrix | None] = []     # None where a clip is featurized
        fresh: list[list[ManifestEntry]] = []         # the runs the cache does not hold
        for run in batch:
            path = None if cache is None else feature_cache_path(cache, run[0].clip_id)
            if path is None or not path.exists():
                fresh.append(run)
                features += [None] * len(run)
                continue
            fm = read_feature_cache(path, cache.name)
            if fm.clip_id != run[0].clip_id:
                raise CacheError(f"{path}: holds the features of clip {fm.clip_id!r}, "
                                 f"not {run[0].clip_id!r}; {STALE_ADVICE}")
            features.append(fm)

        def clips() -> Iterator[AudioClip]:    # realized as the front end takes them
            for run in fresh:
                source = read_clip(run[0], sample_rate=manifest.sample_rate)
                for e in run:
                    yield realize_clip(e, sample_rate=manifest.sample_rate,
                                       noise_seed=manifest.noise_seed, clip=source)

        made = iter(featurize_batch(clips(), pipeline.filter_kind, pipeline.alpha,
                                    stft_cfg=pipeline.stft, mfcc_cfg=pipeline.mfcc,
                                    cochlear_cfg=pipeline.cochlear))
        return [next(made) if fm is None else fm for fm in features]

    def _batches(size: int) -> Iterator[list[list[ManifestEntry]]]:
        batch: list[list[ManifestEntry]] = []
        for _, run in groupby(manifest.entries, key=lambda e: e.clip_id):
            batch.append(list(run))
            if sum(map(len, batch)) >= size:
                yield batch
                batch = []
        if batch:
            yield batch

    cochlear = pipeline.filter_kind == "cochlear"
    threads = 1 if cochlear else workers
    # at most 2 * threads batches in flight, so a slow consumer holds only those
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for batch in _batches(COCHLEAR_BATCH if cochlear else 1):
            if len(pending) == 2 * threads:
                yield from pending.popleft().result()
            pending.append(pool.submit(_load, batch))
        while pending:
            yield from pending.popleft().result()


@dataclass(frozen=True, eq=False)
class Corpus:
    """The clips a run evaluates, featurized once: ``features[i]`` is clip
    i's ``FeatureMatrix`` as the front end gave it, unpadded, and
    ``subset_of[i]`` its group (its cross-validation subset, or its pool
    in a stratified report).  Every route of a run reduces the same corpus."""

    clip_ids: tuple[str, ...]
    digits: np.ndarray
    subset_of: np.ndarray
    features: tuple[FeatureMatrix, ...] = field(repr=False)

    @property
    def n_frames_max(self) -> int:     # what a route pads every clip to
        return max(fm.n_frames for fm in self.features)

    def indices_of_subsets(self, subsets: Sequence[int]) -> np.ndarray:
        return np.flatnonzero(np.isin(self.subset_of, list(subsets)))


def prepare_corpus(manifest: Manifest, groups: Sequence[int], pipeline: PipelineSpec, *,
                   workers: int, cache: Path | None = None) -> Corpus:
    """The manifest's entries, entry i in group ``groups[i]``, featurized
    by the pipeline's front end (``corpus_features``): the one place a
    run's corpus is built."""
    return Corpus(tuple(e.clip_id for e in manifest.entries),
                  np.array([e.label.digit for e in manifest.entries]), np.array(groups),
                  tuple(corpus_features(manifest, pipeline, workers=workers, cache=cache)))


@dataclass(frozen=True, eq=False)
class Route:
    """One route's reduction of a corpus (``_reduce``); folds only reindex
    it.  ``frame_means[i]`` is clip i's readout input averaged over all
    ``corpus.n_frames_max`` frames, padding included: what scoring reads.
    ``factors[k]`` is the readout factor (``readout.factor``) of group k's
    inputs, for each group the route trains on: what training reads.
    ``input_gain`` is the node's input scale, None without a node."""

    corpus: Corpus
    pipeline: PipelineSpec
    frame_means: np.ndarray = field(repr=False)               # (n_clips, n_inputs)
    factors: dict[int, np.ndarray] = field(repr=False)
    input_gain: float | None = None


def _reduce(corpus: Corpus, pipeline: PipelineSpec, features: Callable[[int], FeatureMatrix],
            node: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
            factored: Collection[int] | None = None, workers: int = 1) -> Route:
    """The route ``pipeline`` of ``corpus``, with the groups in ``factored``
    (every group when None) factored.  Each group's clips are taken in
    index order, ``FACTOR_CHUNK`` at a time, the blocks ``factor`` forms.
    Each block's readout inputs are written once, into its
    ``readout.design`` in a design buffer that its thread reuses: the
    features, ``features(i)`` for clip i, padded there, or, with
    ``node``, the states that ``node(padded, inputs)`` writes into
    ``inputs``, the design's frame rows shaped (clips, n_theta,
    n_frames_max), from the features padded into the thread's block
    buffer; it returns their frame means.  Every block gives its clips'
    frame means, and a block of a factored group is stacked under its
    factor (``extend``).

    A group's blocks form one chain and its rows of the frame means are
    its own, so groups do not depend on each other: they are dealt in
    turn to ``workers`` threads (one thread runs them in place), each with
    its own design buffer and block buffer, and every factor and frame
    mean has the same bytes at any thread count.  The block QR
    (``readout._qr_r``) and the node's numpy calls release the
    interpreter lock.  A group that fails with a ``ResonetError`` raises
    it once every thread has stopped; where several fail, the first
    group's, as on one thread.
    """
    n_frames, n_rows = corpus.n_frames_max, corpus.features[0].n_rows
    n_inputs = n_rows if node is None else pipeline.n_theta
    frame_means = np.empty((len(corpus.clip_ids), n_inputs))
    groups = [int(g) for g in np.unique(corpus.subset_of)]

    def _chain(group: int, buffer: np.ndarray, padded: np.ndarray | None) -> np.ndarray | None:
        idx = corpus.indices_of_subsets([group])
        r = None
        for start in range(0, idx.size, FACTOR_CHUNK):
            chunk = idx[start:start + FACTOR_CHUNK]
            stack = design(buffer, r, n_inputs, chunk.size * n_frames)
            # the frame rows' inputs, clip by clip: a view, so written in place
            inputs = np.reshape(stack[-chunk.size * n_frames:, :n_inputs],
                                (chunk.size, n_frames, n_inputs), copy=False).transpose(0, 2, 1)
            block = [features(i) for i in chunk]
            if node is None:
                frame_means[chunk] = pad_to(block, n_frames, out=inputs).mean(axis=2)
            else:
                frame_means[chunk] = node(pad_to(block, n_frames, out=padded), inputs)
            if factored is None or group in factored:
                r = extend(r, stack, corpus.digits[chunk], [n_frames] * chunk.size)
        return r

    def _share(share: list[int]) -> dict[int, np.ndarray | None | ResonetError]:
        # a share stops at its first failing group; later ones are not run
        padded = None if node is None else np.empty((FACTOR_CHUNK, n_rows, n_frames))
        buffer = design_buffer(n_inputs, FACTOR_CHUNK * n_frames)
        done: dict[int, np.ndarray | None | ResonetError] = {}
        for group in share:
            try:
                done[group] = _chain(group, buffer, padded)
            except ResonetError as exc:
                done[group] = exc
                break
        return done

    shares = [groups[k::workers] for k in range(min(workers, len(groups)))]
    if len(shares) == 1:
        chains = _share(shares[0])
    else:
        with ThreadPoolExecutor(max_workers=len(shares)) as pool:
            chains = {g: r for done in pool.map(_share, shares) for g, r in done.items()}
    factors: dict[int, np.ndarray] = {}
    for group in groups:       # a group missing here follows a failed one in its share
        r = chains.get(group)
        if isinstance(r, ResonetError):
            raise r
        if r is not None:
            factors[group] = r
    return Route(corpus, pipeline, frame_means, factors)


def baseline_route(corpus: Corpus, pipeline: PipelineSpec,
                   factored: Collection[int] | None = None) -> Route:
    """The baseline route of a corpus of ``pipeline``'s front end, its node
    ignored: padded features feed the readout, factored as ``_reduce`` says.
    Its groups run on one thread: its 2765x75 blocks are too small to gain
    from more.  ``sweep`` at ``--workers 2`` with every baseline route's
    groups on two threads took 2.27-2.60 s wall, 3.35-3.78 s CPU and
    77 MiB, against 2.24-2.75 s, 2.94-3.79 s and 73 MiB on one (five runs
    each, 2-vCPU x86_64)."""
    return _reduce(corpus, replace(pipeline, node_kind=None), corpus.features.__getitem__,
                   factored=factored)


def with_node(corpus: Corpus, pipeline: PipelineSpec,
              factored: Collection[int] | None = None, workers: int = 1) -> Route:
    """The total route: the node's frame-mean states as scoring inputs and
    the factors of the groups in ``factored`` (every group when None) as
    training inputs.  ``pipeline`` must be the corpus's front end.

    The input scale maps the largest masked feature magnitude over the
    whole corpus onto ``drive_ma``, so the drive spans +/-drive_ma.  That
    peak must be known before the node's first step, so each clip's masked
    features ``M @ X`` are computed twice, once for the peak and once for
    the drive: holding them for the whole corpus instead would cost
    n_clips x n_theta x n_frames_max floats (173 MB on the default corpus).
    The peak pass runs on one thread: on two it took 0.070-0.108 s wall
    and 0.13-0.17 s CPU against 0.086-0.124 s on one (default corpus,
    ``n_theta`` 400, seven runs each, 2-vCPU x86_64).
    State integration restarts from the rest amplitude at every clip
    boundary.  The node runs one clip at a time, as the single physical
    node does, one block of ``_reduce`` at a time, and writes each clip's
    states straight into the block's design, so a thread holds no state
    buffer of its own; a clip's frame means are summed frame after frame
    from the node's output, before it is written.  The groups run on
    ``workers`` threads (``_reduce``), each group's clips in order, so the
    route has the same bytes at any count; each thread adds one design
    and one padded block (9.7 and 1.3 MiB at ``n_theta`` 400 on the
    default corpus).  Each block's states are
    checked before they are reduced.  Overflow inside the node is not
    warned about: the state check reports it as a ``NumericalError``.
    The node's functions are called through the ``reservoir`` module, so a
    wrapper patched onto it (a tracer's span, a test's reference
    integrator) is what runs.
    """
    n_frames = corpus.n_frames_max
    mask = reservoir.gen_mask(pipeline.mask_seed, pipeline.n_theta, corpus.features[0].n_rows)
    # padded as in its drive block: M @ X over bare frames can differ in the last bit
    peak = max(float(np.abs(mask.entries @ pad_to([fm], n_frames)[0]).max())
               for fm in corpus.features)
    input_gain = pipeline.drive_ma / peak if peak > 0.0 else 0.0

    def _node(padded: np.ndarray, states: np.ndarray) -> np.ndarray:
        means = np.empty((len(padded), pipeline.n_theta))
        with np.errstate(over="ignore", invalid="ignore"):
            for j, x in enumerate(padded):
                drive = input_gain * reservoir.mask_and_flatten(x, mask)
                if pipeline.node_kind == "stno":
                    v = reservoir.stno_run(drive, pipeline.stno)
                else:
                    v = reservoir.node_run_reference(drive, pipeline.tanh)
                clip = reservoir.reshape_states(v, pipeline.n_theta, n_frames)
                means[j] = clip.mean(axis=1)    # frame after frame, as the node ran
                states[j] = clip
        if not np.all(np.isfinite(states)):
            raise NumericalError(f"{pipeline.node_kind} node states have non-finite entries")
        if pipeline.node_kind == "stno" and states.min() < 0.0:
            raise NumericalError("oscillator states must be nonnegative")
        return means

    return replace(_reduce(corpus, pipeline, corpus.features.__getitem__, _node, factored,
                           workers), input_gain=input_gain)


@dataclass(frozen=True)
class FoldMetrics:
    fold: FoldSpec
    train: Metrics
    test: Metrics
    model: ReadoutModel = field(compare=False, repr=False)


def run_fold(fold: FoldSpec, route: Route,
             merged: dict[tuple[int, int], np.ndarray] | None = None) -> FoldMetrics:
    """Train on the factors of the fold's train runs (``_run_factor``,
    which keeps every run factor it merges in ``merged``), score both
    splits."""
    train_idx = route.corpus.indices_of_subsets(fold.train_subsets)
    test_idx = route.corpus.indices_of_subsets(fold.test_subsets)
    if train_idx.size == 0 or test_idx.size == 0:
        raise DataError(f"fold {fold.describe()} has an empty split")
    missing = [k for k in fold.train_subsets if k not in route.factors]
    if missing:
        raise DataError(f"fold {fold.describe()} trains on subset {missing[0]}, "
                        "which the route did not factor")
    merged = {} if merged is None else merged
    model = solve([_run_factor(route, start, stop, merged)
                   for start, stop in fold.train_runs], route.pipeline.readout)
    return FoldMetrics(fold, evaluate(model, route.frame_means[train_idx],
                                      route.corpus.digits[train_idx]),
                       evaluate(model, route.frame_means[test_idx],
                                route.corpus.digits[test_idx]), model)


def _run_factor(route: Route, start: int, stop: int,
                merged: dict[tuple[int, int], np.ndarray]) -> np.ndarray:
    """The readout factor of subsets ``start`` to ``stop - 1``, which the
    route has factored.  A single subset's is the route's own; a longer
    run's is the ``merge`` of the run one subset shorter with that subset,
    in subset order, made once and kept in ``merged``.  A run that ends at
    the last subset grows at its start and any other at its end, so the
    prefixes and the suffixes that the N = 9 folds solve from each form
    one chain of merges."""
    if stop - start == 1:
        return route.factors[start]
    if (start, stop) not in merged:
        if stop == N_SUBSETS:
            parts = [route.factors[start], _run_factor(route, start + 1, stop, merged)]
        else:
            parts = [_run_factor(route, start, stop - 1, merged), route.factors[stop - 1]]
        merged[start, stop] = merge(parts)
    return merged[start, stop]


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


def cross_validate(route: Route, n_train: int) -> CrossValReport:
    """Run every fold, in fold order.

    Every fold solves from the stacked factors of its train runs
    (``FoldSpec.train_runs``), at most min(N, 11 - N) of them, each with
    at most n_inputs rows.  Each run's factor is merged once per call from
    the route's subset factors and shared by every fold that trains on
    it: at N = 9 a fold stacks a prefix and a suffix of the ten subsets,
    800 rows at ``n_theta`` 400 instead of nine subsets' 3 600, after 16
    merges in all.  At N = 1 nothing is merged.  Folds run one after
    another, on one thread whatever ``--workers`` says.  Their solves
    would gain from two: the ten N = 9 solves of ``bench``'s node route
    (``np.linalg.lstsq`` on BLAS's one thread) took 0.17-0.21 s wall on
    two threads against 0.32-0.44 s on one, for the same CPU (seven runs
    each, 2-vCPU x86_64).  A fold pool is not built yet: the run merges
    that folds share are made on first use, inside the folds.
    """
    merged: dict[tuple[int, int], np.ndarray] = {}
    results = [run_fold(f, route, merged) for f in enumerate_folds(n_train)]
    return CrossValReport.from_folds(route.pipeline.describe(), n_train, results)


def alpha_sweep(spectra: Corpus, pipeline: PipelineSpec, alphas: Sequence[float],
                n_train: int) -> list[CrossValReport]:
    """The baseline route's cross-validation at each spectral exponent, in
    the order given.

    ``spectra`` is the corpus through the ``spectro_exp`` front end at
    alpha 1, its max-abs-normalized real spectra; ``pipeline`` sets the
    readout.  Each exponent's features are the ``spectro_exp`` front end's:
    ``exponent_transform`` of each clip's ``spectra.features``, checked as
    a ``FeatureMatrix`` and padded inside ``_reduce``.  Each exponent's
    route runs on one thread, as ``baseline_route`` does and for its
    reason.
    """
    reports = []
    for alpha in (float(a) for a in alphas):

        def _features(i: int) -> FeatureMatrix:
            # at alpha < 0 a zero entry divides by zero or a tiny one
            # overflows; FeatureMatrix then names the clip in a DataError
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                return FeatureMatrix(exponent_transform(spectra.features[i].values, alpha),
                                     "spectro_exp", spectra.clip_ids[i], alpha)

        pipe = replace(pipeline, filter_kind="spectro_exp", alpha=alpha, node_kind=None)
        reports.append(cross_validate(_reduce(spectra, pipe, _features), n_train))
    return reports


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
    n_cell_clips: tuple[int, ...]      # test clips each cell scored, row-major

    @property
    def row_avg(self) -> np.ndarray:
        return self.wsr.mean(axis=1)

    @property
    def col_avg(self) -> np.ndarray:
        return self.wsr.mean(axis=0)

    @property
    def overall(self) -> float:
        return float(self.wsr.mean())


def condition_grid(snrs: Sequence[float], noise_types: Sequence[str]) -> list[tuple[str, float]]:
    """Each stratified cell's (noise_type, snr) condition, row-major: a row
    at an infinite snr is the clean condition in every column."""
    return [("clean", math.inf) if math.isinf(snr) else (ntype, snr)
            for snr in map(float, snrs) for ntype in noise_types]


def stratified_report(manifest: Manifest, pipeline: PipelineSpec,
                      train_utterances: int, *,
                      test_snrs: Sequence[float], test_noise_types: Sequence[str],
                      workers: int = 1) -> ConditionReport:
    """Train once on a mixed-condition pool, test per condition cell.

    Entries with an utterance index below ``train_utterances`` form the
    training pool; everything else is the test pool.  Cell j is the j-th
    condition of ``condition_grid``.
    A synthetic test entry joins every distinct condition, relabeled with
    it; a file-backed one joins the condition that is its manifest tag.
    Each test clip's condition entries follow each other, after the training
    pool, so ``corpus_features`` reads the clip once.  All clips, train and
    test, are padded together and share one input scale.  The readout is
    trained and scored as a fold is: the training pool is group 0 of one
    corpus and the k-th distinct condition group 1 + k, which its cells score.
    """
    if not test_snrs or not test_noise_types:
        raise ConfigError("stratified evaluation needs test snrs and noise types")
    train_entries = [e for e in manifest.entries if e.label.utterance < train_utterances]
    test_entries = [e for e in manifest.entries if e.label.utterance >= train_utterances]
    if not train_entries:
        raise DataError("stratified training pool is empty")
    if not test_entries:
        raise DataError("stratified test pool is empty")

    cells = condition_grid(test_snrs, test_noise_types)
    conditions = list(dict.fromkeys(cells))
    group_of = [1 + conditions.index(c) for c in cells]
    entries, groups = list(train_entries), [0] * len(train_entries)
    for e in test_entries:
        for k, (ntype, snr) in enumerate(conditions):
            if e.is_synthetic or (e.label.noise_type, e.label.snr_db) == (ntype, snr):
                entries.append(replace(e, label=replace(e.label, noise_type=ntype,
                                                        snr_db=snr)))
                groups.append(1 + k)
    n_cell_clips = tuple(np.bincount(groups, minlength=1 + len(conditions))[group_of].tolist())
    for (ntype, snr), n in zip(cells, n_cell_clips):
        if n == 0:
            raise DataError(f"no test clips for condition ({ntype!r}, {snr} dB)")
    corpus = prepare_corpus(replace(manifest, entries=tuple(entries)), groups, pipeline,
                            workers=workers)

    def _grid(route: Route) -> np.ndarray:
        model = solve([route.factors[0]], route.pipeline.readout)
        idx = [corpus.indices_of_subsets([g]) for g in group_of]
        wsr = [evaluate(model, route.frame_means[i], corpus.digits[i]).wsr for i in idx]
        return np.array(wsr).reshape(len(test_snrs), len(test_noise_types))

    # only the training pool is factored; cells need frame means alone
    base = _grid(baseline_route(corpus, pipeline, factored=(0,)))
    if pipeline.node_kind is None:
        wsr, gain = base, None
    else:
        wsr = _grid(with_node(corpus, pipeline, factored=(0,), workers=workers))
        gain = wsr - base
    return ConditionReport(tuple(float(s) for s in test_snrs),
                           tuple(test_noise_types), wsr, gain,
                           n_train_clips=len(train_entries),
                           n_cell_clips=n_cell_clips)


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


def summary_markdown(baseline: CrossValReport, total: CrossValReport | None = None,
                     header_lines: Sequence[str] = ()) -> str:
    """The bench summary: one table row per route and, when the total
    route ran, the reservoir gain, total minus baseline test WSR in points.

    The gain compares the two routes fold by fold, so both must have run
    the same folds; a ``DataError`` says when they did not.
    """
    reports = [baseline]
    if total is not None:
        if [f.fold for f in baseline.folds] != [f.fold for f in total.folds]:
            raise DataError(f"the gain needs the same folds on both routes, got "
                            f"N={baseline.n_train} vs N={total.n_train}")
        reports.append(total)
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
    if total is not None:
        out.append(f"Reservoir gain: **{total.test.wsr - baseline.test.wsr:+.1f} points** "
                   f"(total {total.test.wsr:.1f} vs baseline "
                   f"{baseline.test.wsr:.1f}, N={total.n_train}).")
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
    lo, hi = min(report.n_cell_clips), max(report.n_cell_clips)
    out.append(f"Trained on {report.n_train_clips} clips; "
               f"{lo if lo == hi else f'{lo} to {hi}'} test clips per cell population.")
    return "\n".join(out) + "\n"
