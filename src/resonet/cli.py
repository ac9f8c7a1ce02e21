"""Command-line front end.

Subcommands:

* ``synth-corpus``     write a synthetic corpus manifest
* ``featurize``        build per-clip feature caches
* ``bench``            cross-validated baseline (and, with a node, total + gain)
* ``sweep``            baseline WSR versus spectral exponent
* ``export-features``  flat per-frame CSV for embedding/visualization tools
* ``stratified``       train on mixed conditions, test per noise condition

Everything a run computes is in the config file, and all of it is hashed;
``--out`` and ``--workers`` say only where a run writes and how many
threads it uses, and ``--seed-override`` rewrites the config before hashing.
Every subcommand shares one entry path: ``main`` checks ``--workers``,
loads the config once, applies the seed overrides and calls
``cmd_<name>(cfg, args)``.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
error.  The cache root is ``$RESONET_CACHE_DIR`` when set (a leading ``~``
is the home directory), otherwise ``<--out>/cache``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import cachefile
from .config import GENERATOR_NAME, RunConfig, apply_seed_overrides, parse_config
from .dataset import save_manifest
from .errors import ConfigError, ResonetError
from .evalharness import (Corpus, alpha_sweep, baseline_route, corpus_features,
                          condition_markdown, cross_validate, prepare_corpus,
                          report_to_csv, stratified_report, summary_markdown, with_node)
from .filterbank import exponent_transform

PARITY_ALPHA_THRESHOLD = 100.0


def _header_lines(cfg: RunConfig) -> list[str]:
    return [f"config {cfg.config_hash()}", f"generator {GENERATOR_NAME}"]


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _feature_cache(cfg: RunConfig, args) -> Path:
    env = os.environ.get("RESONET_CACHE_DIR")
    root = Path(env).expanduser() if env else _out_dir(args) / "cache"
    return root / cfg.feature_hash()


def cmd_synth_corpus(cfg: RunConfig, args) -> int:
    if cfg["corpus.kind"] != "synthetic":
        raise ConfigError("synth-corpus needs corpus.kind = synthetic")
    manifest = cfg.manifest()
    out = _out_dir(args)
    path = out / "manifest.csv"
    save_manifest(manifest, path)
    print(f"wrote {len(manifest)} clips to {path}")
    return 0


def cmd_featurize(cfg: RunConfig, args) -> int:
    cache = _feature_cache(cfg, args)
    feats = corpus_features(cfg.manifest(), cfg.pipeline(), workers=args.workers,
                            cache=cache)
    written = skipped = 0
    for fm in feats:
        # only this loop writes the files, so one that exists was read and checked
        path = cachefile.feature_cache_path(cache, fm.clip_id)
        if path.exists():
            skipped += 1
            continue
        cachefile.write_feature_cache(path, fm, cfg.feature_hash())
        written += 1
    print(f"feature cache {cache}: {written} written, {skipped} already current")
    return 0


def cmd_bench(cfg: RunConfig, args) -> int:
    manifest, partition = cfg.load_corpus()
    pipeline = cfg.pipeline()
    n_train = cfg["eval.train_subsets"]
    out = _out_dir(args)
    header = _header_lines(cfg)

    corpus = prepare_corpus(manifest, partition.groups(manifest), pipeline,
                            workers=args.workers, cache=_feature_cache(cfg, args))
    baseline = cross_validate(baseline_route(corpus, pipeline), n_train)
    (out / "report_baseline.csv").write_text(report_to_csv(baseline, header))
    total = None

    if pipeline.node_kind is not None:
        total = cross_validate(with_node(corpus, pipeline, workers=args.workers), n_train)
        (out / "report_total.csv").write_text(report_to_csv(total, header))
        for i, fm in enumerate(total.folds):
            cachefile.write_model(out / "models" / f"fold_{i:03d}.rnbm", fm.model,
                                  filter_kind=pipeline.filter_kind,
                                  node_kind=pipeline.node_kind, alpha=pipeline.alpha,
                                  trained_on=fm.fold.describe(),
                                  config_hash=cfg.config_hash())

    (out / "summary.md").write_text(summary_markdown(baseline, total, header))
    print(f"baseline test WSR {baseline.test.wsr:.2f} (std {baseline.test.wsr_std:.2f})")
    if total is not None:
        print(f"total test WSR {total.test.wsr:.2f} (std {total.test.wsr_std:.2f}); "
              f"gain {total.test.wsr - baseline.test.wsr:+.2f} points")
    print(f"reports written to {out}")
    return 0


def cmd_sweep(cfg: RunConfig, args) -> int:
    manifest, partition = cfg.load_corpus()
    pipeline = cfg.pipeline()
    n_train = cfg["eval.train_subsets"]
    alphas = cfg["sweep.alphas"]
    if not alphas:
        raise ConfigError("alpha sweep needs at least one exponent")
    out = _out_dir(args)

    # one spectrum pass, the spectro_exp front end at alpha 1, serves every exponent
    spectra = prepare_corpus(manifest, partition.groups(manifest),
                             replace(pipeline, filter_kind="spectro_exp", alpha=1.0),
                             workers=args.workers)
    tests = [r.test for r in alpha_sweep(spectra, pipeline, alphas, n_train)]
    lines = [f"# {h}" for h in _header_lines(cfg)]
    lines.append("alpha,wsr_mean,wsr_std")
    for alpha, test in zip(alphas, tests):
        lines.append(f"{alpha!r},{test.wsr!r},{test.wsr_std!r}")
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")

    big = [a for a in alphas if a >= PARITY_ALPHA_THRESHOLD]
    if big:
        _write_parity_diagnostic(cfg, spectra, max(big), out)
    for alpha, test in zip(alphas, tests):
        print(f"alpha={alpha:g}: test WSR {test.wsr:.2f} (std {test.wsr_std:.2f})")
    print(f"sweep written to {out/'sweep.csv'}")
    return 0


def _write_parity_diagnostic(cfg: RunConfig, spectra: Corpus,
                             alpha: float, out: Path) -> None:
    """Count which normalized entries of the sweep's spectra survive a
    huge exponent, clip by clip over its true frames.

    Only magnitude-1 entries survive: they land on +1, or on -1 when the
    entry is negative and the integer part of the exponent is odd.
    """
    lines = [f"# {h}" for h in _header_lines(cfg)]
    lines.append(f"# alpha = {alpha!r}")
    lines.append("clip_id,digit,n_plus_one,n_minus_one,max_other")
    for clip_id, digit, fm in zip(spectra.clip_ids, spectra.digits, spectra.features):
        r = exponent_transform(fm.values, alpha)
        plus = int(np.sum(r == 1.0))
        minus = int(np.sum(r == -1.0))
        others = np.abs(r[(r != 1.0) & (r != -1.0)])
        max_other = float(others.max()) if others.size else 0.0
        lines.append(f"{clip_id},{digit},{plus},{minus},{max_other!r}")
    (out / "parity.csv").write_text("\n".join(lines) + "\n")


def cmd_export_features(cfg: RunConfig, args) -> int:
    manifest = cfg.manifest()
    out = _out_dir(args)
    feats = corpus_features(manifest, cfg.pipeline(), workers=args.workers,
                            cache=_feature_cache(cfg, args))
    cols = ["clip_id", "digit", "speaker", "utterance", "noise_type", "snr_db", "frame"]
    path = out / "features.csv"
    n_data = 0
    with path.open("w") as fh:
        for h in _header_lines(cfg):
            fh.write(f"# {h}\n")
        for i, (entry, fm) in enumerate(zip(manifest.entries, feats)):
            if i == 0:      # the feature count is known from the first clip on
                fh.write(",".join(cols + [f"x{j}" for j in range(fm.n_rows)]) + "\n")
            label = entry.label
            snr = "inf" if math.isinf(label.snr_db) else repr(label.snr_db)
            prefix = f"{entry.clip_id},{label.digit},{label.speaker},{label.utterance}," \
                     f"{label.noise_type},{snr}"
            # Python floats: numpy 2's repr of a numpy scalar reads np.float64(...)
            frames = fm.values.T.tolist()
            for tau, row in enumerate(frames):
                fh.write(f"{prefix},{tau},{','.join(map(repr, row))}\n")
            n_data += len(frames)
    print(f"wrote {n_data} feature rows to {path}")
    return 0


def cmd_stratified(cfg: RunConfig, args) -> int:
    manifest = cfg.manifest()
    pipeline = cfg.pipeline()
    out = _out_dir(args)
    report = stratified_report(
        manifest, pipeline, cfg["strat.train_utterances"],
        test_snrs=cfg["strat.test_snrs"],
        test_noise_types=cfg["strat.test_noise_types"], workers=args.workers)
    (out / "conditions.md").write_text(condition_markdown(report, _header_lines(cfg)))
    print(f"overall WSR {report.overall:.2f} over "
          f"{len(report.snrs)}x{len(report.noise_types)} conditions")
    print(f"report written to {out/'conditions.md'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resonet",
        description="Spoken-digit ablation benchmark: filterbank nonlinearity "
                    "versus single-oscillator reservoir gain.")
    sub = parser.add_subparsers(dest="command", required=True)

    # built per call: a ``cmd_*`` attribute replaced after import (as perfbench's
    # tracer does) is the one dispatched to
    commands = (
        ("synth-corpus", cmd_synth_corpus, "write a synthetic corpus manifest"),
        ("featurize", cmd_featurize, "build per-clip feature caches"),
        ("bench", cmd_bench, "cross-validated benchmark with optional reservoir"),
        ("sweep", cmd_sweep, "baseline WSR versus spectral exponent"),
        ("export-features", cmd_export_features, "flat per-frame feature CSV"),
        ("stratified", cmd_stratified, "train mixed, test per noise condition"),
    )
    for name, func, help_text in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--workers", type=int, default=1,
                       help="threads that realize and featurize clips in featurize, "
                            "bench, sweep, stratified and export-features (one for the "
                            "cochlear front end), and that run the node route's subsets "
                            "in bench and stratified; BLAS always runs on one thread "
                            "(default: 1)")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed-override", action="append", default=[],
                       metavar="NAME=VALUE",
                       help="override a seed, e.g. mask_seed=9 (repeatable)")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        cfg = parse_config(args.config)
        if args.seed_override:
            cfg = apply_seed_overrides(cfg, args.seed_override)
        return args.func(cfg, args)
    except ResonetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
