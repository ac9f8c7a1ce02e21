"""Command-line front end.

Subcommands:

* ``synth-corpus``     write a synthetic corpus manifest
* ``featurize``        build per-clip feature caches
* ``bench``            cross-validated baseline (and, with a node, total + gain)
* ``sweep``            baseline WSR versus spectral exponent
* ``export-features``  flat per-frame CSV for embedding/visualization tools
* ``stratified``       train on mixed conditions, test per noise condition

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
error.  The cache root is ``$RESONET_CACHE_DIR`` when set, otherwise
``<output.dir>/cache``.
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
from .config import (GENERATOR_NAME, RunConfig, _parse_floats, apply_seed_overrides,
                     parse_config)
from .dataset import Manifest, save_manifest
from .errors import ConfigError, ResonetError
from .evalharness import (GainReport, PipelineSpec, clip_features,
                          condition_markdown, cross_validate, prepare_corpus,
                          report_to_csv, stratified_report, summary_markdown,
                          with_node)

PARITY_ALPHA_THRESHOLD = 100.0


def _header_lines(cfg: RunConfig) -> list[str]:
    return [f"config {cfg.config_hash()}", f"generator {GENERATOR_NAME}"]


def _out_dir(cfg: RunConfig, args) -> Path:
    out = Path(args.out) if args.out else Path(cfg["output.dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cache_root(cfg: RunConfig, args) -> Path:
    env = os.environ.get("RESONET_CACHE_DIR")
    if env:
        return Path(env)
    return _out_dir(cfg, args) / "cache"


def _load_config(args) -> RunConfig:
    cfg = parse_config(args.config)
    if args.seed_override:
        cfg = apply_seed_overrides(cfg, args.seed_override)
    return cfg


def _workers(cfg: RunConfig, args) -> int:
    if args.workers < 0:
        raise ConfigError(f"--workers must be >= 0, got {args.workers}")
    return args.workers if args.workers else cfg["eval.workers"]


def cmd_synth_corpus(args) -> int:
    cfg = _load_config(args)
    if cfg["corpus.kind"] != "synthetic":
        raise ConfigError("synth-corpus needs corpus.kind = synthetic")
    manifest, _ = cfg.load_corpus()
    out = _out_dir(cfg, args)
    path = out / "manifest.csv"
    save_manifest(manifest, path)
    print(f"wrote {len(manifest)} clips to {path}")
    return 0


def cmd_featurize(args) -> int:
    cfg = _load_config(args)
    manifest, partition = cfg.load_corpus()
    pipeline = cfg.pipeline()
    cache_dir = _cache_root(cfg, args) / cfg.feature_hash()
    written = skipped = 0
    for entry in manifest.entries:
        path = cache_dir / f"{entry.clip_id}.rnbf"
        if path.exists():
            cachefile.read_feature_cache(path, cfg.feature_hash())
            skipped += 1
            continue
        fm = clip_features(entry, pipeline, sample_rate=manifest.sample_rate,
                           noise_seed=cfg["corpus.noise_seed"])
        cachefile.write_feature_cache(path, fm, cfg.feature_hash())
        written += 1
    print(f"feature cache {cache_dir}: {written} written, {skipped} already current")
    return 0


def _load_cached_features(cfg: RunConfig, manifest: Manifest, cache_dir: Path):
    feats = {}
    if not cache_dir.exists():
        return feats
    for entry in manifest.entries:
        path = cache_dir / f"{entry.clip_id}.rnbf"
        if path.exists():
            feats[entry.clip_id] = cachefile.read_feature_cache(path, cfg.feature_hash())
    return feats


def cmd_bench(args) -> int:
    cfg = _load_config(args)
    manifest, partition = cfg.load_corpus()
    pipeline = cfg.pipeline()
    n_train = cfg["eval.train_subsets"]
    out = _out_dir(cfg, args)
    header = _header_lines(cfg)
    cached = _load_cached_features(cfg, manifest, _cache_root(cfg, args) / cfg.feature_hash())

    base_prep = prepare_corpus(manifest, partition, replace(pipeline, node_kind=None),
                               noise_seed=cfg["corpus.noise_seed"],
                               workers=_workers(cfg, args), features=cached or None)
    baseline = cross_validate(base_prep, n_train)
    (out / "report_baseline.csv").write_text(report_to_csv(baseline, header))
    reports = [baseline]
    gain = None

    if pipeline.node_kind is not None:
        prep = with_node(base_prep, pipeline)
        total = cross_validate(prep, n_train)
        (out / "report_total.csv").write_text(report_to_csv(total, header))
        reports.append(total)
        gain = GainReport(baseline, total)
        for i, fm in enumerate(total.folds):
            cachefile.write_model(out / "models" / f"fold_{i:03d}.rnbm", fm.model,
                                  filter_kind=pipeline.filter_kind,
                                  node_kind=pipeline.node_kind, alpha=pipeline.alpha,
                                  trained_on=fm.fold.describe(),
                                  config_hash=cfg.config_hash())

    (out / "summary.md").write_text(summary_markdown(reports, gain, header))
    print(f"baseline test WSR {baseline.test.wsr:.2f} (std {baseline.test.wsr_std:.2f})")
    if gain is not None:
        print(f"total test WSR {gain.total.test.wsr:.2f} "
              f"(std {gain.total.test.wsr_std:.2f}); gain {gain.gain_points:+.2f} points")
    print(f"reports written to {out}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    manifest, partition = cfg.load_corpus()
    pipeline = cfg.pipeline()
    workers = _workers(cfg, args)
    n_train = cfg["eval.train_subsets"]
    alphas = _parse_floats(args.alphas, "--alphas") if args.alphas \
        else cfg["sweep.alphas"]
    out = _out_dir(cfg, args)

    from .evalharness import alpha_sweep
    points = alpha_sweep(manifest, partition, pipeline, alphas, n_train,
                         noise_seed=cfg["corpus.noise_seed"], workers=workers)
    lines = [f"# {h}" for h in _header_lines(cfg)]
    lines.append("alpha,wsr_mean,wsr_std")
    for p in points:
        lines.append(f"{p.alpha!r},{p.wsr!r},{p.wsr_std!r}")
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")

    big = [a for a in alphas if a >= PARITY_ALPHA_THRESHOLD]
    if big:
        _write_parity_diagnostic(cfg, manifest, pipeline, max(big), out)
    for p in points:
        print(f"alpha={p.alpha:g}: test WSR {p.wsr:.2f} (std {p.wsr_std:.2f})")
    print(f"sweep written to {out/'sweep.csv'}")
    return 0


def _write_parity_diagnostic(cfg: RunConfig, manifest: Manifest,
                             pipeline: PipelineSpec, alpha: float, out: Path) -> None:
    """Count which normalized entries survive a huge exponent.

    Only magnitude-1 entries survive: they land on +1, or on -1 when the
    entry is negative and the integer part of the exponent is odd.
    """
    exp_pipeline = replace(pipeline, filter_kind="spectro_exp", alpha=alpha)
    lines = [f"# {h}" for h in _header_lines(cfg)]
    lines.append(f"# alpha = {alpha!r}")
    lines.append("clip_id,digit,n_plus_one,n_minus_one,max_other")
    for entry in manifest.entries:
        r = clip_features(entry, exp_pipeline, sample_rate=manifest.sample_rate,
                          noise_seed=cfg["corpus.noise_seed"]).values
        plus = int(np.sum(r == 1.0))
        minus = int(np.sum(r == -1.0))
        others = np.abs(r[(r != 1.0) & (r != -1.0)])
        max_other = float(others.max()) if others.size else 0.0
        lines.append(f"{entry.clip_id},{entry.label.digit},{plus},{minus},{max_other!r}")
    (out / "parity.csv").write_text("\n".join(lines) + "\n")


def cmd_export_features(args) -> int:
    cfg = _load_config(args)
    manifest, partition = cfg.load_corpus()
    pipeline = cfg.pipeline()
    out = _out_dir(cfg, args)
    cached = _load_cached_features(cfg, manifest, _cache_root(cfg, args) / cfg.feature_hash())
    prep = prepare_corpus(manifest, partition, replace(pipeline, node_kind=None),
                          noise_seed=cfg["corpus.noise_seed"],
                          workers=_workers(cfg, args), features=cached or None,
                          factored=())
    n_rows = prep.tensors.shape[1]
    cols = ["clip_id", "digit", "speaker", "utterance", "noise_type", "snr_db",
            "frame"] + [f"x{j}" for j in range(n_rows)]
    by_id = {e.clip_id: e for e in manifest.entries}
    path = out / "features.csv"
    n_data = 0
    with path.open("w") as fh:
        for h in _header_lines(cfg):
            fh.write(f"# {h}\n")
        fh.write(",".join(cols) + "\n")
        for i, cid in enumerate(prep.clip_ids):
            label = by_id[cid].label
            snr = "inf" if math.isinf(label.snr_db) else repr(label.snr_db)
            prefix = f"{cid},{label.digit},{label.speaker},{label.utterance}," \
                     f"{label.noise_type},{snr}"
            mat = prep.tensors[i]
            for tau in range(mat.shape[1]):
                vals = ",".join(repr(v) for v in mat[:, tau])
                fh.write(f"{prefix},{tau},{vals}\n")
            n_data += mat.shape[1]
    print(f"wrote {n_data} feature rows to {path}")
    return 0


def cmd_stratified(args) -> int:
    cfg = _load_config(args)
    manifest, _ = cfg.load_corpus()
    pipeline = cfg.pipeline()
    out = _out_dir(cfg, args)
    report = stratified_report(
        manifest, pipeline, cfg["strat.train_utterances"],
        test_snrs=cfg["strat.test_snrs"],
        test_noise_types=cfg["strat.test_noise_types"],
        noise_seed=cfg["corpus.noise_seed"],
        workers=_workers(cfg, args))
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

    def common(p):
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--workers", type=int, default=0,
                       help="threads that realize and featurize clips in bench, "
                            "sweep, stratified and export-features "
                            "(default: eval.workers)")
        p.add_argument("--out", default="", help="output directory (default: output.dir)")
        p.add_argument("--seed-override", action="append", default=[],
                       metavar="NAME=VALUE",
                       help="override a seed, e.g. mask_seed=9 (repeatable)")

    p = sub.add_parser("synth-corpus", help="write a synthetic corpus manifest")
    common(p)
    p.set_defaults(func=cmd_synth_corpus)

    p = sub.add_parser("featurize", help="build per-clip feature caches")
    common(p)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("bench", help="cross-validated benchmark with optional reservoir")
    common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep", help="baseline WSR versus spectral exponent")
    common(p)
    p.add_argument("--alphas", default="", help="comma-separated exponents")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-features", help="flat per-frame feature CSV")
    common(p)
    p.set_defaults(func=cmd_export_features)

    p = sub.add_parser("stratified", help="train mixed, test per noise condition")
    common(p)
    p.set_defaults(func=cmd_stratified)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResonetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
