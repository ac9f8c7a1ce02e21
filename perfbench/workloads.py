"""The four benchmark workloads: how each one runs, and how its outputs are checked.

Every workload runs on a 500-clip seeded synthetic corpus.  The benchmark
seed picks the corpus seed from ``CORPUS_SEEDS``: even seeds run the
default corpus (``synth_seed`` 1001, the one behind the README's golden
numbers) and odd seeds an alternate corpus (``synth_seed`` 1002) that no
golden number was tuned on.  Each corpus has a reference in
``perfbench/refs`` recorded from the program by ``record_refs.py``, so
every output of every run is checked against values the program produced
at the commit that defined the benchmark.  featurize-cochlear runs on a
fixed sample of each corpus's clips, chosen by the corpus seed, so the
reference holds its features entry by entry.  Why each workload exists is
written in BENCHMARK.json and WORKLOADS.md.

This module uses only the standard library.
"""

from __future__ import annotations

import json
import lzma
import random
import re
import sys
from array import array
from pathlib import Path

CORPUS_SEEDS = (1001, 1002)
N_CLIPS = 500
FEATURIZE_CLIPS = 24          # clips per featurize-cochlear operation, about 13 s
MSE_RTOL = 1e-6               # per-fold MSE: exact-in-theory readouts pass, wrong ones fail
WSR_ATOL = 1e-9               # mean WSRs over folds, in percent
FEATURE_RTOL = 1e-12          # cochlear features, entry by entry, relative ...
FEATURE_ATOL = 1e-14          # ... plus this share of the clip's largest entry (zeros)

REFS_DIR = Path(__file__).resolve().parent / "refs"

# Golden results on the default corpus (synth_seed 1001): the README's bench
# and sweep WSRs, and the stratified grid of the default configuration
GOLDEN = {
    "bench": {"baseline": "60.6", "total": "69.8", "gain": "+9.2"},
    "sweep": ["10.0", "61.2", "62.4", "8.6", "60.6", "57.0"],
    "stratified": [["75.00 (+11.00)"], ["74.00 (+10.00)"], ["70.00 (+8.00)"]],
}


def corpus_seed(seed: int) -> int:
    return CORPUS_SEEDS[seed % len(CORPUS_SEEDS)]


def _features_path(corpus: int) -> Path:
    return REFS_DIR / f"features_{corpus}.bin.xz"


def load_ref(corpus: int) -> dict:
    refs = json.loads((REFS_DIR / f"corpus_{corpus}.json").read_text())
    refs[Featurize.name]["values"] = _floats(lzma.decompress(
        _features_path(corpus).read_bytes()))
    return refs


def save_features(corpus: int, values: array) -> None:
    """Store featurize-cochlear's reference features, as ``load_ref`` reads them."""
    little = array("d", values)
    if sys.byteorder == "big":
        little.byteswap()
    _features_path(corpus).write_bytes(lzma.compress(little.tobytes()))


def _floats(data: bytes) -> array:
    """Little-endian float64 values."""
    values = array("d", data)
    if sys.byteorder == "big":
        values.byteswap()
    return values


def _cli(command: str, config: Path, out: Path, workers: int, corpus: int) -> list[str]:
    return [sys.executable, "-m", "resonet.cli", command, "--config", str(config),
            "--out", str(out), "--workers", str(workers),
            "--seed-override", f"synth_seed={corpus}"]


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


# -- bench-a2-stno ------------------------------------------------------------

def _read_report(path: Path) -> dict:
    rows = [ln.split(",") for ln in path.read_text().splitlines()
            if ln and not ln.startswith("#")]
    body = rows[1:]
    folds = [{"train_subsets": r[1], "train_wsr": float(r[2]), "train_mse": float(r[3]),
              "test_wsr": float(r[4]), "test_mse": float(r[5])}
             for r in body if r[0].isdigit()]
    mean = next(r for r in body if r[0] == "mean")
    return {"folds": folds, "test_wsr": float(mean[4])}


_GAIN = re.compile(r"Reservoir gain: \*\*([+-][\d.]+) points\*\* "
                   r"\(total ([\d.]+) vs baseline ([\d.]+)")


class Bench:
    name = "bench-a2-stno"
    config = ("filter.kind = spectro_exp\nfilter.alpha = 2.0\n"
              "node.kind = stno\nnode.n_theta = 400\neval.train_subsets = 9\n")
    smoke_config = config.replace("400", "20").replace("= 9", "= 1")
    workers = 2

    def argv(self, ctx) -> list[str]:
        return _cli("bench", ctx.config, ctx.out, ctx.workers or self.workers, ctx.corpus)

    def parse(self, ctx) -> dict:
        gain = _GAIN.search((ctx.out / "summary.md").read_text())
        models = sorted((ctx.out / "models").glob("fold_*.rnbm"))
        return {"baseline": _read_report(ctx.out / "report_baseline.csv"),
                "total": _read_report(ctx.out / "report_total.csv"),
                "summary": list(gain.groups()),
                "models": {p.name: p.stat().st_size for p in models}}

    def check(self, got: dict, ref: dict, golden: bool) -> list[str]:
        errors = []
        if golden:
            g = GOLDEN["bench"]
            if got["summary"] != [g["gain"], g["total"], g["baseline"]]:
                errors.append(f"summary gain/total/baseline {got['summary']} != golden")
        if not ref:
            return errors + _shape_errors(got)
        if got["summary"] != ref["summary"]:
            errors.append(f"summary {got['summary']} != reference {ref['summary']}")
        if got["models"] != ref["models"]:
            errors.append("models/ files or sizes differ from the reference")
        for route in ("baseline", "total"):
            mine, theirs = got[route]["folds"], ref[route]["folds"]
            if [f["train_subsets"] for f in mine] != [f["train_subsets"] for f in theirs]:
                errors.append(f"{route}: fold list differs from the reference")
                continue
            for f, r in zip(mine, theirs):
                if f["test_wsr"] != r["test_wsr"]:
                    errors.append(f"{route} fold {f['train_subsets']}: test WSR "
                                  f"{f['test_wsr']} != {r['test_wsr']}")
                for key in ("train_mse", "test_mse"):
                    if not _close(f[key], r[key], MSE_RTOL):
                        errors.append(f"{route} fold {f['train_subsets']}: {key} "
                                      f"{f[key]!r} != {r[key]!r} within {MSE_RTOL}")
        return errors


def _shape_errors(got: dict) -> list[str]:
    """Checks that hold on any configuration (smoke mode)."""
    errors = []
    if len(got["models"]) != 10:
        errors.append(f"expected 10 models, got {len(got['models'])}")
    for route in ("baseline", "total"):
        if len(got[route]["folds"]) != 10:
            errors.append(f"{route}: expected 10 folds")
    return errors


# -- sweep-alpha --------------------------------------------------------------

class Sweep:
    name = "sweep-alpha"
    config = "filter.kind = spectro_exp\n"
    smoke_config = config + "sweep.alphas = 2\neval.train_subsets = 1\n"
    workers = 1

    def argv(self, ctx) -> list[str]:
        return _cli("sweep", ctx.config, ctx.out, ctx.workers or self.workers, ctx.corpus)

    def parse(self, ctx) -> dict:
        lines = [ln for ln in (ctx.out / "sweep.csv").read_text().splitlines()
                 if ln and not ln.startswith("#")][1:]
        points = [[float(v) for v in ln.split(",")] for ln in lines]
        return {"alphas": [p[0] for p in points], "wsr": [p[1] for p in points],
                "wsr_std": [p[2] for p in points]}

    def check(self, got: dict, ref: dict, golden: bool) -> list[str]:
        errors = []
        if golden:
            rounded = [f"{w:.1f}" for w in got["wsr"]]
            if rounded != GOLDEN["sweep"]:
                errors.append(f"sweep WSRs {rounded} != golden {GOLDEN['sweep']}")
        if not ref:
            return errors + ([] if got["wsr"] else ["sweep.csv has no points"])
        if got["alphas"] != ref["alphas"]:
            return errors + [f"alphas {got['alphas']} != {ref['alphas']}"]
        for key in ("wsr", "wsr_std"):
            for a, x, r in zip(got["alphas"], got[key], ref[key]):
                if abs(x - r) > WSR_ATOL:
                    errors.append(f"alpha={a}: {key} {x!r} != {r!r}")
        return errors


# -- stratified-stno ----------------------------------------------------------

class Stratified:
    name = "stratified-stno"
    config = "filter.kind = spectro_exp\nfilter.alpha = 2.0\nnode.kind = stno\n"
    smoke_config = config + "node.n_theta = 20\n"
    workers = 1

    def argv(self, ctx) -> list[str]:
        return _cli("stratified", ctx.config, ctx.out, ctx.workers or self.workers,
                    ctx.corpus)

    def parse(self, ctx) -> dict:
        rows = [ln.strip("|").split("|") for ln in
                (ctx.out / "conditions.md").read_text().splitlines() if ln.startswith("| ")]
        grid = [[c.strip() for c in r[1:-1]] for r in rows[1:] if r[0].strip() != "avg"]
        return {"grid": grid}

    def check(self, got: dict, ref: dict, golden: bool) -> list[str]:
        errors = []
        if golden and got["grid"] != GOLDEN["stratified"]:
            errors.append(f"grid {got['grid']} != golden {GOLDEN['stratified']}")
        if not ref:
            return errors + ([] if got["grid"] else ["conditions.md has no grid"])
        if got["grid"] != ref["grid"]:
            errors.append(f"grid {got['grid']} != reference {ref['grid']}")
        return errors


# -- featurize-cochlear -------------------------------------------------------

def featurize_sample(corpus: int) -> list[int]:
    """The clips featurize-cochlear runs on: fixed per corpus, chosen by its seed."""
    return sorted(random.Random(corpus).sample(range(N_CLIPS), FEATURIZE_CLIPS))


class Featurize:
    name = "featurize-cochlear"
    config = "filter.kind = cochlear\n"
    smoke_config = config
    workers = 1

    def argv(self, ctx) -> list[str]:
        clips = featurize_sample(ctx.corpus)[:1 if ctx.smoke else None]
        return [sys.executable, str(ctx.root / "perfbench" / "featurize_op.py"),
                str(ctx.config), str(ctx.cache), str(ctx.out), str(ctx.corpus),
                ",".join(map(str, clips))]

    def parse(self, ctx) -> dict:
        got = json.loads((ctx.out / "features.json").read_text())
        got["values"] = _floats((ctx.out / "features.bin").read_bytes())
        return got

    def check(self, got: dict, ref: dict, golden: bool) -> list[str]:
        errors = [] if got["roundtrip_ok"] else ["a cache read differs from what was written"]
        size = sum(rows * cols for _, rows, cols in got["clips"])
        if len(got["values"]) != size:
            errors.append(f"features.bin holds {len(got['values'])} values, "
                          f"the clip shapes {size}")
        if not ref:
            return errors
        if got["clips"] != ref["clips"]:
            return errors + [f"clips {got['clips']} != reference {ref['clips']}"]
        start = 0
        for clip_id, rows, cols in ref["clips"]:
            end = start + rows * cols
            mine, theirs = got["values"][start:end], ref["values"][start:end]
            atol = FEATURE_ATOL * max(map(abs, theirs))
            bad = sum(abs(a - b) > FEATURE_RTOL * abs(b) + atol for a, b in zip(mine, theirs))
            if bad:
                errors.append(f"{clip_id}: {bad} of {rows * cols} feature values differ "
                              f"from the reference by more than {FEATURE_RTOL} relative")
            start = end
        return errors


WORKLOADS = {w.name: w for w in (Bench(), Sweep(), Stratified(), Featurize())}
