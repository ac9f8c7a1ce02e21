"""resonet benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--workers W] [--smoke] [--spans FILE]

Run it from the root of a resonet checkout; it runs the program from
``src`` there and writes only under ``.perfbench_tmp`` in that root.

A run first times three fresh set-up processes; ``setup_s`` is their
median.  The first one also records provenance, and it warms the OS file
cache for the rest, so the median drops it when it ran cold.  With
``--trace 0`` the run then runs
the workload's operation, each in a fresh process with fresh output and
cache directories, until ``--seconds`` have passed (at least once), and
reports the median wall time, CPU time and peak RSS of the operations,
measured from outside the process.  With ``--trace 1`` it runs the
operation once untraced and once under ``tracer.py`` and reports the
per-layer metrics of the traced run.  Every operation's outputs are
checked against the reference for the run's corpus, and the output and
cache trees of all operations in a run must be byte-identical.  The
samples line carries each tree's digest, so that ``compare.py`` can hold
every run of a series on one corpus to the same bytes.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The lines before it give the provenance and every sample.  ``--smoke``
runs each workload on a reduced configuration (small reservoir, one
exponent, one clip) that checks only the shape of the outputs; the
self-test uses it to check that every metric is emitted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import layer_metrics  # noqa: E402
from workloads import CORPUS_SEEDS, WORKLOADS, corpus_seed, load_ref  # noqa: E402

SETUP_REPEATS = 3
OP_TIMEOUT_S = 170
TMP_NAME = ".perfbench_tmp"


@dataclass
class OpContext:
    root: Path
    config: Path
    out: Path
    cache: Path
    corpus: int
    smoke: bool
    workers: int


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    log: str


def run_process(argv: list[str], root: Path, env: dict, log_path: Path,
                timeout_s: float = OP_TIMEOUT_S) -> Sample:
    """Run one process to completion, timing it and reading its rusage."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode, log_path.read_text(errors="replace")[-2000:])


def run_operation(workload, ctx: OpContext, env: dict, spans: Path | None = None) -> Sample:
    """Run one operation of the workload in a fresh process with fresh output
    and cache directories (under tracer.py when ``spans`` names its output)."""
    ctx.out.mkdir(parents=True)
    ctx.cache.mkdir(parents=True)
    argv = workload.argv(ctx)
    if spans:
        argv = [argv[0], str(HERE / "tracer.py"), str(spans)] + argv[1:]
    return run_process(argv, ctx.root, dict(env, RESONET_CACHE_DIR=str(ctx.cache)),
                       ctx.out.parent / "op.log")


def tree_digest(*dirs: Path, pattern: str = "*") -> str:
    """Digest of the relative path and bytes of every matching file under the dirs."""
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(p for p in d.rglob(pattern) if p.is_file()):
            h.update(str(path.relative_to(d)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def child_env(root: Path) -> dict:
    """Environment of every process a run starts: the checkout's src on the
    path, and no bytecode written into it."""
    path = [str(root / "src")] + ([os.environ["PYTHONPATH"]]
                                  if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(path))


class Run:
    """One run: its set-up probes, its operations, their checks and the result."""

    def __init__(self, args, root: Path, tmp: Path):
        self.args = args
        self.root = root
        self.tmp = tmp
        self.workload = WORKLOADS[args.workload]
        self.corpus = corpus_seed(args.seed)
        self.ref = {} if args.smoke else load_ref(self.corpus)[self.workload.name]
        self.golden = not args.smoke and self.corpus == CORPUS_SEEDS[0]
        self.config = tmp / "run.conf"
        self.config.write_text(self.workload.smoke_config if args.smoke
                               else self.workload.config)
        self.env = child_env(root)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list[str] = []
        self.spans: list = []
        self.n = 0

    def _fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        self.errors.extend(f"{what}: {p}" for p in problems)

    def setup(self, provenance: bool = False) -> tuple[Sample, dict]:
        self.n += 1
        result_path = self.tmp / f"setup_{self.n}.json"
        argv = [sys.executable, str(HERE / "setup_probe.py"), str(self.config),
                str(self.corpus), str(result_path)] + (["--provenance"] if provenance else [])
        sample = run_process(argv, self.root, self.env, self.tmp / f"setup_{self.n}.log")
        self.attempted += 1
        result = {}
        if sample.returncode != 0:
            self._fail("setup", [f"exit {sample.returncode}: {sample.log}"])
        else:
            result = json.loads(result_path.read_text())
            if result["clips"] != 500 or result["subset_sizes"] != [50] * 10:
                self._fail("setup", [f"corpus shape {result['clips']} clips, "
                                     f"subsets {result['subset_sizes']}"])
        return sample, result

    def operation(self, traced: bool) -> Sample:
        self.n += 1
        op_dir = self.tmp / f"op_{self.n}"
        ctx = OpContext(self.root, self.config, op_dir / "out", op_dir / "cache",
                        self.corpus, self.args.smoke, self.args.workers)
        spans_path = op_dir / "spans.json"
        sample = run_operation(self.workload, ctx, self.env, spans_path if traced else None)
        self.attempted += 1
        what = f"operation {self.n}{' (traced)' if traced else ''}"
        if sample.returncode != 0:
            self._fail(what, [f"exit {sample.returncode}: {sample.log}"])
            return sample
        try:
            got = self.workload.parse(ctx)
            problems = self.workload.check(got, self.ref, self.golden)
        except (OSError, ValueError, KeyError, IndexError, AttributeError,
                StopIteration) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            self._fail(what, problems)
        self.digests.append(tree_digest(ctx.out, ctx.cache))
        if traced:
            self.spans = json.loads(spans_path.read_text())["spans"]
            if self.args.spans:
                shutil.copyfile(spans_path, self.args.spans)
        shutil.rmtree(op_dir)
        return sample

    def execute(self) -> dict:
        setups = [self.setup(provenance=i == 0) for i in range(SETUP_REPEATS)]
        setup_s = statistics.median(s.wall_s for s, _ in setups)
        done = [r for _, r in setups if r]
        samples = {"setup_s": [s.wall_s for s, _ in setups]}

        if self.args.trace:
            untraced = self.operation(traced=False)
            traced = self.operation(traced=True)
            samples["untraced_run_s"] = [untraced.wall_s]
            samples["traced_run_s"] = [traced.wall_s]
            metrics = {}
            if not self.errors:
                metrics = layer_metrics(self.spans, traced.wall_s, untraced.wall_s)
            metrics["setup.import_s"] = (statistics.median(r["import_s"] for r in done)
                                         if done else 0.0, "s")
            metrics["setup.load_corpus_s"] = (statistics.median(
                r["load_corpus_s"] for r in done) if done else 0.0, "s")
        else:
            ops = []
            start = time.perf_counter()
            while not ops or time.perf_counter() - start < self.args.seconds:
                ops.append(self.operation(traced=False))
                if self.errors:
                    break
            samples.update(run_s=[o.wall_s for o in ops], cpu_s=[o.cpu_s for o in ops],
                           peak_rss_mb=[o.peak_rss_mb for o in ops])
            metrics = {
                "run_s": (statistics.median(samples["run_s"]), "s"),
                "cpu_s": (statistics.median(samples["cpu_s"]), "s"),
                "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MiB"),
                "setup_s": (setup_s, "s"),
            }
        differing = sum(d != self.digests[0] for d in self.digests)
        if differing:
            self.failed += differing
            self.errors.append(f"outputs of {differing} operation(s) differ from the first")

        print("provenance " + json.dumps({
            "workload": self.workload.name, "seed": self.args.seed,
            "corpus_seed": self.corpus, "workers": self.args.workers or self.workload.workers,
            "trace": self.args.trace, "smoke": self.args.smoke,
            "source": source_id(self.root), **setups[0][1].get("provenance", {})}))
        samples["output_sha256"] = self.digests
        print("samples " + json.dumps(samples))
        for e in self.errors:
            print("error " + e)
        return {"correct": not self.errors, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def source_id(root: Path) -> dict:
    """Git commit when the checkout is a repository, and a digest of src/*.py always."""
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": tree_digest(root / "src", pattern="*.py")[:16]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=0,
                        help="override the workload's --workers (default: its own)")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced configuration; checks output shape only")
    parser.add_argument("--spans", default="", help="copy the traced run's spans here")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "resonet" / "cli.py").is_file():
        print(f"error: {root} has no src/resonet; run from the root of a resonet checkout",
              file=sys.stderr)
        return 2
    (root / TMP_NAME).mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=root / TMP_NAME))
    try:
        result = Run(args, root, tmp).execute()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
