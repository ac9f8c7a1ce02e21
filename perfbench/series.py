"""Repeated benchmark runs, for one source tree or alternating between two.

    python3 perfbench/series.py --out RESULTS.jsonl [--tree DIR [--tree DIR]]

It makes ten repetitions, the fewest the claim rule of ``compare.py``
accepts; repetition k runs every workload of BENCHMARK.json with seed k.  The order
of the workloads is reversed on every other repetition, and with two trees
(say a parent and a change) the tree that runs first alternates as well,
so that neither side always runs on a warmer or quieter machine.  Every run is untraced, lasts
BENCHMARK.json's ``run_seconds`` and uses this benchmark's code against the
tree's ``src``; a run is appended to RESULTS.jsonl as one JSON
object with its tree, workload, seed, run order, provenance, samples
(including the digest of its output and cache trees) and result.
``compare.py`` reads the file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
REPS = 10


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    record = {"exit": proc.returncode}
    lines = proc.stdout.splitlines()
    for line in lines:
        for tag in ("provenance", "samples"):
            if line.startswith(tag + " "):
                record[tag] = json.loads(line[len(tag) + 1:])
    record["errors"] = [ln[6:] for ln in lines if ln.startswith("error ")]
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, ValueError):
        record["result"] = None
        record["stderr"] = proc.stderr[-2000:]
    return record


def main() -> int:
    spec = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--tree", action="append", help="source tree (default: cwd)")
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    trees = [Path(t).resolve() for t in (args.tree or ["."])]
    order = 0
    with open(args.out, "a") as out:
        for rep in range(REPS):
            seed = rep
            names = workloads if rep % 2 == 0 else workloads[::-1]
            for name in names:
                sides = trees if rep % 2 == 0 else trees[::-1]
                for tree in sides:
                    record = run_once(tree, name, seed, spec["run_seconds"])
                    record.update(tree=str(tree), workload=name, seed=seed, rep=rep,
                                  order=order)
                    order += 1
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    result = record["result"] or {}
                    print(f"rep {rep} {name} seed {seed} {tree.name}: "
                          f"correct={result.get('correct')} "
                          + " ".join(f"{k}={v['value']:.4g}" for k, v in
                                     result.get("metrics", {}).items()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
