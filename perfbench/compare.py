"""Compare a parent and a change, workload by workload, from one series.

    python3 perfbench/compare.py PAIRS.jsonl    # series.py --tree PARENT --tree CHANGE
    python3 perfbench/compare.py RESULTS.jsonl  # one tree: medians and spreads only

The file is written by ``series.py``; its first tree is the parent.  For
every workload and every end-to-end metric of BENCHMARK.json it prints
each side's median and quartiles and one verdict:

* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
* ``unresolved``: either side's spread (quartile distance over median) is
  wider than the bound, and not every change run beats every parent run;
* ``better``: the claim rule holds: at least 10 pairs (runs of the two
  sides on the same workload and seed), the change wins at least 9 in 10
  of them (ties count for neither), and the medians differ by more than
  the parent's quartile distance;
* ``same``: none of the above, so within the bound.

A failed or incorrect run on either side is reported and its values are
left out.  So are all runs of one tree, workload and corpus whose output
and cache trees are not byte-identical: reports must not change from one
repetition to the next.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def fail_differing_outputs(records: list[dict]) -> None:
    """Mark incorrect every run of a tree, workload and corpus whose output
    digests are not all the same."""
    groups: dict[tuple, list[dict]] = {}
    for r in records:
        if (r.get("result") or {}).get("correct"):
            key = (r["tree"], r["workload"], r["provenance"]["corpus_seed"])
            groups.setdefault(key, []).append(r)
    for (tree, workload, corpus), runs in groups.items():
        digests = {d for r in runs for d in r["samples"]["output_sha256"]}
        if len(digests) > 1:
            for r in runs:
                r["result"]["correct"] = False
                r.setdefault("errors", []).append(
                    f"{len(digests)} different output trees among the {len(runs)} "
                    f"runs on corpus {corpus}")


def values(records: list[dict], workload: str, metric: str) -> dict:
    """seed -> value, from the correct runs of one workload."""
    out = {}
    for r in records:
        result = r.get("result") or {}
        if r["workload"] == workload and result.get("correct") and metric in result["metrics"]:
            out[r["seed"]] = result["metrics"][metric]["value"]
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def verdict(parent: dict, change: dict, bound: float, lower_is_better: bool) -> tuple:
    p, c = list(parent.values()), list(change.values())
    pq1, pm, pq3 = quartiles(p)
    cq1, cm, cq3 = quartiles(c)
    sign = 1.0 if lower_is_better else -1.0
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    if sign * (cm - pm) > bound * abs(pm):
        return "worse", len(pairs), wins
    spread = max((pq3 - pq1) / abs(pm), (cq3 - cq1) / abs(cm)) if pm and cm else 0.0
    every = (max(c) < min(p)) if lower_is_better else (min(c) > max(p))
    if spread > bound and not every:
        return "unresolved", len(pairs), wins
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (pm - cm) > pq3 - pq1):
        return "better", len(pairs), wins
    return "same", len(pairs), wins


def fmt(xs: list[float]) -> str:
    q1, m, q3 = quartiles(xs)
    return f"{m:.4g} [{q1:.4g}, {q3:.4g}] n={len(xs)}"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    records = load(argv[0])
    fail_differing_outputs(records)
    trees = list(dict.fromkeys(r["tree"] for r in records))
    sets = [[r for r in records if r["tree"] == t] for t in trees]
    for r in records:
        if not (r.get("result") or {}).get("correct"):
            print(f"{r['tree']}: {r['workload']} seed {r['seed']} failed: "
                  f"{r.get('errors') or r.get('stderr') or r.get('exit')}")
    workloads = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        for m in spec["end_to_end"]:
            name = m["name"]
            sides = [values(side, w, name) for side in sets]
            if not all(sides):
                continue
            if len(sides) == 1:
                xs = list(sides[0].values())
                q1, med, q3 = quartiles(xs)
                print(f"{w:20s} {name:12s} {fmt(xs)}  spread {(q3 - q1) / med:.3f} "
                      f"(bound {m['bound']})")
                continue
            v, n_pairs, wins = verdict(sides[0], sides[1], m["bound"],
                                       m["better"] == "lower")
            print(f"{w:20s} {name:12s} parent {fmt(list(sides[0].values()))}  "
                  f"change {fmt(list(sides[1].values()))}  pairs {n_pairs} "
                  f"wins {wins}  -> {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
