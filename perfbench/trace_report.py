"""Traced-run report: a per-layer table for each workload.

    python3 perfbench/trace_report.py

From the root of a resonet checkout it makes one ``run.py --trace 1`` run
with seed 0 per entry of ``RUNS`` (every workload, plus bench-a2-stno at 1
worker, the setting of ROADMAP's profile) and writes to
``perfbench/TRACE_REPORT.md`` a markdown table per run: for
each traced function, its calls, self time, share of the traced wall
time, computed megabytes and useful ratio (distinct inputs over calls),
followed by the per-layer metrics the run printed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS, aggregate  # noqa: E402

# (workload, --workers); 0 keeps the workload's own
RUNS = [("bench-a2-stno", 0), ("bench-a2-stno", 1), ("sweep-alpha", 0),
        ("stratified-stno", 0), ("featurize-cochlear", 0)]
SEED = 0


def traced_run(name: str, workers: int, spans_path: Path) -> tuple[dict, dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(SEED),
            "--seconds", "1", "--trace", "1", "--spans", str(spans_path)]
    if workers:
        argv += ["--workers", str(workers)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    tagged = {ln.split(" ", 1)[0]: json.loads(ln.split(" ", 1)[1]) for ln in lines
              if ln.startswith(("provenance ", "samples "))}
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{name}: incorrect run:\n{proc.stdout}")
    return result, tagged["samples"], tagged["provenance"]


def section(label: str, result: dict, samples: dict, prov: dict, spans: list) -> list[str]:
    traced = samples["traced_run_s"][0]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    out = [f"## {label}", "",
           f"Seed {prov['seed']} (corpus {prov['corpus_seed']}), --workers {prov['workers']}, "
           f"{prov['nproc']} cores, {prov['blas']['name']} {prov['blas']['version']} at "
           f"{prov['blas_threads']} threads, Python {prov['python']}, numpy {prov['numpy']}, "
           f"scipy {prov['scipy']}.", "",
           f"Untraced run {samples['untraced_run_s'][0]:.2f} s, traced run {traced:.2f} s, "
           f"`trace.overhead_frac` {metrics['trace.overhead_frac']:+.3f}, "
           f"`trace.accounted_frac` {metrics['trace.accounted_frac']:.3f} "
           f"(self times plus the {metrics['trace.untraced_remainder_s']:.2f} s outside "
           f"any span, over the traced run; above 1 when folds overlap on threads).", "",
           "| span | calls | self_s | share | computed MB | useful_ratio |",
           "|---|---:|---:|---:|---:|---:|"]
    by_name = aggregate(spans)
    for layer in LAYERS:
        names = sorted(n for n in by_name if n.split(".")[0] == layer)
        for n in names:
            a = by_name[n]
            mb = f"{a['bytes'] / 1e6:.1f}" if a["bytes"] else ""
            useful = f"{len(a['keys'])}/{a['calls']}" if a["keys"] else ""
            out.append(f"| {n} | {a['calls']} | {a['self_s']:.3f} | "
                       f"{a['self_s'] / traced:.1%} | {mb} | {useful} |")
        if names:
            total = sum(by_name[n]["self_s"] for n in names)
            out.append(f"| **{layer}** | | **{total:.3f}** | **{total / traced:.1%}** | | |")
    out += ["", "<details><summary>per-layer metrics</summary>", "",
            "| metric | value |", "|---|---:|"]
    out += [f"| {k} | {v:.6g} |" for k, v in metrics.items()]
    out += ["", "</details>", ""]
    return out


def main() -> int:
    lines = ["# Traced runs", "",
             f"Generated by `python3 perfbench/trace_report.py` with seed {SEED}. "
             "Self time is a span's duration minus the time its child spans cover; "
             "`readout.lstsq` is `numpy.linalg.lstsq` called from `train_pinv`.", ""]
    (Path.cwd() / ".perfbench_tmp").mkdir(exist_ok=True)
    for name, workers in RUNS:
        with tempfile.TemporaryDirectory(dir=Path.cwd() / ".perfbench_tmp") as tmp:
            spans_path = Path(tmp) / "spans.json"
            result, samples, prov = traced_run(name, workers, spans_path)
            spans = json.loads(spans_path.read_text())["spans"]
        label = name + (f" at --workers {workers}" if workers else "")
        lines += section(label, result, samples, prov, spans)
        print(f"traced {label}", flush=True)
    (HERE / "TRACE_REPORT.md").write_text("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
