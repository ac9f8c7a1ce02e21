"""Self-test of the benchmark runner ``run.py``, in its smoke mode.

    python3 perfbench/selftest.py

From the root of a resonet checkout it runs every workload of
BENCHMARK.json with ``--smoke``, untraced and traced, and checks that the
last line of output is a correct result with exactly the declared metrics
and units.  It then copies only BENCHMARK.json and the benchmark's own
directories into a scratch directory under ``.perfbench_tmp`` and checks
that ``run.py`` fails there without printing a result.  It takes about
two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", str(trace), "--smoke"],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(ROOT, w["name"], trace)
            tag = f"{w['name']} --trace {trace}"
            before = len(failures)
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                failures.append(f"{tag}: no result line; stderr: {proc.stderr[-500:]}")
                continue
            if proc.returncode != 0 or set(result) != {"correct", "attempted",
                                                       "failed", "metrics"}:
                failures.append(f"{tag}: exit {proc.returncode}, keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") != 0:
                failures.append(f"{tag}: not correct: {proc.stdout[-1500:]}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            if got != want:
                failures.append(f"{tag}: metrics differ: missing "
                                f"{sorted(set(want) - set(got))}, extra "
                                f"{sorted(set(got) - set(want))}, units "
                                f"{sorted(k for k in want if k in got and got[k] != want[k])}")
            print(f"{tag}: {'ok' if len(failures) == before else 'FAIL'}", flush=True)

    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"bare directory: exit {proc.returncode}, "
                            f"stdout {proc.stdout[-300:]!r}")
        print(f"bare directory: exit {proc.returncode}", flush=True)
    finally:
        shutil.rmtree(bare)

    for f in failures:
        print("FAIL " + f)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
