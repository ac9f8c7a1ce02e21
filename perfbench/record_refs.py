"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_refs.py

Run from the root of a resonet checkout at the commit whose outputs are the
reference.  For each corpus seed it runs every workload once and writes the
parsed outputs to ``perfbench/refs/corpus_<seed>.json``, and the
featurize-cochlear features to ``perfbench/refs/features_<seed>.bin.xz``.
On the default corpus it refuses to record outputs that miss the README's
golden results.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import TMP_NAME, OpContext, child_env, run_operation  # noqa: E402
from workloads import CORPUS_SEEDS, REFS_DIR, WORKLOADS, save_features  # noqa: E402


def record(root: Path, corpus: int, workload, tmp: Path) -> dict:
    config = tmp / "run.conf"
    config.write_text(workload.config)
    ctx = OpContext(root, config, tmp / "op" / "out", tmp / "op" / "cache", corpus,
                    smoke=False, workers=0)
    sample = run_operation(workload, ctx, child_env(root))
    if sample.returncode != 0:
        raise SystemExit(f"{workload.name} on corpus {corpus} failed:\n{sample.log}")
    got = workload.parse(ctx)
    problems = workload.check(got, {}, corpus == CORPUS_SEEDS[0])
    if problems:
        raise SystemExit(f"{workload.name} on corpus {corpus}: {problems}")
    print(f"recorded {workload.name} on corpus {corpus} in {sample.wall_s:.1f} s")
    return got


def main() -> int:
    root = Path.cwd()
    (root / TMP_NAME).mkdir(exist_ok=True)
    REFS_DIR.mkdir(exist_ok=True)
    for corpus in CORPUS_SEEDS:
        refs = {}
        for name, workload in WORKLOADS.items():
            tmp = Path(tempfile.mkdtemp(dir=root / TMP_NAME))
            try:
                refs[name] = record(root, corpus, workload, tmp)
            finally:
                shutil.rmtree(tmp)
            if "values" in refs[name]:
                save_features(corpus, refs[name].pop("values"))
        (REFS_DIR / f"corpus_{corpus}.json").write_text(
            json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
