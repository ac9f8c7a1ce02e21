"""Importing ``resonet`` pins OpenBLAS to one thread, so no setting of the
environment changes a run's thread count or its bytes.

OpenBLAS reads its thread count once, when numpy loads it.  So the checks
of the pin run in a fresh interpreter; one more checks that this test
process, whose ``conftest`` imports the package before numpy, runs BLAS
on one thread as the CLI does.
"""

import importlib.util
from pathlib import Path

import pytest

PROBE = Path(__file__).resolve().parent.parent / "perfbench" / "setup_probe.py"

# The smallest node config whose report_total.csv differs between 1 and 2
# OpenBLAS threads without the pin, on the default corpus on a 2-core VM.
NODE_CONF = """corpus.kind = synthetic
corpus.synth_seed = 1001
filter.kind = spectro_exp
filter.alpha = 2.0
node.kind = stno
node.n_theta = 77
"""


def test_importing_the_package_pins_openblas_to_one_thread(fresh_python):
    code = f"""
import importlib.util
import resonet, numpy
spec = importlib.util.spec_from_file_location("setup_probe", {str(PROBE)!r})
probe = importlib.util.module_from_spec(spec)
spec.loader.exec_module(probe)
print(probe._blas_threads())
"""
    threads = fresh_python(code, OPENBLAS_NUM_THREADS="2").splitlines()[-1]
    if threads == "None":
        pytest.skip("numpy loaded no OpenBLAS")
    assert threads == "1"


def test_the_test_process_runs_openblas_on_one_thread():
    spec = importlib.util.spec_from_file_location("setup_probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    threads = probe._blas_threads()
    if threads is None:
        pytest.skip("numpy loaded no OpenBLAS")
    assert threads == 1


def test_bench_bytes_do_not_depend_on_the_blas_thread_setting(fresh_python, tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(NODE_CONF)
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        fresh_python(None, "-m", "resonet.cli", "bench", "--config", str(conf),
                     "--out", str(out), OPENBLAS_NUM_THREADS=threads,
                     RESONET_CACHE_DIR=str(out / "cache"))
        trees.append({p.relative_to(out): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    one, two = trees
    assert sorted(one) == sorted(two)
    assert Path("report_total.csv") in one
    assert [str(name) for name in sorted(one) if one[name] != two[name]] == []
