"""Reports across CPU kernel families.

numpy's float64 ``exp``, ``log`` and ``power`` take an AVX-512 path whose
results differ in the last bit from the AVX2 path, and OpenBLAS picks its
kernel by CPU as well.  So report bytes hold within one kernel family
only, while every fold's WSR, and with it every golden number, must hold
on every family.  The environment of a child process selects the kernels:
``NPY_DISABLE_CPU_FEATURES`` turns numpy's AVX-512 dispatch off and
``OPENBLAS_CORETYPE`` names an OpenBLAS core.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import pytest

AVX2_KERNELS = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
                "OPENBLAS_CORETYPE": "Haswell"}
DEFAULT_KERNELS = dict.fromkeys(AVX2_KERNELS, "")
MSE_RTOL = 1e-10


def _fold_rows(text: str) -> list[list[str]]:
    """A report CSV's fold rows: fold, train_subsets, train_wsr, train_mse,
    test_wsr, test_mse."""
    rows = [ln.split(",") for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert rows[0] == ["fold", "train_subsets", "train_wsr", "train_mse", "test_wsr",
                       "test_mse"]
    return [r for r in rows[1:] if r[0].isdigit()]


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_every_fold_wsr_holds_across_cpu_kernel_families(fresh_python, tmp_path, alpha):
    """``bench`` with stno on the default corpus, once with the default
    kernels and once with numpy's AVX2 path and OpenBLAS's Haswell kernel,
    the two runs side by side: every fold's train and test WSR is equal,
    and every fold's MSE agrees within ``MSE_RTOL`` relative."""
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    if not any(umath.__cpu_features__.get(f) for f in umath.__cpu_dispatch__
               if f.startswith(("X86_V4", "AVX512"))):
        pytest.skip("numpy dispatches no AVX-512 kernel on this CPU, so both runs "
                    "would take the AVX2 path")
    conf = tmp_path / "run.conf"
    conf.write_text(f"filter.kind = spectro_exp\nfilter.alpha = {alpha}\nnode.kind = stno\n")

    def bench(name, env):
        out = tmp_path / name
        fresh_python(None, "-m", "resonet.cli", "bench", "--config", str(conf),
                     "--out", str(out), RESONET_CACHE_DIR=str(out / "cache"), **env)
        return {r: (out / r).read_text() for r in ("report_baseline.csv", "report_total.csv")}

    with ThreadPoolExecutor(max_workers=2) as pool:
        default, avx2 = pool.map(bench, ("default", "avx2"), (DEFAULT_KERNELS, AVX2_KERNELS))
    if default == avx2:
        pytest.skip("the two kernel selections wrote byte-identical reports: this "
                    "numpy or OpenBLAS takes one kernel family either way")
    for report in default:
        got, want = _fold_rows(avx2[report]), _fold_rows(default[report])
        assert [r[:2] for r in got] == [r[:2] for r in want] and len(want) == 10
        for g, w in zip(got, want):
            assert (g[2], g[4]) == (w[2], w[4]), f"{report} fold {w[0]} WSR"
            for col in (3, 5):
                assert math.isclose(float(g[col]), float(w[col]), rel_tol=MSE_RTOL, abs_tol=0.0), \
                    f"{report} fold {w[0]} MSE"
