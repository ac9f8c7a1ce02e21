"""Set-up probe: what a fresh resonet process does before its first clip.

It imports resonet, parses the config and builds the manifest and the
subset partition, and writes the time of each step and a check of the
corpus shape to RESULT_JSON.  With ``--provenance`` it also records the
Python, numpy, scipy and BLAS builds and the BLAS thread setting.

    PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG SYNTH_SEED RESULT_JSON [--provenance]
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def provenance() -> dict:
    import os
    import platform

    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv: list[str]) -> int:
    config_path, synth_seed, result_path = argv[:3]
    import resonet  # noqa: F401
    from resonet.config import apply_seed_overrides, parse_config
    imported = time.perf_counter()
    cfg = apply_seed_overrides(parse_config(config_path), [f"synth_seed={synth_seed}"])
    manifest, partition = cfg.load_corpus()
    loaded = time.perf_counter()
    result = {"import_s": imported - _START, "load_corpus_s": loaded - imported,
              "clips": len(manifest.entries),
              "subset_sizes": [len(s) for s in partition.subsets]}
    if "--provenance" in argv[3:]:
        result["provenance"] = provenance()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
