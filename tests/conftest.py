import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from resonet.dataset import build_synth_manifest, partition_subsets


@pytest.fixture(scope="session")
def corpus():
    """The default seeded synthetic corpus with its subset partition."""
    manifest = build_synth_manifest(1001)
    partition = partition_subsets(manifest, 55)
    return manifest, partition


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def fresh_python():
    """Run Python source in a new interpreter with ``src`` on its path and
    return its standard output; for checks that must not see what this
    test process has already imported or patched."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(code: str) -> str:
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True).stdout

    return run
