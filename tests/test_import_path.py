"""scipy stays off the import path: only the cochlear and MFCC front ends
load it, when they run.  The reservoir, and a node route through it,
loads numpy alone.

Each check runs in a fresh interpreter, since this test process has
long since imported scipy.
"""

import json

import pytest

LIST_MODULES = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"


def test_the_package_and_its_set_up_layers_load_without_scipy(fresh_python):
    out = fresh_python("import resonet, resonet.cli, resonet.config, "
                       "resonet.evalharness, resonet.filterbank" + LIST_MODULES)
    loaded = json.loads(out.splitlines()[-1])
    assert "numpy" in loaded
    assert [m for m in loaded if m.startswith("scipy")] == []


@pytest.mark.parametrize("kind, module", [("cochlear", "scipy.signal"),
                                          ("mfcc", "scipy.fft")])
def test_a_front_end_loads_scipy_when_it_runs(fresh_python, kind, module):
    out = fresh_python("from resonet.dataset import build_synth_manifest, realize_clip\n"
                       "from resonet.filterbank import featurize\n"
                       "entry = build_synth_manifest(1001).entries[0]\n"
                       f"featurize(realize_clip(entry), {kind!r})" + LIST_MODULES)
    loaded = json.loads(out.splitlines()[-1])
    assert module in loaded
    assert "resonet.reservoir" not in loaded


def test_the_reservoir_loads_without_scipy(fresh_python):
    loaded = json.loads(fresh_python("import resonet.reservoir" + LIST_MODULES).splitlines()[-1])
    assert "numpy" in loaded
    assert [m for m in loaded if m.startswith("scipy")] == []


@pytest.mark.parametrize("node_kind", ["stno", "tanh"])
def test_a_node_route_loads_without_scipy(fresh_python, node_kind):
    out = fresh_python(f"""
import numpy as np
from resonet.evalharness import Corpus, PipelineSpec, with_node
from resonet.filterbank import FeatureMatrix
pipe = PipelineSpec(filter_kind="spectro_exp", alpha=2.0, node_kind={node_kind!r}, n_theta=4)
features = tuple(FeatureMatrix(x, "spectro_exp", c, 2.0) for c, x in
                 zip("abcdefg", np.random.default_rng(0).random((7, 3, 5))))
corpus = Corpus(tuple("abcdefg"), np.arange(7), np.zeros(7, dtype=int), features)
assert with_node(corpus, pipe).frame_means.shape == (7, 4)""" + LIST_MODULES)
    loaded = json.loads(out.splitlines()[-1])
    assert "resonet.reservoir" in loaded
    assert [m for m in loaded if m.startswith("scipy")] == []
