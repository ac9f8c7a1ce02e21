"""The product runs on numpy alone: no module under ``src/resonet``
imports scipy, which only the tests' reference oracles use.  The package,
the MFCC and cochlear front ends, the reservoir, and a node route through
it, load no scipy module when they run.

Each run check runs in a fresh interpreter, since this test process has
long since imported scipy.
"""

import ast
import json
from pathlib import Path

import pytest

LIST_MODULES = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
SRC = Path(__file__).resolve().parent.parent / "src" / "resonet"


def test_no_product_module_imports_scipy():
    """Every import statement in ``src/resonet``, at module level or inside
    a function, names a module outside scipy."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(SRC)}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_the_package_and_its_set_up_layers_load_without_scipy(fresh_python):
    out = fresh_python("import resonet, resonet.cli, resonet.config, "
                       "resonet.evalharness, resonet.filterbank" + LIST_MODULES)
    loaded = json.loads(out.splitlines()[-1])
    assert "numpy" in loaded
    assert [m for m in loaded if m.startswith("scipy")] == []


def test_the_mfcc_front_end_loads_no_scipy(fresh_python):
    out = fresh_python("from resonet.dataset import build_synth_manifest, realize_clip\n"
                       "from resonet.filterbank import featurize\n"
                       "entry = build_synth_manifest(1001).entries[0]\n"
                       "featurize(realize_clip(entry), 'mfcc')" + LIST_MODULES)
    loaded = json.loads(out.splitlines()[-1])
    assert "numpy" in loaded and "resonet.filterbank.mfcc" in loaded
    assert [m for m in loaded if m.startswith("scipy")] == []
    assert "resonet.reservoir" not in loaded


def test_a_cochlear_run_loads_no_scipy(fresh_python):
    """Both ways a clip reaches the cochlea: ``featurize`` on one clip, and
    ``corpus_features`` on a batch of them."""
    out = fresh_python("""
from dataclasses import replace
from resonet.dataset import build_synth_manifest, realize_clip
from resonet.evalharness import PipelineSpec, corpus_features
from resonet.filterbank import featurize
manifest = build_synth_manifest(1001)
featurize(realize_clip(manifest.entries[0]), "cochlear")
small = replace(manifest, entries=manifest.entries[:3])
assert len(list(corpus_features(small, PipelineSpec(filter_kind="cochlear"), workers=1))) == 3
""" + LIST_MODULES)
    loaded = json.loads(out.splitlines()[-1])
    assert "numpy" in loaded and "resonet.filterbank.cochlea" in loaded
    assert [m for m in loaded if m.startswith("scipy")] == []


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
