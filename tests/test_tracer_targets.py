"""The benchmark's tracer wraps functions by name; every one must exist.

``perfbench/tracer.py`` imports only the standard library at module level,
so it loads here without running anything.
"""

import importlib.util
import json
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS
    missing = [f"{owner}.{attr}" for owner, attr, _ in tracer.TARGETS
               if not hasattr(tracer._resolve(owner), attr)]
    assert missing == []


def test_the_tracer_sees_the_node_calls_of_a_node_route(fresh_python):
    """``with_node`` imports ``stno_run`` when it runs, so it must pick up
    the wrapper the tracer put on ``resonet.reservoir``: one span per clip.
    Runs in a fresh interpreter, since the tracer patches module attributes.
    """
    code = f"""
import importlib.util, json
import numpy as np
spec = importlib.util.spec_from_file_location("perfbench_tracer", {str(TRACER)!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
recorder = tracer.Recorder()
import resonet.cli
recorder.install()
from resonet.evalharness import PipelineSpec, PreparedCorpus, with_node
pipe = PipelineSpec(filter_kind="spectro_exp", alpha=2.0, node_kind="stno", n_theta=4)
tensors = np.random.default_rng(0).random((7, 3, 5))
prep = PreparedCorpus(tuple("abcdefg"), np.arange(7), np.zeros(7, dtype=int), 5,
                      PipelineSpec(filter_kind="spectro_exp", alpha=2.0),
                      np.full(7, 5), tensors=tensors)
with_node(prep, pipe, factored=())
print(json.dumps([s[1] for s in recorder.spans]))
"""
    names = json.loads(fresh_python(code).splitlines()[-1])
    assert names.count("reservoir.stno_run") == 7
    assert names.count("reservoir.mask_and_flatten") == 7
