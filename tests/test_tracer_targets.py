"""The benchmark's tracer wraps functions by name; every one must exist.

``perfbench/tracer.py`` imports only the standard library at module level,
so it loads here without running anything.
"""

import ast
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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
    """``with_node`` calls ``stno_run`` through the ``reservoir`` module, so
    it must pick up the wrapper the tracer put there: one span per clip.
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
from resonet.evalharness import Corpus, PipelineSpec, with_node
from resonet.filterbank import FeatureMatrix
pipe = PipelineSpec(filter_kind="spectro_exp", alpha=2.0, node_kind="stno", n_theta=4)
features = tuple(FeatureMatrix(x, "spectro_exp", c, 2.0) for c, x in
                 zip("abcdefg", np.random.default_rng(0).random((7, 3, 5))))
corpus = Corpus(tuple("abcdefg"), np.arange(7), np.zeros(7, dtype=int), features)
with_node(corpus, pipe, factored=())
print(json.dumps([s[1] for s in recorder.spans]))
"""
    names = json.loads(fresh_python(code).splitlines()[-1])
    assert names.count("reservoir.stno_run") == 7
    assert names.count("reservoir.mask_and_flatten") == 7


def test_the_parser_dispatches_to_the_commands_the_tracer_wrapped(fresh_python):
    """The tracer replaces ``cli.cmd_*`` after ``resonet.cli`` is imported,
    so the parser must look the commands up when it is built."""
    code = f"""
import importlib.util, json
spec = importlib.util.spec_from_file_location("perfbench_tracer", {str(TRACER)!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import resonet.cli as cli
tracer.Recorder().install()
parser = cli.build_parser()
seen = {{}}
for name in ("bench", "sweep", "stratified", "featurize"):
    patched = getattr(cli, "cmd_" + name)
    func = parser.parse_args([name, "--config", "c"]).func
    seen[name] = func is patched and hasattr(patched, "__wrapped__")
print(json.dumps(seen))
"""
    seen = json.loads(fresh_python(code).splitlines()[-1])
    assert seen == dict.fromkeys(("bench", "sweep", "stratified", "featurize"), True)


def _names_used(node: ast.AST) -> set[str]:
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            used.update(alias.name for alias in n.names)
    return used


def test_every_public_name_has_a_product_caller():
    """No product code that only tests reach: every public module-level
    function or class in ``src/resonet`` is named somewhere else in
    ``src/resonet``, or the tracer wraps it by name."""
    defined, used = [], set()
    for path in sorted((ROOT / "src" / "resonet").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined.append((path.name, node.name))
                # a definition's own body does not count as its caller
                used |= _names_used(node) - {node.name}
            else:
                used |= _names_used(node)
    traced = {attr for _, attr, _ in _load_tracer().TARGETS}
    orphans = [f"{module}:{name}" for module, name in defined
               if name not in used and name not in traced]
    assert orphans == []
