"""The benchmark's tracer wraps functions by name; every one must exist.

``perfbench/tracer.py`` imports only the standard library at module level,
so it loads here without running anything.
"""

import importlib.util
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
