"""Span tracing around the public functions of each resonet layer.

Run an operation under the tracer with

    PYTHONPATH=src python3 perfbench/tracer.py SPANS_JSON -m resonet.cli bench ...
    PYTHONPATH=src python3 perfbench/tracer.py SPANS_JSON perfbench/featurize_op.py ...

The tracer wraps every function in ``TARGETS`` where it is defined and
wherever a resonet module bound it by name (``cli`` and ``evalharness``
import functions by name), runs the operation, and writes the spans it kept
in memory to SPANS_JSON when the operation ends.  A span records its name,
start, end, parent and thread.  Work submitted to a thread pool has no
parent on its own thread; it is attributed to the span open on the main
thread, which is the one waiting on the pool.

``layer_metrics`` turns the spans into the per-layer metrics of
BENCHMARK.json.  It needs only the standard library, so ``run.py`` can
import it without importing numpy.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import json
import os
import sys
import threading
import time

# (module or class path, attribute, span name); the span name's first part
# is the layer.
TARGETS = [
    ("resonet.dataset", "build_synth_manifest", "dataset.build_synth_manifest"),
    ("resonet.dataset", "partition_subsets", "dataset.partition_subsets"),
    ("resonet.dataset", "realize_clip", "dataset.realize_clip"),
    ("resonet.dataset", "synth_digit", "dataset.synth_digit"),
    ("resonet.dataset", "add_noise", "dataset.add_noise"),
    ("resonet.filterbank", "featurize", "filterbank.featurize"),
    ("resonet.filterbank", "pad_to", "filterbank.pad_to"),
    ("resonet.filterbank.stft", "stft_complex", "filterbank.stft_complex"),
    ("resonet.filterbank.transforms", "exponent_transform", "filterbank.exponent_transform"),
    ("resonet.filterbank.mfcc", "mfcc", "filterbank.mfcc"),
    ("resonet.filterbank.cochlea", "cochleagram", "filterbank.cochleagram"),
    ("resonet.reservoir", "gen_mask", "reservoir.gen_mask"),
    ("resonet.reservoir", "mask_and_flatten", "reservoir.mask_and_flatten"),
    ("resonet.reservoir", "stno_run", "reservoir.stno_run"),
    ("resonet.reservoir", "node_run_reference", "reservoir.node_run_reference"),
    ("resonet.readout", "train_pinv", "readout.train_pinv"),
    ("numpy.linalg", "lstsq", "readout.lstsq"),
    ("resonet.readout", "predict", "readout.predict"),
    ("resonet.evalharness", "prepare_corpus", "evalharness.prepare_corpus"),
    ("resonet.evalharness", "cross_validate", "evalharness.cross_validate"),
    ("resonet.evalharness", "run_fold", "evalharness.run_fold"),
    ("resonet.evalharness", "alpha_sweep", "evalharness.alpha_sweep"),
    ("resonet.evalharness", "stratified_report", "evalharness.stratified_report"),
    ("resonet.evalharness", "report_to_csv", "evalharness.report_to_csv"),
    ("resonet.evalharness", "summary_markdown", "evalharness.summary_markdown"),
    ("resonet.evalharness", "condition_markdown", "evalharness.condition_markdown"),
    ("resonet.cachefile", "write_feature_cache", "cachefile.write_feature_cache"),
    ("resonet.cachefile", "read_feature_cache", "cachefile.read_feature_cache"),
    ("resonet.cachefile", "write_model", "cachefile.write_model"),
    ("resonet.config", "parse_config", "config.parse_config"),
    ("resonet.config.RunConfig", "load_corpus", "config.load_corpus"),
    ("resonet.cli", "cmd_bench", "cli.cmd_bench"),
    ("resonet.cli", "cmd_sweep", "cli.cmd_sweep"),
    ("resonet.cli", "cmd_stratified", "cli.cmd_stratified"),
    ("resonet.cli", "cmd_featurize", "cli.cmd_featurize"),
    ("pathlib.Path", "write_text", "cli.write_text"),
]

LAYERS = ("dataset", "filterbank", "reservoir", "readout", "evalharness",
          "cachefile", "config", "cli")


# -- what each span notes about its call, for counts and useful ratios ------

def _digest(array) -> str:
    import numpy as np
    return hashlib.blake2b(np.ascontiguousarray(array).tobytes(), digest_size=8).hexdigest()


def _values(m):
    import numpy as np
    return np.asarray(getattr(m, "values", m))


def _note_synth(args, kwargs, result):
    key = {k: v for k, v in kwargs.items() if k != "clip_id"}
    return {"key": repr((args[:5], sorted(key.items())))}


def _note_featurize(args, kwargs, result):
    clip = args[0]
    return {"key": repr((_digest(clip.samples), args[1:3], kwargs.get("alpha")))}


def _note_train(args, kwargs, result):
    states = [_values(s) for s in args[0]]
    return {"key": repr((len(states), _digest(states[0]), _digest(states[-1]),
                         kwargs.get("trained_on"), kwargs.get("node_kind"))),
            "bytes": sum(s.shape[0] * s.shape[1] * 8 for s in states)}


def _note_steps(args, kwargs, result):
    import numpy as np
    return {"steps": int(np.size(args[0]))}


def _note_file(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


NOTES = {
    "dataset.synth_digit": _note_synth,
    "filterbank.featurize": _note_featurize,
    "readout.train_pinv": _note_train,
    "reservoir.stno_run": _note_steps,
    "cachefile.write_feature_cache": _note_file,
    "cachefile.read_feature_cache": _note_file,
    "cachefile.write_model": _note_file,
}


class Recorder:
    """Keeps spans in memory: (id, name, parent, thread, start, end, note)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if is_main else []
        return stack

    def wrap(self, func, name: str):
        note = NOTES.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            info = note(args, kwargs, result) if note else None
            self.spans.append((span_id, name, parent, threading.get_ident(),
                               start, end, info))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target where it is defined and where it is bound by name."""
        for owner_path, attr, name in TARGETS:
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            traced = self.wrap(original, name)
            setattr(owner, attr, traced)
            for mod_name, module in list(sys.modules.items()):
                if not mod_name.startswith("resonet") or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def _resolve(path: str):
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for part in parts[i:]:
            obj = getattr(obj, part)
        return obj
    raise ImportError(path)


# -- per-layer metrics ------------------------------------------------------

def _union(intervals) -> float:
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def _empty() -> dict:
    return {"calls": 0, "self_s": 0.0, "total_s": 0.0, "keys": set(), "bytes": 0,
            "max_bytes": 0, "steps": 0}


def aggregate(spans: list) -> dict:
    """Per span name: calls, self and total seconds, distinct call keys, bytes, steps.

    Self time is a span's duration minus the part of it its child spans
    cover.
    """
    children: dict = {}
    for s in spans:
        children.setdefault(s[2], []).append(s)
    by_name: dict = {}
    for s in spans:
        span_id, name, start, end = s[0], s[1], s[4], s[5]
        kids = [(max(k[4], start), min(k[5], end)) for k in children.get(span_id, ())]
        self_s = (end - start) - _union([k for k in kids if k[1] > k[0]])
        agg = by_name.setdefault(name, _empty())
        agg["calls"] += 1
        agg["self_s"] += self_s
        agg["total_s"] += end - start
        info = s[6] or {}
        if "key" in info:
            agg["keys"].add(info["key"])
        agg["bytes"] += info.get("bytes", 0)
        agg["max_bytes"] = max(agg["max_bytes"], info.get("bytes", 0))
        agg["steps"] += info.get("steps", 0)
    return by_name


def layer_metrics(spans: list, traced_run_s: float, untraced_run_s: float) -> dict:
    """Per-layer metrics from one traced operation, as ``{name: (value, unit)}``.

    The remainder is the traced wall time (measured outside the process)
    that no root span covers: interpreter start, imports and argument
    parsing.  With one thread, the self times of all spans plus the
    remainder add up to the traced wall time; work overlapped on a thread
    pool counts once per thread.
    """
    by_name = aggregate(spans)
    self_total = sum(a["self_s"] for a in by_name.values())

    def get(name):
        return by_name.get(name) or _empty()

    def calls(name):
        return (get(name)["calls"], "count")

    def self_s(name):
        return (get(name)["self_s"], "s")

    def useful(name):
        a = get(name)
        return (len(a["keys"]) / a["calls"] if a["calls"] else 0.0, "ratio")

    def mb(name):
        return (get(name)["bytes"] / 1e6, "MB")

    root_cover = _union([(s[4], s[5]) for s in spans if s[2] is None])
    remainder = max(traced_run_s - root_cover, 0.0)
    cv_wall = get("evalharness.cross_validate")["total_s"]
    coch = get("filterbank.cochleagram")
    write_names = ("evalharness.report_to_csv", "evalharness.summary_markdown",
                   "evalharness.condition_markdown", "cli.write_text",
                   "cachefile.write_model")

    m = {
        "readout.train_pinv.calls": calls("readout.train_pinv"),
        "readout.train_pinv.self_s": self_s("readout.train_pinv"),
        "readout.train_pinv.useful_ratio": useful("readout.train_pinv"),
        "readout.lstsq.self_s": self_s("readout.lstsq"),
        "readout.design_mb": (get("readout.train_pinv")["max_bytes"] / 1e6, "MB"),
        "readout.predict.calls": calls("readout.predict"),
        "readout.predict.self_s": self_s("readout.predict"),
        "dataset.synth_digit.calls": calls("dataset.synth_digit"),
        "dataset.synth_digit.self_s": self_s("dataset.synth_digit"),
        "dataset.synth_digit.useful_ratio": useful("dataset.synth_digit"),
        "dataset.add_noise.calls": calls("dataset.add_noise"),
        "dataset.add_noise.self_s": self_s("dataset.add_noise"),
        "filterbank.featurize.calls": calls("filterbank.featurize"),
        "filterbank.featurize.self_s": self_s("filterbank.featurize"),
        "filterbank.featurize.useful_ratio": useful("filterbank.featurize"),
        "filterbank.cochleagram.ms_per_clip": (
            1e3 * coch["total_s"] / coch["calls"] if coch["calls"] else 0.0, "ms"),
        "reservoir.mask_and_flatten.self_s": self_s("reservoir.mask_and_flatten"),
        "reservoir.stno_run.calls": calls("reservoir.stno_run"),
        "reservoir.stno_run.self_s": self_s("reservoir.stno_run"),
        "reservoir.steps": (get("reservoir.stno_run")["steps"], "count"),
        "evalharness.prepare_corpus.self_s": self_s("evalharness.prepare_corpus"),
        "evalharness.run_fold.calls": calls("evalharness.run_fold"),
        "evalharness.cross_validate.concurrency": (
            get("evalharness.run_fold")["total_s"] / cv_wall if cv_wall else 0.0, "ratio"),
        "evalharness.stratified_report.self_s": self_s("evalharness.stratified_report"),
        "cachefile.write_feature_cache.calls": calls("cachefile.write_feature_cache"),
        "cachefile.write_feature_cache.self_s": self_s("cachefile.write_feature_cache"),
        "cachefile.write_feature_cache.mb": mb("cachefile.write_feature_cache"),
        "cachefile.read_feature_cache.calls": calls("cachefile.read_feature_cache"),
        "cachefile.read_feature_cache.self_s": self_s("cachefile.read_feature_cache"),
        "cachefile.read_feature_cache.mb": mb("cachefile.read_feature_cache"),
        "cachefile.write_model.calls": calls("cachefile.write_model"),
        "cachefile.write_model.self_s": self_s("cachefile.write_model"),
        "cli.write_s": (sum(get(n)["total_s"] for n in write_names), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(a["self_s"] for n, a in by_name.items()
                                    if n.split(".")[0] == layer), "s")
    m["trace.untraced_remainder_s"] = (remainder, "s")
    m["trace.accounted_frac"] = ((self_total + remainder) / traced_run_s, "ratio")
    m["trace.overhead_frac"] = ((traced_run_s - untraced_run_s) / untraced_run_s, "ratio")
    m["trace.spans"] = (len(spans), "count")
    return m


def main(argv: list[str]) -> int:
    spans_path, target = argv[0], argv[1:]
    recorder = Recorder()
    importlib.import_module("resonet.cli")
    recorder.install()
    try:
        if target[0] == "-m":
            if target[1] != "resonet.cli":
                raise SystemExit(f"tracer runs resonet.cli or a script, not {target[1]}")
            sys.argv = [target[1]] + target[2:]
            return sys.modules["resonet.cli"].main(target[2:])
        import runpy
        sys.argv = target
        runpy.run_path(target[0], run_name="__main__")
        return 0
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
