import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

# before numpy: importing resonet pins OpenBLAS to one thread, as in the CLI
import resonet  # noqa: F401

import numpy as np
import pytest
from scipy.signal import lfilter

from resonet.dataset import (Manifest, build_synth_manifest, partition_subsets,
                             realize_clip, save_manifest)
from resonet.evalharness import PipelineSpec, baseline_route, prepare_corpus
from resonet.filterbank import cochlea
from resonet.filterbank.stft import pre_emphasis
from test_dataset import _write_wav


@pytest.fixture(scope="session")
def corpus():
    """The default seeded synthetic corpus with its subset partition."""
    manifest = build_synth_manifest(1001)
    partition = partition_subsets(manifest, 55)
    return manifest, partition


@pytest.fixture(scope="session")
def baseline(corpus):
    """The baseline route of the default corpus at alpha = 2; its
    ``corpus`` is what the node routes reduce.  Built once per session."""
    manifest, partition = corpus
    pipe = PipelineSpec(filter_kind="spectro_exp", alpha=2.0)
    return baseline_route(prepare_corpus(manifest, partition.groups(manifest), pipe,
                                         workers=4), pipe)


@pytest.fixture(scope="session")
def spectra(corpus):
    """The default corpus through the ``spectro_exp`` front end at alpha = 1:
    the sweep's spectra and the alpha = 1 routes' corpus.  Built once per
    session."""
    manifest, partition = corpus
    pipe = PipelineSpec(filter_kind="spectro_exp", alpha=1.0)
    return prepare_corpus(manifest, partition.groups(manifest), pipe, workers=4)


@pytest.fixture(scope="session")
def file_corpus(corpus, tmp_path_factory):
    """The default corpus written as 16-bit mono WAVs at its rate, one per
    clip, and the path of a manifest of them: the corpus as
    ``corpus.kind = manifest`` reads it.  Each clip peaks at 1, so it is
    written at 32767/32768 of its level, and no sample is clipped."""
    manifest, _ = corpus
    root = tmp_path_factory.mktemp("file_corpus")
    rows = []
    for entry in manifest.entries:
        samples = realize_clip(entry, sample_rate=manifest.sample_rate).samples
        _write_wav(root / f"{entry.clip_id}.wav", samples * (32767 / 32768),
                   rate=manifest.sample_rate)
        rows.append(replace(entry, source=f"{entry.clip_id}.wav"))
    save_manifest(Manifest(tuple(rows), manifest.sample_rate), root / "manifest.csv")
    return root / "manifest.csv"


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def fresh_python():
    """Run Python source in a new interpreter with ``src`` on its path and
    return its standard output; for checks that must not see what this
    test process has already imported or patched.  ``run(code, *args,
    **env)`` runs ``python -c code *args``, or ``python *args`` when
    ``code`` is None, with ``env`` added to this process's environment."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    base = dict(os.environ)
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))

    def run(code: str | None, *args: str, **env: str) -> str:
        argv = [sys.executable] + (["-c", code] if code is not None else []) + list(args)
        return subprocess.run(argv, env=dict(base, **env), capture_output=True,
                              text=True, check=True).stdout

    return run


def _lfilter_stno_run(x, p, v0=None):
    """``reservoir.stno_run`` as ``scipy.signal.lfilter`` evaluates it."""
    x = np.asarray(x, dtype=np.float64)
    if v0 is None:
        v0 = p.rest_amplitude
    v_inf = p.c * np.sqrt(np.maximum(0.0, p.i_dc - x - p.i_c))
    a = p.decay
    return lfilter([1.0], [1.0, -a], (1.0 - a) * v_inf, zi=[a * v0])[0]


def _lfilter_node_run_reference(x, p, v0=0.0):
    """``reservoir.node_run_reference`` as ``scipy.signal.lfilter`` evaluates it."""
    z = np.tanh(p.gain * np.asarray(x, dtype=np.float64))
    return lfilter([p.leak], [1.0, -(1.0 - p.leak)], z, zi=[(1.0 - p.leak) * v0])[0]


@pytest.fixture()
def lfilter_stno_run():
    """The reference integrator the oscillator's blocked scan is held to."""
    return _lfilter_stno_run


@pytest.fixture()
def lfilter_node_run_reference():
    """The reference integrator the tanh node's blocked scan is held to."""
    return _lfilter_node_run_reference


def _lfilter_cascade(clip, cfg):
    """The cochlea's filter cascade as ``scipy.signal.lfilter`` runs it, one
    section after another on the pre-emphasized clip: the taps before
    rectification, (n_sections, n_samples)."""
    sr = clip.sample_rate
    x = pre_emphasis(clip.samples, math.exp(-2.0 * math.pi * 300.0 / sr))
    taps = []
    for cf in cochlea.design_center_freqs(sr, cfg):
        x = lfilter(*cochlea._section_coeffs(cf, cfg, sr), x)
        taps.append(x)
    return np.array(taps)


@pytest.fixture()
def lfilter_cascade():
    """The reference the cochlea's numpy cascade is held to, bit for bit."""
    return _lfilter_cascade
