import importlib
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from resonet.dataset import AudioClip, build_synth_manifest, realize_clip, synth_digit
from resonet.errors import ConfigError, DataError, DegenerateInputWarning
from resonet.filterbank import (FeatureMatrix, exponent_transform, featurize,
                                normalize_maxabs, pad_to,
                                spectro_hp_from_complex, stft_complex)
from resonet.filterbank import cochlea
from resonet.filterbank.cochlea import (CochlearConfig, cochleagram, cochleagrams,
                                        design_center_freqs)
from resonet.filterbank.mfcc import MfccConfig, dct_ii, mel_filterbank, mfcc
from resonet.filterbank.stft import StftConfig, frame_count, framed_spectrum, hann


def _clip(samples, rate=12500):
    return AudioClip(np.asarray(samples, dtype=np.float64), rate, "t")


# ---------------------------------------------------------------------------
# STFT

def test_frame_count_matches_naive_slicing():
    cfg = StftConfig(fft_size=128, hop=64)
    for n in (128, 129, 191, 192, 500, 5000):
        naive = 0
        pos = 0
        while pos + cfg.fft_size <= n:
            naive += 1
            pos += cfg.hop
        assert frame_count(n, cfg.fft_size, cfg.hop) == naive


def test_frame_count_rejects_short_clips():
    with pytest.raises(DataError):
        frame_count(127, 128, 64)


def test_window_values_periodic_hann():
    w = hann(8)
    ref = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(8) / 8)
    assert np.allclose(w, ref, atol=0)
    assert w[0] == 0.0  # periodic, not symmetric: first sample is zero


def test_hann_window_makes_the_real_spectrum_rank_deficient():
    """The rank cut behind the alpha=1 baseline (README, "Rank cut").

    The periodic Hann window has w[0] = 0, so for the 128-point frames
    X_0 + 2 * sum(Re X_k, k = 1..63) + X_64 = 128 * x[0] * w[0] = 0 in
    every frame: the alpha = 1 ``spectro_exp`` rows are linearly
    dependent, and a readout on them can reach rank 64 of 65 only.
    """
    weights = np.r_[1.0, np.full(63, 2.0), 1.0]
    manifest = build_synth_manifest(1001)
    frames = []
    for i in sorted(random.Random(1001).sample(range(len(manifest)), 4)):
        clip = realize_clip(manifest.entries[i], sample_rate=manifest.sample_rate)
        feats = featurize(clip, "spectro_exp", 1.0).values
        # zero to rounding, frame by frame
        bound = 128 * np.finfo(float).eps * (weights @ np.abs(feats))
        assert np.all(np.abs(weights @ feats) <= bound), manifest.entries[i].clip_id
        # a window without a zero sample breaks the identity: the same
        # frames, unwindowed
        unwindowed = np.fft.rfft(np.lib.stride_tricks.sliding_window_view(
            clip.samples, 128)[::64], axis=1).T
        rect = normalize_maxabs(np.real(unwindowed))
        assert np.max(np.abs(weights @ rect)) > 0.1
        frames.append(feats.T)
    # the default readout cut (rtol 1e-10) removes that one direction and no other
    s = np.linalg.svd(np.vstack(frames), compute_uv=False)
    assert s[-1] < 1e-10 * s[0] < s[-2]


def test_stft_matches_naive_dft(rng):
    """Windowed frames against an explicit DFT matrix."""
    cfg = StftConfig(fft_size=32, hop=16)
    x = rng.standard_normal(200) * 0.3
    z = stft_complex(_clip(x), cfg)
    k = np.arange(17)[:, None]
    n = np.arange(32)[None, :]
    dft = np.exp(-2j * np.pi * k * n / 32)
    w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(32) / 32)
    for tau in range(z.shape[1]):
        frame = x[tau * 16:tau * 16 + 32] * w
        assert np.max(np.abs(z[:, tau] - dft @ frame)) < 1e-12


def test_framed_spectrum_matches_naive_dft_at_the_mfcc_geometry(rng):
    """312-sample Hann frames every 125 samples, zero-padded to 512
    points, as ``mfcc`` frames a 12.5 kHz clip, against an explicit DFT
    of each frame (phases reduced exactly, mod 512)."""
    cfg = MfccConfig()
    assert (round(cfg.frame_seconds * 12500), round(cfg.hop_seconds * 12500)) == (312, 125)
    x = rng.standard_normal(2000) * 0.3
    z = framed_spectrum(x, 312, 125, 512)
    assert z.shape == (1 + (2000 - 312) // 125, 257)
    k = np.arange(257)[:, None]
    n = np.arange(312)[None, :]
    dft = np.exp(-2j * np.pi * ((k * n) % 512) / 512)
    w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(312) / 312)
    for tau, row in enumerate(z):
        frame = x[tau * 125:tau * 125 + 312] * w
        assert np.max(np.abs(row - dft @ frame)) < 1e-12


def test_stft_shape_and_no_padding():
    cfg = StftConfig()
    clip = _clip(np.zeros(128 + 64 * 5 + 63))
    z = stft_complex(clip, cfg)
    assert z.shape == (65, 6)  # the trailing 63 samples never form a frame


def test_stft_config_validation():
    with pytest.raises(ConfigError):
        StftConfig(fft_size=100)  # not a power of two
    with pytest.raises(ConfigError):
        StftConfig(hop=0)
    with pytest.raises(ConfigError):
        StftConfig(hop=256)


# ---------------------------------------------------------------------------
# normalization and pointwise transforms

def test_normalize_maxabs_unit_peak(rng):
    x = rng.standard_normal((9, 14)) * 3.7
    y = normalize_maxabs(x)
    assert np.max(np.abs(y)) == pytest.approx(1.0)
    assert np.allclose(y * np.max(np.abs(x)), x)


def test_normalize_maxabs_zero_input_warns():
    with pytest.warns(DegenerateInputWarning):
        y = normalize_maxabs(np.zeros((3, 3)))
    assert np.all(y == 0.0)


def test_exponent_transform_frozen_values():
    x = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    # alpha=0 collapses everything to one
    assert np.array_equal(exponent_transform(x, 0.0), np.ones(5))
    # alpha=1 is the identity
    assert np.array_equal(exponent_transform(x, 1.0), x)
    # integer alphas follow signed powers
    assert exponent_transform(x, 3.0) == pytest.approx([-1, -0.125, 0, 0.125, 1])
    assert exponent_transform(x, 2.0) == pytest.approx([1, 0.25, 0, 0.25, 1])
    # half-integer alpha sits on the branch midpoint: cos(pi/2) kills the
    # negative side up to rounding
    out = exponent_transform(np.array([-0.5]), 2.5)
    assert abs(out[0]) < 1e-15


def test_exponent_transform_matches_complex_power(rng):
    """Principal-branch complex evaluation is the oracle."""
    x = rng.uniform(-1.0, 1.0, size=3000)
    x[np.abs(x) < 1e-6] = 0.5
    for alpha in (0.3, 1.0, 1.7, 2.0, 2.5, 3.9, 5.0):
        got = exponent_transform(x, alpha)
        want = np.real(np.power(x.astype(complex), alpha))
        assert np.max(np.abs(got - want)) < 1e-12


def test_exponent_transform_rejects_bad_alpha():
    with pytest.raises(ConfigError):
        exponent_transform(np.zeros(3), np.nan)
    with pytest.raises(ConfigError):
        exponent_transform(np.zeros(3), np.inf)


def test_spectro_hp_frozen_values():
    # hp on a pure-real unit entry: |sin 1| - |cos 0| = |sin 1| - 1
    z = np.array([[1.0 + 0.0j]])
    out = spectro_hp_from_complex(z)
    assert out[0, 0] == pytest.approx(abs(np.sin(1.0)) - 1.0)
    # joint scale: imaginary part twice the real part means re maps to 0.5
    z = np.array([[1.0 + 2.0j]])
    out = spectro_hp_from_complex(z)
    want = abs(np.sin(np.sqrt(0.5))) - abs(np.cos(np.sqrt(1.0)))
    assert out[0, 0] == pytest.approx(want)


def test_spectro_hp_zero_matrix_warns():
    with pytest.warns(DegenerateInputWarning):
        out = spectro_hp_from_complex(np.zeros((2, 2), dtype=complex))
    assert np.all(out == -1.0)  # |sin 0| - |cos 0|


def test_spectro_hp_range():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    out = spectro_hp_from_complex(z)
    assert np.all(out >= -1.0) and np.all(out <= 1.0)


# ---------------------------------------------------------------------------
# MFCC

def test_mel_filterbank_shape_and_coverage():
    fb = mel_filterbank(26, 512, 12500)
    assert fb.shape == (26, 257)
    assert np.all(fb >= 0.0)
    # every filter has some support, and supports march upward in frequency
    peaks = np.argmax(fb, axis=1)
    assert np.all(np.diff(peaks) > 0)
    assert fb.sum() > 0


def test_mfcc_output_shape():
    clip = synth_digit(3, 100, 0)
    cfg = MfccConfig()
    out = mfcc(clip, cfg)
    assert out.shape[0] == cfg.n_coeffs
    # 25 ms window / 10 ms hop over ~0.5 s
    assert 40 <= out.shape[1] <= 60
    assert np.all(np.isfinite(out))


def test_mfcc_dct_is_orthonormal(corpus, monkeypatch):
    """The decorrelation stage is scipy's orthonormal DCT-II: its full
    basis is that cosine matrix and orthonormal, and ``mfcc`` on default
    clips of several lengths, and on a quiet clip, equals the same
    pipeline finished by ``scipy.fft.dct``, within 1e-12 of each clip's
    largest coefficient."""
    from scipy.fft import dct
    n = MfccConfig().n_filters
    basis = dct_ii(n, n)
    assert np.max(np.abs(dct(np.eye(n), type=2, norm="ortho", axis=0) - basis)) < 1e-12
    assert np.max(np.abs(basis @ basis.T - np.eye(n))) < 1e-12

    manifest, _ = corpus
    clips = [realize_clip(e) for e in manifest.entries[::25]] + [_clip(np.full(4000, 1e-8))]
    assert len({clip.samples.size for clip in clips}) >= 10
    cepstra = [mfcc(clip) for clip in clips]
    # the identity in place of the basis leaves the log mel energies exactly
    monkeypatch.setattr(importlib.import_module("resonet.filterbank.mfcc"), "dct_ii",
                        lambda n_coeffs, n_points: np.eye(n_points))
    for clip, got in zip(clips, cepstra):
        want = dct(mfcc(clip), type=2, norm="ortho", axis=0)[: MfccConfig().n_coeffs]
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), clip.clip_id


def test_mfcc_refuses_a_clip_shorter_than_one_frame():
    with pytest.raises(DataError, match="'t' too short for analysis: 311 samples"):
        mfcc(_clip(np.zeros(311)))


def test_mfcc_handles_quiet_input():
    clip = _clip(np.full(4000, 1e-8))
    out = mfcc(clip)
    assert np.all(np.isfinite(out))


# ---------------------------------------------------------------------------
# cochleagram

def test_cochlea_channel_count_at_default_rate():
    cfs = design_center_freqs(12500)
    assert cfs.size == 78
    assert np.all(np.diff(cfs) < 0)  # designed high to low
    assert cfs.min() > 40.0
    assert cfs.max() < 6250.0


def test_cochleagram_shape_and_sign():
    clip = synth_digit(5, 100, 1)
    out = cochleagram(clip)
    assert out.shape[0] == 78
    # 20 ms blocks over ~0.5 s
    assert 20 <= out.shape[1] <= 30
    assert np.all(out >= 0.0)
    assert np.any(out > 0.0)


def test_cochleagram_tracks_tone_frequency():
    """Higher tones must peak in higher-frequency (lower-index) channels."""
    t = np.arange(6250) / 12500.0
    peaks = []
    for f in (300.0, 1000.0, 3000.0):
        env = np.hanning(t.size)
        clip = _clip(0.8 * np.sin(2 * np.pi * f * t) * env)
        out = cochleagram(clip)
        peaks.append(int(np.argmax(out.sum(axis=1))))
    assert peaks[0] > peaks[1] > peaks[2]


def test_cochleagram_agc_compresses_level():
    """A tenfold broadband level step shrinks well below tenfold.

    Broadband input loads every channel, so the spatially coupled gain
    control acts like a plain per-channel compressor; the steady-state
    window skips the adaptation transient.
    """
    rng = np.random.default_rng(5)
    noise = rng.standard_normal(12500)
    noise /= np.max(np.abs(noise))
    loud = cochleagram(_clip(0.9 * noise))
    quiet = cochleagram(_clip(0.09 * noise))
    r_out = loud[:, 30:].mean() / quiet[:, 30:].mean()
    assert 1.0 < r_out < 5.0


def reference_agc_stage(x: np.ndarray, eps: float, target: float) -> np.ndarray:
    """One adaptive gain stage, coupled across neighboring channels.

    Oracle for ``cochleagram``'s gain control, run one stage at a time.
    Per sample each channel is scaled by ``1 - state`` (clamped to
    [0, 1]); the state tracks the scaled output relative to its target
    and is smoothed spatially with a [1/4, 1/2, 1/4] kernel so loud
    channels also depress their neighbors.
    """
    n_ch, n_t = x.shape
    out = np.empty_like(x)
    state = np.zeros(n_ch)
    for t in range(n_t):
        gain = np.clip(1.0 - state, 0.0, 1.0)
        y = x[:, t] * gain
        out[:, t] = y
        state = state + eps * (y / target - state)
        smoothed = state.copy()
        if n_ch > 2:
            smoothed[1:-1] = 0.25 * state[:-2] + 0.5 * state[1:-1] + 0.25 * state[2:]
        if n_ch > 1:
            smoothed[0] = 0.75 * state[0] + 0.25 * state[1]
            smoothed[-1] = 0.25 * state[-2] + 0.75 * state[-1]
        state = smoothed
    return out


def _gain_control_outputs(monkeypatch, clips, cfg):
    """Each clip's last gain-stage output, sample by sample over its whole
    frames, as ``cochleagrams`` hands it to ``_frame_means``; with an empty
    gain chain, the rectified cascade taps."""
    blocks, frame_means = [], cochlea._frame_means

    def spy(block):
        blocks.append(block.copy())
        return frame_means(block)

    with monkeypatch.context() as patch:
        patch.setattr(cochlea, "_frame_means", spy)
        cochleagrams(clips, cfg)
    decim = blocks[0].shape[2]
    out = np.concatenate(blocks, axis=2)
    return [rows[:, : clip.samples.size // decim * decim] for rows, clip in zip(out, clips)]


def _agc_batch_against_reference(monkeypatch, clips, cfg=CochlearConfig()):
    """Run ``cochleagrams`` on the batch and return, for each clip over its
    whole frames, the gain control's output together with the
    stage-by-stage reference chain on the same rectified taps."""
    taps = _gain_control_outputs(monkeypatch, clips, replace(cfg, agc_targets=(), agc_taus=()))
    pairs = []
    for clip, want, got in zip(clips, taps, _gain_control_outputs(monkeypatch, clips, cfg)):
        for tau, target in zip(cfg.agc_taus, cfg.agc_targets):
            eps = 1.0 - math.exp(-1.0 / (tau * clip.sample_rate))
            want = reference_agc_stage(want, eps, target)
        pairs.append((got, want))
    return pairs


def _agc_against_reference(monkeypatch, clip, cfg=CochlearConfig()):
    """``_agc_batch_against_reference`` on a batch of one clip."""
    return _agc_batch_against_reference(monkeypatch, [clip], cfg)[0]


@pytest.mark.parametrize("synth_seed", [1001, 1002])
def test_pipelined_agc_is_bit_identical_on_corpus_clips(monkeypatch, synth_seed):
    manifest = build_synth_manifest(synth_seed)
    for i in sorted(random.Random(synth_seed).sample(range(len(manifest)), 4)):
        clip = realize_clip(manifest.entries[i], sample_rate=manifest.sample_rate)
        got, want = _agc_against_reference(monkeypatch, clip)
        assert np.array_equal(got, want), manifest.entries[i].clip_id


def test_pipelined_agc_is_bit_identical_on_tones_and_silence(monkeypatch):
    t = np.arange(6250) / 12500.0
    tone = 0.8 * np.sin(2 * np.pi * 1000.0 * t) * np.hanning(t.size)
    got, want = _agc_against_reference(monkeypatch, _clip(tone))
    assert np.array_equal(got, want)
    # a leading stretch of exact zeros keeps every stage at rest
    delayed = np.concatenate([np.zeros(1500), tone[:4750]])
    got, want = _agc_against_reference(monkeypatch, _clip(delayed))
    assert np.array_equal(got, want)
    assert np.all(got[:, :1500] == 0.0)


def test_pipelined_agc_is_bit_identical_at_the_clamp(monkeypatch):
    """The loud clip of ``test_cochleagram_agc_compresses_level`` drives
    the gain to its clamp at 0.  The pipelined loop clamps the gain from
    below only; the reference clamps both ends with ``np.clip``."""
    rng = np.random.default_rng(5)
    noise = rng.standard_normal(12500)
    noise /= np.max(np.abs(noise))
    got, want = _agc_against_reference(monkeypatch, _clip(0.9 * noise))
    assert np.array_equal(got, want)
    taps = _agc_against_reference(monkeypatch, _clip(0.9 * noise),
                                  CochlearConfig(agc_targets=(), agc_taus=()))[0]
    assert np.any((taps > 0.0) & (got == 0.0))   # the clamp is reached


@pytest.mark.parametrize("min_freq, n_ch", [(5800.0, 1), (5700.0, 2)])
def test_pipelined_agc_is_bit_identical_with_one_or_two_channels(monkeypatch, min_freq, n_ch):
    cfg = CochlearConfig(min_freq=min_freq)
    rng = np.random.default_rng(n_ch)
    got, want = _agc_against_reference(monkeypatch, _clip(rng.uniform(-0.9, 0.9, 5000)), cfg)
    assert got.shape[0] == n_ch
    assert np.array_equal(got, want)


def test_pipelined_agc_is_bit_identical_on_two_clips_in_a_batch(monkeypatch):
    """Each (stage, clip) row sits between its own zero-weighted borders, so
    a clip's gain control never reads its neighbor's state; the shorter clip
    runs on zero padding past its end, which no feature reads."""
    manifest = build_synth_manifest(1001)
    clips = [realize_clip(manifest.entries[i], sample_rate=manifest.sample_rate)
             for i in (3, 7)]
    assert clips[0].samples.size != clips[1].samples.size
    for (got, want), clip in zip(_agc_batch_against_reference(monkeypatch, clips), clips):
        assert np.array_equal(got, want), clip.clip_id


def test_empty_agc_chain_passes_rectified_taps_through(monkeypatch):
    got, want = _agc_against_reference(monkeypatch, synth_digit(3, 100, 0),
                                       CochlearConfig(agc_targets=(), agc_taus=()))
    assert np.array_equal(got, want)


def _cascade_against_lfilter(monkeypatch, lfilter_cascade, clips, cfg=CochlearConfig()):
    """Run ``cochleagrams`` on the batch and check each clip's cascade taps,
    over its whole frames, against ``lfilter`` section by section.  The
    taps are seen through the rectifier, so the batch runs twice, once
    negated: the cascade is linear and rounds symmetrically, so the
    negated clips' taps are the taps negated, bit for bit, and a tap is
    its two rectified halves' difference."""
    bare = replace(cfg, agc_targets=(), agc_taus=())
    flipped = [AudioClip(-clip.samples, clip.sample_rate, clip.clip_id) for clip in clips]
    ups = _gain_control_outputs(monkeypatch, clips, bare)
    downs = _gain_control_outputs(monkeypatch, flipped, bare)
    for clip, up, down in zip(clips, ups, downs):
        want = lfilter_cascade(clip, cfg)[:, :up.shape[1]]
        assert want.shape[0] == design_center_freqs(clip.sample_rate, cfg).size
        assert np.array_equal(up - down, want), clip.clip_id
        assert np.array_equal(up, np.maximum(want, 0.0)), clip.clip_id


@pytest.mark.parametrize("synth_seed", [1001, 1002])
def test_cascade_matches_lfilter_on_corpus_clips(monkeypatch, lfilter_cascade, synth_seed):
    """Four clips of different lengths in one batch, then each alone."""
    manifest = build_synth_manifest(synth_seed)
    clips = [realize_clip(manifest.entries[i], sample_rate=manifest.sample_rate)
             for i in sorted(random.Random(synth_seed).sample(range(len(manifest)), 4))]
    assert len({clip.samples.size for clip in clips}) > 1
    _cascade_against_lfilter(monkeypatch, lfilter_cascade, clips)
    for clip in clips:
        _cascade_against_lfilter(monkeypatch, lfilter_cascade, [clip])


def test_cascade_matches_lfilter_on_noise_tones_and_silence(monkeypatch, lfilter_cascade):
    manifest = build_synth_manifest(1001)
    entry = manifest.entries[0]
    noisy = realize_clip(replace(entry, label=replace(entry.label, noise_type="synthetic-white",
                                                      snr_db=10.0)),
                         sample_rate=manifest.sample_rate, noise_seed=manifest.noise_seed)
    t = np.arange(6250) / 12500.0
    tone = 0.8 * np.sin(2 * np.pi * 1000.0 * t) * np.hanning(t.size)
    delayed = np.concatenate([np.zeros(1500), tone[:4750]])
    _cascade_against_lfilter(monkeypatch, lfilter_cascade,
                             [noisy, _clip(tone), _clip(delayed)])


@pytest.mark.parametrize("min_freq, n_ch", [(5800.0, 1), (5700.0, 2)])
def test_cascade_matches_lfilter_with_one_or_two_channels(monkeypatch, lfilter_cascade,
                                                          min_freq, n_ch):
    cfg = CochlearConfig(min_freq=min_freq)
    assert design_center_freqs(12500, cfg).size == n_ch
    rng = np.random.default_rng(n_ch)
    _cascade_against_lfilter(monkeypatch, lfilter_cascade,
                             [_clip(rng.uniform(-0.9, 0.9, 5000))], cfg)


def test_a_batch_gives_each_clip_its_own_cochleagram():
    """Clips of different lengths, a silent clip and a clip exactly one
    output frame long (250 samples) in one batch: each clip's features
    are bit-identical to a batch of it alone."""
    manifest = build_synth_manifest(1002)
    clips = [realize_clip(manifest.entries[i], sample_rate=manifest.sample_rate)
             for i in (0, 11, 42)]
    clips += [AudioClip(np.zeros(3000), 12500, "silent"),
              AudioClip(clips[0].samples[1000:1250].copy(), 12500, "one-frame")]
    batch = cochleagrams(clips)
    assert [f.shape[1] for f in batch] == [clip.samples.size // 250 for clip in clips]
    assert batch[-1].shape == (78, 1) and np.all(batch[-2] == 0.0)
    for clip, got in zip(clips, batch):
        assert np.array_equal(got, cochleagram(clip)), clip.clip_id


def test_a_batch_refuses_a_clip_shorter_than_one_frame():
    clips = [synth_digit(0, 100, 0), _clip(np.ones(249)), synth_digit(1, 100, 0)]
    clips[1] = AudioClip(clips[1].samples, 12500, "too-short")
    with pytest.raises(DataError, match="clip 'too-short' shorter than one 250-sample"):
        cochleagrams(clips)
    with pytest.raises(DataError, match="clip 'too-short' shorter than one 250-sample"):
        cochleagram(clips[1])


# ---------------------------------------------------------------------------
# dispatch and padding

def test_featurize_dispatch_shapes():
    clip = synth_digit(7, 101, 2)
    for kind, rows in (("spectro_exp", 65), ("spectro_hp", 65), ("mfcc", 13),
                       ("cochlear", 78)):
        alpha = 2.0 if kind == "spectro_exp" else None
        fm = featurize(clip, kind, alpha)
        assert isinstance(fm, FeatureMatrix)
        assert fm.n_rows == rows


def test_featurize_requires_alpha_only_for_exp():
    clip = synth_digit(7, 101, 2)
    with pytest.raises(ConfigError):
        featurize(clip, "spectro_exp", None)
    with pytest.raises(ConfigError):
        featurize(clip, "nosuch", None)


def test_pad_to_extends_with_zero_frames():
    short = FeatureMatrix(np.full((3, 4), 2.0), "mfcc", "short")
    long = FeatureMatrix(np.ones((3, 6)), "mfcc", "long")
    out = pad_to([short, long])
    assert out.shape == (2, 3, 6)
    assert np.all(out[0, :, :4] == 2.0)
    assert np.all(out[0, :, 4:] == 0.0)
    assert np.all(out[1] == 1.0)
    wide = pad_to([short, long], 9)
    assert wide.shape == (2, 3, 9)
    assert np.array_equal(wide[:, :, :6], out)
    assert np.all(wide[:, :, 6:] == 0.0)
    with pytest.raises(DataError, match="cannot pad 'long' down"):
        pad_to([short, long], 5)
    # into a reused buffer that held other values: only its leading clips
    # are used, and every entry of them is written
    stale = np.full((3, 3, 9), np.nan)
    reused = pad_to([short, long], 9, out=stale)
    assert np.shares_memory(reused, stale) and reused.shape == (2, 3, 9)
    assert np.array_equal(reused, wide)
    assert np.all(np.isnan(stale[2]))
