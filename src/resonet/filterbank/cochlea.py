"""Cochlear filterbank: cascade model with adaptive gain.

The front end follows the classic cascade formulation of a passive
cochlea: a pre-emphasis stage feeds a chain of second-order sections
whose center frequencies march from just below Nyquist down toward the
apex, each tap is half-wave rectified, four coupled automatic gain
control stages compress the rectified envelopes, and the result is
decimated to frame rate by block averaging.  All outputs are
nonnegative.

Channel spacing is proportional to the local critical bandwidth
``sqrt(f^2 + break_freq^2) / ear_q``, so the channel count follows from
the spacing and the sample rate (``design_center_freqs``): the defaults
place 78 channels for a 12.5 kHz corpus.

A batch of clips runs at once (``cochleagrams``; ``cochleagram`` is a
batch of one), zero-padded to the longest, in one Python time loop
(``_cochlea``) whose numpy calls serve every clip.  Each clip's features
are bit-identical to running its sections one after another as scipy's
``lfilter`` does, then its gain stages one after another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..dataset import AudioClip
from ..errors import ConfigError, DataError
from .stft import pre_emphasis, whole_samples

# clips per ``cochleagrams`` call when a corpus is featurized: each loop
# step's numpy calls then serve this many clips, and a batch holds about
# 0.5 MB a clip.  Measured on the default corpus (README "Install"), 16 to
# 32 clips ran fastest on one thread; two threads contend for the
# interpreter lock between calls, so a corpus runs its batches on one.
COCHLEAR_BATCH = 32
_ROWS = 256                 # cascade steps a batch's row buffer holds

@dataclass(frozen=True)
class CochlearConfig:
    ear_q: float = 8.0
    step_factor: float = 0.25
    break_freq: float = 1000.0
    min_freq: float = 44.0
    top_margin: float = 0.05          # fraction of Nyquist left above the first channel
    sharpness: float = 5.0            # pole bandwidth = channel bandwidth / sharpness
    zero_offset: float = 1.5          # zeros sit this factor above each channel center
    agc_targets: tuple[float, ...] = (0.0032, 0.0016, 0.0008, 0.0004)
    agc_taus: tuple[float, ...] = (0.64, 0.16, 0.04, 0.01)   # seconds
    decim_seconds: float = 0.02

    def __post_init__(self) -> None:
        if self.ear_q <= 0 or self.step_factor <= 0 or self.break_freq <= 0:
            raise ConfigError("ear_q, step_factor and break_freq must be positive")
        if self.min_freq <= 0:
            raise ConfigError("min_freq must be positive")
        if not 0.0 <= self.top_margin < 1.0:
            raise ConfigError("top_margin must lie in [0, 1)")
        if self.sharpness < 1.0:
            raise ConfigError("sharpness must be >= 1")
        if self.zero_offset <= 1.0:
            raise ConfigError("zero_offset must exceed 1")
        if len(self.agc_targets) != len(self.agc_taus):
            raise ConfigError("agc_targets and agc_taus must have equal length")
        if any(t <= 0 for t in self.agc_targets) or any(t <= 0 for t in self.agc_taus):
            raise ConfigError("AGC targets and time constants must be positive")
        if self.decim_seconds <= 0:
            raise ConfigError("decim_seconds must be positive")


def critical_bandwidth(f: float, cfg: CochlearConfig) -> float:
    return math.sqrt(f * f + cfg.break_freq ** 2) / cfg.ear_q


def design_center_freqs(sample_rate: int, cfg: CochlearConfig = CochlearConfig()) -> np.ndarray:
    """Channel center frequencies in Hz, ordered base to apex (high to low)."""
    f = sample_rate / 2.0 * (1.0 - cfg.top_margin)
    cfs = []
    while f > cfg.min_freq:
        cfs.append(f)
        f -= cfg.step_factor * critical_bandwidth(f, cfg)
    if not cfs:
        raise ConfigError("cochlear design produced no channels; check min_freq")
    return np.array(cfs)


def _section_coeffs(cf: float, cfg: CochlearConfig, sample_rate: int):
    """Biquad for one cascade stage: resonant poles at the channel center,
    zeros half an octave-ish above it, unity gain at DC."""
    bw = critical_bandwidth(cf, cfg)
    theta_p = 2.0 * math.pi * cf / sample_rate
    r_p = math.exp(-math.pi * bw / (cfg.sharpness * sample_rate))
    f_z = min(cfg.zero_offset * cf, 0.49 * sample_rate)
    theta_z = 2.0 * math.pi * f_z / sample_rate
    r_z = math.exp(-math.pi * bw / sample_rate)
    b = np.array([1.0, -2.0 * r_z * math.cos(theta_z), r_z * r_z])
    a = np.array([1.0, -2.0 * r_p * math.cos(theta_p), r_p * r_p])
    return b * (a.sum() / b.sum()), a


def _frame_means(block: np.ndarray) -> np.ndarray:
    """Each clip's output frame: the mean over its ``decim`` samples of a
    (n_clips, n_ch, decim) block of gain-control outputs."""
    return block.mean(axis=2)


def _cochlea(signals: Sequence[np.ndarray], b: np.ndarray, a: np.ndarray, eps: np.ndarray,
             target: np.ndarray, decim: int) -> list[np.ndarray]:
    """The cascade, rectification, gain control and decimation of a batch
    of pre-emphasized clips: each clip's frames, (n_sec, its length //
    decim).  The clips are zero-padded to the longest, n_t samples.

    The cascade.  ``b`` and ``a`` are (n_sec, 3), ``a[:, 0]`` all 1.  Each
    section is ``lfilter``'s transposed direct form II, in its order of
    operations::

        y = z0 + b0*x;   z0 = (z1 + x*b1) - y*a1;   z1 = x*b2 - y*a2

    Section k trails section k - 1 by one sample, so every section runs at
    every step.  ``rows`` holds one row per step, (n_sec + 1, n_clips):
    slot 0 the input samples, slot k + 1 section k's outputs of the step
    before, so a step reads its row's slots 0..n_sec - 1 and writes the
    next row's slots 1..n_sec, each one contiguous block.  Before its
    first sample a section reads zeros from a zero state and writes zeros.
    ``rows`` keeps ``_ROWS`` steps and carries its last n_sec rows to its
    head when full, so a batch holds no clip's taps.

    The gain control.  Channel k's sample s is slot k + 1 of row
    s + k + 1: a diagonal, complete at step s + ``lead``, where it is
    rectified into the first stage.  Per sample, stage s scales each
    channel by ``1 - state`` clamped to [0, 1]; the state tracks that
    output over ``target[s]`` at rate ``eps[s]`` and is smoothed with a
    [1/4, 1/2, 1/4] kernel ([3/4, 1/4] at the edges), so loud channels also
    depress their neighbors.  Stage s + 1 reads only stage s at the same
    time, so it trails stage s by one sample and all stages run at once; a
    stage not yet at sample 0 sees zero input from a zero state, which
    stays exactly zero.  Every operand is a flat, contiguous vector, and
    nothing broadcasts: each (stage, clip) is a row of ``n_sec + 2``
    slots, its channels between two zero border slots, and the state
    buffer holds the rows end to end plus one zero slot at each end, so
    ``state``, ``left`` and ``right`` are three shifted slices of it.  The
    outputs ``z`` hold one more stage of rows, the input, so stage s reads
    its rows and writes those of stage s + 1.  The border slots get rate
    0, target 1 and weights 0, so they stay exactly 0 and no clip reads
    another, and an edge channel's sums ``(0 + 0.75*s[0]) + 0.25*s[1]``
    and ``(0.25*s[-2] + 0.75*s[-1]) + 0`` round as the two-term edge sums
    do.  The clamp needs no upper bound: the taps, the gain, ``eps`` and
    the weights are nonnegative and rounding is monotone, so the state is
    never negative.

    Decimation.  The last stage's output of sample i goes to column
    ``i % decim`` of ``block``, and each full block is one frame
    (``_frame_means``), summed as a clip's own contiguous frame is.
    """
    n_clips, n_t = len(signals), max(signal.size for signal in signals)
    n_sec, n_stages = b.shape[0], eps.shape[0]
    lead = n_sec - 1                    # the step at which sample 0 leaves the cascade
    lag = max(n_stages - 1, 0)          # the steps it then takes through the gain stages
    n_frames = n_t // decim
    n_steps = lead + lag + n_frames * decim

    # the cascade: each step's row of slots, and its sections' coefficients and delays
    slots = n_sec + 1
    rows = np.zeros((_ROWS + n_sec, slots, n_clips))
    inputs = np.zeros((lead + n_t + lag + _ROWS + n_sec, n_clips))   # zeros past the clips
    for c, signal in enumerate(signals):
        inputs[lead:lead + signal.size, c] = signal     # row t's input is inputs[t + lead]
    item, width = rows.itemsize, slots * n_clips
    taps = as_strided(rows[1:, 1:], (_ROWS, n_clips, n_sec),
                      (width * item, item, (width + n_clips) * item))
    coef_b = np.broadcast_to(b.T[:, :, None], (3, n_sec, n_clips)).copy()
    coef_a = np.broadcast_to(a.T[1:, :, None], (2, n_sec, n_clips)).copy()
    delay = np.zeros((2, n_sec, n_clips))       # z0, z1 of every section
    bx = np.empty((3, n_sec, n_clips))          # b0*x, then z1 + x*b1, x*b2
    ay = np.empty((2, n_sec, n_clips))          # y*a1, y*a2
    z0, z1, bx0, bx1, bx12 = delay[0], delay[1], bx[0], bx[1], bx[1:]

    # the gain control: one row of slots per (stage, clip)
    w = n_sec + 2
    stage = n_clips * w                 # one stage's rows
    size = n_stages * stage

    def flat(values, border=0.0):
        """``values`` as (n_stages, n_clips, n_sec), each row between two
        border slots, raveled."""
        out = np.full((n_stages, n_clips, w), border)
        out[:, :, 1:-1] = values
        return out.ravel()

    w_left = np.r_[0.0, np.full(n_sec - 1, 0.25)]
    w_right = w_left[::-1]
    w_mid = 1.0 - w_left - w_right      # 0.5 inside, 0.75 at an edge, 1 alone
    w_left, w_mid, w_right = flat(w_left), flat(w_mid), flat(w_right)
    per_stage = (n_stages, 1, 1)
    eps = flat(eps.reshape(per_stage))
    target = flat(target.reshape(per_stage), border=1.0)   # on a border, 0 / 1 stays 0
    z = np.zeros(size + stage)          # the input's rows, then each stage's latest output
    z_in, z_out = z[:size], z[stage:]
    z_first = z[:stage].reshape(n_clips, w)[:, 1:-1]
    z_last = z[size:].reshape(n_clips, w)[:, 1:-1]
    buf = np.zeros(size + 2)            # the rows, plus one zero slot at each end
    state, left, right = buf[1:-1], buf[:-2], buf[2:]
    gain, tmp = np.empty(size), np.empty(size)

    block = np.empty((n_clips, n_sec, decim))
    columns = [block[:, :, r] for r in range(decim)]
    frames = np.empty((n_clips, n_sec, n_frames))
    for t0 in range(0, n_steps, _ROWS):
        if t0:
            rows[:n_sec] = rows[_ROWS:]
        rows[:, 0] = inputs[t0:t0 + _ROWS + n_sec]
        for t, x_t, y, tap in zip(range(t0, n_steps), rows[lead:, :n_sec],
                                  rows[lead + 1:, 1:], taps):
            np.multiply(x_t, coef_b, out=bx)
            np.add(z0, bx0, out=y)
            np.multiply(y, coef_a, out=ay)
            np.add(z1, bx1, out=bx1)
            np.subtract(bx12, ay, out=delay)
            if t < lead:
                continue
            np.maximum(tap, 0.0, out=z_first)
            np.subtract(1.0, state, out=gain)
            np.maximum(gain, 0.0, out=gain)
            np.multiply(z_in, gain, out=z_out)
            i = t - lead - lag          # the sample leaving the last stage
            if i >= 0:
                columns[i % decim][...] = z_last
                if i % decim == decim - 1:
                    frames[:, :, i // decim] = _frame_means(block)
            np.divide(z_out, target, out=tmp)
            np.subtract(tmp, state, out=tmp)
            np.multiply(eps, tmp, out=tmp)
            np.add(state, tmp, out=state)
            np.multiply(left, w_left, out=tmp)
            np.multiply(state, w_mid, out=gain)
            np.add(tmp, gain, out=tmp)
            np.multiply(right, w_right, out=gain)
            np.add(tmp, gain, out=state)
    return [clip_frames[:, :signal.size // decim].copy()
            for clip_frames, signal in zip(frames, signals)]


def cochleagrams(clips: Sequence[AudioClip],
                 cfg: CochlearConfig = CochlearConfig()) -> list[np.ndarray]:
    """Each clip's nonnegative cochlear feature matrix, (n_channels,
    n_frames) for its own length, computed for the batch at once: each
    clip's features are bit-identical to a batch of it alone."""
    if not clips:
        return []
    sr = clips[0].sample_rate
    if any(clip.sample_rate != sr for clip in clips):
        raise DataError("a cochlear batch must share one sample rate")
    cfs = design_center_freqs(sr, cfg)
    decim = whole_samples("cochlear.decim_seconds", cfg.decim_seconds, sr)
    for clip in clips:
        if clip.samples.size < decim:
            raise DataError(
                f"clip {clip.clip_id!r} shorter than one {decim}-sample output frame")

    # outer/middle-ear pre-emphasis: first-order high-pass
    signals = [pre_emphasis(clip.samples, math.exp(-2.0 * math.pi * 300.0 / sr))
               for clip in clips]
    b, a = map(np.array, zip(*(_section_coeffs(cf, cfg, sr) for cf in cfs)))
    eps = np.array([1.0 - math.exp(-1.0 / (tau * sr)) for tau in cfg.agc_taus])
    return _cochlea(signals, b, a, eps, np.array(cfg.agc_targets), decim)


def cochleagram(clip: AudioClip, cfg: CochlearConfig = CochlearConfig()) -> np.ndarray:
    """Nonnegative cochlear feature matrix, shape (n_channels, n_frames):
    ``cochleagrams`` on a batch of one."""
    return cochleagrams([clip], cfg)[0]
