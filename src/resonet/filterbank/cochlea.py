"""Cochlear filterbank: cascade model with adaptive gain.

The front end follows the classic cascade formulation of a passive
cochlea: a pre-emphasis stage feeds a chain of second-order sections
whose center frequencies march from just below Nyquist down toward the
apex, each tap is half-wave rectified, four coupled automatic gain
control stages compress the rectified envelopes, and the result is
decimated to frame rate by block averaging.  All outputs are
nonnegative.

Channel spacing is proportional to the local critical bandwidth
``sqrt(f^2 + break_freq^2) / ear_q``; the defaults place exactly 78
channels for a 12.5 kHz corpus, and ``cochleagram`` refuses to run when
the designed channel count disagrees with ``expected_channels``.

The gain control recursion runs as one Python time loop for all stages
(see ``_agc_pipelined``): stage s trails stage s - 1 by one sample, and
each stage's arithmetic is unchanged, so the features are bit-identical
to running the stages one after another.  The loop works on flat buffers
in which every stage's channels sit between zero-weighted zero borders,
with its constants expanded to that layout before the first sample, so
none of its arithmetic broadcasts or strides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..dataset import AudioClip
from ..errors import ConfigError, DataError
from .stft import pre_emphasis


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
    expected_channels: int = 78

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
        if self.expected_channels < 1:
            raise ConfigError("expected_channels must be >= 1")


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


def _agc_pipelined(x: np.ndarray, eps: np.ndarray, target: np.ndarray) -> None:
    """Run the chain of adaptive gain stages over ``x`` (n_ch, n_t) in place.

    Per sample, stage s scales each channel by ``1 - state`` clamped to
    [0, 1]; the state tracks that output over ``target[s]`` at rate
    ``eps[s]`` and is smoothed with a [1/4, 1/2, 1/4] kernel ([3/4, 1/4] at
    the edges), so loud channels also depress their neighbors.  Stage s + 1
    compresses stage s's output and at time t reads only stage s at time t,
    so one loop runs all stages at once: at step k, stage s handles sample
    k - s from what stage s - 1 produced at step k - 1.  A stage not yet at
    sample 0 sees zero input from a zero state, which stays exactly zero.

    The loop's cost is the count of numpy calls, so every operand is a flat,
    contiguous vector of one length and nothing broadcasts.  Each stage is a
    row of ``n_ch + 2`` slots, its channels between two zero border slots;
    the state buffer holds the rows end to end plus one zero slot at each
    end, so ``state``, ``left`` and ``right`` are three shifted slices of it.
    The stage outputs ``z`` hold one more row, the input, so stage s reads
    row s and writes row s + 1.  ``eps``, ``target`` and the smoothing
    weights are expanded to that layout once; the border slots get rate 0,
    target 1 and weights 0, so they stay exactly 0.  Each channel sees the
    operands of the stage-by-stage recursion in the same order, and an edge
    reads its zero border with zero weight: ``(0 + 0.75*s[0]) + 0.25*s[1]``
    and ``(0.25*s[-2] + 0.75*s[-1]) + 0`` round as the two-term edge sums
    do, so the output is bit-identical.

    The clamp needs no upper bound: the state is never negative, since the
    taps, the gain, ``eps`` and the weights are all nonnegative and rounding
    is monotone, so ``state + fl(eps * fl(y/target - state))`` is at least 0
    and ``1 - state`` is at most 1.
    """
    n_stages = eps.shape[0]
    if n_stages == 0:
        return
    n_ch, n_t = x.shape
    samples = x.T                       # samples[t] is the channel vector at time t
    w = n_ch + 2                        # one row: a border slot, the channels, a border slot
    size = n_stages * w

    def flat(values, border=0.0):
        """``values`` as (n_stages, n_ch), each row between two border slots, raveled."""
        rows = np.full((n_stages, w), border)
        rows[:, 1:-1] = values
        return rows.ravel()

    w_left = np.r_[0.0, np.full(n_ch - 1, 0.25)]
    w_right = w_left[::-1]
    w_mid = 1.0 - w_left - w_right      # 0.5 inside, 0.75 at an edge, 1 alone
    w_left, w_mid, w_right = flat(w_left), flat(w_mid), flat(w_right)
    eps, target = flat(eps), flat(target, border=1.0)   # on a border, 0 / 1 stays 0
    z = np.zeros(size + w)              # row 0 the input, row s + 1 stage s's latest output
    z_in, z_out = z[:size], z[w:]
    z_first, z_last = z[1:n_ch + 1], z[size + 1:size + n_ch + 1]
    buf = np.zeros(size + 2)            # the stages' rows, plus one zero slot at each end
    state, left, right = buf[1:-1], buf[:-2], buf[2:]
    gain, tmp = np.empty(size), np.empty(size)
    for k in range(n_t + n_stages - 1):
        if k < n_t:
            z_first[...] = samples[k]
        np.subtract(1.0, state, out=gain)
        np.maximum(gain, 0.0, out=gain)
        np.multiply(z_in, gain, out=z_out)
        if k >= n_stages - 1:   # sample k - n_stages + 1 has left the last stage
            samples[k - n_stages + 1] = z_last
        np.divide(z_out, target, out=tmp)
        np.subtract(tmp, state, out=tmp)
        np.multiply(eps, tmp, out=tmp)
        np.add(state, tmp, out=state)
        np.multiply(left, w_left, out=tmp)
        np.multiply(state, w_mid, out=gain)
        np.add(tmp, gain, out=tmp)
        np.multiply(right, w_right, out=gain)
        np.add(tmp, gain, out=state)


def cochleagram(clip: AudioClip, cfg: CochlearConfig = CochlearConfig()) -> np.ndarray:
    """Nonnegative cochlear feature matrix, shape (n_channels, n_frames)."""
    from scipy.signal import lfilter     # here, to keep scipy off the import path

    sr = clip.sample_rate
    cfs = design_center_freqs(sr, cfg)
    if cfs.size != cfg.expected_channels:
        raise ConfigError(
            f"cochlear design yields {cfs.size} channels at {sr} Hz but "
            f"expected_channels is {cfg.expected_channels}; adjust the "
            f"spacing parameters or the expectation")
    decim = int(round(cfg.decim_seconds * sr))
    if clip.samples.size < decim:
        raise DataError(
            f"clip {clip.clip_id!r} shorter than one {decim}-sample output frame")

    # outer/middle-ear pre-emphasis: first-order high-pass
    x = pre_emphasis(clip.samples, math.exp(-2.0 * math.pi * 300.0 / sr))

    taps = np.empty((cfs.size, x.size))
    for k, cf in enumerate(cfs):
        b, a = _section_coeffs(cf, cfg, sr)
        x = lfilter(b, a, x)
        taps[k] = x

    np.maximum(taps, 0.0, out=taps)
    eps = np.array([1.0 - math.exp(-1.0 / (tau * sr)) for tau in cfg.agc_taus])
    _agc_pipelined(taps, eps.reshape(-1, 1), np.array(cfg.agc_targets).reshape(-1, 1))

    n_frames = taps.shape[1] // decim
    trimmed = taps[:, : n_frames * decim]
    return trimmed.reshape(cfs.size, n_frames, decim).mean(axis=2)
