"""Short-time Fourier analysis, the framing the MFCC front end shares, and
the rounding of a configured duration to whole samples.

Frames are taken without centering or padding: frame ``tau`` covers
samples ``[tau*hop, tau*hop + frame_len)``, so a clip of length L yields
``1 + floor((L - frame_len)/hop)`` frames, and every frame is weighted by
the periodic Hann window (``hann``), whose first sample is 0.  The
STFT's frames are ``fft_size`` long and its one-sided spectrum keeps
``fft_size//2 + 1`` bins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset import AudioClip
from ..errors import ConfigError, DataError

@dataclass(frozen=True)
class StftConfig:
    fft_size: int = 128
    hop: int = 64

    def __post_init__(self) -> None:
        if self.fft_size < 2 or (self.fft_size & (self.fft_size - 1)) != 0:
            raise ConfigError(f"fft_size must be a power of two, got {self.fft_size}")
        if not 0 < self.hop <= self.fft_size:
            raise ConfigError(f"hop must be in (0, fft_size], got {self.hop}")


def hann(n: int) -> np.ndarray:
    """Periodic Hann window of length n."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def frame_count(n_samples: int, frame_len: int, hop: int, clip_id: str = "?") -> int:
    if n_samples < frame_len:
        raise DataError(
            f"clip {clip_id!r} too short for analysis: {n_samples} samples < one "
            f"{frame_len}-sample frame")
    return 1 + (n_samples - frame_len) // hop


def framed_spectrum(x: np.ndarray, frame_len: int, hop: int, nfft: int,
                    clip_id: str = "?") -> np.ndarray:
    """One-sided ``nfft``-point spectrum of each Hann-windowed frame of
    ``x``, shape (n_frames, nfft // 2 + 1); frames as the module docstring
    says."""
    frame_count(x.size, frame_len, hop, clip_id)
    frames = np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop]
    return np.fft.rfft(frames * hann(frame_len), n=nfft, axis=1)


def whole_samples(key: str, seconds: float, sample_rate: int) -> int:
    """The config duration ``key`` = ``seconds`` at ``sample_rate``, rounded
    to whole samples; a duration that rounds to none is a ``ConfigError``."""
    n = int(round(seconds * sample_rate))
    if n < 1:
        raise ConfigError(f"{key}: {seconds:g} s is {n} samples at {sample_rate} Hz; "
                          "it must span at least one sample")
    return n


def pre_emphasis(samples: np.ndarray, a: float) -> np.ndarray:
    """First-order high-pass ``x[i] = s[i] - a * s[i-1]``, with ``x[0] = s[0]``."""
    x = np.empty_like(samples)
    x[0] = samples[0]
    x[1:] = samples[1:] - a * samples[:-1]
    return x


def stft_complex(clip: AudioClip, cfg: StftConfig = StftConfig()) -> np.ndarray:
    """Complex one-sided short-time spectrum, shape (fft_size // 2 + 1, n_frames).

    Linear in the input samples.
    """
    return framed_spectrum(clip.samples, cfg.fft_size, cfg.hop, cfg.fft_size, clip.clip_id).T
