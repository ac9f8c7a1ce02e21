"""Short-time Fourier analysis.

Frames are taken without centering or padding: frame ``tau`` covers
samples ``[tau*hop, tau*hop + fft_size)``, so a clip of length L yields
``1 + floor((L - fft_size)/hop)`` frames.  The one-sided spectrum keeps
``fft_size//2 + 1`` bins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset import AudioClip
from ..errors import ConfigError, DataError

WINDOWS = ("hann", "rectangular")


@dataclass(frozen=True)
class StftConfig:
    fft_size: int = 128
    hop: int = 64
    window: str = "hann"

    def __post_init__(self) -> None:
        if self.fft_size < 2 or (self.fft_size & (self.fft_size - 1)) != 0:
            raise ConfigError(f"fft_size must be a power of two, got {self.fft_size}")
        if not 0 < self.hop <= self.fft_size:
            raise ConfigError(f"hop must be in (0, fft_size], got {self.hop}")
        if self.window not in WINDOWS:
            raise ConfigError(f"unknown window {self.window!r}, expected one of {WINDOWS}")


def window_values(kind: str, n: int) -> np.ndarray:
    """Periodic analysis window of length n."""
    if kind == "hann":
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    if kind == "rectangular":
        return np.ones(n)
    raise ConfigError(f"unknown window {kind!r}")


def frame_count(n_samples: int, cfg: StftConfig, clip_id: str = "?") -> int:
    if n_samples < cfg.fft_size:
        raise DataError(
            f"clip {clip_id!r} too short for analysis: {n_samples} samples < one "
            f"{cfg.fft_size}-sample frame")
    return 1 + (n_samples - cfg.fft_size) // cfg.hop


def stft_complex(clip: AudioClip, cfg: StftConfig = StftConfig()) -> np.ndarray:
    """Complex one-sided short-time spectrum, shape (fft_size // 2 + 1, n_frames).

    Linear in the input samples.
    """
    n_frames = frame_count(clip.samples.size, cfg, clip.clip_id)
    frames = np.lib.stride_tricks.sliding_window_view(clip.samples, cfg.fft_size)
    frames = frames[:: cfg.hop][:n_frames]
    win = window_values(cfg.window, cfg.fft_size)
    return np.fft.rfft(frames * win, axis=1).T
