"""Mel-frequency cepstral coefficients.

Standard recipe: pre-emphasis, 25 ms frames every 10 ms, Hann window,
power spectrum, triangular mel filterbank, floored log, orthonormal
DCT-II as its cosine matrix (``dct_ii``; Davis & Mermelstein, IEEE TASSP
28(4), 1980).  The first ``n_coeffs`` cepstra (c0 included) form the
feature rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset import AudioClip
from ..errors import ConfigError
from .stft import framed_spectrum, pre_emphasis, whole_samples


@dataclass(frozen=True)
class MfccConfig:
    pre_emphasis: float = 0.97
    frame_seconds: float = 0.025
    hop_seconds: float = 0.010
    n_filters: int = 26
    n_coeffs: int = 13
    log_floor: float = 1e-10

    def __post_init__(self) -> None:
        if not 0.0 <= self.pre_emphasis < 1.0:
            raise ConfigError(f"pre_emphasis must be in [0, 1), got {self.pre_emphasis}")
        if self.frame_seconds <= 0 or self.hop_seconds <= 0:
            raise ConfigError("frame_seconds and hop_seconds must be positive")
        if self.hop_seconds > self.frame_seconds:
            raise ConfigError("hop_seconds must not exceed frame_seconds")
        if self.n_coeffs > self.n_filters:
            raise ConfigError(
                f"n_coeffs ({self.n_coeffs}) cannot exceed n_filters ({self.n_filters})")
        if self.log_floor <= 0:
            raise ConfigError("log_floor must be positive")


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_filters: int, nfft: int, sample_rate: int) -> np.ndarray:
    """Triangular filters on a mel-spaced grid, shape (n_filters, nfft//2+1)."""
    low, high = hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0)
    pts = mel_to_hz(np.linspace(low, high, n_filters + 2))
    bins = np.floor((nfft + 1) * pts / sample_rate).astype(int)
    fb = np.zeros((n_filters, nfft // 2 + 1))
    for j in range(n_filters):
        a, b, c = bins[j], bins[j + 1], bins[j + 2]
        for i in range(a, b):
            fb[j, i] = (i - a) / max(b - a, 1)
        for i in range(b, c):
            fb[j, i] = (c - i) / max(c - b, 1)
    return fb


def dct_ii(n_coeffs: int, n_points: int) -> np.ndarray:
    """The first ``n_coeffs`` rows of the orthonormal ``n_points``-point
    DCT-II matrix: row k is ``sqrt(2/n) cos(pi k (2j + 1) / 2n)``, row 0
    scaled by ``1/sqrt(2)``."""
    k = np.arange(n_coeffs)[:, None]
    j = np.arange(n_points)[None, :]
    basis = np.sqrt(2.0 / n_points) * np.cos(np.pi * k * (2 * j + 1) / (2 * n_points))
    basis[0] /= np.sqrt(2.0)
    return basis


def mfcc(clip: AudioClip, cfg: MfccConfig = MfccConfig()) -> np.ndarray:
    """Cepstral feature matrix, shape (n_coeffs, n_frames)."""
    sr = clip.sample_rate
    frame_len = whole_samples("mfcc.frame_seconds", cfg.frame_seconds, sr)
    hop_len = whole_samples("mfcc.hop_seconds", cfg.hop_seconds, sr)
    nfft = 1 << (frame_len - 1).bit_length()    # the least power of two >= frame_len
    x = pre_emphasis(clip.samples, cfg.pre_emphasis)
    spectrum = framed_spectrum(x, frame_len, hop_len, nfft, clip.clip_id)
    power = np.abs(spectrum) ** 2 / nfft
    energies = power @ mel_filterbank(cfg.n_filters, nfft, sr).T
    logs = np.log(np.maximum(energies, cfg.log_floor))
    return dct_ii(cfg.n_coeffs, cfg.n_filters) @ logs.T
