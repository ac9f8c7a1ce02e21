"""Acoustic front ends.

``featurize`` dispatches a clip through one of four filter kinds:

* ``spectro_exp``  -- max-abs-normalized real part of the short-time spectrum,
  raised elementwise to a real exponent (alpha = 1 is the linear spectrum)
* ``spectro_hp``   -- hardware-inspired sin/cos map of the complex spectrum
* ``mfcc``         -- mel cepstra
* ``cochlear``     -- cascade cochlear model with adaptive gain

All feature matrices are float64 with one column per analysis frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..dataset import AudioClip
from ..errors import ConfigError, DataError
from .cochlea import (COCHLEAR_BATCH, CochlearConfig, cochleagram, cochleagrams,
                      design_center_freqs)
from .mfcc import MfccConfig, mfcc
from .stft import StftConfig, stft_complex
from .transforms import exponent_transform, normalize_maxabs, spectro_hp_from_complex

FILTER_KINDS = ("spectro_exp", "spectro_hp", "mfcc", "cochlear")


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-clip feature array of shape (n_rows, n_frames)."""

    values: np.ndarray
    filter_kind: str
    clip_id: str
    alpha: float | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise DataError(f"feature matrix for {self.clip_id!r} must be 2-d and nonempty")
        if not np.all(np.isfinite(arr)):
            raise DataError(f"feature matrix for {self.clip_id!r} has non-finite entries")
        if self.filter_kind not in FILTER_KINDS:
            raise DataError(f"unknown filter kind {self.filter_kind!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


def featurize(clip: AudioClip, kind: str, alpha: float | None = None, *,
              stft_cfg: StftConfig = StftConfig(),
              mfcc_cfg: MfccConfig = MfccConfig(),
              cochlear_cfg: CochlearConfig = CochlearConfig()) -> FeatureMatrix:
    """Run one clip through the selected front end."""
    if kind == "spectro_exp":
        if alpha is None:
            raise ConfigError("spectro_exp requires an exponent")
        x = normalize_maxabs(np.real(stft_complex(clip, stft_cfg)))
        vals = exponent_transform(x, alpha)
        return FeatureMatrix(vals, kind, clip.clip_id, alpha=alpha)
    if kind == "spectro_hp":
        vals = spectro_hp_from_complex(stft_complex(clip, stft_cfg))
        return FeatureMatrix(vals, kind, clip.clip_id)
    if kind == "mfcc":
        return FeatureMatrix(mfcc(clip, mfcc_cfg), kind, clip.clip_id)
    if kind == "cochlear":
        return FeatureMatrix(cochleagram(clip, cochlear_cfg), kind, clip.clip_id)
    raise ConfigError(f"unknown filter kind {kind!r}, expected one of {FILTER_KINDS}")


def featurize_batch(clips: Iterable[AudioClip], kind: str, alpha: float | None = None, *,
                    stft_cfg: StftConfig = StftConfig(),
                    mfcc_cfg: MfccConfig = MfccConfig(),
                    cochlear_cfg: CochlearConfig = CochlearConfig()) -> list[FeatureMatrix]:
    """``featurize`` on each clip, in order, bit for bit: the cochlear front
    end runs the clips at once (``cochleagrams``), the others take them
    one by one, as ``clips`` yields them."""
    if kind == "cochlear":
        clips = list(clips)
        return [FeatureMatrix(values, kind, clip.clip_id)
                for clip, values in zip(clips, cochleagrams(clips, cochlear_cfg))]
    return [featurize(clip, kind, alpha, stft_cfg=stft_cfg, mfcc_cfg=mfcc_cfg,
                      cochlear_cfg=cochlear_cfg) for clip in clips]


def pad_to(features: Sequence[FeatureMatrix], n_frames: int | None = None, *,
           out: np.ndarray | None = None) -> np.ndarray:
    """The clips' feature matrices in one array of shape (n_clips, n_rows,
    n_frames): each clip's frames, then zero frames up to ``n_frames``, the
    longest clip's frame count when None.  Written into the leading n_clips
    of ``out`` when given, every entry of them, so nothing stale shows."""
    if n_frames is None:
        n_frames = max(fm.n_frames for fm in features)
    padded = (np.zeros((len(features), features[0].n_rows, n_frames)) if out is None
              else out[:len(features)])
    for clip, fm in zip(padded, features):
        if fm.n_frames > n_frames:
            raise DataError(
                f"cannot pad {fm.clip_id!r} down: has {fm.n_frames} frames, wants {n_frames}")
        clip[:, : fm.n_frames] = fm.values
        clip[:, fm.n_frames:] = 0.0
    return padded
