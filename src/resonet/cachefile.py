"""Binary containers for cached features and trained models.

All files share a fixed little-endian layout: a 4-byte magic, a u16
format version, a type-specific header, a row-major float64 payload and
a trailing 64-bit checksum (BLAKE2b-8 over everything before it).
Readers verify magic, version, checksum and the config hash recorded at
write time, so caches from different configurations cannot be mixed
silently.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from .errors import CacheError
from .filterbank import FeatureMatrix
from .readout import ReadoutModel

MAGIC_FEATURES = b"RNBF"
MAGIC_MODEL = b"RNBM"
CACHE_VERSION = 1

# the codes are stored on disk: never renumber or reuse one (0 is retired)
FILTER_CODES = {"spectro_exp": 1, "spectro_hp": 2, "mfcc": 3, "cochlear": 4}
FILTER_NAMES = {v: k for k, v in FILTER_CODES.items()}
NODE_CODES = {"stno": 0, "tanh": 1, "none": 255}

_HASH_LEN = 8
# featurize writes only the files that are missing, so it never mends one in place
STALE_ADVICE = "regenerate it: delete this file and rerun featurize, which rewrites it"


def _checksum(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=8).digest()


def _normalize_hash(config_hash: bytes | str) -> bytes:
    if isinstance(config_hash, str):
        config_hash = bytes.fromhex(config_hash)
    if len(config_hash) != _HASH_LEN:
        raise CacheError(f"config hash must be {_HASH_LEN} bytes, got {len(config_hash)}")
    return config_hash


def _finish(path: Path, body: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(body + _checksum(body))


def _open(path: str | Path, magic: bytes) -> bytes:
    path = Path(path)
    if not path.exists():
        raise CacheError(f"cache file not found: {path}")
    blob = path.read_bytes()
    if len(blob) < len(magic) + 2 + 8:
        raise CacheError(f"{path}: cache file truncated; {STALE_ADVICE}")
    if blob[:4] != magic:
        raise CacheError(f"{path}: bad magic {blob[:4]!r}, expected {magic!r}; {STALE_ADVICE}")
    body, trailer = blob[:-8], blob[-8:]
    if _checksum(body) != trailer:
        raise CacheError(f"{path}: checksum mismatch, file is corrupt; {STALE_ADVICE}")
    (version,) = struct.unpack("<H", body[4:6])
    if version != CACHE_VERSION:
        raise CacheError(
            f"{path}: cache version {version} != {CACHE_VERSION}; {STALE_ADVICE}")
    return body[6:]


def _check_hash(path, stored: bytes, expected: bytes | str) -> None:
    if stored != _normalize_hash(expected):
        raise CacheError(
            f"{path}: cache was written under a different config "
            f"(hash {stored.hex()}); {STALE_ADVICE}")


def feature_cache_path(cache: Path, clip_id: str) -> Path:
    """A clip's feature file in a ``<cache root>/<feature hash>`` directory."""
    return cache / f"{clip_id}.rnbf"


def write_feature_cache(path: str | Path, fm: FeatureMatrix,
                        config_hash: bytes | str) -> None:
    alpha = fm.alpha if fm.alpha is not None else float("nan")
    header = MAGIC_FEATURES + struct.pack("<HBdII", CACHE_VERSION,
                                          FILTER_CODES[fm.filter_kind], alpha,
                                          fm.n_rows, fm.n_frames)
    header += _normalize_hash(config_hash)
    clip = fm.clip_id.encode()
    header += struct.pack("<H", len(clip)) + clip
    payload = np.ascontiguousarray(fm.values, dtype="<f8").tobytes()
    _finish(Path(path), header + payload)


def read_feature_cache(path: str | Path, config_hash: bytes | str) -> FeatureMatrix:
    body = _open(path, MAGIC_FEATURES)
    kind_code, alpha, n_rows, n_frames = struct.unpack_from("<BdII", body, 0)
    off = struct.calcsize("<BdII")
    stored_hash = body[off:off + _HASH_LEN]
    off += _HASH_LEN
    _check_hash(path, stored_hash, config_hash)
    (id_len,) = struct.unpack_from("<H", body, off)
    off += 2
    clip_id = body[off:off + id_len].decode()
    off += id_len
    expect = n_rows * n_frames * 8
    payload = body[off:off + expect]
    if len(payload) != expect:
        raise CacheError(f"{path}: payload truncated")
    values = np.frombuffer(payload, dtype="<f8").reshape(n_rows, n_frames)
    if kind_code not in FILTER_NAMES:
        raise CacheError(f"{path}: unknown filter code {kind_code}")
    kind = FILTER_NAMES[kind_code]
    return FeatureMatrix(values.copy(), kind, clip_id,
                         alpha=None if np.isnan(alpha) else alpha)


def write_model(path: str | Path, model: ReadoutModel, *, filter_kind: str,
                node_kind: str, alpha: float | None, trained_on: str,
                config_hash: bytes | str) -> None:
    """Store a readout with the front end and node (``"none"`` on the
    baseline route) it reads from and the clips it was trained on."""
    if filter_kind not in FILTER_CODES or node_kind not in NODE_CODES:
        raise CacheError(f"cannot serialize a model for {filter_kind!r} + {node_kind!r}")
    w = model.weights
    header = MAGIC_MODEL + struct.pack(
        "<HBBdddBII", CACHE_VERSION, NODE_CODES[node_kind], FILTER_CODES[filter_kind],
        alpha if alpha is not None else float("nan"),
        model.options.rtol, model.options.ridge, 0,   # retired byte: was a bias flag
        w.shape[0], w.shape[1])
    header += _normalize_hash(config_hash)
    desc = trained_on.encode()
    header += struct.pack("<H", len(desc)) + desc
    _finish(Path(path), header + np.ascontiguousarray(w, dtype="<f8").tobytes())

