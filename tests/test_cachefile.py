import struct

import numpy as np
import pytest

from resonet.cachefile import (FILTER_CODES, FILTER_NAMES, MAGIC_MODEL, NODE_CODES,
                               _HASH_LEN, _check_hash, _open, read_feature_cache,
                               write_feature_cache, write_model)
from resonet.errors import CacheError
from resonet.filterbank import FILTER_KINDS, FeatureMatrix
from resonet.readout import ReadoutModel, ReadoutOptions
from resonet.reservoir import NODE_KINDS

NODE_NAMES = {v: k for k, v in NODE_CODES.items()}
HASH = "00112233aabbccdd"


def read_model(path, config_hash) -> tuple[ReadoutModel, dict]:
    """Oracle reader for the ``.rnbm`` files ``write_model`` produces.

    Returns the model and its header fields, keyed as ``write_model``
    takes them.  No subcommand reads models back, so the reader lives
    here, where it pins the file layout.
    """
    body = _open(path, MAGIC_MODEL)
    fmt = "<BBdddxII"                  # x: the retired byte, always 0
    node_code, filt_code, alpha, rtol, ridge, rows, cols = struct.unpack_from(fmt, body, 0)
    off = struct.calcsize(fmt)
    stored_hash = body[off:off + _HASH_LEN]
    off += _HASH_LEN
    _check_hash(path, stored_hash, config_hash)
    (d_len,) = struct.unpack_from("<H", body, off)
    off += 2
    trained_on = body[off:off + d_len].decode()
    off += d_len
    expect = rows * cols * 8
    payload = body[off:off + expect]
    if len(payload) != expect:
        raise CacheError(f"{path}: payload truncated")
    if filt_code not in FILTER_NAMES or node_code not in NODE_NAMES:
        raise CacheError(f"{path}: unknown filter or node code")
    w = np.frombuffer(payload, dtype="<f8").reshape(rows, cols)
    options = ReadoutOptions(rtol=rtol, ridge=ridge)
    fields = {"filter_kind": FILTER_NAMES[filt_code], "node_kind": NODE_NAMES[node_code],
              "alpha": None if np.isnan(alpha) else alpha, "trained_on": trained_on,
              "config_hash": stored_hash.hex()}
    return ReadoutModel(w.copy(), options), fields


def _feature_matrix(rng):
    return FeatureMatrix(rng.standard_normal((13, 21)), "spectro_exp",
                         "d3_s1_u07", alpha=2.0)


def test_feature_cache_round_trip(tmp_path, rng):
    fm = _feature_matrix(rng)
    path = tmp_path / "f.rnbf"
    write_feature_cache(path, fm, config_hash=HASH)
    back = read_feature_cache(path, config_hash=HASH)
    assert np.array_equal(back.values, fm.values)
    assert back.filter_kind == "spectro_exp"
    assert back.clip_id == "d3_s1_u07"
    assert back.alpha == 2.0


def test_feature_cache_none_alpha(tmp_path, rng):
    fm = FeatureMatrix(rng.standard_normal((4, 4)), "mfcc", "c")
    path = tmp_path / "f.rnbf"
    write_feature_cache(path, fm, HASH)
    assert read_feature_cache(path, HASH).alpha is None


def test_feature_cache_wrong_hash_refused(tmp_path, rng):
    path = tmp_path / "f.rnbf"
    write_feature_cache(path, _feature_matrix(rng), config_hash=HASH)
    with pytest.raises(CacheError, match="different config"):
        read_feature_cache(path, config_hash="ffffffffffffffff")


def test_cache_detects_corruption(tmp_path, rng):
    path = tmp_path / "f.rnbf"
    write_feature_cache(path, _feature_matrix(rng), HASH)
    blob = bytearray(path.read_bytes())
    blob[40] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheError, match="checksum"):
        read_feature_cache(path, HASH)


def test_cache_rejects_wrong_magic(tmp_path, rng):
    path = tmp_path / "f.rnbf"
    write_feature_cache(path, _feature_matrix(rng), HASH)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"RNBS"
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheError, match="magic"):
        read_feature_cache(path, HASH)


def test_cache_rejects_truncation(tmp_path):
    path = tmp_path / "f.rnbf"
    path.write_bytes(b"RNBF\x01")
    with pytest.raises(CacheError, match="truncated"):
        read_feature_cache(path, HASH)
    with pytest.raises(CacheError, match="not found"):
        read_feature_cache(tmp_path / "nope.rnbf", HASH)


def test_cache_version_message(tmp_path, rng):
    from resonet.cachefile import _checksum
    path = tmp_path / "f.rnbf"
    write_feature_cache(path, _feature_matrix(rng), HASH)
    blob = bytearray(path.read_bytes())[:-8]
    blob[4:6] = struct.pack("<H", 9)
    body = bytes(blob)
    path.write_bytes(body + _checksum(body))
    with pytest.raises(CacheError, match="regenerate"):
        read_feature_cache(path, HASH)


@pytest.mark.parametrize("node_kind", sorted(NODE_CODES))
@pytest.mark.parametrize("filter_kind", sorted(FILTER_CODES))
def test_model_round_trip(tmp_path, rng, filter_kind, node_kind):
    w = rng.standard_normal((10, 41))
    model = ReadoutModel(w, ReadoutOptions(rtol=1e-9, ridge=0.5))
    fields = {"filter_kind": filter_kind, "node_kind": node_kind,
              "alpha": 2.0 if filter_kind == "spectro_exp" else None,
              "trained_on": "0+1+2", "config_hash": HASH}
    path = tmp_path / "m.rnbm"
    write_model(path, model, **fields)
    back, stored = read_model(path, config_hash=HASH)
    assert np.array_equal(back.weights, w)
    assert back.options == model.options
    assert stored == fields
    # the byte after ridge once held a bias flag; it is retired and reads 0
    assert path.read_bytes()[struct.calcsize("<4sHBBddd")] == 0


def test_model_header_refuses_unknown_kinds(tmp_path, rng):
    from resonet.cachefile import _checksum
    model = ReadoutModel(rng.standard_normal((10, 4)), ReadoutOptions())
    path = tmp_path / "m.rnbm"
    for filter_kind, node_kind in (("wavelet", "stno"), ("mfcc", "lstm")):
        with pytest.raises(CacheError, match="cannot serialize"):
            write_model(path, model, filter_kind=filter_kind, node_kind=node_kind,
                        alpha=None, trained_on="0", config_hash=HASH)
    # a stored code no writer produces is an error, not a default name
    write_model(path, model, filter_kind="mfcc", node_kind="stno", alpha=None,
                trained_on="0", config_hash=HASH)
    for offset in (6, 7):                        # node code, filter code
        body = bytearray(path.read_bytes()[:-8])
        body[offset] = 99
        bad = tmp_path / f"bad{offset}.rnbm"
        bad.write_bytes(bytes(body) + _checksum(bytes(body)))
        with pytest.raises(CacheError, match="unknown filter or node code"):
            read_model(bad, HASH)


def test_every_filter_and_node_kind_has_its_own_cache_code():
    """A kind without a code would fail only when a file of it is written."""
    assert sorted(FILTER_CODES) == sorted(FILTER_KINDS)
    assert sorted(NODE_CODES) == sorted(NODE_KINDS + ("none",))
    for codes in (FILTER_CODES, NODE_CODES):
        assert len(set(codes.values())) == len(codes)
