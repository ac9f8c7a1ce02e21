import numpy as np
import pytest

from resonet.cachefile import (read_feature_cache, read_model,
                               write_feature_cache, write_model)
from resonet.errors import CacheError
from resonet.filterbank import FeatureMatrix
from resonet.readout import ReadoutModel, ReadoutOptions


def _feature_matrix(rng):
    return FeatureMatrix(rng.standard_normal((13, 21)), "spectro_exp",
                         "d3_s1_u07", alpha=2.0)


def test_feature_cache_round_trip(tmp_path, rng):
    fm = _feature_matrix(rng)
    path = tmp_path / "f.rnbf"
    write_feature_cache(path, fm, config_hash="00112233aabbccdd")
    back = read_feature_cache(path, config_hash="00112233aabbccdd")
    assert np.array_equal(back.values, fm.values)
    assert back.filter_kind == "spectro_exp"
    assert back.clip_id == "d3_s1_u07"
    assert back.alpha == 2.0


def test_feature_cache_none_alpha(tmp_path, rng):
    fm = FeatureMatrix(rng.standard_normal((4, 4)), "mfcc", "c")
    path = tmp_path / "f.rnbf"
    write_feature_cache(path, fm)
    assert read_feature_cache(path).alpha is None


def test_feature_cache_wrong_hash_refused(tmp_path, rng):
    path = tmp_path / "f.rnbf"
    write_feature_cache(path, _feature_matrix(rng), config_hash="00112233aabbccdd")
    with pytest.raises(CacheError, match="different config"):
        read_feature_cache(path, config_hash="ffffffffffffffff")
    # omitting the expectation skips the comparison
    read_feature_cache(path)


def test_cache_detects_corruption(tmp_path, rng):
    path = tmp_path / "f.rnbf"
    write_feature_cache(path, _feature_matrix(rng))
    blob = bytearray(path.read_bytes())
    blob[40] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheError, match="checksum"):
        read_feature_cache(path)


def test_cache_rejects_wrong_magic(tmp_path, rng):
    path = tmp_path / "f.rnbf"
    write_feature_cache(path, _feature_matrix(rng))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"RNBS"
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheError, match="magic"):
        read_feature_cache(path)


def test_cache_rejects_truncation(tmp_path):
    path = tmp_path / "f.rnbf"
    path.write_bytes(b"RNBF\x01")
    with pytest.raises(CacheError, match="truncated"):
        read_feature_cache(path)
    with pytest.raises(CacheError, match="not found"):
        read_feature_cache(tmp_path / "nope.rnbf")


def test_cache_version_message(tmp_path, rng):
    import struct
    from resonet.cachefile import _checksum
    path = tmp_path / "f.rnbf"
    write_feature_cache(path, _feature_matrix(rng))
    blob = bytearray(path.read_bytes())[:-8]
    blob[4:6] = struct.pack("<H", 9)
    body = bytes(blob)
    path.write_bytes(body + _checksum(body))
    with pytest.raises(CacheError, match="regenerate"):
        read_feature_cache(path)


def test_model_round_trip(tmp_path, rng):
    w = rng.standard_normal((10, 41))
    model = ReadoutModel(w, ReadoutOptions(rtol=1e-9, ridge=0.5, bias=True),
                         trained_on="0+1+2", node_kind="stno",
                         filter_kind="spectro_exp")
    path = tmp_path / "m.rnbm"
    write_model(path, model, alpha=2.0, config_hash="00112233aabbccdd")
    back = read_model(path, config_hash="00112233aabbccdd")
    assert np.array_equal(back.weights, w)
    assert back.options == model.options
    assert back.trained_on == "0+1+2"
    assert back.node_kind == "stno"
    assert back.filter_kind == "spectro_exp"
