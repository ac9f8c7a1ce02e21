import math

import pytest

from resonet.config import (GENERATOR_NAME, RunConfig, SCHEMA,
                            apply_seed_overrides, parse_config)
from resonet.errors import ConfigError


def _write(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_defaults_resolve_without_a_single_key(tmp_path):
    cfg = parse_config(_write(tmp_path, "# empty on purpose\n"))
    assert cfg["corpus.kind"] == "synthetic"
    assert cfg["filter.alpha"] == 1.0
    assert cfg["stft.fft_size"] == 128
    assert cfg["node.kind"] == "none"
    assert cfg["eval.train_subsets"] == 9
    assert cfg["strat.test_snrs"] == (math.inf, 20.0, 10.0)


def test_parse_sets_values_and_strips_comments(tmp_path):
    cfg = parse_config(_write(tmp_path, """
    filter.kind = spectro_exp
    filter.alpha = 2.0   # the squared route
    node.kind = stno
    node.n_theta = 24
    """))
    assert cfg["filter.alpha"] == 2.0
    assert cfg["node.n_theta"] == 24


def test_unknown_key_names_file_and_line(tmp_path):
    path = _write(tmp_path, "filter.kind = mfcc\nfilter.exponent = 2\n")
    with pytest.raises(ConfigError, match=r"run\.conf:2.*filter\.exponent"):
        parse_config(path)


def test_duplicate_key_rejected(tmp_path):
    path = _write(tmp_path, "filter.alpha = 1\nfilter.alpha = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(path)


def test_type_errors_name_the_key(tmp_path):
    path = _write(tmp_path, "stft.fft_size = many\n")
    with pytest.raises(ConfigError, match="stft.fft_size"):
        parse_config(path)


def test_validation_catches_semantic_problems(tmp_path):
    with pytest.raises(ConfigError, match="train_subsets"):
        parse_config(_write(tmp_path, "eval.train_subsets = 10\n"))
    with pytest.raises(ConfigError, match="phase_mode"):
        parse_config(_write(tmp_path, "corpus.phase_mode = scrambled\n"))
    with pytest.raises(ConfigError, match="seeds"):
        parse_config(_write(tmp_path, "node.mask_seed = -3\n"))
    # typed constructors run at parse time, so filter errors surface here
    with pytest.raises(ConfigError):
        parse_config(_write(tmp_path, "stft.fft_size = 100\n"))


def test_unknown_stratified_noise_type_is_a_config_error(tmp_path):
    # "white" was once an alias that only the noise mixer knew
    with pytest.raises(ConfigError, match=r"strat\.test_noise_types.*unknown.*'white'"):
        parse_config(_write(tmp_path, "strat.test_noise_types = synthetic-white, white\n"))


def test_noise_bed_type_on_a_synthetic_corpus_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match=r"strat\.test_noise_types.*subway.*noise bed"):
        parse_config(_write(tmp_path, "strat.test_noise_types = subway\n"))
    # a clean-only grid never mixes noise, so any known type builds there
    cfg = parse_config(_write(tmp_path, "strat.test_snrs = inf\n"
                                        "strat.test_noise_types = subway\n"))
    assert cfg["strat.test_noise_types"] == ("subway",)
    with pytest.raises(ConfigError, match="clean"):
        parse_config(_write(tmp_path, "strat.test_noise_types = clean\n"))


@pytest.mark.parametrize("text, match", [
    ("corpus.conditions = clean,synthetic-white@10\n", None),
    ("corpus.conditions = clean,bogus@10\n", r"corpus\.conditions.*unknown.*'bogus'"),
    ("corpus.conditions = clean,subway@10\n", r"corpus\.conditions.*subway.*noise bed"),
    ("corpus.conditions = clean@10\n", r"corpus\.conditions.*'clean'"),
    ("corpus.conditions = synthetic-white@inf\n", r"corpus\.conditions.*finite SNR"),
    ("corpus.kind = manifest\ncorpus.conditions = synthetic-white@10\n",
     r"corpus\.conditions.*synthetic corpus only"),
])
def test_corpus_conditions_are_checked_at_parse_time(tmp_path, text, match):
    path = _write(tmp_path, text)
    if match is None:
        assert parse_config(path)["corpus.conditions"]
        return
    with pytest.raises(ConfigError, match=match):
        parse_config(path)


def test_config_hash_is_content_addressed(tmp_path):
    a = parse_config(_write(tmp_path, "filter.alpha = 2.0\n", "a.conf"))
    b = parse_config(_write(tmp_path, "# comment\nfilter.alpha = 2.0\n", "b.conf"))
    c = parse_config(_write(tmp_path, "filter.alpha = 2.5\n", "c.conf"))
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert len(a.config_hash()) == 16
    int(a.config_hash(), 16)  # hex digest


def test_config_hash_ignores_where_and_how_fast_a_run_goes(tmp_path):
    a = parse_config(_write(tmp_path, "filter.alpha = 2.0\n", "a.conf"))
    b = parse_config(_write(tmp_path, "filter.alpha = 2.0\neval.workers = 4\n"
                                      "output.dir = elsewhere\n", "b.conf"))
    c = parse_config(_write(tmp_path, "filter.alpha = 2.5\neval.workers = 4\n", "c.conf"))
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    # the canonical listing itself stays complete
    assert "eval.workers = 4" in b.canonical_lines()
    assert "output.dir = elsewhere" in b.canonical_lines()


def test_feature_hash_ignores_downstream_sections(tmp_path):
    a = parse_config(_write(tmp_path, "node.n_theta = 24\n", "a.conf"))
    b = parse_config(_write(tmp_path, "node.n_theta = 48\n", "b.conf"))
    c = parse_config(_write(tmp_path, "stft.hop = 32\n", "c.conf"))
    assert a.feature_hash() == b.feature_hash()
    assert a.feature_hash() != c.feature_hash()
    assert a.config_hash() != b.config_hash()


def test_canonical_lines_are_sorted_and_complete(tmp_path):
    cfg = parse_config(_write(tmp_path, "filter.alpha = 2\n"))
    lines = cfg.canonical_lines()
    assert lines == sorted(lines)
    assert len(lines) == len(SCHEMA)
    assert "filter.alpha = 2.0" in lines


def test_pipeline_builder_round_trips_node_params(tmp_path):
    cfg = parse_config(_write(tmp_path, """
    filter.kind = spectro_exp
    filter.alpha = 2.0
    node.kind = stno
    node.n_theta = 40
    node.drive_ma = 2.5
    readout.ridge = 0.1
    """))
    pipe = cfg.pipeline()
    assert pipe.node_kind == "stno"
    assert pipe.n_theta == 40
    assert pipe.drive_ma == 2.5
    assert pipe.stno.i_c == 4.9
    assert pipe.readout.ridge == 0.1
    assert pipe.alpha == 2.0


def test_pipeline_alpha_only_for_exp(tmp_path):
    cfg = parse_config(_write(tmp_path, "filter.kind = mfcc\nfilter.alpha = 3.0\n"))
    assert cfg.pipeline().alpha is None


def test_load_corpus_synthetic(tmp_path):
    cfg = parse_config(_write(tmp_path, "corpus.synth_seed = 42\n"))
    manifest, partition = cfg.load_corpus()
    assert len(manifest) == 500
    assert len(partition.subsets) == 10


def test_load_corpus_manifest_needs_path(tmp_path):
    with pytest.raises(ConfigError, match="corpus.manifest"):
        parse_config(_write(tmp_path, "corpus.kind = manifest\n")).load_corpus()
    with pytest.raises(ConfigError, match="not found"):
        parse_config(_write(tmp_path,
                            "corpus.kind = manifest\ncorpus.manifest = /nope.csv\n"))


def test_seed_overrides(tmp_path):
    cfg = parse_config(_write(tmp_path, "corpus.synth_seed = 7\n"))
    out = apply_seed_overrides(cfg, ["mask_seed=9", "synth_seed=8"])
    assert out["node.mask_seed"] == 9
    assert out["corpus.synth_seed"] == 8
    assert cfg["corpus.synth_seed"] == 7  # original untouched
    with pytest.raises(ConfigError, match="unknown seed"):
        apply_seed_overrides(cfg, ["alpha=2"])
    with pytest.raises(ConfigError):
        apply_seed_overrides(cfg, ["mask_seed"])


def test_generator_name_is_pinned():
    assert GENERATOR_NAME == "philox4x64"
