import dataclasses
import importlib
import inspect
import math
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import resonet
from resonet.config import (GENERATOR_NAME, RunConfig, SCHEMA,
                            apply_seed_overrides, parse_config)
from resonet.dataset import NOISE_TYPES, DigitLabel, add_noise, synth_digit
from resonet.errors import ConfigError, DataError
from resonet.evalharness import PipelineSpec, condition_grid


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
    ("readout.ridge = nan\n", r"readout\.ridge.*finite number"),
    ("node.drive_ma = nan\n", r"node\.drive_ma.*finite number"),
    ("node.drive_ma = inf\n", r"node\.drive_ma.*finite number"),
    ("sweep.alphas = 2,inf\n", r"sweep\.alphas.*finite number"),
    ("strat.test_snrs = -inf\n", r"strat\.test_snrs.*finite number or \+inf"),
    ("strat.test_snrs = inf,nan\n", r"strat\.test_snrs.*finite number or \+inf"),
    ("corpus.conditions = synthetic-white@-inf\n", r"corpus\.conditions.*or \+inf"),
    ("corpus.sample_rate = 0\n", r"corpus\.sample_rate must be positive"),
], ids=["ridge-nan", "drive-nan", "drive-inf", "alphas-inf", "snrs-minus-inf", "snrs-nan",
        "conditions-minus-inf", "sample-rate-0"])
def test_unusable_numbers_are_refused_at_parse_time(tmp_path, text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(_write(tmp_path, text))


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


def _configuration_section() -> str:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]


def test_readme_configuration_table_names_only_schema_keys():
    """A row for a key the schema does not know documents a setting that
    every config file naming it is refused for."""
    rows = [ln for ln in _configuration_section().splitlines() if ln.startswith("| `")]
    keys = {k for row in rows for k in re.findall(r"`([a-z]+\.[a-z_]+)`", row)}
    assert len(keys) >= len(rows) > 0
    assert sorted(keys - set(SCHEMA)) == []


BENCH_A2_STNO = ("filter.kind = spectro_exp\nfilter.alpha = 2.0\n"
                 "node.kind = stno\nnode.n_theta = 400\neval.train_subsets = 9\n")
ONE_KEY_PER_DERIVED_SECTION = """
filter.kind = mfcc
stft.hop = 32
mfcc.n_coeffs = 12
cochlear.agc_taus = 0.5,0.1,0.02,0.01
readout.ridge = 0.5
readout.rtol = 1e-12
node.kind = stno
node.t_relax_ns = 300
"""


@pytest.mark.parametrize("text, config_hash, feature_hash", [
    ("", "72bc33d5304a3454", "cfb52c5f481ccc1a"),
    (BENCH_A2_STNO, "d6df97300964995c", "4e487076bb9bed15"),
    ("filter.kind = cochlear\n", "b1c319b89d3bee1a", "05cdce2f4ae97373"),
    (ONE_KEY_PER_DERIVED_SECTION, "c42e4f4198270c5a", "ddbc9b4e2e04f895"),
    ("corpus.conditions = clean,synthetic-white@20\n", "038a1703ddc94f07", "d5d28d063fe76498"),
    # the same conditions spelled otherwise: stamped by meaning, not by spelling
    ("corpus.conditions = clean, synthetic-white@20.0\n", "038a1703ddc94f07",
     "d5d28d063fe76498"),
    ("corpus.conditions = clean,synthetic-white@2e1\n", "038a1703ddc94f07", "d5d28d063fe76498"),
], ids=["defaults", "bench-a2-stno", "cochlear", "one-key-per-derived-section", "conditions",
        "conditions-spaced-20.0", "conditions-2e1"])
def test_config_stamps_are_pinned(tmp_path, text, config_hash, feature_hash):
    """Every report, model and feature cache carries these stamps; a schema
    change that moves one orphans every artifact written before it."""
    cfg = parse_config(_write(tmp_path, text))
    assert (cfg.config_hash(), cfg.feature_hash()) == (config_hash, feature_hash)


@pytest.mark.parametrize("text", ["clean,synthetic-white@20", "synthetic-white@12.5,clean",
                                  "synthetic-white@-3,synthetic-white@1e+20"])
def test_a_plain_conditions_spelling_is_hashed_as_written(tmp_path, text):
    """Without spaces, and with each SNR as ``repr`` writes it less a
    trailing ``.0``, a conditions list is its own canonical spelling, so it
    keeps the stamps it had when the text was hashed as written."""
    cfg = parse_config(_write(tmp_path, f"corpus.conditions = {text}\n"))
    assert f"corpus.conditions = {text}" in cfg.canonical_lines()


def test_an_empty_conditions_list_means_no_conditions(tmp_path):
    cfg = parse_config(_write(tmp_path, "corpus.conditions =\n"))
    assert cfg["corpus.conditions"] == ()
    assert cfg.config_hash() == parse_config(_write(tmp_path, "", "none.conf")).config_hash()
    assert {(e.label.noise_type, e.label.snr_db) for e in cfg.manifest().entries} == \
        {("clean", math.inf)}


def _builds(make) -> bool:
    try:
        make()
    except DataError:
        return False
    return True


@pytest.mark.parametrize("kind", ["synthetic", "manifest"])
@pytest.mark.parametrize("snr", [math.inf, 20.0], ids=["inf", "20dB"])
@pytest.mark.parametrize("ntype", [*NOISE_TYPES, "white"])
def test_config_accepts_a_condition_exactly_when_a_clip_can_carry_it(tmp_path, ntype, snr,
                                                                    kind):
    """The config's checks, the label and the noise mixer decide alike which
    (noise type, SNR) a clip can carry, so a noise bed added to one of them
    alone fails here."""
    manifest = _write(tmp_path, "", "m.csv")
    corpus = ("" if kind == "synthetic"
              else f"corpus.kind = manifest\ncorpus.manifest = {manifest}\n")

    def accepts(text: str) -> bool:
        try:
            parse_config(_write(tmp_path, corpus + text))
        except ConfigError:
            return False
        return True

    clip = synth_digit(3, 0, 0)

    def carried(cell, mixed: bool) -> bool:
        return (_builds(lambda: DigitLabel(3, "s0", 0, *cell))
                and (not mixed or _builds(lambda: add_noise(clip, *cell, seed=1))))

    # a corpus condition tags a synthetic clip, whose noise add_noise mixes in
    assert accepts(f"corpus.conditions = {ntype}@{snr}\n") == \
        (kind == "synthetic" and carried((ntype, snr), mixed=True))
    # a grid column names a type some label carries, and each of its cells is
    # a condition: clean in the infinite-SNR row, mixed in on a synthetic corpus
    known = any(_builds(lambda: DigitLabel(3, "s0", 0, ntype, s)) for s in (math.inf, 20.0))
    (cell,) = condition_grid([snr], [ntype])
    assert accepts(f"strat.test_snrs = {snr}\nstrat.test_noise_types = {ntype}\n") == \
        (known and carried(cell, mixed=kind == "synthetic" and math.isfinite(snr)))


def test_default_config_builds_the_typed_defaults(tmp_path):
    """The schema holds no default of its own for anything a typed object
    holds: an empty config builds exactly the objects' defaults."""
    pipe = parse_config(_write(tmp_path, "")).pipeline()
    assert pipe == PipelineSpec(filter_kind="spectro_exp", alpha=1.0)


def test_readme_configuration_defaults_are_the_schema_defaults():
    """The README's table and its oscillator sentence restate defaults; each
    must read back, through its key's parser, as the schema's default."""
    section = _configuration_section()
    documented = {}
    for row in section.splitlines():
        if row.startswith("| `"):
            key_cell, default_cell = (c.strip() for c in row.split("|")[1:3])
            documented[key_cell.strip("`")] = default_cell.strip("`")
    oscillator = section.split("Oscillator constants", 1)[1].split("\n\n", 1)[0]
    pairs = re.findall(r"`([a-z]+\.[a-z_]+) = ([^`]+)`", " ".join(oscillator.split()))
    assert len(pairs) == 4
    documented.update(pairs)
    for key, text in documented.items():
        parser, default = SCHEMA[key]
        assert parser(text, key) == default, key


def _library_defaults():
    """(owner, name, default) for every parameter of a public function and
    every field of a public dataclass in ``src/resonet`` with a default."""
    out = []
    for info in pkgutil.walk_packages(resonet.__path__, "resonet."):
        module = importlib.import_module(info.name)
        for owner, obj in vars(module).items():
            if owner.startswith("_") or getattr(obj, "__module__", None) != info.name:
                continue
            if dataclasses.is_dataclass(obj):
                pairs = [(f.name, f.default) for f in dataclasses.fields(obj)]
            elif inspect.isfunction(obj):
                pairs = [(q.name, q.default) for q in inspect.signature(obj).parameters.values()]
            else:
                continue
            out += [(f"{info.name}.{owner}", name, default) for name, default in pairs
                    if default not in (None, dataclasses.MISSING, inspect.Parameter.empty)]
    return out


def test_every_library_default_of_a_setting_is_the_config_default():
    """A library parameter or field named as a setting (the last part of a
    schema key that no other key shares) defaults to that key's default,
    so a library caller gets what an empty config gets."""
    last = Counter(key.rsplit(".", 1)[1] for key in SCHEMA)
    setting = {key.rsplit(".", 1)[1]: key for key in SCHEMA
               if last[key.rsplit(".", 1)[1]] == 1}
    checked = [(owner, name, default, SCHEMA[setting[name]][1])
               for owner, name, default in _library_defaults() if name in setting]
    assert ("resonet.dataset.realize_clip", "noise_seed") in \
        {(owner, name) for owner, name, _, _ in checked}
    assert len(checked) >= 30
    assert [c for c in checked if c[2] != c[3]] == []
