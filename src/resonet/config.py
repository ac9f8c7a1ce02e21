"""Run configuration: a flat ``section.key = value`` text format.

Every key is validated against a known schema; unknown keys or sections
are configuration errors, as are type mismatches.  A short hash of the
canonicalized key/value pairs stamps every output and cache file, so
artifacts from different configurations never mix silently.

Each default is written once.  The ``stft``, ``mfcc``, ``cochlear`` and
``readout`` keys are the fields of their typed configs, with the fields'
defaults.  The ``node.*`` keys carry units, so they are named here, but
their defaults read ``StnoParams``, ``TanhParams`` and ``PipelineSpec``, as
the corpus's sample rate and noise seed read ``dataset``'s.  Only
settings no typed object holds write their default literally.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

from .dataset import N_SUBSETS, NOISE_SEED, NOISE_TYPES, PHASE_MODES, SYNTH_SAMPLE_RATE, \
    Manifest, SubsetPartition, build_synth_manifest, condition_fault, load_manifest, \
    partition_subsets
from .errors import ConfigError
from .evalharness import PipelineSpec, condition_grid
from .filterbank import FILTER_KINDS, CochlearConfig, MfccConfig, StftConfig
from .readout import ReadoutOptions
from .reservoir import StnoParams, TanhParams

#: generator family used for every stochastic choice in a run
GENERATOR_NAME = "philox4x64"

_TRUE = ("true", "yes", "1", "on")
_FALSE = ("false", "no", "0", "off")


def _parse_bool(text: str, key: str) -> bool:
    if text.lower() in _TRUE:
        return True
    if text.lower() in _FALSE:
        return False
    raise ConfigError(f"{key}: expected a boolean, got {text!r}")


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def _parse_float(text: str, key: str, *, snr: bool = False) -> float:
    """A finite number; an SNR (``snr``) may also be +inf, a clean clip."""
    try:
        val = float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None
    if not (math.isfinite(val) or (snr and val == math.inf)):
        raise ConfigError(f"{key}: expected a finite number{' or +inf' if snr else ''}, "
                          f"got {text!r}")
    return val


def _parse_floats(text: str, key: str, *, snr: bool = False) -> tuple[float, ...]:
    return tuple(_parse_float(p.strip(), key, snr=snr) for p in text.split(",") if p.strip())


def _parse_str(text: str, key: str) -> str:
    return text


def _parse_conditions(text: str, key: str) -> tuple[tuple[str, float], ...]:
    """``clean,synthetic-white@20,...`` -> ((type, snr), ...); ``clean`` is
    ``clean@inf``, and an empty list is no conditions."""
    out = []
    for part in (p.strip() for p in text.split(",") if p.strip()):
        ntype, at, snr = ("clean@inf" if part == "clean" else part).rpartition("@")
        if not at:
            raise ConfigError(f"{key}: condition {part!r} needs type@snr")
        out.append((ntype.strip(), _parse_float(snr.strip(), key, snr=True)))
    return tuple(out)


def _parse_strs(text: str, key: str) -> tuple[str, ...]:
    vals = tuple(p.strip() for p in text.split(",") if p.strip())
    if not vals:
        raise ConfigError(f"{key}: empty list")
    return vals


#: config section -> the typed config built from it, one key per field
TYPED_SECTIONS = {"stft": StftConfig, "mfcc": MfccConfig, "cochlear": CochlearConfig,
                  "readout": ReadoutOptions}

#: a typed field's default type -> the parser of its value (tuple fields hold floats)
_PARSERS = {int: _parse_int, float: _parse_float, tuple: _parse_floats}

# key -> (parser, default).  Defaults are explicit: a run's effective
# configuration never depends on ambient state.
SCHEMA: dict[str, tuple] = {
    "corpus.kind": (_parse_str, "synthetic"),
    "corpus.manifest": (_parse_str, ""),
    "corpus.sample_rate": (_parse_int, SYNTH_SAMPLE_RATE),
    "corpus.phase_mode": (_parse_str, "random"),
    "corpus.synth_seed": (_parse_int, 1001),
    "corpus.noise_seed": (_parse_int, NOISE_SEED),
    "corpus.conditions": (_parse_conditions, ()),

    "filter.kind": (_parse_str, "spectro_exp"),
    "filter.alpha": (_parse_float, 1.0),

    **{f"{section}.{f.name}": (_PARSERS[type(f.default)], f.default)
       for section, cls in TYPED_SECTIONS.items() for f in fields(cls)},

    "node.kind": (_parse_str, "none"),
    "node.n_theta": (_parse_int, PipelineSpec.n_theta),
    "node.mask_seed": (_parse_int, PipelineSpec.mask_seed),
    "node.dt_ns": (_parse_float, StnoParams.dt),
    "node.t_relax_ns": (_parse_float, StnoParams.t_relax),
    "node.i_dc_ma": (_parse_float, StnoParams.i_dc),
    "node.i_c_ma": (_parse_float, StnoParams.i_c),
    "node.c": (_parse_float, StnoParams.c),
    "node.drive_ma": (_parse_float, PipelineSpec.drive_ma),
    "node.allow_coarse_timestep": (_parse_bool, StnoParams.allow_coarse_timestep),
    "node.tanh_gain": (_parse_float, TanhParams.gain),
    "node.tanh_leak": (_parse_float, TanhParams.leak),

    "eval.train_subsets": (_parse_int, 9),
    "eval.partition_seed": (_parse_int, 55),

    "sweep.alphas": (_parse_floats, (0.0, 0.2, 0.5, 1.0, 2.0, 4.0)),

    "strat.train_utterances": (_parse_int, 8),
    "strat.test_snrs": (partial(_parse_floats, snr=True), (math.inf, 20.0, 10.0)),
    "strat.test_noise_types": (_parse_strs, ("synthetic-white",)),
}

SEED_KEYS = ("corpus.synth_seed", "corpus.noise_seed", "node.mask_seed",
             "eval.partition_seed")


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration with every value resolved."""

    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def canonical_lines(self) -> list[str]:
        out = []
        for key in sorted(self.values):
            val = self.values[key]
            if key == "corpus.conditions":  # as parsed, so every spelling stamps alike
                text = ",".join("clean" if t == "clean" else f"{t}@{repr(s).removesuffix('.0')}"
                                for t, s in val)
            elif isinstance(val, tuple):
                text = ",".join(repr(v) if isinstance(v, float) else str(v) for v in val)
            elif isinstance(val, bool):
                text = "true" if val else "false"
            elif isinstance(val, float):
                text = repr(val)
            else:
                text = str(val)
            out.append(f"{key} = {text}")
        return out

    def config_hash(self, prefixes: tuple[str, ...] | None = None) -> str:
        """16-hex-digit digest of the (optionally section-filtered) config."""
        lines = self.canonical_lines()
        if prefixes is not None:
            lines = [ln for ln in lines if ln.split(".")[0] in prefixes]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        return digest[:16]

    def feature_hash(self) -> str:
        """Hash over everything that determines cached features."""
        return self.config_hash(("corpus", "filter", "stft", "mfcc", "cochlear"))

    # -- builders ----------------------------------------------------------

    def pipeline(self) -> PipelineSpec:
        v = self.values
        kind = v["filter.kind"]
        if kind not in FILTER_KINDS:
            raise ConfigError(f"filter.kind: unknown filter {kind!r}, "
                              f"expected one of {', '.join(FILTER_KINDS)}")
        node_kind = v["node.kind"]
        stno = StnoParams(dt=v["node.dt_ns"], t_relax=v["node.t_relax_ns"],
                          i_dc=v["node.i_dc_ma"], i_c=v["node.i_c_ma"],
                          c=v["node.c"],
                          allow_coarse_timestep=v["node.allow_coarse_timestep"])
        typed = {section: cls(**{f.name: v[f"{section}.{f.name}"] for f in fields(cls)})
                 for section, cls in TYPED_SECTIONS.items()}
        return PipelineSpec(
            filter_kind=kind,
            alpha=v["filter.alpha"] if kind == "spectro_exp" else None,
            node_kind=None if node_kind == "none" else node_kind,
            n_theta=v["node.n_theta"],
            mask_seed=v["node.mask_seed"],
            stno=stno,
            tanh=TanhParams(gain=v["node.tanh_gain"], leak=v["node.tanh_leak"]),
            drive_ma=v["node.drive_ma"],
            **typed,
        )

    def manifest(self) -> Manifest:
        """The corpus's manifest, carrying the configured noise seed; only
        ``load_corpus`` also partitions it."""
        v = self.values
        if v["corpus.kind"] == "synthetic":
            manifest = build_synth_manifest(
                v["corpus.synth_seed"], phase_mode=v["corpus.phase_mode"],
                sample_rate=v["corpus.sample_rate"], conditions=v["corpus.conditions"])
        elif not v["corpus.manifest"]:
            raise ConfigError("corpus.manifest is required when corpus.kind = manifest")
        else:
            manifest = load_manifest(v["corpus.manifest"], sample_rate=v["corpus.sample_rate"])
        return replace(manifest, noise_seed=v["corpus.noise_seed"])

    def load_corpus(self) -> tuple[Manifest, SubsetPartition]:
        manifest = self.manifest()
        return manifest, partition_subsets(manifest, self.values["eval.partition_seed"])


def parse_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values = {k: default for k, (_, default) in SCHEMA.items()}
    seen: set[str] = set()
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'section.key = value'")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
        seen.add(key)
        parser, _ = SCHEMA[key]
        values[key] = parser(text, key)
    cfg = RunConfig(values)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    v = cfg.values
    if v["corpus.kind"] not in ("synthetic", "manifest"):
        raise ConfigError(
            f"corpus.kind: expected synthetic or manifest, got {v['corpus.kind']!r}")
    if v["corpus.phase_mode"] not in PHASE_MODES:
        raise ConfigError(f"corpus.phase_mode: expected one of {PHASE_MODES}")
    for key in SEED_KEYS:
        if v[key] < 0:
            raise ConfigError(f"{key}: seeds must be nonnegative")
    if v["corpus.sample_rate"] <= 0:
        raise ConfigError("corpus.sample_rate must be positive")
    if not 1 <= v["eval.train_subsets"] < N_SUBSETS:
        raise ConfigError(f"eval.train_subsets must lie in 1..{N_SUBSETS - 1}")
    if v["corpus.kind"] == "manifest" and v["corpus.manifest"]:
        if not Path(v["corpus.manifest"]).expanduser().exists():
            raise ConfigError(f"corpus.manifest: file not found: {v['corpus.manifest']}")
    if v["corpus.conditions"] and v["corpus.kind"] == "manifest":
        raise ConfigError("corpus.conditions applies to a synthetic corpus only; "
                          "a manifest tags its own clips")
    # a grid column must name a known type even where all its cells are clean
    types = v["strat.test_noise_types"]
    for key, pairs, synthetic in (
            ("corpus.conditions", v["corpus.conditions"], True),
            ("strat.test_noise_types", [(t, math.inf) for t in types if t not in NOISE_TYPES]
             + condition_grid(v["strat.test_snrs"], types), v["corpus.kind"] == "synthetic")):
        for ntype, snr in pairs:
            fault = condition_fault(ntype, snr, synthetic=synthetic)
            if fault:
                raise ConfigError(f"{key}: {fault}")
    # exercise the typed constructors so bad values fail at parse time
    cfg.pipeline()


def apply_seed_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply ``name=value`` seed overrides (e.g. ``mask_seed=9``), validated
    like a parsed config."""
    values = dict(cfg.values)
    by_name = {k.split(".", 1)[1]: k for k in SEED_KEYS}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"seed override must look like name=value, got {item!r}")
        name, _, text = item.partition("=")
        name = name.strip()
        if name not in by_name:
            raise ConfigError(
                f"unknown seed {name!r}; expected one of {sorted(by_name)}")
        values[by_name[name]] = _parse_int(text.strip(), name)
    out = RunConfig(values)
    _validate(out)
    return out
