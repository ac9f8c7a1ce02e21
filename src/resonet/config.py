"""Run configuration: a flat ``section.key = value`` text format.

Every key is validated against a known schema; unknown keys or sections
are configuration errors, as are type mismatches.  A short hash of the
canonicalized key/value pairs stamps every output and cache file, so
artifacts from different configurations never mix silently.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .dataset import NOISE_TYPES, PHASE_MODES, Manifest, SubsetPartition, \
    build_synth_manifest, load_manifest, partition_subsets
from .errors import ConfigError
from .evalharness import PipelineSpec
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


def _parse_float(text: str, key: str) -> float:
    if text.lower() in ("inf", "+inf"):
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None


def _parse_floats(text: str, key: str) -> tuple[float, ...]:
    return tuple(_parse_float(p.strip(), key) for p in text.split(",") if p.strip())


def _parse_str(text: str, key: str) -> str:
    return text


def _parse_conditions(text: str, key: str) -> tuple[tuple[str, float], ...]:
    """``clean,synthetic-white@20,...`` -> ((type, snr), ...)."""
    out = []
    for part in (p.strip() for p in text.split(",") if p.strip()):
        if part == "clean":
            out.append(("clean", math.inf))
            continue
        if "@" not in part:
            raise ConfigError(f"{key}: condition {part!r} needs type@snr")
        ntype, snr = part.rsplit("@", 1)
        out.append((ntype.strip(), _parse_float(snr.strip(), key)))
    if not out:
        raise ConfigError(f"{key}: empty condition list")
    return tuple(out)


def _parse_strs(text: str, key: str) -> tuple[str, ...]:
    vals = tuple(p.strip() for p in text.split(",") if p.strip())
    if not vals:
        raise ConfigError(f"{key}: empty list")
    return vals


# key -> (parser, default).  Defaults are explicit: a run's effective
# configuration never depends on ambient state.
SCHEMA: dict[str, tuple] = {
    "corpus.kind": (_parse_str, "synthetic"),
    "corpus.manifest": (_parse_str, ""),
    "corpus.sample_rate": (_parse_int, 12500),
    "corpus.phase_mode": (_parse_str, "random"),
    "corpus.synth_seed": (_parse_int, 1001),
    "corpus.noise_seed": (_parse_int, 2002),
    "corpus.conditions": (_parse_str, ""),

    "filter.kind": (_parse_str, "spectro_exp"),
    "filter.alpha": (_parse_float, 1.0),

    "stft.fft_size": (_parse_int, 128),
    "stft.hop": (_parse_int, 64),
    "stft.window": (_parse_str, "hann"),

    "mfcc.pre_emphasis": (_parse_float, 0.97),
    "mfcc.frame_seconds": (_parse_float, 0.025),
    "mfcc.hop_seconds": (_parse_float, 0.010),
    "mfcc.n_filters": (_parse_int, 26),
    "mfcc.n_coeffs": (_parse_int, 13),
    "mfcc.log_floor": (_parse_float, 1e-10),

    "cochlear.ear_q": (_parse_float, 8.0),
    "cochlear.step_factor": (_parse_float, 0.25),
    "cochlear.break_freq": (_parse_float, 1000.0),
    "cochlear.min_freq": (_parse_float, 44.0),
    "cochlear.top_margin": (_parse_float, 0.05),
    "cochlear.sharpness": (_parse_float, 5.0),
    "cochlear.zero_offset": (_parse_float, 1.5),
    "cochlear.agc_targets": (_parse_floats, (0.0032, 0.0016, 0.0008, 0.0004)),
    "cochlear.agc_taus": (_parse_floats, (0.64, 0.16, 0.04, 0.01)),
    "cochlear.decim_seconds": (_parse_float, 0.02),
    "cochlear.expected_channels": (_parse_int, 78),

    "node.kind": (_parse_str, "none"),
    "node.n_theta": (_parse_int, 400),
    "node.mask_seed": (_parse_int, 1),
    "node.dt_ns": (_parse_float, 5.0),
    "node.t_relax_ns": (_parse_float, 410.0),
    "node.i_dc_ma": (_parse_float, 6.0),
    "node.i_c_ma": (_parse_float, 4.9),
    "node.c": (_parse_float, 1.0),
    "node.drive_ma": (_parse_float, 3.0),
    "node.allow_coarse_timestep": (_parse_bool, False),
    "node.tanh_gain": (_parse_float, 1.0),
    "node.tanh_leak": (_parse_float, 1.0),

    "readout.rtol": (_parse_float, 1e-10),
    "readout.ridge": (_parse_float, 0.0),
    "readout.bias": (_parse_bool, False),

    "eval.train_subsets": (_parse_int, 9),
    "eval.partition_seed": (_parse_int, 55),
    "eval.workers": (_parse_int, 1),

    "sweep.alphas": (_parse_floats, (0.0, 0.2, 0.5, 1.0, 2.0, 4.0)),

    "strat.train_utterances": (_parse_int, 8),
    "strat.test_snrs": (_parse_floats, (math.inf, 20.0, 10.0)),
    "strat.test_noise_types": (_parse_strs, ("synthetic-white",)),

    "output.dir": (_parse_str, "out"),
}

#: keys that change where or how fast a run goes, never what it computes
UNHASHED_KEYS = ("eval.workers", "output.dir")

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
            if isinstance(val, tuple):
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
        lines = [ln for ln in self.canonical_lines()
                 if ln.partition(" = ")[0] not in UNHASHED_KEYS]
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
            raise ConfigError(f"filter.kind: unknown filter {kind!r}")
        node_kind = v["node.kind"]
        stno = StnoParams(dt=v["node.dt_ns"], t_relax=v["node.t_relax_ns"],
                          i_dc=v["node.i_dc_ma"], i_c=v["node.i_c_ma"],
                          c=v["node.c"],
                          allow_coarse_timestep=v["node.allow_coarse_timestep"])
        return PipelineSpec(
            filter_kind=kind,
            alpha=v["filter.alpha"] if kind == "spectro_exp" else None,
            stft=StftConfig(v["stft.fft_size"], v["stft.hop"], v["stft.window"]),
            mfcc=MfccConfig(v["mfcc.pre_emphasis"], v["mfcc.frame_seconds"],
                            v["mfcc.hop_seconds"], v["mfcc.n_filters"],
                            v["mfcc.n_coeffs"], v["mfcc.log_floor"]),
            cochlear=CochlearConfig(
                ear_q=v["cochlear.ear_q"], step_factor=v["cochlear.step_factor"],
                break_freq=v["cochlear.break_freq"], min_freq=v["cochlear.min_freq"],
                top_margin=v["cochlear.top_margin"], sharpness=v["cochlear.sharpness"],
                zero_offset=v["cochlear.zero_offset"],
                agc_targets=v["cochlear.agc_targets"], agc_taus=v["cochlear.agc_taus"],
                decim_seconds=v["cochlear.decim_seconds"],
                expected_channels=v["cochlear.expected_channels"]),
            node_kind=None if node_kind == "none" else node_kind,
            n_theta=v["node.n_theta"],
            mask_seed=v["node.mask_seed"],
            stno=stno,
            tanh=TanhParams(gain=v["node.tanh_gain"], leak=v["node.tanh_leak"]),
            drive_ma=v["node.drive_ma"],
            readout=ReadoutOptions(rtol=v["readout.rtol"], ridge=v["readout.ridge"],
                                   bias=v["readout.bias"]),
        )

    def load_corpus(self) -> tuple[Manifest, SubsetPartition]:
        v = self.values
        kind = v["corpus.kind"]
        if kind == "synthetic":
            conditions = None
            if v["corpus.conditions"]:
                conditions = _parse_conditions(v["corpus.conditions"], "corpus.conditions")
            manifest = build_synth_manifest(
                v["corpus.synth_seed"], phase_mode=v["corpus.phase_mode"],
                sample_rate=v["corpus.sample_rate"], conditions=conditions)
        elif kind == "manifest":
            path = v["corpus.manifest"]
            if not path:
                raise ConfigError("corpus.manifest is required when corpus.kind = manifest")
            manifest = load_manifest(path, sample_rate=v["corpus.sample_rate"])
        else:
            raise ConfigError(f"corpus.kind: expected synthetic or manifest, got {kind!r}")
        partition = partition_subsets(manifest, v["eval.partition_seed"])
        return manifest, partition


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
    if v["corpus.phase_mode"] not in PHASE_MODES:
        raise ConfigError(f"corpus.phase_mode: expected one of {PHASE_MODES}")
    for key in SEED_KEYS:
        if v[key] < 0:
            raise ConfigError(f"{key}: seeds must be nonnegative")
    if not 1 <= v["eval.train_subsets"] <= 9:
        raise ConfigError("eval.train_subsets must lie in 1..9")
    if v["eval.workers"] < 1:
        raise ConfigError("eval.workers must be >= 1")
    if v["corpus.kind"] == "manifest" and v["corpus.manifest"]:
        if not Path(v["corpus.manifest"]).exists():
            raise ConfigError(f"corpus.manifest: file not found: {v['corpus.manifest']}")
    if not 0 <= v["strat.train_utterances"] <= 10:
        raise ConfigError("strat.train_utterances must lie in 0..10")
    if v["corpus.conditions"]:
        if v["corpus.kind"] == "manifest":
            raise ConfigError("corpus.conditions applies to a synthetic corpus only; "
                              "a manifest tags its own clips")
        pairs = _parse_conditions(v["corpus.conditions"], "corpus.conditions")
        _check_noise_conditions("corpus.conditions", pairs, synthetic=True)
        tagged = sorted({t for t, snr in pairs if t != "clean" and math.isinf(snr)})
        if tagged:
            raise ConfigError(f"corpus.conditions: {tagged} need a finite SNR")
    _check_noise_conditions("strat.test_noise_types",
                            [(t, snr) for t in v["strat.test_noise_types"]
                             for snr in v["strat.test_snrs"]],
                            synthetic=v["corpus.kind"] == "synthetic")
    # exercise the typed constructors so bad values fail at parse time
    cfg.pipeline()


def _check_noise_conditions(key: str, pairs: Sequence[tuple[str, float]], *,
                            synthetic: bool) -> None:
    """Reject (noise type, SNR) conditions no clip can be realized at.

    A noisy condition (finite SNR) mixes noise into a synthesized clip,
    and only ``synthetic-white`` needs no recorded noise bed; ``clean``
    exists only at an infinite SNR.  File-backed clips carry their noise
    already, so a corpus that is not synthetic may name any noise type.
    """
    unknown = sorted({t for t, _ in pairs} - set(NOISE_TYPES))
    if unknown:
        raise ConfigError(f"{key}: unknown noise type(s) {unknown}; "
                          f"expected some of {NOISE_TYPES}")
    noisy = {t for t, snr in pairs if not math.isinf(snr)}
    if "clean" in noisy:
        raise ConfigError(f"{key}: 'clean' cannot be used at a finite SNR")
    bed = sorted(noisy - {"clean", "synthetic-white"})
    if synthetic and bed:
        raise ConfigError(f"{key}: {bed} need a recorded noise bed, "
                          f"which a synthetic corpus does not have")


def apply_seed_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply ``name=value`` seed overrides (e.g. ``mask_seed=9``)."""
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
        if values[by_name[name]] < 0:
            raise ConfigError(f"{name}: seeds must be nonnegative")
    return RunConfig(values)
