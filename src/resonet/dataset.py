"""Corpus handling: manifests, WAV ingestion, balanced subset partitions,
and a license-free synthetic spoken-digit surrogate.

A corpus is described by a CSV manifest with one row per clip.  Rows either
point at mono PCM WAV files on disk or carry a synthesis recipe of the form
``synth:<digit>:<speaker_seed>:<utterance_seed>:<phase_mode>`` that is
rendered deterministically on demand.  The balanced profile used by the
cross-validation harness is 10 digits x 5 speakers x 10 utterances = 500
clips.

Which (noise type, SNR) a clip can carry is decided here alone, by
``condition_fault``, which labels, manifest entries, the noise mixer and
the config all ask.
"""

from __future__ import annotations

import csv
import math
import wave
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import AudioFormatError, DataError, ManifestError, PartitionError

SYNTH_SAMPLE_RATE = 12500
NOISE_SEED = 2002       # base seed of the noise mixed into tagged synthetic clips
SYNTH_BASE_SECONDS = 0.5

N_CLASSES = 10
PROFILE_SPEAKERS = 5
PROFILE_UTTERANCES = 10
N_SUBSETS = 10

MANIFEST_COLUMNS = ("clip_id", "path", "digit", "speaker", "utterance",
                    "noise_type", "snr_db")

#: condition tags a label may carry, at the SNRs ``condition_fault`` allows
NOISE_TYPES = ("clean", "subway", "babble", "car", "exhibition",
               "synthetic-white")

PHASE_MODES = ("random", "fixed")

# Domain-separation tags so distinct consumers of the same user seed get
# independent counter-based streams.
_TAG_MASK = 7            # reservoir.gen_mask
_TAG_SPEAKER = 17
_TAG_UTTERANCE = 23
_TAG_NOISE = 31
_TAG_PARTITION = 101


def philox(*entropy: int) -> np.random.Generator:
    """Counter-based generator (Philox 4x64) keyed by the given integers.

    Philox output is reproducible bit-for-bit across platforms, which the
    mask/synthesis/partition seeds rely on.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(entropy))))


def condition_fault(noise_type: str, snr_db: float, *, synthetic: bool) -> str | None:
    """Why no clip can carry ``noise_type`` at ``snr_db`` dB, or None.  An
    unknown type is the fault whatever the SNR; a ``synthetic`` clip has no
    recorded noise bed, as its noise is mixed in when it is read."""
    if noise_type not in NOISE_TYPES:
        return f"unknown noise type {noise_type!r}; expected one of {NOISE_TYPES}"
    if not (snr_db == math.inf if noise_type == "clean" else math.isfinite(snr_db)):
        return (f"snr_db must be +inf when noise_type is clean and finite otherwise, "
                f"as a finite SNR is the level of mixed-in noise; "
                f"got {noise_type!r} at {snr_db} dB")
    if synthetic and noise_type not in ("clean", "synthetic-white"):
        return (f"noise type {noise_type!r} needs a recorded noise bed, "
                f"which a synthetic clip does not have")
    return None


@dataclass(frozen=True)
class DigitLabel:
    """Ground truth and recording condition for one clip."""

    digit: int
    speaker: str
    utterance: int
    noise_type: str = "clean"
    snr_db: float = math.inf

    def __post_init__(self) -> None:
        if not 0 <= self.digit < N_CLASSES:
            raise ManifestError(f"digit out of range: {self.digit}")
        if self.utterance < 0:
            raise ManifestError(f"utterance index out of range: {self.utterance}")
        fault = condition_fault(self.noise_type, self.snr_db, synthetic=False)
        if fault:
            raise ManifestError(fault)


@dataclass(frozen=True)
class AudioClip:
    """Mono waveform with samples in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int
    clip_id: str

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise AudioFormatError(f"clip {self.clip_id!r}: samples must be a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise AudioFormatError(f"clip {self.clip_id!r}: non-finite samples")
        if np.max(np.abs(arr)) > 1.0 + 1e-12:
            raise AudioFormatError(f"clip {self.clip_id!r}: samples exceed [-1, 1]")
        if self.sample_rate <= 0:
            raise AudioFormatError(f"clip {self.clip_id!r}: bad sample rate {self.sample_rate}")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)


@dataclass(frozen=True)
class ManifestEntry:
    clip_id: str
    source: str  # filesystem path or "synth:..." recipe
    label: DigitLabel

    def __post_init__(self) -> None:
        # the label cannot know whether its clip is synthetic; the entry can
        fault = condition_fault(self.label.noise_type, self.label.snr_db,
                                synthetic=self.is_synthetic)
        if fault:
            raise ManifestError(fault)

    @property
    def is_synthetic(self) -> bool:
        return self.source.startswith("synth:")


@dataclass(frozen=True)
class Manifest:
    """A corpus's clips and what realizing any of them needs besides its
    entry: the rate every clip is read at, and the base seed of the noise
    ``realize_clip`` mixes into a tagged synthetic clip."""

    entries: tuple[ManifestEntry, ...]
    sample_rate: int
    noise_seed: int = NOISE_SEED

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class SubsetPartition:
    """Ten disjoint subsets of clip ids covering the balanced corpus."""

    subsets: tuple[tuple[str, ...], ...]

    def groups(self, manifest: Manifest) -> list[int]:
        """The subset of each of ``manifest``'s entries, in entry order."""
        subset_of = {cid: k for k, ids in enumerate(self.subsets) for cid in ids}
        return [subset_of[e.clip_id] for e in manifest.entries]


def _parse_snr(text: str, row: int) -> float:
    text = text.strip()
    if text in ("", "inf", "Inf", "INF"):
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise ManifestError(f"manifest row {row}: bad snr_db {text!r}") from None


def load_manifest(path: str | Path, *, sample_rate: int = SYNTH_SAMPLE_RATE) -> Manifest:
    """Read and validate a corpus manifest CSV.

    Raises ManifestError naming the offending row for malformed rows,
    duplicate clip ids, or referenced files that do not exist.  A leading
    ``~`` in ``path`` or in a row's audio path is the home directory.
    """
    path = Path(path).expanduser()
    if not path.exists():
        raise ManifestError(f"manifest not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        rows = [r for r in reader if r and not r[0].startswith("#")]
    if not rows:
        raise ManifestError(f"empty manifest: {path}")
    header = tuple(c.strip() for c in rows[0])
    if header != MANIFEST_COLUMNS:
        raise ManifestError(
            f"manifest header must be {','.join(MANIFEST_COLUMNS)}, got {','.join(header)}")
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(MANIFEST_COLUMNS):
            raise ManifestError(f"manifest row {i}: expected {len(MANIFEST_COLUMNS)} fields, got {len(row)}")
        clip_id, src, digit_s, speaker, utt_s, ntype, snr_s = (c.strip() for c in row)
        if not clip_id:
            raise ManifestError(f"manifest row {i}: empty clip_id")
        if clip_id in seen:
            raise ManifestError(f"manifest row {i}: duplicate clip_id {clip_id!r}")
        seen.add(clip_id)
        try:
            digit = int(digit_s)
            utterance = int(utt_s)
        except ValueError:
            raise ManifestError(f"manifest row {i}: digit/utterance must be integers") from None
        try:
            label = DigitLabel(digit, speaker, utterance, ntype or "clean",
                               _parse_snr(snr_s, i))
            if src.startswith("synth:"):
                parse_recipe(src)  # syntax check only
            else:
                wav = path.parent / Path(src).expanduser()
                if not wav.exists():
                    raise ManifestError(f"audio file not found: {wav}")
                src = str(wav)
            entries.append(ManifestEntry(clip_id, src, label))
        except ManifestError as exc:
            raise ManifestError(f"manifest row {i}: {exc}") from None
    return Manifest(tuple(entries), sample_rate=sample_rate)


def save_manifest(manifest: Manifest, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        for e in manifest.entries:
            snr = "inf" if math.isinf(e.label.snr_db) else repr(e.label.snr_db)
            writer.writerow([e.clip_id, e.source, e.label.digit, e.label.speaker,
                             e.label.utterance, e.label.noise_type, snr])


def parse_recipe(source: str) -> tuple[int, int, int, str]:
    """Split a ``synth:digit:speaker_seed:utterance_seed:mode`` recipe."""
    parts = source.split(":")
    if len(parts) != 5 or parts[0] != "synth":
        raise ManifestError(f"bad synthesis recipe: {source!r}")
    try:
        digit, spk, utt = int(parts[1]), int(parts[2]), int(parts[3])
    except ValueError:
        raise ManifestError(f"bad synthesis recipe: {source!r}") from None
    mode = parts[4]
    if mode not in PHASE_MODES:
        raise ManifestError(f"bad phase mode in recipe: {source!r}")
    if not 0 <= digit < N_CLASSES or spk < 0 or utt < 0:
        raise ManifestError(f"recipe fields out of range: {source!r}")
    return digit, spk, utt, mode


# ---------------------------------------------------------------------------
# synthesis

# All ten classes excite the same comb of twelve partials (every fourth
# STFT bin from bin 6 upward, 97.65625 Hz per bin at 12.5 kHz with the
# default 128-point analysis).  Class identity lives only in a smooth
# amplitude bump over the comb, so no class owns a private set of bins:
# a linear readout cannot key on which bins carry energy, only on how
# much, and with random phases "how much" has zero mean in the real
# spectrum.  Low partials also get a weak second harmonic that lands
# between comb slots.
_GRID_SLOTS = 12
_GRID_STRIDE = 4.0
_GRID_BASE = 6.0
_BIN_HZ = SYNTH_SAMPLE_RATE / 128.0
_PROFILE_FLOOR = 0.30
_PROFILE_WIDTH = 1.8
_HARMONIC_AMP = 0.25
_HARMONIC_LIMIT = 0.47  # of the sample rate

_GOLDEN = 0.6180339887498949


def class_template(digit: int) -> tuple[np.ndarray, np.ndarray]:
    """Nominal partial frequencies (Hz) and amplitudes for a digit class."""
    if not 0 <= digit < N_CLASSES:
        raise DataError(f"digit out of range: {digit}")
    m = np.arange(_GRID_SLOTS, dtype=np.float64)
    freqs = (_GRID_BASE + _GRID_STRIDE * m) * _BIN_HZ
    center = 0.75 + 1.05 * digit
    amps = _PROFILE_FLOOR + (1.0 - _PROFILE_FLOOR) * np.exp(
        -0.5 * ((m - center) / _PROFILE_WIDTH) ** 2)
    return freqs, amps


def synth_digit(digit: int, speaker_seed: int, utterance_seed: int,
                phase_mode: str = "random",
                sample_rate: int = SYNTH_SAMPLE_RATE,
                clip_id: str | None = None) -> AudioClip:
    """Render one synthetic spoken-digit surrogate.

    The spectral magnitude template is a deterministic function of the
    class; the speaker seed applies a global pitch shift and a spectral
    tilt, and the utterance seed jitters duration, per-partial amplitude
    and frequency and mixes in a broadband noise floor.  With
    ``phase_mode="random"`` every sinusoidal component gets an
    independent uniform phase drawn from the utterance stream, so the
    real part of a short-time spectrum varies freely between utterances
    while the magnitude template stays put.  The function is pure:
    identical arguments give identical samples.
    """
    if phase_mode not in PHASE_MODES:
        raise DataError(f"unknown phase_mode: {phase_mode!r}")
    freqs, amps = class_template(digit)

    spk = philox(_TAG_SPEAKER, speaker_seed)
    pitch_shift = spk.uniform(-0.025, 0.025)
    tilt = spk.uniform(0.85, 1.15)

    utt = philox(_TAG_UTTERANCE, digit, speaker_seed, utterance_seed)
    # Draw order is fixed and phase draws come last so that the magnitude
    # template is identical between the two phase modes.
    dur_factor = utt.uniform(0.88, 1.12)
    amp_jitter = utt.uniform(0.55, 1.45, size=_GRID_SLOTS)
    freq_jitter = utt.uniform(-0.004, 0.004, size=_GRID_SLOTS)
    harm_jitter = utt.uniform(0.5, 1.0, size=_GRID_SLOTS)
    floor_snr_db = utt.uniform(8.0, 16.0)
    n = int(round(sample_rate * SYNTH_BASE_SECONDS * dur_factor))
    floor_shape = utt.standard_normal(n)
    n_components = 2 * _GRID_SLOTS
    if phase_mode == "random":
        phases = utt.uniform(0.0, 2.0 * np.pi, size=n_components)
    else:
        phases = 2.0 * np.pi * np.modf(_GOLDEN * np.arange(1, n_components + 1))[0]

    t = np.arange(n, dtype=np.float64) / sample_rate
    s = np.zeros(n)
    tonal_power = 0.0
    for m in range(_GRID_SLOTS):
        f = freqs[m] * (1.0 + pitch_shift) * (1.0 + freq_jitter[m])
        a = amps[m] * amp_jitter[m] * tilt ** (0.25 * m)
        s += a * np.sin(2.0 * np.pi * f * t + phases[m])
        tonal_power += 0.5 * a * a
        f2 = 2.0 * f
        if f2 < _HARMONIC_LIMIT * sample_rate:
            a2 = _HARMONIC_AMP * a * harm_jitter[m]
            s += a2 * np.sin(2.0 * np.pi * f2 * t + phases[_GRID_SLOTS + m])
            tonal_power += 0.5 * a2 * a2

    # broadband floor scaled against the analytic tonal power so the mix
    # ratio does not depend on the phase draws
    floor_rms = np.sqrt(tonal_power) * 10.0 ** (-floor_snr_db / 20.0)
    s += floor_rms * floor_shape

    # soft onset/offset so clips do not click
    attack = max(1, int(0.06 * n))
    release = max(1, int(0.10 * n))
    env = np.ones(n)
    env[:attack] = 0.5 - 0.5 * np.cos(np.pi * np.arange(attack) / attack)
    env[n - release:] = 0.5 + 0.5 * np.cos(np.pi * np.arange(release) / release)
    s *= env
    s /= np.max(np.abs(s))

    if clip_id is None:
        clip_id = f"synth-d{digit}-s{speaker_seed}-u{utterance_seed}"
    return AudioClip(s, sample_rate, clip_id)


def build_synth_manifest(synth_seed: int, *, phase_mode: str = "random",
                         sample_rate: int = SYNTH_SAMPLE_RATE,
                         conditions: Sequence[tuple[str, float]] | None = None) -> Manifest:
    """Assemble the balanced synthetic manifest (10 digits x 5 speakers x
    10 utterances, the profile ``check_profile`` accepts).

    ``conditions`` optionally tags utterances with (noise_type, snr_db)
    pairs cycled by utterance index, producing a mixed-condition corpus
    whose noise is realized at read time.
    """
    if phase_mode not in PHASE_MODES:
        raise ManifestError(f"unknown phase_mode: {phase_mode!r}")
    entries = []
    for digit in range(N_CLASSES):
        for s in range(PROFILE_SPEAKERS):
            speaker_seed = synth_seed * 100 + s
            for u in range(PROFILE_UTTERANCES):
                if conditions:
                    ntype, snr = conditions[u % len(conditions)]
                else:
                    ntype, snr = "clean", math.inf
                label = DigitLabel(digit, f"s{s}", u, ntype, snr)
                recipe = f"synth:{digit}:{speaker_seed}:{u}:{phase_mode}"
                entries.append(ManifestEntry(f"d{digit}_s{s}_u{u:02d}", recipe, label))
    return Manifest(tuple(entries), sample_rate=sample_rate)


# ---------------------------------------------------------------------------
# ingestion

def read_clip(entry: ManifestEntry, *, sample_rate: int = SYNTH_SAMPLE_RATE) -> AudioClip:
    """Load a manifest entry into memory, without applying its noise tag.

    WAV sources must be mono 8- or 16-bit PCM at ``sample_rate``, the corpus
    rate: there is no implicit resampling, and a WAV at another rate is an
    ``AudioFormatError``.  Synthetic recipes are rendered at ``sample_rate``.
    """
    if entry.is_synthetic:
        digit, spk, utt, mode = parse_recipe(entry.source)
        return synth_digit(digit, spk, utt, mode, sample_rate, clip_id=entry.clip_id)
    clip = read_wav(entry.source, clip_id=entry.clip_id)
    if clip.sample_rate != sample_rate:
        raise AudioFormatError(f"clip {entry.clip_id!r}: {entry.source} is sampled at "
                               f"{clip.sample_rate} Hz, the corpus at {sample_rate} Hz")
    return clip


def read_wav(path: str | Path, *, clip_id: str | None = None) -> AudioClip:
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"audio file not found: {path}")
    try:
        with wave.open(str(path), "rb") as w:
            n_channels = w.getnchannels()
            width = w.getsampwidth()
            rate = w.getframerate()
            n = w.getnframes()
            raw = w.readframes(n)
    except wave.Error as exc:
        raise AudioFormatError(f"{path}: {exc}") from None
    if n_channels != 1:
        raise AudioFormatError(f"{path}: expected mono, got {n_channels} channels")
    if n == 0:
        raise AudioFormatError(f"{path}: empty audio payload")
    if width == 2:
        samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    elif width == 1:
        samples = (np.frombuffer(raw, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
    else:
        raise AudioFormatError(f"{path}: unsupported sample width {8 * width} bit")
    return AudioClip(samples, rate, clip_id or path.stem)


def realize_clip(entry: ManifestEntry, *, sample_rate: int = SYNTH_SAMPLE_RATE,
                 noise_seed: int = NOISE_SEED, clip: AudioClip | None = None) -> AudioClip:
    """Load a clip and, for synthetic entries, realize its noise tag.

    ``clip``, when given, is the entry's source as ``read_clip`` gave it,
    so one read serves several tags of the same clip; it is not read again.
    File-backed entries are returned as stored: their condition tags
    describe content already present in the audio.
    """
    clip = read_clip(entry, sample_rate=sample_rate) if clip is None else clip
    if entry.is_synthetic and not math.isinf(entry.label.snr_db):
        seed = derived_noise_seed(noise_seed, entry.clip_id, entry.label.noise_type,
                                  entry.label.snr_db)
        clip = add_noise(clip, entry.label.noise_type, entry.label.snr_db, seed)
    return clip


def derived_noise_seed(base: int, clip_id: str, noise_type: str, snr_db: float) -> int:
    tag = f"{clip_id}|{noise_type}|{snr_db!r}".encode()
    return (base << 32) ^ zlib.crc32(tag)


def add_noise(clip: AudioClip, noise_type: str, snr_db: float, seed: int) -> AudioClip:
    """Mix noise into a clip at a prescribed signal-to-noise ratio.

    Only what ``condition_fault`` lets a synthetic clip carry is mixed:
    ``synthetic-white`` noise, generated from the seed, and ``clean`` at an
    infinite ``snr_db``, which returns the input unchanged.  The mix is
    rescaled only if it would clip, which leaves the ratio intact.
    """
    fault = condition_fault(noise_type, snr_db, synthetic=True)
    if fault:
        raise DataError(fault)
    if math.isinf(snr_db):
        return clip
    s = clip.samples
    p_sig = float(np.mean(s * s))
    if p_sig == 0.0:
        raise DataError(f"clip {clip.clip_id!r}: cannot set an SNR on a silent clip")
    noise = philox(_TAG_NOISE, seed).standard_normal(s.size)
    p_noise = float(np.mean(noise * noise))
    target = p_sig / (10.0 ** (snr_db / 10.0))
    noise *= math.sqrt(target / p_noise)
    out = s + noise
    peak = np.max(np.abs(out))
    if peak > 1.0:
        out /= peak
    return AudioClip(out, clip.sample_rate, clip.clip_id)


# ---------------------------------------------------------------------------
# partitioning

def check_profile(manifest: Manifest) -> dict[tuple[int, str], list[ManifestEntry]]:
    """Verify the balanced 10x5x10 profile; return entries grouped by pair."""
    pairs: dict[tuple[int, str], list[ManifestEntry]] = {}
    for e in manifest.entries:
        pairs.setdefault((e.label.digit, e.label.speaker), []).append(e)
    digits = {d for d, _ in pairs}
    speakers = {s for _, s in pairs}
    if digits != set(range(N_CLASSES)):
        missing = sorted(set(range(N_CLASSES)) - digits)
        raise PartitionError(f"corpus is missing digit classes: {missing}")
    if len(speakers) != PROFILE_SPEAKERS:
        raise PartitionError(
            f"corpus must have exactly {PROFILE_SPEAKERS} speakers, got {len(speakers)}")
    for key in sorted(pairs):
        got = len(pairs[key])
        if got != PROFILE_UTTERANCES:
            raise PartitionError(
                f"digit {key[0]} / speaker {key[1]!r}: expected "
                f"{PROFILE_UTTERANCES} utterances, got {got}")
    return pairs


def partition_subsets(manifest: Manifest, seed: int) -> SubsetPartition:
    """Split the balanced corpus into 10 subsets of 50 clips.

    Every subset receives exactly one utterance from each (digit, speaker)
    pair, so subsets are balanced in both class and speaker.  Assignment
    is a pure function of the seed.
    """
    pairs = check_profile(manifest)
    rng = philox(_TAG_PARTITION, seed)
    subsets: list[list[str]] = [[] for _ in range(N_SUBSETS)]
    for key in sorted(pairs):
        group = sorted(pairs[key], key=lambda e: e.label.utterance)
        perm = rng.permutation(PROFILE_UTTERANCES)
        for k in range(N_SUBSETS):
            subsets[k].append(group[perm[k]].clip_id)
    return SubsetPartition(tuple(tuple(s) for s in subsets))
