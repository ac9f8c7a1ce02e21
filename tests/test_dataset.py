import math
import wave
from pathlib import Path

import numpy as np
import pytest

from resonet.dataset import (SYNTH_SAMPLE_RATE, AudioClip, DigitLabel, Manifest,
                             ManifestEntry, add_noise, build_synth_manifest,
                             check_profile, derived_noise_seed, load_manifest,
                             parse_recipe, partition_subsets, read_clip,
                             read_wav, realize_clip, save_manifest, synth_digit)
from resonet.errors import (AudioFormatError, DataError, ManifestError,
                            PartitionError)


def test_digit_label_validation():
    DigitLabel(3, "s0", 1, "clean", math.inf)
    with pytest.raises(DataError):
        DigitLabel(10, "s0", 1, "clean", math.inf)
    with pytest.raises(DataError):
        DigitLabel(3, "s0", 1, "nosuch", 10.0)
    # a finite SNR on a clean tag is contradictory, as is the reverse
    with pytest.raises(DataError):
        DigitLabel(3, "s0", 1, "clean", 20.0)
    with pytest.raises(DataError):
        DigitLabel(3, "s0", 1, "subway", math.inf)


def test_audio_clip_validation():
    AudioClip(np.zeros(100), 12500, "c")
    with pytest.raises(DataError):
        AudioClip(np.zeros((2, 50)), 12500, "c")
    with pytest.raises(DataError):
        AudioClip(np.array([]), 12500, "c")
    with pytest.raises(DataError):
        AudioClip(np.array([0.0, np.nan]), 12500, "c")
    with pytest.raises(DataError):
        AudioClip(np.array([0.0, 1.5]), 12500, "c")


def test_audio_clip_read_only():
    clip = AudioClip(np.zeros(10), 12500, "c")
    with pytest.raises(ValueError):
        clip.samples[0] = 1.0


def test_synth_digit_is_pure():
    a = synth_digit(4, 100, 7)
    b = synth_digit(4, 100, 7)
    assert np.array_equal(a.samples, b.samples)
    c = synth_digit(4, 100, 8)
    assert not np.array_equal(a.samples, c.samples)


def test_synth_digit_basic_shape():
    for digit in range(10):
        clip = synth_digit(digit, 100, 0)
        n = clip.samples.size
        assert 0.88 * 0.5 * SYNTH_SAMPLE_RATE <= n <= 1.12 * 0.5 * SYNTH_SAMPLE_RATE + 1
        assert np.max(np.abs(clip.samples)) == pytest.approx(1.0)


def test_phase_modes_share_magnitude_template():
    """Random and fixed phases must differ only in component phases."""
    a = synth_digit(2, 300, 5, phase_mode="random")
    b = synth_digit(2, 300, 5, phase_mode="fixed")
    assert a.samples.size == b.samples.size
    fa = np.abs(np.fft.rfft(a.samples))
    fb = np.abs(np.fft.rfft(b.samples))
    ka = np.argsort(fa)[-8:]
    # peak magnitudes agree within leakage wiggle at the same bins
    assert np.all(np.abs(fb[ka] / fa[ka] - 1.0) < 0.1)


def test_synth_digit_rejects_bad_args():
    with pytest.raises(DataError):
        synth_digit(11, 100, 0)
    with pytest.raises(DataError):
        synth_digit(3, 100, 0, phase_mode="chaotic")


def test_parse_recipe_round_trip():
    assert parse_recipe("synth:7:104:3:random") == (7, 104, 3, "random")
    for bad in ("synth:7:104:3", "synth:7:104:3:odd", "wav:1:2:3:random",
                "synth:x:104:3:random", "synth:12:104:3:fixed"):
        with pytest.raises(ManifestError):
            parse_recipe(bad)


def test_build_synth_manifest_profile():
    manifest = build_synth_manifest(1001)
    assert len(manifest) == 500
    pairs = check_profile(manifest)
    assert len(pairs) == 50
    ids = [e.clip_id for e in manifest.entries]
    assert len(set(ids)) == 500


def test_check_profile_reports_the_broken_pair():
    manifest = build_synth_manifest(1001)
    entries = tuple(e for e in manifest.entries
                    if not (e.label.digit == 4 and e.label.speaker == "s2"
                            and e.label.utterance == 9))
    broken = Manifest(entries, "synthetic", manifest.sample_rate)
    with pytest.raises(PartitionError, match="digit 4"):
        check_profile(broken)


def test_manifest_round_trip(tmp_path):
    manifest = build_synth_manifest(77, conditions=(("synthetic-white", 10.0),))
    path = tmp_path / "m.csv"
    save_manifest(manifest, path)
    back = load_manifest(path)
    assert len(back) == len(manifest)
    for a, b in zip(manifest.entries, back.entries):
        assert a.clip_id == b.clip_id
        assert a.source == b.source
        assert a.label == b.label


def test_load_manifest_errors_carry_row_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("clip_id,path,digit,speaker,utterance,noise_type,snr_db\n"
                    "a,synth:1:1:0:random,1,s0,0,clean,inf\n"
                    "b,synth:12:1:0:random,2,s0,0,clean,inf\n")
    with pytest.raises(ManifestError, match="row 3"):
        load_manifest(path)


def test_load_manifest_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("clip_id,path,digit,speaker,utterance,noise_type,snr_db\n"
                    "a,synth:1:1:0:random,1,s0,0,clean,inf\n"
                    "a,synth:2:1:0:random,2,s0,0,clean,inf\n")
    with pytest.raises(ManifestError, match="duplicate"):
        load_manifest(path)


def _write_wav(path: Path, samples: np.ndarray, rate: int = 8000,
               width: int = 2) -> None:
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(width)
        w.setframerate(rate)
        if width == 2:
            q = np.clip(np.round(samples * 32768.0), -32768, 32767)
            w.writeframes(q.astype("<i2").tobytes())
        else:
            q = np.clip(np.round(samples * 128.0 + 128.0), 0, 255)
            w.writeframes(q.astype(np.uint8).tobytes())


def test_read_wav_16_bit(tmp_path):
    t = np.arange(800) / 8000.0
    ref = 0.5 * np.sin(2 * np.pi * 440 * t)
    path = tmp_path / "tone.wav"
    _write_wav(path, ref)
    clip = read_wav(path)
    assert clip.sample_rate == 8000
    assert clip.clip_id == "tone"
    assert np.max(np.abs(clip.samples - ref)) < 1.0 / 32768


def test_read_wav_8_bit(tmp_path):
    ref = np.linspace(-0.9, 0.9, 64)
    path = tmp_path / "ramp.wav"
    _write_wav(path, ref, width=1)
    clip = read_wav(path)
    assert np.max(np.abs(clip.samples - ref)) < 1.0 / 127


def test_read_wav_rejects_garbage(tmp_path):
    path = tmp_path / "x.wav"
    path.write_bytes(b"RIFFnope")
    with pytest.raises(AudioFormatError):
        read_wav(path)
    with pytest.raises(ManifestError):
        read_wav(tmp_path / "missing.wav")


def test_read_clip_dispatches_on_source(tmp_path):
    entry = ManifestEntry("c1", "synth:3:104:2:random",
                          DigitLabel(3, "s4", 2, "clean", math.inf))
    clip = read_clip(entry)
    ref = synth_digit(3, 104, 2)
    assert np.array_equal(clip.samples, ref.samples)
    assert clip.clip_id == "c1"


def test_add_noise_hits_requested_snr():
    s = 0.05 * np.sin(np.arange(4000) * 0.21)
    clip = AudioClip(s, 12500, "c")
    for snr in (20.0, 10.0, 0.0):
        noisy = add_noise(clip, "synthetic-white", snr, seed=99)
        # mixing only rescales when it would clip; here it never clips
        noise = noisy.samples - s
        got = 10 * np.log10(np.mean(s * s) / np.mean(noise * noise))
        assert got == pytest.approx(snr, abs=1e-9)


def test_add_noise_is_seed_deterministic():
    s = 0.3 * np.sin(np.arange(2000) * 0.13)
    clip = AudioClip(s, 12500, "c")
    a = add_noise(clip, "synthetic-white", 10.0, seed=5)
    b = add_noise(clip, "synthetic-white", 10.0, seed=5)
    c = add_noise(clip, "synthetic-white", 10.0, seed=6)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_add_noise_infinite_snr_is_identity():
    clip = AudioClip(np.full(100, 0.2), 12500, "c")
    out = add_noise(clip, "subway", math.inf, seed=1)
    assert out is clip


def test_add_noise_bed_types_need_a_bed():
    clip = AudioClip(np.full(100, 0.2), 12500, "c")
    with pytest.raises(DataError, match="noise bed"):
        add_noise(clip, "babble", 10.0, seed=1)


def test_add_noise_rejects_silent_clip():
    clip = AudioClip(np.zeros(50), 12500, "c")
    with pytest.raises(DataError, match="silent"):
        add_noise(clip, "synthetic-white", 10.0, seed=1)


def test_derived_noise_seed_separates_conditions():
    a = derived_noise_seed(2002, "clip", "synthetic-white", 10.0)
    b = derived_noise_seed(2002, "clip", "synthetic-white", 20.0)
    c = derived_noise_seed(2003, "clip", "synthetic-white", 10.0)
    assert len({a, b, c}) == 3
    assert a == derived_noise_seed(2002, "clip", "synthetic-white", 10.0)


def test_realize_clip_applies_tag_only_to_synthetic():
    manifest = build_synth_manifest(11, conditions=(("synthetic-white", 10.0),))
    entry = manifest.entries[0]
    assert not math.isinf(entry.label.snr_db)
    clean = read_clip(entry)
    noisy = realize_clip(entry, noise_seed=2002)
    assert not np.array_equal(clean.samples, noisy.samples)


def test_partition_is_balanced_and_deterministic(corpus):
    manifest, partition = corpus
    assert len(partition.subsets) == 10
    assert all(len(s) == 50 for s in partition.subsets)
    all_ids = [cid for s in partition.subsets for cid in s]
    assert len(set(all_ids)) == 500
    by_id = {e.clip_id: e for e in manifest.entries}
    for subset in partition.subsets:
        pairs = {(by_id[c].label.digit, by_id[c].label.speaker) for c in subset}
        assert len(pairs) == 50  # one utterance per (digit, speaker) pair
    again = partition_subsets(manifest, 55)
    assert again.subsets == partition.subsets
    other = partition_subsets(manifest, 56)
    assert other.subsets != partition.subsets
