"""End-to-end runs of every subcommand against a small configuration."""

import argparse
import contextlib
import io
import re
import shutil
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from resonet.cli import build_parser, main
from resonet.config import parse_config
from resonet.dataset import (N_CLASSES, Manifest, build_synth_manifest, load_manifest,
                             save_manifest)
from resonet.errors import DegenerateInputWarning
from test_dataset import _write_wav
from test_evalharness import entry_features

FAST_CONF = """
corpus.kind = synthetic
corpus.synth_seed = 1001
filter.kind = spectro_exp
filter.alpha = 2.0
node.kind = stno
node.n_theta = 16
eval.train_subsets = 9
sweep.alphas = 0.0,2.0
strat.test_snrs = inf,10
strat.test_noise_types = synthetic-white
"""


def _write_conf(tmp_path: Path, text: str = FAST_CONF) -> Path:
    path = tmp_path / "run.conf"
    path.write_text(text)
    return path


def run(command: str, conf: Path, *args: str) -> int:
    """``resonet <command>`` on ``conf`` at 4 workers, writing to the ``out``
    directory next to it; ``args`` come last, so they override either."""
    return main([command, "--config", str(conf), "--workers", "4",
                 "--out", str(conf.parent / "out"), *args])


@pytest.fixture()
def conf(tmp_path):
    return _write_conf(tmp_path)


def test_synth_corpus_writes_manifest(conf, tmp_path, capsys):
    assert run("synth-corpus", conf) == 0
    manifest = load_manifest(tmp_path / "out" / "manifest.csv")
    assert len(manifest) == 500
    assert "500 clips" in capsys.readouterr().out


def test_featurize_writes_and_reuses_cache(conf, tmp_path, capsys):
    assert run("featurize", conf) == 0
    out = capsys.readouterr().out
    assert "500 written" in out
    cache = list((tmp_path / "out" / "cache").rglob("*.rnbf"))
    assert len(cache) == 500
    assert run("featurize", conf) == 0
    assert "500 already current" in capsys.readouterr().out


def test_bench_writes_reports(conf, tmp_path, capsys):
    assert run("bench", conf) == 0
    out_dir = tmp_path / "out"
    for name in ("report_baseline.csv", "report_total.csv", "summary.md"):
        assert (out_dir / name).exists(), name
    header = (out_dir / "report_baseline.csv").read_text().splitlines()[0]
    assert header.startswith("# config ")
    models = list((out_dir / "models").glob("fold_*.rnbm"))
    assert len(models) == 10
    text = capsys.readouterr().out
    assert "gain" in text


def test_bench_is_deterministic_across_runs(conf, tmp_path):
    assert run("bench", conf, "--out", str(tmp_path / "a")) == 0
    assert run("bench", conf, "--out", str(tmp_path / "b")) == 0
    for name in ("report_baseline.csv", "report_total.csv", "summary.md"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_seed_override_changes_the_mask(conf, tmp_path):
    assert run("bench", conf, "--out", str(tmp_path / "a"),
               "--seed-override", "mask_seed=1") == 0
    assert run("bench", conf, "--out", str(tmp_path / "b"),
               "--seed-override", "mask_seed=99") == 0
    a = (tmp_path / "a" / "report_total.csv").read_text()
    b = (tmp_path / "b" / "report_total.csv").read_text()
    assert a != b
    # the baseline route has no mask, so it is untouched
    a0 = (tmp_path / "a" / "report_baseline.csv").read_text()
    b0 = (tmp_path / "b" / "report_baseline.csv").read_text()
    assert a0.splitlines()[2:] == b0.splitlines()[2:]  # same rows, new hash


def test_negative_seed_override_gives_exit_code_2(conf, tmp_path, capsys):
    """An override is validated like the config file it rewrites."""
    assert run("bench", conf, "--seed-override", "mask_seed=-1") == 2
    assert "seeds must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_writes_csv(conf, tmp_path, capsys):
    assert run("sweep", conf) == 0
    text = (tmp_path / "out" / "sweep.csv").read_text()
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0] == "alpha,wsr_mean,wsr_std"
    assert len(lines) == 3
    assert lines[1].startswith("0.0,")
    assert lines[2].startswith("2.0,")


def test_sweep_parity_diagnostic_at_huge_alpha(tmp_path):
    conf = _write_conf(tmp_path, FAST_CONF.replace("sweep.alphas = 0.0,2.0",
                                                   "sweep.alphas = 1,1000"))
    assert run("sweep", conf) == 0
    parity = (tmp_path / "out" / "parity.csv").read_text().splitlines()
    header = [ln for ln in parity if not ln.startswith("#")][0]
    assert header == "clip_id,digit,n_plus_one,n_minus_one,max_other"
    row = [ln for ln in parity if not ln.startswith("#")][1].split(",")
    # the normalized extremum survives the huge exponent exactly
    assert int(row[2]) + int(row[3]) >= 1
    assert 0.0 <= float(row[4]) < 1.0


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """One ``export-features`` run on the fast config: its data lines
    (column header first) and what it printed."""
    tmp_path = tmp_path_factory.mktemp("export")
    conf = _write_conf(tmp_path)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert run("export-features", conf) == 0
    text = (tmp_path / "out" / "features.csv").read_text().splitlines()
    return [ln for ln in text if not ln.startswith("#")], printed.getvalue(), conf


def test_export_features_row_count(exported):
    data, out, _ = exported
    n_frames = len(data) - 1  # minus the column header
    # true frames only: the 500 clips' frame counts sum to 47 932; with
    # every clip padded to the longest it was 54 000
    assert n_frames == 47932
    assert f"wrote {n_frames} feature rows" in out


def test_export_features_cells_are_the_clip_features_bit_for_bit(exported):
    data, _, conf = exported
    cfg = parse_config(conf)
    manifest, _ = cfg.load_corpus()
    pipeline = cfg.pipeline()
    header = data[0].split(",")
    frame, first_x = header.index("frame"), header.index("x0")
    rows_of = {}
    for line in data[1:]:
        cells = line.split(",")
        rows_of.setdefault(cells[0], []).append(cells)
    assert list(rows_of) == [e.clip_id for e in manifest.entries]
    for entry in manifest.entries:
        want = entry_features(entry, pipeline, manifest).values
        rows = rows_of[entry.clip_id]
        assert [int(r[frame]) for r in rows] == list(range(want.shape[1]))
        got = np.array([[float(c) for c in r[first_x:]] for r in rows]).T
        assert np.array_equal(got, want), entry.clip_id


def _count_synth_digit(monkeypatch) -> list:
    """Spy on ``dataset.synth_digit``: the returned list grows by one
    clip id per realized clip."""
    import resonet.dataset as dataset
    realized, synth_digit = [], dataset.synth_digit

    def counting_synth_digit(*args, clip_id, **kwargs):
        realized.append(clip_id)
        return synth_digit(*args, clip_id=clip_id, **kwargs)

    monkeypatch.setattr(dataset, "synth_digit", counting_synth_digit)
    return realized


@pytest.mark.parametrize("alphas", ["1,x", "1,inf"])
def test_bad_sweep_alphas_give_exit_code_2(tmp_path, capsys, monkeypatch, alphas):
    """A bad exponent list is refused before any clip is realized."""
    conf = _write_conf(tmp_path, FAST_CONF.replace("sweep.alphas = 0.0,2.0",
                                                   f"sweep.alphas = {alphas}"))
    realized = _count_synth_digit(monkeypatch)
    assert run("sweep", conf) == 2
    assert "error: " in capsys.readouterr().err
    assert realized == []


def test_empty_config_sweep_alphas_give_exit_code_2(tmp_path, capsys, monkeypatch):
    conf = _write_conf(tmp_path, FAST_CONF.replace("sweep.alphas = 0.0,2.0",
                                                   "sweep.alphas = ,"))
    realized = _count_synth_digit(monkeypatch)
    assert run("sweep", conf) == 2
    assert "needs at least one exponent" in capsys.readouterr().err
    assert realized == []


COMMANDS = ["bench", "synth-corpus", "featurize", "sweep", "export-features", "stratified"]


@pytest.mark.parametrize("command, workers",
                         [(c, "-3") for c in COMMANDS] + [(c, "0") for c in COMMANDS],
                         ids=COMMANDS + [f"{c}-zero" for c in COMMANDS])
def test_negative_workers_give_exit_code_2(conf, capsys, command, workers):
    assert run(command, conf, "--workers", workers) == 2
    assert "--workers must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["eval.workers = 4", "output.dir = elsewhere"],
                         ids=["eval.workers", "output.dir"])
def test_where_and_how_fast_are_flags_not_config_keys(tmp_path, capsys, line):
    """Every config key is hashed; worker count and output directory are
    the ``--workers`` and ``--out`` flags only."""
    conf = _write_conf(tmp_path, FAST_CONF + line + "\n")
    assert run("bench", conf) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_every_subcommand_takes_only_where_how_fast_and_seed_flags():
    """The config file holds everything a run computes; a flag may say only
    where a run writes, how many threads it uses, and which seeds it
    overrides (applied to the config before it is hashed)."""
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == sorted(COMMANDS)
    for name, parser in sub.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        assert flags == {"--config", "--workers", "--out", "--seed-override"}, name


@pytest.mark.parametrize("front_end, key", [("mfcc", "mfcc.hop_seconds"),
                                            ("cochlear", "cochlear.decim_seconds")])
def test_a_duration_of_no_samples_gives_exit_code_2(tmp_path, capsys, front_end, key):
    """A front-end duration that rounds to zero samples at the corpus rate
    is a configuration error that names its key, not a traceback."""
    conf = _write_conf(tmp_path, f"corpus.kind = synthetic\nfilter.kind = {front_end}\n"
                                 f"{key} = 0.00001\n")
    assert run("export-features", conf) == 2
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert err.startswith(f"error: {key}: 1e-05 s is 0 samples at 12500 Hz")


@pytest.mark.parametrize("key, value", [("readout.bias", "false"), ("stft.window", "hann"),
                                        ("cochlear.expected_channels", "78")],
                         ids=["readout.bias", "stft.window", "cochlear.expected_channels"])
def test_a_removed_config_key_gives_exit_code_2(tmp_path, capsys, key, value):
    """The readout has no bias column, the STFT one window and the cochlea
    the channel count its spacing gives, so none of them is a key: a
    config that names one, even at its old default, is refused."""
    conf = _write_conf(tmp_path, f"corpus.kind = synthetic\n{key} = {value}\n")
    assert run("synth-corpus", conf) == 2
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert f"unknown config key {key!r}" in err


def test_stratified_writes_grid(conf, tmp_path):
    assert run("stratified", conf) == 0
    text = (tmp_path / "out" / "conditions.md").read_text()
    assert "| SNR (dB) |" in text
    assert "clean" in text


def test_missing_config_gives_exit_code_2(tmp_path, capsys):
    code = main(["bench", "--config", str(tmp_path / "none.conf")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("noise_types", ["white", "subway"])
def test_unbuildable_stratified_noise_type_gives_exit_code_2(tmp_path, capsys, monkeypatch,
                                                             noise_types):
    """Refused before any clip is synthesized."""
    conf = _write_conf(tmp_path, FAST_CONF.replace(
        "strat.test_noise_types = synthetic-white",
        f"strat.test_noise_types = {noise_types}"))
    realized = _count_synth_digit(monkeypatch)
    code = run("stratified", conf)
    assert code == 2
    assert "strat.test_noise_types" in capsys.readouterr().err
    assert realized == []


def test_unbuildable_corpus_condition_gives_exit_code_2(tmp_path, capsys, monkeypatch):
    conf = _write_conf(tmp_path, FAST_CONF + "corpus.conditions = clean,subway@10\n")
    realized = _count_synth_digit(monkeypatch)
    assert run("bench", conf) == 2
    assert "corpus.conditions" in capsys.readouterr().err
    assert realized == []


def test_a_noise_bed_type_on_a_synthetic_manifest_row_gives_exit_code_3(tmp_path, capsys,
                                                                       monkeypatch):
    """Refused when the manifest is read, before any clip is synthesized."""
    manifest = tmp_path / "m.csv"
    manifest.write_text("clip_id,path,digit,speaker,utterance,noise_type,snr_db\n"
                        "a,synth:2:0:0:random,2,s0,0,clean,inf\n"
                        "b,synth:3:0:0:random,3,s0,0,subway,10\n")
    conf = _write_conf(tmp_path, f"corpus.kind = manifest\ncorpus.manifest = {manifest}\n")
    realized = _count_synth_digit(monkeypatch)
    assert run("featurize", conf) == 3
    assert "manifest row 3: noise type 'subway' needs a recorded noise bed" in \
        capsys.readouterr().err
    assert realized == []


def test_a_noise_bed_cell_on_a_synthetic_manifest_gives_exit_code_3(tmp_path, capsys,
                                                                   monkeypatch):
    """The config checks the grid of a manifest corpus as file-backed, but
    every row ``synth-corpus`` writes is synthetic: relabeling a test clip
    to a recorded-bed cell is refused before any clip is synthesized."""
    assert run("synth-corpus", _write_conf(tmp_path)) == 0
    conf = _write_conf(tmp_path, FAST_CONF.replace(
        "corpus.kind = synthetic",
        f"corpus.kind = manifest\ncorpus.manifest = {tmp_path / 'out' / 'manifest.csv'}")
        .replace("strat.test_noise_types = synthetic-white", "strat.test_noise_types = subway"))
    capsys.readouterr()
    realized = _count_synth_digit(monkeypatch)
    assert run("stratified", conf) == 3
    assert "noise type 'subway' needs a recorded noise bed" in capsys.readouterr().err
    assert realized == []


def test_non_finite_node_states_give_exit_code_4(tmp_path, capsys):
    conf = _write_conf(tmp_path, FAST_CONF.replace("node.n_theta = 16", "node.n_theta = 4")
                       + "node.c = 1e300\nnode.drive_ma = 1e300\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("bench", conf)
    assert code == 4
    assert "non-finite" in capsys.readouterr().err
    # the error is the whole report: no numpy warning precedes it
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def _one_row_manifest_conf(tmp_path):
    manifest = tmp_path / "m.csv"
    manifest.write_text("clip_id,path,digit,speaker,utterance,noise_type,snr_db\n"
                        "a,synth:12:0:0:random,2,s0,0,clean,inf\n")
    return _write_conf(tmp_path, f"corpus.kind = manifest\ncorpus.manifest = {manifest}\n")


def test_bad_manifest_gives_exit_code_3(tmp_path, capsys):
    code = run("bench", _one_row_manifest_conf(tmp_path))
    assert code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("noise_type, snr", [("synthetic-white", "nan"), ("clean", "-inf")],
                         ids=["noisy-nan", "clean-minus-inf"])
def test_a_manifest_snr_its_noise_type_cannot_have_gives_exit_code_3(tmp_path, capsys,
                                                                    noise_type, snr):
    manifest = tmp_path / "m.csv"
    manifest.write_text("clip_id,path,digit,speaker,utterance,noise_type,snr_db\n"
                        f"a,synth:2:0:0:random,2,s0,0,{noise_type},{snr}\n")
    conf = _write_conf(tmp_path, f"corpus.kind = manifest\ncorpus.manifest = {manifest}\n")
    assert run("bench", conf) == 3
    assert "manifest row 2: snr_db must be +inf" in capsys.readouterr().err


def test_synth_corpus_on_a_manifest_corpus_gives_exit_code_2(tmp_path, capsys):
    # the corpus kind is checked before the manifest is read
    code = run("synth-corpus", _one_row_manifest_conf(tmp_path))
    assert code == 2
    assert "corpus.kind = synthetic" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth-corpus", "bench"])
def test_unknown_corpus_kind_gives_exit_code_2_at_parse_time(tmp_path, capsys, command):
    conf = _write_conf(tmp_path, FAST_CONF.replace("corpus.kind = synthetic",
                                                   "corpus.kind = synthtic"))
    assert run(command, conf) == 2
    assert "corpus.kind: expected synthetic or manifest, got 'synthtic'" in \
        capsys.readouterr().err


@pytest.mark.parametrize("command", ["bench", "sweep"])
def test_the_linear_spectrum_is_named_as_spectro_exp_at_alpha_one(tmp_path, capsys, command):
    """``spectro_real`` is not a filter kind; the error lists the kinds there
    are, ``spectro_exp`` (whose alpha = 1 is the linear spectrum) first."""
    conf = _write_conf(tmp_path, FAST_CONF.replace("filter.kind = spectro_exp",
                                                   "filter.kind = spectro_real"))
    assert run(command, conf) == 2
    err = capsys.readouterr().err
    assert "filter.kind: unknown filter 'spectro_real', expected one of spectro_exp, " in err


def test_cache_dir_env_override(conf, tmp_path, monkeypatch):
    cache_root = tmp_path / "elsewhere"
    monkeypatch.setenv("RESONET_CACHE_DIR", str(cache_root))
    assert run("featurize", conf) == 0
    assert len(list(cache_root.rglob("*.rnbf"))) == 500


def _count_featurize(monkeypatch) -> list:
    """Spy on the front end: the returned list grows by one clip id per
    featurized clip."""
    import resonet.filterbank as filterbank
    featurized, featurize = [], filterbank.featurize

    def counting_featurize(clip, *args, **kwargs):
        featurized.append(clip.clip_id)
        return featurize(clip, *args, **kwargs)

    monkeypatch.setattr(filterbank, "featurize", counting_featurize)
    return featurized


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_a_warm_feature_cache_is_read_not_recomputed(conf, tmp_path, monkeypatch):
    monkeypatch.setenv("RESONET_CACHE_DIR", str(tmp_path / "cache"))
    for command in ("bench", "export-features"):
        assert run(command, conf, "--out", str(tmp_path / "cold")) == 0
    assert run("featurize", conf) == 0
    featurized = _count_featurize(monkeypatch)
    for command in ("bench", "export-features"):
        assert run(command, conf, "--out", str(tmp_path / "warm")) == 0
    assert featurized == []
    cold, warm = _files(tmp_path / "cold"), _files(tmp_path / "warm")
    assert Path("features.csv") in cold and Path("summary.md") in cold
    assert warm == cold


def _spy_feature_cache_files(monkeypatch) -> list:
    """The returned list grows by one path per ``.rnbf`` file looked up or read."""
    touched = []
    for name in ("exists", "read_bytes"):
        def spy(self, *args, _original=getattr(Path, name), **kwargs):
            if self.suffix == ".rnbf":
                touched.append(self)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Path, name, spy)
    return touched


@pytest.mark.parametrize("command", ["sweep", "stratified"])
def test_sweep_and_stratified_never_read_the_feature_cache(conf, monkeypatch, command):
    """``sweep`` featurizes another front end than the configured one, and
    ``stratified`` re-realizes test clips under their manifest clip ids,
    so a cached file would be the wrong features for both."""
    assert run("featurize", conf) == 0
    touched = _spy_feature_cache_files(monkeypatch)
    assert run(command, conf) == 0
    assert touched == []


@pytest.mark.parametrize("command", ["bench", "export-features", "featurize"])
def test_a_cache_file_of_another_clip_gives_exit_code_3(conf, tmp_path, capsys, command):
    assert run("featurize", conf) == 0
    (cache,) = (tmp_path / "out" / "cache").iterdir()
    shutil.copy(cache / "d0_s0_u00.rnbf", cache / "d1_s0_u00.rnbf")
    capsys.readouterr()
    assert run(command, conf) == 3
    err = capsys.readouterr().err
    assert "d1_s0_u00.rnbf" in err and "'d0_s0_u00'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fault", ["stale", "corrupt"])
def test_the_advice_for_a_bad_cache_file_can_be_followed(conf, tmp_path, capsys, fault):
    """A cache file of another format version, or a corrupt one, stops
    ``featurize`` with exit 3 naming the file; once it is deleted as the
    message says, ``featurize`` rewrites that one file."""
    from resonet.cachefile import _checksum
    assert run("featurize", conf) == 0
    (path,) = (tmp_path / "out" / "cache").glob("*/d0_s0_u00.rnbf")
    body = bytearray(path.read_bytes()[:-8])
    if fault == "stale":
        body[4:6] = (2).to_bytes(2, "little")
        path.write_bytes(bytes(body) + _checksum(bytes(body)))
    else:
        path.write_bytes(bytes(body) + b"\0" * 8)
    capsys.readouterr()
    assert run("featurize", conf) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "delete this file and rerun featurize" in err
    path.unlink()
    assert run("featurize", conf) == 0
    assert "1 written, 499 already current" in capsys.readouterr().out


def test_bench_featurizes_each_clip_once_and_trains_each_fold_once(conf, monkeypatch):
    import resonet.evalharness as evalharness
    featurized = _count_featurize(monkeypatch)
    factored, blocks, trained = [], [], []
    solve, extend = evalharness.solve, evalharness.extend
    current = {}        # each thread's group in ``factored``: threads take groups in turn

    def counting_extend(r, block, digits, *args, **kwargs):
        thread = threading.get_ident()
        if r is None:       # a group's first block starts its factor
            current[thread] = len(factored)
            factored.append((0, None))
        blocks.append(len(digits))
        # the block's design: its input columns, then the targets
        k = current[thread]
        factored[k] = (factored[k][0] + len(digits), block.shape[1] - N_CLASSES)
        return extend(r, block, digits, *args, **kwargs)

    def counting_solve(*args, **kwargs):
        trained.append(len(args[0]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(evalharness, "extend", counting_extend)
    monkeypatch.setattr(evalharness, "solve", counting_solve)
    assert run("bench", conf) == 0
    assert len(featurized) == 500
    assert len(set(featurized)) == 500
    # each 50-clip subset is factored once per route, through the one
    # block reduction: from its 65 padded feature rows on the baseline
    # route, from its streamed node states on the total route ...
    assert factored == [(50, 65)] * 10 + [(50, 16)] * 10
    # ... in two blocks of 25 clips each
    assert blocks == [25] * 40
    # ... and ten folds on each of the baseline and total routes are solved,
    # each from its train runs' factors: the first and last fold's one run,
    # every other fold's prefix and suffix of the ten subsets
    assert trained == [1, 2, 2, 2, 2, 2, 2, 2, 2, 1] * 2
    # export-features writes each clip's features and factors nothing
    factored.clear()
    blocks.clear()
    assert run("export-features", conf) == 0
    assert factored == blocks == []


@pytest.mark.parametrize("command, clips", [("bench", 3 * 500), ("sweep", 2 * 500),
                                             ("stratified", 3 * (400 + 2 * 100))])
def test_clips_are_padded_only_in_reduction_blocks(conf, monkeypatch, command, clips):
    """No call pads more than the ``FACTOR_CHUNK`` clips of one block.
    Each clip is padded once per reduction (both bench routes; the
    sweep's two exponents, but not its spectra, which nothing reduces;
    both stratified routes over the training pool and the two cells) and
    once for the node's input scale."""
    import resonet.evalharness as evalharness
    from resonet.readout import FACTOR_CHUNK
    padded, pad_to = [], evalharness.pad_to

    def counting_pad_to(features, *args, **kwargs):
        padded.append(len(features))
        return pad_to(features, *args, **kwargs)

    monkeypatch.setattr(evalharness, "pad_to", counting_pad_to)
    assert run(command, conf) == 0
    assert max(padded) <= FACTOR_CHUNK
    assert sum(padded) == clips


@pytest.mark.parametrize("alphas", ["0,2", "1,1000"], ids=["sweep", "with-parity"])
def test_sweep_realizes_each_clip_once(tmp_path, monkeypatch, alphas):
    """Every exponent, and the parity diagnostic, is derived from one
    spectrum per clip."""
    conf = _write_conf(tmp_path, FAST_CONF.replace("sweep.alphas = 0.0,2.0",
                                                   f"sweep.alphas = {alphas}"))
    realized = _count_synth_digit(monkeypatch)
    assert run("sweep", conf) == 0
    assert len(realized) == 500
    assert len(set(realized)) == 500
    assert (tmp_path / "out" / "parity.csv").exists() == ("1000" in alphas)


def test_bench_writes_the_same_bytes_at_one_and_two_workers(conf, tmp_path):
    """The node route's groups run on the ``--workers`` threads, and
    reports, ``summary.md`` and every model file keep their bytes."""
    trees = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert run("bench", conf, "--workers", workers, "--out", str(out)) == 0
        trees.append({p: b for p, b in _files(out).items() if p.parts[0] != "cache"})
    assert trees[0] == trees[1]
    assert {p.name for p in trees[0] if p.parts[0] != "models"} == {
        "report_baseline.csv", "report_total.csv", "summary.md"}
    assert len([p for p in trees[0] if p.parts[0] == "models"]) == 10


def test_bad_states_in_a_later_group_give_exit_code_4_at_any_worker_count(
        conf, monkeypatch, capsys):
    """A NaN in the drive of subset 7's first clip exits 4 with the same
    message at one and two workers, and no thread of the node route's
    pool is left running."""
    import resonet.reservoir as reservoir
    cfg = parse_config(str(conf))
    manifest, partition = cfg.load_corpus()
    entry = manifest.entries[partition.groups(manifest).index(7)]
    bad = entry_features(entry, cfg.pipeline(), manifest).values
    mask_and_flatten, hits = reservoir.mask_and_flatten, []

    def flatten_spoiling_one_clip(x, mask):
        drive = mask_and_flatten(x, mask)
        if np.array_equal(x[:, :bad.shape[1]], bad):
            hits.append(None)
            drive[0] = float("nan")
        return drive

    monkeypatch.setattr(reservoir, "mask_and_flatten", flatten_spoiling_one_clip)
    errs = []
    for workers in ("1", "2"):
        before = set(threading.enumerate())
        assert run("bench", conf, "--workers", workers) == 4
        assert set(threading.enumerate()) == before
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == "error: stno node states have non-finite entries\n"
    assert len(hits) == 2       # the one clip, once per run


@pytest.mark.parametrize("value, match", [(-1.0, "nonnegative"), (float("nan"), "non-finite")])
def test_bad_states_in_the_last_node_block_give_exit_code_4(conf, monkeypatch, capsys,
                                                            value, match):
    import resonet.reservoir as reservoir
    stno_run, calls = reservoir.stno_run, []

    def stno_run_spoiling_the_last_clip(drive, params):
        # the node stage runs each clip once, group by group, so the
        # 500th call is the last clip of the last block of the last subset
        v = stno_run(drive, params)
        calls.append(None)
        if len(calls) == 500:
            v[-1] = value
        return v

    monkeypatch.setattr(reservoir, "stno_run", stno_run_spoiling_the_last_clip)
    assert run("bench", conf) == 4
    assert len(calls) == 500
    err = capsys.readouterr().err
    assert "error: " in err and match in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def degenerate_manifests(tmp_path_factory):
    """Manifests of the default corpus's 500 labels over short WAV clips at
    the corpus rate: a 1 024-sample tone per digit, with clip 0 replaced
    by a degenerate clip, or every clip silent."""
    root = tmp_path_factory.mktemp("degenerate")
    rate, t = 12500, np.arange(1024) / 12500
    wavs = {f"tone{d}": (0.5 * np.sin(2 * np.pi * (200 + 150 * d) * t), rate)
            for d in range(10)}
    wavs.update({"silent": (np.zeros(1024), rate),
                 "shorter-than-a-frame": (0.5 * np.sin(t[:100] * 3000), rate),
                 "one-frame": (0.5 * np.sin(t[:128] * 3000), rate),   # one STFT frame
                 "off-rate": (0.5 * np.sin(t * 3000), 8000)})
    for name, (samples, wav_rate) in wavs.items():
        _write_wav(root / f"{name}.wav", samples, rate=wav_rate)
    entries = build_synth_manifest(1001).entries
    manifests = {}
    for case in ("shorter-than-a-frame", "one-frame", "silent-corpus", "off-rate"):
        rows = [replace(e, source=str(root / ("silent.wav" if case == "silent-corpus"
                                               else f"tone{e.label.digit}.wav")))
                for e in entries]
        if case != "silent-corpus":
            rows[0] = replace(rows[0], source=str(root / f"{case}.wav"))
        manifests[case] = root / f"{case}.csv"
        save_manifest(Manifest(tuple(rows), sample_rate=rate), manifests[case])
    return manifests


@pytest.mark.parametrize("command", ["bench", "sweep", "stratified", "featurize",
                                     "export-features"])
@pytest.mark.parametrize("case, front_end, code", [
    ("shorter-than-a-frame", "spectro_exp", 3), ("one-frame", "spectro_exp", 0),
    ("silent-corpus", "spectro_exp", 0), ("off-rate", "spectro_exp", 3),
    ("off-rate", "cochlear", 3)])
def test_degenerate_inputs_end_in_their_exit_code(tmp_path, capsys, degenerate_manifests,
                                                  command, case, front_end, code):
    """A clip no frame fits in, and a clip at another sample rate, are
    data errors (exit 3) that name the clip; a one-frame clip and a silent corpus run to
    the end (exit 0), the silent one at exactly chance, with one
    ``DegenerateInputWarning`` per silent clip.  No run prints a traceback."""
    conf = _write_conf(tmp_path, f"corpus.kind = manifest\n"
                                 f"corpus.manifest = {degenerate_manifests[case]}\n"
                                 f"filter.kind = {front_end}\nfilter.alpha = 2.0\n"
                                 "node.kind = stno\nnode.n_theta = 4\n"
                                 "eval.train_subsets = 1\nsweep.alphas = 0.0,2.0\n"
                                 "strat.test_snrs = inf\n"
                                 "strat.test_noise_types = synthetic-white\n")
    if case == "silent-corpus":
        with pytest.warns(DegenerateInputWarning):
            assert run(command, conf) == code
    else:
        assert run(command, conf) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    if code == 3:
        assert err.startswith("error: ")
        assert "'d0_s0_u00'" in err
        if case == "off-rate":
            assert "8000 Hz, the corpus at 12500 Hz" in err
    if case == "silent-corpus" and command in ("bench", "sweep", "stratified"):
        wsrs = re.findall(r"WSR (\d+\.\d+)", out)
        assert wsrs and set(wsrs) == {"10.00"}


@pytest.fixture(scope="module")
def tagged_manifest(degenerate_manifests):
    """The default corpus's 500 labels over the tone WAV of each digit,
    with test utterance 8 tagged ``clean`` and utterance 9
    ``synthetic-white`` at 20 dB."""
    root = degenerate_manifests["one-frame"].parent
    rows = [replace(e, source=str(root / f"tone{e.label.digit}.wav"),
                    label=replace(e.label, noise_type="synthetic-white", snr_db=20.0)
                    if e.label.utterance == 9 else e.label)
            for e in build_synth_manifest(1001).entries]
    save_manifest(Manifest(tuple(rows), sample_rate=12500), root / "tagged.csv")
    return root / "tagged.csv"


def _tagged_conf(tmp_path, manifest, noise_types="synthetic-white", train_utterances=8):
    return _write_conf(tmp_path, f"corpus.kind = manifest\ncorpus.manifest = {manifest}\n"
                                 "filter.kind = spectro_exp\nfilter.alpha = 2.0\n"
                                 f"strat.train_utterances = {train_utterances}\n"
                                 "strat.test_snrs = inf,20\n"
                                 f"strat.test_noise_types = {noise_types}\n")


def test_file_backed_test_clips_join_only_their_tagged_cell(tmp_path, capsys, monkeypatch,
                                                           tagged_manifest):
    """A file-backed test clip carries its noise already: it joins the one
    cell its tag names, and a cell no tag names is a data error."""
    import resonet.evalharness as evalharness
    corpora, baseline_route = [], evalharness.baseline_route

    def keeping_baseline_route(corpus, *args, **kwargs):
        corpora.append(corpus)
        return baseline_route(corpus, *args, **kwargs)

    monkeypatch.setattr(evalharness, "baseline_route", keeping_baseline_route)
    assert run("stratified", _tagged_conf(tmp_path, tagged_manifest)) == 0
    (corpus,) = corpora
    cells = {}
    for clip_id, group in zip(corpus.clip_ids, corpus.subset_of.tolist()):
        cells.setdefault(group, []).append(clip_id)
    assert {g: {c[-3:] for c in ids} for g, ids in cells.items() if g} == {1: {"u08"},
                                                                          2: {"u09"}}
    assert len(cells[1]) == len(cells[2]) == 50
    capsys.readouterr()
    conf = _tagged_conf(tmp_path, tagged_manifest, "synthetic-white,babble")
    assert run("stratified", conf) == 3
    err = capsys.readouterr().err
    assert "no test clips for condition ('babble', 20.0 dB)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("train_utterances, per_cell", [(8, "50"), (7, "50 to 100")])
def test_conditions_report_the_test_clips_each_cell_scored(tmp_path, tagged_manifest,
                                                           train_utterances, per_cell):
    """Each tagged cell scores 50 file-backed clips, and the untagged
    utterance 7 joins the clean cell only: cells that differ in size are
    reported by their smallest and largest."""
    assert run("stratified", _tagged_conf(tmp_path, tagged_manifest,
                                          train_utterances=train_utterances)) == 0
    text = (tmp_path / "out" / "conditions.md").read_text()
    assert f"; {per_cell} test clips per cell population." in text


@pytest.mark.parametrize("workers", ["1", "2"])
def test_stratified_realizes_each_clip_once(tmp_path, monkeypatch, workers):
    """A synthetic test clip is synthesized once and each of its three
    default cells mixes its own noise into that one signal."""
    conf = _write_conf(tmp_path, FAST_CONF.replace("strat.test_snrs = inf,10\n", ""))
    realized = _count_synth_digit(monkeypatch)
    assert run("stratified", conf, "--workers", workers) == 0
    assert len(realized) == 500
    assert len(set(realized)) == 500


@pytest.mark.parametrize("workers", ["1", "2"])
def test_stratified_featurizes_each_distinct_condition_once(tmp_path, monkeypatch, workers):
    """Every infinite-snr cell is the one clean condition: with two noise
    types the two clean cells score one featurization of each test clip."""
    conf = _write_conf(tmp_path, FAST_CONF.replace(
        "strat.test_snrs = inf,10\nstrat.test_noise_types = synthetic-white\n",
        "strat.test_snrs = inf\nstrat.test_noise_types = synthetic-white,babble\n"))
    featurized = _count_featurize(monkeypatch)
    assert run("stratified", conf, "--workers", workers) == 0
    assert len(featurized) == 500
    assert len(set(featurized)) == 500
    text = (tmp_path / "out" / "conditions.md").read_text()
    assert "| SNR (dB) | synthetic-white | babble | avg |" in text


@pytest.fixture(scope="module")
def one_speaker_manifest(degenerate_manifests):
    """Speaker s0's 100 clips of the default corpus over the tone WAV of
    each digit: a valid corpus, but not the balanced 10 x 5 x 10 profile."""
    root = degenerate_manifests["one-frame"].parent
    rows = [replace(e, source=str(root / f"tone{e.label.digit}.wav"))
            for e in build_synth_manifest(1001).entries if e.label.speaker == "s0"]
    save_manifest(Manifest(tuple(rows), sample_rate=12500), root / "one-speaker.csv")
    return root / "one-speaker.csv"


@pytest.mark.parametrize("command, code", [("featurize", 0), ("export-features", 0),
                                           ("stratified", 0), ("bench", 3), ("sweep", 3)])
def test_only_bench_and_sweep_need_the_balanced_profile(tmp_path, capsys,
                                                        one_speaker_manifest, command, code):
    """Only the cross-validating commands partition the corpus into
    subsets, so only they refuse a corpus without the balanced profile."""
    conf = _write_conf(tmp_path, f"corpus.kind = manifest\n"
                                 f"corpus.manifest = {one_speaker_manifest}\n"
                                 "filter.kind = spectro_exp\nfilter.alpha = 2.0\n"
                                 "sweep.alphas = 0.0,2.0\nstrat.test_snrs = inf\n"
                                 "strat.test_noise_types = synthetic-white\n")
    assert run(command, conf) == code
    err = capsys.readouterr().err
    assert ("corpus must have exactly 5 speakers, got 1" in err) == (code == 3)


def test_synth_corpus_builds_no_partition(conf, monkeypatch):
    import resonet.config as config
    partitioned = []
    monkeypatch.setattr(config, "partition_subsets",
                        lambda *args: partitioned.append(args))
    assert run("synth-corpus", conf) == 0
    assert partitioned == []


def test_stratified_trains_on_any_utterance_count_a_manifest_has(tmp_path, capsys,
                                                                  one_speaker_manifest):
    """A manifest with utterances 0..11 can hold utterance 11 out, though
    the synthetic profile has only ten utterances per speaker."""
    rows = list(load_manifest(one_speaker_manifest, sample_rate=12500).entries)
    rows += [replace(e, clip_id=f"{e.clip_id}x",
                     label=replace(e.label, utterance=e.label.utterance + 2))
             for e in rows if e.label.utterance >= 8]
    manifest = tmp_path / "twelve.csv"
    save_manifest(Manifest(tuple(rows), sample_rate=12500), manifest)
    conf = _write_conf(tmp_path, f"corpus.kind = manifest\ncorpus.manifest = {manifest}\n"
                                 "filter.kind = spectro_exp\nfilter.alpha = 2.0\n"
                                 "strat.train_utterances = 11\nstrat.test_snrs = inf\n"
                                 "strat.test_noise_types = synthetic-white\n")
    assert run("stratified", conf) == 0
    text = (tmp_path / "out" / "conditions.md").read_text()
    assert "Trained on 110 clips; 10 test clips per cell population." in text


def test_stratified_with_every_utterance_in_training_names_the_empty_test_pool(tmp_path,
                                                                               capsys):
    conf = _write_conf(tmp_path, FAST_CONF + "strat.train_utterances = 10\n")
    assert run("stratified", conf) == 3
    assert "stratified test pool is empty" in capsys.readouterr().err


def test_a_manifest_path_may_start_at_the_home_directory(tmp_path, capsys, monkeypatch,
                                                         one_speaker_manifest):
    monkeypatch.setenv("HOME", str(tmp_path))
    shutil.copy(one_speaker_manifest, tmp_path / "m.csv")
    conf = _write_conf(tmp_path, "corpus.kind = manifest\ncorpus.manifest = ~/m.csv\n"
                                 "filter.kind = spectro_exp\nfilter.alpha = 2.0\n")
    assert parse_config(conf)["corpus.manifest"] == "~/m.csv"   # hashed as written
    assert run("featurize", conf) == 0
    assert "100 written" in capsys.readouterr().out


def test_the_cache_directory_may_start_at_the_home_directory(tmp_path, capsys, monkeypatch,
                                                             one_speaker_manifest):
    home, work = tmp_path / "home", tmp_path / "work"
    home.mkdir()
    work.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("RESONET_CACHE_DIR", "~/rcache")
    monkeypatch.chdir(work)
    conf = _write_conf(tmp_path, f"corpus.kind = manifest\ncorpus.manifest = "
                                 f"{one_speaker_manifest}\nfilter.kind = spectro_exp\n")
    assert run("featurize", conf) == 0
    assert "100 written" in capsys.readouterr().out
    assert len(list((home / "rcache").rglob("*.rnbf"))) == 100
    assert list(work.iterdir()) == []
