"""End-to-end runs of every subcommand against a small configuration."""

import warnings

import pytest

from resonet.cli import main
from resonet.dataset import load_manifest

FAST_CONF = """
corpus.kind = synthetic
corpus.synth_seed = 1001
filter.kind = spectro_exp
filter.alpha = 2.0
node.kind = stno
node.n_theta = 16
eval.train_subsets = 9
eval.workers = 4
sweep.alphas = 0.0,2.0
strat.test_snrs = inf,10
strat.test_noise_types = synthetic-white
"""


@pytest.fixture()
def conf(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(FAST_CONF + f"output.dir = {tmp_path / 'out'}\n")
    return path


def test_synth_corpus_writes_manifest(conf, tmp_path, capsys):
    assert main(["synth-corpus", "--config", str(conf)]) == 0
    manifest = load_manifest(tmp_path / "out" / "manifest.csv")
    assert len(manifest) == 500
    assert "500 clips" in capsys.readouterr().out


def test_featurize_writes_and_reuses_cache(conf, tmp_path, capsys):
    assert main(["featurize", "--config", str(conf)]) == 0
    out = capsys.readouterr().out
    assert "500 written" in out
    cache = list((tmp_path / "out" / "cache").rglob("*.rnbf"))
    assert len(cache) == 500
    assert main(["featurize", "--config", str(conf)]) == 0
    assert "500 already current" in capsys.readouterr().out


def test_bench_writes_reports(conf, tmp_path, capsys):
    assert main(["bench", "--config", str(conf)]) == 0
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
    assert main(["bench", "--config", str(conf), "--out", str(tmp_path / "a")]) == 0
    assert main(["bench", "--config", str(conf), "--out", str(tmp_path / "b")]) == 0
    for name in ("report_baseline.csv", "report_total.csv", "summary.md"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_seed_override_changes_the_mask(conf, tmp_path):
    assert main(["bench", "--config", str(conf), "--out", str(tmp_path / "a"),
                 "--seed-override", "mask_seed=1"]) == 0
    assert main(["bench", "--config", str(conf), "--out", str(tmp_path / "b"),
                 "--seed-override", "mask_seed=99"]) == 0
    a = (tmp_path / "a" / "report_total.csv").read_text()
    b = (tmp_path / "b" / "report_total.csv").read_text()
    assert a != b
    # the baseline route has no mask, so it is untouched
    a0 = (tmp_path / "a" / "report_baseline.csv").read_text()
    b0 = (tmp_path / "b" / "report_baseline.csv").read_text()
    assert a0.splitlines()[2:] == b0.splitlines()[2:]  # same rows, new hash


def test_sweep_writes_csv(conf, tmp_path, capsys):
    assert main(["sweep", "--config", str(conf)]) == 0
    text = (tmp_path / "out" / "sweep.csv").read_text()
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0] == "alpha,wsr_mean,wsr_std"
    assert len(lines) == 3
    assert lines[1].startswith("0.0,")
    assert lines[2].startswith("2.0,")


def test_sweep_parity_diagnostic_at_huge_alpha(conf, tmp_path):
    assert main(["sweep", "--config", str(conf), "--alphas", "1,1000"]) == 0
    parity = (tmp_path / "out" / "parity.csv").read_text().splitlines()
    header = [ln for ln in parity if not ln.startswith("#")][0]
    assert header == "clip_id,digit,n_plus_one,n_minus_one,max_other"
    row = [ln for ln in parity if not ln.startswith("#")][1].split(",")
    # the normalized extremum survives the huge exponent exactly
    assert int(row[2]) + int(row[3]) >= 1
    assert 0.0 <= float(row[4]) < 1.0


def test_export_features_row_count(conf, tmp_path, capsys):
    assert main(["export-features", "--config", str(conf)]) == 0
    text = (tmp_path / "out" / "features.csv").read_text().splitlines()
    data = [ln for ln in text if not ln.startswith("#")]
    n_frames = len(data) - 1  # minus the column header
    assert n_frames % 500 == 0
    out = capsys.readouterr().out
    assert f"wrote {n_frames} feature rows" in out


@pytest.mark.parametrize("alphas", ["1,x", ","])
def test_bad_sweep_alphas_give_exit_code_2(conf, capsys, alphas):
    assert main(["sweep", "--config", str(conf), "--alphas", alphas]) == 2
    assert "error: " in capsys.readouterr().err


def test_negative_workers_give_exit_code_2(conf, capsys):
    assert main(["bench", "--config", str(conf), "--workers", "-3"]) == 2
    assert "--workers" in capsys.readouterr().err


def test_stratified_writes_grid(conf, tmp_path):
    assert main(["stratified", "--config", str(conf)]) == 0
    text = (tmp_path / "out" / "conditions.md").read_text()
    assert "| SNR (dB) |" in text
    assert "clean" in text


def test_missing_config_gives_exit_code_2(tmp_path, capsys):
    code = main(["bench", "--config", str(tmp_path / "none.conf")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("noise_types", ["white", "subway"])
def test_unbuildable_stratified_noise_type_gives_exit_code_2(tmp_path, capsys, noise_types):
    conf = tmp_path / "run.conf"
    conf.write_text(FAST_CONF.replace("strat.test_noise_types = synthetic-white",
                                      f"strat.test_noise_types = {noise_types}")
                    + f"output.dir = {tmp_path / 'out'}\n")
    code = main(["stratified", "--config", str(conf)])
    assert code == 2
    assert "strat.test_noise_types" in capsys.readouterr().err


def test_non_finite_node_states_give_exit_code_4(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text(FAST_CONF.replace("node.n_theta = 16", "node.n_theta = 4")
                    + "node.c = 1e300\nnode.drive_ma = 1e300\n"
                    + f"output.dir = {tmp_path / 'out'}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["bench", "--config", str(conf)])
    assert code == 4
    assert "non-finite" in capsys.readouterr().err
    # the error is the whole report: no numpy warning precedes it
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def _one_row_manifest_conf(tmp_path):
    conf = tmp_path / "run.conf"
    manifest = tmp_path / "m.csv"
    manifest.write_text("clip_id,path,digit,speaker,utterance,noise_type,snr_db\n"
                        "a,synth:12:0:0:random,2,s0,0,clean,inf\n")
    conf.write_text(f"corpus.kind = manifest\ncorpus.manifest = {manifest}\n"
                    f"output.dir = {tmp_path / 'out'}\n")
    return conf


def test_bad_manifest_gives_exit_code_3(tmp_path, capsys):
    code = main(["bench", "--config", str(_one_row_manifest_conf(tmp_path))])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_synth_corpus_on_a_manifest_corpus_gives_exit_code_2(tmp_path, capsys):
    # the corpus kind is checked before the manifest is read
    code = main(["synth-corpus", "--config", str(_one_row_manifest_conf(tmp_path))])
    assert code == 2
    assert "corpus.kind = synthetic" in capsys.readouterr().err


def test_cache_dir_env_override(conf, tmp_path, monkeypatch):
    cache_root = tmp_path / "elsewhere"
    monkeypatch.setenv("RESONET_CACHE_DIR", str(cache_root))
    assert main(["featurize", "--config", str(conf)]) == 0
    assert len(list(cache_root.rglob("*.rnbf"))) == 500


def test_bench_featurizes_each_clip_once_and_trains_each_fold_once(conf, monkeypatch):
    import resonet.evalharness as evalharness
    featurized, factored, trained = [], [], []
    featurize, solve = evalharness.featurize, evalharness.solve
    factor_blocks = evalharness.factor_blocks

    def counting_featurize(clip, *args, **kwargs):
        featurized.append(clip.clip_id)
        return featurize(clip, *args, **kwargs)

    def counting_factor_blocks(blocks, *args, **kwargs):
        blocks = list(blocks)
        factored.append((sum(len(inputs) for inputs, _ in blocks),
                         blocks[0][0][0].shape[0]))
        return factor_blocks(blocks, *args, **kwargs)

    def counting_solve(*args, **kwargs):
        trained.append(len(args[0]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(evalharness, "featurize", counting_featurize)
    monkeypatch.setattr(evalharness, "factor_blocks", counting_factor_blocks)
    monkeypatch.setattr(evalharness, "solve", counting_solve)
    assert main(["bench", "--config", str(conf)]) == 0
    assert len(featurized) == 500
    assert len(set(featurized)) == 500
    # each 50-clip subset is factored once per route, through the one
    # block reduction: from its 65 padded feature rows on the baseline
    # route, from its streamed node states on the total route ...
    assert factored == [(50, 65)] * 10 + [(50, 16)] * 10
    # ... and ten folds on each of the baseline and total routes are solved,
    # each from its nine train subsets' factors, no more
    assert trained == [9] * 20
    # export-features reads the padded features alone and factors nothing
    factored.clear()
    assert main(["export-features", "--config", str(conf)]) == 0
    assert factored == []


@pytest.mark.parametrize("value, match", [(-1.0, "nonnegative"), (float("nan"), "non-finite")])
def test_bad_states_in_the_last_node_block_give_exit_code_4(conf, monkeypatch, capsys,
                                                            value, match):
    import resonet.evalharness as evalharness
    stno_run, calls = evalharness.stno_run, []

    def stno_run_spoiling_the_last_clip(drive, params):
        # the node stage runs each clip once, group by group, so the
        # 500th call is the last clip of the last block of the last subset
        v = stno_run(drive, params)
        calls.append(None)
        if len(calls) == 500:
            v[-1] = value
        return v

    monkeypatch.setattr(evalharness, "stno_run", stno_run_spoiling_the_last_clip)
    assert main(["bench", "--config", str(conf)]) == 4
    assert len(calls) == 500
    err = capsys.readouterr().err
    assert "error: " in err and match in err
    assert "Traceback" not in err
