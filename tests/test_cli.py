"""Experiment runner: config handling, artifacts, determinism, exit codes."""

import configparser
import json
import os

import numpy as np
import pytest
from conftest import write_zero_dim_checkpoint
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wflow import chain as fc
from wflow import cli
from wflow import datasets as ds
from wflow import metrics
from wflow import numcore as nc


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


EVAL_INI = """
[experiment]
task = eval
seed = 3
[dataset]
source = standard-gaussian
target = fig10-q
count = 1500
[metrics]
names = kl_mc, mmd
"""


def test_eval_task_runs_and_reports(tmp_path):
    cfg = _write(tmp_path, "eval.ini", EVAL_INI)
    out = tmp_path / "out"
    assert cli.run_experiment(cfg, out=str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    names = [m["name"] for m in report["metrics"]]
    assert names == ["kl_mc", "mmd"]
    assert (out / "samples.svg").exists()
    assert (out / "config_echo.ini").exists()
    assert (out / "run_meta.json").exists()


def test_eval_determinism_byte_identical(tmp_path):
    cfg = _write(tmp_path, "eval.ini", EVAL_INI)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.run_experiment(cfg, out=str(out1)) == 0
    assert cli.run_experiment(cfg, out=str(out2)) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "samples.svg").read_bytes() == (out2 / "samples.svg").read_bytes()


def test_echoed_config_replays_identically(tmp_path):
    cfg = _write(tmp_path, "eval.ini", EVAL_INI)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.run_experiment(cfg, out=str(out1)) == 0
    assert cli.run_experiment(str(out1 / "config_echo.ini"), out=str(out2)) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_seed_override_changes_results(tmp_path):
    cfg = _write(tmp_path, "eval.ini", EVAL_INI)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.run_experiment(cfg, out=str(out1)) == 0
    assert cli.run_experiment(cfg, seed=4, out=str(out2)) == 0
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1["metrics"][0]["value"] != r2["metrics"][0]["value"]
    assert r2["seed"] == 4


def test_unknown_section_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.ini", "[bogus]\nx = 1\n")
    assert cli.run_experiment(cfg, task="eval", out=str(tmp_path / "o")) == 2
    assert "bogus" in capsys.readouterr().err


def test_default_section_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.ini", "[DEFAULT]\ncount = 5\n")
    assert cli.run_experiment(cfg, task="eval", out=str(tmp_path / "o")) == 2
    assert "[DEFAULT]" in capsys.readouterr().err


def test_unknown_key_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.ini", "[dataset]\nbananas = 7\n")
    assert cli.run_experiment(cfg, task="eval", out=str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "bananas" in err and "dataset" in err


def test_bad_value_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.ini",
                 "[experiment]\ntask = eval\n[dataset]\ncount = several\n"
                 "[metrics]\nnames = mmd\n")
    assert cli.run_experiment(cfg, out=str(tmp_path / "o")) == 2
    assert "count" in capsys.readouterr().err


_TINY_TRAIN = ("[dataset]\ncount = 64\nholdout = 32\n[model]\nwidth = 4\ndepth = 1\n"
               "steps_per_block = 2\n[train]\nbatch_size = 16\niterations = 2\n")
_TINY = {
    "train-jko": _TINY_TRAIN,
    "train-lfm": _TINY_TRAIN,
    "train-cnf": _TINY_TRAIN,
    "ot": _TINY_TRAIN,
    "dro": "[dataset]\ncount = 64\nholdout = 32\n[train]\nbatch_size = 16\niterations = 2\n",
    "dre": "[dataset]\ncount = 64\nholdout = 32\n[dre]\nbridges = 2\ngrid = 4\n"
           "classifier_iterations = 2\n",
    "eval": "[dataset]\ndim = 3\ncount = 64\n[metrics]\nnames = mmd\n",
    "sample": "[dataset]\ncount = 16\n[model]\nwidth = 4\ndepth = 1\nsteps_per_block = 2\n",
    # "task:variant" runs the task on 2-D presets, which take neither dim nor shift
    "eval:moons": "[dataset]\nsource = two-moons\ntarget = fig10-q\ncount = 64\n"
                  "[metrics]\nnames = mmd\n",
    "sample:fig10-q": "[dataset]\ntarget = fig10-q\ncount = 16\n[model]\nwidth = 4\n"
                      "depth = 1\nsteps_per_block = 2\n",
}


def _tiny_config(tmp_path, task, section, key, value):
    # "eval+kl_mc" is the tiny eval config with [metrics] names = kl_mc
    task, _, names = task.partition("+")
    parser = configparser.ConfigParser()
    parser.read_string(_TINY[task])
    if names:
        if not parser.has_section("metrics"):
            parser.add_section("metrics")
        parser.set("metrics", "names", names)
    if not parser.has_section(section):
        parser.add_section(section)
    parser.set(section, key, value)
    path = tmp_path / f"{task}.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    return str(path)


@pytest.mark.parametrize("task, section, key, value", [
    ("eval", "dataset", "source", "no-such-preset"),
    ("eval", "dataset", "target", "no-such-preset"),
    ("eval", "dataset", "source", "fig10-p"),  # 2-D preset against dim = 3
    ("sample", "dataset", "target", "no-such-preset"),
    ("train-jko", "model", "scheme", "midpoint"),
    ("train-jko", "train", "optimizer", "lbfgs"),
    ("train-jko", "train", "gamma", "0"),
    ("train-jko", "train", "gamma", "-1"),
    ("ot", "ot", "penalty", "0"),
    ("dro", "dro", "gamma", "-0.5"),
    ("train-jko", "model", "blocks", "0"),
    ("train-jko", "dataset", "dim", "0"),
    ("train-jko", "model", "depth", "0"),
    ("train-jko", "model", "width", "0"),
    ("train-jko", "model", "steps_per_block", "0"),
    ("train-jko", "model", "t_total", "0"),
    ("train-jko", "model", "t_total", "inf"),
    ("train-jko", "train", "iterations", "0"),
    ("train-jko", "train", "batch_size", "0"),
    ("train-jko", "train", "learn_rate", "0"),
    ("train-jko", "train", "learn_rate", "-0.01"),
    ("train-jko", "train", "learn_rate", "nan"),
    ("dro", "train", "learn_rate", "inf"),
    ("dre", "dre", "classifier_iterations", "0"),
    ("dre", "dre", "bridges", "0"),
    ("train-jko", "dataset", "count", "0"),
    ("train-jko", "dataset", "holdout", "0"),
    ("train-jko", "dataset", "shift", "1,2,3"),
    ("train-jko", "dataset", "shift", "nan,0"),
    ("train-jko", "dataset", "shift", "inf,0"),
    ("dro", "dro", "risk_c", "nan,0"),
    ("train-jko", "train", "gamma", "inf"),
    ("eval", "experiment", "seed", "-1"),
    ("dre", "dre", "grid", "1"),  # the one grid point lies where neither density lives
    ("sample", "dataset", "count", "0"),
    ("sample", "model", "checkpoint", "{tmp}/missing.wflw"),
    # each metric's sample is below its minimum: 2 points, d+1 for a covariance
    ("eval", "dataset", "count", "1"),
    ("eval+gauss_fid", "dataset", "count", "3"),
    ("eval+kl_mc", "dataset", "count", "1"),
    ("train-jko+gauss_fid", "dataset", "holdout", "1"),
    ("train-jko+mmd", "dataset", "holdout", "1"),
    ("train-jko+kl_moment", "dataset", "holdout", "2"),
    # the per-block kl_moment of a progressive task sees the count training particles
    ("train-jko", "dataset", "count", "1"),
    ("train-jko", "dataset", "count", "2"),
    # nll training needs a Gaussian base and jko a Gaussian potential
    ("train-cnf", "dataset", "target", "fig10-p"),
    ("train-cnf", "dataset", "target", "fig10-q"),
    ("train-cnf", "dataset", "target", "branch-tree"),
    ("train-jko", "dataset", "target", "fig10-p"),
    ("train-jko", "dataset", "target", "fig10-q"),
    ("train-jko", "dataset", "target", "branch-tree"),
    # kl_moment is the closed-form KL to a Gaussian target
    ("train-lfm+kl_moment", "dataset", "target", "fig10-p"),
    # dim and shift would be ignored by a 2-D preset
    ("eval:moons", "dataset", "shift", "5,5"),
    ("eval:moons", "dataset", "dim", "5"),
    ("sample:fig10-q", "dataset", "dim", "5"),
])
def test_invalid_value_exit_2(tmp_path, capsys, task, section, key, value):
    cfg = _tiny_config(tmp_path, task, section, key, value.format(tmp=tmp_path))
    out = tmp_path / "out"
    task = task.partition("+")[0].partition(":")[0]
    assert cli.run_experiment(cfg, task=task, out=str(out)) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("task, key, value", [
    ("eval+mmd,kl_mc,w2", "count", "2"),
    ("eval+gauss_fid", "count", "4"),
    ("train-jko+mmd,gauss_fid,kl_moment,nll,w2", "holdout", "3"),
])
def test_metric_minimum_sample_runs(tmp_path, task, key, value):
    # the smallest samples the metrics accept give a finite, valid report
    cfg = _tiny_config(tmp_path, task, "dataset", key, value)
    out = tmp_path / "out"
    assert cli.run_experiment(cfg, task=task.partition("+")[0], out=str(out)) == 0
    report = json.loads((out / "report.json").read_text(),
                        parse_constant=lambda c: pytest.fail(f"{c} in report.json"))
    assert [m["name"] for m in report["metrics"]] == task.partition("+")[2].split(",")


def test_kl_mc_on_a_train_task_rejected_before_training(tmp_path, capsys, monkeypatch):
    def train_block(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(cli.obj, "train_block", train_block)
    cfg = _tiny_config(tmp_path, "train-jko+kl_mc", "dataset", "holdout", "32")
    out = tmp_path / "out"
    assert cli.run_experiment(cfg, task="train-jko", out=str(out)) == 2
    assert "kl_mc applies to the eval task only" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["source", "target"])
def test_kl_mc_without_a_log_density_exit_2_before_metrics(tmp_path, capsys, monkeypatch, key):
    monkeypatch.setattr(cli.metrics, "kl_mc", lambda *args: pytest.fail("metric started"))
    cfg = _write(tmp_path, "eval.ini", f"[dataset]\n{key} = two-moons\ncount = 64\n"
                                       "[metrics]\nnames = mmd, kl_mc\n")
    out = tmp_path / "out"
    assert cli.run_experiment(cfg, task="eval", out=str(out)) == 2
    assert f"[dataset] {key} = two-moons" in capsys.readouterr().err
    assert not out.exists()


def test_artifact_json_rejects_non_finite_values(tmp_path):
    writer = cli.ArtifactWriter(str(tmp_path))
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(nc.NumericError, match="report.json"):
            writer.json("report.json", {"metrics": [{"value": bad}]})
    assert not any(tmp_path.iterdir())
    writer.json("report.json", {"value": 1.5})
    assert json.loads((tmp_path / "report.json").read_text()) == {"value": 1.5}


@pytest.mark.parametrize("via", ["--out", "[experiment] out"])
@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_output_path_under_a_file_exit_2_before_the_task(tmp_path, capsys, monkeypatch,
                                                          via, out):
    monkeypatch.setattr(cli, "_task_eval", lambda *args: pytest.fail("task started"))
    (tmp_path / "afile").write_text("keep\n")
    path = str(tmp_path / out)
    if via == "--out":
        cfg = _tiny_config(tmp_path, "eval", "experiment", "seed", "3")
        code = cli.run_experiment(cfg, task="eval", out=path)
    else:
        cfg = _tiny_config(tmp_path, "eval", "experiment", "out", path)
        code = cli.run_experiment(cfg, task="eval")
    assert code == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "not a directory" in err
    assert (tmp_path / "afile").read_text() == "keep\n"


def test_diverged_training_exit_3(tmp_path, capsys):
    cfg = _tiny_config(tmp_path, "dro", "train", "learn_rate", "1e200")
    out = tmp_path / "out"
    assert cli.run_experiment(cfg, task="dro", out=str(out)) == 3
    assert "non-finite at iteration" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("task, key, trainer", [("ot", "penalty", "ot_train"),
                                                ("dro", "gamma", "dro_train")])
def test_ot_and_dro_train_at_their_own_gamma(tmp_path, monkeypatch, task, key, trainer):
    # [train] gamma is the proximal step of train-jko and train-lfm only
    seen = []

    def record(*args, **kwargs):
        seen.extend(a.gamma for a in args if isinstance(a, cli.obj.TrainConfig))
        raise cli.ConfigError("recorded")

    monkeypatch.setattr(cli.tp, trainer, record)
    cfg = _tiny_config(tmp_path, task, "train", "gamma", "7")
    with open(cfg, "a") as fh:
        fh.write(f"[{task}]\n{key} = 3.5\n")
    assert cli.run_experiment(cfg, task=task, out=str(tmp_path / "out")) == 2
    assert seen == [3.5]


@pytest.mark.parametrize("count", [1, 2])
def test_ot_moment_fit_below_d_plus_1_points_exit_2(tmp_path, capsys, monkeypatch, count):
    # a mixture has no tape log-pdf, so a moment fit of the count-point pool
    # stands in for it; below d + 1 = 3 points its covariance is singular
    monkeypatch.setattr(cli.tp, "ot_train", lambda *args, **kwargs: pytest.fail("trained"))
    cfg = _write(tmp_path, "ot.ini", f"""
[experiment]
task = ot
[dataset]
source = fig10-p
target = fig10-q
count = {count}
holdout = 4
""")
    out = tmp_path / "out"
    assert cli.run_experiment(cfg, out=str(out)) == 2
    err = capsys.readouterr().err
    assert f"[dataset] count = {count}" in err and "at least 3 points" in err
    assert not out.exists()


def test_array_beyond_the_address_space_exit_2(tmp_path, capsys):
    # numpy refuses 2^62 x 2 float64 values before it allocates anything
    cfg = _tiny_config(tmp_path, "sample", "dataset", "count", str(2 ** 62))
    out = tmp_path / "out"
    assert cli.run_experiment(cfg, task="sample", out=str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: the run does not fit in memory")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_memory_error_exit_2_with_rollback(tmp_path, capsys, monkeypatch):
    # the failure comes after the checkpoint and loss trace are written
    def sample(*args):
        raise MemoryError("Unable to allocate 1.00 TiB")

    monkeypatch.setattr(cli.flowchain, "sample", sample)
    cfg = _tiny_config(tmp_path, "train-jko", "train", "iterations", "1")
    out = tmp_path / "out"
    assert cli.run_experiment(cfg, task="train-jko", out=str(out)) == 2
    assert capsys.readouterr().err == ("config error: the run does not fit in memory: "
                                       "Unable to allocate 1.00 TiB\n")
    assert not out.exists()


def test_memory_error_without_message_names_its_class(tmp_path, capsys, monkeypatch):
    def sample(*args):
        raise MemoryError()

    monkeypatch.setattr(cli.flowchain, "sample", sample)
    cfg = _tiny_config(tmp_path, "sample", "dataset", "count", "4")
    out = tmp_path / "out"
    assert cli.run_experiment(cfg, task="sample", out=str(out)) == 2
    assert capsys.readouterr().err == ("config error: the run does not fit in memory: "
                                       "MemoryError\n")
    assert not out.exists()


def test_other_value_errors_are_not_taken_for_memory(tmp_path, monkeypatch):
    def sample(*args):
        raise ValueError("a defect")

    monkeypatch.setattr(cli.flowchain, "sample", sample)
    cfg = _tiny_config(tmp_path, "sample", "dataset", "count", "4")
    with pytest.raises(ValueError, match="a defect"):
        cli.run_experiment(cfg, task="sample", out=str(tmp_path / "out"))


def test_rollback_keeps_directories_it_did_not_make(tmp_path):
    out = tmp_path / "a" / "b"
    writer = cli.ArtifactWriter(str(out))
    (tmp_path / "keep.txt").write_text("")
    with open(writer.path("x.csv"), "w") as fh:
        fh.write("1\n")
    writer.rollback()
    assert not (tmp_path / "a").exists()
    assert (tmp_path / "keep.txt").exists()


_DRAWN = ("0", "1", "-1", "nan", "inf", "-inf", "", "x", "1,")
_NON_ASCII = st.text(st.characters(min_codepoint=128, max_codepoint=0xD7FF),
                     min_size=1, max_size=6)


@pytest.mark.parametrize("section, key", [(section, key) for section, keys
                                          in cli.CONFIG_TABLE.items() for key in keys])
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_parse_config_returns_or_raises_config_error(tmp_path, section, key, data):
    default = cli.CONFIG_TABLE[section][key][0]
    value = data.draw(st.sampled_from((default,) + _DRAWN) | _NON_ASCII)
    path = tmp_path / "one.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
    try:
        raw, _ = cli.parse_config(str(path))
    except cli.ConfigError:
        return
    assert raw[section][key] == value.strip()


def test_main_negative_seed_override_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "eval.ini", EVAL_INI)
    out = tmp_path / "o"
    assert cli.main(["eval", "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
    assert "config error: [experiment] seed" in capsys.readouterr().err
    assert not out.exists()


def test_main_non_utf8_config_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes(EVAL_INI.replace("3\n", "3 # caf\u00e9\n").encode("latin-1"))
    out = tmp_path / "o"
    assert cli.main(["eval", "--config", str(path), "--out", str(out)]) == 2
    assert "config error: cannot parse" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_exit_2(tmp_path):
    assert cli.run_experiment(str(tmp_path / "missing.ini"), task="eval") == 2


def test_unknown_task_exit_2(tmp_path):
    cfg = _write(tmp_path, "eval.ini", EVAL_INI)
    assert cli.run_experiment(cfg, task="fly", out=str(tmp_path / "o")) == 2


def test_sample_task_identity_checkpoint(tmp_path):
    # base-density samples come out when the chain is the identity
    chn = fc.identity_chain(2, 1, steps=2, widths=(4,))
    ckpt = tmp_path / "id.wflw"
    fc.save_checkpoint(chn, ckpt)
    cfg = _write(tmp_path, "sample.ini", f"""
[experiment]
task = sample
seed = 9
[dataset]
count = 300
[model]
checkpoint = {ckpt}
""")
    out = tmp_path / "out"
    assert cli.run_experiment(cfg, out=str(out)) == 0
    ens = ds.load_particles_csv(out / "samples.csv")
    assert ens.positions.shape == (300, 2)
    want = ds.standard_gaussian(2).sample(300, np.random.default_rng([9, 1]))
    assert np.allclose(ens.positions, want)


def test_corrupt_checkpoint_exit_3(tmp_path, capsys):
    ckpt = tmp_path / "bad.wflw"
    ckpt.write_bytes(b"WFLW" + b"\x00" * 40)
    cfg = _write(tmp_path, "sample.ini", f"""
[experiment]
task = sample
[model]
checkpoint = {ckpt}
""")
    out = tmp_path / "out"
    assert cli.run_experiment(cfg, out=str(out)) == 3
    # partial outputs are removed on failure
    assert not (out / "report.json").exists()
    assert not (out / "samples.csv").exists()


def test_zero_dimensional_checkpoint_exit_3(tmp_path, capsys):
    ckpt = tmp_path / "d0.wflw"
    write_zero_dim_checkpoint(ckpt)
    cfg = _write(tmp_path, "sample.ini", f"""
[experiment]
task = sample
[dataset]
count = 5
[model]
checkpoint = {ckpt}
""")
    out = tmp_path / "out"
    assert cli.run_experiment(cfg, out=str(out)) == 3
    assert capsys.readouterr().err == ("numeric failure: invalid checkpoint contents: "
                                       "dimension must be positive, got 0\n")
    assert not out.exists()


def test_train_jko_artifacts(tmp_path):
    cfg = _write(tmp_path, "jko.ini", """
[experiment]
task = train-jko
seed = 5
[dataset]
source = standard-gaussian
shift = 2,0
count = 384
holdout = 128
[model]
blocks = 2
width = 12
depth = 1
steps_per_block = 4
[train]
learn_rate = 0.02
batch_size = 96
iterations = 40
[metrics]
names = nll, kl_moment
""")
    out = tmp_path / "out"
    assert cli.run_experiment(cfg, out=str(out)) == 0
    for name in ("chain.wflw", "loss.csv", "timing.csv", "samples.csv",
                 "samples.svg", "trajectories.svg", "report.json"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    kls = [b["kl_moment"] for b in report["blocks"]]
    assert kls[-1] < 2.0  # started at |mu|^2/2 = 2
    # loss.csv rows match the configured iteration count across both blocks
    lines = (out / "loss.csv").read_text().strip().splitlines()
    assert lines[0] == "iteration,loss"
    assert len(lines) - 1 == 2 * 40
    for name in ("loss.csv", "timing.csv"):
        rows = (out / name).read_text().strip().splitlines()[1:]
        assert all(np.isfinite(float(row.split(",")[1])) for row in rows), name
    loaded = fc.load_checkpoint(out / "chain.wflw")
    assert len(loaded.blocks) == 2


def test_train_fm_multi_block_config_error(tmp_path):
    cfg = _write(tmp_path, "fm.ini", """
[experiment]
task = train-fm
[dataset]
count = 64
holdout = 32
[model]
blocks = 2
width = 8
depth = 1
steps_per_block = 2
[train]
iterations = 1
""")
    assert cli.run_experiment(cfg, out=str(tmp_path / "o")) == 2


def test_main_entry_point(tmp_path):
    cfg = _write(tmp_path, "eval.ini", EVAL_INI)
    code = cli.main(["eval", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "1"])
    assert code == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["seed"] == 1


def test_dre_csv_schema(tmp_path):
    cfg = _write(tmp_path, "dre.ini", """
[experiment]
task = dre
seed = 2
[dataset]
source = fig10-p
target = fig10-q
count = 600
[dre]
bridges = 2
grid = 6
classifier_iterations = 30
""")
    out = tmp_path / "out"
    assert cli.run_experiment(cfg, out=str(out)) == 0
    lines = (out / "dre.csv").read_text().strip().splitlines()
    assert lines[0] == "x0,x1,analytic,direct,telescopic"
    row = lines[1].split(",")
    assert len(row) == 5
    float(row[2])  # analytic column populated for analytic presets
    report = json.loads((out / "report.json").read_text())
    assert report["bridge_kind"] == "ou"
    assert "mse_direct" in report and "mse_telescopic" in report


def test_train_cnf_task(tmp_path):
    cfg = _write(tmp_path, "cnf.ini", """
[experiment]
task = train-cnf
seed = 2
[dataset]
dim = 1
count = 256
holdout = 96
[model]
blocks = 2
width = 8
depth = 1
steps_per_block = 4
t_total = 2.0
[train]
learn_rate = 0.02
batch_size = 64
iterations = 25
[metrics]
names = nll
""")
    out = tmp_path / "out"
    assert cli.run_experiment(cfg, out=str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metrics"][0]["name"] == "nll"
    assert report["metrics"][0]["config"]["holdout_disjoint_from_training"] is True


@pytest.mark.parametrize("depth", [2, 3])
def test_train_cnf_exact_nll_at_d10(tmp_path, depth):
    # d = 10 takes the exact trace, as every d does: in closed form at depth
    # 2, through the d basis tangents at depth 3, in the loss and in nll
    cfg = _write(tmp_path, "cnf10.ini", f"""
[experiment]
task = train-cnf
seed = 1
[dataset]
dim = 10
count = 64
holdout = 32
[model]
blocks = 1
width = 8
depth = {depth}
steps_per_block = 2
[train]
batch_size = 16
iterations = 3
[metrics]
names = nll
""")
    reports = []
    for run in ("a", "b"):
        assert cli.run_experiment(cfg, out=str(tmp_path / run)) == 0
        reports.append((tmp_path / run / "report.json").read_bytes())
    assert reports[0] == reports[1]
    nll = json.loads(reports[0])["metrics"][0]
    assert nll["name"] == "nll"
    # the same holdout the CLI drew, through the saved checkpoint
    _, _, _, holdout = cli._dataset_pools(cli.parse_config(cfg)[1], 1)
    chn = fc.load_checkpoint(str(tmp_path / "a" / "chain.wflw"))
    assert nll["value"] == metrics.nll_eval(chn, holdout)


_DRE_GRID_INI = """
[experiment]
task = dre
[dataset]
dim = {dim}
count = 64
[dre]
grid = {grid}
"""


def test_dre_grid_over_the_cap_exit_2_with_no_output(tmp_path, capsys):
    # 24^10 points would be built whole before any is dropped
    cfg = _write(tmp_path, "dre.ini", _DRE_GRID_INI.format(dim=10, grid=24))
    out = tmp_path / "out"
    assert cli.run_experiment(cfg, out=str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "[dre] grid = 24" in err and "[dataset] dim = 10" in err


@pytest.mark.parametrize("dim, grid, capped", [
    (2, 256, False), (2, 257, True), (16, 2, False), (17, 2, True), (400, 1, False),
])
def test_dre_grid_cap_is_checked_before_any_allocation(tmp_path, capsys, monkeypatch, dim, grid,
                                                       capped):
    def pools(*args):
        raise cli.ConfigError("pools reached")

    monkeypatch.setattr(cli, "_dataset_pools", pools)
    cfg = _write(tmp_path, "dre.ini", _DRE_GRID_INI.format(dim=dim, grid=grid))
    assert cli.run_experiment(cfg, out=str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert ("support grid points" in err) == capped and ("pools reached" in err) != capped


def test_train_lfm_task(tmp_path):
    cfg = _write(tmp_path, "lfm.ini", """
[experiment]
task = train-lfm
seed = 4
[dataset]
source = fig10-p
count = 256
holdout = 64
[model]
blocks = 2
width = 8
depth = 1
steps_per_block = 3
[train]
learn_rate = 0.02
batch_size = 64
iterations = 20
gamma = 0.25
""")
    out = tmp_path / "out"
    assert cli.run_experiment(cfg, out=str(out)) == 0
    assert (out / "chain.wflw").exists()
    report = json.loads((out / "report.json").read_text())
    assert len(report["blocks"]) == 2


def test_train_lfm_reads_time_draws(tmp_path):
    losses = []
    for draws in ("1", "2"):
        cfg = _tiny_config(tmp_path, "train-lfm", "train", "time_draws", draws)
        out = tmp_path / f"draws{draws}"
        assert cli.run_experiment(cfg, task="train-lfm", out=str(out)) == 0
        losses.append((out / "loss.csv").read_bytes())
    assert losses[0] != losses[1]


@pytest.mark.parametrize("task", ["train-jko", "train-lfm"])
def test_kl_moment_same_with_or_without_nll(tmp_path, task):
    # alone, kl_moment pushes the holdout through forward_map; beside nll it
    # takes the end state of nll's push_log_density pass
    found = []
    for names in ("kl_moment", "nll, kl_moment"):
        cfg = _tiny_config(tmp_path, f"{task}+{names}", "experiment", "seed", "3")
        out = tmp_path / names.replace(", ", "_")
        assert cli.run_experiment(cfg, task=task, out=str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        found.append([m for m in report["metrics"] if m["name"] == "kl_moment"])
    assert len(found[0]) == 1 and found[0] == found[1]


def test_dre_flow_bridges(tmp_path):
    # intermediates from a trained transport checkpoint instead of OU pulls
    chn = fc.identity_chain(2, 2, steps=4, widths=(6,), seed=1)
    rng = np.random.default_rng(0)
    for block in chn.blocks:
        for layer in block.field.layers:
            layer.w += 0.2 * rng.normal(size=layer.w.shape)
    ckpt = tmp_path / "t.wflw"
    fc.save_checkpoint(chn, ckpt)
    cfg = _write(tmp_path, "dre.ini", f"""
[experiment]
task = dre
seed = 1
[dataset]
source = fig10-p
target = fig10-q
count = 400
[model]
checkpoint = {ckpt}
[dre]
bridges = 3
bridge_kind = flow
grid = 5
classifier_iterations = 20
""")
    out = tmp_path / "out"
    assert cli.run_experiment(cfg, out=str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["bridge_kind"] == "flow"


def test_dre_flow_checkpoint_of_another_dimension_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.tp, "fit_logistic_ratio", lambda *a: pytest.fail("training started"))
    ckpt = tmp_path / "d3.wflw"
    fc.save_checkpoint(fc.identity_chain(3, 1, steps=2, widths=(4,)), ckpt)
    cfg = _write(tmp_path, "dre.ini", f"""
[dataset]
count = 64
[model]
checkpoint = {ckpt}
[dre]
bridges = 2
bridge_kind = flow
classifier_iterations = 5
grid = 4
""")
    out = tmp_path / "out"
    assert cli.run_experiment(cfg, task="dre", out=str(out)) == 2
    assert "[model] checkpoint is 3-D but the dataset is 2-D" in capsys.readouterr().err
    assert not out.exists()


# every task against every preset, as target and as source, at tiny sizes
_GRID_INI = """
[experiment]
seed = 3
[dataset]
{role} = {preset}
count = 16
holdout = 8
[model]
width = 2
depth = 1
steps_per_block = 1
[train]
batch_size = 8
iterations = 1
[dre]
bridges = 2
grid = 4
classifier_iterations = 1
[metrics]
names = {names}
"""
_GRID_TASKS = ("train-cnf", "train-jko", "train-fm", "train-lfm", "ot", "dre", "dro", "eval",
               "sample")


@pytest.mark.parametrize("preset", ds.PRESETS)
@pytest.mark.parametrize("role", ["target", "source"])
@pytest.mark.parametrize("task", _GRID_TASKS)
def test_task_preset_grid_exits_0_2_or_3(tmp_path, task, role, preset):
    names = ("kl_mc, gauss_fid, mmd, w2" if task == "eval"
             else "nll, kl_moment, gauss_fid, mmd, w2" if task.startswith("train") else "")
    cfg = _write(tmp_path, "grid.ini", _GRID_INI.format(role=role, preset=preset, names=names))
    out = tmp_path / "out"
    code = cli.main([task, "--config", cfg, "--out", str(out)])
    assert code in (0, 2, 3)
    assert code == 0 or not out.exists()


def test_dre_flow_bridges_need_checkpoint(tmp_path):
    cfg = _write(tmp_path, "dre.ini", """
[experiment]
task = dre
[dataset]
source = fig10-p
target = fig10-q
count = 128
[dre]
bridges = 2
bridge_kind = flow
classifier_iterations = 5
grid = 4
""")
    assert cli.run_experiment(cfg, out=str(tmp_path / "o")) == 2


@pytest.mark.parametrize("role", ["source", "target"])
def test_dre_checkerboard_exits_2_before_any_classifier(tmp_path, monkeypatch, capsys, role):
    # the checkerboard's density is zero off its cells, so the analytic
    # log-ratio against a Gaussian is infinite on part of the grid: the
    # config alone decides that, before anything is trained
    fitted = []
    monkeypatch.setattr(cli.tp, "fit_logistic_ratio", lambda *args: fitted.append(args))
    monkeypatch.setattr(cli.tp, "telescopic_log_ratio", lambda *args: fitted.append(args))
    cfg = _write(tmp_path, "dre.ini", f"""
[experiment]
task = dre
[dataset]
{role} = checkerboard
count = 64
[dre]
grid = 8
classifier_iterations = 5
""")
    out = tmp_path / "o"
    assert cli.run_experiment(cfg, out=str(out)) == 2
    assert "analytic log-ratio is infinite" in capsys.readouterr().err
    assert fitted == []
    assert not out.exists()
