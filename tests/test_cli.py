"""End-to-end tests of the command line front end, driven through main()."""

import functools
import json
import subprocess
import sys

import numpy as np
import pytest

from ctmcinfer import cli, truncation_study
from ctmcinfer.cli import argv_from_manifest, main
from ctmcinfer.datasets import Dataset, read_dataset, write_dataset
from ctmcinfer.sampler import Trace, read_trace, write_trace
from ctmcinfer.tuning import tuned_config_from_text

QUEUE_FLAGS = ["--model", "mmc", "--c", "1", "--upper-bounds", "3"]


def _simulate(tmp_path, name="data.csv", seed=3):
    out = tmp_path / name
    rc = main(["simulate", *QUEUE_FLAGS, "--theta", "0.8,0.6", "--x0", "0",
               "--tend", "2.0", "--dt", "0.5", "--seed", str(seed),
               "--out", str(out)])
    assert rc == 0
    return out


def test_simulate_writes_dataset_and_manifest(tmp_path, capsys):
    out = _simulate(tmp_path)
    ds = read_dataset(out)
    assert ds.model == "mmc"
    assert np.allclose(ds.times, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert ds.states.shape == (5, 1)
    assert np.all(ds.states >= 0) and np.all(ds.states <= 3)

    manifest = json.loads(out.with_suffix(".manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["config"]["seed"] == 3
    assert manifest["config"]["theta"] == "0.8,0.6"
    assert set(manifest["versions"]) == {"ctmcinfer", "python", "numpy",
                                         "scipy"}
    assert "wrote 5 rows" in capsys.readouterr().out


def test_simulate_explicit_times(tmp_path):
    out = tmp_path / "d.csv"
    rc = main(["simulate", "--model", "mmc", "--theta", "1.0,2.0",
               "--x0", "1", "--times", "0,0.3,0.9", "--out", str(out)])
    assert rc == 0
    assert list(read_dataset(out).times) == [0.0, 0.3, 0.9]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "truncstudy" in capsys.readouterr().out


def test_unknown_flag_exits_2():
    assert main(["simulate", "--nonsense", "1"]) == 2


def test_missing_required_flag_is_usage_error(tmp_path, capsys):
    rc = main(["simulate", *QUEUE_FLAGS, "--x0", "0", "--tend", "1.0",
               "--dt", "0.5", "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    assert "--theta is required" in capsys.readouterr().err


def test_config_file_values_with_flag_override(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "# queue example\n"
        "model = mmc\n"
        "c = 1\n"
        "upper_bounds = 3\n"
        "theta = 0.8,0.6\n"
        "x0 = 0\n"
        "tend = 2.0\n"
        "dt = 0.5\n"
        "seed = 1\n"
    )
    out = tmp_path / "d.csv"
    rc = main(["simulate", "--config", str(cfg), "--seed", "9",
               "--out", str(out)])
    assert rc == 0
    manifest = json.loads(out.with_suffix(".manifest.json").read_text())
    assert manifest["config"]["seed"] == 9       # flag beats file
    assert manifest["config"]["tend"] == "2.0"   # file beats default
    assert manifest["config"]["provided"] == "out,seed"

    reference = _simulate(tmp_path, name="ref.csv", seed=9)
    assert (read_dataset(out).states.tolist()
            == read_dataset(reference).states.tolist())


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model = mmc\nbogus = 1\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "bogus" in capsys.readouterr().err


def test_malformed_config_line_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "malformed config line" in capsys.readouterr().err


def test_missing_data_file_exits_1(tmp_path):
    rc = main(["sample", *QUEUE_FLAGS, "--data", str(tmp_path / "absent.csv"),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1


def test_out_of_range_observation_exits_1(tmp_path, capsys):
    ds = Dataset(times=np.array([0.0, 0.5]), states=np.array([[0], [9]]))
    path = tmp_path / "far.csv"
    write_dataset(ds, path)
    rc = main(["sample", *QUEUE_FLAGS, "--data", str(path),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_dataset_from_another_model_exits_2(tmp_path, capsys):
    data = _simulate(tmp_path)
    for command in ("tune", "sample", "truncstudy"):
        rc = main([command, "--model", "schloegl_bd", "--data", str(data)])
        assert rc == 2
        assert "from model 'mmc'" in capsys.readouterr().err


def test_global_uniformization_requires_qbar(tmp_path, capsys):
    data = _simulate(tmp_path)
    rc = main(["sample", *QUEUE_FLAGS, "--data", str(data),
               "--method", "uniformization_global",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "qbar" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["tune", "sample"])
@pytest.mark.parametrize("flag", ["--mode", "--method"])
def test_unknown_mode_or_method_exits_2(tmp_path, capsys, command, flag):
    data = _simulate(tmp_path)
    tune_only = ["--theta-init", "0.8,0.6", "--no-map"] if command == "tune" else []
    rc = main([command, *QUEUE_FLAGS, "--data", str(data), *tune_only,
               flag, "bogus", "--out", str(tmp_path / "out.txt")])
    assert rc == 2
    assert "usage error: unknown" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--n", "--chains"])
def test_sample_rejects_empty_runs_before_writing(tmp_path, capsys, flag):
    data = _simulate(tmp_path)
    before = set(tmp_path.iterdir())
    rc = main(["sample", *QUEUE_FLAGS, "--data", str(data), flag, "0",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "at least 1" in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("n, burnin", [(20, "1.0"), (20, "-0.1"), (20, "0.85"),
                                      (3, "0.0")])
def test_sample_rejects_burnin_leaving_too_few_draws(tmp_path, capsys, n, burnin):
    data = _simulate(tmp_path)
    before = set(tmp_path.iterdir())
    rc = main(["sample", *QUEUE_FLAGS, "--data", str(data), "--n", str(n),
               "--burnin", burnin, "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "usage error: --burnin" in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == before


def test_sample_accepts_burnin_leaving_four_draws(tmp_path, capsys):
    data = _simulate(tmp_path)
    rc = main(["sample", *QUEUE_FLAGS, "--data", str(data), "--n", "20",
               "--burnin", "0.8", "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    assert "chain 1:" in capsys.readouterr().out


def test_bench_writes_rows(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--class", "dense,gtr", "--dim", "6", "--t", "0.5",
               "--eps", "1e-4", "--reps", "1", "--seed", "1",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert {"class", "dim", "method", "requested_eps", "s", "realized_error",
            "computable_error", "matmul_flops"} <= set(lines[0].split(","))
    assert len(lines) == 1 + 2 * 2  # two classes, two methods
    assert out.with_suffix(".manifest.json").exists()


@pytest.mark.parametrize("flag, value, named", [
    ("--class", "wat", "unknown matrix classes: ['wat']"),
    ("--methods", "skeletoid,foo", "unknown methods: ['foo']"),
], ids=["class", "methods"])
def test_bench_unknown_class_exits_2(tmp_path, capsys, flag, value, named):
    rc = main(["bench", flag, value, "--out", str(tmp_path / "b.csv")])
    assert rc == 2
    assert named in capsys.readouterr().err


def test_truncstudy_writes_rows(tmp_path):
    data = _simulate(tmp_path)
    out = tmp_path / "trunc.csv"
    rc = main(["truncstudy", *QUEUE_FLAGS, "--data", str(data),
               "--theta", "0.8,0.6", "--r-stop", "5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",") == ["obs_index", "r", "states", "value",
                                   "error"]
    assert len(lines) > 1


def test_truncstudy_unconverged_exits_1(tmp_path, monkeypatch, capsys):
    data = _simulate(tmp_path)
    monkeypatch.setattr(cli, "truncation_study",
                        functools.partial(truncation_study, r_cap=0))
    out = tmp_path / "trunc.csv"
    rc = main(["truncstudy", *QUEUE_FLAGS, "--data", str(data),
               "--theta", "0.8,0.6", "--out", str(out)])
    assert rc == 1
    assert "r_cap=0" in capsys.readouterr().err
    assert not out.exists()


def test_sample_diag_round_trip(tmp_path, capsys):
    data = _simulate(tmp_path)
    trace_path = tmp_path / "trace.csv"
    rc = main(["sample", *QUEUE_FLAGS, "--data", str(data), "--mode", "ra",
               "--n", "60", "--seed", "5", "--theta-init", "0.5,0.5",
               "--proposal-scale", "0.4", "--out", str(trace_path)])
    assert rc == 0
    trace = read_trace(trace_path)
    assert trace.n_iterations == 60
    assert 0.0 <= trace.acceptance_rate <= 1.0
    assert "chain 1:" in capsys.readouterr().out

    rc = main(["diag", "--trace", str(trace_path), "--burnin", "0.5",
               "--out", str(tmp_path / "summary.csv")])
    assert rc == 0
    lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert "acceptance_rate" in lines[0]


def _write_short_trace(path, n):
    write_trace(Trace(thetas=np.linspace(0.5, 1.5, 2 * n).reshape(n, 2),
                      log_estimates=np.zeros(n), accepted=np.ones(n, dtype=bool),
                      cum_gflops=np.zeros(n)), path)
    return path


@pytest.mark.parametrize("burnin", ["-0.5", "1.0"])
def test_diag_rejects_burnin_outside_unit_interval_before_reading(tmp_path, capsys,
                                                                  burnin):
    missing = tmp_path / "no_such_trace.csv"
    rc = main(["diag", "--trace", str(missing), "--burnin", burnin])
    assert rc == 2
    assert "usage error: --burnin" in capsys.readouterr().err


def test_diag_rejects_burnin_leaving_too_few_draws(tmp_path, capsys):
    long_ = _write_short_trace(tmp_path / "long.csv", 40)
    short = _write_short_trace(tmp_path / "short.csv", 20)
    out = tmp_path / "summary.csv"
    rc = main(["diag", "--trace", f"{long_},{short}", "--burnin", "0.85",
               "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "usage error: --burnin 0.85 leaves fewer than 4 of 20" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_diag_accepts_burnin_leaving_four_draws(tmp_path, capsys):
    path = _write_short_trace(tmp_path / "t.csv", 20)
    assert main(["diag", "--trace", str(path), "--burnin", "0.8"]) == 0
    assert "n=20" in capsys.readouterr().out


def test_multichain_files_and_diag(tmp_path):
    data = _simulate(tmp_path)
    out = tmp_path / "tr.csv"
    rc = main(["sample", *QUEUE_FLAGS, "--data", str(data), "--mode", "ra",
               "--n", "40", "--chains", "2", "--seed", "11",
               "--theta-init", "0.7,0.7", "--proposal-scale", "0.4",
               "--out", str(out)])
    assert rc == 0
    p1 = tmp_path / "tr_chain1.csv"
    p2 = tmp_path / "tr_chain2.csv"
    assert p1.exists() and p2.exists()
    assert out.with_suffix(".manifest.json").exists()
    assert not np.array_equal(read_trace(p1).thetas, read_trace(p2).thetas)
    assert main(["diag", "--trace", f"{p1},{p2}"]) == 0


def test_manifest_replay_is_bit_identical(tmp_path):
    data = _simulate(tmp_path)
    first = tmp_path / "first.csv"
    rc = main(["sample", *QUEUE_FLAGS, "--data", str(data), "--mode", "ia",
               "--n", "50", "--seed", "7", "--theta-init", "0.6,0.9",
               "--proposal-scale", "0.35", "--out", str(first)])
    assert rc == 0
    manifest = json.loads(first.with_suffix(".manifest.json").read_text())

    second = tmp_path / "second.csv"
    replay = argv_from_manifest(manifest, out=str(second))
    assert replay[0] == "sample"
    assert "--provided" in replay
    assert main(replay) == 0

    a, b = read_trace(first), read_trace(second)
    assert np.array_equal(a.thetas, b.thetas)
    assert np.array_equal(a.log_estimates, b.log_estimates)
    assert np.array_equal(a.accepted, b.accepted)


def test_tune_quick_path_then_tuned_sampling(tmp_path, capsys):
    data = _simulate(tmp_path)
    tuned_path = tmp_path / "tuned.cfg"
    rc = main(["tune", *QUEUE_FLAGS, "--data", str(data),
               "--theta-init", "0.8,0.6", "--no-map", "--mode", "ra",
               "--n-draws", "8", "--seed", "2", "--out", str(tuned_path)])
    assert rc == 0
    tuned = tuned_config_from_text(tuned_path.read_text())
    assert tuned.mode == "ra"
    assert tuned.method == "skeletoid"
    assert tuned.sigma_zeta is not None and tuned.sigma_zeta >= 0.0
    assert "tuned ra/skeletoid" in capsys.readouterr().out

    trace_path = tmp_path / "tuned_trace.csv"
    rc = main(["sample", *QUEUE_FLAGS, "--data", str(data),
               "--tuned-config", str(tuned_path), "--n", "40", "--seed", "4",
               "--theta-init", "0.8,0.6", "--out", str(trace_path)])
    assert rc == 0
    assert read_trace(trace_path).n_iterations == 40


@pytest.mark.parametrize("tuned_mode, flag_mode", [("ia", "ra"), ("ra", "ia")])
def test_sample_mode_contradicting_the_tuned_config_exits_2(
        tmp_path, capsys, tuned_mode, flag_mode):
    data = _simulate(tmp_path)
    tuned_path = tmp_path / "tuned.cfg"
    rc = main(["tune", *QUEUE_FLAGS, "--data", str(data),
               "--theta-init", "0.8,0.6", "--no-map", "--mode", tuned_mode,
               "--n-draws", "4", "--out", str(tuned_path)])
    assert rc == 0
    capsys.readouterr()

    before = set(tmp_path.iterdir())
    rc = main(["sample", *QUEUE_FLAGS, "--data", str(data),
               "--tuned-config", str(tuned_path), "--mode", flag_mode,
               "--n", "20", "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"--mode {flag_mode}" in err and f"mode {tuned_mode}" in err
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("n_draws", ["0", "1"])
def test_tune_rejects_fewer_than_two_draws(tmp_path, capsys, monkeypatch, n_draws):
    def no_map(*args, **kwargs):
        raise AssertionError("MAP ran before the draw count was checked")

    monkeypatch.setattr(cli, "map_estimate", no_map)
    data = _simulate(tmp_path)
    out = tmp_path / "tuned.cfg"
    rc = main(["tune", *QUEUE_FLAGS, "--data", str(data),
               "--theta-init", "0.8,0.6", "--n-draws", n_draws,
               "--out", str(out)])
    assert rc == 2
    assert "usage error: --n-draws" in capsys.readouterr().err
    assert not out.exists()


def test_tuned_config_from_another_dataset_exits_1(tmp_path, capsys):
    short = tmp_path / "short.csv"
    assert main(["simulate", *QUEUE_FLAGS, "--theta", "0.8,0.6", "--x0", "0",
                 "--tend", "1.0", "--dt", "0.5", "--out", str(short)]) == 0
    tuned_path = tmp_path / "tuned.cfg"
    rc = main(["tune", *QUEUE_FLAGS, "--data", str(short),
               "--theta-init", "0.8,0.6", "--no-map", "--mode", "ia",
               "--n-draws", "8", "--out", str(tuned_path)])
    assert rc == 0
    capsys.readouterr()

    rc = main(["sample", *QUEUE_FLAGS, "--data", str(_simulate(tmp_path)),
               "--tuned-config", str(tuned_path), "--n", "5",
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: config.sequences holds 2 entries" in err
    assert "dataset of 4 transitions" in err


def test_tuned_config_with_a_negative_level_exits_1(tmp_path, capsys):
    data = _simulate(tmp_path)
    tuned_path = tmp_path / "tuned.cfg"
    tuned_path.write_text("mode = ra\nmethod = skeletoid\np_min = 0.9\n"
                          "trunc_offset = -1\nacc_offset = 4.0\nslope = 0.1\n"
                          "law_p = 0.5\n")
    before = set(tmp_path.iterdir())
    rc = main(["sample", *QUEUE_FLAGS, "--data", str(data), "--tuned-config",
               str(tuned_path), "--n", "5", "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "trunc_offset=-1, acc_offset=4.0, slope=0.1) needs trunc_offset >= 0" \
        in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("text, named", [
    ("mode = ra\nmethod = skeletoid\n", "lacks trunc_offset, acc_offset, slope, law_p"),
    ("mode = ia\nmethod = skeletoid\n", "lacks obs0.trunc_offset"),
    ("mode = ra\ntrunc_offset = 1\nacc_offset = nan\nslope = 0.1\nlaw_p = 0.5\n",
     "acc_offset=nan, slope=0.1) needs"),
    ("mode = ra\np_min = abc\ntrunc_offset = 1\nacc_offset = 4.0\nslope = 0.1\n"
     "law_p = 0.5\n", "p_min = abc"),
    ("mode = ra\ntrunc_offset = 1.7\nacc_offset = 4.0\nslope = 0.1\nlaw_p = 0.5\n",
     "trunc_offset = 1.7: not a whole number"),
], ids=["ra_without_keys", "ia_without_obs0", "nan_acc_offset", "malformed_p_min",
        "fractional_trunc_offset"])
def test_tuned_config_without_usable_sequences_exits_1(tmp_path, capsys, text, named):
    data = _simulate(tmp_path)
    tuned_path = tmp_path / "tuned.cfg"
    tuned_path.write_text(text)
    before = set(tmp_path.iterdir())
    rc = main(["sample", *QUEUE_FLAGS, "--data", str(data), "--tuned-config",
               str(tuned_path), "--n", "5", "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert named in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("row, named", [("1.0,2.7", "observed state 2.7"),
                                        ("inf,1", "observation time inf")],
                         ids=["fractional_state", "infinite_time"])
def test_sample_on_malformed_data_exits_1(tmp_path, capsys, row, named):
    data = tmp_path / "bad.csv"
    data.write_text(f"t,species_1\n0.0,0\n{row}\n")
    out = tmp_path / "t.csv"
    rc = main(["sample", *QUEUE_FLAGS, "--data", str(data), "--n", "5",
               "--theta-init", "0.5,0.5", "--out", str(out)])
    assert rc == 1
    assert f"error: {named}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("key, value", [("seed", "abc"), ("c", "x"), ("theta", "1,y"),
                                        ("tend", "2.0.0")])
def test_a_malformed_number_is_a_usage_error_naming_its_option(
        tmp_path, capsys, source, key, value):
    out = tmp_path / "d.csv"
    settings = {"model": "mmc", "c": "1", "theta": "0.8,0.6", "x0": "0",
                "tend": "2.0", "dt": "0.5", "seed": "3", key: value}
    if source == "file":
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        argv = ["simulate", "--config", str(cfg), "--out", str(out)]
    else:
        argv = ["simulate", "--out", str(out)]
        for k, v in settings.items():
            argv += [f"--{k}", v]
    assert main(argv) == 2
    assert f"--{key}" in capsys.readouterr().err
    assert not out.exists()


def test_argv_from_manifest_formats_flags():
    manifest = {"command": "tune", "config": {
        "dim": "4,6", "grid": True, "no_map": False, "seed": 3,
        "out": None, "config": "ignored.cfg"}}
    argv = argv_from_manifest(manifest, seed=7)
    assert argv == ["tune", "--dim", "4,6", "--grid", "--seed", "7"]


def test_module_entry_point(package_env):
    res = subprocess.run([sys.executable, "-m", "ctmcinfer.cli", "--help"],
                         capture_output=True, text=True, env=package_env)
    assert res.returncode == 0
    assert "truncstudy" in res.stdout
