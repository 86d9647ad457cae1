import csv
import importlib.metadata as im
import json
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from deepkt import cli, datasets, models
from deepkt.cli import main
from deepkt.harness import GridSpec, TrainConfig


@pytest.fixture
def data_file(tmp_path):
    cfg = datasets.SyntheticConfig(num_students=24, num_questions=8,
                                   num_concepts=2, seed=1)
    ds, _ = datasets.generate_synthetic(cfg)
    path = tmp_path / "data.txt"
    datasets.save_sequences(ds, path)
    return str(path)


FAST = ["--epochs", "1", "--mem-slots", "2", "--state-dim", "4",
        "--seq-len", "8", "--batch-size", "8", "--cv-folds", "2",
        "--trials", "1"]


class TestGenSynthetic:
    def test_writes_sequences_and_ground_truth(self, tmp_path, capsys):
        out = tmp_path / "synth"
        code = main(["gen-synthetic", "--out", str(out), "--students", "6",
                     "--questions", "5", "--concepts", "2", "--seed", "3"])
        assert code == 0
        assert (out / "synthetic.txt").exists()
        assert (out / "questions.csv").exists()
        assert (out / "students.csv").exists()
        ds = datasets.load_sequences(out / "synthetic.txt")
        assert len(ds.sequences) == 6
        assert "wrote 6 sequences" in capsys.readouterr().out

    def test_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["gen-synthetic", "--out", str(out), "--students", "5",
                  "--questions", "4", "--concepts", "2", "--seed", "7"])
        assert (a / "synthetic.txt").read_bytes() == (b / "synthetic.txt").read_bytes()
        assert (a / "questions.csv").read_bytes() == (b / "questions.csv").read_bytes()

    def test_unset_flags_keep_config_defaults(self, tmp_path):
        out = tmp_path / "cli"
        assert main(["gen-synthetic", "--out", str(out), "--students", "6"]) == 0
        ds, gt = datasets.generate_synthetic(datasets.SyntheticConfig(num_students=6))
        want = tmp_path / "api"
        want.mkdir()
        datasets.save_sequences(ds, want / "synthetic.txt")
        datasets.write_ground_truth(gt, want)
        for name in ("synthetic.txt", "questions.csv", "students.csv"):
            assert (out / name).read_bytes() == (want / name).read_bytes()

    def test_invalid_guess_exits_1(self, tmp_path, capsys):
        code = main(["gen-synthetic", "--out", str(tmp_path / "x"),
                     "--guess", "2.0"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestTrain:
    def test_checkpoint_round_trip(self, tmp_path, data_file, capsys):
        ckpt = tmp_path / "model.json"
        code = main(["train", "--data", data_file, "--out", str(ckpt),
                     "--model", "deep_irt"] + FAST)
        assert code == 0
        assert "checkpoint written" in capsys.readouterr().out
        params = models.load_checkpoint(ckpt)
        assert params.arch.deep_irt
        assert params.arch.mem_slots == 2

    def test_missing_data_exits_1(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "m.json")] + FAST)
        assert code == 1

    def test_malformed_data_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1\n1,0\n")
        code = main(["train", "--data", str(bad),
                     "--out", str(tmp_path / "m.json")] + FAST)
        assert code == 1

    def test_config_file_with_flag_override(self, tmp_path, data_file):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": "dkvmn", "epochs": 1,
                                        "mem_slots": 2, "state_dim": 4,
                                        "seq_len": 8, "feature_dim": 4}))
        ckpt = tmp_path / "m.json"
        code = main(["train", "--config", str(cfg_path), "--data", data_file,
                     "--out", str(ckpt), "--mem-slots", "3"])
        assert code == 0
        assert models.load_checkpoint(ckpt).arch.mem_slots == 3

    def test_bad_config_json_exits_1(self, tmp_path, data_file):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        code = main(["train", "--config", str(cfg_path), "--data", data_file,
                     "--out", str(tmp_path / "m.json")])
        assert code == 1

    def test_unknown_config_key_exits_1(self, tmp_path, data_file, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epoch": 3, "lr": 0.1}))
        out = tmp_path / "m.json"
        code = main(["train", "--config", str(cfg_path), "--data", data_file,
                     "--out", str(out)])
        assert code == 1
        assert "unknown config keys: epoch" in capsys.readouterr().err
        assert not out.exists()


def _changed(value, times):
    """A valid setting of ``value``'s type other than ``value``; each
    ``times`` gives a different one."""
    if isinstance(value, str):
        return ("dkvmn", "dkt")[times - 1]
    if isinstance(value, float):
        return value / 2 ** times
    return value + times


class TestSettingFlags:
    @pytest.mark.parametrize("field", fields(TrainConfig), ids=lambda f: f.name)
    def test_each_train_config_field_has_a_flag_over_config(self, tmp_path,
                                                            field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({field.name: _changed(field.default, 1)}))
        value = _changed(field.default, 2)
        args = cli.build_parser().parse_args(
            ["train", "--config", str(cfg_path), "--data", "d.txt",
             "--out", "m.json", "--" + field.name.replace("_", "-"), str(value)])
        assert getattr(cli._load_config(args), field.name) == value

    def test_feature_dim_reaches_checkpoint(self, tmp_path, data_file):
        ckpt = tmp_path / "m.json"
        assert main(["train", "--data", data_file, "--out", str(ckpt),
                     "--model", "dkvmn", "--feature-dim", "3"] + FAST) == 0
        params = models.load_checkpoint(ckpt)
        assert params.arch.feature_dim == 3
        assert params.W_f.data.shape == (8, 3)

    def test_grid_flags(self):
        parse = cli.build_parser().parse_args
        base = ["experiment", "--data", "d.txt", "--report", "r.json"]
        assert cli._grid_from_args(parse(base)) is None
        assert cli._grid_from_args(parse(base + ["--state-dims", "4,8"])) == \
            GridSpec(state_dims=(4, 8))
        assert cli._grid_from_args(parse(base + ["--memory-sizes", "2"])) == \
            GridSpec(memory_sizes=(2,))

    def test_malformed_grid_list_is_usage_error(self, data_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["grid", "--data", data_file, "--state-dims", "4,x"])
        assert exc.value.code == 2
        assert "--state-dims" in capsys.readouterr().err

    def test_grid_one_point_prints_one_row_and_best(self, data_file, capsys):
        code = main(["grid", "--data", data_file, "--model", "deep_irt",
                     "--state-dims", "4", "--memory-sizes", "2"] + FAST)
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len([line for line in lines if "cv_loss=" in line]) == 1
        assert lines[0].startswith("{'state_dim': 4, 'mem_slots': 2}  cv_loss=")
        assert lines[-1] == "best: deep_irt {'state_dim': 4, 'mem_slots': 2}"


class TestExperimentAndBaseline:
    def test_experiment_report(self, tmp_path, data_file, capsys):
        report = tmp_path / "report.json"
        code = main(["experiment", "--data", data_file, "--report", str(report),
                     "--model", "deep_irt"] + FAST)
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["model"] == "deep_irt"
        assert "AUC" in capsys.readouterr().out

    def test_experiment_reports_byte_identical(self, tmp_path, data_file):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for r in (r1, r2):
            assert main(["experiment", "--data", data_file, "--report", str(r),
                         "--model", "dkvmn"] + FAST) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_experiment_with_grid(self, tmp_path, data_file):
        report = tmp_path / "report.json"
        code = main(["experiment", "--data", data_file, "--report", str(report),
                     "--model", "deep_irt", "--state-dims", "4",
                     "--memory-sizes", "2"] + FAST)
        assert code == 0
        doc = json.loads(report.read_text())
        assert len(doc["grid"]) == 1

    @pytest.mark.parametrize("name,resolved", [
        ("pfa", "pfa"), ("lfa", "lfa"), ("irt", "irt"),
        ("item", "item_analysis"),
    ])
    def test_baselines(self, tmp_path, data_file, name, resolved, capsys):
        report = tmp_path / "report.json"
        code = main(["baseline", "--model", name, "--data", data_file,
                     "--report", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["model"] == resolved
        assert 0.0 <= doc["mean"]["auc"] <= 1.0

    @pytest.mark.parametrize("name,resolved", [
        ("pfa", "pfa"), ("lfa", "lfa"), ("irt", "irt"),
        ("item", "item_analysis"),
    ])
    def test_baseline_is_experiment_on_a_baseline(self, tmp_path, data_file, name,
                                                  resolved, capsys):
        b, e = tmp_path / "baseline.json", tmp_path / "experiment.json"
        assert main(["baseline", "--model", name, "--data", data_file,
                     "--report", str(b), "--trials", "2"]) == 0
        baseline_out = capsys.readouterr().out
        assert main(["experiment", "--model", resolved, "--data", data_file,
                     "--report", str(e), "--trials", "2"]) == 0
        assert b.read_bytes() == e.read_bytes()
        assert baseline_out.replace(str(b), str(e)) == capsys.readouterr().out

    def test_grid_command_prints_table(self, data_file, capsys):
        code = main(["grid", "--data", data_file, "--model", "deep_irt",
                     "--state-dims", "4", "--memory-sizes", "2"] + FAST)
        assert code == 0
        out = capsys.readouterr().out
        assert "cv_loss=" in out and "best:" in out


class TestExports:
    @pytest.fixture
    def ckpt(self, tmp_path, data_file):
        path = tmp_path / "model.json"
        assert main(["train", "--data", data_file, "--out", str(path),
                     "--model", "deep_irt"] + FAST) == 0
        return str(path)

    def test_export_difficulty_csv(self, tmp_path, ckpt, capsys):
        out = tmp_path / "diff.csv"
        code = main(["export-difficulty", "--ckpt", ckpt, "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert all(r["source"] == "deep_irt_beta" for r in rows)
        assert all(-1 < float(r["difficulty"]) < 1 for r in rows)

    def test_export_difficulty_join_prints_pearson(self, tmp_path, ckpt, capsys):
        own = tmp_path / "own.csv"
        assert main(["export-difficulty", "--ckpt", ckpt, "--out", str(own)]) == 0
        # joining a source against itself under another name gives r = 1
        other = tmp_path / "other.csv"
        text = own.read_text().replace("deep_irt_beta", "item_analysis")
        other.write_text(text)
        out = tmp_path / "joined.csv"
        code = main(["export-difficulty", "--ckpt", ckpt, "--out", str(out),
                     "--join", str(other)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "pearson(deep_irt_beta, item_analysis) = 1.0000" in printed

    def test_export_trajectory(self, tmp_path, ckpt, data_file, capsys):
        out = tmp_path / "traj.csv"
        code = main(["export-trajectory", "--ckpt", ckpt, "--data", data_file,
                     "--student", "0", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        ds = datasets.load_sequences(data_file)
        assert len(rows) == len(ds.sequences[0].steps)
        assert [r["t"] for r in rows] == [str(i + 1) for i in range(len(rows))]
        for r in rows:
            assert 0.0 < float(r["p"]) < 1.0
            assert -1.0 < float(r["theta"]) < 1.0

    def test_export_trajectory_unknown_student(self, tmp_path, ckpt, data_file,
                                               capsys):
        code = main(["export-trajectory", "--ckpt", ckpt, "--data", data_file,
                     "--student", "zzz", "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("part,key", [("arch", "mem_slots"),
                                          ("arch", "num_kcs"),
                                          ("arrays", "W_beta")])
    def test_incomplete_checkpoint_exits_1(self, tmp_path, ckpt, capsys, part,
                                           key):
        doc = json.loads(Path(ckpt).read_text())
        del doc[part][key]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        code = main(["export-difficulty", "--ckpt", str(broken),
                     "--out", str(tmp_path / "d.csv")])
        assert code == 1
        assert f"lacks '{key}'" in capsys.readouterr().err

    def test_dkt_checkpoint_difficulty_exits_1(self, tmp_path, data_file):
        path = tmp_path / "dkt.json"
        assert main(["train", "--data", data_file, "--out", str(path),
                     "--model", "dkt", "--hidden", "4"] + FAST) == 0
        code = main(["export-difficulty", "--ckpt", str(path),
                     "--out", str(tmp_path / "d.csv")])
        assert code == 1


class TestEntryPoint:
    def test_console_script_installed(self, tmp_path):
        """`pip install` would register `deepkt = deepkt.cli:main`.

        The metadata is built from this checkout's pyproject.toml into
        ``tmp_path`` by setuptools' ``egg_info``, the step an install runs, so
        the test needs no install and writes nothing into the checkout.
        """
        pytest.importorskip("setuptools")
        root = Path(__file__).resolve().parents[1]
        build = subprocess.run(
            [sys.executable, "-c", "from setuptools import setup; setup()",
             "egg_info", "--egg-base", str(tmp_path)],
            cwd=root, capture_output=True, text=True)
        assert build.returncode == 0, build.stderr
        dist = im.PathDistribution(tmp_path / "deepkt.egg-info")
        assert "deepkt" in dist.read_text("top_level.txt").split()
        eps = [e for e in dist.entry_points if e.group == "console_scripts"]
        assert [(e.name, e.value) for e in eps] == [("deepkt",
                                                     "deepkt.cli:main")]
        assert eps[0].load() is main
