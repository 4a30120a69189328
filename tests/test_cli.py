import csv
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from protofed import cli
from protofed.cli import _map_subruns, main
from protofed.config import ExperimentConfig, build_config, load_config, parse_kv_text
from protofed.datagen import load_csv, save_csv
from protofed.federation import build_problem
from protofed.model import ModelParams, save_params
from protofed.numerics import keyed_rng

from conftest import CONFIGS

TINY_CONFIG = """
# tiny experiment for CLI tests
rounds = 2
epochs = 2
num_classes = 3
num_domains = 2
arch = 8, 12, 6
per_class_count = 20
clients_per_domain = 2, 1
sampling_rate = 0.6
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text(TINY_CONFIG, encoding="utf-8")
    return path


class TestConfigParsing:
    def test_documented_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.lr == 0.01
        assert cfg.weight_decay == 1e-5
        assert cfg.beta == 0.99
        assert cfg.tau == 0.07
        assert cfg.alpha == 0.4
        assert cfg.epochs == 10
        assert cfg.mixup_mode == "feature"

    def test_empty_config_is_valid(self):
        cfg = build_config(parse_kv_text(""))
        assert cfg == ExperimentConfig()

    def test_unknown_keys_listed(self):
        with pytest.raises(Exception) as err:
            build_config(parse_kv_text("taus = 0.1\nrunds = 3"))
        msg = str(err.value)
        assert "taus" in msg and "runds" in msg

    def test_constraint_named(self):
        with pytest.raises(Exception) as err:
            build_config(parse_kv_text("tau = 0"))
        assert "tau" in str(err.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(Exception):
            parse_kv_text("tau = 0.1\ntau = 0.2")

    def test_comments_and_blanks_skipped(self):
        cfg = build_config(parse_kv_text("# hi\n\nrounds = 4\n"))
        assert cfg.rounds == 4

    def test_seed_override(self, tiny_config):
        cfg = load_config(tiny_config, seed=99)
        assert cfg.seed == 99


class TestRunCommand:
    def test_artifacts_written(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
        for name in ("rounds.jsonl", "summary.json", "config.resolved.json", "model.bin", "prototypes.json"):
            assert (out / name).exists(), name
        rounds = [json.loads(line) for line in (out / "rounds.jsonl").read_text().splitlines()]
        assert len(rounds) == 2
        assert set(rounds[0]) == {"round", "per_domain_accuracy", "average_accuracy", "losses"}
        resolved = json.loads((out / "config.resolved.json").read_text())
        assert resolved["lr"] == 0.01
        assert resolved["weight_decay"] == 1e-5
        assert resolved["beta"] == 0.99
        assert None not in resolved.values()

    def test_byte_identical_reruns(self, tiny_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(tiny_config), "--out", str(out_a)])
        main(["run", "--config", str(tiny_config), "--out", str(out_b)])
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
        assert (out_a / "rounds.jsonl").read_bytes() == (out_b / "rounds.jsonl").read_bytes()
        assert (out_a / "model.bin").read_bytes() == (out_b / "model.bin").read_bytes()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        # inf passes a one-sided bound, so each such float key needs its own case
        bad = tmp_path / "bad.txt"
        one_sided = ("lr", "weight_decay", "tau", "alpha", "data_noise", "data_anchor_scale",
                     "data_shift")
        for line in ["tau = 0"] + [f"{key} = inf" for key in one_sided]:
            bad.write_text(line + "\n", encoding="utf-8")
            assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2, line
            key = line.split(" = ")[0]
            assert f"config error: {key} must be" in capsys.readouterr().err

    def test_seed_beyond_uint64_exits_2(self, tiny_config, tmp_path, capsys):
        # keyed_rng packs the seed as a uint64; 2**64 must fail as a config
        # error, from the command line and from the file alike
        big = str(2**64)
        out = str(tmp_path / "o")
        assert main(["run", "--config", str(tiny_config), "--seed", big, "--out", out]) == 2
        assert "config error: seed must lie in [0, 2**64)" in capsys.readouterr().err
        bad = tmp_path / "bad.txt"
        bad.write_text(TINY_CONFIG + f"seed = {big}\n", encoding="utf-8")
        assert main(["run", "--config", str(bad), "--out", out]) == 2
        assert "config error: seed must lie in [0, 2**64)" in capsys.readouterr().err
        last = tmp_path / "last.txt"
        last.write_text(TINY_CONFIG + f"seed = {2**64 - 1}\n", encoding="utf-8")
        assert main(["run", "--config", str(last), "--out", out]) == 0
        # sweep validates its --seed as run does, before any sub-run
        sweep = tmp_path / "sweep.txt"
        sweep.write_text(TINY_CONFIG + "sweep_param = tau\nsweep_values = 0.05, 0.07\n")
        for seed in ("-1", big):
            sweep_out = tmp_path / f"sweep{seed}"
            argv = ["sweep", "--config", str(sweep), "--seed", seed, "--out", str(sweep_out)]
            assert main(argv) == 2, seed
            assert "config error: seed must lie in [0, 2**64)" in capsys.readouterr().err
            assert not (sweep_out / "sweep.csv").exists()

    def test_underflowing_domain_scale_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(TINY_CONFIG + "data_shift = 1e4\n", encoding="utf-8")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == "error: domain 1: shift 10000 underflows a scale to 0\n"

    def test_feature_width_one_exits_2(self, tmp_path, capsys):
        # at feature width 1 every cosine similarity is +-1: GPCL is degenerate
        bad = tmp_path / "bad.txt"
        bad.write_text(TINY_CONFIG.replace("arch = 8, 12, 6", "arch = 8, 1"), encoding="utf-8")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "config error: arch feature width" in capsys.readouterr().err

    def test_synthetic_input_width_one_exits_2(self, tmp_path, capsys):
        # the synthetic generator needs two input columns; a CSV may have one
        bad = tmp_path / "bad.txt"
        bad.write_text(TINY_CONFIG.replace("arch = 8, 12, 6", "arch = 1, 8"), encoding="utf-8")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "config error: arch input width" in capsys.readouterr().err
        rows = tmp_path / "one_column.csv"
        rows.write_text("x0,label,domain\n" + "".join(
            f"{0.1 * i - 2.0 * (i % 3)},{i % 3},{i % 2}\n" for i in range(60)
        ), encoding="utf-8")
        good = tmp_path / "good.txt"
        good.write_text(bad.read_text() + f"csv_path = {rows}\n", encoding="utf-8")
        assert main(["run", "--config", str(good), "--out", str(tmp_path / "o")]) == 0

    def test_empty_arch_element_exits_2(self, tmp_path, capsys):
        # dropping the empty element would train arch (8, 6), another network
        bad = tmp_path / "bad.txt"
        for arch in ("8,,6", "8, 6,"):
            bad.write_text(TINY_CONFIG.replace("8, 12, 6", arch), encoding="utf-8")
            assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2, arch
            assert "config error: arch: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        # the last two are removed keys: a config that still sets one must
        # fail, not run without it
        bad = tmp_path / "bad.txt"
        for line in ("no_such_key = 1", "apa_class_mean = false", "ema_enabled = true"):
            bad.write_text(line + "\n", encoding="utf-8")
            assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
            key = line.split(" = ")[0]
            assert f"unknown keys: {key}" in capsys.readouterr().err

    def test_missing_config_file_exits_3(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.txt")]) == 3

    def test_nonfinite_loss_names_where(self, tmp_path, capsys):
        config = tmp_path / "diverge.txt"
        config.write_text(TINY_CONFIG + "lr = 1e6\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 3
        err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(err) == 1
        where = re.fullmatch(
            r"error: round (\d+), client (\d+), local step (\d+): "
            r"((ce|gpcl|apa) loss is (-?inf|nan)|ce loss is \S+, above MAX_STEP_CE = 1e\+06)",
            err[0],
        )
        assert where, err[0]
        # rounds.jsonl keeps every round before the failing one
        lines = (out / "rounds.jsonl").read_text().splitlines()
        assert [json.loads(line)["round"] for line in lines] == list(range(int(where[1])))
        assert not (out / "summary.json").exists()

    def test_diverged_fedavg_run_exits_3(self, tmp_path, capsys):
        # every term stays finite here (CE reached 3.6e78 by round 1), so
        # only the MAX_STEP_CE bound stops the run
        config = tmp_path / "diverge.txt"
        config.write_text(
            TINY_CONFIG + "lr = 1e6\ngpcl_enabled = false\napa_enabled = false\n"
            "mixup_mode = off\n",
            encoding="utf-8",
        )
        out = tmp_path / "o"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 3
        err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(err) == 1
        assert re.fullmatch(
            r"error: round \d+, client \d+, local step \d+: "
            r"ce loss is \S+, above MAX_STEP_CE = 1e\+06",
            err[0],
        ), err[0]
        assert not (out / "summary.json").exists()

    def test_csv_clients_of_unequal_size(self, tiny_config, tmp_path):
        # half of domain 1's rows dropped: its client trains in a block of
        # its own, apart from the two equal-size clients of domain 0
        data_path = tmp_path / "data.csv"
        assert main(["gen-data", "--config", str(tiny_config), "--out", str(data_path)]) == 0
        data = load_csv(data_path)
        keep = np.flatnonzero((data.domains == 0) | (np.arange(len(data)) % 2 == 0))
        save_csv(data.take(keep), data_path)
        config = tmp_path / "csv.txt"
        config.write_text(TINY_CONFIG + f"csv_path = {data_path}\n", encoding="utf-8")
        clients, _, _ = build_problem(load_config(config))
        assert len({len(c.data) for c in clients}) == 2
        out = tmp_path / "o"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "rounds.jsonl").read_text().splitlines()
        assert [json.loads(line)["round"] for line in lines] == [0, 1]
        first = _tree(out)
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert _tree(out) == first

    def test_csv_domain_without_test_split_rejected(self, tiny_config, tmp_path, capsys):
        # 4 rows hold out int(0.2 * 4) = 0 test rows: rejected while the
        # clients are built, before round 0 trains
        data_path = tmp_path / "data.csv"
        assert main(["gen-data", "--config", str(tiny_config), "--out", str(data_path)]) == 0
        data = load_csv(data_path)
        keep = np.concatenate([np.flatnonzero(data.domains == 0),
                               np.flatnonzero(data.domains == 1)[:4]])
        save_csv(data.take(keep), data_path)
        config = tmp_path / "csv.txt"
        config.write_text(TINY_CONFIG + f"csv_path = {data_path}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="domain 1: 4 rows leave no test split"):
            build_problem(load_config(config))
        out = tmp_path / "o"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 3
        assert "error: domain 1: 4 rows" in capsys.readouterr().err
        assert (out / "rounds.jsonl").read_text() == ""

    def test_malformed_csv_rows_exit_3_naming_lines(self, tiny_config, tmp_path, capsys):
        data_path = tmp_path / "data.csv"
        assert main(["gen-data", "--config", str(tiny_config), "--out", str(data_path)]) == 0
        lines = data_path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = lines[2].replace(",", ",inf,", 1)  # line 3: one cell too many
        lines[6] = "nan" + lines[6][lines[6].index(","):]  # line 7: a non-finite feature
        data_path.write_text("".join(lines), encoding="utf-8")
        config = tmp_path / "csv.txt"
        config.write_text(TINY_CONFIG + f"csv_path = {data_path}\n", encoding="utf-8")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.endswith("error: malformed rows (lines 3, 7)\n")

    def test_each_malformed_csv_line_is_an_error_line(self, tiny_config, tmp_path, capsys):
        # TINY_CONFIG has 3 classes and 2 domains: each bad line gets its
        # own stderr line naming the file and its fault
        data_path = tmp_path / "data.csv"
        assert main(["gen-data", "--config", str(tiny_config), "--out", str(data_path)]) == 0
        lines = data_path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = lines[1][: lines[1].rindex(",", 0, -3)] + ",9,0\n"
        lines[4] = lines[4][: lines[4].rindex(",")] + ",7\n"
        data_path.write_text("".join(lines), encoding="utf-8")
        config = tmp_path / "csv.txt"
        config.write_text(TINY_CONFIG + f"csv_path = {data_path}\n", encoding="utf-8")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: {data_path}: line 2: label 9 outside [0, 3)",
            f"error: {data_path}: line 5: domain 7 outside [0, 2)",
            "error: malformed rows (lines 2, 5)",
        ]


class TestSweepCommand:
    def test_tau_sweep_rows(self, tmp_path):
        sweep = tmp_path / "sweep.txt"
        sweep.write_text(
            TINY_CONFIG + "sweep_param = tau\nsweep_values = 0.02, 0.04, 0.07\n",
            encoding="utf-8",
        )
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(sweep), "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert [float(r["value"]) for r in rows] == pytest.approx([0.02, 0.04, 0.07])
        assert all(r["status"] == "ok" for r in rows)
        assert all(r["param"] == "tau" for r in rows)
        assert (out / "tau_0.02" / "summary.json").exists()

    def test_beta_sweep_includes_limits(self, tmp_path):
        sweep = tmp_path / "sweep.txt"
        sweep.write_text(
            TINY_CONFIG + "sweep_param = beta\nsweep_values = 0, -0, 0.9, 0.99, 1.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(sweep), "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        # 0 == -0, yet each sub-run records its own value
        resolved = json.loads((out / "beta_-0" / "config.resolved.json").read_text())
        assert str(resolved["beta"]) == "-0.0"

    def test_empty_values_exit_2(self, tmp_path):
        sweep = tmp_path / "sweep.txt"
        sweep.write_text("sweep_param = tau\nsweep_values = \n", encoding="utf-8")
        assert main(["sweep", "--config", str(sweep), "--out", str(tmp_path / "o")]) == 2

    def test_empty_value_element_exits_2(self, tmp_path, capsys):
        # dropping the empty element would sweep two values; a blank list
        # keeps its own message
        sweep = tmp_path / "sweep.txt"
        out = tmp_path / "o"
        for values, message in (("0.02,,0.07", "sweep_values: "), ("", "must be a nonempty")):
            sweep.write_text(TINY_CONFIG + f"sweep_param = tau\nsweep_values = {values}\n")
            assert main(["sweep", "--config", str(sweep), "--out", str(out)]) == 2, values
            assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_param_exit_2(self, tmp_path):
        sweep = tmp_path / "sweep.txt"
        sweep.write_text("sweep_param = lr\nsweep_values = 0.1\n", encoding="utf-8")
        assert main(["sweep", "--config", str(sweep), "--out", str(tmp_path / "o")]) == 2

    def test_colliding_sub_run_dirs_exit_2(self, tmp_path, capsys):
        # both values format as tau_0.07 and would write the same sub-run
        sweep = tmp_path / "sweep.txt"
        sweep.write_text(
            TINY_CONFIG + "sweep_param = tau\nsweep_values = 0.07, 0.05, 0.07000001\n",
            encoding="utf-8",
        )
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(sweep), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "sweep_values" in err and "0.07 " in err and "0.07000001" in err
        assert not out.exists()

    def test_sub_run_failure_recorded(self, tmp_path):
        # alpha = -1 passes sweep-file parsing but fails inside the sub-run
        sweep = tmp_path / "sweep.txt"
        sweep.write_text(
            TINY_CONFIG + "sweep_param = alpha\nsweep_values = 0.4, -1\n",
            encoding="utf-8",
        )
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(sweep), "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith("error")

    def test_swept_value_validated(self, tmp_path):
        # a value a config file may not hold is an error row, not a run
        sweep = tmp_path / "sweep.txt"
        sweep.write_text(
            TINY_CONFIG + "sweep_param = tau\nsweep_values = 0.07, inf\n",
            encoding="utf-8",
        )
        out = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(sweep), "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["ok", "error: tau must be finite"]
        assert not (out / "tau_inf").exists()


class TestAblateCommand:
    def test_variant_rows(self, tiny_config, tmp_path):
        out = tmp_path / "ablate_out"
        assert main(["ablate", "--config", str(tiny_config), "--out", str(out)]) == 0
        with open(out / "ablation.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        groups = {r["group"] for r in rows}
        assert groups == {"components", "aggregator", "mixup"}
        comp = [r for r in rows if r["group"] == "components"]
        assert {(r["gpcl"], r["apa"]) for r in comp} == {
            ("false", "false"),
            ("true", "false"),
            ("false", "true"),
            ("true", "true"),
        }
        mix = [r["variant"] for r in rows if r["group"] == "mixup"]
        assert mix == ["off", "input", "feature"]
        assert (out / "components_gpcl_off_apa_off" / "summary.json").exists()

    def test_full_method_rows_agree(self, tiny_config, tmp_path):
        out = tmp_path / "ablate_out"
        main(["ablate", "--config", str(tiny_config), "--out", str(out)])
        with open(out / "ablation.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        on_on = next(r for r in rows if r["group"] == "components" and r["variant"] == "gpcl_on_apa_on")
        rw = next(r for r in rows if r["group"] == "aggregator" and r["variant"] == "reweight")
        feat = next(r for r in rows if r["group"] == "mixup" and r["variant"] == "feature")
        assert on_on["avg_acc_last5"] == rw["avg_acc_last5"] == feat["avg_acc_last5"]

    def test_each_distinct_config_trains_once(self, tiny_config, tmp_path, monkeypatch):
        # every group holds the base's own setting: 9 rows, 7 distinct configs
        calls = []
        run_experiments = cli.run_experiments

        def counting(cfgs, round_callbacks):
            calls.extend(cfg.out_dir for cfg in cfgs)
            return run_experiments(cfgs, round_callbacks)

        monkeypatch.setattr(cli, "run_experiments", counting)
        monkeypatch.setenv("PROTOFED_THREADS", "1")
        out = tmp_path / "ablate_out"
        assert main(["ablate", "--config", str(tiny_config), "--out", str(out)]) == 0
        assert len(calls) == 7
        base_dirs = [out / name for name in
                     ("components_gpcl_on_apa_on", "aggregator_reweight", "mixup_feature")]
        assert calls.count(str(base_dirs[0])) == 1
        for name in ("rounds.jsonl", "summary.json", "model.bin", "prototypes.json"):
            first = (base_dirs[0] / name).read_bytes()
            assert all((d / name).read_bytes() == first for d in base_dirs[1:]), name
        for d in base_dirs:
            resolved = json.loads((d / "config.resolved.json").read_text())
            assert resolved["out_dir"] == str(d)


class TestBundles:
    def test_only_a_failing_bundle_of_several_retrains(self, tmp_path, monkeypatch):
        # a bundle stops at its first failure and _train then trains each of
        # its configs alone: a passing bundle, or a failing bundle of one,
        # trains once; a failing bundle of three, 1 + 3 times
        calls = []
        run_experiments = cli.run_experiments

        def counting(cfgs, round_callbacks):
            calls.append(len(cfgs))
            return run_experiments(cfgs, round_callbacks)

        monkeypatch.setattr(cli, "run_experiments", counting)
        tiny = build_config(parse_kv_text(TINY_CONFIG))
        failing = replace(tiny, tau=5e-324)
        for name, cfgs, want in (
            ("passing", [tiny, replace(tiny, tau=0.5), replace(tiny, seed=1)], [3]),
            ("alone", [failing], [1]),
            ("failing", [tiny, failing, replace(tiny, seed=1)], [3, 1, 1, 1]),
        ):
            calls.clear()
            rows = cli._train([(cfg, [tmp_path / name / str(i)]) for i, cfg in enumerate(cfgs)])
            assert calls == want, name
            assert [isinstance(row, str) for row in rows] == [cfg is failing for cfg in cfgs]

    def test_skewed_ablation_bundles(self, tmp_path, monkeypatch):
        # configs/skewed.txt's 7 distinct configs form 4 bundles: those that
        # differ only in GPCL or the aggregator, the two with APA off, and
        # one for each other mixup mode. They go dearest first. At 4
        # threads a bundle holds at most ceil(7 / 4) = 2 runs.
        lines = (CONFIGS / "skewed.txt").read_text(encoding="utf-8").splitlines()
        config = tmp_path / "skewed.txt"
        config.write_text("\n".join(
            [line for line in lines if not line.startswith(("rounds", "epochs"))]
            + ["rounds = 1", "epochs = 1"]
        ) + "\n", encoding="utf-8")
        seen = []
        map_subruns = cli._map_subruns

        def recording(worker, items):
            seen.append([[dirs[0].name for _, dirs in bundle] for bundle in items])
            return map_subruns(worker, items)

        monkeypatch.setattr(cli, "_map_subruns", recording)
        a_runs = ["components_gpcl_off_apa_on", "components_gpcl_on_apa_on", "aggregator_average"]
        rest = [["mixup_off"], ["components_gpcl_off_apa_off", "components_gpcl_on_apa_off"]]
        for threads, a_bundles in (("2", [a_runs]), ("4", [a_runs[:2], a_runs[2:]])):
            monkeypatch.setenv("PROTOFED_THREADS", threads)
            seen.clear()
            out = tmp_path / f"out{threads}"
            assert main(["ablate", "--config", str(config), "--out", str(out)]) == 0
            assert seen == [[["mixup_input"], *a_bundles, *rest]]


class TestDumpEmbeddings:
    def _write_data(self, tmp_path, n=100, dim=16):
        cfg = tmp_path / "gen.txt"
        cfg.write_text("per_class_count = 25\nnum_classes = 4\n", encoding="utf-8")
        data_path = tmp_path / "data.csv"
        assert main(["gen-data", "--config", str(cfg), "--out", str(data_path)]) == 0
        return data_path

    def test_shape_and_roundtrip(self, tmp_path):
        data_path = self._write_data(tmp_path)
        from protofed.model import init_params

        params = init_params(keyed_rng(0, 9), [16, 32, 16], 4)
        ckpt = tmp_path / "model.bin"
        save_params(params, ckpt)
        out_path = tmp_path / "embed.csv"
        assert main([
            "dump-embeddings", "--checkpoint", str(ckpt), "--data", str(data_path),
            "--out", str(out_path),
        ]) == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 400  # header + 4 domains x 4 classes x 25
        assert len(rows[0]) == 16 + 2
        back = load_csv(out_path)  # parses under the standard reader conventions
        assert back.input_dim == 16

    def test_zero_model_zero_features(self, tmp_path):
        data_path = self._write_data(tmp_path)
        zero = ModelParams(np.zeros(16 * 16 + 16 + 4 * 16 + 4), [(16, 16), (4, 16)])
        ckpt = tmp_path / "zero.bin"
        save_params(zero, ckpt)
        out_path = tmp_path / "embed.csv"
        assert main([
            "dump-embeddings", "--checkpoint", str(ckpt), "--data", str(data_path),
            "--out", str(out_path),
        ]) == 0
        back = load_csv(out_path)
        assert np.all(back.x == 0.0)

    def test_header_only_data(self, tmp_path):
        # forward maps (0, 16) inputs to (0, 6) features: a header-only CSV out
        data_path = tmp_path / "empty.csv"
        data_path.write_text(",".join([f"x{i}" for i in range(16)] + ["label", "domain"]) + "\n")
        from protofed.model import init_params

        save_params(init_params(keyed_rng(0, 9), [16, 32, 6], 4), tmp_path / "model.bin")
        out_path = tmp_path / "embed.csv"
        assert main([
            "dump-embeddings", "--checkpoint", str(tmp_path / "model.bin"),
            "--data", str(data_path), "--out", str(out_path),
        ]) == 0
        header = ",".join([f"x{i}" for i in range(6)] + ["label", "domain"]) + "\n"
        assert out_path.read_text() == header

    def test_dim_mismatch_exits_3(self, tmp_path, capsys):
        data_path = self._write_data(tmp_path)
        from protofed.model import init_params

        params = init_params(keyed_rng(0, 9), [8, 4], 2)
        ckpt = tmp_path / "model.bin"
        save_params(params, ckpt)
        code = main([
            "dump-embeddings", "--checkpoint", str(ckpt), "--data", str(data_path),
            "--out", str(tmp_path / "e.csv"),
        ])
        assert code == 3
        assert "dim" in capsys.readouterr().err


class TestGenData:
    def test_written_and_loadable(self, tmp_path):
        cfg = tmp_path / "gen.txt"
        cfg.write_text("per_class_count = 10\n", encoding="utf-8")
        out = tmp_path / "d.csv"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
        data = load_csv(out)
        assert len(data) == 10 * 5 * 4  # per_class x K x D defaults
        assert data.input_dim == 16

    def test_seed_changes_data(self, tmp_path):
        cfg = tmp_path / "gen.txt"
        cfg.write_text("per_class_count = 5\n", encoding="utf-8")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen-data", "--config", str(cfg), "--out", str(a), "--seed", "1"])
        main(["gen-data", "--config", str(cfg), "--out", str(b), "--seed", "2"])
        assert a.read_bytes() != b.read_bytes()

    def test_same_seed_identical(self, tmp_path):
        cfg = tmp_path / "gen.txt"
        cfg.write_text("per_class_count = 5\n", encoding="utf-8")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen-data", "--config", str(cfg), "--out", str(a)])
        main(["gen-data", "--config", str(cfg), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


WORKER_MARK = "default"


def _read_mark(_item) -> str:
    return WORKER_MARK


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _tree(root) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestThreadsEnv:
    """PROTOFED_THREADS=2 runs sweep/ablate sub-runs in worker processes; the
    results, and the failures, must be the same as one after another."""

    def _both(self, monkeypatch, tmp_path, command, config, settings=("1", "2")):
        """(exit code, output tree) per setting, both written to one path
        because config.resolved.json records the output directory."""
        out = tmp_path / command
        outcomes = []
        for threads in settings:
            monkeypatch.setenv("PROTOFED_THREADS", threads)
            shutil.rmtree(out, ignore_errors=True)
            code = main([command, "--config", str(config), "--out", str(out)])
            _assert_no_child_left()
            outcomes.append((code, _tree(out)))
        return outcomes

    def test_threads_do_not_change_artifacts(self, tiny_config, tmp_path, monkeypatch):
        sweep = tmp_path / "sweep.txt"
        # alpha = -1 fails inside its sub-run; its error row must match too
        sweep.write_text(TINY_CONFIG + "sweep_param = alpha\nsweep_values = 0.4, -1, 0.2\n")
        trees = {}
        for command, config in (("sweep", sweep), ("ablate", tiny_config)):
            (code_1, tree_1), (code_2, tree_2) = self._both(monkeypatch, tmp_path, command, config)
            assert code_1 == code_2 == 0
            assert tree_1 == tree_2, command
            trees[command] = tree_1
        assert len(trees["ablate"]) == 1 + 9 * 5  # ablation.csv + five files per sub-run
        rows = list(csv.DictReader(io.StringIO(trees["sweep"]["sweep.csv"].decode())))
        assert [r["status"][:6] for r in rows] == ["ok", "error:", "ok"]

    def test_failed_ablate_sub_run_named(self, tmp_path, monkeypatch, capsys):
        # lr = 1e6 diverges already in the first, FedAvg-mode sub-run
        config = tmp_path / "diverge.txt"
        config.write_text(TINY_CONFIG + "lr = 1e6\n", encoding="utf-8")
        (code_1, tree_1), (code_2, tree_2) = self._both(monkeypatch, tmp_path, "ablate", config)
        assert code_1 == code_2 == 3
        # every distinct config runs before the command fails, at any thread count
        assert tree_1 == tree_2
        err = capsys.readouterr().err.splitlines()
        errors = [line for line in err if line.startswith("error:")]
        assert len(errors) == 2 and errors[0] == errors[1]
        assert errors[0].startswith("error: sub-run components_gpcl_off_apa_off: ")

    def test_failed_run_in_a_bundle_same_at_any_threads(self, tmp_path, monkeypatch):
        # the three tau values form one bundle at 1 thread and three at 4;
        # the least positive tau overflows GPCL in round 1 either way, with
        # the message it has alone, and its bundle-mates write what they
        # write alone
        sweep = tmp_path / "sweep.txt"
        sweep.write_text(TINY_CONFIG + "sweep_param = tau\nsweep_values = 0.07, 5e-324, 0.5\n")
        (code_1, tree_1), (code_4, tree_4) = self._both(
            monkeypatch, tmp_path, "sweep", sweep, ("1", "4")
        )
        assert code_1 == code_4 == 0
        assert tree_1 == tree_4
        rows = list(csv.DictReader(io.StringIO(tree_1["sweep.csv"].decode())))
        where = "round 1, client 0, local step 0: gpcl loss is nan"
        assert [r["status"] for r in rows] == ["ok", f"error: {where}", "ok"]
        lines = tree_1["tau_4.94066e-324/rounds.jsonl"].decode().splitlines()
        assert [json.loads(line)["round"] for line in lines] == [0]
        for value in ("0.07", "0.5"):
            config = tmp_path / f"run_{value}.txt"
            config.write_text(TINY_CONFIG + f"tau = {value}\n", encoding="utf-8")
            out = tmp_path / "sweep" / f"tau_{value}"
            assert main(["run", "--config", str(config), "--out", str(out)]) == 0
            assert _tree(out) == {
                name[len(f"tau_{value}/"):]: data for name, data in tree_1.items()
                if name.startswith(f"tau_{value}/")
            }

    def test_invalid_threads_exits_2(self, tiny_config, tmp_path, monkeypatch, capsys):
        argv = ["ablate", "--config", str(tiny_config), "--out", str(tmp_path / "o")]
        monkeypatch.setenv("PROTOFED_THREADS", "zero")
        assert main(argv) == 2
        assert "PROTOFED_THREADS" in capsys.readouterr().err
        # workers are forked, so a platform without fork (Windows) cannot run
        # them; one thread still runs every sub-run in process
        monkeypatch.delattr(os, "fork")
        monkeypatch.setenv("PROTOFED_THREADS", "2")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "PROTOFED_THREADS" in err and "fork" in err
        monkeypatch.setenv("PROTOFED_THREADS", "1")
        assert main(argv) == 0

    def test_diverging_run_prints_only_its_error(self, tmp_path):
        # numpy's overflow and invalid-value warnings are silenced, in forked
        # workers too, so stderr holds the one-line error and nothing else
        config = tmp_path / "diverge.txt"
        config.write_text(TINY_CONFIG + "weight_decay = 1e300\n", encoding="utf-8")
        src = str(Path(cli.__file__).resolve().parents[1])
        where = "round 0, client 0, local step 1: ce loss is nan"
        cases = [("run", "1", f"error: {where}\n")] + [
            ("ablate", threads, f"error: sub-run components_gpcl_off_apa_off: {where}\n")
            for threads in ("1", "2")
        ]
        for command, threads, want in cases:
            env = dict(os.environ, PYTHONPATH=src, PROTOFED_THREADS=threads)
            argv = [sys.executable, "-m", "protofed", command, "--config", str(config)]
            argv += ["--out", str(tmp_path / f"{command}{threads}")]
            proc = subprocess.run(argv, env=env, capture_output=True, text=True)
            assert (proc.returncode, proc.stderr) == (3, want), (command, threads)

    def test_workers_fork_from_this_process(self, monkeypatch):
        # a forked worker sees state set here at run time; a spawned one would
        # import this module again and read the default
        monkeypatch.setattr(sys.modules[__name__], "WORKER_MARK", "set in the parent")
        monkeypatch.setenv("PROTOFED_THREADS", "2")
        assert _map_subruns(_read_mark, [0, 1]) == ["set in the parent"] * 2

    def test_killed_worker_raises_and_is_reaped(self, tmp_path, monkeypatch):
        # a worker killed mid-map leaves its rows unsent: the map names it
        # and its signal, and no worker is left unreaped
        def worker(item):
            if item == 1:
                (tmp_path / "pid").write_text(str(os.getpid()))
                os.kill(os.getpid(), signal.SIGKILL)
            return item

        monkeypatch.setenv("PROTOFED_THREADS", "2")
        with pytest.raises(RuntimeError) as caught:
            _map_subruns(worker, [0, 1, 2, 3])
        pid = (tmp_path / "pid").read_text()
        assert str(caught.value) == (
            f"sub-run worker {pid} ended by signal {int(signal.SIGKILL)} without all its rows"
        )
        _assert_no_child_left()
        assert _map_subruns(worker, [0, 2, 3]) == [0, 2, 3]  # unpicklable workers are fine

    def test_more_workers_than_cores_keep_input_order(self, monkeypatch):
        # four workers share one task pipe on any core count: every index is
        # served exactly once, by some worker, and rows come back in order
        monkeypatch.setenv("PROTOFED_THREADS", "4")
        rows = _map_subruns(lambda item: (item, os.getpid()), list(range(500)))
        assert [item for item, _ in rows] == list(range(500))
        assert os.getpid() not in {pid for _, pid in rows}
        _assert_no_child_left()

    def test_pool_modules_not_imported(self, tiny_config, tmp_path):
        # the workers are bare forks: an ablation at two threads imports
        # neither multiprocessing nor concurrent.futures
        src = str(Path(cli.__file__).resolve().parents[1])
        argv = ["ablate", "--config", str(tiny_config), "--out", str(tmp_path / "o")]
        script = (
            f"import sys\nfrom protofed.cli import main\ncode = main({argv!r})\n"
            "print(code, sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
        )
        env = dict(os.environ, PYTHONPATH=src, PROTOFED_THREADS="2")
        argv = [sys.executable, "-c", script]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert proc.stdout == "0 []\n", proc.stderr
