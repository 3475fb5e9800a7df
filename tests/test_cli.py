import json
import re
from pathlib import Path

import numpy as np
import pytest

from adapterleak.cli import libc_mallopt, load_config, main
from adapterleak.errors import ConfigError

TINY = """
[model]
D = 64
L = 2
num_encoders = 2
P = 4
C = 3
H = 8
W = 8
r = 4
num_classes = 5

[craft]
seed = 7
margin = 10.0

[fl]
users = 2
batch_size = 4
rounds = 1
seed = 11

[plan]
positions = 1
adapters_per_position = 2

[data]
kind = uniform
public_count = 64
"""


DESK_CFG_FILE = Path(__file__).resolve().parent.parent / "configs" / "desk.cfg"


@pytest.fixture()
def tiny_cfg_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


class TestConfigParsing:
    def test_defaults_resolve(self, tmp_path):
        path = tmp_path / "d.cfg"
        path.write_text("")
        cfg = load_config(path)
        assert cfg.model.D == 96
        assert cfg.positions == [1, 2, 3, 4]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[model]\nD = 96\nwidth = 3\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[optimizer]\nlr = 1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file_is_config_error_exit_code(self, tmp_path):
        rc = main(["run", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_unknown_key_exit_code(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[model]\nbogus = 1\n")
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("raw", [
        b"D = 96\n",  # no section header
        b"[model]\nD = 96\nD = 64\n",  # duplicate key
        b"\xff\xfe[model]\n",
        b"[model]\nD = abc\n",
        b"[plan]\npositions = 1,x\n",
        b"[defense]\nnoise_rel_sigma = lots\n",
    ], ids=["no_header", "duplicate_key", "not_utf8", "int", "positions", "float"])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, raw):
        path = tmp_path / "bad.cfg"
        path.write_bytes(raw)
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "config error:" in capsys.readouterr().err

    def test_malformed_sweep_value_is_config_error(self, tiny_cfg_file, tmp_path):
        rc = main(["sweep", "--config", str(tiny_cfg_file), "--vary", "batch",
                   "--values", "2,x", "--out", str(tmp_path / "o")])
        assert rc == 2


class TestRunCommand:
    def test_byte_identical_reruns(self, tiny_cfg_file, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run", "--config", str(tiny_cfg_file), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(tiny_cfg_file), "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_outputs_exist(self, tiny_cfg_file, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "--config", str(tiny_cfg_file), "--out", str(out)]) == 0
        for name in ("rounds.csv", "summary.json", "resolved.cfg", "grads.plta",
                     "backbone.plta", "plan.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runtime_s"] is None
        assert set(summary) >= {"config_hash", "rounds", "coverage", "mean_mse",
                                "mean_ssim"}

    def test_report_command(self, tiny_cfg_file, tmp_path):
        out = tmp_path / "run"
        main(["run", "--config", str(tiny_cfg_file), "--out", str(out)])
        assert main(["report", "--in", str(out)]) == 0
        assert (out / "mosaic.ppm").exists()


class TestHeapPolicy:
    @pytest.mark.skipif(libc_mallopt() is None, reason="libc exports no mallopt")
    def test_repeated_desk_run_reuses_freed_heap(self, tmp_path):
        # Without the allocator setting in main(), every desk run faults its
        # forward caches back in from the kernel (over 10k minor faults).
        import resource
        faults = []
        for k in range(3):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            rc = main(["run", "--config", str(DESK_CFG_FILE),
                       "--out", str(tmp_path / f"run{k}")])
            assert rc == 0
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert faults[2] < 1000, faults


class TestAttackCommand:
    def test_attack_from_run_artifacts(self, tiny_cfg_file, tmp_path):
        out = tmp_path / "run"
        main(["run", "--config", str(tiny_cfg_file), "--out", str(out)])
        atk_out = tmp_path / "atk"
        rc = main(["attack", "--grads", str(out / "grads.plta"),
                   "--plan", str(out / "plan.json"),
                   "--backbone", str(out / "backbone.plta"),
                   "--out", str(atk_out)])
        assert rc == 0
        assert (atk_out / "patches.csv").exists()

    def test_mismatched_plan_collapses_validity(self, tiny_cfg_file, tmp_path):
        out = tmp_path / "run"
        main(["run", "--config", str(tiny_cfg_file), "--out", str(out)])
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text(TINY.replace("seed = 7", "seed = 99"))
        out2 = tmp_path / "run2"
        main(["run", "--config", str(other_cfg), "--out", str(out2)])
        atk_out = tmp_path / "atk_mismatch"
        rc = main(["attack", "--grads", str(out / "grads.plta"),
                   "--plan", str(out2 / "plan.json"),
                   "--backbone", str(out2 / "backbone.plta"),
                   "--out", str(atk_out)])
        assert rc == 0
        mismatched = json.loads((atk_out / "attack_summary.json").read_text())
        matched_atk = tmp_path / "atk_match"
        main(["attack", "--grads", str(out / "grads.plta"),
              "--plan", str(out / "plan.json"),
              "--backbone", str(out / "backbone.plta"),
              "--out", str(matched_atk)])
        matched = json.loads((matched_atk / "attack_summary.json").read_text())
        assert mismatched["patches_valid"] < matched["patches_valid"]

    def test_craft_then_attack(self, tiny_cfg_file, tmp_path):
        craft_out = tmp_path / "craft"
        assert main(["craft", "--config", str(tiny_cfg_file),
                     "--out", str(craft_out)]) == 0
        run_out = tmp_path / "run"
        main(["run", "--config", str(tiny_cfg_file), "--out", str(run_out)])
        # plan and backbone from cmd_craft are interchangeable with cmd_run's
        assert (craft_out / "plan.json").read_bytes() == \
            (run_out / "plan.json").read_bytes()
        assert (craft_out / "backbone.plta").read_bytes() == \
            (run_out / "backbone.plta").read_bytes()


    def test_desk_craft_matches_run(self, tmp_path):
        outs = {}
        for command in ("craft", "run"):
            outs[command] = tmp_path / command
            assert main([command, "--config", str(DESK_CFG_FILE),
                         "--out", str(outs[command])]) == 0
        for name in ("plan.json", "backbone.plta", "resolved.cfg"):
            assert (outs["craft"] / name).read_bytes() == (outs["run"] / name).read_bytes()


# The benchmark's rounds shape: the desk config with r = 4 and four FedAvg
# rounds of four users, five local epochs each.
ROUNDS_SHAPE = """
[model]
r = 4

[craft]
seed = 7

[fl]
users = 4
batch_size = 16
rounds = 4
mode = fedavg
local_epochs = 5
seed = 11

[plan]
positions = all
adapters_per_position = 3

[data]
kind = smooth
"""

# sha256 of archive bytes on the rounds shape, digested once: the adapter
# archives `craft` writes and the gradient archive `run` writes.
PIN_ADAPTER_ARCHIVES = {
    "adapters_round0.plta": "2ea282ff2c47c217",
    "adapters_round1.plta": "9853c32f1a086f1d",
    "adapters_round2.plta": "e8b54bed2fba0c5c",
    "adapters_round3.plta": "dcd11c0c7d615cb1",
}
PIN_GRADIENT_ARCHIVE = "a35c65b8eb10433c"


class TestArchivesPinned:
    @pytest.fixture()
    def rounds_cfg_file(self, tmp_path):
        path = tmp_path / "rounds.cfg"
        path.write_text(ROUNDS_SHAPE)
        return path

    @staticmethod
    def _digest(path: Path) -> str:
        import hashlib

        return hashlib.sha256(path.read_bytes()).hexdigest()[:16]

    def test_craft_adapter_archives(self, rounds_cfg_file, tmp_path):
        out = tmp_path / "craft"
        assert main(["craft", "--config", str(rounds_cfg_file), "--out", str(out)]) == 0
        assert {name: self._digest(out / name)
                for name in PIN_ADAPTER_ARCHIVES} == PIN_ADAPTER_ARCHIVES

    def test_run_gradient_archive(self, rounds_cfg_file, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "--config", str(rounds_cfg_file), "--out", str(out)]) == 0
        assert self._digest(out / "grads.plta") == PIN_GRADIENT_ARCHIVE


class TestGradcheckCommand:
    def test_tiny_gradcheck_passes(self, tiny_cfg_file):
        assert main(["gradcheck", "--config", str(tiny_cfg_file)]) == 0

    def test_line_reports_central_error(self, tiny_cfg_file, capsys):
        assert main(["gradcheck", "--config", str(tiny_cfg_file)]) == 0
        line = capsys.readouterr().out.strip()
        m = re.search(r"gradcheck PASS: max rel err (\S+) .* over (\d+) parameters "
                      r"\(\d+ unmoved, \d+ refined, central max rel err (\S+)\) "
                      r"in \S+s; worst at (.*)$", line)
        assert m, line
        assert float(m.group(1)) <= float(m.group(3))
        assert m.group(4).startswith(("w_down[", "b_down[", "w_up[", "b_up["))


class TestSweepCommand:
    def test_sweep_csv_schema(self, tiny_cfg_file, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(tiny_cfg_file), "--vary", "batch",
                   "--values", "2,4", "--seeds", "2", "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "sweep_name,x_value,recovery_rate,mean_mse,mean_ssim"
        assert len(lines) == 3
        assert lines[1].startswith("batch,2,")

    @pytest.mark.parametrize("vary,values", [("batch", "2,4"), ("noise", "0,0.3"),
                                             ("r", "2,4")])
    def test_csv_independent_of_threads_and_matches_runs(self, tiny_cfg_file,
                                                         tmp_path, monkeypatch,
                                                         vary, values):
        from adapterleak.metrics import write_csv

        csv = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("PEFTLEAK_THREADS", threads)
            out = tmp_path / f"sweep{threads}"
            assert main(["sweep", "--config", str(tiny_cfg_file), "--vary", vary,
                         "--values", values, "--seeds", "2", "--out", str(out)]) == 0
            csv[threads] = (out / "sweep.csv").read_bytes()
        assert csv["1"] == csv["2"]

        # every cell again as its own `run`, averaged over seeds as the sweep does
        rows = []
        for raw in values.split(","):
            value = float(raw) if vary == "noise" else int(raw)
            cells = []
            for seed in (11, 1011):
                text = TINY.replace("seed = 11", f"seed = {seed}")
                if vary == "batch":
                    text = text.replace("batch_size = 4", f"batch_size = {raw}")
                elif vary == "r":
                    text = text.replace("r = 4", f"r = {raw}")
                else:
                    text += f"\n[defense]\nkind = gaussian_noise\nnoise_rel_sigma = {raw}\n"
                cfg = tmp_path / f"cell_{raw}_{seed}.cfg"
                cfg.write_text(text)
                run_out = tmp_path / f"run_{raw}_{seed}"
                assert main(["run", "--config", str(cfg), "--out", str(run_out)]) == 0
                summary = json.loads((run_out / "summary.json").read_text())
                cells.append([summary[k] for k in ("recovery_rate", "mean_mse",
                                                   "mean_ssim")])
            rows.append([vary, value, *(float(x) for x in np.mean(cells, axis=0))])
        write_csv(tmp_path / "expected.csv",
                  ["sweep_name", "x_value", "recovery_rate", "mean_mse", "mean_ssim"],
                  rows)
        assert (tmp_path / "expected.csv").read_bytes() == csv["1"]

    @pytest.mark.parametrize("vary,values,setups,backbones", [
        ("batch", "2,4,8", 2, 1), ("noise", "0,0.3", 2, 1), ("r", "2,4", 4, 2),
        ("layers", "1,2", 4, 1)],
        ids=["batch-2,4,8-2", "noise-0,0.3-2", "r-2,4-4", "layers-1,2-4"])
    def test_each_distinct_setup_built_once(self, tiny_cfg_file, tmp_path, monkeypatch,
                                            vary, values, setups, backbones):
        import adapterleak.flsim as flsim

        built, crafted = [], []
        real_setup, real_craft = flsim._setup_on, flsim.craft_backbone

        def counting_setup(pair, args):
            built.append(args)
            return real_setup(pair, args)

        def counting_craft(craft_cfg, model_cfg):
            crafted.append((craft_cfg, model_cfg))
            return real_craft(craft_cfg, model_cfg)

        monkeypatch.setattr(flsim, "_setup_on", counting_setup)
        monkeypatch.setattr(flsim, "craft_backbone", counting_craft)
        assert main(["sweep", "--config", str(tiny_cfg_file), "--vary", vary,
                     "--values", values, "--seeds", "2",
                     "--out", str(tmp_path / "sweep")]) == 0
        assert len(built) == len(set(built)) == setups
        assert len(crafted) == len(set(crafted)) == backbones
