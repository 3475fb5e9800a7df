import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from adapterleak import grad
from adapterleak.cli import libc_mallopt, load_config, main
from adapterleak.craft import CraftConfig, embedding_layout
from adapterleak.dataio import (load_ppm, read_tensor_archive, save_ppm,
                               write_tensor_archive)
from adapterleak.errors import ConfigError
from adapterleak.flsim import DefenseConfig, FLConfig, SetupArgs
from adapterleak.model import AdapterSet, ModelConfig, forward
from adapterleak.serialize import (read_backbone, read_gradients, write_backbone,
                                   write_gradients)
from helpers import kink_margin

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


# [fl] rounds = 1 of TINY replaced: two FedAvg rounds of two local epochs
FEDAVG_2_ROUNDS = "rounds = 2\nmode = fedavg\nlocal_epochs = 2"

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
        assert cfg.setup.model.D == 96
        assert cfg.setup.positions == (1, 2, 3, 4)

    def test_empty_config_is_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = load_config(path)
        assert (cfg.setup.model, cfg.setup.craft, cfg.fl, cfg.defense) == \
            (ModelConfig(), CraftConfig(), FLConfig(), DefenseConfig())
        defaulted = {f.name: f.default for f in fields(SetupArgs) if f.default is not MISSING}
        assert {key: getattr(cfg.setup, key) for key in defaulted} == defaulted

    def test_resolved_cfg_replays(self, tmp_path):
        # the echoed config loads back to the experiment it echoes
        assert main(["craft", "--config", str(DESK_CFG_FILE), "--out", str(tmp_path)]) == 0
        replayed, desk = load_config(tmp_path / "resolved.cfg"), load_config(DESK_CFG_FILE)
        assert replayed.resolved_text == desk.resolved_text
        assert replayed == desk

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
        b"[defense]\nkind = gaussian_noise\nnoise_rel_sigma = nan\n",
        b"[craft]\ngamma = nan\n",
        b"[craft]\ngamma = inf\n",
        b"[craft]\nmargin = nan\n",
        b"[craft]\nsigma_pos = nan\n",
        b"[DEFAULT]\nD = 64\n",  # an unknown section, not defaults for the others
        b"[DEFAULT]\nkind = uniform\n[data]\nkind = smooth\n[defense]\n",
        b"[model]\nL = 4\nr = %(L)s\n",  # read literally: not an int
    ], ids=["no_header", "duplicate_key", "not_utf8", "int", "positions", "float",
            "noise_nan", "gamma_nan", "gamma_inf", "margin_nan", "sigma_pos_nan",
            "default_alone", "default_with_sections", "interpolation"])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, raw):
        path = tmp_path / "bad.cfg"
        path.write_bytes(raw)
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_malformed_sweep_value_is_config_error(self, tiny_cfg_file, tmp_path):
        rc = main(["sweep", "--config", str(tiny_cfg_file), "--vary", "batch",
                   "--values", "2,x", "--out", str(tmp_path / "o")])
        assert rc == 2


# case -> (desk.cfg text, its replacement, commands that reject it): each is a
# ConfigError raised in config validation, setup or the experiment itself
CONFIG_ERRORS = {
    # adapters are ReLU only: adapter_activation is an unknown key
    "gelu": ("num_classes = 10", "num_classes = 10\nadapter_activation = gelu",
             ("craft", "run", "sweep")),
    "over_budget": ("num_encoders = 6", "num_encoders = 1", ("craft", "run", "sweep")),
    "positions_repeated": ("positions = all", "positions = 1,1", ("craft", "run", "sweep")),
    "no_free_rows": ("D = 96", "D = 48", ("craft", "run", "sweep")),
    "batch_0": ("batch_size = 16", "batch_size = 0", ("craft", "run", "sweep")),
    "batch_neg": ("batch_size = 16", "batch_size = -3", ("craft", "run", "sweep")),
    "public_1": ("kind = smooth", "kind = smooth\npublic_count = 1",
                 ("craft", "run", "sweep")),
    "public_0": ("kind = smooth", "kind = smooth\npublic_count = 0",
                 ("craft", "run", "sweep")),
    "fedavg_epochs_0": ("seed = 11", "seed = 11\nmode = fedavg\nlocal_epochs = 0",
                        ("craft", "run", "sweep")),
    "lr_0": ("seed = 11", "seed = 11\nlearning_rate = 0", ("craft", "run", "sweep")),
    # NaN and infinite floats: unchecked, NaN noise runs undefended and NaN
    # or infinite craft values fail in softmax_rows
    "noise_nan": ("kind = smooth",
                  "kind = smooth\n[defense]\nkind = gaussian_noise\nnoise_rel_sigma = nan",
                  ("craft", "run", "sweep")),
    "gamma_nan": ("gamma = 1e4", "gamma = nan", ("craft", "run", "sweep")),
    "gamma_inf": ("gamma = 1e4", "gamma = inf", ("craft", "run", "sweep")),
    "margin_nan": ("margin = 50.0", "margin = nan", ("craft", "run", "sweep")),
    "sigma_pos_nan": ("sigma_pos = 10.0", "sigma_pos = nan", ("craft", "run", "sweep")),
    # model sizes below 1, and fewer than two classes, whose loss and
    # gradients are all 0: a division by zero or a crash, or for one class
    # a run reporting nothing, where a config error is due
    "D_0": ("D = 96", "D = 0", ("craft", "run", "sweep")),
    "L_0": ("L = 4", "L = 0", ("craft", "run", "sweep")),
    "P_0": ("P = 4", "P = 0", ("craft", "run", "sweep")),
    "C_0": ("C = 3", "C = 0", ("craft", "run", "sweep")),
    # both negative: the patch count (H / P) * (W / P) is positive
    "HW_neg": ("H = 8\nW = 8", "H = -8\nW = -8", ("craft", "run", "sweep")),
    "classes_0": ("num_classes = 10", "num_classes = 0", ("craft", "run", "sweep")),
    "classes_neg": ("num_classes = 10", "num_classes = -3", ("craft", "run", "sweep")),
    "classes_1": ("num_classes = 10", "num_classes = 1", ("craft", "run", "sweep")),
    # craft values each config dataclass rejects
    "sigma_pos_0": ("sigma_pos = 10.0", "sigma_pos = 0", ("craft", "run", "sweep")),
    "pos_dist_cauchy": ("margin = 50.0", "margin = 50.0\npos_dist = cauchy",
                        ("craft", "run", "sweep")),
    "embed_mode_x": ("margin = 50.0", "margin = 50.0\nembed_mode = x",
                     ("craft", "run", "sweep")),
    # plans and data SetupArgs rejects
    "positions_5": ("positions = all", "positions = 5", ("craft", "run", "sweep")),
    "adapters_0": ("adapters_per_position = 3", "adapters_per_position = 0",
                   ("craft", "run", "sweep")),
    "data_kind_x": ("kind = smooth", "kind = x", ("craft", "run", "sweep")),
    # sweep --vary and --values of the cases named in SWEEP_ARGS
    "sweep_batch_0": ("", "", ("sweep",)),
    "sweep_noise_nan": ("", "", ("sweep",)),
    "sweep_noise_inf": ("", "", ("sweep",)),
    "sweep_layers_0": ("", "", ("sweep",)),
}
SWEEP_ARGS = {"sweep_batch_0": ("batch", "4,0"), "sweep_noise_nan": ("noise", "0,nan"),
              "sweep_noise_inf": ("noise", "inf"), "sweep_layers_0": ("layers", "3,0")}
CONFIG_ERROR_RUNS = [(command, case) for case, (_, _, commands) in CONFIG_ERRORS.items()
                     for command in commands]


def config_error_argv(tmp_path: Path, command: str, case: str) -> list[str]:
    """argv of ``command`` on ``case``'s copy of desk.cfg, written under
    ``tmp_path``, with output to ``tmp_path / f"{case}-{command}"``."""
    old, new, _ = CONFIG_ERRORS[case]
    text = DESK_CFG_FILE.read_text()
    assert old in text
    cfg = tmp_path / f"{case}.cfg"
    cfg.write_text(text.replace(old, new))
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / f"{case}-{command}")]
    if command == "sweep":
        vary, values = SWEEP_ARGS.get(case, ("batch", "4"))
        argv += ["--vary", vary, "--values", values]
    return argv


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

    @pytest.mark.parametrize("command,case", CONFIG_ERROR_RUNS)
    def test_config_error_writes_nothing(self, tmp_path, capsys, command, case):
        assert main(config_error_argv(tmp_path, command, case)) == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        if case == "gelu":
            assert "unknown key 'adapter_activation' in section [model]" in err
        assert not (tmp_path / f"{case}-{command}").exists()

    def test_report_command(self, tiny_cfg_file, tmp_path):
        out = tmp_path / "run"
        main(["run", "--config", str(tiny_cfg_file), "--out", str(out)])
        assert main(["report", "--in", str(out)]) == 0
        assert (out / "mosaic.ppm").exists()


def report_dir(path: Path, sizes: dict[str, int], summary: bytes = b"{}") -> Path:
    """A run directory holding ``summary`` and one square PPM of each given
    side per file name, every image a distinct constant colour."""
    path.mkdir()
    (path / "summary.json").write_bytes(summary)
    for k, (name, side) in enumerate(sizes.items()):
        save_ppm(np.full((3, side, side), 10.0 * k), path / name)
    return path


class TestReportCommand:
    def test_pairs_images_by_index(self, tmp_path, capsys):
        names = [f"{kind}_{i:03d}.ppm" for i in range(3) for kind in ("truth", "recovered")]
        src = report_dir(tmp_path / "run", dict.fromkeys(names, 4))
        assert main(["report", "--in", str(src)]) == 0
        mosaic = load_ppm(src / "mosaic.ppm")
        for i in range(3):
            for half, kind in enumerate(("truth", "recovered")):
                tile = mosaic[:, 4 * i:4 * i + 4, 4 * half:4 * half + 4]
                assert np.array_equal(tile, load_ppm(src / f"{kind}_{i:03d}.ppm"))
        # a missing partner is named, not paired with the next image
        (src / "recovered_001.ppm").unlink()
        (src / "mosaic.ppm").unlink()
        capsys.readouterr()
        assert main(["report", "--in", str(src)]) == 3
        out, err = capsys.readouterr()
        assert f"{src / 'truth_001.ppm'} and {src / 'recovered_001.ppm'}" in err
        assert out == "" and not (src / "mosaic.ppm").exists()

    @pytest.mark.parametrize("sides,bad", [((8, 4), "000"), ((8, 8, 4, 4), "001")],
                             ids=["in_pair", "across_pairs"])
    def test_pair_of_other_sizes_rejected(self, tmp_path, capsys, sides, bad):
        names = [f"{kind}_{i:03d}.ppm" for i in range(2) for kind in ("truth", "recovered")]
        src = report_dir(tmp_path / "run", dict(zip(names, sides)))
        assert main(["report", "--in", str(src)]) == 3
        out, err = capsys.readouterr()
        assert f"{src / f'truth_{bad}.ppm'} and {src / f'recovered_{bad}.ppm'}" in err
        assert out == "" and not (src / "mosaic.ppm").exists()

    @pytest.mark.parametrize("cut,message", [
        (lambda raw: raw[:len(b"P6\n4 4\n255\n") + 10], "payload size 10 != 48"),
        (lambda raw: b"P5" + raw[2:], "PPM header is not P6")], ids=["truncated", "header"])
    def test_bad_ppm_named(self, tmp_path, capsys, cut, message):
        names = [f"{kind}_{i:03d}.ppm" for i in range(3) for kind in ("truth", "recovered")]
        src = report_dir(tmp_path / "run", dict.fromkeys(names, 4))
        bad = src / "truth_002.ppm"
        bad.write_bytes(cut(bad.read_bytes()))
        assert main(["report", "--in", str(src)]) == 3
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {bad}: {message}")
        assert out == "" and not (src / "mosaic.ppm").exists()

    @pytest.mark.parametrize("summary", [b"\xff{}", b"{", b"[1]", b"[" * 100_000],
                             ids=["not_utf8", "truncated", "list", "too_deep"])
    def test_bad_summary_rejected_before_printing(self, tmp_path, capsys, summary):
        src = report_dir(tmp_path / "run", {"truth_000.ppm": 4, "recovered_000.ppm": 4},
                         summary)
        assert main(["report", "--in", str(src)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {src / 'summary.json'} ")


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

    @pytest.mark.parametrize("round_idx", ["-1", "1", "7"])
    def test_round_outside_plan_rejected(self, tiny_cfg_file, tmp_path, capsys,
                                         round_idx):
        out = tmp_path / "run"
        assert main(["run", "--config", str(tiny_cfg_file), "--out", str(out)]) == 0
        atk_out = tmp_path / "atk"
        rc = main(["attack", "--grads", str(out / "grads.plta"),
                   "--plan", str(out / "plan.json"),
                   "--backbone", str(out / "backbone.plta"),
                   "--out", str(atk_out), "--round", round_idx])
        assert rc == 2
        assert f"--round {round_idx} outside" in capsys.readouterr().err
        assert not atk_out.exists()

    @pytest.mark.parametrize("case", ["r4_gradients", "adapter_40", "position_9"])
    def test_inputs_of_another_shape_rejected(self, tmp_path, capsys, case):
        # a desk (r = 8) plan and backbone, and the gradients of an r = 4 run
        # or of the desk run itself
        desk = tmp_path / "desk"
        assert main(["run", "--config", str(DESK_CFG_FILE), "--out", str(desk)]) == 0
        grads = desk / "grads.plta"
        plan = json.loads((desk / "plan.json").read_text())
        if case == "r4_gradients":
            r4_cfg = tmp_path / "r4.cfg"
            r4_cfg.write_text(DESK_CFG_FILE.read_text().replace("r = 8", "r = 4"))
            assert main(["run", "--config", str(r4_cfg), "--out", str(tmp_path / "r4")]) == 0
            grads = tmp_path / "r4" / "grads.plta"
        elif case == "adapter_40":
            plan["assignments"][0][0] = 40
        else:
            plan["thresholds"]["9"] = plan["thresholds"].pop("4")
            plan["assignments"] = [[a, 9 if t == 4 else t, s]
                                   for a, t, s in plan["assignments"]]
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        atk_out = tmp_path / "atk"
        rc = main(["attack", "--grads", str(grads), "--plan", str(tmp_path / "plan.json"),
                   "--backbone", str(desk / "backbone.plta"), "--out", str(atk_out)])
        assert rc == 2
        err = capsys.readouterr().err
        expected = {
            "r4_gradients": "(A, r, D) = (12, 4, 96), but the plan and backbone "
                            "need (12 or more, 8, 96)",
            "adapter_40": "(A, r, D) = (12, 8, 96), but the plan and backbone "
                          "need (41 or more, 8, 96)",
            "position_9": "plan positions [1, 2, 3, 9] exceed the backbone's 4 patches",
        }[case]
        assert expected in err
        assert not atk_out.exists()

    @pytest.mark.parametrize("case", ["e_pinv_d64", "content_row_96",
                                      "correction_row_negative"])
    def test_embedding_fields_of_earlier_plans_ignored(self, tmp_path, case):
        # a plan in the earlier format carries the embedding layout too; the
        # attack reads the layout from the backbone, so even a layout that
        # fits D = 64 or points outside 0..95 changes no output byte
        desk = tmp_path / "desk"
        assert main(["run", "--config", str(DESK_CFG_FILE), "--out", str(desk)]) == 0
        plan = json.loads((desk / "plan.json").read_text())
        layout = embedding_layout(read_backbone(desk / "backbone.plta").embed, 4)
        plan.update({"content_rows": layout.content_rows.tolist(),
                     "correction_rows": layout.correction_rows.tolist(),
                     "e_pinv": layout.e_pinv.tolist(), "pixel_groups": None,
                     "embed_mode": "identity_pad", "n_patches": 4})
        if case == "e_pinv_d64":
            plan["e_pinv"] = [row[:64] for row in plan["e_pinv"]]
        elif case == "content_row_96":
            plan["content_rows"][-1] = 96
        else:
            plan["correction_rows"][0] = -1
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        outs = {}
        for name, plan_path in (("own", desk / "plan.json"), ("edited", tmp_path / "plan.json")):
            outs[name] = tmp_path / name
            assert main(["attack", "--grads", str(desk / "grads.plta"),
                         "--plan", str(plan_path), "--backbone", str(desk / "backbone.plta"),
                         "--out", str(outs[name])]) == 0
        for name in ("patches.csv", "attack_summary.json"):
            assert (outs["edited"] / name).read_bytes() == (outs["own"] / name).read_bytes()

    @pytest.mark.parametrize("case", ["pixel_read_twice", "embed_d64", "pos_1d"])
    def test_embedding_not_crafted_rejected(self, tmp_path, capsys, case):
        # the desk run's backbone with an embedding that reads pixel 0 into
        # two rows, with the 64-row embedding of a D = 64 backbone, or with
        # position encodings that are not (N + 1, D)
        desk = tmp_path / "desk"
        assert main(["run", "--config", str(DESK_CFG_FILE), "--out", str(desk)]) == 0
        if case == "pos_1d":
            tensors = read_tensor_archive(desk / "backbone.plta")
            tensors["pos"] = np.zeros(5)
            write_tensor_archive(tensors, tmp_path / "backbone.plta")
        else:
            backbone = read_backbone(desk / "backbone.plta")
            if case == "pixel_read_twice":
                backbone.embed[60, 0] = 0.5
            else:
                backbone.embed = backbone.embed[:64]
            write_backbone(backbone, tmp_path / "backbone.plta")
        atk_out = tmp_path / "atk"
        rc = main(["attack", "--grads", str(desk / "grads.plta"),
                   "--plan", str(desk / "plan.json"),
                   "--backbone", str(tmp_path / "backbone.plta"), "--out", str(atk_out)])
        assert rc == 2
        assert {
            "pixel_read_twice": "the embedding is not a crafted one: pixel 0 feeds 2 rows",
            "embed_d64": "backbone embedding has shape (64, 48), but its position "
                         "encodings need (D, patch_dim) with D = 96",
            "pos_1d": "backbone position encodings have shape (5,), but need (N + 1, D)",
        }[case] in capsys.readouterr().err
        assert not atk_out.exists()

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
PIN_GRADIENT_ARCHIVE = "73bbdf640fece396"
# sha256 of the backbone archive `run` writes on the rounds shape
PIN_BACKBONE_ARCHIVE = "42ae505129e39d93"
# sha256 of the gradient archive a desk `run` (one round) writes
PIN_DESK_GRADIENT_ARCHIVE = "d3eac24fa388120b"
# sha256 of the other files `run` writes on the rounds shape, and of the
# offline `attack` outputs per --round and merged over all rounds. They guard
# refactors that must keep every output byte. `grads.plta` holds every round's
# gradients, round-major, so each --round decodes its own round and the merged
# offline coverage equals `run`'s (ROADMAP 1(c), fixed). summary.json's
# config_hash moved when `[model] adapter_activation` left resolved.cfg, and
# again when resolved.cfg spelled omitted float defaults as str() of the
# dataclass field (gamma = 10000.0, epsilon_up = 1e-06, learning_rate = 0.0001).
PIN_RUN_OUTPUTS = {
    "rounds.csv": "d620bf803f341377",
    "summary.json": "64e50aefac19ae3f",
    "plan.json": "f2490e76c2e3efbc",
}
PIN_OFFLINE_ATTACK = {  # --round -> (patches.csv, attack_summary.json)
    "0": ("89a652a5edab90b6", "ae39bc145613805d"),
    "1": ("925f998f7273edf4", "19d5ab17a9f0ff6c"),
    "2": ("37f823fae71e1128", "cd31a383a2933ef1"),
    "3": ("54c50fa024a5ff13", "189816d0a16ea261"),
    "merged": ("0a3b019c6fe7d7ed", "19feddfdecd5b3c8"),
}
# sha256 of every image `run` writes on the rounds shape: the victim batch and
# the recovered patches placed back into it.
PIN_RUN_IMAGES = {
    "truth_000.ppm": "abb2747a898cd0d8",
    "truth_001.ppm": "3bc3b79a32f56c12",
    "truth_002.ppm": "1f90666eb42a1d1f",
    "truth_003.ppm": "9a7de5e0ed6ab445",
    "truth_004.ppm": "f0d60bde010c24ae",
    "truth_005.ppm": "9103b0b9f5f2dd5a",
    "truth_006.ppm": "f31adfc587cb29fe",
    "truth_007.ppm": "f84aff88205bc8e0",
    "truth_008.ppm": "aebc88ffb82d87a5",
    "truth_009.ppm": "1ffef0140bab1f3d",
    "truth_010.ppm": "6bdf4ffdff6cfb35",
    "truth_011.ppm": "a095df16a89c1fbf",
    "truth_012.ppm": "aab5694c322297be",
    "truth_013.ppm": "40a0cf5b70dbe63b",
    "truth_014.ppm": "598b6cba90d1f300",
    "truth_015.ppm": "d2426a2a93aad39d",
    "recovered_000.ppm": "25cc34a0f9f1a1d9",
    "recovered_001.ppm": "5fa6fb339221064e",
    "recovered_002.ppm": "6cf9f8adfda4b491",
    "recovered_003.ppm": "9a7de5e0ed6ab445",
    "recovered_004.ppm": "80baa18f816d242c",
    "recovered_005.ppm": "9f0abad5721e985d",
    "recovered_006.ppm": "f3e07065800d561e",
    "recovered_007.ppm": "87561cb102e363ba",
    "recovered_008.ppm": "e214450d148604ed",
    "recovered_009.ppm": "17d47e0d59d852f6",
    "recovered_010.ppm": "88a659155916e060",
    "recovered_011.ppm": "05cde66960183ae2",
    "recovered_012.ppm": "9359aae7c12392eb",
    "recovered_013.ppm": "05de83d1ed26e235",
    "recovered_014.ppm": "fe1700cf6dc62d9a",
    "recovered_015.ppm": "1ce5c08c9523b753",
}
# sha256 of the mosaic `report` writes from those images: it reads every one
# of them back through load_ppm
PIN_REPORT_MOSAIC = "e5e36a6d19d61f7a"


def _digest(path: Path) -> str:
    import hashlib

    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


class TestArchivesPinned:
    @pytest.fixture(scope="class")
    def rounds_cfg_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("rounds") / "rounds.cfg"
        path.write_text(ROUNDS_SHAPE)
        return path

    @pytest.fixture(scope="class")
    def rounds_run(self, rounds_cfg_file):
        out = rounds_cfg_file.parent / "run"
        assert main(["run", "--config", str(rounds_cfg_file), "--out", str(out)]) == 0
        return out

    def test_craft_adapter_archives(self, rounds_cfg_file, tmp_path):
        out = tmp_path / "craft"
        assert main(["craft", "--config", str(rounds_cfg_file), "--out", str(out)]) == 0
        assert {name: _digest(out / name)
                for name in PIN_ADAPTER_ARCHIVES} == PIN_ADAPTER_ARCHIVES

    def test_run_gradient_archive(self, rounds_run):
        assert _digest(rounds_run / "grads.plta") == PIN_GRADIENT_ARCHIVE

    def test_run_backbone_archive(self, rounds_run):
        assert _digest(rounds_run / "backbone.plta") == PIN_BACKBONE_ARCHIVE

    def test_report_mosaic(self, rounds_run, tmp_path):
        # a copy, so the mosaic never lands in the class's shared run
        copy = tmp_path / "run"
        shutil.copytree(rounds_run, copy)
        assert main(["report", "--in", str(copy)]) == 0
        assert _digest(copy / "mosaic.ppm") == PIN_REPORT_MOSAIC

    def test_desk_run_gradient_archive(self, tmp_path):
        out = tmp_path / "desk"
        assert main(["run", "--config", str(DESK_CFG_FILE), "--out", str(out)]) == 0
        assert _digest(out / "grads.plta") == PIN_DESK_GRADIENT_ARCHIVE

    def test_run_outputs(self, rounds_run):
        assert {name: _digest(rounds_run / name)
                for name in PIN_RUN_OUTPUTS} == PIN_RUN_OUTPUTS

    def test_run_images(self, rounds_run):
        assert {name: _digest(rounds_run / name)
                for name in PIN_RUN_IMAGES} == PIN_RUN_IMAGES

    @pytest.mark.parametrize("round_idx", sorted(PIN_OFFLINE_ATTACK))
    def test_offline_attack_outputs(self, rounds_run, tmp_path, round_idx):
        argv = ["attack", "--grads", str(rounds_run / "grads.plta"),
                "--plan", str(rounds_run / "plan.json"),
                "--backbone", str(rounds_run / "backbone.plta"),
                "--out", str(tmp_path / "atk")]
        if round_idx != "merged":
            argv += ["--round", round_idx]
        assert main(argv) == 0
        assert (_digest(tmp_path / "atk" / "patches.csv"),
                _digest(tmp_path / "atk" / "attack_summary.json")) == \
            PIN_OFFLINE_ATTACK[round_idx]


class TestOfflineAttackReplaysRun:
    @pytest.fixture()
    def rounds_run(self, tmp_path, request):
        seed = getattr(request, "param", 11)
        cfg = tmp_path / "rounds.cfg"
        cfg.write_text(ROUNDS_SHAPE.replace("seed = 11", f"seed = {seed}"))
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize("rounds_run", [11, 13, 30], indirect=True)
    def test_merged_coverage_equals_run(self, rounds_run, tmp_path):
        atk = tmp_path / "atk"
        assert main(["attack", "--grads", str(rounds_run / "grads.plta"),
                     "--plan", str(rounds_run / "plan.json"),
                     "--backbone", str(rounds_run / "backbone.plta"),
                     "--out", str(atk)]) == 0
        offline = json.loads((atk / "attack_summary.json").read_text())
        assert offline["coverage"] == json.loads(
            (rounds_run / "summary.json").read_text())["coverage"]

    def test_archive_of_the_last_round_only_rejected(self, rounds_run, tmp_path, capsys):
        # earlier versions of `run` archived only the last round's gradients
        grads, m = read_gradients(rounds_run / "grads.plta")
        last = AdapterSet(*(t[-12:] for t in grads.tensors().values()))
        write_gradients(last, m, tmp_path / "last.plta")
        atk = tmp_path / "atk"
        assert main(["attack", "--grads", str(tmp_path / "last.plta"),
                     "--plan", str(rounds_run / "plan.json"),
                     "--backbone", str(rounds_run / "backbone.plta"),
                     "--out", str(atk)]) == 2
        assert ("gradient archive holds 12 adapters, but 4 round(s) of the backbone's "
                "12 adapters need 48") in capsys.readouterr().err
        assert not atk.exists()


class TestGradcheckCommand:
    def test_tiny_gradcheck_passes(self, tiny_cfg_file):
        assert main(["gradcheck", "--config", str(tiny_cfg_file)]) == 0

    def test_checks_the_resolved_model(self, tiny_cfg_file, monkeypatch):
        # the oracle differentiates the ReLU adapters every attack runs
        import adapterleak.cli as cli

        seen = []
        real = cli.finite_diff_check

        def spy(backbone, adapters, batch, cfg, **kwargs):
            seen.append(cfg)
            return real(backbone, adapters, batch, cfg, **kwargs)

        monkeypatch.setattr(cli, "finite_diff_check", spy)
        assert main(["gradcheck", "--config", str(tiny_cfg_file)]) == 0
        assert seen == [load_config(tiny_cfg_file).setup.model]

    def test_desk_and_benchmark_inputs_clear_the_kinks(self, tmp_path, monkeypatch):
        # central differences are exact on each linear piece of a ReLU: on
        # the desk check (M = 16) and the benchmark's (M = 4 at fl seeds
        # 11 + 100003 s, and M = 1 with craft seed 7 + s, s = 1..10), even a
        # step of 2h moves no adapter unit across its kink
        import adapterleak.cli as cli

        margins = []

        def margin_only(backbone, adapters, batch, cfg, **kwargs):
            margins.append(kink_margin(forward(batch, backbone, adapters, cfg)[2])
                           / grad.FD_STEP)
            raise RuntimeError("margin taken")

        monkeypatch.setattr(cli, "finite_diff_check", margin_only)
        desk = DESK_CFG_FILE.read_text()
        texts = [desk]
        for s in range(1, 11):
            text = desk.replace("seed = 11", f"seed = {11 + 100_003 * s}")
            texts += [text.replace("batch_size = 16", "batch_size = 4"),
                      text.replace("batch_size = 16", "batch_size = 1")
                          .replace("seed = 7", f"seed = {7 + s}")]
        for k, text in enumerate(texts):
            (tmp_path / f"{k}.cfg").write_text(text)
            assert main(["gradcheck", "--config", str(tmp_path / f"{k}.cfg")]) == 3
        assert len(margins) == 21 and min(margins) > 2.0

    def test_line_reports_central_error(self, tiny_cfg_file, capsys):
        assert main(["gradcheck", "--config", str(tiny_cfg_file)]) == 0
        line = capsys.readouterr().out.strip()
        m = re.search(r"^gradcheck PASS: max rel err (\S+) \(tolerance 1e-06, floor "
                      r"0\.002\) over (\d+) parameters \((\d+) unmoved\) in \S+s; "
                      r"worst at (.*)$", line)
        assert m, line
        assert float(m.group(1)) < 1e-6
        assert int(m.group(3)) < int(m.group(2))
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

    def test_zero_seeds_rejected(self, tiny_cfg_file, tmp_path, capsys, monkeypatch):
        import adapterleak.cli as cli

        def no_setup(*args):
            raise AssertionError("a setup was built")

        monkeypatch.setattr(cli, "prepare_attacks", no_setup)
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(tiny_cfg_file), "--vary", "batch",
                   "--values", "2,4", "--seeds", "0", "--out", str(out)])
        assert rc == 2
        assert "--seeds must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values", [",", " , ,"])
    def test_empty_values_rejected(self, tiny_cfg_file, tmp_path, capsys, monkeypatch,
                                   values):
        import adapterleak.cli as cli

        def no_setup(*args):
            raise AssertionError("a setup was built")

        monkeypatch.setattr(cli, "prepare_attacks", no_setup)
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(tiny_cfg_file), "--vary", "batch",
                   "--values", values, "--out", str(out)])
        assert rc == 2
        assert "names no value" in capsys.readouterr().err
        assert not out.exists()

    def test_cells_run_on_the_calling_thread(self, tiny_cfg_file, tmp_path, monkeypatch):
        import os
        import threading

        import adapterleak.cli as cli
        import adapterleak.flsim as flsim

        # four usable cores, so a pool sized by the core count would use them
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        calls = []

        def record(module, name):
            real = getattr(module, name)

            def recording(*args, **kwargs):
                calls.append((name, threading.get_ident()))
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, recording)

        for module, name in ((cli, "run_experiment"), (flsim, "craft_backbone"),
                             (flsim, "_setup_on"), (flsim, "synth_batch"),
                             (flsim, "local_step")):
            record(module, name)
        assert main(["sweep", "--config", str(tiny_cfg_file), "--vary", "r",
                     "--values", "2,4", "--seeds", "2",
                     "--out", str(tmp_path / "sweep")]) == 0
        # two public batches, one per seed, and four victim observations
        assert sorted(name for name, _ in calls) == (
            ["_setup_on"] * 4 + ["craft_backbone"] * 2 + ["local_step"] * 4
            + ["run_experiment"] * 4 + ["synth_batch"] * 6)
        assert {ident for _, ident in calls} == {threading.get_ident()}

    @pytest.mark.parametrize("vary,values,fl", [
        ("batch", "2,4", ""), ("noise", "0,0.3", ""), ("r", "2,4", ""),
        ("noise", "0,1e-11", FEDAVG_2_ROUNDS), ("layers", "1,2", "")],
        ids=["batch-2,4", "noise-0,0.3", "r-2,4", "noise-0,1e-11-fedavg", "layers-1,2"])
    def test_csv_matches_runs(self, tmp_path, vary, values, fl):
        from adapterleak.metrics import write_csv

        base = TINY.replace("rounds = 1", fl) if fl else TINY
        (tmp_path / "base.cfg").write_text(base)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(tmp_path / "base.cfg"), "--vary", vary,
                     "--values", values, "--seeds", "2", "--out", str(out)]) == 0

        # every cell again as its own `run`, averaged over seeds as the sweep does
        rows = []
        for raw in values.split(","):
            value = float(raw) if vary == "noise" else int(raw)
            cells = []
            for seed in (11, 1011):
                text = base.replace("seed = 11", f"seed = {seed}")
                if vary == "batch":
                    text = text.replace("batch_size = 4", f"batch_size = {raw}")
                elif vary == "r":
                    text = text.replace("r = 4", f"r = {raw}")
                elif vary == "layers":
                    text = text.replace("adapters_per_position = 2",
                                        f"adapters_per_position = {raw}")
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
        assert (tmp_path / "expected.csv").read_bytes() == (out / "sweep.csv").read_bytes()

    @pytest.mark.parametrize("vary,values,setups,backbones", [
        ("batch", "2,4,8", 2, 1), ("noise", "0,0.3", 2, 1), ("r", "2,4", 4, 2),
        ("layers", "1,2", 4, 1)],
        ids=["batch-2,4,8-2", "noise-0,0.3-2", "r-2,4-4", "layers-1,2-4"])
    def test_each_distinct_setup_built_once(self, tiny_cfg_file, tmp_path, monkeypatch,
                                            vary, values, setups, backbones):
        import adapterleak.flsim as flsim

        built, crafted = [], []
        real_setup, real_craft = flsim._setup_on, flsim.craft_backbone

        def counting_setup(pair, args, public):
            built.append(args)
            return real_setup(pair, args, public)

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

    @pytest.mark.parametrize("vary,values,publics,observations", [
        ("batch", "2,4,8", 2, 6), ("noise", "0,0.3", 2, 2), ("r", "2,4", 2, 4),
        ("layers", "1,2", 2, 4)],
        ids=["batch-2,4,8", "noise-0,0.3", "r-2,4", "layers-1,2"])
    def test_each_distinct_input_computed_once(self, tiny_cfg_file, tmp_path,
                                               monkeypatch, vary, values, publics,
                                               observations):
        import adapterleak.flsim as flsim

        drawn, trained = [], []
        real_synth, real_step = flsim.synth_batch, flsim.local_step

        def counting_synth(m, model_cfg, seed, kind):
            drawn.append(m)
            return real_synth(m, model_cfg, seed=seed, kind=kind)

        def counting_step(batch, *rest):
            trained.append(batch)
            return real_step(batch, *rest)

        monkeypatch.setattr(flsim, "synth_batch", counting_synth)
        monkeypatch.setattr(flsim, "local_step", counting_step)
        assert main(["sweep", "--config", str(tiny_cfg_file), "--vary", vary,
                     "--values", values, "--seeds", "2",
                     "--out", str(tmp_path / "sweep")]) == 0
        # one public batch of 64 per seed; one victim batch and one local
        # training per distinct (setup, FL config), the cells' observations
        assert drawn.count(64) == publics
        assert len(drawn) - publics == len(trained) == observations
        assert len({id(batch) for batch in trained}) == observations


# runs main(argv) for each JSON argv in turn and prints, after each, a line
# "probe: [exit code, scipy modules the process has loaded so far]"; with
# no argv it prints that line after importing the CLI alone
_SCIPY_PROBE = """
import json, sys
from adapterleak.cli import main
for argv in sys.argv[1:] or ["null"]:
    argv = json.loads(argv)
    rc = main(argv) if argv is not None else None
    print("probe:", json.dumps([rc, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _scipy_loaded_after(argvs: list[list[str]], **env: str) -> list[tuple]:
    """(exit code, scipy modules loaded) after each of ``argvs``, run in
    turn through the CLI of one fresh process with ``env`` added to its
    environment; [(None, modules)] after importing the CLI alone."""
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *map(json.dumps, argvs)],
                         env={**os.environ, **env, "PYTHONPATH": str(SRC_DIR)},
                         capture_output=True, text=True, timeout=300, check=True)
    return [tuple(json.loads(line.removeprefix("probe: ")))
            for line in out.stdout.splitlines() if line.startswith("probe: ")]


def _scipy_loaded(*argv: str) -> tuple[int | None, list[str]]:
    """(exit code, scipy modules loaded) of a fresh process that imports
    the CLI and runs ``argv`` through it, or only imports it."""
    return _scipy_loaded_after([list(argv)] if argv else [])[-1]


class TestStartup:
    """scipy is imported on the first evaluation of Phi, not with the package."""

    def test_cli_import_loads_no_scipy(self):
        assert _scipy_loaded() == (None, [])

    def test_attack_and_report_load_no_scipy(self, tiny_cfg_file, tmp_path):
        run = tmp_path / "run"
        rc, modules = _scipy_loaded("run", "--config", str(tiny_cfg_file), "--out", str(run))
        assert rc == 0 and "scipy.special" in modules  # the probe sees the import
        assert _scipy_loaded("attack", "--grads", str(run / "grads.plta"),
                             "--plan", str(run / "plan.json"),
                             "--backbone", str(run / "backbone.plta"),
                             "--out", str(tmp_path / "atk")) == (0, [])
        assert _scipy_loaded("report", "--in", str(run)) == (0, [])

    def test_config_errors_come_before_any_draw(self, tmp_path):
        # scipy.special loads at the first Gaussian draw, so a case that
        # loads it reported its config error only after drawing. Only
        # gradcheck reads PEFTLEAK_THREADS.
        runs = [*CONFIG_ERROR_RUNS, ("gradcheck", "threads_0")]
        argvs = [config_error_argv(tmp_path, *run) for run in CONFIG_ERROR_RUNS]
        argvs.append(["gradcheck", "--config", str(DESK_CFG_FILE)])
        after = _scipy_loaded_after(argvs, PEFTLEAK_THREADS="0")
        assert [rc for rc, _ in after] == [2] * len(runs)
        # the first case to load it; the ones after it cannot unload it
        first_late = next((run for run, (_, modules) in zip(runs, after)
                           if "scipy.special" in modules), None)
        assert first_late is None
