"""Command-line surface: exit codes, outputs, determinism, image I/O."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fdl.cli import _THREAD_VARS, _pin_threads
from fdl.datasets import NoiseModel, add_noise, piecewise_scene
from fdl.pnm import read_image, write_pgm

from cli_env import cli_env


def run_cli(args, cwd, env=None):
    """Run ``python -m fdl.cli`` in ``cwd``; ``env`` adds variables for the child."""
    return subprocess.run(
        [sys.executable, "-m", "fdl.cli"] + args,
        cwd=cwd,
        capture_output=True,
        text=True,
        env=cli_env({"PYTHONHASHSEED": "0", **(env or {})}),
    )


@pytest.fixture
def workdir(tmp_path):
    clean = piecewise_scene(64)
    noisy = add_noise(clean, NoiseModel(0.1, seed=0))
    write_pgm(tmp_path / "clean.pgm", clean)
    write_pgm(tmp_path / "noisy.pgm", noisy)
    return tmp_path


class TestPnm:
    def test_round_trip_16bit(self, tmp_path):
        img = piecewise_scene(32)
        write_pgm(tmp_path / "a.pgm", img)
        back = read_image(tmp_path / "a.pgm")
        assert np.max(np.abs(back - img)) <= 0.5 / 65535 + 1e-12

    def test_write_is_deterministic(self, tmp_path):
        img = piecewise_scene(32)
        write_pgm(tmp_path / "a.pgm", img)
        write_pgm(tmp_path / "b.pgm", img)
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()

    def test_read_ascii_p2(self, tmp_path):
        (tmp_path / "tiny.pgm").write_text("P2\n# comment\n2 2\n255\n0 128\n255 64\n")
        img = read_image(tmp_path / "tiny.pgm")
        np.testing.assert_allclose(img[0, 0], [[0, 128 / 255], [1.0, 64 / 255]])

    def test_malformed_raises(self, tmp_path):
        from fdl.errors import ConfigError

        (tmp_path / "bad.pgm").write_bytes(b"P5\n4 4\n")
        with pytest.raises(ConfigError):
            read_image(tmp_path / "bad.pgm")


class TestThreadPinning:
    @pytest.fixture
    def blas_env(self, monkeypatch):
        for var in _THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")

    @pytest.mark.parametrize("flag", [["--threads", "1"], ["--threads=1"]])
    def test_flag_overrides_environment(self, blas_env, flag):
        _pin_threads(flag + ["flops", "unet"])
        assert {var: os.environ[var] for var in _THREAD_VARS} == dict.fromkeys(_THREAD_VARS, "1")

    def test_environment_wins_without_flag(self, blas_env):
        _pin_threads(["flops", "unet"])
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
        assert os.environ["OMP_NUM_THREADS"] == "1"


class TestDenoiseCommand:
    def test_wavelet_zero_threshold_is_identity(self, workdir):
        result = run_cli(
            ["denoise", "noisy.pgm", "--threshold", "0", "--out", "out"], cwd=workdir
        )
        assert result.returncode == 0, result.stderr
        back = read_image(workdir / "out" / "denoised.pgm")
        noisy = read_image(workdir / "noisy.pgm")
        # identical up to the 16-bit quantization of the round trip
        assert np.max(np.abs(back - np.clip(noisy, 0, 1))) <= 1.5 / 65535

    def test_wavelet_auto_improves_snr(self, workdir):
        result = run_cli(
            [
                "denoise",
                "noisy.pgm",
                "--threshold",
                "auto",
                "--reference",
                "clean.pgm",
                "--out",
                "out",
            ],
            cwd=workdir,
        )
        assert result.returncode == 0, result.stderr
        metrics = json.loads((workdir / "out" / "metrics.json").read_text())
        assert metrics["snr_gain_db"] > 0

    def test_svd_full_rank_is_identity(self, workdir):
        result = run_cli(
            ["denoise", "noisy.pgm", "--method", "svd-lowrank", "--rank", "64", "--out", "out"],
            cwd=workdir,
        )
        assert result.returncode == 0, result.stderr
        back = read_image(workdir / "out" / "denoised.pgm")
        noisy = read_image(workdir / "noisy.pgm")
        assert np.max(np.abs(back - np.clip(noisy, 0, 1))) <= 1.5 / 65535

    def test_rank_sweep_demo(self, workdir):
        result = run_cli(
            [
                "denoise",
                "clean.pgm",
                "--method",
                "svd-lowrank",
                "--rank",
                "4,16,64",
                "--sigma",
                "0.1",
                "--out",
                "demo",
            ],
            cwd=workdir,
        )
        assert result.returncode == 0, result.stderr
        rows = (workdir / "demo" / "snr_table.csv").read_text().strip().splitlines()
        assert len(rows) == 4  # header + one row per rank
        for rank in (4, 16, 64):
            assert (workdir / "demo" / f"clean_rank{rank}.pgm").exists()
            assert (workdir / "demo" / f"noisy_rank{rank}.pgm").exists()

    def test_missing_file_exit_2(self, workdir):
        result = run_cli(["denoise", "absent.pgm"], cwd=workdir)
        assert result.returncode == 2

    def test_bad_params_exit_3(self, workdir):
        result = run_cli(["denoise", "noisy.pgm", "--method", "svd-lowrank"], cwd=workdir)
        assert result.returncode == 3
        result = run_cli(["denoise", "noisy.pgm", "--threshold", "nope"], cwd=workdir)
        assert result.returncode == 3


class TestAnalyzeAndFlops:
    def test_bundled_lwfsn_is_perfect(self, tmp_path):
        result = run_cli(["analyze-pr", "lwfsn"], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["is_perfect"] is True

    def test_bundled_unet_verdict(self, tmp_path):
        result = run_cli(["analyze-pr", "unet", "--out", "report"], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["is_perfect"] is False
        assert payload["gain_dc"] == pytest.approx(2.0, abs=1e-6)
        saved = json.loads((tmp_path / "report" / "pr_report.json").read_text())
        assert saved == payload

    def test_flops_worked_example(self, tmp_path):
        result = run_cli(["flops", "unet", "--rows", "512", "--cols", "512"], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "10116661248"

    def test_schema_violation_exit_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"layers": [{"type": "conv", "out_ch": 2}]}))
        result = run_cli(["analyze-pr", str(bad)], cwd=tmp_path)
        assert result.returncode == 3
        assert "layer 0" in result.stderr

    def test_skip_concat_is_not_a_layer_type(self, tmp_path):
        from fdl.errors import ConfigError
        from fdl.network import spec_from_json

        layers = [
            {"type": "conv", "out_ch": 2, "in_ch": 1},
            {"type": "skip_concat", "from": -1},
            {"type": "conv", "out_ch": 1, "in_ch": 3},
        ]
        with pytest.raises(ConfigError, match="skip_concat"):
            spec_from_json({"layers": layers})
        bad = tmp_path / "concat.json"
        bad.write_text(json.dumps({"layers": layers}))
        result = run_cli(["analyze-pr", str(bad)], cwd=tmp_path)
        assert result.returncode == 3
        assert "skip_concat" in result.stderr

    def test_unknown_spec_exit_2(self, tmp_path):
        result = run_cli(["analyze-pr", "absent"], cwd=tmp_path)
        assert result.returncode == 2


TINY_TRAIN = {
    "epochs": 1,
    "images_per_epoch": 2,
    "seed": 5,
    "image_size": [16, 16],
    "n_validation": 2,
}


class TestTrainCommand:
    def test_zero_epochs_checkpoint_is_initialization(self, tmp_path):
        cfg = dict(TINY_TRAIN, epochs=0)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        result = run_cli(["train", "cfg.json", "--out", "run"], cwd=tmp_path)
        assert result.returncode == 0, result.stderr

        from fdl.training import build_toy, load_checkpoint

        loaded = load_checkpoint(tmp_path / "run" / "checkpoint")
        fresh = build_toy(seed=5)
        for a, b in zip(loaded.parameters(), fresh.parameters()):
            assert a.value.tobytes() == b.value.tobytes()

    def test_env_seed_overrides_config(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps(dict(TINY_TRAIN, epochs=0)))
        result = run_cli(
            ["train", "cfg.json", "--out", "run"], cwd=tmp_path, env={"FDL_SEED": "11"}
        )
        assert result.returncode == 0, result.stderr
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["seed"] == 11

    def test_model_checkpoint_denoises(self, tmp_path):
        cfg = dict(TINY_TRAIN, epochs=4, images_per_epoch=16, seed=1, image_size=[32, 32])
        cfg["init_mode"] = "shared_enc_dec"
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        result = run_cli(["train", "cfg.json", "--out", "run"], cwd=tmp_path)
        assert result.returncode == 0, result.stderr

        clean = piecewise_scene(64)
        noisy = add_noise(clean, NoiseModel(0.1, seed=1))
        write_pgm(tmp_path / "clean.pgm", clean)
        write_pgm(tmp_path / "noisy.pgm", noisy)
        result = run_cli(
            [
                "denoise",
                "noisy.pgm",
                "--method",
                "model",
                "--checkpoint",
                "run/checkpoint",
                "--reference",
                "clean.pgm",
                "--out",
                "den",
            ],
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        metrics = json.loads((tmp_path / "den" / "metrics.json").read_text())
        assert metrics["snr_gain_db"] > 0


class TestDamagedCheckpoint:
    """A damaged checkpoint is a bad parameter (exit 3), not a traceback."""

    @pytest.fixture
    def checkpoint(self, workdir):
        from fdl.training import build_toy, save_checkpoint

        save_checkpoint(build_toy(seed=0), workdir / "ckpt")
        return workdir / "ckpt"

    def denoise(self, workdir):
        args = ["denoise", "noisy.pgm", "--method", "model", "--checkpoint", "ckpt"]
        return run_cli(args + ["--out", "den"], cwd=workdir)

    def test_truncated_file_exit_3(self, workdir, checkpoint):
        path = checkpoint / "dec_kernel_1.f64"
        path.write_bytes(path.read_bytes()[:-13])
        result = self.denoise(workdir)
        assert result.returncode == 3, result.stderr
        assert "dec_kernel_1.f64" in result.stderr
        assert "Traceback" not in result.stderr

    def test_missing_entry_exit_3(self, workdir, checkpoint):
        manifest = json.loads((checkpoint / "checkpoint.json").read_text())
        manifest["parameters"] = [
            e for e in manifest["parameters"] if e["name"] != "enc_bias_2"
        ]
        (checkpoint / "checkpoint.json").write_text(json.dumps(manifest))
        result = self.denoise(workdir)
        assert result.returncode == 3, result.stderr
        assert "enc_bias_2" in result.stderr
        assert "Traceback" not in result.stderr

    def test_unparseable_manifest_exit_3(self, workdir, checkpoint):
        (checkpoint / "checkpoint.json").write_text('{"format": "fdl-checkpoint-v1", ')
        result = self.denoise(workdir)
        assert result.returncode == 3, result.stderr
        assert "cannot parse checkpoint manifest" in result.stderr

    @pytest.mark.parametrize(
        "damage",
        [
            lambda m: [m],
            lambda m: {**m, "parameters": [{**m["parameters"][0], "shape": "abc"}]},
            lambda m: {**m, "widths": 3},
            lambda m: {**m, "parameters": None},
        ],
        ids=["list-manifest", "string-shape", "int-widths", "null-parameters"],
    )
    def test_wrongly_typed_manifest_exit_3(self, workdir, checkpoint, damage):
        manifest = json.loads((checkpoint / "checkpoint.json").read_text())
        (checkpoint / "checkpoint.json").write_text(json.dumps(damage(manifest)))
        result = self.denoise(workdir)
        assert result.returncode == 3, result.stderr
        assert "checkpoint" in result.stderr
        assert "Traceback" not in result.stderr


def tree_bytes(root, skip=("manifest.json",)):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name in skip:
                continue
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


class TestExperimentCommand:
    def test_invalid_name_lists_choices(self, tmp_path):
        result = run_cli(["experiment", "nope"], cwd=tmp_path)
        assert result.returncode == 3
        assert "tight-frame" in result.stderr

    def test_generalization_csv_shape(self, tmp_path):
        result = run_cli(
            [
                "experiment",
                "generalization",
                "--seed",
                "1",
                "--epochs",
                "1",
                "--images-per-epoch",
                "2",
                "--image-size",
                "16",
                "--test-image-size",
                "32",
                "--out",
                "run",
            ],
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        rows = (tmp_path / "run" / "snr_table.csv").read_text().strip().splitlines()
        assert len(rows) == 4  # header + 3 models
        assert rows[0].count("sigma_") == 5

    def test_repeat_run_byte_identical(self, tmp_path):
        args = [
            "experiment",
            "tight-frame",
            "--seed",
            "7",
            "--epochs",
            "1",
            "--images-per-epoch",
            "2",
            "--image-size",
            "16",
            "--test-image-size",
            "32",
        ]
        r1 = run_cli(args + ["--out", "run_a"], cwd=tmp_path)
        r2 = run_cli(args + ["--out", "run_b"], cwd=tmp_path)
        assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
        a = tree_bytes(tmp_path / "run_a")
        b = tree_bytes(tmp_path / "run_b")
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name], f"{name} differs between reruns"
        # stdout reports are identical too
        assert r1.stdout == r2.stdout

    def test_manifest_written(self, tmp_path):
        result = run_cli(
            [
                "experiment",
                "bias-zero",
                "--seed",
                "3",
                "--epochs",
                "1",
                "--images-per-epoch",
                "2",
                "--image-size",
                "16",
                "--test-image-size",
                "32",
                "--out",
                "run",
            ],
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["command"][0] == "fdl"
        assert "report.json" in manifest["outputs"]
