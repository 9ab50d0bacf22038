"""Command-line surface: exit codes, outputs, determinism, image I/O."""

import json
import os
import subprocess
import sys
import time

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

    @pytest.mark.parametrize("count", ["0", "-3", "two"])
    def test_thread_count_below_one_exit_3(self, tmp_path, count):
        args = ["--threads", count, "flops", "toy", "--rows", "8", "--cols", "8"]
        result = run_cli(args, cwd=tmp_path)
        assert result.returncode == 3, result.stderr
        want = f"fdl: argument --threads: must be an integer >= 1, got {count!r}\n"
        assert result.stderr == want
        assert result.stdout == ""


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

    def test_reused_run_dir_lists_only_this_run(self, workdir):
        demo = ["denoise", "clean.pgm", "--method", "svd-lowrank", "--rank", "4,16", "--out", "run"]
        assert run_cli(demo, cwd=workdir).returncode == 0
        result = run_cli(["denoise", "noisy.pgm", "--out", "run"], cwd=workdir)
        assert result.returncode == 0, result.stderr
        manifest = json.loads((workdir / "run" / "manifest.json").read_text())
        assert manifest["outputs"] == ["denoised.pgm", "metrics.json"]
        # the earlier run's files stay in place
        assert (workdir / "run" / "snr_table.csv").exists()
        assert (workdir / "run" / "clean_rank4.pgm").exists()

    def test_missing_file_exit_2(self, workdir):
        result = run_cli(["denoise", "absent.pgm"], cwd=workdir)
        assert result.returncode == 2

    def test_bad_params_exit_3(self, workdir):
        result = run_cli(["denoise", "noisy.pgm", "--method", "svd-lowrank"], cwd=workdir)
        assert result.returncode == 3
        result = run_cli(["denoise", "noisy.pgm", "--threshold", "nope"], cwd=workdir)
        assert result.returncode == 3

    @pytest.mark.parametrize(
        "data, named",
        [
            (b"P5\n4 4\n255\n" + bytes(7), "truncated"),  # truncated payload
            (b"P5\n400 400\n65535\n" + bytes(32), "truncated"),  # header claims more pixels
            (b"P2\n2 2\n255\n0 1\n2 x\n", "malformed PGM sample"),  # non-integer sample
            (b"P2\n1 1\n255\n" + b"9" * 400 + b"\n", "malformed PGM sample"),  # beyond float
            (b"P2\n2 2\n255\n-5 300\n7 8\n", "outside [0, 255]"),  # outside [0, maxval]
            (b"P5\n2 1\n200\n" + bytes([7, 250]), "outside [0, 200]"),  # byte above maxval
            (b"P2\n2 1\n255\n1 2 3\n", "holds 3 samples, header declares 2"),
        ],
        ids=["truncated", "short-header-claim", "p2-token", "p2-overflow", "p2-out-of-range",
             "p5-above-maxval", "p2-extra-samples"],
    )
    def test_malformed_pgm_exit_2(self, workdir, data, named):
        (workdir / "bad.pgm").write_bytes(data)
        result = run_cli(["denoise", "bad.pgm"], cwd=workdir)
        assert result.returncode == 2, result.stderr
        assert "cannot parse bad.pgm" in result.stderr and named in result.stderr
        assert "Traceback" not in result.stderr


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

    @pytest.mark.parametrize(
        "name,perfect,gain_dc,gain_nyquist",
        [
            ("lwfsn", True, 1.0, 1.0),
            ("red", True, 1.0, 1.0),
            ("unet", False, 2.0, 1.0),
            ("rlwfsn", False, 0.0, 1.0),
            ("toy", False, 1.0, 0.5),
        ],
    )
    def test_bundled_verdicts_and_gains(self, tmp_path, name, perfect, gain_dc, gain_nyquist):
        result = run_cli(["analyze-pr", name], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["is_perfect"] is perfect
        assert payload["gain_dc"] == pytest.approx(gain_dc, rel=0, abs=1e-12)
        assert payload["gain_nyquist"] == pytest.approx(gain_nyquist, rel=0, abs=1e-12)

    def test_flops_worked_example(self, tmp_path):
        result = run_cli(["flops", "unet", "--rows", "512", "--cols", "512"], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "10116661248"

    def test_schema_violation_exit_3(self, tmp_path):
        enc = {"type": "conv", "out_ch": 2, "in_ch": 1}
        dec = {"type": "conv", "out_ch": 1, "in_ch": 2}
        relu = {"type": "activation", "activation": {"kind": "relu_bias", "t": 0.0}}
        down = {"type": "resample", "direction": "down", "kind": "dwt_low"}
        up = {"type": "resample", "direction": "up", "kind": "dwt_low"}
        half_resolution = [enc, relu, down, dec]
        factor_four = [enc, dict(down, kind="plain", s=4), dict(up, kind="plain", s=4), dec]
        bad_let = {"kind": "let", "members": [[1.0, 5]]}
        valid = [enc, relu, dec]
        cases = [  # (spec, what stderr names)
            ([enc, relu, dec], "spec must be a JSON object"),
            ({"layers": [enc, {"type": "activation", "activation": bad_let}, dec]}, "layer 1"),
            ({"layers": [{"type": "conv", "out_ch": 2}]}, "layer 0"),
            ({"layers": [enc, down, {"type": "skip_add", "from": 0}, up, dec]}, "layer 2"),
            ({"layers": half_resolution}, "level 1"),
            ({"layers": half_resolution, "residual": True}, "level 1"),
            ({"layers": factor_four}, "factor"),
            # wrongly typed fields that a coercing parser would accept
            ({"layers": valid, "residual": "false"}, "residual must be a boolean"),
            ({"layers": [dict(enc, bias="no"), relu, dec]}, "layer 0: bias"),
            ({"layers": [dict(enc, in_ch=True), relu, dec]}, "layer 0: in_ch"),
            ({"layers": [dict(enc, n_f="3"), relu, dec]}, "layer 0: n_f"),
            ({"layers": valid + [{"type": "skip_add", "from": "-1"}]}, "layer 3: skip reference"),
            ({"layers": valid, "input_channels": 1.5}, "input_channels must be an integer"),
            ({"layers": [enc, dict(relu, activation={"kind": "dog_shrink", "p": 2.9}), dec]},
             "layer 1: p"),
            ({"layers": [enc, dict(relu, activation={"kind": "relu_bias", "t": "0.5"}), dec]},
             "layer 1: t"),
        ]
        for i, (payload, named) in enumerate(cases):
            bad = tmp_path / f"bad{i}.json"
            bad.write_text(json.dumps(payload))
            for command in (["analyze-pr"], ["flops", "--rows", "16", "--cols", "16"]):
                result = run_cli(command + [str(bad)], cwd=tmp_path)
                assert result.returncode == 3, (payload, command, result.stderr)
                assert named in result.stderr
                assert "Traceback" not in result.stderr

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

    def test_unparseable_spec_exit_2(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"layers": [')
        for command in (["analyze-pr"], ["flops", "--rows", "16", "--cols", "16"]):
            result = run_cli(command + ["bad.json"], cwd=tmp_path)
            assert result.returncode == 2, result.stderr
            assert "cannot parse bad.json" in result.stderr
            assert "Traceback" not in result.stderr


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
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        written = sorted(
            str(p.relative_to(tmp_path / "run"))
            for p in (tmp_path / "run").rglob("*")
            if p.is_file() and p.name != "manifest.json"
        )
        assert manifest["outputs"] == written
        assert "checkpoint/checkpoint.json" in written and "history.json" in written

    def test_env_seed_overrides_config(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps(dict(TINY_TRAIN, epochs=0)))
        result = run_cli(
            ["train", "cfg.json", "--out", "run"], cwd=tmp_path, env={"FDL_SEED": "11"}
        )
        assert result.returncode == 0, result.stderr
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["seed"] == 11

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epochs", "abc"),
            ("image_size", 5),
            ("epochs", 1.5),
            ("seed", "abc"),
            ("seed", True),
            ("image_size", ["a", "b"]),
            ("image_size", [16, 16, 16]),
            ("sigma_train", "x"),
            ("intensity_range", [0, "1"]),
            ("seed", -1),
        ],
        ids=["epochs-abc", "image_size-5", "epochs-1.5", "seed-abc", "seed-true",
             "image_size-strings", "image_size-triple", "sigma_train-x", "intensity_range-string",
             "seed-negative"],
    )
    def test_wrongly_typed_config_exit_3(self, tmp_path, field, value):
        (tmp_path / "cfg.json").write_text(json.dumps(dict(TINY_TRAIN, **{field: value})))
        result = run_cli(["train", "cfg.json", "--out", "run"], cwd=tmp_path)
        assert result.returncode == 3, result.stderr
        if value == -1:
            assert "seed must be non-negative" in result.stderr
        else:
            assert "training config has a malformed field" in result.stderr
        assert len(result.stderr.splitlines()) == 1 and "Traceback" not in result.stderr
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("image_size", [-4, 16], "image_size entries must be >= 1"),
            ("n_validation", -1, "n_validation must be >= 0"),
            ("batch_size", 1, "unknown training config fields: ['batch_size']"),
            ("triangles_per_image", [-1, 2], "bad triangle count range (-1, 2)"),
        ],
        ids=["image_size-negative", "n_validation-negative", "batch_size-unknown",
             "triangles_per_image-negative"],
    )
    def test_out_of_range_config_exit_3(self, tmp_path, field, value, named):
        (tmp_path / "cfg.json").write_text(json.dumps(dict(TINY_TRAIN, **{field: value})))
        result = run_cli(["train", "cfg.json", "--out", "run"], cwd=tmp_path)
        assert result.returncode == 3, result.stderr
        assert named in result.stderr
        assert len(result.stderr.splitlines()) == 1 and "Traceback" not in result.stderr
        assert not (tmp_path / "run").exists()

    def test_integral_numbers_accepted_for_real_fields(self, tmp_path):
        cfg = dict(TINY_TRAIN, epochs=0, lr_initial=1, intensity_range=[0, 1])
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        result = run_cli(["train", "cfg.json", "--out", "run"], cwd=tmp_path)
        assert result.returncode == 0, result.stderr

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
            lambda m: {**m, "widths": m["widths"][:2]},
            lambda m: {**m, "parameters": [{**e, "trainable": "no"} for e in m["parameters"]]},
        ],
        ids=["list-manifest", "string-shape", "int-widths", "null-parameters", "short-widths",
             "string-trainable"],
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
        assert "Traceback" not in result.stderr
        for name in ("tight-frame", "bias-zero", "generalization"):
            assert name in result.stderr
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("name", ["generalization", "bias-zero"])
    def test_bad_test_image_size_exits_before_training(self, tmp_path, name):
        started = time.perf_counter()
        result = run_cli(["experiment", name, "--test-image-size", "7"], cwd=tmp_path)
        elapsed = time.perf_counter() - started
        assert result.returncode == 3, result.stderr
        assert "test_image_size must be an even integer >= 16, got 7" in result.stderr
        assert len(result.stderr.splitlines()) == 1 and "Traceback" not in result.stderr
        assert not (tmp_path / "runs").exists()
        # the default protocol (25 epochs x 192 images) would train for minutes
        assert elapsed < 30, f"took {elapsed:.1f} s"

    def test_negative_seed_exit_3(self, tmp_path):
        result = run_cli(["experiment", "tight-frame", "--seed", "-1"], cwd=tmp_path)
        assert result.returncode == 3, result.stderr
        assert "seed must be non-negative" in result.stderr
        assert len(result.stderr.splitlines()) == 1 and "Traceback" not in result.stderr
        assert not (tmp_path / "runs").exists()

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
