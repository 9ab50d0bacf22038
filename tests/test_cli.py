"""Command-line surface: exit codes, outputs, determinism, image I/O."""

import importlib.util
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

from cli_env import cli_env, read_json_strict


# a JSON document nested deeper than the parser's recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000


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

    @pytest.mark.parametrize(
        "data, tokens",
        [
            (b"P2\n3 2\n255\n0 1 2\n3 4 5\n",
             [(b"P2", 2), (b"3", 4), (b"2", 6), (b"255", 10), (b"0", 12), (b"1", 14),
              (b"2", 16), (b"3", 18), (b"4", 20), (b"5", 22)]),
            # a # inside a token is part of it; a comment starts only where a token would
            (b"P2#c\n2 1#x\n255\n1 2",
             [(b"P2#c", 4), (b"2", 6), (b"1#x", 10), (b"255", 14), (b"1", 16), (b"2", 18)]),
            (b"P2\t2\x0b1\x0c255\r\n1\t2",
             [(b"P2", 2), (b"2", 4), (b"1", 6), (b"255", 10), (b"1", 13), (b"2", 15)]),
            (b"P2 2 1 255 12#3 4",
             [(b"P2", 2), (b"2", 4), (b"1", 6), (b"255", 10), (b"12#3", 15), (b"4", 17)]),
            (b"# made by hand\nP2\n2 1\n255\n7 8\n",
             [(b"P2", 17), (b"2", 19), (b"1", 21), (b"255", 25), (b"7", 27), (b"8", 29)]),
            (b"P5\n2 1\n255\n\x01\x02",
             [(b"P5", 2), (b"2", 4), (b"1", 6), (b"255", 10), (b"\x01\x02", 13)]),
        ],
        ids=["plain-p2", "glued-comments", "tab-vt-ff-cr", "hash-in-sample",
             "leading-comment", "p5-header"],
    )
    def test_header_tokens_and_end_offsets(self, data, tokens):
        from fdl.pnm import _tokens

        assert list(_tokens(data)) == tokens


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

    def test_cli_import_leaves_numpy_unloaded(self, tmp_path):
        # main() pins the BLAS threads before numpy loads, so importing the
        # package and its CLI must not load numpy
        code = "import sys, fdl, fdl.cli; print('numpy' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
            env=cli_env(),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"


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
        metrics = read_json_strict(workdir / "out" / "metrics.json")
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
        manifest = read_json_strict(workdir / "run" / "manifest.json")
        assert manifest["outputs"] == ["denoised.pgm", "metrics.json"]
        # the earlier run's files stay in place
        assert (workdir / "run" / "snr_table.csv").exists()
        assert (workdir / "run" / "clean_rank4.pgm").exists()

    @pytest.mark.parametrize(
        "args",
        [["noisy.pgm", "--reference", "blank.pgm"],
         ["blank.pgm", "--method", "svd-lowrank", "--rank", "1,2"]],
        ids=["reference", "rank-demo"],
    )
    def test_blank_reference_exit_3(self, workdir, args):
        # a reference of zero energy has no SNR: NaN and -Infinity are not JSON
        write_pgm(workdir / "blank.pgm", np.zeros((64, 64)))
        result = run_cli(["denoise", *args, "--out", "out"], cwd=workdir)
        assert result.returncode == 3, result.stderr
        want = "fdl: blank.pgm: the reference has zero energy, so its SNR is undefined\n"
        assert result.stderr == want
        assert not (workdir / "out").exists()

    def test_missing_file_exit_2(self, workdir):
        result = run_cli(["denoise", "absent.pgm"], cwd=workdir)
        assert result.returncode == 2

    def test_bad_params_exit_3(self, workdir):
        result = run_cli(["denoise", "noisy.pgm", "--method", "svd-lowrank"], cwd=workdir)
        assert result.returncode == 3
        result = run_cli(["denoise", "noisy.pgm", "--threshold", "nope"], cwd=workdir)
        assert result.returncode == 3

    @pytest.mark.parametrize(
        "args, flag, method",
        [
            (["--method", "svd-lowrank", "--rank", "2,3", "--reference", "clean.pgm"],
             "--reference", "svd-lowrank with a --rank list"),
            (["--rank", "3", "--sigma", "0.3", "--zero-bias", "--threshold", "0.5"],
             "--rank", "wavelet-shrink"),
            (["--method", "svd-lowrank", "--rank", "8", "--threshold", "0.5"],
             "--threshold", "svd-lowrank"),
            (["--method", "svd-lowrank", "--rank", "8", "--activation", "garrote"],
             "--activation", "svd-lowrank"),
            (["--method", "model", "--checkpoint", "ckpt", "--undecimated"],
             "--undecimated", "model"),
            (["--method", "model", "--checkpoint", "ckpt", "--rank", "8"], "--rank", "model"),
            (["--method", "svd-lowrank", "--rank", "8", "--sigma", "0.3"], "--sigma", "svd-lowrank"),
            (["--sigma", "0.2"], "--sigma", "wavelet-shrink"),
            (["--checkpoint", "ckpt"], "--checkpoint", "wavelet-shrink"),
            (["--method", "svd-lowrank", "--rank", "8", "--bias-scale", "0.5"],
             "--bias-scale", "svd-lowrank"),
            (["--method", "svd-lowrank", "--rank", "2,3", "--zero-bias"],
             "--zero-bias", "svd-lowrank with a --rank list"),
        ],
        ids=["demo-reference", "wavelet-rank", "svd-threshold", "svd-activation",
             "model-undecimated", "model-rank", "svd-sigma", "wavelet-sigma",
             "wavelet-checkpoint", "svd-bias-scale", "demo-zero-bias"],
    )
    def test_flag_the_method_does_not_read_exit_3(self, workdir, args, flag, method):
        # the input does not exist: the flags are checked before it is read
        result = run_cli(["denoise", "absent.pgm", *args, "--out", "out"], cwd=workdir)
        assert result.returncode == 3, result.stderr
        assert result.stderr == f"fdl: {flag} is not read by --method {method}\n"
        assert not (workdir / "out").exists()

    def test_flag_at_its_default_is_accepted(self, workdir):
        args = ["--method", "svd-lowrank", "--rank", "8", "--sigma", "0.1", "--threshold", "auto"]
        result = run_cli(["denoise", "noisy.pgm", *args, "--out", "out"], cwd=workdir)
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_threshold_exit_3(self, workdir, value):
        result = run_cli(["denoise", "noisy.pgm", "--threshold", value, "--out", "out"], cwd=workdir)
        assert result.returncode == 3, result.stderr
        assert result.stderr == f"fdl: --threshold must be a finite number or 'auto', got {value!r}\n"
        assert not (workdir / "out").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--method", "svd-lowrank", "--rank", "2,4", "--sigma", "nan"],
             "--sigma must be a finite number >= 0, got nan"),
            (["--method", "svd-lowrank", "--rank", "2,4", "--sigma", "-0.1"],
             "--sigma must be a finite number >= 0, got -0.1"),
            (["--method", "model", "--checkpoint", "ckpt", "--bias-scale", "nan"],
             "--bias-scale must be a finite number, got nan"),
            (["--method", "model", "--checkpoint", "ckpt", "--bias-scale", "inf"],
             "--bias-scale must be a finite number, got inf"),
        ],
        ids=["demo-sigma-nan", "demo-sigma-negative", "model-bias-scale-nan", "model-bias-scale-inf"],
    )
    def test_non_finite_number_exit_3(self, workdir, args, message):
        from fdl.training import build_toy, save_checkpoint

        save_checkpoint(build_toy(seed=0), workdir / "ckpt")
        result = run_cli(["denoise", "noisy.pgm", *args, "--out", "out"], cwd=workdir)
        assert result.returncode == 3, result.stderr
        assert result.stderr == f"fdl: {message}\n"
        assert not (workdir / "out").exists()

    @pytest.mark.skipif(importlib.util.find_spec("PIL") is not None, reason="Pillow is installed")
    def test_png_without_pillow_exit_2(self, workdir):
        (workdir / "x.png").write_bytes(b"\x89PNG\r\n\x1a\n")
        result = run_cli(["denoise", "x.png"], cwd=workdir)
        assert result.returncode == 2, result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert "cannot parse x.png" in result.stderr and "Pillow" in result.stderr

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
        saved = read_json_strict(tmp_path / "report" / "pr_report.json")
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
        nan, inf = float("nan"), float("inf")
        soft = {"kind": "soft_shrink", "t": 0.1}
        nan_let = {"kind": "let", "members": [[nan, soft]]}
        infinite_let = {"kind": "let", "members": [[inf, soft], [-inf, soft], [1.0, soft]]}
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
            ({"layers": [], "input_channels": -1}, "input_channels must be >= 1, got -1"),
            ({"layers": [], "input_channels": 0}, "input_channels must be >= 1, got 0"),
            ({"layers": [enc, dict(relu, activation={"kind": "dog_shrink", "p": 2.9}), dec]},
             "layer 1: p"),
            ({"layers": [enc, dict(relu, activation={"kind": "relu_bias", "t": "0.5"}), dec]},
             "layer 1: t"),
            # NaN passes every "< 0" test; Python's json reads the NaN literal
            ({"layers": [enc, dict(relu, activation={"kind": "relu_bias", "t": nan}), dec]},
             "layer 1: threshold must be a number >= 0, got nan"),
            ({"layers": [enc, dict(relu, activation={"kind": "relu_bias", "t": [0.1, nan]}), dec]},
             "layer 1: threshold entries must be numbers >= 0, got [0.1, nan]"),
            ({"layers": [enc, dict(relu, activation=nan_let), dec]},
             "layer 1: let weights must sum to 1, got nan"),
            ({"layers": [enc, dict(relu, activation=infinite_let), dec]},
             "layer 1: let weights must sum to 1, got nan"),
        ]
        for i, (payload, named) in enumerate(cases):
            bad = tmp_path / f"bad{i}.json"
            bad.write_text(json.dumps(payload))
            for command in (["analyze-pr"], ["flops", "--rows", "16", "--cols", "16"]):
                result = run_cli(command + [str(bad)], cwd=tmp_path)
                assert result.returncode == 3, (payload, command, result.stderr)
                assert named in result.stderr
                assert "Traceback" not in result.stderr

    def test_too_deep_for_the_probe_grid_exit_3(self, tmp_path):
        enc = {"type": "conv", "out_ch": 2, "in_ch": 1}
        dec = {"type": "conv", "out_ch": 1, "in_ch": 2}
        down = {"type": "resample", "direction": "down"}
        up = {"type": "resample", "direction": "up"}

        def analyze(depth):
            path = tmp_path / f"deep{depth}.json"
            path.write_text(json.dumps({"layers": [enc] + [down] * depth + [up] * depth + [dec]}))
            return run_cli(["analyze-pr", str(path)], cwd=tmp_path)

        four = analyze(4)
        assert four.returncode == 0, four.stderr
        assert json.loads(four.stdout)["is_perfect"] is False  # plain decimation drops samples
        five = analyze(5)
        assert five.returncode == 3, five.stderr
        assert five.stderr == "fdl: spec decimates 5 times; the 16x16 probe grid allows at most 4\n"

    def test_ideal_banks_ignore_the_filter_size(self, tmp_path):
        """An impulse has no extent: a frame pair of 99999-tap filters gets
        1x1 ideal banks (one 99999x99999 bank would take 74.5 GiB)."""
        layers = [
            {"type": "conv", "out_ch": 2, "in_ch": 1, "n_f": 99999},
            {"type": "conv", "out_ch": 1, "in_ch": 2, "n_f": 99999},
        ]
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({"layers": layers}))
        result = run_cli(["analyze-pr", str(wide)], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        payload = json.loads(result.stdout)
        assert payload["is_perfect"] is True
        assert (payload["gain_dc"], payload["gain_nyquist"], payload["max_recon_err"]) == (1.0, 1.0, 0.0)

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

    @pytest.mark.parametrize(
        "out", ["afile", os.path.join("afile", "sub")], ids=["file", "under-file"]
    )
    def test_unwritable_run_dir_exit_2(self, tmp_path, out):
        (tmp_path / "afile").write_text("not a directory")
        result = run_cli(["flops", "toy", "--rows", "8", "--cols", "8", "--out", out], cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith(f"fdl: cannot write run directory {out}: ")
        assert len(result.stderr.splitlines()) == 1 and "Traceback" not in result.stderr
        assert result.stdout == ""  # stdout follows the run directory
        assert (tmp_path / "afile").read_text() == "not a directory"

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

    @pytest.mark.parametrize("command", [["analyze-pr"], ["flops", "--rows", "16", "--cols", "16"]])
    def test_deeply_nested_spec_exit_2(self, tmp_path, command):
        (tmp_path / "deep.json").write_text(DEEP_JSON)
        result = run_cli(command + ["deep.json", "--out", "run"], cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("fdl: cannot parse deep.json")
        assert len(result.stderr.splitlines()) == 1
        assert not (tmp_path / "run").exists()


# epochs and validation images that draw no triangle image
IDLE = {"epochs": 0, "n_validation": 0}

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
        manifest = read_json_strict(tmp_path / "run" / "manifest.json")
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
        manifest = read_json_strict(tmp_path / "run" / "manifest.json")
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
        "changes, named",
        [
            ({"image_size": [-4, 16]}, "image_size entries must be >= 1"),
            ({"n_validation": -1}, "n_validation must be >= 0"),
            ({"batch_size": 1}, "unknown training config fields: ['batch_size']"),
            ({"triangles_per_image": [-1, 2]}, "bad triangle count range (-1, 2)"),
            ({"lr_initial": float("nan")}, "lr_initial needs one finite real value, got nan"),
            ({"lr_initial": float("inf")}, "lr_initial needs one finite real value, got inf"),
            ({"sigma_train": float("nan")}, "sigma_train needs one finite real value, got nan"),
            ({"sigma_train": -0.1}, "sigma_train must be >= 0, got -0.1"),
            # a config that draws no image is checked all the same
            ({**IDLE, "triangles_per_image": [-1, 2]}, "bad triangle count range (-1, 2)"),
            ({**IDLE, "triangles_per_image": [4, 2]}, "bad triangle count range (4, 2)"),
            ({**IDLE, "intensity_range": [0.5, 1.5]}, "intensity range must sit inside [0, 1]"),
            ({**IDLE, "image_size": [63, 63]}, "image_size entries must be >= 1 and even"),
        ],
        ids=["image_size-negative", "n_validation-negative", "batch_size-unknown",
             "triangles_per_image-negative", "lr_initial-nan", "lr_initial-inf", "sigma_train-nan",
             "sigma_train-negative", "idle-triangles_per_image-negative",
             "idle-triangles_per_image-reversed", "idle-intensity_range-above-1",
             "idle-image_size-odd"],
    )
    def test_out_of_range_config_exit_3(self, tmp_path, changes, named):
        (tmp_path / "cfg.json").write_text(json.dumps(dict(TINY_TRAIN, **changes)))
        result = run_cli(["train", "cfg.json", "--out", "run"], cwd=tmp_path)
        assert result.returncode == 3, result.stderr
        assert named in result.stderr
        assert len(result.stderr.splitlines()) == 1 and "Traceback" not in result.stderr
        assert not (tmp_path / "run").exists()

    def test_deeply_nested_config_exit_2(self, tmp_path):
        (tmp_path / "cfg.json").write_text(DEEP_JSON)
        result = run_cli(["train", "cfg.json", "--out", "run"], cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("fdl: cannot parse cfg.json")
        assert len(result.stderr.splitlines()) == 1
        assert not (tmp_path / "run").exists()

    def test_blank_validation_images_write_strict_json(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps(dict(TINY_TRAIN, triangles_per_image=[0, 0])))
        result = run_cli(["train", "cfg.json", "--out", "run"], cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        history = read_json_strict(tmp_path / "run" / "history.json")
        (row,) = history["epochs"]
        assert sorted(row) == ["epoch", "lr", "train_loss", "val_mse"]
        assert read_json_strict(tmp_path / "run" / "manifest.json")["seed"] == 5
        assert "RuntimeWarning" not in result.stderr

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
        assert len(read_json_strict(tmp_path / "run" / "history.json")["epochs"]) == 4

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
        metrics = read_json_strict(tmp_path / "den" / "metrics.json")
        assert metrics["snr_gain_db"] > 0


def _nested(depth):
    value = 1
    for _ in range(depth):
        value = [value]
    return value


def _spec_with_activation(activation):
    return {"layers": [{"type": "conv", "out_ch": 2, "in_ch": 1},
                       {"type": "activation", "activation": activation},
                       {"type": "conv", "out_ch": 1, "in_ch": 2}]}


class TestLongBadValues:
    """A message quoting a bad value from a file stays one short line."""

    @pytest.mark.parametrize(
        "command, payload, named",
        [
            (["train"], dict(TINY_TRAIN, epochs=_nested(500)), "malformed field: epochs"),
            (["analyze-pr"], {"layers": [{"type": "conv", "out_ch": list(range(500)), "in_ch": 1}]},
             "layer 0: out_ch must be an integer"),
            (["analyze-pr"], _spec_with_activation({"kind": "soft_shrink", "t": ["x"] * 2000}),
             "layer 1: t must be a number or a list of numbers"),
            (["analyze-pr"], _spec_with_activation({"kind": "soft_shrink", "t": [-1.0] * 2000}),
             "layer 1: threshold entries must be numbers >= 0"),
            (["analyze-pr"], _spec_with_activation(
                {"kind": "let", "members": [[["w"] * 2000, {"kind": "soft_shrink"}]]}),
             "layer 1: let weight must be a number"),
            (["train"], dict(TINY_TRAIN, init_mode="x" * 2000), "init_mode must be one of"),
            (["train"], dict(TINY_TRAIN, seed=-(10**1000)), "seed must be non-negative"),
            (["analyze-pr"], {"layers": [{"type": "x" * 2000}]}, "layer 0: unknown layer type"),
            (["analyze-pr"], {"layers": [{"type": "skip_add", "from": list(range(500))}]},
             "layer 0: skip reference"),
            (["analyze-pr"], {"layers": [{"type": "resample", "direction": "down",
                                          "kind": "plain", "s": 10**1000}]},
             "layer 0: resampling factor must be 2"),
        ],
        ids=["train-epochs", "spec-out_ch", "spec-t-strings", "spec-t-negative", "spec-let-weight",
             "train-init_mode", "train-seed", "spec-type", "spec-skip-reference", "spec-s"],
    )
    def test_exit_3_with_a_capped_value(self, tmp_path, command, payload, named):
        (tmp_path / "in.json").write_text(json.dumps(payload))
        result = run_cli(command + ["in.json"], cwd=tmp_path)
        assert result.returncode == 3, result.stderr
        assert named in result.stderr
        assert len(result.stderr.splitlines()) == 1 and len(result.stderr) < 200
        assert "..." in result.stderr


class TestDamagedCheckpoint:
    """A damaged checkpoint is a bad parameter (exit 3), not a traceback."""

    @pytest.fixture
    def checkpoint(self, workdir):
        from fdl.training import build_toy, save_checkpoint

        save_checkpoint(build_toy(seed=0), workdir / "ckpt")
        save_checkpoint(build_toy(seed=1), workdir / "outside")  # other weights beside it
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
        manifest = read_json_strict(checkpoint / "checkpoint.json")
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

    def test_deeply_nested_manifest_exit_3(self, workdir, checkpoint):
        (checkpoint / "checkpoint.json").write_text(DEEP_JSON)
        result = self.denoise(workdir)
        assert result.returncode == 3, result.stderr
        assert result.stderr.startswith("fdl: cannot parse checkpoint manifest")
        assert len(result.stderr.splitlines()) == 1
        assert not (workdir / "den").exists()

    @pytest.mark.parametrize(
        "name, value",
        [("dec_bias_0.f64", np.nan), ("dec_bias_0.f64", np.inf), ("enc_kernel_1.f64", np.nan)],
        ids=["nan-bias", "inf-bias", "nan-kernel"],
    )
    def test_non_finite_parameter_exit_3(self, workdir, checkpoint, name, value):
        values = np.fromfile(checkpoint / name, dtype="<f8")
        values[-1] = value
        values.tofile(checkpoint / name)
        result = self.denoise(workdir)
        assert result.returncode == 3, result.stderr
        file = os.path.join("ckpt", name)
        assert result.stderr == f"fdl: checkpoint file {file} holds a non-finite value\n"
        assert not (workdir / "den").exists()

    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda m: [m], "has format None"),
            (lambda m: {**m, "parameters": [{**m["parameters"][0], "shape": "abc"}]},
             "has a malformed field"),
            (lambda m: {**m, "widths": 3}, "has a malformed field"),
            (lambda m: {**m, "parameters": None}, "has a malformed field"),
            (lambda m: {**m, "widths": m["widths"][:2]}, "manifest of its parameters"),
            (lambda m: {**m, "parameters": [{**e, "trainable": "no"} for e in m["parameters"]]},
             "manifest of its parameters"),
            (lambda m: {**m, "format": "fdl-checkpoint-v2", "layers": m.pop("parameters")},
             "has format 'fdl-checkpoint-v2', not fdl-checkpoint-v1"),
            # the outside checkpoint exists, so the parent loaded its weights
            (lambda m: {**m, "parameters": [
                {**e, "file": f"../outside/{e['file']}"} for e in m["parameters"]
            ]}, "manifest of its parameters"),
            (lambda m: {**m, "note": "x"}, "manifest of its parameters"),
            (lambda m: {**m, "bias_mode": "zero_fixed"}, "manifest of its parameters"),
            (lambda m: {**m, "parameters": m["parameters"][::-1]}, "manifest of its parameters"),
            (lambda m: {**m, "widths": [6, 12, 24.0]}, "manifest of its parameters"),
        ],
        ids=["list-manifest", "string-shape", "int-widths", "null-parameters", "short-widths",
             "string-trainable", "format-v2", "file-outside", "extra-key",
             "contradicting-bias-mode", "reordered-parameters", "float-width"],
    )
    def test_wrongly_typed_manifest_exit_3(self, workdir, checkpoint, damage, named):
        manifest = read_json_strict(checkpoint / "checkpoint.json")
        (checkpoint / "checkpoint.json").write_text(json.dumps(damage(manifest)))
        result = self.denoise(workdir)
        assert result.returncode == 3, result.stderr
        assert result.stderr.startswith("fdl: checkpoint ") and named in result.stderr
        assert len(result.stderr.splitlines()) == 1 and "Traceback" not in result.stderr
        assert not (workdir / "den").exists()


def tree_bytes(root, skip=("manifest.json",)):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name in skip:
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
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

    @pytest.mark.parametrize(
        "flags, env, expected, run_dir",
        [
            ([], {}, {}, "tight-frame-seed0"),
            (["--seed", "9"], {"FDL_SEED": "4"}, {"seed": 4}, "tight-frame-seed4"),
        ],
        ids=["no-flags", "env-seed-over-flag"],
    )
    def test_unset_flags_leave_the_config_defaults(
        self, tmp_path, monkeypatch, flags, env, expected, run_dir
    ):
        import fdl.experiments
        from fdl.cli import main
        from fdl.experiments import ExperimentConfig

        class Report:
            def files(self):
                return {"report.json": {}}

            def to_json(self):
                return {}

        handed = []
        monkeypatch.setattr(
            fdl.experiments, "run_named_experiment",
            lambda name, cfg: handed.append((name, cfg)) or Report(),
        )
        for var in _THREAD_VARS:  # main() pins these in the environment
            monkeypatch.setenv(var, "1")
        monkeypatch.delenv("FDL_SEED", raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.chdir(tmp_path)
        assert main(["experiment", "tight-frame", *flags]) == 0
        assert handed == [("tight-frame", ExperimentConfig(**expected))]
        manifest = read_json_strict(tmp_path / "runs" / run_dir / "manifest.json")
        assert manifest["seed"] == ExperimentConfig(**expected).seed

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
        assert read_json_strict(tmp_path / "run" / "report.json")["experiment"] == "generalization"

    @pytest.mark.parametrize(
        "args",
        [
            ["denoise", "../noisy.pgm", "--reference", "../clean.pgm"],
            ["denoise", "../noisy.pgm", "--threshold", "0.05", "--undecimated"],
            ["denoise", "../noisy.pgm", "--method", "svd-lowrank", "--rank", "8"],
            ["denoise", "../noisy.pgm", "--method", "model", "--checkpoint", "../ckpt"],
            ["denoise", "../clean.pgm", "--method", "svd-lowrank", "--rank", "4,16"],
            ["analyze-pr", "toy"],
            ["flops", "toy", "--rows", "8", "--cols", "8"],
            ["train", "../cfg.json"],
            ["experiment", "tight-frame", "--seed", "7", "--epochs", "1",
             "--images-per-epoch", "2", "--image-size", "16", "--test-image-size", "32"],
        ],
        ids=["denoise-wavelet-auto", "denoise-wavelet-fixed", "denoise-svd", "denoise-model",
             "denoise-rank-demo", "analyze-pr", "flops", "train", "experiment-tight-frame"],
    )
    def test_repeat_run_byte_identical(self, workdir, args):
        from fdl.training import build_toy, save_checkpoint

        save_checkpoint(build_toy(seed=0), workdir / "ckpt")
        (workdir / "cfg.json").write_text(json.dumps(TINY_TRAIN))
        runs = []
        for side in ("a", "b"):  # the same command line from two working directories
            (workdir / side).mkdir()
            result = run_cli(args + ["--out", "run"], cwd=workdir / side)
            assert result.returncode == 0, result.stderr
            files = tree_bytes(workdir / side / "run", skip=())
            manifest = json.loads(files.pop("manifest.json"))
            del manifest["wall_clock_s"]
            assert manifest["outputs"] == sorted(files)
            runs.append((result.stdout, manifest, files))
        (stdout_a, manifest_a, files_a), (stdout_b, manifest_b, files_b) = runs
        assert files_a.keys() == files_b.keys()
        for name in files_a:
            assert files_a[name] == files_b[name], f"{name} differs between reruns"
        assert manifest_a == manifest_b
        # stdout reports are identical too
        assert stdout_a == stdout_b
        if args[0] == "experiment":
            report = read_json_strict(workdir / "a" / "run" / "report.json")
            assert report["experiment"] == "tight-frame"

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
        manifest = read_json_strict(tmp_path / "run" / "manifest.json")
        assert manifest["seed"] == 3
        assert manifest["command"][0] == "fdl"
        assert "report.json" in manifest["outputs"]
        assert read_json_strict(tmp_path / "run" / "report.json")["experiment"] == "bias-zero"
