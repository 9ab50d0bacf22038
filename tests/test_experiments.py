"""Datasets, metrics, training loop, and experiment plumbing (fast scale)."""

import itertools
import json
import pathlib
import time

import numpy as np
import pytest

from fdl import experiments, tensor, training
from fdl.cli import _finish_run
from fdl.datasets import NoiseModel, add_noise, gen_triangles, piecewise_scene
from fdl.errors import ConfigError, ShapeError
from fdl.experiments import (
    NOISE_LEVELS,
    ExperimentConfig,
    response_mosaic,
    run_bias_zero_probe,
    run_generalization_experiment,
    run_named_experiment,
    run_tight_frame_experiment,
)
from fdl.metrics import SNR_CAP_DB, estimate_sigma_mad, snr_db
from fdl.training import (
    BIAS_MODES,
    INIT_MODES,
    TrainConfig,
    build_toy,
    load_checkpoint,
    save_checkpoint,
    train,
)


class TestTriangles:
    def test_same_seed_identical(self):
        a = gen_triangles(3, (32, 32), (2, 6), (0.1, 1.0), 5)
        b = gen_triangles(3, (32, 32), (2, 6), (0.1, 1.0), 5)
        assert a.tobytes() == b.tobytes()

    def test_zero_triangles_blank(self):
        np.testing.assert_array_equal(gen_triangles(2, (16, 16), (0, 0), (0.1, 1.0), 1), 0.0)

    def test_values_in_unit_range(self):
        imgs = gen_triangles(4, (32, 32), (2, 6), (0.1, 1.0), 2)
        assert imgs.min() >= 0.0 and imgs.max() <= 1.0
        assert imgs.max() > 0.0  # something was drawn

    def test_default_epoch_budget(self):
        assert TrainConfig().images_per_epoch == 192

    def test_bad_intensity_range(self):
        with pytest.raises(ConfigError):
            TrainConfig(intensity_range=(0.5, 1.5))


class TestNoise:
    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    def test_negative_or_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(ConfigError, match="sigma_eta must be finite and >= 0"):
            NoiseModel(sigma)

    def test_zero_sigma_is_identity(self):
        x = piecewise_scene(32)
        np.testing.assert_array_equal(add_noise(x, NoiseModel(0.0, seed=3)), x)

    def test_unclamped_and_exactly_additive(self):
        x = np.zeros((1, 1, 64, 64))
        y = add_noise(x, NoiseModel(0.2, seed=4))
        assert y.min() < 0.0  # no clamping of the additive model
        np.testing.assert_array_equal(y - x, y)

    def test_empirical_std(self):
        x = np.zeros((1, 1, 256, 256))
        y = add_noise(x, NoiseModel(0.1, seed=5))
        assert abs(np.std(y - x) - 0.1) < 0.003

    def test_same_seed_same_field(self):
        x = piecewise_scene(32)
        m = NoiseModel(0.1, seed=6)
        assert add_noise(x, m).tobytes() == add_noise(x, m).tobytes()


class TestMadEstimator:
    def test_constant_image(self):
        assert estimate_sigma_mad(np.full((1, 1, 16, 16), 0.7)) == 0.0

    def test_pure_gaussian_noise(self):
        for seed in range(10):
            y = add_noise(np.zeros((1, 1, 256, 256)), NoiseModel(0.1, seed=seed))
            assert 0.085 <= estimate_sigma_mad(y) <= 0.115

    def test_piecewise_scene_with_noise(self):
        for seed in range(10):
            y = add_noise(piecewise_scene(256), NoiseModel(0.1, seed=seed))
            assert 0.08 <= estimate_sigma_mad(y) <= 0.13

    def test_scale_equivariance(self):
        noise = add_noise(np.zeros((1, 1, 64, 64)), NoiseModel(0.05, seed=7))
        base = estimate_sigma_mad(noise)
        assert estimate_sigma_mad(3.0 * noise) == pytest.approx(3.0 * base, rel=1e-12)


class TestSnr:
    def test_identical_images_capped(self):
        x = piecewise_scene(32)
        assert snr_db(x, x) == SNR_CAP_DB

    def test_constructed_ratio(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 1, 64, 64))
        noise = rng.normal(size=x.shape)
        noise *= np.linalg.norm(x.ravel()) / (10.0 * np.linalg.norm(noise.ravel()))
        assert snr_db(x, x + noise) == pytest.approx(20.0, abs=0.5)

    def test_zero_estimate(self):
        x = piecewise_scene(32)
        assert snr_db(x, np.zeros_like(x)) == pytest.approx(0.0, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            snr_db(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 8, 8)))

    def test_zero_energy_reference_has_no_snr(self):
        blank = np.zeros((1, 1, 4, 4))
        with pytest.raises(ConfigError, match="reference has zero energy"):
            snr_db(blank, blank + 0.5)
        assert snr_db(blank, blank) == SNR_CAP_DB  # identical images stay capped


class TestScene:
    def test_deterministic_unit_range_piecewise(self):
        a = piecewise_scene(64)
        assert a.tobytes() == piecewise_scene(64).tobytes()
        assert a.min() >= 0.0 and a.max() <= 1.0
        assert len(np.unique(a)) < 10  # genuinely piecewise constant


class TestToyModel:
    def test_reference_kernel_dims(self):
        model = build_toy(seed=0)
        assert [k.value.shape for k in model.enc_kernels] == [
            (6, 1, 3, 3),
            (12, 6, 3, 3),
            (24, 12, 3, 3),
        ]
        assert [k.value.shape for k in model.dec_kernels] == [
            (6, 1, 3, 3),
            (12, 6, 3, 3),
            (24, 12, 3, 3),
        ]

    def test_shared_init_copies_encoder(self):
        model = build_toy(seed=1, init_mode="shared_enc_dec")
        for enc, dec in zip(model.enc_kernels, model.dec_kernels):
            np.testing.assert_array_equal(enc.value, dec.value)

    def test_independent_init_differs(self):
        model = build_toy(seed=1, init_mode="independent")
        assert not np.array_equal(model.enc_kernels[0].value, model.dec_kernels[0].value)

    def test_pct_init_reconstructs_nonneg_input(self):
        model = build_toy(seed=0, init_mode="pct_delta")
        x = piecewise_scene(32)
        out = model.predict(x)
        assert np.max(np.abs(out - x)) < 1e-6

    def test_forward_shape_preserved(self):
        model = build_toy(seed=2)
        out = model.predict(np.random.default_rng(0).uniform(size=(1, 1, 32, 32)))
        assert out.shape == (1, 1, 32, 32)

    def test_zero_fixed_biases_not_trainable(self):
        model = build_toy(seed=3, bias_mode="zero_fixed")
        for b in model.enc_biases + model.dec_biases:
            assert not b.trainable
            np.testing.assert_array_equal(b.value, 0.0)

    @staticmethod
    def perturbed(init_mode, bias_mode="learned"):
        model = build_toy(seed=6, init_mode=init_mode, bias_mode=bias_mode)
        rng = np.random.default_rng(6)
        for p in model.parameters():
            if p.trainable:
                p.value += rng.normal(scale=0.05, size=p.value.shape)
        return model, rng.uniform(size=(1, 1, 16, 16))

    @pytest.mark.parametrize("bias_mode", ["learned", "zero_fixed"])
    @pytest.mark.parametrize("init_mode", ["independent", "shared_enc_dec", "pct_delta"])
    def test_predict_is_forward_bitwise(self, init_mode, bias_mode):
        model, y = self.perturbed(init_mode, bias_mode)
        assert model.predict(y).tobytes() == model.forward(y).value.tobytes()

    def test_predict_in_strips_is_the_untiled_route_bitwise(self, monkeypatch):
        model, _ = self.perturbed("independent")
        y = np.random.default_rng(7).uniform(size=(1, 1, 256, 256))
        strips = []
        take_strips = tensor._conv_strips
        monkeypatch.setattr(tensor, "_conv_strips", lambda *a: strips.append(a[2]) or take_strips(*a))
        tiled = model.predict(y)
        assert len(strips) == 6  # every conv of the model at 256x256
        monkeypatch.setattr(tensor, "STRIP_BYTES", 1 << 40)
        assert model.predict(y).tobytes() == tiled.tobytes()
        assert len(strips) == 6

    def test_bias_surgery_is_forward_with_those_biases(self):
        model, y = self.perturbed("shared_enc_dec")
        scaled = model.predict(y, bias_scale=1.7)
        dropped = model.predict(y, zero_bias=True)
        biases = model.enc_biases + model.dec_biases
        for b in biases:
            b.value *= 1.7
        assert scaled.tobytes() == model.forward(y).value.tobytes()
        for b in biases:
            b.value[:] = 0.0
        np.testing.assert_array_equal(dropped, model.forward(y).value)

    @pytest.mark.parametrize("size", [64, 256])
    @pytest.mark.parametrize("seed", [6, 7, 8])
    def test_bias_scale_is_input_gain_normalization(self, seed, size):
        # the model is positively homogeneous in (input, biases); scaling
        # by a power of two is exact, so the identity holds bit for bit
        model = build_toy(seed=seed)
        rng = np.random.default_rng(seed)
        for p in model.parameters():
            p.value += rng.normal(scale=0.05, size=p.value.shape)
        y = rng.uniform(size=(1, 1, size, size))
        for k in (-2, -1, 1, 3):
            s = 2.0**k
            assert model.predict(y, bias_scale=s).tobytes() == (s * model.predict(y / s)).tobytes()

    def test_adaptive_scale_one_is_baseline(self):
        model = build_toy(seed=4, init_mode="shared_enc_dec")
        y = piecewise_scene(32)
        np.testing.assert_array_equal(model.predict(y, bias_scale=1.0), model.predict(y))


def tiny_cfg(**kw):
    defaults = dict(epochs=1, images_per_epoch=4, seed=9, image_size=(16, 16), n_validation=2)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTraining:
    def test_zero_epochs_keeps_initialization(self):
        # the initialization of the model the config names, for every pair of modes
        for init_mode, bias_mode in itertools.product(INIT_MODES, BIAS_MODES):
            cfg = tiny_cfg(epochs=0, init_mode=init_mode, bias_mode=bias_mode)
            model, history = train(cfg)
            assert history.epochs == []
            fresh = build_toy(cfg.seed, cfg.init_mode, cfg.bias_mode)
            for p, b in zip(model.parameters(), fresh.parameters(), strict=True):
                assert p.value.tobytes() == b.value.tobytes(), (init_mode, bias_mode)
                assert p.trainable is b.trainable

    def test_blank_validation_image_leaves_the_snr_mean_of_the_others(self, monkeypatch):
        cfg = tiny_cfg(n_validation=3)
        clean, noisy = training._validation_set(cfg)
        clean[1] = 0.0
        monkeypatch.setattr(training, "_validation_set", lambda _: (clean, noisy))
        model, history = train(cfg)
        (row,) = history.epochs
        outs = [model.predict(noisy[i]) for i in range(3)]
        want = np.mean([snr_db(clean[i], outs[i]) for i in (0, 2)])
        assert np.isfinite(row["val_snr_db"]) and row["val_snr_db"] == want
        assert row["val_mse"] == np.mean([(o - clean[i]) ** 2 for i, o in enumerate(outs)])

    def test_all_blank_validation_has_no_snr(self):
        _, history = train(tiny_cfg(triangles_per_image=(0, 0)))
        (row,) = history.epochs
        assert "val_snr_db" not in row and row["val_mse"] >= 0.0

    def test_history_rows(self):
        _, history = train(tiny_cfg(seed=6, epochs=2))
        assert len(history.epochs) == 2
        assert {"epoch", "lr", "train_loss", "val_mse", "val_snr_db"} <= set(history.epochs[0])
        assert history.epochs[0]["lr"] == pytest.approx(1e-3)
        assert history.epochs[1]["lr"] == pytest.approx(5e-4)  # linear decay to zero

    def test_bit_reproducible(self):
        results = []
        for _ in range(2):
            model, _ = train(tiny_cfg(seed=7, init_mode="shared_enc_dec"))
            results.append(b"".join(p.value.tobytes() for p in model.parameters()))
        assert results[0] == results[1]

    def test_config_json_round_trip(self):
        cfg = tiny_cfg(epochs=3, init_mode="shared_enc_dec")
        clone = TrainConfig.from_json(json.loads(json.dumps(cfg.to_json())))
        assert clone == cfg

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_json({"learning_rate": 1.0})

    @pytest.mark.parametrize(
        "payload", [[], {"epochs": "abc"}, {"lr_initial": None}, {"image_size": 5}]
    )
    def test_malformed_config_rejected(self, payload):
        with pytest.raises(ConfigError):
            TrainConfig.from_json(payload)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            train(tiny_cfg(seed=-1))


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        model, _ = train(tiny_cfg(seed=8))
        save_checkpoint(model, tmp_path)
        clone = load_checkpoint(tmp_path)
        for a, b in zip(model.parameters(), clone.parameters()):
            assert a.value.tobytes() == b.value.tobytes()
            assert a.trainable == b.trainable
        y = piecewise_scene(16)
        np.testing.assert_array_equal(model.predict(y), clone.predict(y))

    @pytest.mark.parametrize("bias_mode", ["learned", "zero_fixed"])
    def test_manifest_bias_mode_follows_trainable_flags(self, tmp_path, bias_mode):
        save_checkpoint(build_toy(seed=8, bias_mode=bias_mode), tmp_path)
        with open(tmp_path / "checkpoint.json", encoding="utf-8") as fh:
            assert json.load(fh)["bias_mode"] == bias_mode
        clone = load_checkpoint(tmp_path)
        learned = [b.trainable for b in clone.enc_biases + clone.dec_biases]
        assert learned == [bias_mode == "learned"] * len(learned)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ConfigError):
            load_checkpoint(tmp_path)

    def test_v1_manifest_matches_golden_bytes(self, tmp_path):
        golden = (pathlib.Path(__file__).parent / "data" / "checkpoint_v1.json").read_bytes()
        model = build_toy(seed=0)
        files = save_checkpoint(model, tmp_path)
        assert files[0] == "checkpoint.json"
        assert sorted(files) == sorted(p.name for p in tmp_path.iterdir())
        assert (tmp_path / "checkpoint.json").read_bytes() == golden
        clone = load_checkpoint(tmp_path)
        for a, b in zip(model.parameters(), clone.parameters(), strict=True):
            assert a.value.tobytes() == b.value.tobytes()
            assert a.trainable is b.trainable


def micro_experiment_cfg(seed=11):
    return ExperimentConfig(
        seed=seed, epochs=1, images_per_epoch=4, image_size=(16, 16), test_image_size=32
    )


class TestExperimentPlumbing:
    def test_noise_level_grid(self):
        assert NOISE_LEVELS == (0.100, 0.150, 0.175, 0.200, 0.225)

    def test_tight_frame_report_shape(self):
        report = run_tight_frame_experiment(micro_experiment_cfg())
        payload = report.to_json()
        assert payload["experiment"] == "tight-frame"
        assert set(payload["shared_init"]) == {
            "diag_energy",
            "offdiag_energy",
            "ratio",
            "c_estimate",
            "is_pct",
        }
        assert report.shared.response.shape == report.independent.response.shape

    def test_tight_frame_deterministic(self):
        a = run_tight_frame_experiment(micro_experiment_cfg())
        b = run_tight_frame_experiment(micro_experiment_cfg())
        assert a.shared.ratio == b.shared.ratio
        assert a.independent.ratio == b.independent.ratio

    def test_tight_frame_zero_epochs_smoke(self):
        # diagnostics stay computable on untrained models
        cfg = ExperimentConfig(seed=1, epochs=0, images_per_epoch=4, image_size=(16, 16))
        report = run_tight_frame_experiment(cfg)
        assert np.isfinite(report.shared.ratio)
        assert np.isfinite(report.independent.ratio)

    def test_pct_init_zero_bias_identity(self):
        # untrained sign-duplicated-impulse model with biases removed
        # reproduces any nonnegative input
        model = build_toy(seed=0, init_mode="pct_delta")
        x = piecewise_scene(32)
        out = model.predict(x, zero_bias=True)
        assert np.max(np.abs(out - x)) < 1e-6

    def test_bias_zero_probe_fields(self):
        model = build_toy(seed=12, init_mode="pct_delta")
        report = run_bias_zero_probe(model, piecewise_scene(32), sigma=0.1, seed=12)
        payload = report.to_json()
        assert payload["snr_drop_db"] == pytest.approx(
            report.snr_normal - report.snr_zero_bias
        )
        assert set(report.images) == {"clean", "noisy", "normal", "zero_bias"}

    def test_response_mosaic_range(self):
        rng = np.random.default_rng(13)
        mosaic, scale = response_mosaic(rng.normal(size=(3, 3, 4, 4)))
        assert mosaic.shape == (12, 12)
        assert mosaic.min() >= 0.0 and mosaic.max() <= 1.0
        assert scale > 0

    def test_run_named_experiment_writes_files(self, tmp_path):
        out = tmp_path / "run"
        report = run_named_experiment("tight-frame", micro_experiment_cfg())
        _finish_run(out, ["experiment"], time.time(), {}, report.files())
        assert (out / "report.json").exists()
        assert (out / "response_shared.pgm").exists()
        assert (out / "response_independent.pgm").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == sorted(report.files())

    def test_generalization_writer(self, tmp_path):
        out = tmp_path / "run"
        report = run_named_experiment("generalization", micro_experiment_cfg())
        _finish_run(out, ["experiment"], time.time(), {}, report.files())
        table = (out / "snr_table.csv").read_text().strip().splitlines()
        assert len(table) == 4  # header + 3 model rows
        assert table[0].startswith("model,sigma_0.100")
        assert len(report.snr_baseline) == 5
        # adaptive view recovers the baseline when the estimate matches
        clean = report.images["clean"]
        base = report.baseline_model.predict(clean, bias_scale=1.0)
        np.testing.assert_array_equal(base, report.baseline_model.predict(clean))

    def test_unknown_experiment_name(self):
        with pytest.raises(ConfigError, match="tight-frame"):
            run_named_experiment("nope", micro_experiment_cfg())


class TestTrainModels:
    @pytest.fixture
    def train_calls(self, monkeypatch):
        """The ``TrainConfig`` of every training the experiments start."""
        calls = []

        def counting_train(cfg):
            calls.append(cfg)
            return train(cfg)

        monkeypatch.setattr(experiments, "train", counting_train)
        return calls

    def test_shared_model_trains_once(self, train_calls):
        trained = {}
        tight = run_tight_frame_experiment(micro_experiment_cfg(), trained)
        general = run_generalization_experiment(micro_experiment_cfg(), trained)
        assert len(train_calls) == 3  # (independent, learned) is served the second time
        assert len(trained) == 3
        assert general.baseline_model is tight.independent_model

    def test_memo_is_keyed_by_protocol(self, train_calls):
        trained = {}
        run_tight_frame_experiment(micro_experiment_cfg(seed=11), trained)
        run_tight_frame_experiment(micro_experiment_cfg(seed=12), trained)
        assert len(train_calls) == 4 and len(trained) == 4
        assert [cfg.seed for cfg in train_calls] == [11, 11, 12, 12]

    def test_served_models_give_the_same_reports(self):
        trained = {}
        run_tight_frame_experiment(micro_experiment_cfg(), trained)
        served = run_generalization_experiment(micro_experiment_cfg(), trained)
        fresh = run_generalization_experiment(micro_experiment_cfg())
        assert json.dumps(served.to_json()) == json.dumps(fresh.to_json())
        for name, image in fresh.images.items():
            assert served.images[name].tobytes() == image.tobytes(), name
