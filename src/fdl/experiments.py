"""The three trained-model experiments and their report writers.

1. Tight-frame emergence: train the reference model twice, once with
   independently drawn encoder/decoder kernels and once with the decoder
   initialized as a copy of the encoder, then probe the deepest kernel
   pair for rectified-reconstruction structure.
2. Bias zeroing: evaluate a trained model normally and with all biases
   forced to zero; the zero-bias model reconstructs part of the noise.
3. Generalization: compare the trained baseline against an adaptive
   variant (biases rescaled at inference by the estimated over trained
   noise level) and a bias-free variant (biases frozen at zero during
   training) across increasing noise levels.

Runners return plain report objects; ``write_*`` helpers persist them as
JSON metrics, CSV tables, and 16-bit PGM images under a run directory.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, fields
from numbers import Integral

import numpy as np

from .datasets import NoiseModel, add_noise, piecewise_scene
from .errors import ConfigError, is_kind
from .framelets import PhaseComplementReport, check_phase_complementary
from .metrics import estimate_sigma_mad, snr_db
from .pnm import write_pgm
from .training import ToyModel, TrainConfig, TrainHistory, build_toy, train

__all__ = [
    "NOISE_LEVELS",
    "ExperimentConfig",
    "TightFrameReport",
    "BiasZeroReport",
    "GeneralizationReport",
    "run_tight_frame_experiment",
    "run_bias_zero_probe",
    "run_generalization_experiment",
    "write_tight_frame_report",
    "write_bias_zero_report",
    "write_generalization_report",
    "response_mosaic",
]

# Evaluation noise levels for the generalization experiment.
NOISE_LEVELS = (0.100, 0.150, 0.175, 0.200, 0.225)


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs of the trained-model experiments.

    Defaults follow the full protocol (25 epochs, 192 images per epoch);
    desk-scale runs shrink ``epochs`` and ``images_per_epoch``.
    """

    seed: int = 0
    epochs: int = 25
    images_per_epoch: int = 192
    lr_initial: float = 1e-3
    sigma_train: float = 0.1
    image_size: tuple = (64, 64)
    test_image_size: int = 256

    def __post_init__(self):
        size = self.test_image_size
        if not is_kind(size, Integral) or size < 16 or size % 2:
            raise ConfigError(f"test_image_size must be an even integer >= 16, got {size!r}")

    def test_image(self) -> np.ndarray:
        return piecewise_scene(self.test_image_size)


def _train_model(cfg: ExperimentConfig, init_mode, bias_mode="learned"):
    """Build the reference model in the given modes and train it under every
    field of ``cfg`` but ``test_image_size``; returns ``(model, history)``."""
    protocol = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "test_image_size"}
    model = build_toy(seed=cfg.seed, init_mode=init_mode, bias_mode=bias_mode)
    return model, train(model, TrainConfig(**protocol, init_mode=init_mode, bias_mode=bias_mode))


def _diagnostic_dict(report: PhaseComplementReport) -> dict:
    return {
        "diag_energy": report.diag_energy,
        "offdiag_energy": report.offdiag_energy,
        "ratio": report.ratio,
        "c_estimate": report.c_estimate,
        "is_pct": report.is_pct,
    }


# ---------------------------------------------------------------------------
# Tight-frame emergence
# ---------------------------------------------------------------------------


@dataclass
class TightFrameReport:
    seed: int
    shared: PhaseComplementReport
    independent: PhaseComplementReport
    shared_history: TrainHistory
    independent_history: TrainHistory
    shared_model: ToyModel
    independent_model: ToyModel

    def to_json(self) -> dict:
        return {
            "experiment": "tight-frame",
            "seed": self.seed,
            "shared_init": _diagnostic_dict(self.shared),
            "independent_init": _diagnostic_dict(self.independent),
            "shared_ratio_lower": bool(self.shared.ratio < self.independent.ratio),
            "history": {
                "shared": self.shared_history.to_json(),
                "independent": self.independent_history.to_json(),
            },
        }


def run_tight_frame_experiment(cfg: ExperimentConfig) -> TightFrameReport:
    """Train both initializations and probe the deepest kernel pair."""
    models, histories = {}, {}
    for mode in ("shared_enc_dec", "independent"):
        models[mode], histories[mode] = _train_model(cfg, mode)
    diags = {
        mode: check_phase_complementary(*models[mode].deepest_pair()) for mode in models
    }
    return TightFrameReport(
        seed=cfg.seed,
        shared=diags["shared_enc_dec"],
        independent=diags["independent"],
        shared_history=histories["shared_enc_dec"],
        independent_history=histories["independent"],
        shared_model=models["shared_enc_dec"],
        independent_model=models["independent"],
    )


# ---------------------------------------------------------------------------
# Bias zeroing
# ---------------------------------------------------------------------------


@dataclass
class BiasZeroReport:
    sigma: float
    snr_noisy_input: float
    snr_normal: float
    snr_zero_bias: float
    clean_drift_normal: float     # RMS distance of the model output from a clean input
    clean_drift_zero_bias: float
    denoise_rmse: float           # RMS error of the normal model on the noisy input
    images: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "experiment": "bias-zero",
            "sigma": self.sigma,
            "snr_noisy_input_db": self.snr_noisy_input,
            "snr_normal_db": self.snr_normal,
            "snr_zero_bias_db": self.snr_zero_bias,
            "snr_drop_db": self.snr_normal - self.snr_zero_bias,
            "clean_drift_normal": self.clean_drift_normal,
            "clean_drift_zero_bias": self.clean_drift_zero_bias,
            "denoise_rmse": self.denoise_rmse,
        }


def run_bias_zero_probe(model: ToyModel, clean, sigma=0.1, seed=0) -> BiasZeroReport:
    """Evaluate a trained model with and without its biases.

    Zeroing the biases disables the suppression mechanism, so part of the
    noise is reconstructed; on a clean input the zero-bias model drifts
    less from the input than the denoising model does.
    """
    noisy = add_noise(clean, NoiseModel(sigma_eta=sigma, seed=(seed, 20)))
    out_normal = model.predict(noisy)
    out_zero = model.predict(noisy, zero_bias=True)
    recon_normal = model.predict(clean)
    recon_zero = model.predict(clean, zero_bias=True)
    return BiasZeroReport(
        sigma=sigma,
        snr_noisy_input=snr_db(clean, noisy),
        snr_normal=snr_db(clean, out_normal),
        snr_zero_bias=snr_db(clean, out_zero),
        clean_drift_normal=float(np.sqrt(np.mean((recon_normal - clean) ** 2))),
        clean_drift_zero_bias=float(np.sqrt(np.mean((recon_zero - clean) ** 2))),
        denoise_rmse=float(np.sqrt(np.mean((out_normal - clean) ** 2))),
        images={
            "clean": clean,
            "noisy": noisy,
            "normal": out_normal,
            "zero_bias": out_zero,
        },
    )


# ---------------------------------------------------------------------------
# Generalization across noise levels
# ---------------------------------------------------------------------------


@dataclass
class GeneralizationReport:
    seed: int
    sigma_train: float
    noise_levels: tuple
    snr_noisy_input: list
    snr_baseline: list
    snr_adaptive: list
    snr_bias_free: list
    sigma_estimates: list
    baseline_model: ToyModel
    bias_free_model: ToyModel
    images: dict = field(default_factory=dict)

    def degradation(self, row) -> float:
        """SNR change from the lowest to the highest evaluated noise level."""
        return row[-1] - row[0]

    def to_json(self) -> dict:
        return {
            "experiment": "generalization",
            "seed": self.seed,
            "sigma_train": self.sigma_train,
            "noise_levels": list(self.noise_levels),
            "sigma_estimates": self.sigma_estimates,
            "snr_db": {
                "noisy_input": self.snr_noisy_input,
                "baseline": self.snr_baseline,
                "adaptive": self.snr_adaptive,
                "bias_free": self.snr_bias_free,
            },
            "degradation_db": {
                "baseline": self.degradation(self.snr_baseline),
                "adaptive": self.degradation(self.snr_adaptive),
                "bias_free": self.degradation(self.snr_bias_free),
            },
        }


def run_generalization_experiment(
    cfg: ExperimentConfig, noise_levels=NOISE_LEVELS
) -> GeneralizationReport:
    """Train baseline and bias-free models, evaluate three variants.

    The adaptive variant reuses the baseline weights and rescales every
    bias by ``sigma_hat / sigma_train`` at inference, recovering the
    baseline exactly when the estimate matches the training level.
    """
    baseline, _ = _train_model(cfg, "independent")
    bias_free, _ = _train_model(cfg, "independent", bias_mode="zero_fixed")

    clean = cfg.test_image()
    rows = {"noisy": [], "baseline": [], "adaptive": [], "bias_free": []}
    estimates = []
    images = {"clean": clean}
    for i, sigma in enumerate(noise_levels):
        noisy = add_noise(clean, NoiseModel(sigma_eta=sigma, seed=(cfg.seed, 10, i)))
        sigma_hat = estimate_sigma_mad(noisy)
        estimates.append(float(sigma_hat))
        out_base = baseline.predict(noisy)
        out_adap = baseline.predict(noisy, bias_scale=sigma_hat / cfg.sigma_train)
        out_free = bias_free.predict(noisy)
        rows["noisy"].append(snr_db(clean, noisy))
        rows["baseline"].append(snr_db(clean, out_base))
        rows["adaptive"].append(snr_db(clean, out_adap))
        rows["bias_free"].append(snr_db(clean, out_free))
        images[f"noisy_{sigma:.3f}"] = noisy
        images[f"baseline_{sigma:.3f}"] = out_base
        images[f"adaptive_{sigma:.3f}"] = out_adap
        images[f"bias_free_{sigma:.3f}"] = out_free
    return GeneralizationReport(
        seed=cfg.seed,
        sigma_train=cfg.sigma_train,
        noise_levels=tuple(noise_levels),
        snr_noisy_input=rows["noisy"],
        snr_baseline=rows["baseline"],
        snr_adaptive=rows["adaptive"],
        snr_bias_free=rows["bias_free"],
        sigma_estimates=estimates,
        baseline_model=baseline,
        bias_free_model=bias_free,
        images=images,
    )


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------


def response_mosaic(response) -> tuple:
    """Tile a (rows, cols, N, N) response tensor into one 2-D image.

    Returns ``(mosaic01, scale)`` where values map ``[-scale, +scale]``
    to ``[0, 1]`` around mid-gray.
    """
    response = np.asarray(response, dtype=float)
    rows, cols, n_r, n_c = response.shape
    mosaic = response.transpose(0, 2, 1, 3).reshape(rows * n_r, cols * n_c)
    scale = float(np.max(np.abs(mosaic)))
    if scale == 0.0:
        return np.full(mosaic.shape, 0.5), 0.0
    return 0.5 + 0.5 * mosaic / scale, scale


def _dump_json(payload, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_tight_frame_report(report: TightFrameReport, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    payload = report.to_json()
    for label, diag in (("shared", report.shared), ("independent", report.independent)):
        mosaic, scale = response_mosaic(diag.response)
        payload[f"{label}_response_scale"] = scale
        write_pgm(os.path.join(out_dir, f"response_{label}.pgm"), mosaic)
    _dump_json(payload, os.path.join(out_dir, "report.json"))


def write_bias_zero_report(report: BiasZeroReport, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _dump_json(report.to_json(), os.path.join(out_dir, "report.json"))
    for name, image in report.images.items():
        write_pgm(os.path.join(out_dir, f"{name}.pgm"), image)


def write_generalization_report(report: GeneralizationReport, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _dump_json(report.to_json(), os.path.join(out_dir, "report.json"))
    with open(os.path.join(out_dir, "snr_table.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model"] + [f"sigma_{s:.3f}" for s in report.noise_levels])
        writer.writerow(["baseline"] + [f"{v:.6f}" for v in report.snr_baseline])
        writer.writerow(["adaptive"] + [f"{v:.6f}" for v in report.snr_adaptive])
        writer.writerow(["bias_free"] + [f"{v:.6f}" for v in report.snr_bias_free])
    for name, image in report.images.items():
        write_pgm(os.path.join(out_dir, f"{name}.pgm"), image)


def experiment_names():
    return ("tight-frame", "bias-zero", "generalization")


def run_named_experiment(name, cfg: ExperimentConfig, out_dir):
    """Dispatch used by the command-line layer; returns the report."""
    if name == "tight-frame":
        report = run_tight_frame_experiment(cfg)
        write_tight_frame_report(report, out_dir)
    elif name == "bias-zero":
        model, _ = _train_model(cfg, "shared_enc_dec")
        report = run_bias_zero_probe(
            model, cfg.test_image(), sigma=cfg.sigma_train, seed=cfg.seed
        )
        write_bias_zero_report(report, out_dir)
    elif name == "generalization":
        report = run_generalization_experiment(cfg)
        write_generalization_report(report, out_dir)
    else:
        raise ConfigError(
            f"unknown experiment {name!r}; valid names: {', '.join(experiment_names())}"
        )
    return report
