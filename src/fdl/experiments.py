"""The three trained-model experiments and their reports.

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

Every runner gets its models from :func:`train_models`, which trains only
what the caller's memo lacks, so each distinct model of a protocol trains
once however many experiments evaluate it.  Runners return plain report
objects; each report's ``files()`` lists the JSON metrics, CSV tables and
16-bit PGM images it consists of, for the command-line layer to write.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from numbers import Integral

import numpy as np

from .datasets import NoiseModel, add_noise, piecewise_scene
from .errors import ConfigError, is_kind
from .framelets import PhaseComplementReport, check_phase_complementary
from .metrics import estimate_sigma_mad, snr_db
from .training import ToyModel, TrainConfig, TrainHistory, train

__all__ = [
    "NOISE_LEVELS",
    "MODELS",
    "ExperimentConfig",
    "TightFrameReport",
    "BiasZeroReport",
    "GeneralizationReport",
    "train_models",
    "run_tight_frame_experiment",
    "run_bias_zero_probe",
    "run_generalization_experiment",
    "run_named_experiment",
    "response_mosaic",
]

# Evaluation noise levels for the generalization experiment.
NOISE_LEVELS = (0.100, 0.150, 0.175, 0.200, 0.225)

# The (init_mode, bias_mode) pairs of the reference model each experiment
# evaluates, by experiment name.
MODELS = {
    "tight-frame": (("shared_enc_dec", "learned"), ("independent", "learned")),
    "bias-zero": (("shared_enc_dec", "learned"),),
    "generalization": (("independent", "learned"), ("independent", "zero_fixed")),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs of the trained-model experiments.

    Its defaults, and the fields it lacks, come from :class:`TrainConfig`;
    desk-scale runs shrink ``epochs`` and ``images_per_epoch``.
    """

    seed: int = TrainConfig.seed
    epochs: int = TrainConfig.epochs
    images_per_epoch: int = TrainConfig.images_per_epoch
    image_size: tuple = TrainConfig.image_size
    test_image_size: int = 256

    def __post_init__(self):
        size = self.test_image_size
        if not is_kind(size, Integral) or size < 16 or size % 2:
            raise ConfigError(f"test_image_size must be an even integer >= 16, got {size!r}")

    def test_image(self) -> np.ndarray:
        return piecewise_scene(self.test_image_size)


def train_models(cfg: ExperimentConfig, keys, trained=None) -> dict:
    """``{(init_mode, bias_mode): (model, history)}`` of the reference model
    in each pair of ``keys``, trained under every field of ``cfg`` but
    ``test_image_size``.

    ``trained`` is a memo keyed by the full :class:`TrainConfig`: a pair it
    holds for this protocol is served from it, any other is trained and
    added to it.  Training is deterministic, so a served model is bitwise
    the one a fresh training would give.
    """
    trained = {} if trained is None else trained
    protocol = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "test_image_size"}
    models = {}
    for init_mode, bias_mode in keys:
        train_cfg = TrainConfig(**protocol, init_mode=init_mode, bias_mode=bias_mode)
        if train_cfg not in trained:
            trained[train_cfg] = train(train_cfg)
        models[init_mode, bias_mode] = trained[train_cfg]
    return models


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

    def files(self) -> dict:
        """``{name: payload}`` of the run files: the report with the scale of
        each response mosaic, and the mosaics as images."""
        payload = self.to_json()
        files = {"report.json": payload}
        for label, diag in (("shared", self.shared), ("independent", self.independent)):
            mosaic, scale = response_mosaic(diag.response)
            payload[f"{label}_response_scale"] = scale
            files[f"response_{label}.pgm"] = mosaic
        return files


def run_tight_frame_experiment(cfg: ExperimentConfig, trained=None) -> TightFrameReport:
    """Train both initializations and probe the deepest kernel pair."""
    models = train_models(cfg, MODELS["tight-frame"], trained)
    (shared, shared_history), (independent, independent_history) = models.values()
    return TightFrameReport(
        seed=cfg.seed,
        shared=check_phase_complementary(*shared.deepest_pair()),
        independent=check_phase_complementary(*independent.deepest_pair()),
        shared_history=shared_history,
        independent_history=independent_history,
        shared_model=shared,
        independent_model=independent,
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

    def files(self) -> dict:
        """``{name: payload}`` of the run files: the report and its images."""
        return {"report.json": self.to_json(), **_pgm_files(self.images)}


def run_bias_zero_probe(model: ToyModel, clean, sigma, seed) -> BiasZeroReport:
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

    def files(self) -> dict:
        """``{name: payload}`` of the run files: the report, the SNR table
        (one row per model, one column per noise level) and the images."""
        payload = self.to_json()
        table = [["model"] + [f"sigma_{s:.3f}" for s in self.noise_levels]]
        for name in ("baseline", "adaptive", "bias_free"):
            table.append([name] + [f"{v:.6f}" for v in payload["snr_db"][name]])
        return {"report.json": payload, "snr_table.csv": table, **_pgm_files(self.images)}


def run_generalization_experiment(cfg: ExperimentConfig, trained=None) -> GeneralizationReport:
    """Train baseline and bias-free models, evaluate three variants at each
    of :data:`NOISE_LEVELS`.

    The adaptive variant reuses the baseline weights and rescales every
    bias by ``sigma_hat / sigma_train`` at inference, recovering the
    baseline exactly when the estimate matches the training level.
    """
    models = train_models(cfg, MODELS["generalization"], trained)
    (baseline, _), (bias_free, _) = models.values()

    clean = cfg.test_image()
    rows = {"noisy": [], "baseline": [], "adaptive": [], "bias_free": []}
    estimates = []
    images = {"clean": clean}
    for i, sigma in enumerate(NOISE_LEVELS):
        noisy = add_noise(clean, NoiseModel(sigma_eta=sigma, seed=(cfg.seed, 10, i)))
        sigma_hat = estimate_sigma_mad(noisy)
        estimates.append(float(sigma_hat))
        out_base = baseline.predict(noisy)
        out_adap = baseline.predict(noisy, bias_scale=sigma_hat / TrainConfig.sigma_train)
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
        sigma_train=TrainConfig.sigma_train,
        noise_levels=NOISE_LEVELS,
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
# Run files
# ---------------------------------------------------------------------------


def _pgm_files(images) -> dict:
    return {f"{name}.pgm": image for name, image in images.items()}


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


def run_named_experiment(name, cfg: ExperimentConfig):
    """Dispatch used by the command-line layer; returns the report."""
    if name not in MODELS:
        raise ConfigError(f"unknown experiment {name!r}; valid names: {', '.join(MODELS)}")
    if name == "tight-frame":
        return run_tight_frame_experiment(cfg)
    if name == "generalization":
        return run_generalization_experiment(cfg)
    ((model, _),) = train_models(cfg, MODELS["bias-zero"]).values()
    return run_bias_zero_probe(model, cfg.test_image(), TrainConfig.sigma_train, cfg.seed)
