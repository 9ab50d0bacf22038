"""Trainable three-level encoder-decoder model and its training loop.

The model mirrors the reference design used in the experiments: kernels of
6, 12 and 24 channels with 3x3 taps, rectifiers with learned per-channel
biases throughout, a channel-symmetric decoder applied through the tensor
transpose, and no resampling.  Training pairs noisy triangle images with
their clean versions under a mean-squared-error loss, Adam, batch size 1,
and a learning rate decaying linearly to zero over the epochs.

Everything is reproducible: all randomness derives from the config seed
through fixed-purpose seed tuples, so a rerun with the same config is
bit-identical on one thread.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from numbers import Integral, Real

import numpy as np

from . import autodiff as ad
from .datasets import NoiseModel, TriangleDatasetConfig, add_noise, gen_triangles
from .errors import ConfigError, NumericError, is_kind
from .metrics import snr_db
from .network import NUMPY_OPS, TOY_WIDTHS, build_toy_spec, evaluate
from .optim import Adam, xavier_uniform_init
from .tensor import as_image, signed_impulse_bank, tensor_transpose

__all__ = [
    "TrainConfig",
    "ToyModel",
    "TrainHistory",
    "build_toy",
    "train",
    "save_checkpoint",
    "load_checkpoint",
]

INIT_MODES = ("independent", "shared_enc_dec", "pct_delta")
BIAS_MODES = ("learned", "zero_fixed")
# Kind of each numeric config field; a pair field holds two values of its kind.
_FIELD_KINDS = {
    "epochs": Integral, "images_per_epoch": Integral, "seed": Integral,
    "n_validation": Integral, "lr_initial": Real, "sigma_train": Real,
    "image_size": Integral, "triangles_per_image": Integral, "intensity_range": Real,
}
_PAIR_FIELDS = ("image_size", "triangles_per_image", "intensity_range")


@dataclass(frozen=True)
class TrainConfig:
    """Training protocol; the learning rate decays linearly to zero."""

    epochs: int = 25
    images_per_epoch: int = 192
    lr_initial: float = 1e-3
    seed: int = 0
    init_mode: str = "independent"
    bias_mode: str = "learned"
    sigma_train: float = 0.1
    image_size: tuple = (64, 64)
    triangles_per_image: tuple = (2, 6)
    intensity_range: tuple = (0.1, 1.0)
    n_validation: int = 8

    def __post_init__(self):
        for name, kind in _FIELD_KINDS.items():
            value, pair = getattr(self, name), name in _PAIR_FIELDS
            values = tuple(value) if pair and isinstance(value, (list, tuple)) else (value,)
            if len(values) != (2 if pair else 1) or not all(is_kind(v, kind) for v in values):
                count = "two" if pair else "one"
                raise ConfigError(
                    f"training config has a malformed field: {name} needs {count} "
                    f"{kind.__name__.lower()} value{'s' if pair else ''}, got {value!r}"
                )
            if pair:
                object.__setattr__(self, name, values)
        if self.epochs < 0 or self.n_validation < 0 or self.images_per_epoch < 1:
            raise ConfigError("epochs and n_validation must be >= 0, images_per_epoch >= 1")
        if min(self.image_size) < 1:
            raise ConfigError(f"image_size entries must be >= 1, got {list(self.image_size)}")
        if self.lr_initial <= 0:
            raise ConfigError(f"lr_initial must be positive, got {self.lr_initial}")
        if self.init_mode not in INIT_MODES:
            raise ConfigError(f"init_mode must be one of {INIT_MODES}, got {self.init_mode!r}")
        if self.bias_mode not in BIAS_MODES:
            raise ConfigError(f"bias_mode must be one of {BIAS_MODES}, got {self.bias_mode!r}")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "TrainConfig":
        if not isinstance(payload, dict):
            raise ConfigError("training config is not a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown training config fields: {sorted(unknown)}")
        return cls(**payload)  # __post_init__ checks the kind of every field


class ToyModel:
    """Encoder-decoder model with symmetric channel widths.

    The layer graph is :func:`~fdl.network.build_toy_spec`; the model binds
    its parameters to that spec and evaluates it with
    :func:`~fdl.network.evaluate`.  Decoder kernels are stored with the
    same shape as their encoder partners and applied through the tensor
    transpose, which keeps the pairing between the two sides explicit.
    """

    def __init__(self, enc_kernels, enc_biases, dec_kernels, dec_biases):
        self.enc_kernels = enc_kernels
        self.enc_biases = enc_biases
        self.dec_kernels = dec_kernels
        self.dec_biases = dec_biases
        self.spec = build_toy_spec(self.widths, enc_kernels[0].value.shape[-1])

    @property
    def widths(self):
        return tuple(k.value.shape[0] for k in self.enc_kernels)

    def parameters(self):
        return list(self.enc_kernels) + self.enc_biases + list(self.dec_kernels) + self.dec_biases

    def _bind(self, kernel, transpose, bias):
        """One (kernel, bias) pair per conv of ``self.spec``: the encoder
        levels, then the decoder levels deepest first, transposed."""
        enc = [(kernel(k), bias(b)) for k, b in zip(self.enc_kernels, self.enc_biases)]
        dec = [(transpose(kernel(k)), bias(b)) for k, b in zip(self.dec_kernels, self.dec_biases)]
        return enc + dec[::-1]

    def forward(self, y) -> ad.Node:
        """Differentiable forward pass on a (1, 1, H, W) image."""
        weights = self._bind(lambda k: k, ad.transpose, lambda b: b)
        return evaluate(self.spec, weights, ad.constant(as_image(y)), ad)

    def predict(self, y, bias_scale=1.0, zero_bias=False) -> np.ndarray:
        """Plain numpy inference with optional bias surgery.

        ``bias_scale`` multiplies every learned bias (the adaptive variant
        scales by the estimated over trained noise level); ``zero_bias``
        drops them entirely.
        """

        def bias(b):
            return None if zero_bias else bias_scale * b.value

        weights = self._bind(lambda k: k.value, tensor_transpose, bias)
        return evaluate(self.spec, weights, as_image(y), NUMPY_OPS)

    def deepest_pair(self):
        """Encoder/decoder kernel values of the deepest level."""
        return self.enc_kernels[-1].value, self.dec_kernels[-1].value


def build_toy(seed=0, init_mode="independent", bias_mode="learned"):
    """Construct the trainable model: widths :data:`~fdl.network.TOY_WIDTHS`
    and 3x3 kernels.

    ``independent`` draws encoder and decoder kernels separately from the
    fan-balanced uniform law; ``shared_enc_dec`` copies each encoder
    kernel into its decoder partner; ``pct_delta`` installs deterministic
    sign-duplicated impulse pairs (zero biases), which reconstruct any
    nonnegative input exactly.
    """
    if init_mode not in INIT_MODES:
        raise ConfigError(f"init_mode must be one of {INIT_MODES}, got {init_mode!r}")
    if bias_mode not in BIAS_MODES:
        raise ConfigError(f"bias_mode must be one of {BIAS_MODES}, got {bias_mode!r}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    chain = (1,) + TOY_WIDTHS
    shapes = [(c_out, c_in, 3, 3) for c_in, c_out in zip(chain, TOY_WIDTHS)]
    rng = np.random.default_rng((seed, 0))
    trainable_bias = bias_mode == "learned"

    if init_mode == "pct_delta":
        enc_values = [signed_impulse_bank(s[1], (1.0, -1.0), s[0], 3) for s in shapes]
        dec_values = [v.copy() for v in enc_values]
    else:
        enc_values = [xavier_uniform_init(s, rng) for s in shapes]
        if init_mode == "shared_enc_dec":
            dec_values = [v.copy() for v in enc_values]
        else:
            dec_values = [xavier_uniform_init(s, rng) for s in shapes]

    enc_kernels = [ad.Parameter(v) for v in enc_values]
    dec_kernels = [ad.Parameter(v) for v in dec_values]
    enc_biases = [ad.Parameter(np.zeros(s[0]), trainable=trainable_bias) for s in shapes]
    dec_biases = [ad.Parameter(np.zeros(s[1]), trainable=trainable_bias) for s in shapes]
    return ToyModel(enc_kernels, enc_biases, dec_kernels, dec_biases)


@dataclass
class TrainHistory:
    """Per-epoch record of the run."""

    epochs: list = field(default_factory=list)

    def append(self, **row):
        self.epochs.append(row)

    def to_json(self):
        return {"epochs": self.epochs}


def _validation_set(cfg: TrainConfig):
    clean = gen_triangles(
        TriangleDatasetConfig(
            n_images=cfg.n_validation,
            size=cfg.image_size,
            triangles_per_image=cfg.triangles_per_image,
            seed=(cfg.seed, 3),
            intensity_range=cfg.intensity_range,
        )
    )
    noisy = np.stack(
        [
            add_noise(clean[i], NoiseModel(cfg.sigma_train, seed=(cfg.seed, 4, i)))
            for i in range(cfg.n_validation)
        ]
    )
    return clean, noisy


def train(model: ToyModel, cfg: TrainConfig) -> TrainHistory:
    """Run the full protocol; returns the per-epoch history.

    A fresh set of triangle images is generated every epoch; noise is
    drawn per image, and every image is one Adam step (batch size 1).
    """
    optimizer = Adam(model.parameters())
    history = TrainHistory()
    val_clean, val_noisy = (None, None)
    if cfg.n_validation > 0:
        val_clean, val_noisy = _validation_set(cfg)

    for epoch in range(cfg.epochs):
        lr = cfg.lr_initial * (1.0 - epoch / cfg.epochs)
        images = gen_triangles(
            TriangleDatasetConfig(
                n_images=cfg.images_per_epoch,
                size=cfg.image_size,
                triangles_per_image=cfg.triangles_per_image,
                seed=(cfg.seed, 1, epoch),
                intensity_range=cfg.intensity_range,
            )
        )
        losses = []
        for i in range(cfg.images_per_epoch):
            optimizer.zero_grad()
            clean = images[i]
            noisy = add_noise(clean, NoiseModel(cfg.sigma_train, seed=(cfg.seed, 2, epoch, i)))
            loss = ad.mse(model.forward(noisy), ad.constant(clean))
            if not np.isfinite(loss.value):
                raise NumericError(f"loss diverged at epoch {epoch}, image {i}")
            ad.backward(loss)
            losses.append(float(loss.value))
            optimizer.step(lr)

        row = {"epoch": epoch, "lr": lr, "train_loss": float(np.mean(losses))}
        if val_clean is not None:
            outs = [model.predict(val_noisy[i]) for i in range(cfg.n_validation)]
            row["val_mse"] = float(
                np.mean([(o - val_clean[i]) ** 2 for i, o in enumerate(outs)])
            )
            row["val_snr_db"] = float(
                np.mean([snr_db(val_clean[i], o) for i, o in enumerate(outs)])
            )
        history.append(**row)
    return history


# ---------------------------------------------------------------------------
# Checkpoints: JSON manifest plus one raw little-endian float64 file per
# parameter.
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "fdl-checkpoint-v1"


# parameter groups, in the order of the ToyModel arguments
_GROUPS = ("enc_kernel", "enc_bias", "dec_kernel", "dec_bias")


def _param_entries(model: ToyModel):
    groups = (model.enc_kernels, model.enc_biases, model.dec_kernels, model.dec_biases)
    for group, params in zip(_GROUPS, groups):
        for level, param in enumerate(params):
            yield f"{group}_{level}", param


def save_checkpoint(model: ToyModel, directory) -> str:
    """Write the model under ``directory``; returns the manifest path."""
    os.makedirs(directory, exist_ok=True)
    entries = []
    for name, param in _param_entries(model):
        filename = f"{name}.f64"
        with open(os.path.join(directory, filename), "wb") as fh:
            fh.write(param.value.astype("<f8").tobytes())
        entries.append(
            {
                "name": name,
                "file": filename,
                "shape": list(param.value.shape),
                "trainable": param.trainable,
            }
        )
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "bias_mode": "learned" if all(b.trainable for b in model.enc_biases) else "zero_fixed",
        "widths": list(model.widths),
        "parameters": entries,
    }
    path = os.path.join(directory, "checkpoint.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_checkpoint(directory) -> ToyModel:
    """Rebuild a model from :func:`save_checkpoint` output."""
    path = os.path.join(directory, "checkpoint.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"no checkpoint manifest at {path}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"cannot parse checkpoint manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ConfigError(f"checkpoint manifest {path} is not a JSON object")
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"unsupported checkpoint format {manifest.get('format')!r}")
    values = {}
    try:
        for entry in manifest["parameters"]:
            shape, trainable = entry["shape"], entry["trainable"]
            if not (isinstance(shape, list) and all(is_kind(n, Integral) for n in shape)):
                raise ConfigError(f"checkpoint {path}: shape {shape!r} is not a list of integers")
            if not is_kind(trainable, bool):
                raise ConfigError(f"checkpoint {path}: trainable {trainable!r} is not a boolean")
            file = os.path.join(directory, entry["file"])
            got, want = os.path.getsize(file), 8 * math.prod(shape)
            if got != want:
                raise ConfigError(
                    f"checkpoint file {file} holds {got} bytes, shape {shape} needs {want}"
                )
            raw = np.fromfile(file, dtype="<f8")
            values[entry["name"]] = ad.Parameter(raw.reshape(shape), trainable)
        levels = range(len(manifest["widths"]))
        groups = [[values.pop(f"{group}_{level}") for level in levels] for group in _GROUPS]
        widths = [k.value.shape[0] for k in groups[0]]
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"checkpoint {path} has no entry {exc.args[0]}") from exc
    except OSError as exc:
        raise ConfigError(f"checkpoint {path} names an unreadable file: {exc}") from exc
    except (TypeError, ValueError, IndexError) as exc:  # a field of the wrong type
        raise ConfigError(f"checkpoint {path} has a malformed field: {exc}") from exc
    if values or not widths or manifest["widths"] != widths:
        raise ConfigError(
            f"checkpoint {path}: widths {manifest['widths']!r} do not match its parameters "
            f"(encoder widths {widths}, unused entries {list(values)})"
        )
    return ToyModel(*groups)
