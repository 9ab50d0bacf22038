"""Trainable three-level encoder-decoder model and its training loop.

The model mirrors the reference design used in the experiments: kernels of
6, 12 and 24 channels with 3x3 taps, rectifiers with learned per-channel
biases throughout, a channel-symmetric decoder applied through the tensor
transpose, and no resampling.  Training pairs noisy triangle images with
their clean versions under a mean-squared-error loss, Adam, batch size 1,
and a learning rate decaying linearly to zero over the epochs.
``train(cfg)`` builds the model a :class:`TrainConfig` names and returns
``(model, history)``; the experiments' ``ExperimentConfig`` sets five
fields (``seed``, ``epochs``, ``images_per_epoch``, ``image_size`` and
``test_image_size``) and trains at this protocol's other defaults.

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
from .datasets import NoiseModel, add_noise, gen_triangles
from .errors import ConfigError, NumericError, capped_repr, is_kind
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
# Kind of each numeric config field; a pair field holds two finite values of its kind.
_FIELD_KINDS = {
    "epochs": Integral, "images_per_epoch": Integral, "seed": Integral,
    "n_validation": Integral, "lr_initial": Real, "sigma_train": Real,
    "image_size": Integral, "triangles_per_image": Integral, "intensity_range": Real,
}
_PAIR_FIELDS = ("image_size", "triangles_per_image", "intensity_range")


def _check_model_args(seed, init_mode, bias_mode):
    if init_mode not in INIT_MODES:
        raise ConfigError(f"init_mode must be one of {INIT_MODES}, got {capped_repr(init_mode)}")
    if bias_mode not in BIAS_MODES:
        raise ConfigError(f"bias_mode must be one of {BIAS_MODES}, got {capped_repr(bias_mode)}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {capped_repr(seed)}")


@dataclass(frozen=True)
class TrainConfig:
    """Training protocol; the learning rate decays linearly to zero.

    The one statement of the protocol's fields, defaults and rules, the
    law of the triangle images included, so a bad config fails here,
    before any image is drawn.
    """

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
            finite = all(is_kind(v, kind) and -math.inf < v < math.inf for v in values)
            if len(values) != (2 if pair else 1) or not finite:
                count = "two" if pair else "one"
                raise ConfigError(
                    f"training config has a malformed field: {name} needs {count} finite "
                    f"{kind.__name__.lower()} value{'s' if pair else ''}, got {capped_repr(value)}"
                )
            if pair:
                object.__setattr__(self, name, values)
        if self.epochs < 0 or self.n_validation < 0 or self.images_per_epoch < 1:
            raise ConfigError("epochs and n_validation must be >= 0, images_per_epoch >= 1")
        if min(self.image_size) < 1 or any(n % 2 for n in self.image_size):
            raise ConfigError(
                f"image_size entries must be >= 1 and even, got {list(self.image_size)}"
            )
        low, high = self.intensity_range
        if not 0.0 <= low <= high <= 1.0:
            raise ConfigError(
                f"intensity range must sit inside [0, 1], got {self.intensity_range}"
            )
        low, high = self.triangles_per_image
        if not 0 <= low <= high:
            raise ConfigError(
                f"bad triangle count range {self.triangles_per_image}: needs 0 <= low <= high"
            )
        if self.lr_initial <= 0:
            raise ConfigError(f"lr_initial must be positive, got {self.lr_initial}")
        if self.sigma_train < 0:
            raise ConfigError(f"sigma_train must be >= 0, got {self.sigma_train}")
        _check_model_args(self.seed, self.init_mode, self.bias_mode)

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

        The model's convolutions and zero-threshold rectifiers are
        positively homogeneous, so
        ``predict(y, bias_scale=s) == s * predict(y / s)`` for ``s > 0``:
        the adaptive variant is the baseline run on the input divided by
        ``s``, its output scaled back (input-gain normalization).  For a
        power of two ``s`` every scaling is exact in floating point, and
        the identity holds bit for bit (barring underflow and overflow);
        for other ``s`` it holds to rounding.

        Its convs run in row strips (:func:`fdl.tensor.conv2d`), so the
        memory it needs is set by the activations, about 0.4 KB per pixel:
        in a fresh process, peak RSS rose by 30 MB for a 256x256 image and
        by 103 MB for a 512x512 one.
        """

        def bias(b):
            return None if zero_bias else bias_scale * b.value

        weights = self._bind(lambda k: k.value, tensor_transpose, bias)
        return evaluate(self.spec, weights, as_image(y), NUMPY_OPS)

    def deepest_pair(self):
        """Encoder/decoder kernel values of the deepest level."""
        return self.enc_kernels[-1].value, self.dec_kernels[-1].value


def build_toy(seed=TrainConfig.seed, init_mode=TrainConfig.init_mode,
              bias_mode=TrainConfig.bias_mode):
    """Construct the trainable model: widths :data:`~fdl.network.TOY_WIDTHS`
    and 3x3 kernels.

    ``independent`` draws encoder and decoder kernels separately from the
    fan-balanced uniform law; ``shared_enc_dec`` copies each encoder
    kernel into its decoder partner; ``pct_delta`` installs deterministic
    sign-duplicated impulse pairs (zero biases), which reconstruct any
    nonnegative input exactly.
    """
    _check_model_args(seed, init_mode, bias_mode)
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
        cfg.n_validation, cfg.image_size, cfg.triangles_per_image, cfg.intensity_range,
        (cfg.seed, 3),
    )
    noisy = np.stack(
        [
            add_noise(clean[i], NoiseModel(cfg.sigma_train, seed=(cfg.seed, 4, i)))
            for i in range(cfg.n_validation)
        ]
    )
    return clean, noisy


def train(cfg: TrainConfig) -> tuple:
    """Train ``build_toy(cfg.seed, cfg.init_mode, cfg.bias_mode)`` under the
    full protocol; returns ``(model, history)``.

    A fresh set of triangle images is generated every epoch; noise is
    drawn per image, and every image is one Adam step (batch size 1).
    """
    model = build_toy(cfg.seed, cfg.init_mode, cfg.bias_mode)
    optimizer = Adam(model.parameters())
    history = TrainHistory()
    val_clean, val_noisy = _validation_set(cfg) if cfg.n_validation > 0 else (None, None)

    for epoch in range(cfg.epochs):
        lr = cfg.lr_initial * (1.0 - epoch / cfg.epochs)
        images = gen_triangles(
            cfg.images_per_epoch, cfg.image_size, cfg.triangles_per_image, cfg.intensity_range,
            (cfg.seed, 1, epoch),
        )
        losses = []
        for i in range(cfg.images_per_epoch):
            optimizer.zero_grad()
            clean = images[i]
            noisy = add_noise(clean, NoiseModel(cfg.sigma_train, seed=(cfg.seed, 2, epoch, i)))
            # ``loss`` keeps this step's graph alive until the next step's
            # forward has run; after ``backward`` it holds only node values,
            # 2.0 MB per 64x64 step.  Freed first, that memory is trimmed
            # from the heap by the C allocator and faulted back in by the
            # next step (2039 minor page faults per step instead of 0):
            # 15.9-17.2 ms per step instead of 11.9-14.1 ms, in 16 of 16
            # rounds, measured on 2 vCPUs with BLAS at 1 thread.
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
            # a blank image has no SNR (snr_db); without any other there is no key
            snrs = [snr_db(val_clean[i], o) for i, o in enumerate(outs) if val_clean[i].any()]
            if snrs:
                row["val_snr_db"] = float(np.mean(snrs))
        history.append(**row)
    return model, history


# ---------------------------------------------------------------------------
# Checkpoints: JSON manifest plus one raw little-endian float64 file per
# parameter.
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "fdl-checkpoint-v1"
_MANIFEST_FILE = "checkpoint.json"


# parameter groups, in the order of the ToyModel arguments
_GROUPS = ("enc_kernel", "enc_bias", "dec_kernel", "dec_bias")


def _param_entries(model: ToyModel):
    groups = (model.enc_kernels, model.enc_biases, model.dec_kernels, model.dec_biases)
    for group, params in zip(_GROUPS, groups):
        for level, param in enumerate(params):
            yield f"{group}_{level}", param


def _param_file(name) -> str:
    return f"{name}.f64"


def _manifest(model: ToyModel) -> dict:
    """The v1 manifest of ``model``: the one statement of the format.  The
    saver writes it, and the loader accepts only a manifest equal to it."""
    return {
        "format": CHECKPOINT_FORMAT,
        "bias_mode": "learned" if all(b.trainable for b in model.enc_biases) else "zero_fixed",
        "widths": list(model.widths),
        "parameters": [
            {"name": name, "file": _param_file(name), "shape": list(param.value.shape),
             "trainable": bool(param.trainable)}
            for name, param in _param_entries(model)
        ],
    }


def save_checkpoint(model: ToyModel, directory) -> list:
    """Write the model under ``directory``; returns the names of the files
    written, relative to ``directory``, the manifest first."""
    os.makedirs(directory, exist_ok=True)
    files = [_MANIFEST_FILE]
    for name, param in _param_entries(model):
        files.append(_param_file(name))
        param.value.astype("<f8").tofile(os.path.join(directory, files[-1]))
    with open(os.path.join(directory, _MANIFEST_FILE), "w", encoding="utf-8") as fh:
        json.dump(_manifest(model), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return files


def load_checkpoint(directory) -> ToyModel:
    """Rebuild a model from :func:`save_checkpoint` output.  Each parameter
    is read from its own file name inside ``directory``, and the manifest
    must be exactly the one :func:`save_checkpoint` writes for the model.
    Every parameter value must be finite."""
    path = os.path.join(directory, _MANIFEST_FILE)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"no checkpoint manifest at {path}") from exc
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise ConfigError(f"cannot parse checkpoint manifest {path}: {exc}") from exc
    fmt = manifest.get("format") if isinstance(manifest, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise ConfigError(f"checkpoint {path} has format {fmt!r}, not {CHECKPOINT_FORMAT}")

    def read(name):
        shape, file = entries[name]["shape"], os.path.join(directory, _param_file(name))
        got, want = os.path.getsize(file), 8 * math.prod(shape)
        if got != want:
            raise ConfigError(
                f"checkpoint file {file} holds {got} bytes, shape {shape} needs {want}"
            )
        raw = np.fromfile(file, dtype="<f8").reshape(shape)
        if not np.all(np.isfinite(raw)):
            raise ConfigError(f"checkpoint file {file} holds a non-finite value")
        return ad.Parameter(raw, entries[name]["trainable"])

    try:
        entries = {entry["name"]: entry for entry in manifest["parameters"]}
        levels = range(len(manifest["widths"]))
        model = ToyModel(*[[read(f"{group}_{level}") for level in levels] for group in _GROUPS])
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"checkpoint {path} has no entry {exc.args[0]}") from exc
    except OSError as exc:
        raise ConfigError(f"checkpoint {path}: cannot read a parameter file: {exc}") from exc
    except (TypeError, ValueError, IndexError) as exc:  # a field of the wrong type
        raise ConfigError(f"checkpoint {path} has a malformed field: {exc}") from exc
    if json.dumps(manifest, sort_keys=True) != json.dumps(_manifest(model), sort_keys=True):
        raise ConfigError(
            f"checkpoint {path} is not the {CHECKPOINT_FORMAT} manifest of its parameters"
        )
    return model
