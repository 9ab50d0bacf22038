"""Elementwise estimators used as network activations.

Two families are implemented.  Shrinkage functions (soft, garrote,
derivative-of-Gaussian, and their linear combinations) zero out
small-magnitude coefficients and keep large ones; their clipping
counterparts do the opposite and are what a residual network applies when
it estimates the noise instead of the signal.  The two are complementary:
``shrink(z) + clip(z) == z`` for the soft and DoG families.

Thresholds may be scalars or per-channel vectors (one entry per row of a
4-D tensor), mirroring how a CNN learns one bias per channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, capped_repr
from .tensor import signed_impulse_bank

__all__ = [
    "ActivationSpec",
    "SHRINK_KINDS",
    "DOG_KINDS",
    "ACTIVATION_KINDS",
    "relu_bias",
    "soft_shrink",
    "soft_clip",
    "garrote_shrink",
    "dog_clip",
    "dog_shrink",
    "apply_activation",
    "activation_derivative",
    "shrink_as_relu",
    "clip_as_relu",
]

SHRINK_KINDS = ("soft_shrink", "garrote", "dog_shrink", "let")
DOG_KINDS = ("dog_shrink", "dog_clip")  # the kinds that read the exponent p
ACTIVATION_KINDS = SHRINK_KINDS + ("relu_bias", "soft_clip", "dog_clip")


def _as_threshold(t):
    """Normalize a threshold to a float or a tuple of per-channel floats;
    NaN fails every check, while +inf (the clipping pass-through) passes."""
    if np.isscalar(t):
        t = float(t)
        if not t >= 0:
            raise ConfigError(f"threshold must be a number >= 0, got {t}")
        return t
    arr = np.asarray(t, dtype=float)
    if arr.ndim != 1:
        raise ConfigError(f"per-channel threshold must be a vector, got shape {arr.shape}")
    if not np.all(arr >= 0):
        raise ConfigError(
            f"threshold entries must be numbers >= 0, got {capped_repr(arr.tolist())}"
        )
    return tuple(float(v) for v in arr)


def _is_zero(t):
    return np.isscalar(t) and t == 0.0


def _broadcast(t, z):
    """Broadcast a (possibly per-channel) threshold against ``z``."""
    if np.isscalar(t):
        return float(t)
    vec = np.asarray(t, dtype=float)
    if vec.ndim == 0:
        return float(vec)
    if vec.ndim != 1 or z.ndim != 4 or z.shape[0] != vec.size:
        raise ConfigError(
            f"per-channel threshold of length {vec.size} does not match "
            f"tensor of shape {z.shape}"
        )
    return vec[:, None, None, None]


@dataclass(frozen=True)
class ActivationSpec:
    """Tagged description of one nonlinearity.

    ``t`` is the threshold (bias is ``-t`` for the ReLU form), ``p`` the even
    exponent of the DoG family, and ``members`` the weighted mixture for the
    linear expansion of thresholds.
    """

    kind: str
    t: float | tuple = 0.0
    p: int = 2
    members: tuple = field(default=())  # ((weight, ActivationSpec), ...)

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ConfigError(f"unknown activation kind {self.kind!r}")
        object.__setattr__(self, "t", _as_threshold(self.t))
        if self.kind in DOG_KINDS:
            if self.p % 2 or self.p < 2:
                raise ConfigError(f"DoG exponent must be even and >= 2, got {self.p}")
        if self.kind == "let":
            if not self.members:
                raise ConfigError("let activation needs at least one member")
            weights = [w for w, _ in self.members]
            if not abs(sum(weights) - 1.0) <= 1e-9:  # a NaN or infinite weight fails
                raise ConfigError(f"let weights must sum to 1, got {sum(weights)}")
            for _, member in self.members:
                if member.kind not in SHRINK_KINDS:
                    raise ConfigError(f"let member must be a shrinkage kind, got {member.kind!r}")

    @property
    def is_shrink(self) -> bool:
        return self.kind in SHRINK_KINDS

    @property
    def is_identity(self) -> bool:
        """Whether every threshold sits at the pass-through limit of
        :meth:`neutral`; a rectifier never passes its input unchanged."""
        if self.kind == "let":
            return all(member.is_identity for _, member in self.members)
        return self.kind != "relu_bias" and bool(np.all(np.asarray(self.t) == self.neutral().t))

    def neutral(self) -> "ActivationSpec":
        """The family's pass-through limit: soft shrinkage at t = 0, or soft
        clipping at t = inf; a rectifier keeps its kink at t = 0."""
        if self.kind == "relu_bias":
            return ActivationSpec("relu_bias", t=0.0)
        if self.is_shrink:
            return ActivationSpec("soft_shrink", t=0.0)
        return ActivationSpec("soft_clip", t=np.inf)


def relu_bias(z, t=0.0):
    """Rectifier with threshold: ``(z - t)_+``."""
    z = np.asarray(z, dtype=float)
    if _is_zero(t):  # z - 0.0 is z bit for bit: skip that pass
        return np.maximum(z, 0.0)
    return np.maximum(z - _broadcast(t, z), 0.0)


def soft_shrink(z, t):
    """Soft threshold, the superposition of two rectifiers:
    ``(z - t)_+ - (-z - t)_+``."""
    z = np.asarray(z, dtype=float)
    tb = _broadcast(t, z)
    return np.maximum(z - tb, 0.0) - np.maximum(-z - tb, 0.0)


def soft_clip(z, t):
    """Complement of the soft threshold; passes small values, saturates at
    ``+-t``."""
    z = np.asarray(z, dtype=float)
    return z - soft_shrink(z, t)


def garrote_shrink(z, t):
    """Semi-hard shrinkage ``(z^2 - t^2)_+ / z`` with the removable
    singularity at ``z = 0`` filled with 0."""
    z = np.asarray(z, dtype=float)
    tb = _broadcast(t, z)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shrunk = z - tb * tb / z
    return np.where(np.abs(z) > tb, shrunk, 0.0)


def dog_clip(z, t, p=2):
    """Semi-hard clipping ``z * exp(-(z/t)^p)``; tends to zero for large
    inputs.  ``t = 0`` is the all-suppressing limit."""
    if p % 2 or p < 2:
        raise ConfigError(f"DoG exponent must be even and >= 2, got {p}")
    z = np.asarray(z, dtype=float)
    tb = _broadcast(t, z)
    with np.errstate(divide="ignore", over="ignore"):
        ratio = np.where(tb == 0.0, np.inf, np.abs(z) / np.where(tb == 0.0, 1.0, tb))
        out = z * np.exp(-(ratio**p))
    return np.where(np.isfinite(out), out, 0.0)


def dog_shrink(z, t, p=2):
    """Semi-hard shrinkage, the complement of the DoG clip."""
    z = np.asarray(z, dtype=float)
    return z - dog_clip(z, t, p)


def apply_activation(spec: ActivationSpec, z):
    """Apply an activation described by ``spec`` elementwise."""
    if spec.kind == "relu_bias":
        return relu_bias(z, spec.t)
    if spec.kind == "soft_shrink":
        return soft_shrink(z, spec.t)
    if spec.kind == "soft_clip":
        return soft_clip(z, spec.t)
    if spec.kind == "garrote":
        return garrote_shrink(z, spec.t)
    if spec.kind == "dog_shrink":
        return dog_shrink(z, spec.t, spec.p)
    if spec.kind == "dog_clip":
        return dog_clip(z, spec.t, spec.p)
    if spec.kind == "let":
        z = np.asarray(z, dtype=float)
        out = np.zeros_like(z)
        for w, member in spec.members:
            out += w * apply_activation(member, z)
        return out
    raise ConfigError(f"unknown activation kind {spec.kind!r}")


def activation_derivative(spec: ActivationSpec, z):
    """Elementwise derivative of an activation at ``z``.

    Kinks use the subgradient 0 on the flat side, matching what the
    training engine assumes.  The rectifier's derivative is a boolean mask,
    an eighth of the memory of a float array; ``g * mask`` is bit for bit
    ``g * 1.0`` or ``g * 0.0``.
    """
    z = np.asarray(z, dtype=float)
    if spec.kind == "relu_bias":
        if _is_zero(spec.t):  # z - 0.0 is z bit for bit: skip that pass
            return z > 0.0
        return z - _broadcast(spec.t, z) > 0.0
    tb = _broadcast(spec.t, z)
    if spec.kind == "soft_shrink":
        return np.where(np.abs(z) > tb, 1.0, 0.0)
    if spec.kind == "soft_clip":
        return np.where(np.abs(z) > tb, 0.0, 1.0)
    if spec.kind == "garrote":
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inner = 1.0 + tb * tb / (z * z)
        return np.where(np.abs(z) > tb, inner, 0.0)
    if spec.kind in DOG_KINDS:
        with np.errstate(divide="ignore", over="ignore"):
            ratio = np.where(tb == 0.0, np.inf, np.abs(z) / np.where(tb == 0.0, 1.0, tb))
            rp = ratio**spec.p
            dclip = np.exp(-rp) * (1.0 - spec.p * rp)
        dclip = np.where(np.isfinite(dclip), dclip, 0.0)
        return dclip if spec.kind == "dog_clip" else 1.0 - dclip
    if spec.kind == "let":
        out = np.zeros_like(z)
        for w, member in spec.members:
            out += w * activation_derivative(member, z)
        return out
    raise ConfigError(f"unknown activation kind {spec.kind!r}")


def shrink_as_relu(t, channels=1):
    """Soft threshold written as a two-channel ReLU layer.

    Returns ``(K, K_tilde, b)`` with twice as many output channels as
    inputs, such that combining the rectified split with the transposed
    decoder reproduces ``soft_shrink`` exactly:
    ``conv2d(tensor_transpose(K_tilde), relu_bias(conv2d(K, z) + b)) ==
    soft_shrink(z, t)``.
    """
    t = _as_threshold(t)
    k = signed_impulse_bank(channels, (1.0, -1.0))
    k_tilde = signed_impulse_bank(channels, (1.0, -1.0))
    per = np.broadcast_to(np.asarray(t, dtype=float), (channels,))
    b = -np.repeat(per, 2)
    return k, k_tilde, b


def clip_as_relu(t, channels=1):
    """Soft clipping written as a four-channel ReLU layer.

    The identity path uses zero bias on the first two channels and the
    shrinkage path a bias of ``-t`` on the remaining two, whose decoder
    signs are inverted.
    """
    t = _as_threshold(t)
    k = signed_impulse_bank(channels, (1.0, -1.0, 1.0, -1.0))
    k_tilde = signed_impulse_bank(channels, (1.0, -1.0, -1.0, 1.0))
    per = np.broadcast_to(np.asarray(t, dtype=float), (channels,))
    b = np.stack([np.zeros(channels), np.zeros(channels), -per, -per], axis=1).reshape(-1)
    return k, k_tilde, b
