"""Tight framelet transforms and framelet-domain shrinkage.

A framelet basis is a bank of small filters that splits an image into
bands whose synthesis recovers the input up to a constant.  The bank is
stored as a pair of 4-D tensors (analysis and synthesis filters) plus the
reconstruction constants measured at construction time:

* ``c`` multiplies the undecimated synthesis ``inverse^T (forward y)`` to
  give back ``y`` exactly;
* ``c_decimated`` plays the same role for the critically sampled transform
  (analysis, down-sample by 2, zero-insert, synthesis) and is ``None`` for
  banks that only reconstruct without decimation.

The decimated transforms are computed polyphase, only at the samples that
decimation keeps, by the same functions that run the DWT layers of a
network (:func:`fdl.tensor.bank_down` and :func:`fdl.tensor.bank_up`).

The bundled bank is the separable 2-D Haar bank: four 2x2 filters with
entries ``+-1/2`` embedded in 3x3 kernels so that convolution stays
centered.  Analysis taps sit at offsets ``{0, 1}`` and synthesis taps at
``{-1, 0}``, which makes the decimated round trip exact with phase-0
down-sampling.  :func:`haar_dwt` returns its basis, in band order LL, LH,
HL, HH; the basis is measured once per process and shared, with
read-only filters.

A shrinkage threshold is a rectifier's bias read in the detail bands of a
frame.  :func:`map_thresholds` states the MAP rule for it: per detail
band, the noise variance over the band's signal dispersion.

Bases are immutable after construction; every function here is reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .activations import ActivationSpec, apply_activation, relu_bias
from .errors import ConfigError, ShapeError
from .tensor import (
    as_image,
    as_tensor4,
    bank_down,
    bank_up,
    conv2d,
    identity_image,
    tensor_transpose,
)

__all__ = [
    "FrameletBasis",
    "PhaseComplementReport",
    "make_basis",
    "haar_dwt",
    "framelet_forward",
    "framelet_inverse",
    "phase_complement",
    "check_phase_complementary",
    "denoise_framelet",
    "detail_band_mask",
    "map_thresholds",
]


@dataclass(frozen=True)
class FrameletBasis:
    """Analysis/synthesis filter pair with measured reconstruction constants."""

    forward: np.ndarray
    inverse: np.ndarray
    c: float
    c_decimated: float | None = None

    @property
    def n_bands(self) -> int:
        return self.forward.shape[0]


@dataclass(frozen=True)
class PhaseComplementReport:
    """Outcome of probing a kernel pair with the convolution identity."""

    response: np.ndarray
    diag_energy: float
    offdiag_energy: float
    ratio: float
    c_estimate: float
    is_pct: bool


def _probe_grid(forward, inverse):
    reach = max(forward.shape[2], forward.shape[3], inverse.shape[2], inverse.shape[3])
    n = 2 * reach + 2
    return n + (n % 2)


def _undecimated_gain(forward, inverse):
    """Gain of the undecimated round trip, or None if it is not a scaled
    identity."""
    n = _probe_grid(forward, inverse)
    response = conv2d(tensor_transpose(inverse), conv2d(forward, identity_image(1, n)))
    center = response[0, 0, n // 2, n // 2]
    leak = np.sum(response**2) - center**2
    if center <= 0 or leak > 1e-18 + 1e-12 * center**2:
        return None
    return float(center)


def _decimated_gain(forward, inverse):
    """Gain of the decimated round trip on random probes, or None."""
    rng = np.random.default_rng(2**31 - 1)
    n = max(8, _probe_grid(forward, inverse))
    gain = None
    for _ in range(3):
        y = rng.normal(size=(1, 1, n, n))
        recon = bank_up(inverse, bank_down(forward, y))
        g = float(np.vdot(y, recon) / np.vdot(y, y))
        if g <= 0 or np.max(np.abs(recon - g * y)) > 1e-9 * max(1.0, np.max(np.abs(y))):
            return None
        if gain is not None and abs(g - gain) > 1e-9:
            return None
        gain = g
    return gain


def make_basis(forward, inverse) -> FrameletBasis:
    """Build a framelet basis, measuring its reconstruction constants.

    Raises if the pair is not an undecimated tight frame (the synthesis of
    the analysis must be a positively scaled identity).
    """
    forward = as_tensor4(forward, "forward filters")
    inverse = as_tensor4(inverse, "inverse filters")
    if forward.shape[0] != inverse.shape[0] or forward.shape[1] != 1 or inverse.shape[1] != 1:
        raise ShapeError(
            f"filter banks must share shape (bands, 1, v, h); got {forward.shape} "
            f"and {inverse.shape}"
        )
    gain = _undecimated_gain(forward, inverse)
    if gain is None:
        raise ConfigError("filter pair is not a tight frame: round trip is not a scaled identity")
    dec_gain = _decimated_gain(forward, inverse)
    return FrameletBasis(
        forward=forward,
        inverse=inverse,
        c=1.0 / gain,
        c_decimated=None if dec_gain is None else 1.0 / dec_gain,
    )


_SQRT2 = np.sqrt(2.0)
_LOW = np.array([1.0, 1.0]) / _SQRT2
_HIGH = np.array([1.0, -1.0]) / _SQRT2


def _embed_analysis(tap_v, tap_h):
    f = np.zeros((3, 3))
    f[1:, 1:] = np.outer(tap_v, tap_h)
    return f


@cache
def haar_dwt() -> FrameletBasis:
    """The orthonormal 2-D Haar basis, bands LL, LH, HL, HH (LH carries
    horizontal detail, HL vertical, HH diagonal); its decimated round trip
    is exact with constant 1.  Measured on the first call and shared after
    it, so its filters are read-only."""
    pairs = [(_LOW, _LOW), (_LOW, _HIGH), (_HIGH, _LOW), (_HIGH, _HIGH)]
    w = np.stack([_embed_analysis(v, h)[None] for v, h in pairs])
    w_tilde = w[:, :, ::-1, ::-1].copy()  # 180-degree rotation per filter
    basis = make_basis(w, w_tilde)
    basis.forward.flags.writeable = False
    basis.inverse.flags.writeable = False
    return basis


def framelet_forward(basis: FrameletBasis, y, decimated=False) -> np.ndarray:
    """Decompose an image into framelet bands, optionally decimating by 2
    (computed polyphase, only at the kept samples)."""
    y = as_image(y)
    if decimated:
        return bank_down(basis.forward, y)
    return conv2d(basis.forward, y)


def _checked_bands(basis, bands):
    """``bands`` as a 4-D tensor holding one row per band of ``basis``."""
    bands = as_tensor4(bands, "bands")
    if bands.shape[0] != basis.n_bands:
        raise ShapeError(f"expected {basis.n_bands} bands, got {bands.shape[0]}")
    return bands


def framelet_inverse(basis: FrameletBasis, bands, decimated=False) -> np.ndarray:
    """Synthesize an image from framelet bands.

    Applies the reconstruction constant measured at construction so the
    round trip with :func:`framelet_forward` is the identity.
    """
    bands = _checked_bands(basis, bands)
    if decimated:
        if basis.c_decimated is None:
            raise ConfigError("basis does not reconstruct from decimated bands")
        return bank_up(basis.inverse, bands) * basis.c_decimated
    return conv2d(tensor_transpose(basis.inverse), bands) * basis.c


def phase_complement(basis: FrameletBasis) -> FrameletBasis:
    """Augment a tight frame with sign-inverted copies of every band.

    The returned bank keeps exact reconstruction when a rectifier sits
    between analysis and synthesis: positive and negative halves of each
    band travel on separate channels and are recombined with opposite
    signs.  Filters are rescaled so the rectified round trip has unit gain.
    """
    scale = np.sqrt(basis.c)
    forward = np.concatenate([basis.forward, -basis.forward], axis=0) * scale
    inverse = np.concatenate([basis.inverse, -basis.inverse], axis=0) * scale
    return make_basis(forward, inverse)


# Largest off-diagonal to diagonal energy ratio of a phase-complementary pair.
PCT_TOL = 0.05


def check_phase_complementary(k, k_tilde) -> PhaseComplementReport:
    """Probe an encoder/decoder kernel pair for rectified reconstruction.

    Feeds the multi-channel convolution identity through
    ``decoder^T ( relu(encoder . I) )`` and measures how much of the
    response energy lands on the center taps of the diagonal.  A pair that
    reconstructs arbitrary signals through a ReLU concentrates everything
    there, with a single positive constant; the verdict ``is_pct`` asks for
    positive center taps and an off-diagonal energy ratio below
    :data:`PCT_TOL`.  The probe grid holds the whole response and is at
    least 8 samples wide.
    """
    k = as_tensor4(k, "encoder kernel")
    k_tilde = as_tensor4(k_tilde, "decoder kernel")
    if k.shape[0] != k_tilde.shape[0] or k.shape[1] != k_tilde.shape[1]:
        raise ShapeError(f"kernel pair channel mismatch: {k.shape} vs {k_tilde.shape}")
    channels = k.shape[1]
    grid = max(8, _probe_grid(k, k_tilde))
    probe = identity_image(channels, grid)
    response = conv2d(tensor_transpose(k_tilde), relu_bias(conv2d(k, probe)))
    centers = np.array([response[i, i, grid // 2, grid // 2] for i in range(channels)])
    diag_energy = float(np.sum(centers**2))
    total = float(np.sum(response**2))
    offdiag_energy = total - diag_energy
    ratio = offdiag_energy / diag_energy if diag_energy > 0 else np.inf
    c_estimate = float(np.mean(centers))
    is_pct = bool(diag_energy > 0 and ratio < PCT_TOL and np.min(centers) > 0)
    return PhaseComplementReport(
        response=response,
        diag_energy=diag_energy,
        offdiag_energy=offdiag_energy,
        ratio=float(ratio),
        c_estimate=c_estimate,
        is_pct=is_pct,
    )


def detail_band_mask(basis: FrameletBasis) -> np.ndarray:
    """Boolean mask of bands with (numerically) zero DC response.

    Those are the bands that carry signal detail and receive shrinkage;
    low-pass bands are passed through untouched.
    """
    dc = np.abs(basis.forward.sum(axis=(1, 2, 3)))
    return dc < 1e-9 * max(1.0, float(dc.max()))


def denoise_framelet(basis: FrameletBasis, y, act: ActivationSpec, decimated=True) -> np.ndarray:
    """Shrink the detail bands of an image in the framelet domain.

    The low-pass bands bypass the nonlinearity, so constants and smooth
    content are never attenuated.
    """
    if not act.is_shrink:
        raise ConfigError(f"denoising needs a shrinkage activation, got {act.kind!r}")
    bands = framelet_forward(basis, y, decimated=decimated)
    detail = detail_band_mask(basis)
    out = bands.copy()
    if np.any(detail):
        out[detail] = apply_activation(act, bands[detail])
    return framelet_inverse(basis, out, decimated=decimated)


def map_thresholds(basis: FrameletBasis, bands, sigma) -> np.ndarray:
    """MAP shrinkage threshold of each detail band of ``bands``, the
    framelet coefficients of one image under ``basis``, at noise standard
    deviation ``sigma``: ``sigma**2 / sigma_d``, where the signal dispersion
    ``sigma_d = sqrt(max(var - sigma**2, 1e-12))`` comes from the band's
    variance.

    Strong signal drives a threshold toward zero; a band of noise alone
    gets a huge threshold and is suppressed.  ``sigma = 0`` gives zero
    thresholds.
    """
    bands = _checked_bands(basis, bands)
    detail = detail_band_mask(basis)
    sigma_d = np.sqrt(np.maximum(bands[detail].var(axis=(1, 2, 3)) - sigma**2, 1e-12))
    return sigma**2 / sigma_d
