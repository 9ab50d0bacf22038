"""Quality metrics and noise-level estimation."""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .framelets import haar_dwt
from .tensor import as_tensor4, conv2d

__all__ = ["snr_db", "estimate_sigma_mad", "SNR_CAP_DB"]

# Reported instead of +inf when estimate and reference are identical.
SNR_CAP_DB = 300.0

# 1 / Phi^-1(0.75): scales the median absolute deviation of a Gaussian to
# its standard deviation.
MAD_TO_SIGMA = 1.4826


def snr_db(reference, estimate) -> float:
    """Signal-to-noise ratio ``10 log10(|x|^2 / |x - x_hat|^2)`` in dB,
    at most :data:`SNR_CAP_DB`."""
    reference = as_tensor4(reference, "reference")
    estimate = as_tensor4(estimate, "estimate")
    if reference.shape != estimate.shape:
        raise ShapeError(f"shape mismatch: {reference.shape} vs {estimate.shape}")
    err = float(np.sum((reference - estimate) ** 2))
    sig = float(np.sum(reference**2))
    if err == 0.0:
        return SNR_CAP_DB
    return min(SNR_CAP_DB, 10.0 * np.log10(sig / err))


def estimate_sigma_mad(y) -> float:
    """Robust noise standard deviation from the diagonal Haar detail band.

    The band isolates the finest diagonal detail, which for natural images
    is dominated by the noise; the scaled median of its absolute values is
    a consistent estimate of a Gaussian noise sigma.
    """
    y = as_tensor4(y, "image")
    if y.shape[2] < 2 or y.shape[3] < 2:
        raise ShapeError(f"image must be at least 2x2, got {y.shape}")
    diagonal = conv2d(haar_dwt().f_hh, y)
    return MAD_TO_SIGMA * float(np.median(np.abs(diagonal)))
