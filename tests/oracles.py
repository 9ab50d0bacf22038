"""Independent reference implementations used as test oracles.

Everything in here is written as plainly as possible (explicit index loops,
direct sums) and must stay independent of the package code paths it checks.
"""

import numpy as np


def conv2d_reference(kernel, signal):
    """Circular tensor convolution as a direct six-fold nested sum."""
    ko, kc, kv, kh = kernel.shape
    sr, sc, height, width = signal.shape
    assert kc == sr
    cv, ch = kv // 2, kh // 2
    out = np.zeros((ko, sc, height, width))
    for o in range(ko):
        for j in range(sc):
            for i in range(height):
                for l in range(width):
                    acc = 0.0
                    for c in range(kc):
                        for u in range(kv):
                            for v in range(kh):
                                acc += kernel[o, c, u, v] * signal[
                                    c, j, (i - (u - cv)) % height, (l - (v - ch)) % width
                                ]
                    out[o, j, i, l] = acc
    return out


def conv2d_roll_reference(kernel, signal):
    """Circular tensor convolution as a sum of ``np.roll``-shifted signals,
    one per tap; fast enough for randomized shapes."""
    ko, kc, kv, kh = kernel.shape
    out = np.zeros((ko,) + signal.shape[1:])
    for u in range(kv):
        for v in range(kh):
            shifted = np.roll(signal, (u - kv // 2, v - kh // 2), axis=(2, 3))
            out += np.einsum("oc,cjhw->ojhw", kernel[:, :, u, v], shifted)
    return out


def downsample_reference(signal, s):
    """Phase-0 decimation by explicit index selection."""
    r, c, height, width = signal.shape
    out = np.zeros((r, c, height // s, width // s))
    for i in range(height // s):
        for j in range(width // s):
            out[:, :, i, j] = signal[:, :, i * s, j * s]
    return out


def upsample_reference(signal, s):
    """Zero insertion by explicit index placement."""
    r, c, height, width = signal.shape
    out = np.zeros((r, c, height * s, width * s))
    for i in range(height):
        for j in range(width):
            out[:, :, i * s, j * s] = signal[:, :, i, j]
    return out


def block_diag_bank(filters, channels):
    """Dense ``(channels * bands, channels, v, h)`` kernel that applies a
    ``(bands, 1, v, h)`` filter stack to every channel separately, the
    bands of each input channel grouped together; a full-resolution conv
    with it is the undecimated per-channel filter bank."""
    bands = filters.shape[0]
    bank = np.zeros((channels * bands, channels, filters.shape[2], filters.shape[3]))
    for c in range(channels):
        for b in range(bands):
            bank[c * bands + b, c] = filters[b, 0]
    return bank


def band_decompose_reference(filters, image, decimated):
    """Per-band convolution followed by optional decimation.

    Composes the convolution and down-sampling oracles; used to check the
    one-shot framelet analysis path.
    """
    bands = conv2d_reference(filters, image)
    if decimated:
        bands = downsample_reference(bands, 2)
    return bands
