"""Deterministic 4-D tensor arithmetic.

Every quantity handled by this package is a float64 numpy array of shape
``(n_rows, n_cols, n_v, n_h)``.  For a convolution kernel the rows index
output channels and the columns input channels; each ``[r, c]`` entry is a
2-D filter of ``n_v x n_h`` taps.  A grayscale image is the degenerate case
``(1, 1, N_r, N_c)``.

Convolution is circular (periodic boundary) so that perfect-reconstruction
identities hold exactly instead of approximately near the borders.  Kernels
are centered: a filter of odd size ``k`` covers offsets ``-k//2 .. k//2``
around each output pixel.  Down-sampling keeps phase 0 (sample indices that
are multiples of the factor); up-sampling inserts zeros.

Convolutions are matrix products over a shift stack (im2col) of their
narrower side.  An expanding or equal conv (in <= out channels) stacks its
input; its signal gradient forms ``kernel^T @ grad`` per tap and folds the
taps back (col2im, the adjoint of the stack).  A contracting conv forms
the per-tap products ``kernel @ x`` and folds them into its output; its
backward stacks the upstream gradient once, for both gradients.  The
method follows from the kernel's shape alone.

All functions are pure and operate on immutable inputs, so they are safe to
call concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

__all__ = [
    "as_tensor4",
    "as_image",
    "identity_kernel",
    "impulse_image",
    "identity_image",
    "conv2d",
    "conv2d_adjoint",
    "tensor_transpose",
    "downsample",
    "upsample",
    "dft_magnitude",
]


def as_tensor4(data, name="tensor") -> np.ndarray:
    """Validate and return ``data`` as a float64 array of rank 4."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 4:
        raise ShapeError(f"{name}: expected 4 axes (rows, cols, v, h), got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeError(f"{name}: empty tensor {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name}: contains NaN or Inf")
    return np.ascontiguousarray(arr)


def as_image(data, name="image") -> np.ndarray:
    """Validate a single-channel image of shape ``(1, 1, N_r, N_c)``.

    Spatial dimensions must be at least 2 and even, so that factor-2
    resampling stays exact anywhere in a pipeline.
    """
    arr = as_tensor4(data, name)
    if arr.shape[0] != 1 or arr.shape[1] != 1:
        raise ShapeError(f"{name}: expected shape (1, 1, N_r, N_c), got {arr.shape}")
    n_r, n_c = arr.shape[2], arr.shape[3]
    if n_r < 2 or n_c < 2 or n_r % 2 or n_c % 2:
        raise ShapeError(f"{name}: spatial dims must be even and >= 2, got {n_r}x{n_c}")
    return arr


def identity_kernel(channels=1, size=1) -> np.ndarray:
    """Kernel that maps every channel to itself: a centered unit impulse."""
    if size % 2 == 0:
        raise ConfigError("identity kernel size must be odd")
    k = np.zeros((channels, channels, size, size))
    for c in range(channels):
        k[c, c, size // 2, size // 2] = 1.0
    return k


def impulse_image(n_r, n_c=None) -> np.ndarray:
    """Image with a single unit pixel at its center."""
    n_c = n_r if n_c is None else n_c
    img = np.zeros((1, 1, n_r, n_c))
    img[0, 0, n_r // 2, n_c // 2] = 1.0
    return img


def identity_image(channels, n_r, n_c=None) -> np.ndarray:
    """Multi-channel convolution identity embedded in an image grid.

    Returns a ``(channels, channels, n_r, n_c)`` tensor whose diagonal
    entries are centered impulses; convolving a kernel with it embeds the
    kernel's impulse response at the image center.
    """
    n_c = n_r if n_c is None else n_c
    out = np.zeros((channels, channels, n_r, n_c))
    for c in range(channels):
        out[c, c, n_r // 2, n_c // 2] = 1.0
    return out


def _offsets(kv, kh):
    cv, ch = kv // 2, kh // 2
    return [(u - cv, v - ch) for u in range(kv) for v in range(kh)]


def _tap_corner(du, dv, cv, ch, correlate):
    """Top-left corner, in the halo-padded grid, of the window that tap
    ``(du, dv)`` reads (stack) or writes (fold)."""
    return (cv + du, ch + dv) if correlate else (cv - du, ch - dv)


def _fold_halo(acc, pad, n):
    """Adjoint of wrap padding along axis 2: add each halo row into the row
    one period inward, outermost first (a halo wider than the image is
    folded chunk by chunk); returns the ``n`` central rows."""
    hi, lo = acc.shape[2], 0
    while hi > pad + n:
        step = min(hi - pad - n, n)
        acc[:, :, hi - step - n : hi - n] += acc[:, :, hi - step : hi]
        hi -= step
    while lo < pad:
        step = min(pad - lo, n)
        acc[:, :, lo + n : lo + step + n] += acc[:, :, lo : lo + step]
        lo += step
    return acc[:, :, pad : pad + n]


def _shift_stack(signal, kv, kh, correlate=False):
    """Stack of circularly shifted copies of ``signal``, one per kernel tap.

    Layout is ``(rows, taps, cols, H, W)`` with taps enumerated row-major
    over the kernel window, matching ``kernel.reshape(out, -1)``.  With
    ``correlate=True`` shifts run in the opposite direction (used by the
    adjoint).  Built by slicing one wrap-padded copy, which is much
    cheaper than per-tap rolls.
    """
    sr, sc, h, w = signal.shape
    cv, ch = kv // 2, kh // 2
    padded = np.pad(signal, ((0, 0), (0, 0), (cv, cv), (ch, ch)), mode="wrap")
    stack = np.empty((sr, kv * kh, sc, h, w))
    for i, (du, dv) in enumerate(_offsets(kv, kh)):
        r0, c0 = _tap_corner(du, dv, cv, ch, correlate)
        stack[:, i] = padded[:, :, r0 : r0 + h, c0 : c0 + w]
    return stack


def _fold_products(kmat, signal, kv, kh, correlate=False):
    """Fold (col2im) of the per-tap products ``kmat @ signal``: the adjoint
    of :func:`_shift_stack`, applied to them, so each tap's product plane
    is shifted back and summed into ``(rows, cols, H, W)``.

    ``kmat`` holds one block of ``rows`` rows per tap, taps in stack order.
    The product is taken on a copy of ``signal`` with a zero border as wide
    as the kernel's reach, so every plane is already laid out on the
    halo-padded grid and a tap's shift never carries image values out of
    their own bordered image: each plane lands by one contiguous flat
    shift.  The halo is then folded onto the image.
    """
    sr, sc, h, w = signal.shape
    cv, ch = kv // 2, kh // 2
    pv, ph = h + 2 * cv, w + 2 * ch
    n = sc * pv * ph
    bordered = np.zeros((sr, sc, pv, ph))
    bordered[:, :, cv : cv + h, ch : ch + w] = signal
    products = kmat @ bordered.reshape(sr, n)
    rows = products.shape[0] // (kv * kh)
    margin = cv * ph + ch  # the largest flat shift
    acc = np.zeros((rows, n + 2 * margin))
    for i, (du, dv) in enumerate(_offsets(kv, kh)):
        r0, c0 = _tap_corner(du, dv, cv, ch, correlate)
        start = margin + (r0 - cv) * ph + (c0 - ch)
        acc[:, start : start + n] += products[i * rows : (i + 1) * rows]
    acc = acc[:, margin : margin + n].reshape(rows, sc, pv, ph)
    acc = _fold_halo(acc.swapaxes(2, 3), ch, w).swapaxes(2, 3)
    return np.ascontiguousarray(_fold_halo(acc, cv, h))


def _contracting(kernel_shape):
    """A conv with more input than output channels stacks its output side."""
    return kernel_shape[1] > kernel_shape[0]


def _conv_forward(kernel, signal):
    """Circular convolution; also returns the input's shift stack for the
    kernel gradient, or ``None`` for a contracting conv.

    An expanding (or equal) conv stacks its input, ``kc * k^2`` rows, and
    applies the kernel in one matrix product.  A contracting conv instead
    forms the per-tap products ``kernel @ x``, ``ko * k^2`` rows, and folds
    them into ``ko`` channels, so the wide input is never stacked.
    """
    ko, kc, kv, kh = kernel.shape
    if _contracting(kernel.shape):
        kmat = kernel.transpose(2, 3, 0, 1).reshape(kv * kh * ko, kc)
        return _fold_products(kmat, signal, kv, kh, correlate=True), None
    sr, sc, h, w = signal.shape
    stack = _shift_stack(signal, kv, kh)
    out = kernel.reshape(ko, kc * kv * kh) @ stack.reshape(sr * kv * kh, sc * h * w)
    return out.reshape(ko, sc, h, w), stack


def _conv_grad_signal(kernel, grad, *, stack=None):
    """Adjoint of ``conv2d`` in its signal argument.

    A contracting conv correlates the narrow gradient: one shift stack of
    ``grad`` (``ko * k^2`` rows; pass ``stack`` to reuse one) times the
    transposed kernel.  An expanding conv forms ``kernel^T @ grad``,
    ``kc * k^2`` rows, and folds it into ``kc`` channels.
    """
    ko, kc, kv, kh = kernel.shape
    if _contracting(kernel.shape):
        go, gc, h, w = grad.shape
        if stack is None:
            stack = _shift_stack(grad, kv, kh, correlate=True)
        kmat = kernel.transpose(1, 0, 2, 3).reshape(kc, ko * kv * kh)
        out = kmat @ stack.reshape(ko * kv * kh, gc * h * w)
        return out.reshape(kc, gc, h, w)
    kmat = kernel.transpose(2, 3, 1, 0).reshape(kv * kh * kc, ko)
    return _fold_products(kmat, grad, kv, kh)


def _conv_grad_kernel(stack, x, kernel_shape):
    """Gradient of ``conv2d`` with respect to the kernel.

    For an expanding (or equal) conv ``stack`` is the forward's shift
    stack of the signal and ``x`` the upstream gradient; for a contracting
    conv ``stack`` is the correlate stack of the upstream gradient and
    ``x`` the signal.  Either way the narrow side is the stacked one.
    """
    ko, kc, kv, kh = kernel_shape
    pixels = x.shape[1] * x.shape[2] * x.shape[3]
    if _contracting(kernel_shape):
        s = stack.reshape(ko * kv * kh, pixels)
        dk = x.reshape(kc, pixels) @ s.T
        return dk.reshape(kc, ko, kv, kh).swapaxes(0, 1)
    s = stack.reshape(kc * kv * kh, pixels)
    return (x.reshape(ko, pixels) @ s.T).reshape(kernel_shape)


def conv2d(kernel, signal) -> np.ndarray:
    """Tensor convolution of a kernel with a signal.

    Output row ``r`` is the sum over input channels ``c`` of the circular
    2-D convolution ``kernel[r, c] * signal[c]``; the column axis of the
    signal is carried through untouched.  Output spatial size equals the
    signal's.
    """
    kernel = as_tensor4(kernel, "kernel")
    signal = as_tensor4(signal, "signal")
    if kernel.shape[1] != signal.shape[0]:
        raise ShapeError(
            f"channel mismatch: kernel columns {kernel.shape[1]} vs signal rows {signal.shape[0]}"
        )
    if kernel.shape[2] % 2 == 0 or kernel.shape[3] % 2 == 0:
        raise ConfigError(f"kernel spatial dims must be odd, got {kernel.shape[2:]}")
    out, _ = _conv_forward(kernel, signal)
    return out


def conv2d_adjoint(kernel, signal) -> np.ndarray:
    """Exact adjoint of ``conv2d(kernel, .)``.

    Satisfies ``<conv2d(k, x), y> == <x, conv2d_adjoint(k, y)>`` for all
    ``x``, ``y``; equivalently, convolution with the channel-transposed and
    spatially reversed kernel.
    """
    kernel = as_tensor4(kernel, "kernel")
    signal = as_tensor4(signal, "signal")
    if kernel.shape[0] != signal.shape[0]:
        raise ShapeError(
            f"channel mismatch: kernel rows {kernel.shape[0]} vs signal rows {signal.shape[0]}"
        )
    if kernel.shape[2] % 2 == 0 or kernel.shape[3] % 2 == 0:
        raise ConfigError(f"kernel spatial dims must be odd, got {kernel.shape[2:]}")
    return _conv_grad_signal(kernel, signal)


def tensor_transpose(t) -> np.ndarray:
    """Swap the row and column (channel) axes; filters are untouched."""
    t = as_tensor4(t)
    return np.ascontiguousarray(np.swapaxes(t, 0, 1))


def downsample(signal, s) -> np.ndarray:
    """Keep samples at indices that are multiples of ``s`` on both spatial
    axes.  Spatial dims must be divisible by ``s``."""
    signal = as_tensor4(signal, "signal")
    s = int(s)
    if s < 1:
        raise ConfigError(f"down-sampling factor must be >= 1, got {s}")
    if s == 1:
        return signal.copy()
    h, w = signal.shape[2], signal.shape[3]
    if h % s or w % s:
        raise ShapeError(f"spatial dims {h}x{w} not divisible by factor {s}")
    return signal[:, :, ::s, ::s].copy()


def upsample(signal, s) -> np.ndarray:
    """Insert ``s - 1`` zeros after each sample on both spatial axes."""
    signal = as_tensor4(signal, "signal")
    s = int(s)
    if s < 1:
        raise ConfigError(f"up-sampling factor must be >= 1, got {s}")
    if s == 1:
        return signal.copy()
    r, c, h, w = signal.shape
    out = np.zeros((r, c, h * s, w * s))
    out[:, :, ::s, ::s] = signal
    return out


def dft_magnitude(image) -> np.ndarray:
    """Unnormalized 2-D DFT magnitude of an image, DC at index (0, 0)."""
    image = as_image(image)
    return np.abs(np.fft.fft2(image, axes=(2, 3)))
