"""Deterministic 4-D tensor arithmetic.

Every quantity handled by this package is a float64 numpy array of shape
``(n_rows, n_cols, n_v, n_h)``.  For a convolution kernel the rows index
output channels and the columns input channels; each ``[r, c]`` entry is a
2-D filter of ``n_v x n_h`` taps.  A grayscale image is the degenerate case
``(1, 1, N_r, N_c)``.

Convolution is circular (periodic boundary) so that perfect-reconstruction
identities hold exactly instead of approximately near the borders.  Kernels
are centered: a filter of odd size ``k`` covers offsets ``-k//2 .. k//2``
around each output pixel.

Convolutions are matrix products over a shift stack (im2col) of their
narrower side.  An expanding or equal conv (in <= out channels) stacks its
input; its signal gradient forms ``kernel^T @ grad`` per tap and folds the
taps back (col2im, the adjoint of the stack).  A contracting conv forms
the per-tap products ``kernel @ x`` and folds them into its output; its
backward stacks the upstream gradient once, for both gradients.  The
method follows from the kernel's shape alone.

A decimated filter bank (the DWT's analysis and synthesis) applies one
small ``(bands, 1, k, k)`` filter stack to every channel separately, with
a resolution change by 2.  Decimation keeps phase 0 (even sample indices
on both spatial axes); up-sampling inserts a zero after each sample.  The
one-band unit filter gives plain decimation and zero insertion.  Banks
are computed polyphase: :func:`bank_down` evaluates each output sample
only where decimation keeps it, and :func:`bank_up` only from the samples
that up-sampling does not zero, in both cases from the bank's nonzero
taps alone.

A *pointwise* kernel, one whose nonzero entries all sit at its center
tap, is a 1x1 channel mix whatever its size: :func:`conv2d` applies its
``(out, in)`` center matrix to the flattened signal in one product, and
:func:`conv2d_adjoint` the transpose, with no shift stack and no fold.
The ideal impulse banks of reconstruction analysis are of this kind.
Every other kernel takes the stack-or-fold route above, and so does the
differentiable conv of :mod:`fdl.autodiff`: a zero tap still has a
nonzero kernel gradient.

:func:`conv2d` bounds its working set.  When the whole image's shift
stack (expanding conv) or tap products (contracting conv) would exceed
:data:`STRIP_BYTES`, it computes the output in strips of rows, each from a
slab of input rows that adds the kernel's vertical reach on both sides,
so a conv holds one strip's stack at a time instead of the image's (56 MB
for a 12 -> 24 channel 3x3 conv at 256x256).  Every tap of every output
sample reads the same inputs in the same order as on the whole image,
and a contracting conv folds the wrapped halo rows last, as the
whole-image fold does, so the two routes give the same products and the
same sums.  The result is bitwise equal wherever the BLAS computes each
column of a matrix product independently of the product's width.
OpenBLAS 0.3.31 (Haswell kernels) does so when the image width is a
multiple of 8 and an expanding conv's ``in * kv * kh`` is at most 384;
otherwise it rounds the last ``N % 8`` columns of an ``N``-column
product, or a small product with a deeper inner dimension, its own way,
and a few outputs may differ in the last bits.  The autodiff conv and
:func:`conv2d_adjoint` keep the whole-image route: the kernel gradient
needs the whole stack.

All functions are pure and operate on immutable inputs, so they are safe to
call concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

__all__ = [
    "as_tensor4",
    "as_image",
    "signed_impulse_bank",
    "identity_image",
    "conv2d",
    "conv2d_adjoint",
    "tensor_transpose",
    "bank_down",
    "bank_up",
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


def signed_impulse_bank(channels, signs, out_ch=None, size=1) -> np.ndarray:
    """Kernel of centered impulses, ``len(signs)`` outputs per input channel.

    Input channel ``c`` maps to outputs ``n * c + i`` with weight
    ``signs[i]``, ``n = len(signs)``; ``signs = (1, -1)`` gives the
    sign-duplicated pairs that survive a rectifier.  Output rows past
    ``n * channels`` (up to ``out_ch``, default ``n * channels``) stay zero.
    """
    n = len(signs)
    out_ch = n * channels if out_ch is None else out_ch
    if size % 2 == 0:
        raise ConfigError(f"impulse kernel size must be odd, got {size}")
    if out_ch < n * channels:
        raise ConfigError(
            f"{out_ch} output channels cannot host {n} signed impulses for each of "
            f"{channels} input channels"
        )
    k = np.zeros((out_ch, channels, size, size))
    for c in range(channels):
        for i, sign in enumerate(signs):
            k[n * c + i, c, size // 2, size // 2] = sign
    return k


def identity_image(channels, n) -> np.ndarray:
    """Multi-channel convolution identity embedded in an image grid.

    Returns a ``(channels, channels, n, n)`` tensor whose diagonal entries
    are centered impulses; convolving a kernel with it embeds the kernel's
    impulse response at the image center.  One channel gives the unit
    impulse image.
    """
    out = np.zeros((channels, channels, n, n))
    for c in range(channels):
        out[c, c, n // 2, n // 2] = 1.0
    return out


def _offsets(kv, kh):
    cv, ch = kv // 2, kh // 2
    return [(u - cv, v - ch) for u in range(kv) for v in range(kh)]


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
    adjoint).  Each tap is filled by :func:`_wrap_shift`'s block copies,
    with no padded copy of the signal.
    """
    sr, sc, h, w = signal.shape
    sign = -1 if correlate else 1
    stack = np.empty((sr, kv * kh, sc, h, w))
    for i, (du, dv) in enumerate(_offsets(kv, kh)):
        _wrap_shift(stack[:, i], signal, sign * du, sign * dv)
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
    sign = -1 if correlate else 1  # as in _shift_stack, whose adjoint this is
    for i, (du, dv) in enumerate(_offsets(kv, kh)):
        start = margin - sign * (du * ph + dv)
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


def _pointwise(kernel):
    """The ``(out, in)`` center taps of a kernel whose every other tap is
    zero, or ``None`` for any other kernel."""
    ko, kc, kv, kh = kernel.shape
    taps = kernel.reshape(ko * kc, kv * kh)
    center = kv * kh // 2
    if taps[:, :center].any() or taps[:, center + 1 :].any():
        return None
    return taps[:, center].reshape(ko, kc)


def _channel_mix(matrix, signal):
    """A pointwise conv: the ``(out, in)`` matrix applied to the signal's
    rows, columns and pixels flattened."""
    sr, sc, h, w = signal.shape
    return (matrix @ signal.reshape(sr, sc * h * w)).reshape(matrix.shape[0], sc, h, w)


# Largest shift stack (expanding conv) or set of tap products (contracting
# conv) that conv2d forms at once; a larger one is formed strip by strip.
STRIP_BYTES = 4 << 20


def _strip_rows(kernel_shape, signal_shape):
    """Rows per strip of :func:`conv2d`, or ``None`` when the whole image's
    stack or tap products fit in :data:`STRIP_BYTES`.

    A strip of ``R`` rows stacks ``R + 2 * cv`` input rows (expanding), or
    forms products over ``R + 4 * cv`` bordered rows (contracting), where
    ``cv = kv // 2``.  All strips but the last have the same height, so
    that successive strips allocate arrays of one size.
    """
    ko, kc, kv, kh = kernel_shape
    sc, h, w = signal_shape[1:]
    cv = kv // 2
    if _contracting(kernel_shape):
        row_bytes, extra = ko * kv * kh * sc * (w + 2 * (kh // 2)) * 8, 2 * cv
    else:
        row_bytes, extra = kc * kv * kh * sc * w * 8, 0
    grid = h + extra  # the rows _conv_strips computes
    if row_bytes * grid <= STRIP_BYTES:
        return None
    strips = -(-grid // max(1, STRIP_BYTES // row_bytes - 2 * cv - extra))
    return -(-grid // strips)


def _conv_strips(kernel, signal, rows):
    """:func:`_conv_forward` computed ``rows`` output rows at a time, with
    the whole-image call's products and sums (module docstring).

    An expanding conv reads each strip from a circular slab of the input:
    the strip plus ``kv // 2`` halo rows on each side, so every tap of a
    strip row stacks the same input row as the whole-image stack.  A
    contracting conv computes, strip by strip, the rows of the halo-bordered
    grid that :func:`_fold_products` sums its taps on, each from a slab of
    the zero-bordered input, and then folds that grid's halo rows onto the
    image: the wrapped rows are added after all other taps, as in the
    whole-image fold.  Either way each slab's own halo rows are discarded.
    """
    ko, kc, kv, kh = kernel.shape
    sr, sc, h, w = signal.shape
    cv = kv // 2
    contracting = _contracting(kernel.shape)
    grid = h + 2 * cv if contracting else h
    out = np.empty((ko, sc, grid, w))
    for r0 in range(0, grid, rows):
        r1 = min(r0 + rows, grid)
        if contracting:
            # bordered row r is image row r - cv; the slab holds bordered
            # rows r0 - cv .. r1 + cv, zero outside the image
            slab = np.zeros((sr, sc, r1 - r0 + 2 * cv, w))
            lo, hi = max(r0 - 2 * cv, 0), min(r1, h)
            slab[:, :, lo - r0 + 2 * cv : hi - r0 + 2 * cv] = signal[:, :, lo:hi]
        else:
            slab = signal.take(range(r0 - cv, r1 + cv), axis=2, mode="wrap")
        # the slab's stack is dropped here, before the next one is formed
        out[:, :, r0:r1] = _conv_forward(kernel, slab)[0][:, :, cv : cv + r1 - r0]
    if not contracting:
        return out
    _fold_halo(out, cv, h)
    # close up the image rows in place: each channel's rows move back over
    # the halo rows before them, so no second output-sized array is needed
    flat, size = out.reshape(-1), h * w
    for b in range(ko * sc):
        flat[b * size : (b + 1) * size] = flat[(b * grid + cv) * w : (b * grid + cv) * w + size]
    return flat[: ko * sc * size].reshape(ko, sc, h, w)


def _conv_operands(kernel, signal, axis):
    """``(kernel, signal, mix)`` of a conv whose kernel ``axis`` (0 rows,
    1 columns) meets the signal's rows; ``mix`` is :func:`_pointwise`'s
    matrix of the kernel, or ``None``."""
    kernel = as_tensor4(kernel, "kernel")
    signal = as_tensor4(signal, "signal")
    if kernel.shape[axis] != signal.shape[0]:
        raise ShapeError(
            f"channel mismatch: kernel {('rows', 'columns')[axis]} {kernel.shape[axis]} "
            f"vs signal rows {signal.shape[0]}"
        )
    if kernel.shape[2] % 2 == 0 or kernel.shape[3] % 2 == 0:
        raise ConfigError(f"kernel spatial dims must be odd, got {kernel.shape[2:]}")
    return kernel, signal, _pointwise(kernel)


def conv2d(kernel, signal) -> np.ndarray:
    """Tensor convolution of a kernel with a signal.

    Output row ``r`` is the sum over input channels ``c`` of the circular
    2-D convolution ``kernel[r, c] * signal[c]``; the column axis of the
    signal is carried through untouched.  Output spatial size equals the
    signal's.  A large conv is computed in strips of rows
    (:func:`_conv_strips`) with the same products and sums.
    """
    kernel, signal, mix = _conv_operands(kernel, signal, 1)
    if mix is not None:
        return _channel_mix(mix, signal)
    rows = _strip_rows(kernel.shape, signal.shape)
    if rows is not None:
        return _conv_strips(kernel, signal, rows)
    out, _ = _conv_forward(kernel, signal)
    return out


def conv2d_adjoint(kernel, signal) -> np.ndarray:
    """Exact adjoint of ``conv2d(kernel, .)``.

    Satisfies ``<conv2d(k, x), y> == <x, conv2d_adjoint(k, y)>`` for all
    ``x``, ``y``; equivalently, convolution with the channel-transposed and
    spatially reversed kernel.
    """
    kernel, signal, mix = _conv_operands(kernel, signal, 0)
    if mix is not None:
        return _channel_mix(mix.T, signal)
    return _conv_grad_signal(kernel, signal)


def tensor_transpose(t) -> np.ndarray:
    """Swap the row and column (channel) axes; filters are untouched."""
    t = as_tensor4(t)
    return np.ascontiguousarray(np.swapaxes(t, 0, 1))


def _bank_taps(filters):
    """Nonzero taps of a ``(bands, 1, kv, kh)`` filter stack: their
    ``(du, dv)`` offsets and their ``(bands, taps)`` weights, contiguous
    for the matrix product."""
    bands, one, kv, kh = filters.shape
    if one != 1:
        raise ShapeError(f"filter bank must have shape (bands, 1, v, h), got {filters.shape}")
    if kv % 2 == 0 or kh % 2 == 0:
        raise ConfigError(f"filter spatial dims must be odd, got {filters.shape[2:]}")
    flat = filters.reshape(bands, kv * kh)
    taps = np.flatnonzero(np.any(flat, axis=0))
    offsets = [(t // kh - kv // 2, t % kh - kh // 2) for t in taps.tolist()]
    return offsets, np.ascontiguousarray(flat[:, taps])


def _wrap_shift(dst, src, a, b, add=False):
    """``dst = np.roll(src, (a, b))`` over the two spatial axes (``+=``
    with ``add``), written block by block without a temporary."""
    n, m = src.shape[-2:]
    a, b = a % n, b % m
    for d0, s0, n0 in ((0, n - a, a), (a, 0, n - a)):
        for d1, s1, n1 in ((0, m - b, b), (b, 0, m - b)):
            if n0 and n1:
                block = src[..., s0 : s0 + n0, s1 : s1 + n1]
                if add:
                    dst[..., d0 : d0 + n0, d1 : d1 + n1] += block
                else:
                    dst[..., d0 : d0 + n0, d1 : d1 + n1] = block


def bank_down(filters, x) -> np.ndarray:
    """Apply a ``(bands, 1, k, k)`` filter stack to every channel of ``x``
    and decimate by 2.

    Equals the phase-0 samples of ``conv2d(B, x)`` for the block-diagonal
    bank ``B`` of shape ``(C * bands, C, k, k)`` whose rows hold the bands
    of each input channel in turn.  Output ``(p, q)`` of tap ``(du, dv)``
    reads ``x[2p - du, 2q - dv]``: one polyphase component of ``x``,
    circularly shifted.  Those components, one per nonzero tap, are
    stacked and mixed into the bands by one small matrix product.
    """
    c, cols, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"spatial dims {h}x{w} not divisible by factor 2")
    h, w = h // 2, w // 2
    offsets, weights = _bank_taps(filters)
    stack = np.empty((c, len(offsets), cols, h, w))
    for i, (du, dv) in enumerate(offsets):
        e, f = du % 2, dv % 2
        _wrap_shift(stack[:, i], x[:, :, e::2, f::2], (du + e) // 2, (dv + f) // 2)
    out = weights @ stack.reshape(c, len(offsets), cols * h * w)
    return out.reshape(c * filters.shape[0], cols, h, w)


def bank_up(filters, x) -> np.ndarray:
    """Up-sample by 2 and apply the transposed per-channel bank: the
    synthesis that :func:`bank_down` with the 180-degree rotated filters
    is the adjoint of.

    Equals ``conv2d(tensor_transpose(B), u)`` for the block-diagonal bank
    ``B`` of ``(C, bands)`` blocks, where ``x`` holds ``C * bands``
    channels and ``u`` is ``x`` with a zero inserted after each sample.  Tap ``(du, dv)`` writes only the output phase
    ``(du % 2, dv % 2)``, from the bands mixed by that tap's weights and
    circularly shifted.
    """
    bands = filters.shape[0]
    cb, cols, h, w = x.shape
    if cb % bands:
        raise ShapeError(f"{cb} channels do not split into {bands} bands")
    c = cb // bands
    offsets, weights = _bank_taps(filters)
    mixed = np.ascontiguousarray(weights.T) @ x.reshape(c, bands, cols * h * w)
    mixed = mixed.reshape(c, len(offsets), cols, h, w)
    out = np.empty((c, cols, 2 * h, 2 * w))
    written = set()  # output phases that a tap has written; later ones add
    for i, (du, dv) in enumerate(offsets):
        e, f = du % 2, dv % 2
        shift = (du - e) // 2, (dv - f) // 2
        _wrap_shift(out[:, :, e::2, f::2], mixed[:, i], *shift, add=(e, f) in written)
        written.add((e, f))
    for e, f in {(0, 0), (0, 1), (1, 0), (1, 1)} - written:
        out[:, :, e::2, f::2] = 0.0
    return out
