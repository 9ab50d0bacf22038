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

:func:`conv2d_adjoint` is :func:`conv2d` of the adjoint kernel, the
kernel transposed over its channels and rotated by 180 degrees, so it
takes every route of the forward conv below, strips included.

A *pointwise* kernel, one whose nonzero entries all sit at its center
tap, is a 1x1 channel mix whatever its size: :func:`conv2d` applies its
``(out, in)`` center matrix to the flattened signal in one product, with
no shift stack and no fold.  The ideal impulse banks of reconstruction
analysis are of this kind.  Every other kernel takes the stack-or-fold
route above, and so does the differentiable conv of :mod:`fdl.autodiff`:
a zero tap still has a nonzero kernel gradient.

:func:`conv2d` bounds its working set.  When the whole image's shift
stack (expanding conv) or tap products (contracting conv) would exceed
:data:`STRIP_BYTES`, it computes the output in strips of rows.  A strip
forms its own output rows only, from the windows of the input's periodic
extension that their taps read, and writes them into the output, so a
conv holds a strip's stack instead of the image's (56 MB for a 12 -> 24
channel 3x3 conv at 256x256).

The strips of a conv run on :data:`STRIP_THREADS` threads: on one CPU,
the caller's, in row order; otherwise two workers of a module-level
``ThreadPoolExecutor``.  numpy releases the GIL in a strip's matrix
product, copies and adds, and each strip writes only its own output
rows, so the output bytes do not depend on the thread count.  The memory
contract: a conv holds its input, its output and at most two strips,
each within :data:`STRIP_BYTES`.  A contracting strip counts its
wrap-padded input and its accumulator in that budget beside its tap
products; a product of an expanding strip over a one-column signal goes
straight into the output rows.  A conv's jobs take strip starts from one
shared iterator; after a strip's error none starts, and the error
reaches the caller once the running strips have finished.  The executor,
and ``concurrent.futures`` with it, is created on the first conv that
takes strips.  Its workers are not daemon threads; the interpreter joins
them, idle, at exit.  A strip never submits work to the pool, where two
workers waiting on their own strips would deadlock, and it calls only
:func:`_conv_rows` and the stack and fold under it: never
:func:`conv2d`, :func:`_conv_forward` or :func:`_shift_stack`, which a
profiler may wrap assuming one thread (the bench's tracer does).  A
forked child drops the parent's executor, whose workers it does not
have, and creates its own on first use, so a process pool's workers may
call :func:`conv2d`.

Every output sample sums its taps in tap order, at the image's wrap as
anywhere else: a fold forms its tap products on the signal wrap-padded by
the kernel's reach, so no tap is added apart from the others.  An output
sample is then formed from one column of a matrix product (stacked conv)
or from one column per tap (fold), so the convs are bitwise
shift-equivariant, and a strip gives the whole image's bytes, wherever the
BLAS computes each column of a product independently of the product's
width.  The column condition: a column of a whole 8-column tile is
computed the same way in any product whose inner dimension is at most 384
(an expanding conv's ``in * kv * kh``), while the last ``N % 8`` columns
of an ``N``-column product, or a small product with a deeper inner
dimension, may be rounded another way.  So a fold pads its product with
zero columns to whole tiles, and a stacked conv's ``N`` is a multiple of 8
when the image width is; otherwise a few outputs may differ in the last
bits.  The bitwise strip and shift tests pass with numpy's bundled
OpenBLAS 0.3.31 on its Katmai, Nehalem, Sandybridge, Haswell and SkylakeX
kernels (chosen through ``OPENBLAS_CORETYPE``).  The autodiff conv
keeps the whole-image route: the kernel gradient needs the whole stack.

All functions are pure and operate on immutable inputs, so they are safe to
call concurrently.
"""

from __future__ import annotations

import os
import threading

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


def _shift_stack(signal, kv, kh, correlate=False):
    """Stack of circularly shifted copies of ``signal``, one per kernel tap:
    :func:`_stack_rows` over every row of the image."""
    return _stack_rows(signal, kv, kh, range(signal.shape[2]), correlate)


def _stack_rows(signal, kv, kh, rows, correlate=False):
    """Rows ``rows`` (a ``range``) of the shift stack of ``signal``.

    Layout is ``(signal rows, taps, cols, len(rows), W)`` with taps
    enumerated row-major over the kernel window, matching
    ``kernel.reshape(out, -1)``.  With ``correlate=True`` shifts run in the
    opposite direction (the gradients of a contracting conv).  Each tap is
    one :func:`_wrap_window` of the signal, with no padded copy of it.
    """
    sr, sc, _, w = signal.shape
    sign = -1 if correlate else 1
    stack = np.empty((sr, kv * kh, sc, len(rows), w))
    for i, (du, dv) in enumerate(_offsets(kv, kh)):
        _wrap_window(stack[:, i], signal, rows.start - sign * du, -sign * dv)
    return stack


def _fold_products(kmat, signal, kv, kh, correlate=False, rows=None, out=None):
    """Fold (col2im) of the per-tap products ``kmat @ signal``: the adjoint
    of :func:`_shift_stack`, applied to them, so each tap's product plane
    is shifted back and summed into ``(out, cols, len(rows), W)``.  Only
    image rows ``rows`` (a ``range``, default all) are formed; given
    ``out``, a whole-image array, they are written into its rows ``rows``.

    ``kmat`` holds one block of ``out`` rows per tap, taps in stack order.
    The product is taken on the window of the signal's periodic extension
    that adds the kernel's reach around those rows, so every plane already
    holds, around each output sample, the products of the circular
    neighbours that its taps read: each plane lands by one contiguous flat
    shift, and every output sample sums its taps in tap order, at the wrap
    as anywhere else.  The flat width of the product is rounded up to a
    multiple of 8 with zero columns (see the module docstring).
    """
    sr, sc, h, w = signal.shape
    rows = range(h) if rows is None else rows
    cv, ch = kv // 2, kh // 2
    pv, ph = len(rows) + 2 * cv, w + 2 * ch
    n = sc * pv * ph
    padded = np.empty((sr, -(-n // 8) * 8))
    padded[:, n:] = 0.0
    _wrap_window(padded[:, :n].reshape(sr, sc, pv, ph), signal, rows.start - cv, -ch)
    products = kmat @ padded
    del padded  # before the accumulator is allocated
    ko = products.shape[0] // (kv * kh)
    first = cv * ph + ch  # flat position of output sample (0, 0)
    size = n - 2 * first  # up to the last output sample of the last signal column
    acc = np.zeros((ko, n))
    sign = -1 if correlate else 1  # as in _shift_stack, whose adjoint this is
    for i, (du, dv) in enumerate(_offsets(kv, kh)):
        start = first + sign * (du * ph + dv)
        acc[:, :size] += products[i * ko : (i + 1) * ko, start : start + size]
    planes = acc.reshape(ko, sc, pv, ph)[:, :, : len(rows), :w]
    if out is None:
        return np.ascontiguousarray(planes)
    out[:, :, rows.start : rows.stop] = planes
    return out


def _contracting(kernel_shape):
    """A conv with more input than output channels stacks its output side."""
    return kernel_shape[1] > kernel_shape[0]


def _conv_forward(kernel, signal):
    """Circular convolution; also returns the input's shift stack for the
    kernel gradient, or ``None`` for a contracting conv: :func:`_conv_rows`
    over every row of the image."""
    return _conv_rows(kernel, signal, range(signal.shape[2]))


def _conv_rows(kernel, signal, rows, out=None):
    """Rows ``rows`` (a ``range``) of the circular convolution, and their
    shift stack of the input, or ``None`` for a contracting conv.  Given
    ``out``, a whole-image output array, the rows are written into it and
    ``out`` is returned.

    An expanding (or equal) conv stacks its input, ``kc * k^2`` rows, and
    applies the kernel in one matrix product; for a one-column signal the
    product is written straight into the output rows.  A contracting conv
    instead forms the per-tap products ``kernel @ x``, ``ko * k^2`` rows,
    and folds them into ``ko`` channels, so the wide input is never
    stacked.
    """
    ko, kc, kv, kh = kernel.shape
    if _contracting(kernel.shape):
        kmat = kernel.transpose(2, 3, 0, 1).reshape(kv * kh * ko, kc)
        return _fold_products(kmat, signal, kv, kh, correlate=True, rows=rows, out=out), None
    sr, sc, _, w = signal.shape
    stack = _stack_rows(signal, kv, kh, rows)
    kmat = kernel.reshape(ko, kc * kv * kh)
    smat = stack.reshape(sr * kv * kh, sc * len(rows) * w)
    if out is None:
        return (kmat @ smat).reshape(ko, sc, len(rows), w), stack
    if sc == 1:
        np.matmul(kmat, smat, out=out.reshape(ko, -1)[:, rows.start * w : rows.stop * w])
    else:
        out[:, :, rows.start : rows.stop] = (kmat @ smat).reshape(ko, sc, len(rows), w)
    return out, stack


def _conv_grad_signal(kernel, grad, *, stack=None):
    """Gradient of ``conv2d`` in its signal argument.

    A contracting conv correlates the narrow gradient: ``stack``, the
    correlate shift stack of ``grad`` (``ko * k^2`` rows) that the kernel
    gradient shares, times the transposed kernel.  An expanding conv forms
    ``kernel^T @ grad``, ``kc * k^2`` rows, and folds it into ``kc``
    channels; it takes no stack.
    """
    ko, kc, kv, kh = kernel.shape
    if _contracting(kernel.shape):
        gc, h, w = grad.shape[1:]
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


# Largest shift stack (expanding conv) or set of tap products (contracting
# conv) that conv2d forms at once; a larger one is formed strip by strip.
STRIP_BYTES = 4 << 20

# Strips of one conv in flight at once: two on a host that gives this
# process two or more CPUs, run on the strip pool; one, on the caller's
# thread, otherwise.
STRIP_THREADS = min(
    2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

_strip_pool = None  # ThreadPoolExecutor of the strips, started on first use
_strip_lock = threading.Lock()


def _strip_rows(kernel_shape, signal_shape):
    """Rows per strip of :func:`conv2d`, or ``None`` when the whole image's
    stack or tap products fit in :data:`STRIP_BYTES`.

    A strip of ``R`` rows holds ``k^2`` planes of the conv's narrow side
    (its input when expanding, its output when contracting) over at most
    ``R + 2 * (kv // 2)`` rows of ``W + 2 * (kh // 2)`` columns: a
    contracting strip forms tap products over the kernel's reach around
    its rows, an expanding one stacks its own rows only.  A contracting
    strip also holds its wrap-padded input and its accumulator over those
    rows, so they count against its budget too; a fold's bytes do not
    depend on its height, an expanding strip's may (module docstring), so
    only the fold pays for the two-strip contract with shorter strips.
    All strips but the last have the same height, so that successive
    strips allocate arrays of one size.
    """
    ko, kc, kv, kh = kernel_shape
    sc, h, w = signal_shape[1:]
    pad = 2 * (kv // 2)
    plane_row = sc * (w + 2 * (kh // 2)) * 8
    if min(ko, kc) * kv * kh * plane_row * (h + pad) <= STRIP_BYTES:
        return None
    planes = ko * kv * kh + kc + ko if _contracting(kernel_shape) else kc * kv * kh
    strips = -(-h // max(1, STRIP_BYTES // (planes * plane_row) - pad))
    return -(-h // strips)


def _forget_strip_pool():
    """In a forked child: the parent's pool threads do not exist there."""
    global _strip_pool, _strip_lock
    _strip_pool, _strip_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_strip_pool)


def _conv_strips(kernel, signal, rows):
    """:func:`_conv_forward` computed ``rows`` output rows at a time, with
    the whole-image call's products and sums (module docstring).

    Each strip forms its own output rows alone, from the windows of the
    input's periodic extension that its taps read, and writes them into
    the output, so every output row is formed once and the strips may run
    in any order: on one thread in row order, on the caller's; otherwise
    in one job per thread on the strip pool, each taking the next start
    from a shared iterator.  A job whose strip fails drains the iterator
    and re-raises; the caller raises the first job's error only once
    every job is done, so after the running strips have finished.
    """
    ko = kernel.shape[0]
    sc, h, w = signal.shape[1:]
    out = np.empty((ko, sc, h, w))
    starts = iter(range(0, h, rows))  # shared by the jobs; taking one holds the GIL

    def work():
        try:
            for r0 in starts:
                # the strip's stack or products are dropped on return
                _conv_rows(kernel, signal, range(r0, min(r0 + rows, h)), out)
        except BaseException:  # re-raised once no further strip starts
            for _ in starts:
                pass
            raise

    if STRIP_THREADS < 2:
        work()
        return out
    global _strip_pool
    with _strip_lock:
        if _strip_pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _strip_pool = ThreadPoolExecutor(STRIP_THREADS, thread_name_prefix="fdl-strip")
        jobs = [_strip_pool.submit(work) for _ in range(STRIP_THREADS)]
    for error in [job.exception() for job in jobs]:  # waits for every job
        if error is not None:
            raise error
    return out


def conv2d(kernel, signal) -> np.ndarray:
    """Tensor convolution of a kernel with a signal.

    Output row ``r`` is the sum over input channels ``c`` of the circular
    2-D convolution ``kernel[r, c] * signal[c]``; the column axis of the
    signal is carried through untouched.  Output spatial size equals the
    signal's.  A pointwise kernel is one channel mix; a large conv is
    computed in strips of rows (:func:`_conv_strips`) with the same
    products and sums.
    """
    kernel = as_tensor4(kernel, "kernel")
    signal = as_tensor4(signal, "signal")
    if kernel.shape[1] != signal.shape[0]:
        raise ShapeError(
            f"channel mismatch: kernel columns {kernel.shape[1]} vs signal rows {signal.shape[0]}"
        )
    if kernel.shape[2] % 2 == 0 or kernel.shape[3] % 2 == 0:
        raise ConfigError(f"kernel spatial dims must be odd, got {kernel.shape[2:]}")
    mix = _pointwise(kernel)
    if mix is not None:
        sr, sc, h, w = signal.shape
        return (mix @ signal.reshape(sr, sc * h * w)).reshape(mix.shape[0], sc, h, w)
    rows = _strip_rows(kernel.shape, signal.shape)
    if rows is not None:
        return _conv_strips(kernel, signal, rows)
    out, _ = _conv_forward(kernel, signal)
    return out


def conv2d_adjoint(kernel, signal) -> np.ndarray:
    """Exact adjoint of ``conv2d(kernel, .)``: :func:`conv2d` of the
    adjoint kernel, ``kernel`` transposed over its channels and rotated by
    180 degrees, so ``<conv2d(k, x), y> == <x, conv2d_adjoint(k, y)>`` for
    all ``x``, ``y``.  Errors name the adjoint kernel's shape.
    """
    kernel = as_tensor4(kernel, "kernel")
    return conv2d(kernel[:, :, ::-1, ::-1].swapaxes(0, 1), signal)


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


def _wrap_runs(start, length, period):
    """``(dst, src, count)`` runs that copy ``length`` samples of a
    ``period``-periodic axis from ``start`` on; one run when no wrap is
    crossed."""
    s = start % period
    if s + length <= period:
        return ((0, s, length),)
    d = period - s
    runs = [(0, s, d)]
    while d + period < length:
        runs.append((d, 0, period))
        d += period
    runs.append((d, 0, length - d))
    return runs


def _wrap_window(dst, src, r0, c0, add=False):
    """Write into ``dst`` (``+=`` with ``add``) the window of ``src``'s
    periodic extension over the two spatial axes whose first sample is
    ``src[..., r0 % n, c0 % m]``, block by block without a temporary.

    The window may be larger than ``src``; ``np.roll(src, (a, b))`` is the
    ``src``-sized window at ``(-a, -b)``.
    """
    n, m = src.shape[-2:]
    h, w = dst.shape[-2:]
    cols = _wrap_runs(c0, w, m)
    for d0, s0, n0 in _wrap_runs(r0, h, n):
        for d1, s1, n1 in cols:
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
        _wrap_window(stack[:, i], x[:, :, e::2, f::2], -((du + e) // 2), -((dv + f) // 2))
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
        start = -((du - e) // 2), -((dv - f) // 2)
        _wrap_window(out[:, :, e::2, f::2], mixed[:, i], *start, add=(e, f) in written)
        written.add((e, f))
    for e, f in {(0, 0), (0, 1), (1, 0), (1, 1)} - written:
        out[:, :, e::2, f::2] = 0.0
    return out
