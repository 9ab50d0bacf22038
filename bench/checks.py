"""Independent output checks for the benchmark.

Every check recomputes the expected result with code of its own (FFT
circular convolution, numpy's SVD, closed-form operation counts) instead
of calling back into the program, and returns ``(ok, detail)``.  A check
never raises on a wrong output; it reports it.
"""

from __future__ import annotations

import math
import re

import numpy as np

PGM_MAX = 65535
# One quantization step of a 16-bit PGM: the program rounds to the nearest
# level, the reference is rounded here, and an FFT result can sit on the
# other side of a rounding boundary by at most one step.
PGM_TOL = 1.0 / PGM_MAX + 1e-12
# Tolerance of the training-history reference.  Reordering a float64 sum
# in the conv moves the short reference run by about 1e-16 relative;
# float32 arithmetic moves it by 1e-9 (kernel gradient only) to 5e-8
# (forward conv).
HISTORY_RTOL = 1e-11


# ---------------------------------------------------------------------------
# Image files
# ---------------------------------------------------------------------------


def quantize(image):
    """Round an array in [0, 1] to the 16-bit levels a PGM file stores."""
    return np.round(np.clip(image, 0.0, 1.0) * PGM_MAX) / PGM_MAX


def write_pgm16(path, image):
    """Write a 2-D array in [0, 1] as a 16-bit binary PGM."""
    levels = np.round(np.clip(image, 0.0, 1.0) * PGM_MAX).astype(">u2")
    rows, cols = levels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n{PGM_MAX}\n".encode("ascii") + levels.tobytes())


def read_pgm16(path):
    """Read a 16-bit binary PGM without comments, as written by the program."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if header is None or int(header.group(3)) != PGM_MAX:
        raise ValueError(f"{path}: not a 16-bit P5 file")
    cols, rows = int(header.group(1)), int(header.group(2))
    pixels = np.frombuffer(data, dtype=">u2", count=rows * cols, offset=header.end())
    return pixels.reshape(rows, cols) / PGM_MAX


# ---------------------------------------------------------------------------
# Circular convolution by FFT
# ---------------------------------------------------------------------------


def fft_conv(kernel, signal):
    """Circular tensor convolution with centered odd kernels, by FFT.

    ``kernel`` is (out, in, kv, kh) and ``signal`` (in, cols, h, w); output
    row ``r`` is the sum over ``c`` of ``kernel[r, c]`` convolved with
    ``signal[c]``.  Each tap is applied as a phase ramp in the frequency
    domain, so no (out, in, h, w) spectrum is ever held in memory.
    """
    _, _, kv, kh = kernel.shape
    h, w = signal.shape[2:]
    spectrum = np.fft.fft2(signal)
    freq_v = np.fft.fftfreq(h)[:, None]
    freq_h = np.fft.fftfreq(w)[None, :]
    out = 0.0
    for u in range(kv):
        for v in range(kh):
            ramp = np.exp(-2j * np.pi * ((u - kv // 2) * freq_v + (v - kh // 2) * freq_h))
            out = out + np.tensordot(kernel[:, :, u, v], spectrum, axes=(1, 0)) * ramp
    return np.real(np.fft.ifft2(out))


def toy_forward_fft(enc, enc_bias, dec, dec_bias, image):
    """Reference output of the 6/12/24 model: rectified encoder convs, then
    decoder kernels applied channel-transposed, deepest level first."""
    x = image
    for k, b in zip(enc, enc_bias):
        x = np.maximum(fft_conv(k, x) + b[:, None, None, None], 0.0)
    for k, b in zip(reversed(dec), reversed(dec_bias)):
        x = np.maximum(fft_conv(np.swapaxes(k, 0, 1), x) + b[:, None, None, None], 0.0)
    return x


def check_model_output(output, reference):
    """The written output equals the quantized FFT reference."""
    if output.shape != reference.shape[2:]:
        return False, f"output shape {output.shape}, expected {reference.shape[2:]}"
    err = float(np.max(np.abs(output - quantize(reference[0, 0]))))
    return err <= PGM_TOL, f"max |output - fft reference| = {err:.3g} (tol {PGM_TOL:.3g})"


# ---------------------------------------------------------------------------
# Denoising results
# ---------------------------------------------------------------------------


def discarded_energy(image, rank):
    """Sum of the squared singular values beyond ``rank``."""
    sigma = np.linalg.svd(image, compute_uv=False)
    return float(np.sum(sigma[rank:] ** 2))


def check_svd_energy(input_energy, snr_output_db, expected):
    """Eckart-Young: the rank-r error energy is the discarded sigma^2.

    The error energy is recovered from the reported SNR of the output
    against the input itself: ``|y|^2 / 10^(snr / 10)``.
    """
    if not math.isfinite(snr_output_db):
        return False, f"non-finite SNR {snr_output_db}"
    measured = input_energy / 10.0 ** (snr_output_db / 10.0)
    rel = abs(measured - expected) / max(expected, 1e-300)
    return rel < 1e-8, f"error energy {measured:.6g} vs discarded sigma^2 {expected:.6g}"


def check_snr_gain(snr_gain_db):
    ok = math.isfinite(snr_gain_db) and snr_gain_db > 0.0
    return ok, f"SNR gain {snr_gain_db:.3f} dB (> 0)"


# ---------------------------------------------------------------------------
# Training results
# ---------------------------------------------------------------------------


def history_values(history):
    """Flatten a history (``{"epochs": [...]}``) into (label, value) pairs."""
    out = []
    for row in history["epochs"]:
        for key in sorted(row):
            out.append((f"epoch{row['epoch']}.{key}", row[key]))
    return out


LOSS_KEYS = ("train_loss", "val_mse")


def check_finite_losses(history):
    bad = [
        label
        for label, v in history_values(history)
        if label.endswith(LOSS_KEYS) and not math.isfinite(v)
    ]
    return not bad, f"non-finite losses: {bad}" if bad else "all losses finite"


def has_infinite_snr(history):
    """Validation SNR of -inf dB: a validation image with no triangle in
    frame has zero signal energy, and the epoch mean inherits its -inf."""
    return any(not math.isfinite(r.get("val_snr_db", 0.0)) for r in history["epochs"])


def is_dead_history(history):
    """The known dead-model outcome: validation SNR exactly 0.00 dB."""
    rows = history["epochs"]
    return bool(rows) and all(round(r.get("val_snr_db", 1.0), 2) == 0.0 for r in rows)


def check_history_reference(history, reference, rtol=HISTORY_RTOL):
    got = history_values(history)
    want = history_values(reference)
    if [k for k, _ in got] != [k for k, _ in want]:
        return False, "history layout differs from the reference"
    worst, where = 0.0, ""
    for (label, a), (_, b) in zip(got, want):
        rel = abs(a - b) / max(abs(b), 1e-12)
        if rel > worst:
            worst, where = rel, label
    return worst <= rtol, f"max relative deviation {worst:.3g} at {where or '-'} (tol {rtol:g})"


def check_close(a, b, what, atol=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False, f"{what}: shapes {a.shape} vs {b.shape}"
    err = float(np.max(np.abs(a - b))) if a.size else 0.0
    return err <= atol, f"{what}: max difference {err:.3g} (tol {atol:g})"


def check_gradient(analytic, numeric, rtol=1e-2, atol=1e-8):
    """Central differences against the engine's gradient, entry by entry.

    Errors are measured against the largest sampled gradient entry: a
    perturbation that moves some of the ~250k rectifier inputs across
    their kink shifts a central difference by up to about 1e-3 of that
    scale, while a wrong gradient is off by order one.
    """
    analytic, numeric = np.asarray(analytic), np.asarray(numeric)
    err = np.abs(analytic - numeric)
    bound = atol + rtol * float(np.max(np.abs(analytic)))
    worst = float(np.max(err))
    return worst <= bound, f"{analytic.size} entries, max |analytic - numeric| = {worst:.3g} (tol {bound:.3g})"


# ---------------------------------------------------------------------------
# Analysis results
# ---------------------------------------------------------------------------

# Reconstruction verdicts of each architecture family under ideal filters:
# (is_perfect, gain at DC, gain at Nyquist).  They do not depend on widths.
PR_VERDICTS = {
    "lwfsn": (True, 1.0, 1.0),
    "red": (True, 1.0, 1.0),
    "unet": (False, 2.0, 1.0),
    "rlwfsn": (False, 0.0, 1.0),
    "toy": (False, 1.0, 0.5),
}


def check_pr_verdict(family, report):
    perfect, dc, nyquist = PR_VERDICTS[family]
    ok = (
        report.is_perfect == perfect
        and abs(report.gain_dc - dc) < 1e-6
        and abs(report.gain_nyquist - nyquist) < 1e-6
    )
    return ok, (
        f"{family}: perfect={report.is_perfect} dc={report.gain_dc:.6g} "
        f"nyquist={report.gain_nyquist:.6g} (expected {perfect}, {dc}, {nyquist})"
    )


def flops_closed_form(family, widths, n_r, n_c, n_f):
    """Multiply-accumulates of the trainable convs of each family."""
    area, taps = n_r * n_c, n_f * n_f
    if family == "unet":
        c0, c1 = widths
        return 3 * c0 * area * taps + 2 * c0 * c1 * (n_r // 2) * (n_c // 2) * taps
    if family == "red":
        c0, c1 = widths
        return 2 * (1 + c1) * c0 * area * taps
    if family in ("lwfsn", "rlwfsn"):
        (c0,) = widths
        return 2 * c0 * area * taps
    if family == "toy":
        chain = (1,) + tuple(widths)
        return 2 * sum(a * b for a, b in zip(chain[:-1], chain[1:])) * area * taps
    raise ValueError(f"unknown family {family!r}")


def check_flops(family, widths, n_r, n_c, n_f, got):
    want = flops_closed_form(family, widths, n_r, n_c, n_f)
    return got == want, f"{family}{tuple(widths)} at {n_r}x{n_c}, f={n_f}: {got} vs {want}"


def pct_reference(k, k_tilde, grid, tol=0.05):
    """Response of ``decoder^T(relu(encoder . I))`` on the identity probe and
    the phase-complementary verdict derived from it."""
    channels = k.shape[1]
    probe = np.zeros((channels, channels, grid, grid))
    for c in range(channels):
        probe[c, c, grid // 2, grid // 2] = 1.0
    response = fft_conv(np.swapaxes(k_tilde, 0, 1), np.maximum(fft_conv(k, probe), 0.0))
    centers = np.array([response[i, i, grid // 2, grid // 2] for i in range(channels)])
    diag = float(np.sum(centers**2))
    ratio = (float(np.sum(response**2)) - diag) / diag if diag > 0 else math.inf
    is_pct = bool(diag > 0 and ratio < tol and np.min(centers) > 0)
    return response, ratio, is_pct, float(np.mean(centers))


def check_pct_report(report, k, k_tilde, grid):
    response, ratio, is_pct, c_est = pct_reference(k, k_tilde, grid)
    ok, detail = check_close(report.response, response, "pct response", atol=1e-10)
    if not ok:
        return ok, detail
    if report.is_pct != is_pct:
        return False, f"pct verdict {report.is_pct}, expected {is_pct} (ratio {ratio:.6g})"
    if math.isfinite(ratio) and abs(report.ratio - ratio) > 1e-9 * max(1.0, abs(ratio)):
        return False, f"pct ratio {report.ratio:.12g}, expected {ratio:.12g}"
    if abs(report.c_estimate - c_est) > 1e-10 * max(1.0, abs(c_est)):
        return False, f"pct constant {report.c_estimate:.12g}, expected {c_est:.12g}"
    return True, f"pct verdict {is_pct}, ratio {ratio:.3g}"


def embedded_filter(kernel, grid, gain):
    """Impulse response of one (1, 1, v, h) filter on a grid, scaled."""
    out = np.zeros((1, 1, grid, grid))
    kv, kh = kernel.shape[2:]
    c = grid // 2
    out[0, 0, c - kv // 2 : c + kv // 2 + 1, c - kh // 2 : c + kh // 2 + 1] = kernel[0, 0]
    return out * gain
