"""Netpbm grayscale image I/O (PGM, types P2 and P5), optional PNG reading.

PGM is the canonical output format here: trivially parseable, bit-exact,
and diffable.  Outputs are written as 16-bit P5 (big-endian sample order,
as the format requires).  Values map linearly between [0, 1] and
[0, maxval]; out-of-range pixels are clipped on write.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ConfigError, ShapeError

__all__ = ["write_pgm", "read_image"]


# Sample range of written files: 16 bits.
PGM_MAXVAL = 65535


def write_pgm(path, image) -> None:
    """Write a (1, 1, H, W) or (H, W) array in [0, 1] as a 16-bit P5 file."""
    arr = np.asarray(image, dtype=float)
    if arr.ndim == 4:
        if arr.shape[0] != 1 or arr.shape[1] != 1:
            raise ShapeError(f"expected a single-channel image, got {arr.shape}")
        arr = arr[0, 0]
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D image, got shape {arr.shape}")
    quantized = np.round(np.clip(arr, 0.0, 1.0) * PGM_MAXVAL).astype(">u2")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{PGM_MAXVAL}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + quantized.tobytes())


# A header token: a run of non-whitespace, or a # comment to the end of its
# line, which starts only where a token would.
_TOKEN = re.compile(rb"#[^\n]*|\S+")


def _tokens(data: bytes):
    """Yield whitespace-separated header tokens and their end offsets,
    skipping # comments."""
    for match in _TOKEN.finditer(data):
        if not match[0].startswith(b"#"):
            yield match[0], match.end()


def _read_pgm(data: bytes) -> np.ndarray:
    reader = _tokens(data)
    try:
        magic, _ = next(reader)
        (width_tok, _), (height_tok, _), (maxval_tok, end) = (
            next(reader),
            next(reader),
            next(reader),
        )
        width, height, maxval = int(width_tok), int(height_tok), int(maxval_tok)
    except (StopIteration, ValueError) as exc:
        raise ConfigError("malformed PGM header") from exc
    if not 1 <= maxval <= 65535 or width < 1 or height < 1:
        raise ConfigError("malformed PGM header")
    if magic == b"P2":
        try:
            pixels = np.array([int(tok) for tok, _ in _tokens(data[end:])], dtype=float)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed PGM sample: {exc}") from exc
    elif magic == b"P5":
        payload = data[end + 1 :]  # single whitespace byte after maxval
        dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
        if len(payload) < width * height * dtype.itemsize:
            raise ConfigError("PGM pixel data truncated")
        pixels = np.frombuffer(payload, dtype=dtype, count=width * height).astype(float)
    else:
        raise ConfigError(f"unsupported Netpbm type {magic!r} (only P2/P5 grayscale)")
    if pixels.size != width * height:
        raise ConfigError(f"PGM holds {pixels.size} samples, header declares {width * height}")
    if pixels.min() < 0 or pixels.max() > maxval:
        raise ConfigError(f"PGM sample outside [0, {maxval}]")
    return (pixels / maxval).reshape(height, width)[None, None]


def _read_png(path) -> np.ndarray:
    try:
        from PIL import Image
    except ImportError as exc:
        raise ConfigError("PNG support requires Pillow (pip install fdl[png])") from exc
    with Image.open(path) as img:
        gray = img.convert("I") if img.mode in ("I;16", "I") else img.convert("L")
        arr = np.asarray(gray, dtype=float)
        maxval = 65535.0 if gray.mode == "I" else 255.0
    return (arr / maxval)[None, None]


def read_image(path) -> np.ndarray:
    """Read a grayscale PGM (P2/P5) or PNG file as (1, 1, H, W) in [0, 1]."""
    path = str(path)
    if path.lower().endswith(".png"):
        return _read_png(path)
    with open(path, "rb") as fh:
        data = fh.read()
    return _read_pgm(data)
