"""Synthetic image sources and the additive noise model.

Training images are random overlapping filled triangles on a dark
background, scaled to [0, 1].  A fixed piecewise-constant scene stands in
for the classic photographic test images, which cannot be bundled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .tensor import as_image

__all__ = [
    "NoiseModel",
    "gen_triangles",
    "add_noise",
    "piecewise_scene",
]


def _fill_triangle(plane, verts, value):
    """Paint a filled triangle given three (row, col) vertices."""
    rows, cols = plane.shape
    rr, cc = np.mgrid[0:rows, 0:cols]
    rr = rr + 0.5
    cc = cc + 0.5

    def edge(p, q):
        return (cc - p[1]) * (q[0] - p[0]) - (rr - p[0]) * (q[1] - p[1])

    d0 = edge(verts[0], verts[1])
    d1 = edge(verts[1], verts[2])
    d2 = edge(verts[2], verts[0])
    has_neg = (d0 < 0) | (d1 < 0) | (d2 < 0)
    has_pos = (d0 > 0) | (d1 > 0) | (d2 > 0)
    plane[~(has_neg & has_pos)] = value


def gen_triangles(n_images, size, triangles_per_image, intensity_range, seed) -> np.ndarray:
    """Generate ``(n_images, 1, 1, N_r, N_c)`` images of overlapping triangles.

    ``size`` is ``(N_r, N_c)``.  Each image holds a uniform count of
    triangles in the inclusive ``triangles_per_image`` range, each of a
    uniform intensity in ``intensity_range``; later triangles paint over
    earlier ones.  Deterministic per seed.  :class:`~fdl.training.TrainConfig`
    states the law the arguments follow; they are not checked here.
    """
    rng = np.random.default_rng(seed)
    n_r, n_c = size
    lo, hi = intensity_range
    out = np.zeros((n_images, 1, 1, n_r, n_c))
    for i in range(n_images):
        plane = out[i, 0, 0]
        count = int(rng.integers(triangles_per_image[0], triangles_per_image[1] + 1))
        for _ in range(count):
            # vertices may fall slightly outside so triangles can straddle
            # the border
            verts = np.column_stack(
                [
                    rng.uniform(-0.25 * n_r, 1.25 * n_r, size=3),
                    rng.uniform(-0.25 * n_c, 1.25 * n_c, size=3),
                ]
            )
            _fill_triangle(plane, verts, float(rng.uniform(lo, hi)))
    return np.clip(out, 0.0, 1.0)


@dataclass(frozen=True)
class NoiseModel:
    """Additive white Gaussian noise of a fixed standard deviation."""

    sigma_eta: float
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.sigma_eta < math.inf:
            raise ConfigError(f"sigma_eta must be finite and >= 0, got {self.sigma_eta}")


def add_noise(x, model: NoiseModel) -> np.ndarray:
    """Contaminate an image: ``y = x + eta``.

    The output is intentionally not clamped; the observation model is
    purely additive.
    """
    x = as_image(x)
    if model.sigma_eta == 0.0:
        return x.copy()
    rng = np.random.default_rng(model.seed)
    return x + rng.normal(scale=model.sigma_eta, size=x.shape)


def piecewise_scene(size) -> np.ndarray:
    """Deterministic piecewise-constant test scene on [0, 1].

    Flat regions of several intensities with straight and curved edges;
    useful as a stand-in for photographic test images in examples and
    experiments.
    """
    if size < 16 or size % 2:
        raise ConfigError(f"scene size must be even and >= 16, got {size}")
    s = float(size)
    img = np.full((size, size), 0.20)
    rr, cc = np.mgrid[0:size, 0:size]
    rr = rr + 0.5
    cc = cc + 0.5

    img[(rr > 0.08 * s) & (rr < 0.48 * s) & (cc > 0.10 * s) & (cc < 0.55 * s)] = 0.55
    img[(rr > 0.16 * s) & (rr < 0.36 * s) & (cc > 0.18 * s) & (cc < 0.34 * s)] = 0.85
    disk = (rr - 0.68 * s) ** 2 + (cc - 0.32 * s) ** 2 < (0.16 * s) ** 2
    img[disk] = 0.95
    _fill_triangle(img, [(0.55 * s, 0.60 * s), (0.92 * s, 0.62 * s), (0.80 * s, 0.95 * s)], 0.40)
    img[(rr > 0.10 * s) & (rr < 0.90 * s) & (cc > 0.70 * s) & (cc < 0.76 * s)] = 0.70
    return img[None, None]
