"""Singular value decomposition and low-rank approximation denoising."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import NoiseModel, add_noise
from .errors import ConfigError, NumericError
from .metrics import snr_db

__all__ = [
    "SVDFactors",
    "LowRankDemoReport",
    "svd",
    "lowrank_approx",
    "lowrank_project",
    "lowrank_denoise_demo",
]


@dataclass(frozen=True)
class SVDFactors:
    """Thin SVD with singular vectors as columns and values descending."""

    u: np.ndarray
    v: np.ndarray
    sigma: np.ndarray

    @property
    def n_sv(self) -> int:
        return self.sigma.size


def svd(y) -> SVDFactors:
    """Factorize a matrix as a weighted sum of rank-one outer products.

    Backed by LAPACK through numpy; the result is made deterministic by
    forcing the first nonzero component of every left singular vector to
    be positive.  No denoise route calls it: they use
    :func:`lowrank_project`, which forms no singular vector it discards.
    """
    y = _as_finite_matrix(y)
    u, s, vh = np.linalg.svd(y, full_matrices=False)
    v = vh.T.copy()
    significant = np.abs(u) > 1e-12 * max(1.0, float(np.max(np.abs(u))))
    first = np.argmax(significant, axis=0)  # row 0 in a column with no such entry
    cols = np.arange(s.size)
    flip = significant[first, cols] & (u[first, cols] < 0)
    u[:, flip] = -u[:, flip]
    v[:, flip] = -v[:, flip]
    return SVDFactors(u=u, v=v, sigma=s)


def _as_finite_matrix(y):
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise ConfigError(f"expected a matrix, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise NumericError("matrix contains NaN or Inf")
    return y


def _check_rank(n_lr, n_sv):
    if not 1 <= n_lr <= n_sv:
        raise ConfigError(f"rank must be in [1, {n_sv}], got {n_lr}")


def lowrank_approx(factors: SVDFactors, n_lr: int) -> np.ndarray:
    """Reconstruction from the ``n_lr`` largest singular components.  The
    denoise routes compute it with :func:`lowrank_project` instead."""
    _check_rank(n_lr, factors.n_sv)
    u = factors.u[:, :n_lr]
    v = factors.v[:, :n_lr]
    return (u * factors.sigma[:n_lr]) @ v.T


def lowrank_project(y, ranks) -> tuple:
    """Rank-r reconstructions of matrix ``y``, one per ``r`` in ``ranks``.

    One ``eigh`` of the smaller Gram matrix gives the top-r singular
    subspace: with ``q`` the eigenvectors of its ``r`` largest eigenvalues,
    the result is ``(y @ q) @ q.T`` from ``y.T @ y`` when ``y`` has at least
    as many rows as columns, else ``q @ (q.T @ y)`` from ``y @ y.T``.  It is
    ``y`` times an exact orthogonal projector, and equals
    ``lowrank_approx(svd(y), r)`` to rounding wherever that is unique (the
    ``r``-th and ``r+1``-th singular values differ).
    """
    y = _as_finite_matrix(y)
    ranks = tuple(int(r) for r in ranks)
    n_sv = min(y.shape)
    for r in ranks:
        _check_rank(r, n_sv)
    tall = y.shape[0] >= y.shape[1]
    _, q = np.linalg.eigh(y.T @ y if tall else y @ y.T)  # eigenvalues ascend
    recons = []
    for r in ranks:
        top = q[:, n_sv - r :]
        recons.append((y @ top) @ top.T if tall else top @ (top.T @ y))
    return tuple(recons)


@dataclass(frozen=True)
class LowRankDemoReport:
    """Per-rank reconstructions of a clean image and a noisy copy."""

    ranks: tuple
    sigma: float
    snr_noisy_input: float
    snr_clean: tuple  # reconstruction of the clean image vs the clean image
    snr_noisy: tuple  # reconstruction of the noisy image vs the clean image
    clean_recons: tuple
    noisy_recons: tuple

    def files(self) -> dict:
        """``{name: payload}`` of the run files: the per-rank SNR table and
        both reconstructions at every rank."""
        table = [["rank", "snr_clean_recon_db", "snr_noisy_recon_db"]]
        for rank, s_clean, s_noisy in zip(self.ranks, self.snr_clean, self.snr_noisy):
            table.append([rank, f"{s_clean:.6f}", f"{s_noisy:.6f}"])
        files = {"snr_table.csv": table}
        for rank, clean_m, noisy_m in zip(self.ranks, self.clean_recons, self.noisy_recons):
            files[f"clean_rank{rank}.pgm"] = clean_m
            files[f"noisy_rank{rank}.pgm"] = noisy_m
        return files


def lowrank_denoise_demo(x, sigma, ranks, seed=0) -> LowRankDemoReport:
    """Reconstruct a grayscale image and a noise-contaminated copy at the
    given ranks, reporting SNR against the clean reference for both."""
    from .tensor import as_image

    x = as_image(x)
    ranks = tuple(int(r) for r in ranks)
    noisy = add_noise(x, NoiseModel(sigma_eta=sigma, seed=seed))
    clean_recons = lowrank_project(x[0, 0], ranks)
    noisy_recons = lowrank_project(noisy[0, 0], ranks)
    as4 = lambda m: m[None, None]
    return LowRankDemoReport(
        ranks=ranks,
        sigma=float(sigma),
        snr_noisy_input=snr_db(x, noisy),
        snr_clean=tuple(snr_db(x, as4(m)) for m in clean_recons),
        snr_noisy=tuple(snr_db(x, as4(m)) for m in noisy_recons),
        clean_recons=clean_recons,
        noisy_recons=noisy_recons,
    )
