"""SVD factorization and low-rank approximation."""

import numpy as np
import pytest

from fdl.datasets import piecewise_scene
from fdl.errors import ConfigError
from fdl.lowrank import lowrank_approx, lowrank_denoise_demo, svd
from fdl.metrics import snr_db


class TestSvd:
    def test_identity_has_unit_singular_values(self):
        f = svd(np.eye(4))
        np.testing.assert_allclose(f.sigma, np.ones(4), atol=1e-12)

    def test_rank_one_matrix(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=6)
        b = rng.normal(size=5)
        f = svd(np.outer(a, b))
        assert f.sigma[0] == pytest.approx(np.linalg.norm(a) * np.linalg.norm(b))
        assert np.max(np.abs(f.sigma[1:])) < 1e-12

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(1)
        f = svd(rng.normal(size=(8, 8)))
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(8), atol=1e-8)
        np.testing.assert_allclose(f.v.T @ f.v, np.eye(8), atol=1e-8)

    def test_sigma_descending_nonnegative(self):
        rng = np.random.default_rng(2)
        f = svd(rng.normal(size=(7, 9)))
        assert np.all(f.sigma >= 0)
        assert np.all(np.diff(f.sigma) <= 1e-12)

    def test_full_reconstruction(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=(8, 8))
        f = svd(y)
        recon = sum(np.outer(f.u[:, n], f.v[:, n]) * f.sigma[n] for n in range(f.n_sv))
        assert np.max(np.abs(recon - y)) < 1e-10

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=(6, 6))
        f1, f2 = svd(y), svd(y)
        np.testing.assert_array_equal(f1.u, f2.u)
        for n in range(f1.n_sv):
            col = f1.u[:, n]
            first = col[np.nonzero(np.abs(col) > 1e-12)[0][0]]
            assert first > 0

    def test_sign_rule_skips_near_zero_leading_entries(self):
        # A zero first row leaves rounding residue (~1e-16, either sign) in
        # row 0 of every left singular vector; the sign is set by the first
        # entry above the tolerance, and v flips with u.
        rng = np.random.default_rng(0)
        y = np.vstack([np.zeros((1, 5)), rng.normal(size=(5, 5))])
        f = svd(y)
        assert np.max(np.abs(f.u[0])) < 1e-12
        assert np.all(f.u[1] > 0)
        np.testing.assert_allclose((f.u * f.sigma) @ f.v.T, y, atol=1e-12)


class TestLowRankApprox:
    def test_full_rank_is_exact(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=(8, 8))
        assert np.max(np.abs(lowrank_approx(svd(y), 8) - y)) < 1e-10

    def test_rank_one_input_needs_rank_one(self):
        rng = np.random.default_rng(6)
        y = np.outer(rng.normal(size=5), rng.normal(size=5))
        assert np.max(np.abs(lowrank_approx(svd(y), 1) - y)) < 1e-12

    def test_error_equals_tail_energy(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=(8, 8))
        f = svd(y)
        for k in (1, 4, 7):
            err = np.linalg.norm(y - lowrank_approx(f, k), "fro")
            tail = np.sqrt(np.sum(f.sigma[k:] ** 2))
            assert err == pytest.approx(tail, abs=1e-10)

    def test_error_monotone_in_rank(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=(8, 8))
        f = svd(y)
        errors = [np.linalg.norm(y - lowrank_approx(f, k), "fro") for k in range(1, 9)]
        assert np.all(np.diff(errors) <= 1e-12)

    def test_truncation_beats_random_rank_k_candidates(self):
        rng = np.random.default_rng(9)
        y = rng.normal(size=(6, 6))
        f = svd(y)
        k = 2
        best = np.linalg.norm(y - lowrank_approx(f, k), "fro")
        for _ in range(1000):
            candidate = rng.normal(size=(6, k)) @ rng.normal(size=(k, 6))
            assert np.linalg.norm(y - candidate, "fro") >= best - 1e-12

    def test_rank_out_of_range(self):
        f = svd(np.eye(4))
        with pytest.raises(ConfigError):
            lowrank_approx(f, 0)
        with pytest.raises(ConfigError):
            lowrank_approx(f, 5)


class TestDemo:
    def test_clean_image_large_rank_indistinguishable(self):
        scene = piecewise_scene(64)
        report = lowrank_denoise_demo(scene, sigma=0.1, ranks=(8, 48), seed=0)
        assert report.snr_clean[-1] > 40.0

    def test_small_rank_denoises_better_than_full(self):
        scene = piecewise_scene(64)
        report = lowrank_denoise_demo(scene, sigma=0.1, ranks=(8, 64), seed=1)
        assert report.snr_noisy[0] > report.snr_noisy[-1]
        # full-rank reconstruction reproduces the noisy input
        assert report.snr_noisy[-1] == pytest.approx(report.snr_noisy_input, abs=1e-6)

    def test_zero_image(self):
        report = lowrank_denoise_demo(np.zeros((1, 1, 16, 16)), sigma=0.0, ranks=(1, 4), seed=0)
        for recon in report.clean_recons + report.noisy_recons:
            assert np.max(np.abs(recon)) == 0.0
