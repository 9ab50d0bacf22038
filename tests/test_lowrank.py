"""SVD factorization and low-rank approximation."""

import numpy as np
import pytest

from fdl.cli import _THREAD_VARS, main
from fdl.datasets import NoiseModel, add_noise, piecewise_scene
from fdl.errors import ConfigError, NumericError
from fdl.lowrank import lowrank_approx, lowrank_denoise_demo, lowrank_project, svd
from fdl.metrics import snr_db
from fdl.pnm import write_pgm


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


def _tail_energy(y, r):
    return float(np.sum(np.linalg.svd(y, compute_uv=False)[r:] ** 2))


class TestLowRankProject:
    """The Gram route against the factor API: equal reconstructions where
    the rank-r subspace is unique, and the Eckart-Young error energy."""

    @pytest.mark.parametrize(
        "shape,seed",
        [((40, 24), 10), ((24, 40), 11), ((32, 32), 12), ((1, 17), 13), ((17, 1), 14)],
    )
    def test_matches_the_factor_api_at_every_rank(self, shape, seed):
        y = np.random.default_rng(seed).normal(size=shape)
        n = min(shape)
        ranks = range(1, n + 1)
        f = svd(y)
        scale = np.max(np.abs(y))
        total = float(np.sum(y**2))
        for r, recon in zip(ranks, lowrank_project(y, ranks)):
            assert np.max(np.abs(recon - lowrank_approx(f, r))) <= 1e-10 * scale
            err = float(np.sum((y - recon) ** 2))
            assert abs(err - _tail_energy(y, r)) <= 1e-10 * total
        (full,) = lowrank_project(y, [n])
        assert np.max(np.abs(full - y)) <= 1e-12 * scale

    @pytest.mark.parametrize("shape", [(30, 20), (20, 30)])
    def test_exactly_low_rank_input(self, shape):
        rng = np.random.default_rng(15)
        y = rng.normal(size=(shape[0], 3)) @ rng.normal(size=(3, shape[1]))
        f = svd(y)
        scale = np.max(np.abs(y))
        ranks = (1, 2, 3, 4, 10, min(shape))
        for r, recon in zip(ranks, lowrank_project(y, ranks)):
            assert np.max(np.abs(recon - lowrank_approx(f, r))) <= 1e-10 * scale
            if r >= 3:
                assert np.max(np.abs(recon - y)) <= 1e-12 * scale

    def test_blank_image(self):
        for recon in lowrank_project(np.zeros((8, 12)), (1, 5, 8)):
            assert recon.shape == (8, 12)
            assert not np.any(recon)

    def test_tied_singular_values_give_an_orthogonal_projector(self):
        # every singular value of the identity is 1, so any rank-r
        # orthogonal projector is a best rank-r approximation
        eye = np.eye(6)
        for r, p in zip(range(1, 7), lowrank_project(eye, range(1, 7))):
            np.testing.assert_allclose(p, p.T, atol=1e-12)
            np.testing.assert_allclose(p @ p, p, atol=1e-12)
            assert np.trace(p) == pytest.approx(r, abs=1e-12)
            assert float(np.sum((eye - p) ** 2)) == pytest.approx(6 - r, abs=1e-10)

    def test_ties_away_from_the_cut_are_unique(self):
        y = np.diag([3.0, 2.0, 2.0, 1.0])
        for r, recon in zip((1, 3), lowrank_project(y, (1, 3))):
            assert np.max(np.abs(recon - lowrank_approx(svd(y), r))) <= 1e-12

    def test_rank_out_of_range_names_the_range(self):
        y = np.ones((5, 3))
        for r in (0, 4):
            with pytest.raises(ConfigError, match=rf"^rank must be in \[1, 3\], got {r}$"):
                lowrank_project(y, (1, r))

    def test_rejects_non_finite_and_non_matrix_input(self):
        with pytest.raises(NumericError):
            lowrank_project(np.array([[1.0, np.nan]]), (1,))
        with pytest.raises(ConfigError):
            lowrank_project(np.ones((2, 2, 2)), (1,))


class TestDenoiseRoutes:
    @pytest.mark.parametrize("rank", ["5", "2,8,32"])
    def test_no_svd_lowrank_route_calls_a_full_svd(self, tmp_path, monkeypatch, rank):
        image = add_noise(piecewise_scene(32), NoiseModel(sigma_eta=0.1, seed=3))
        write_pgm(tmp_path / "in.pgm", np.clip(image, 0.0, 1.0))

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        for var in _THREAD_VARS:  # main() pins these in the environment
            monkeypatch.setenv(var, "1")
        monkeypatch.chdir(tmp_path)
        argv = ["denoise", "in.pgm", "--method", "svd-lowrank", "--rank", rank, "--out", "run"]
        assert main(argv) == 0
        assert (tmp_path / "run" / "metrics.json").exists()
