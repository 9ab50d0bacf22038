"""Framelet banks: reconstruction, phase complements, shrinkage denoising."""

import numpy as np
import pytest

from fdl import tensor
from fdl.activations import ActivationSpec, relu_bias
from fdl.datasets import NoiseModel, add_noise, piecewise_scene
from fdl.errors import ConfigError, ShapeError
from fdl.framelets import (
    check_phase_complementary,
    denoise_framelet,
    detail_band_mask,
    framelet_forward,
    framelet_inverse,
    haar_dwt,
    make_basis,
    phase_complement,
)
from fdl.metrics import estimate_sigma_mad, snr_db

from oracles import band_decompose_reference, downsample_reference, upsample_reference

# the one-band basis whose filter is the convolution identity
DELTA = np.ones((1, 1, 1, 1))


def checkerboard(n):
    rr, cc = np.mgrid[0:n, 0:n]
    return ((-1.0) ** (rr + cc))[None, None]


class TestHaarBank:
    def test_decimated_round_trip_exact(self):
        bank = haar_dwt()
        basis = bank.basis()
        assert basis.c_decimated == pytest.approx(1.0, abs=1e-12)

    def test_undecimated_constant(self):
        basis = haar_dwt().basis()
        assert basis.c == pytest.approx(0.25, abs=1e-12)

    def test_lowpass_kills_nyquist(self):
        bank = haar_dwt()
        cb = checkerboard(8)
        response = tensor.conv2d(bank.w_low, cb)
        assert np.max(np.abs(response)) < 1e-12

    def test_diagonal_kills_dc(self):
        bank = haar_dwt()
        response = tensor.conv2d(bank.f_hh, np.ones((1, 1, 8, 8)))
        assert np.max(np.abs(response)) < 1e-12

    def test_partitions(self):
        bank = haar_dwt()
        assert bank.w_low.shape == (1, 1, 3, 3)
        assert bank.w_high.shape == (3, 1, 3, 3)
        np.testing.assert_array_equal(np.concatenate([bank.w_low, bank.w_high]), bank.w)


class TestForward:
    def test_constant_image(self):
        basis = haar_dwt().basis()
        bands = framelet_forward(basis, np.full((1, 1, 8, 8), 0.3), decimated=True)
        np.testing.assert_allclose(bands[0], 0.6, atol=1e-12)  # low band gain 2
        assert np.max(np.abs(bands[1:])) < 1e-12

    def test_checkerboard_has_empty_low_band(self):
        basis = haar_dwt().basis()
        bands = framelet_forward(basis, checkerboard(8), decimated=True)
        assert np.max(np.abs(bands[0])) < 1e-12

    def test_matches_conv_downsample_oracle(self):
        rng = np.random.default_rng(0)
        basis = haar_dwt().basis()
        y = rng.normal(size=(1, 1, 8, 8))
        for decimated in (False, True):
            got = framelet_forward(basis, y, decimated=decimated)
            want = band_decompose_reference(basis.forward, y, decimated)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_odd_dims_rejected(self):
        basis = haar_dwt().basis()
        with pytest.raises(ShapeError):
            framelet_forward(basis, np.zeros((1, 1, 7, 8)), decimated=True)


class TestInverse:
    def test_round_trip_decimated(self):
        rng = np.random.default_rng(1)
        basis = haar_dwt().basis()
        y = rng.normal(size=(1, 1, 16, 16))
        back = framelet_inverse(basis, framelet_forward(basis, y, decimated=True), decimated=True)
        assert np.max(np.abs(back - y)) < 1e-10

    def test_round_trip_undecimated(self):
        rng = np.random.default_rng(2)
        basis = haar_dwt().basis()
        y = rng.normal(size=(1, 1, 16, 16))
        back = framelet_inverse(basis, framelet_forward(basis, y), decimated=False)
        assert np.max(np.abs(back - y)) < 1e-10

    def test_constant_survives_zeroed_details(self):
        basis = haar_dwt().basis()
        y = np.full((1, 1, 8, 8), 0.7)
        bands = framelet_forward(basis, y, decimated=True)
        bands[1:] = 0.0
        back = framelet_inverse(basis, bands, decimated=True)
        np.testing.assert_allclose(back, 0.7, atol=1e-12)

    def test_band_count_mismatch(self):
        basis = haar_dwt().basis()
        with pytest.raises(ShapeError):
            framelet_inverse(basis, np.zeros((3, 1, 4, 4)), decimated=True)


class TestPhaseComplement:
    def test_haar_doubles_bands_and_reconstructs_through_relu(self):
        rng = np.random.default_rng(3)
        pct = phase_complement(haar_dwt().basis())
        assert pct.n_bands == 8
        y = rng.normal(size=(1, 1, 16, 16))  # signed input
        recon = tensor.conv2d(
            tensor.tensor_transpose(pct.inverse), relu_bias(tensor.conv2d(pct.forward, y))
        )
        assert np.max(np.abs(recon - y)) < 1e-10

    def test_identity_basis_pair_splits_sign(self):
        rng = np.random.default_rng(4)
        pct = phase_complement(make_basis(DELTA, DELTA))
        y = rng.normal(size=(1, 1, 8, 8))
        recon = tensor.conv2d(
            tensor.tensor_transpose(pct.inverse), relu_bias(tensor.conv2d(pct.forward, y))
        )
        np.testing.assert_allclose(recon, np.maximum(y, 0) - np.maximum(-y, 0), atol=1e-12)
        assert np.max(np.abs(recon - y)) < 1e-12

    @pytest.mark.parametrize(
        "base",
        [lambda: haar_dwt().basis(), lambda: make_basis(DELTA, DELTA)],
        ids=["haar", "identity"],
    )
    def test_rectified_round_trip_random_shapes(self, base):
        pct = phase_complement(base())
        decoder = tensor.tensor_transpose(pct.inverse)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            rows, cols = (2 * int(n) for n in rng.integers(2, 17, size=2))  # even, 4-32
            y = rng.normal(size=(1, int(rng.integers(1, 5)), rows, cols))
            recon = tensor.conv2d(decoder, relu_bias(tensor.conv2d(pct.forward, y)))
            assert np.max(np.abs(recon - y)) < 1e-12, seed

    def test_identity_input_form(self):
        pct = phase_complement(haar_dwt().basis())
        report = check_phase_complementary(pct.forward, pct.inverse)
        n = report.response.shape[2]
        want = tensor.identity_image(1, n)
        assert np.max(np.abs(report.response - want)) < 1e-10

    def test_output_always_passes_check(self):
        for base in (haar_dwt().basis(), make_basis(DELTA, DELTA)):
            report = check_phase_complementary(
                phase_complement(base).forward, phase_complement(base).inverse
            )
            assert report.is_pct


class TestCheckPhaseComplementary:
    def test_constructed_pair_is_clean(self):
        pct = phase_complement(haar_dwt().basis())
        report = check_phase_complementary(pct.forward, pct.inverse)
        assert report.is_pct
        assert report.ratio < 1e-9
        assert report.c_estimate == pytest.approx(1.0, abs=1e-10)

    def test_independent_random_pair_fails(self):
        rng = np.random.default_rng(5)
        a = np.sqrt(6.0 / (8 + 4))
        k = rng.uniform(-a, a, size=(8, 4, 3, 3))
        k_tilde = rng.uniform(-a, a, size=(8, 4, 3, 3))
        report = check_phase_complementary(k, k_tilde)
        assert not report.is_pct

    def test_delta_pair_gives_exact_identity(self):
        delta = tensor.signed_impulse_bank(1, (1.0,), size=3)
        report = check_phase_complementary(delta, delta)
        assert report.is_pct
        n = report.response.shape[2]
        np.testing.assert_array_equal(report.response, tensor.identity_image(1, n))
        assert report.offdiag_energy == 0.0


class TestDenoise:
    def test_zero_threshold_is_round_trip(self):
        rng = np.random.default_rng(6)
        basis = haar_dwt().basis()
        y = rng.normal(size=(1, 1, 16, 16))
        out = denoise_framelet(basis, y, ActivationSpec("soft_shrink", t=0.0))
        assert np.max(np.abs(out - y)) < 1e-10

    def test_constant_image_untouched(self):
        basis = haar_dwt().basis()
        y = np.full((1, 1, 8, 8), 0.42)
        out = denoise_framelet(basis, y, ActivationSpec("soft_shrink", t=5.0))
        np.testing.assert_allclose(out, 0.42, atol=1e-12)

    def test_non_shrink_activation_rejected(self):
        basis = haar_dwt().basis()
        with pytest.raises(ConfigError):
            denoise_framelet(basis, np.zeros((1, 1, 8, 8)), ActivationSpec("soft_clip", t=1.0))

    def test_improves_snr_on_noisy_piecewise_image(self):
        # Monte-Carlo: soft shrinkage with a MAD-derived threshold must beat
        # the noisy input on every seed.
        basis = haar_dwt().basis()
        clean = piecewise_scene(64)
        for seed in range(10):
            noisy = add_noise(clean, NoiseModel(sigma_eta=0.1, seed=seed))
            sigma_hat = estimate_sigma_mad(noisy)
            bands = framelet_forward(basis, noisy, decimated=True)
            detail = detail_band_mask(basis)
            sigma_d = np.sqrt(
                np.maximum(bands[detail].var(axis=(1, 2, 3)) - sigma_hat**2, 1e-12)
            )
            t = sigma_hat**2 / sigma_d
            out = denoise_framelet(basis, noisy, ActivationSpec("soft_shrink", t=t))
            assert snr_db(clean, out) > snr_db(clean, noisy)


class TestLowBranch:
    def low_branch(self, y):
        """Low-band pooling path: analyze, decimate, zero-insert, synthesize."""
        bank = haar_dwt()
        pooled = downsample_reference(tensor.conv2d(bank.w_low, y), 2)
        return tensor.conv2d(tensor.tensor_transpose(bank.w_low_tilde), upsample_reference(pooled, 2))

    def test_constant_passes_with_unit_gain(self):
        y = np.full((1, 1, 8, 8), 0.37)
        np.testing.assert_allclose(self.low_branch(y), y, atol=1e-12)

    def test_checkerboard_is_annihilated(self):
        assert np.max(np.abs(self.low_branch(checkerboard(8)))) < 1e-12


class TestEnergyAndSerialization:
    def test_energy_ratio_at_least_one(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=(1, 1, 16, 16))
        haar = haar_dwt().basis()
        for basis in (haar, phase_complement(haar), make_basis(DELTA, DELTA)):
            # energy of the undecimated bands over the energy of the input
            ratio = np.sum(framelet_forward(basis, y, decimated=False) ** 2) / np.sum(y**2)
            assert ratio >= 1.0 - 1e-12
            # ratio equals the inverse reconstruction constant for these banks
            assert ratio == pytest.approx(1.0 / basis.c, rel=1e-10)

    def test_non_tight_pair_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ConfigError):
            make_basis(rng.normal(size=(4, 1, 3, 3)), rng.normal(size=(4, 1, 3, 3)))
