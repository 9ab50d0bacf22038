"""Tensor arithmetic: convolution, transposition, resampling, DFT probe."""

import numpy as np
import pytest

from fdl import autodiff as ad
from fdl import tensor
from fdl.errors import ConfigError, NumericError, ShapeError

from oracles import conv2d_reference, conv2d_roll_reference, dft2_reference


class TestConv2d:
    def test_identity_kernel_preserves_image(self):
        rng = np.random.default_rng(0)
        img = rng.normal(size=(1, 1, 8, 8))
        out = tensor.conv2d(tensor.identity_kernel(1, 3), img)
        np.testing.assert_array_equal(out, img)

    def test_box_kernel_on_constant(self):
        kernel = np.ones((1, 1, 3, 3))
        img = np.ones((1, 1, 6, 6))
        out = tensor.conv2d(kernel, img)
        np.testing.assert_allclose(out, 9.0)

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(7)
        kernel = rng.normal(size=(2, 3, 3, 3))
        signal = rng.normal(size=(3, 1, 8, 8))
        got = tensor.conv2d(kernel, signal)
        want = conv2d_reference(kernel, signal)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_multi_column_signal_matches_oracle(self):
        rng = np.random.default_rng(8)
        kernel = rng.normal(size=(2, 2, 1, 3))
        signal = rng.normal(size=(2, 2, 4, 6))
        got = tensor.conv2d(kernel, signal)
        want = conv2d_reference(kernel, signal)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            k = rng.normal(size=(2, 2, 3, 3))
            x = rng.normal(size=(2, 1, 8, 8))
            y = rng.normal(size=(2, 1, 8, 8))
            a, b = rng.normal(size=2)
            lhs = tensor.conv2d(k, a * x + b * y)
            rhs = a * tensor.conv2d(k, x) + b * tensor.conv2d(k, y)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_circular_shift_equivariance(self):
        rng = np.random.default_rng(2)
        k = rng.normal(size=(2, 1, 3, 3))
        x = rng.normal(size=(1, 1, 8, 8))
        shifted = np.roll(x, (3, 5), axis=(2, 3))
        lhs = tensor.conv2d(k, shifted)
        rhs = np.roll(tensor.conv2d(k, x), (3, 5), axis=(2, 3))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        k = rng.normal(size=(4, 2, 3, 3))
        x = rng.normal(size=(2, 1, 16, 16))
        a = tensor.conv2d(k, x)
        b = tensor.conv2d(k, x)
        assert a.tobytes() == b.tobytes()

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            tensor.conv2d(np.zeros((1, 2, 3, 3)), np.zeros((3, 1, 4, 4)))

    def test_even_kernel_raises(self):
        with pytest.raises(ConfigError):
            tensor.conv2d(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 4, 4)))

    def test_nan_input_raises(self):
        bad = np.full((1, 1, 4, 4), np.nan)
        with pytest.raises(NumericError):
            tensor.conv2d(np.ones((1, 1, 1, 1)), bad)


class TestAdjoint:
    def test_inner_product_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            k = rng.normal(size=(3, 2, 3, 3))
            x = rng.normal(size=(2, 1, 8, 8))
            y = rng.normal(size=(3, 1, 8, 8))
            lhs = np.vdot(tensor.conv2d(k, x), y)
            rhs = np.vdot(x, tensor.conv2d_adjoint(k, y))
            assert abs(lhs - rhs) < 1e-10

    def test_adjoint_is_flipped_transposed_conv(self):
        rng = np.random.default_rng(12)
        k = rng.normal(size=(2, 1, 3, 3))
        y = rng.normal(size=(2, 1, 8, 8))
        flipped = tensor.tensor_transpose(k[:, :, ::-1, ::-1])
        np.testing.assert_allclose(
            tensor.conv2d_adjoint(k, y), tensor.conv2d(flipped, y), atol=1e-12
        )


class TestTranspose:
    def test_swaps_channel_axes(self):
        t = np.arange(2 * 3 * 3 * 3, dtype=float).reshape(2, 3, 3, 3)
        tt = tensor.tensor_transpose(t)
        assert tt.shape == (3, 2, 3, 3)

    def test_involution(self):
        rng = np.random.default_rng(4)
        t = rng.normal(size=(2, 3, 3, 3))
        np.testing.assert_array_equal(tensor.tensor_transpose(tensor.tensor_transpose(t)), t)

    def test_filters_unchanged(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=(4, 1, 3, 3))
        qt = tensor.tensor_transpose(q)
        for r in range(4):
            np.testing.assert_array_equal(qt[0, r], q[r, 0])


class TestResampling:
    def test_downsample_row_example(self):
        row = np.arange(1.0, 11.0)
        sig = np.stack([row, row])[None, None]  # (1, 1, 2, 10)
        out = tensor.downsample(sig, 2)
        np.testing.assert_array_equal(out[0, 0, 0], [1, 3, 5, 7, 9])

    def test_upsample_row_example(self):
        sig = np.array([[1.0, 3.0, 5.0, 7.0, 9.0]])[None, None]
        out = tensor.upsample(sig, 2)
        np.testing.assert_array_equal(out[0, 0, 0], [1, 0, 3, 0, 5, 0, 7, 0, 9, 0])
        np.testing.assert_array_equal(out[0, 0, 1], np.zeros(10))

    def test_factor_one_is_identity(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 1, 6, 6))
        np.testing.assert_array_equal(tensor.downsample(x, 1), x)
        np.testing.assert_array_equal(tensor.upsample(x, 1), x)

    def test_down_of_up_is_identity(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 1, 8, 8))
        np.testing.assert_array_equal(tensor.downsample(tensor.upsample(x, 2), 2), x)

    def test_up_of_down_is_not_identity(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 1, 8, 8))
        assert np.max(np.abs(tensor.upsample(tensor.downsample(x, 2), 2) - x)) > 1e-3

    def test_constant_image_downsamples_to_constant(self):
        x = np.full((1, 1, 8, 8), 0.4)
        out = tensor.downsample(x, 2)
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_allclose(out, 0.4)

    def test_non_divisible_raises(self):
        with pytest.raises(ShapeError):
            tensor.downsample(np.zeros((1, 1, 5, 6)), 2)


class TestDftMagnitude:
    def test_constant_image(self):
        out = tensor.dft_magnitude(np.ones((1, 1, 4, 4)))
        assert out[0, 0, 0, 0] == pytest.approx(16.0)
        rest = out.copy()
        rest[0, 0, 0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-12

    def test_unit_impulse_is_flat(self):
        out = tensor.dft_magnitude(tensor.impulse_image(4))
        np.testing.assert_allclose(out, 1.0, atol=1e-12)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(9)
        img = rng.normal(size=(1, 1, 8, 8))
        got = tensor.dft_magnitude(img)
        want = np.abs(dft2_reference(img[0, 0]))
        assert np.max(np.abs(got[0, 0] - want)) < 1e-9


def random_conv_case(rng, ko, kc):
    """Kernel, signal and output-shaped probe with random odd taps (1-7),
    1-3 signal columns and even image sides (2-8), so kernels are often
    wider than the image."""
    kv, kh = rng.choice([1, 3, 5, 7], size=2)
    cols = int(rng.integers(1, 4))
    h, w = 2 * rng.integers(1, 5, size=2)
    kernel = rng.normal(size=(ko, kc, kv, kh))
    return kernel, rng.normal(size=(kc, cols, h, w)), rng.normal(size=(ko, cols, h, w))


# expanding, equal and contracting channel counts (out, in)
CHANNELS = [(1, 1), (3, 1), (6, 2), (3, 3), (1, 4), (2, 5), (12, 24)]


class TestNarrowSideProperties:
    """Expanding and equal convs stack their input; contracting convs fold
    per-tap products.  Both must be the same circular convolution, with
    the same adjoint and kernel gradient."""

    @pytest.mark.parametrize("ko,kc", CHANNELS)
    def test_forward_matches_roll_oracle(self, ko, kc):
        rng = np.random.default_rng((ko, kc, 1))
        for _ in range(6):
            kernel, x, _ = random_conv_case(rng, ko, kc)
            want = conv2d_roll_reference(kernel, x)
            err = np.max(np.abs(tensor.conv2d(kernel, x) - want))
            assert err < 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("ko,kc", CHANNELS)
    def test_adjoint_inner_product(self, ko, kc):
        rng = np.random.default_rng((ko, kc, 2))
        for _ in range(6):
            kernel, x, y = random_conv_case(rng, ko, kc)
            lhs = np.vdot(tensor.conv2d(kernel, x), y)
            d_signal = ad.conv(ad.constant(kernel), ad.Parameter(x)).vjps[1]
            for adj in (tensor.conv2d_adjoint(kernel, y), d_signal(y)):
                assert abs(lhs - np.vdot(x, adj)) < 1e-11 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("ko,kc", CHANNELS)
    def test_kernel_gradient_inner_product(self, ko, kc):
        rng = np.random.default_rng((ko, kc, 3))
        for _ in range(6):
            kernel, x, g = random_conv_case(rng, ko, kc)
            dk = ad.conv(ad.Parameter(kernel), ad.constant(x)).vjps[0](g)
            e = rng.normal(size=kernel.shape)
            lhs = np.vdot(tensor.conv2d(e, x), g)
            assert dk.shape == kernel.shape
            assert abs(lhs - np.vdot(e, dk)) < 1e-11 * max(1.0, abs(lhs))

    def test_kernel_wider_than_image(self):
        rng = np.random.default_rng(4)
        for ko, kc in ((3, 2), (2, 3)):
            kernel = rng.normal(size=(ko, kc, 7, 7))
            x = rng.normal(size=(kc, 2, 2, 4))
            y = rng.normal(size=(ko, 2, 2, 4))
            out = tensor.conv2d(kernel, x)
            assert np.max(np.abs(out - conv2d_roll_reference(kernel, x))) < 1e-12
            assert np.max(np.abs(out - conv2d_reference(kernel, x))) < 1e-12
            assert abs(np.vdot(out, y) - np.vdot(x, tensor.conv2d_adjoint(kernel, y))) < 1e-11

    def test_fold_is_adjoint_of_shift_stack(self):
        rng = np.random.default_rng(5)
        for correlate in (False, True):
            for kv, kh, h, w in ((5, 3, 2, 6), (3, 3, 8, 8), (7, 7, 2, 4)):
                x = rng.normal(size=(2, 3, h, w))
                y = rng.normal(size=(4, 3, h, w))
                kmat = rng.normal(size=(kv * kh * 2, 4))
                stack = tensor._shift_stack(x, kv, kh, correlate=correlate)
                products = (kmat @ y.reshape(4, -1)).reshape(kv * kh, 2, 3, h, w)
                folded = tensor._fold_products(kmat, y, kv, kh, correlate=correlate)
                lhs = np.vdot(stack, products.swapaxes(0, 1))
                assert abs(lhs - np.vdot(x, folded)) < 1e-11 * max(1.0, abs(lhs))
