"""Tensor arithmetic: convolution, transposition, resampling."""

import hashlib
import multiprocessing
import threading
import tracemalloc

import numpy as np
import pytest

from fdl import autodiff as ad
from fdl import tensor
from fdl.errors import ConfigError, NumericError, ShapeError

from fdl.framelets import framelet_forward, framelet_inverse, haar_dwt
from fdl.training import build_toy
from oracles import (
    block_diag_bank,
    conv2d_reference,
    conv2d_roll_reference,
    downsample_reference,
    upsample_reference,
)


class TestConv2d:
    def test_identity_kernel_preserves_image(self):
        rng = np.random.default_rng(0)
        img = rng.normal(size=(1, 1, 8, 8))
        out = tensor.conv2d(tensor.signed_impulse_bank(1, (1.0,), size=3), img)
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
        assert tensor.conv2d_adjoint(k, y).tobytes() == tensor.conv2d(flipped, y).tobytes()

    @pytest.mark.parametrize("kind", ["expanding", "contracting", "pointwise", "wide"])
    def test_matches_the_signal_gradient(self, kind):
        """The adjoint, a forward conv of the adjoint kernel, agrees with
        the training gradient's route (stack of the gradient for a
        contracting conv, fold for an expanding one) to rounding."""
        rng = np.random.default_rng(("expanding", "contracting", "pointwise", "wide").index(kind))
        for _ in range(20):
            narrow, wide = sorted(int(c) for c in rng.integers(1, 7, size=2))
            contracting = kind == "contracting" or (kind == "wide" and rng.random() < 0.5)
            ko, kc = (narrow, wide + 1) if contracting else (wide, narrow)
            kv, kh = (int(v) for v in rng.choice([1, 3, 5], size=2))
            if kind == "wide":  # taps that reach past the image's wrap
                kv, kh = 7, 9
            kernel = rng.normal(size=(ko, kc, kv, kh))
            if kind == "pointwise":
                center = kernel[:, :, kv // 2, kh // 2].copy()
                kernel[:] = 0.0
                kernel[:, :, kv // 2, kh // 2] = center
            h, w = (2, 4) if kind == "wide" else 2 * rng.integers(1, 6, size=2)
            y = rng.normal(size=(ko, int(rng.integers(1, 3)), h, w))
            stack = tensor._shift_stack(y, kv, kh, correlate=True) if kc > ko else None
            want = tensor._conv_grad_signal(kernel, y, stack=stack)
            got = tensor.conv2d_adjoint(kernel, y)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("ko,kc", [(24, 12), (12, 24), (6, 1)])
    def test_a_large_adjoint_takes_strips_bitwise(self, ko, kc, monkeypatch):
        rng = np.random.default_rng((ko, kc, 13))
        kernel = rng.normal(size=(ko, kc, 3, 3))
        y = rng.normal(size=(ko, 1, 24, 32))
        whole = tensor.conv2d_adjoint(kernel, y)
        strips = []
        conv_strips = tensor._conv_strips

        def counted(kernel, signal, rows):
            strips.append(rows)
            return conv_strips(kernel, signal, rows)

        monkeypatch.setattr(tensor, "_conv_strips", counted)
        monkeypatch.setattr(tensor, "STRIP_BYTES", 1 << 14)
        out = tensor.conv2d_adjoint(kernel, y)
        assert len(strips) == 1 and strips[0] < 24
        assert out.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("ko,kc", [(24, 12), (12, 24)])
    def test_a_large_adjoint_holds_one_strip_at_a_time(self, ko, kc):
        rng = np.random.default_rng((ko, kc, 14))
        kernel = rng.normal(size=(ko, kc, 3, 3))
        y = rng.normal(size=(ko, 1, 256, 256))
        tracemalloc.start()
        try:
            out = tensor.conv2d_adjoint(kernel, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole image's 12-channel stack or tap products alone would be
        # 12 * 9 * 256 * 256 * 8 = 56.6 MB or more
        assert peak < out.nbytes + y.nbytes + 2 * tensor.STRIP_BYTES


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
    """Plain decimation and zero insertion: the bank ops with the unit filter."""

    UNIT = np.ones((1, 1, 1, 1))

    def test_downsample_row_example(self):
        row = np.arange(1.0, 11.0)
        sig = np.stack([row, row])[None, None]  # (1, 1, 2, 10)
        out = tensor.bank_down(self.UNIT, sig)
        np.testing.assert_array_equal(out[0, 0, 0], [1, 3, 5, 7, 9])

    def test_upsample_row_example(self):
        sig = np.array([[1.0, 3.0, 5.0, 7.0, 9.0]])[None, None]
        out = tensor.bank_up(self.UNIT, sig)
        np.testing.assert_array_equal(out[0, 0, 0], [1, 0, 3, 0, 5, 0, 7, 0, 9, 0])
        np.testing.assert_array_equal(out[0, 0, 1], np.zeros(10))

    def test_down_of_up_is_identity(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 1, 8, 8))
        np.testing.assert_array_equal(tensor.bank_down(self.UNIT, tensor.bank_up(self.UNIT, x)), x)

    def test_up_of_down_is_not_identity(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 1, 8, 8))
        back = tensor.bank_up(self.UNIT, tensor.bank_down(self.UNIT, x))
        assert np.max(np.abs(back - x)) > 1e-3

    def test_constant_image_downsamples_to_constant(self):
        x = np.full((1, 1, 8, 8), 0.4)
        out = tensor.bank_down(self.UNIT, x)
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_allclose(out, 0.4)

    def test_non_divisible_raises(self):
        with pytest.raises(ShapeError):
            tensor.bank_down(self.UNIT, np.zeros((1, 1, 5, 6)))


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

    @pytest.mark.parametrize("kv,kh", [(3, 3), (5, 3)])
    @pytest.mark.parametrize("contracting", [False, True], ids=["expanding", "contracting"])
    def test_circular_shift_equivariance_is_bitwise(self, contracting, kv, kh):
        """Every output sample sums the same products in the same order
        wherever it sits, at the wrap as in the interior, so a circular
        shift of the input shifts the output's bytes (widths that are
        multiples of 8, where the BLAS computes each column alike)."""
        rng = np.random.default_rng((contracting, kv, kh))
        for _ in range(30):
            narrow, wide = sorted(int(c) for c in rng.integers(1, 7, size=2))
            ko, kc = (narrow, wide + 1) if contracting else (wide, narrow)
            kernel = rng.normal(size=(ko, kc, kv, kh))
            cols, h, w = int(rng.integers(1, 3)), 2 * int(rng.integers(1, 6)), 8 * int(rng.integers(1, 3))
            shift = (int(rng.integers(h)), int(rng.integers(w)))
            for conv, x in (
                (tensor.conv2d, rng.normal(size=(kc, cols, h, w))),
                (tensor.conv2d_adjoint, rng.normal(size=(ko, cols, h, w))),
            ):
                moved = conv(kernel, np.roll(x, shift, axis=(2, 3)))
                assert moved.tobytes() == np.roll(conv(kernel, x), shift, axis=(2, 3)).tobytes()

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


# Strips against the whole image: expanding, equal and contracting channel
# counts (out, in), including the reference model's 24 -> 12.  The strips are
# bitwise where the BLAS rounds each kept column of a product the same way at
# any product width (see the tensor module docstring).  An expanding or equal
# conv's product is as wide as the image, so its widths are multiples of 8,
# and its in * kv * kh stays at most 384.  A contracting conv pads its
# product to whole 8-column tiles, so it is bitwise at any width.  The last
# test below covers the other expanding shapes against the oracle.
STRIP_CHANNELS = [(4, 1), (6, 2), (1, 1), (3, 3), (6, 6), (1, 4), (2, 5), (12, 24)]
STRIP_KERNELS = [(3, 3), (5, 5), (7, 7), (3, 7)]


class TestConvStrips:
    """conv2d's strip route: every strip height gives the whole-image
    route's bytes, and large convs hold one strip at a time."""

    @pytest.mark.parametrize("ko,kc", STRIP_CHANNELS)
    def test_every_strip_height_is_the_whole_image_bitwise(self, ko, kc):
        rng = np.random.default_rng((ko, kc, 5))
        for kv, kh in STRIP_KERNELS:
            # odd and even heights; a 5- or 7-row kernel reaches further
            # than the 1- and 2-row images wrap
            for h in (1, 2, 3, 6, 7):
                for w in (8, 16) + ((6, 10) if kc > ko else ()):
                    kernel = rng.normal(size=(ko, kc, kv, kh))
                    x = rng.normal(size=(kc, int(rng.integers(1, 3)), h, w))
                    whole, _ = tensor._conv_forward(kernel, x)
                    want = conv2d_roll_reference(kernel, x)
                    assert np.max(np.abs(whole - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))
                    for rows in range(1, h + 1):
                        out = tensor._conv_strips(kernel, x, rows)
                        assert out.flags.c_contiguous and out.shape == whole.shape
                        assert out.tobytes() == whole.tobytes(), (kv, kh, h, w, rows)

    def test_strips_match_the_nested_loop_oracle(self):
        rng = np.random.default_rng(10)
        for ko, kc in ((3, 2), (2, 3)):
            kernel = rng.normal(size=(ko, kc, 5, 3))
            x = rng.normal(size=(kc, 2, 5, 8))
            want = conv2d_reference(kernel, x)
            for rows in range(1, 6):
                assert np.max(np.abs(tensor._conv_strips(kernel, x, rows) - want)) < 1e-12

    def test_other_widths_and_deep_kernels_match_the_oracle(self):
        rng = np.random.default_rng(11)
        # widths that leave a partial 8-column tile, a 1-row kernel (no
        # halo), and 12 * 7 * 7 = 588 inner products per expanding column
        for ko, kc, kv, kh, w in ((3, 2, 3, 3, 6), (2, 3, 3, 5, 5), (4, 2, 1, 3, 7), (3, 4, 1, 5, 3), (24, 12, 7, 7, 8)):
            kernel = rng.normal(size=(ko, kc, kv, kh))
            x = rng.normal(size=(kc, 2, 9, w))
            want = conv2d_roll_reference(kernel, x)
            for rows in range(1, 10):
                err = np.max(np.abs(tensor._conv_strips(kernel, x, rows) - want))
                assert err < 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_a_large_conv_holds_one_strip_at_a_time(self):
        rng = np.random.default_rng(12)
        kernel = rng.normal(size=(24, 12, 3, 3))
        x = rng.normal(size=(12, 1, 256, 256))
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            out = tensor.conv2d(kernel, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole-image stack alone would be 12 * 9 * 256 * 256 * 8 = 56.6 MB
        assert peak < out.nbytes + x.nbytes + 2 * tensor.STRIP_BYTES

    def test_reference_model_convs_at_64_take_the_whole_image_route(self, monkeypatch):
        """At training size every conv fits the budget (the largest, 24 -> 12,
        forms 3.76 MB of tap products), so predict computes what training's
        forward does, on the same route."""
        model = build_toy(seed=1)
        calls = count_dense_calls(monkeypatch)

        def no_strips(*args):
            raise AssertionError("a 64x64 conv took strips")

        monkeypatch.setattr(tensor, "_conv_strips", no_strips)
        model.predict(np.random.default_rng(1).uniform(size=(1, 1, 64, 64)))
        assert calls["_conv_forward"] == 6


class TestStripRows:
    """Each strip forms its own output rows and no others, and holds at
    most STRIP_BYTES of the narrow side's planes."""

    @pytest.mark.parametrize("ko,kc", [(24, 12), (12, 24)])
    def test_strips_form_each_output_row_once(self, ko, kc, monkeypatch):
        monkeypatch.setattr(tensor, "STRIP_THREADS", 1)  # strips in row order
        formed = []  # the output rows each strip's stack or fold formed
        stack_rows, fold_products = tensor._stack_rows, tensor._fold_products

        def stacked(signal, kv, kh, rows, correlate=False):
            formed.append(rows)
            return stack_rows(signal, kv, kh, rows, correlate)

        def folded(*args, rows=None, **kwargs):
            formed.append(rows)
            return fold_products(*args, rows=rows, **kwargs)

        monkeypatch.setattr(tensor, "_stack_rows", stacked)
        monkeypatch.setattr(tensor, "_fold_products", folded)
        rng = np.random.default_rng((ko, kc, 14))
        kernel = rng.normal(size=(ko, kc, 3, 3))
        x = rng.normal(size=(kc, 1, 256, 256))
        out = tensor.conv2d(kernel, x)
        assert len(formed) > 1  # the conv took strips
        assert [r for span in formed for r in span] == list(range(256))
        whole, _ = tensor._conv_forward(kernel, x)
        assert out.tobytes() == whole.tobytes()

    def test_a_strip_holds_the_budget(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            ko, kc = (int(v) for v in rng.integers(1, 33, size=2))
            kv, kh = (int(v) for v in rng.choice([1, 3, 5, 7], size=2))
            sc = int(rng.integers(1, 3))
            h, w = (int(v) for v in rng.integers(8, 1025, size=2))
            rows = tensor._strip_rows((ko, kc, kv, kh), (kc, sc, h, w))
            held = min(ko, kc) * kv * kh * sc * (w + 2 * (kh // 2)) * 8
            if rows is None:
                assert held * (h + 2 * (kv // 2)) <= tensor.STRIP_BYTES
            else:
                assert 1 <= rows < h
                assert rows == 1 or held * (rows + 2 * (kv // 2)) <= tensor.STRIP_BYTES

    @pytest.mark.parametrize("ko,kc", [(24, 12), (12, 24)])
    def test_two_threads_form_each_output_row_once(self, ko, kc, monkeypatch):
        monkeypatch.setattr(tensor, "STRIP_THREADS", 2)
        formed, threads = [], set()
        stack_rows, fold_products = tensor._stack_rows, tensor._fold_products

        def stacked(signal, kv, kh, rows, correlate=False):
            formed.append(rows)
            threads.add(threading.get_ident())
            return stack_rows(signal, kv, kh, rows, correlate)

        def folded(*args, rows=None, **kwargs):
            formed.append(rows)
            threads.add(threading.get_ident())
            return fold_products(*args, rows=rows, **kwargs)

        monkeypatch.setattr(tensor, "_stack_rows", stacked)
        monkeypatch.setattr(tensor, "_fold_products", folded)
        rng = np.random.default_rng((ko, kc, 14))
        kernel = rng.normal(size=(ko, kc, 3, 3))
        x = rng.normal(size=(kc, 1, 256, 256))
        out = tensor.conv2d(kernel, x)
        assert len(formed) > 1  # the conv took strips
        assert sorted(r for span in formed for r in span) == list(range(256))
        assert threading.get_ident() not in threads  # on the pool's threads
        whole, _ = tensor._conv_forward(kernel, x)
        assert out.tobytes() == whole.tobytes()

    def test_a_fold_strip_holds_its_input_and_accumulator_in_the_budget(self):
        # two strips in flight, each with its wrap-padded input, its tap
        # products and its accumulator, stay within two budgets
        rng = np.random.default_rng(18)
        for _ in range(200):
            kc = int(rng.integers(2, 33))
            ko = int(rng.integers(1, kc))
            kv, kh = (int(v) for v in rng.choice([1, 3, 5, 7], size=2))
            sc = int(rng.integers(1, 3))
            h, w = (int(v) for v in rng.integers(8, 1025, size=2))
            rows = tensor._strip_rows((ko, kc, kv, kh), (kc, sc, h, w))
            if rows is not None and rows > 1:
                held = (ko * kv * kh + kc + ko) * sc * (w + 2 * (kh // 2)) * 8
                assert held * (rows + 2 * (kv // 2)) <= tensor.STRIP_BYTES

    def test_reference_strips_at_512(self):
        # 9 rows of 514 columns of 12 * 9 planes fill the 4 MB budget, so
        # the expanding 12 -> 24 conv keeps 9 - 2 = 7 rows a strip.  The
        # contracting 24 -> 12 conv also holds its 24-channel padded input
        # and 12-channel accumulator, 108 + 24 + 12 = 144 planes: 7 rows of
        # them fill the budget, so it keeps 7 - 2 = 5 rows a strip
        assert tensor._strip_rows((24, 12, 3, 3), (12, 1, 512, 512)) == 7
        assert tensor._strip_rows((12, 24, 3, 3), (24, 1, 512, 512)) == 5


REFERENCE_CONVS = [(6, 1), (12, 6), (24, 12), (12, 24), (6, 12), (1, 6)]


class TestStripThreads:
    """Strips run on up to two pool threads with the bytes of one."""

    @pytest.mark.parametrize("h,w", [(256, 256), (256, 130), (200, 200)])
    @pytest.mark.parametrize("ko,kc", REFERENCE_CONVS)
    def test_convs_and_adjoints_keep_their_bytes(self, ko, kc, h, w, monkeypatch):
        rng = np.random.default_rng((ko, kc, h, w))
        kernel = rng.normal(size=(ko, kc, 3, 3))
        x, y = rng.normal(size=(kc, 1, h, w)), rng.normal(size=(ko, 1, h, w))
        got = {}
        for threads in (1, 2):
            monkeypatch.setattr(tensor, "STRIP_THREADS", threads)
            got[threads] = tensor.conv2d(kernel, x).tobytes(), tensor.conv2d_adjoint(kernel, y).tobytes()
        assert got[1] == got[2]

    @pytest.mark.parametrize("size", [64, 256, 512, 130, 200])
    def test_predict_keeps_its_bytes(self, size, monkeypatch):
        model = build_toy(seed=1)
        rng = np.random.default_rng(size)
        for b in model.enc_biases + model.dec_biases:
            b.value[:] = rng.uniform(-0.05, 0.05, size=b.value.shape)
        y = rng.uniform(size=(1, 1, size, size))
        got = []
        for threads in (1, 2):
            monkeypatch.setattr(tensor, "STRIP_THREADS", threads)
            got.append(model.predict(y).tobytes())
        assert got[0] == got[1]

    def test_one_thread_runs_strips_on_the_caller(self, monkeypatch):
        monkeypatch.setattr(tensor, "STRIP_THREADS", 1)
        threads, conv_rows = set(), tensor._conv_rows

        def recorded(*args, **kwargs):
            threads.add(threading.get_ident())
            return conv_rows(*args, **kwargs)

        monkeypatch.setattr(tensor, "_conv_rows", recorded)
        tensor.conv2d(np.ones((24, 12, 3, 3)), np.ones((12, 1, 256, 256)))
        assert threads == {threading.get_ident()}

    def test_a_strip_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(tensor, "STRIP_THREADS", 2)
        rng = np.random.default_rng(19)
        kernel, x = rng.normal(size=(24, 12, 3, 3)), rng.normal(size=(12, 1, 256, 256))
        started, conv_rows = [], tensor._conv_rows

        def second_fails(kernel, signal, rows, out=None):
            started.append(rows.start)
            if rows.start > 0:
                raise MemoryError("strip")
            return conv_rows(kernel, signal, rows, out)

        monkeypatch.setattr(tensor, "_conv_rows", second_fails)
        raised = []

        def call():
            try:
                tensor.conv2d(kernel, x)
            except MemoryError as exc:
                raised.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(60)
        assert not caller.is_alive(), "the conv hung"
        assert [str(exc) for exc in raised] == ["strip"]
        strips = len(range(0, 256, tensor._strip_rows(kernel.shape, x.shape)))
        assert len(started) < strips  # no further strip started
        # the pool's threads survive a strip's error
        monkeypatch.setattr(tensor, "_conv_rows", conv_rows)
        assert tensor.conv2d(kernel, x).tobytes() == tensor._conv_forward(kernel, x)[0].tobytes()

    def test_a_forked_child_runs_a_conv(self, monkeypatch):
        monkeypatch.setattr(tensor, "STRIP_THREADS", 2)
        rng = np.random.default_rng(20)
        kernel, x = rng.normal(size=(24, 12, 3, 3)), rng.normal(size=(12, 1, 256, 256))
        want = hashlib.sha256(tensor.conv2d(kernel, x).tobytes()).hexdigest()  # the pool is up
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)

        def child():
            send.send(hashlib.sha256(tensor.conv2d(kernel, x).tobytes()).hexdigest())

        proc = ctx.Process(target=child)
        proc.start()
        try:
            proc.join(60)
            if proc.is_alive():
                proc.kill()
                proc.join()
                pytest.fail("the forked child's conv hung")
            assert proc.exitcode == 0
            assert receive.recv() == want
        finally:
            receive.close()
            send.close()


class TestWrapWindow:
    """The periodic-window copy under every shift stack, fold and bank
    equals numpy's wrap-mode take, byte for byte."""

    @staticmethod
    def take(src, r0, c0, h, w):
        rows = src.take(range(r0, r0 + h), axis=2, mode="wrap")
        return rows.take(range(c0, c0 + w), axis=3, mode="wrap")

    def test_matches_take_wrap_bitwise(self):
        rng = np.random.default_rng(16)
        cases = [(4, 3, 12, 9, -5, 7), (1, 1, 3, 3, -2, 2), (5, 6, 5, 6, 0, 0), (6, 2, 18, 1, 13, -1)]
        for _ in range(300):
            n, m = (int(v) for v in rng.integers(1, 7, size=2))
            h, w = int(rng.integers(1, 3 * n + 1)), int(rng.integers(1, 3 * m + 1))
            r0, c0 = int(rng.integers(-3 * n, 3 * n + 1)), int(rng.integers(-3 * m, 3 * m + 1))
            cases.append((n, m, h, w, r0, c0))
        for n, m, h, w, r0, c0 in cases:
            src = rng.normal(size=(2, 3, n, m))
            want = self.take(src, r0, c0, h, w)
            dst = np.empty((2, 3, h, w))
            tensor._wrap_window(dst, src, r0, c0)
            assert dst.tobytes() == want.tobytes(), (n, m, h, w, r0, c0)
            base = rng.normal(size=(2, 3, h, w))
            added = base.copy()
            tensor._wrap_window(added, src, r0, c0, add=True)
            assert added.tobytes() == (base + want).tobytes(), (n, m, h, w, r0, c0)

    def test_strided_destination(self):
        # the banks write one output phase, a strided view, per tap
        rng = np.random.default_rng(17)
        src = rng.normal(size=(2, 1, 5, 4))
        out = np.zeros((2, 1, 14, 8))
        tensor._wrap_window(out[:, :, 1::2, ::2], src, -3, 6)
        assert out[:, :, 1::2, ::2].tobytes() == self.take(src, -3, 6, 7, 4).tobytes()
        assert not out[:, :, ::2].any() and not out[:, :, :, 1::2].any()


def random_pointwise_case(rng, ko, kc, size):
    """A ``size x size`` kernel whose only nonzero taps are its centers
    (about a third of them zero as well), a signal of 1-3 columns with even
    sides 2-8, and an output-shaped probe."""
    kernel = np.zeros((ko, kc, size, size))
    kernel[:, :, size // 2, size // 2] = rng.normal(size=(ko, kc)) * (rng.random((ko, kc)) < 0.7)
    cols = int(rng.integers(1, 4))
    h, w = 2 * rng.integers(1, 5, size=2)
    return kernel, rng.normal(size=(kc, cols, h, w)), rng.normal(size=(ko, cols, h, w))


def count_dense_calls(monkeypatch):
    """Count the calls of the stack-or-fold conv routes and of the stack."""
    calls = {"_conv_forward": 0, "_conv_grad_signal": 0, "_shift_stack": 0}
    for name in calls:
        original = getattr(tensor, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(tensor, name, counted)
    return calls


class TestPointwiseProperties:
    """A kernel whose nonzero taps all sit at its center is a channel mix:
    the same circular convolution and adjoint, computed without the shift
    stack or the fold."""

    @pytest.mark.parametrize("size", [1, 3, 5])
    @pytest.mark.parametrize("ko,kc", CHANNELS)
    def test_forward_and_adjoint(self, ko, kc, size, monkeypatch):
        rng = np.random.default_rng((ko, kc, size, 4))
        calls = count_dense_calls(monkeypatch)
        for _ in range(6):
            kernel, x, y = random_pointwise_case(rng, ko, kc, size)
            out = tensor.conv2d(kernel, x)
            want = conv2d_roll_reference(kernel, x)
            assert np.max(np.abs(out - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))
            lhs = np.vdot(out, y)
            assert abs(lhs - np.vdot(x, tensor.conv2d_adjoint(kernel, y))) < 1e-11 * max(1.0, abs(lhs))
        assert calls == {"_conv_forward": 0, "_conv_grad_signal": 0, "_shift_stack": 0}

    def test_kernel_wider_than_image_and_zero_kernel(self):
        rng = np.random.default_rng(6)
        for ko, kc in ((3, 2), (2, 3)):
            x = rng.normal(size=(kc, 2, 2, 4))
            y = rng.normal(size=(ko, 2, 2, 4))
            kernel = np.zeros((ko, kc, 7, 7))
            zero_x, zero_y = tensor.conv2d(kernel, x), tensor.conv2d_adjoint(kernel, y)
            assert zero_x.shape == y.shape and not np.any(zero_x)
            assert zero_y.shape == x.shape and not np.any(zero_y)
            kernel[:, :, 3, 3] = rng.normal(size=(ko, kc))
            out = tensor.conv2d(kernel, x)
            assert np.max(np.abs(out - conv2d_reference(kernel, x))) < 1e-12
            assert abs(np.vdot(out, y) - np.vdot(x, tensor.conv2d_adjoint(kernel, y))) < 1e-11

    @pytest.mark.parametrize("size", [1, 3, 5])
    def test_signed_impulse_banks(self, size):
        rng = np.random.default_rng(size)
        x = rng.normal(size=(3, 2, 6, 4))
        plain = tensor.signed_impulse_bank(3, (1.0,), size=size)
        np.testing.assert_array_equal(tensor.conv2d(plain, x), x)
        np.testing.assert_array_equal(tensor.conv2d_adjoint(plain, x), x)
        pairs = tensor.signed_impulse_bank(3, (1.0, -1.0), out_ch=8, size=size)
        out = tensor.conv2d(pairs, x)
        np.testing.assert_array_equal(out[0:6:2], x)
        np.testing.assert_array_equal(out[1:6:2], -x)
        assert not np.any(out[6:])
        np.testing.assert_array_equal(tensor.conv2d_adjoint(pairs, out), 2.0 * x)

    @pytest.mark.parametrize("ko,kc", CHANNELS)
    def test_one_off_center_tap_takes_the_dense_route(self, ko, kc, monkeypatch):
        rng = np.random.default_rng((ko, kc, 5))
        calls = count_dense_calls(monkeypatch)
        for _ in range(4):
            kernel, x, y = random_pointwise_case(rng, ko, kc, 3)
            u, v = [(0, 0), (0, 2), (1, 0), (2, 1)][int(rng.integers(4))]
            kernel[int(rng.integers(ko)), int(rng.integers(kc)), u, v] = rng.normal()
            out = tensor.conv2d(kernel, x)
            want = conv2d_roll_reference(kernel, x)
            assert np.max(np.abs(out - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))
            lhs = np.vdot(out, y)
            assert abs(lhs - np.vdot(x, tensor.conv2d_adjoint(kernel, y))) < 1e-11 * max(1.0, abs(lhs))
        # conv2d_adjoint is conv2d of the adjoint kernel, which keeps the off-center tap
        assert calls["_conv_forward"] == 8 and calls["_conv_grad_signal"] == 0


def dwt_stacks():
    haar = haar_dwt()
    return {
        "dwt_low": (haar.forward[:1], haar.inverse[:1]),
        "dwt_high": (haar.forward[1:], haar.inverse[1:]),
        "dwt_full": (haar.forward, haar.inverse),
    }


def random_bank_cases(rng, n=8):
    """Channels 1-8, columns 1-3 and even sides 2-32."""
    for _ in range(n):
        channels, cols = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        h, w = 2 * rng.integers(1, 17, size=2)
        yield channels, cols, int(h), int(w)


def rotated(filters):
    return filters[:, :, ::-1, ::-1]


class TestDwtBankProperties:
    """The polyphase banks are the dense per-channel conv with decimation
    (analysis) or zero insertion (synthesis), over all three DWT kinds."""

    @pytest.mark.parametrize("kind", ["dwt_low", "dwt_high", "dwt_full"])
    def test_match_dense_oracle(self, kind):
        forward, inverse = dwt_stacks()[kind]
        bands = forward.shape[0]
        rng = np.random.default_rng((bands, 1))
        for channels, cols, h, w in random_bank_cases(rng):
            x = rng.normal(size=(channels, cols, h, w))
            want = downsample_reference(conv2d_roll_reference(block_diag_bank(forward, channels), x), 2)
            got = tensor.bank_down(forward, x)
            assert got.shape == (channels * bands, cols, h // 2, w // 2)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
            z = rng.normal(size=(channels * bands, cols, h // 2, w // 2))
            dense = np.swapaxes(block_diag_bank(inverse, channels), 0, 1)
            want = conv2d_roll_reference(dense, upsample_reference(z, 2))
            got = tensor.bank_up(inverse, z)
            assert got.shape == (channels, cols, h, w)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", ["dwt_low", "dwt_high", "dwt_full"])
    def test_adjoint_identity(self, kind):
        forward, inverse = dwt_stacks()[kind]
        bands = forward.shape[0]
        rng = np.random.default_rng((bands, 2))
        for channels, cols, h, w in random_bank_cases(rng):
            x = rng.normal(size=(channels, cols, h, w))
            y = rng.normal(size=(channels * bands, cols, h // 2, w // 2))
            for filters in (forward, inverse):
                lhs = np.vdot(tensor.bank_down(filters, x), y)
                rhs = np.vdot(x, tensor.bank_up(rotated(filters), y))
                assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
                lhs = np.vdot(tensor.bank_up(filters, y), x)
                rhs = np.vdot(y, tensor.bank_down(rotated(filters), x))
                assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_round_trips_are_identity(self):
        forward, inverse = dwt_stacks()["dwt_full"]
        basis = haar_dwt()
        rng = np.random.default_rng(3)
        for channels, cols, h, w in random_bank_cases(rng, n=12):
            x = rng.normal(size=(channels, cols, h, w))
            back = tensor.bank_up(inverse, tensor.bank_down(forward, x))
            assert np.max(np.abs(back - x)) < 1e-12
            y = rng.normal(size=(1, 1, h, w))
            bands = framelet_forward(basis, y, decimated=True)
            assert np.max(np.abs(framelet_inverse(basis, bands, decimated=True) - y)) < 1e-12

    def test_wide_filters_and_bad_shapes(self):
        rng = np.random.default_rng(4)
        filters = rng.normal(size=(2, 1, 7, 5))
        x = rng.normal(size=(3, 2, 2, 4))
        want = downsample_reference(conv2d_roll_reference(block_diag_bank(filters, 3), x), 2)
        assert np.max(np.abs(tensor.bank_down(filters, x) - want)) < 1e-12
        with pytest.raises(ShapeError):
            tensor.bank_down(filters, rng.normal(size=(3, 1, 3, 4)))
        with pytest.raises(ShapeError):
            tensor.bank_up(filters, rng.normal(size=(3, 1, 2, 2)))
        with pytest.raises(ConfigError):
            tensor.bank_down(rng.normal(size=(2, 1, 2, 3)), x)
