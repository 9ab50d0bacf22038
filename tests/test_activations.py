"""Shrinkage and clipping estimators, thresholds, ReLU expansions."""

import numpy as np
import pytest

from fdl import tensor
from fdl.activations import (
    ACTIVATION_KINDS,
    ActivationSpec,
    activation_derivative,
    apply_activation,
    clip_as_relu,
    dog_clip,
    dog_shrink,
    garrote_shrink,
    relu_bias,
    shrink_as_relu,
    soft_clip,
    soft_shrink,
)
from fdl.errors import ConfigError
from fdl.framelets import haar_dwt, map_thresholds


# The threshold at which each kind passes its input unchanged; None for the
# rectifier, which never does.
PASS_THROUGH_LIMIT = {
    "soft_shrink": 0.0, "garrote": 0.0, "dog_shrink": 0.0, "let": 0.0,
    "relu_bias": None, "soft_clip": np.inf, "dog_clip": np.inf,
}


def _with_threshold(kind, t):
    """An activation of ``kind`` whose every threshold is ``t``."""
    if kind == "let":
        members = ((0.5, ActivationSpec("soft_shrink", t=t)), (0.5, ActivationSpec("dog_shrink", t=t)))
        return ActivationSpec("let", members=members)
    return ActivationSpec(kind, t=t, p=4)


def detail_bands_of_variance(*variances):
    """Haar bands whose low band is a constant and whose detail band ``k``
    is a checkerboard of variance ``variances[k - 1]``."""
    rr, cc = np.mgrid[0:8, 0:8]
    checker = (-1.0) ** (rr + cc)
    return np.stack([np.full((1, 8, 8), 5.0)] + [np.sqrt(v) * checker[None] for v in variances])


class TestMapThreshold:
    """The MAP rule ``sigma**2 / sigma_d`` of :func:`fdl.framelets.map_thresholds`."""

    def test_direct_substitution(self):
        # sigma_d**2 = var - sigma**2 = 0.05**2
        t = map_thresholds(haar_dwt(), detail_bands_of_variance(0.0125, 0.0125, 0.0125), 0.1)
        np.testing.assert_allclose(t, 0.2, rtol=1e-12)

    def test_strong_signal_limit(self):
        t = map_thresholds(haar_dwt(), detail_bands_of_variance(1e18, 1e18, 1e18), 0.1)
        np.testing.assert_allclose(t, 0.0, atol=1e-10)

    def test_empty_band_is_suppressed(self):
        # an empty band has sigma_d at its floor sqrt(1e-12); the others keep theirs
        t = map_thresholds(haar_dwt(), detail_bands_of_variance(0.0, 0.01, 0.0125), 0.1)
        np.testing.assert_allclose(t, [1e4, 1e4, 0.2], rtol=1e-9)

    def test_zero_sigma_gives_zero_thresholds(self):
        # the CLI's estimate for a blank image
        for variances in ((0.0, 0.0, 0.0), (0.3, 0.0, 1e-20)):
            t = map_thresholds(haar_dwt(), detail_bands_of_variance(*variances), 0.0)
            assert t.tolist() == [0.0, 0.0, 0.0]


class TestScalarMaps:
    def test_relu_bias_values(self):
        assert relu_bias(0.5, 0.2) == pytest.approx(0.3)
        assert relu_bias(-1.0, 0.0) == 0.0
        assert relu_bias(0.2, 0.2) == 0.0

    def test_relu_zero_threshold_is_general_formula_bitwise(self):
        z = np.array([-0.0, 0.0, -1e-300, 1e-300, -2.5, 2.5, np.inf, -np.inf, np.nan])
        assert relu_bias(z, 0.0).tobytes() == np.maximum(z - 0.0, 0.0).tobytes()

    def test_soft_shrink_values(self):
        assert soft_shrink(5.0, 2.0) == pytest.approx(3.0)
        assert soft_shrink(-5.0, 2.0) == pytest.approx(-3.0)
        dead_zone = soft_shrink(np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), 2.0)
        np.testing.assert_array_equal(dead_zone, np.zeros(5))

    def test_soft_clip_values(self):
        assert soft_clip(5.0, 2.0) == pytest.approx(2.0)
        assert soft_clip(1.0, 2.0) == pytest.approx(1.0)

    def test_shrink_plus_clip_is_identity(self):
        rng = np.random.default_rng(0)
        z = rng.normal(scale=3.0, size=1000)
        np.testing.assert_allclose(soft_shrink(z, 1.3) + soft_clip(z, 1.3), z, atol=1e-14)

    @pytest.mark.parametrize(
        "shrink, clip, p",
        [("soft_shrink", "soft_clip", 2), ("dog_shrink", "dog_clip", 2),
         ("dog_shrink", "dog_clip", 4), ("dog_shrink", "dog_clip", 6)],
        ids=["soft", "dog-p2", "dog-p4", "dog-p6"],
    )
    def test_shrink_plus_clip_is_identity_random(self, shrink, clip, p):
        # random 4-D shapes and scales; a scalar or a per-channel threshold
        # (some channels at 0) on the scale of the input
        for seed in range(20):
            rng = np.random.default_rng(seed)
            shape = tuple(int(n) for n in rng.integers(1, 7, size=4))
            scale = 10.0 ** rng.uniform(-2, 2)
            z = rng.normal(scale=scale, size=shape)
            if seed % 2:
                t = float(rng.uniform(0, 3) * scale)
            else:
                t = rng.uniform(0, 3, size=shape[0]) * scale * (rng.random(shape[0]) > 0.2)
            total = apply_activation(ActivationSpec(shrink, t=t, p=p), z) + apply_activation(
                ActivationSpec(clip, t=t, p=p), z
            )
            assert np.max(np.abs(total - z)) <= 1e-14 * np.max(np.abs(z)), seed

    def test_garrote_values(self):
        assert garrote_shrink(2.0, 1.0) == pytest.approx(1.5)
        assert garrote_shrink(0.5, 1.0) == 0.0
        assert garrote_shrink(0.0, 1.0) == 0.0
        # asymptotically unbiased for large inputs
        assert garrote_shrink(100.0, 1.0) == pytest.approx(99.99)

    def test_dog_values(self):
        t = 0.7
        assert dog_clip(t, t, 2) == pytest.approx(t * np.exp(-1.0))
        assert dog_clip(0.0, t, 2) == 0.0
        assert dog_clip(10 * t, t, 2) == pytest.approx(0.0, abs=1e-12)
        assert dog_shrink(10 * t, t, 2) == pytest.approx(10 * t, rel=1e-12)

    def test_dog_shrink_plus_clip_is_identity(self):
        rng = np.random.default_rng(1)
        z = rng.normal(scale=2.0, size=500)
        np.testing.assert_allclose(dog_shrink(z, 0.8, 4) + dog_clip(z, 0.8, 4), z, atol=1e-14)

    def test_dog_odd_exponent_raises(self):
        with pytest.raises(ConfigError):
            dog_clip(1.0, 1.0, 3)

    def test_odd_symmetry(self):
        rng = np.random.default_rng(2)
        z = rng.normal(scale=2.0, size=400)
        for fn in (
            lambda v: soft_shrink(v, 0.9),
            lambda v: soft_clip(v, 0.9),
            lambda v: garrote_shrink(v, 0.9),
            lambda v: dog_shrink(v, 0.9, 2),
            lambda v: dog_clip(v, 0.9, 2),
        ):
            np.testing.assert_allclose(fn(-z), -fn(z), atol=1e-12)

    def test_soft_maps_monotone(self):
        z = np.linspace(-4.0, 4.0, 801)
        for fn in (lambda v: soft_shrink(v, 1.1), lambda v: soft_clip(v, 1.1)):
            diffs = np.diff(fn(z))
            assert np.all(diffs >= -1e-14)

    def test_soft_shrink_is_1_lipschitz(self):
        rng = np.random.default_rng(3)
        a = rng.normal(scale=3.0, size=1000)
        b = rng.normal(scale=3.0, size=1000)
        assert np.all(np.abs(soft_shrink(a, 0.7) - soft_shrink(b, 0.7)) <= np.abs(a - b) + 1e-14)

    def test_bias_as_threshold(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=200)
        t = 0.4
        np.testing.assert_allclose(relu_bias(z, t), np.maximum(z + (-t), 0.0))

    def test_per_channel_threshold(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(3, 1, 4, 4))
        t = np.array([0.1, 0.5, 2.0])
        out = soft_shrink(z, t)
        for c in range(3):
            np.testing.assert_allclose(out[c], soft_shrink(z[c], float(t[c])))


class TestLet:
    def test_single_member_equals_soft(self):
        rng = np.random.default_rng(6)
        z = rng.normal(scale=3.0, size=300)
        members = ((1.0, ActivationSpec("soft_shrink", t=2.0)),)
        np.testing.assert_allclose(
            apply_activation(ActivationSpec("let", members=members), z), soft_shrink(z, 2.0)
        )

    def test_two_identical_members_collapse(self):
        rng = np.random.default_rng(7)
        z = rng.normal(scale=3.0, size=300)
        m = ActivationSpec("soft_shrink", t=1.5)
        np.testing.assert_allclose(
            apply_activation(ActivationSpec("let", members=((0.5, m), (0.5, m))), z),
            soft_shrink(z, 1.5),
            atol=1e-14,
        )

    def test_bad_weight_sum_raises(self):
        m = ActivationSpec("soft_shrink", t=1.0)
        with pytest.raises(ConfigError):
            ActivationSpec("let", members=((0.7, m), (0.4, m)))


class TestSpec:
    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigError):
            ActivationSpec("hard_shrink", t=1.0)

    def test_negative_threshold_raises(self):
        with pytest.raises(ConfigError):
            ActivationSpec("soft_shrink", t=-0.1)

    def test_dispatch_matches_functions(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(2, 1, 4, 4))
        np.testing.assert_array_equal(
            apply_activation(ActivationSpec("garrote", t=0.3), z), garrote_shrink(z, 0.3)
        )
        np.testing.assert_array_equal(
            apply_activation(ActivationSpec("dog_clip", t=0.5, p=4), z), dog_clip(z, 0.5, 4)
        )

    def test_shrink_flag(self):
        assert ActivationSpec("soft_shrink", t=0.1).is_shrink
        assert not ActivationSpec("soft_clip", t=0.1).is_shrink
        assert not ActivationSpec("relu_bias", t=0.0).is_shrink

    @pytest.mark.parametrize("kind", ACTIVATION_KINDS)
    def test_neutral_passes_input_through(self, kind):
        z = np.random.default_rng(12).normal(size=(2, 1, 5, 5))
        want = np.maximum(z, 0.0) if kind == "relu_bias" else z
        for t in (0.0, 0.7, np.inf, (0.0, 0.3)):
            neutral = _with_threshold(kind, t).neutral()
            np.testing.assert_array_equal(apply_activation(neutral, z), want)
            assert neutral.is_identity is (kind != "relu_bias")

    def test_nested_let_is_identity_only_when_its_members_are(self):
        inner = ActivationSpec("let", members=((1.0, ActivationSpec("soft_shrink", t=0.5)),))
        assert not ActivationSpec("let", members=((1.0, inner),)).is_identity
        assert ActivationSpec("let", members=((1.0, inner.neutral()),)).is_identity

    @pytest.mark.parametrize("kind", ACTIVATION_KINDS)
    def test_is_identity_only_at_the_family_limit(self, kind):
        limit = PASS_THROUGH_LIMIT[kind]
        z = np.random.default_rng(13).normal(size=(2, 1, 5, 5))
        for t in (0.0, 0.7, np.inf, (0.0, 0.0), (0.0, np.inf), (np.inf, np.inf)):
            spec = _with_threshold(kind, t)
            at_limit = limit is not None and bool(np.all(np.asarray(t) == limit))
            assert spec.is_identity is at_limit
            if at_limit:
                np.testing.assert_allclose(apply_activation(spec, z), z, rtol=1e-15, atol=0)


class TestDerivatives:
    def kinds(self):
        soft = ActivationSpec("soft_shrink", t=0.6)
        return [
            ActivationSpec("relu_bias", t=0.4),
            soft,
            ActivationSpec("soft_clip", t=0.6),
            ActivationSpec("garrote", t=0.5),
            ActivationSpec("dog_shrink", t=0.8, p=2),
            ActivationSpec("dog_clip", t=0.8, p=4),
            ActivationSpec("let", members=((0.3, soft), (0.7, ActivationSpec("garrote", t=0.2)))),
        ]

    def test_relu_mask_scales_gradients_like_the_float_derivative(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=(2, 1, 3, 3))
        z.flat[:4] = [0.0, -0.0, 0.25, -0.25]
        g = rng.normal(size=z.shape)
        g.flat[4:7] = [np.inf, -np.inf, np.nan]
        for t in (0.0, 0.25, (0.0, 0.25)):
            mask = activation_derivative(ActivationSpec("relu_bias", t=t), z)
            tb = np.asarray(t, dtype=float).reshape(-1, 1, 1, 1)
            assert mask.dtype == bool
            with np.errstate(invalid="ignore"):  # inf * 0
                assert (g * mask).tobytes() == (g * np.where(z - tb > 0.0, 1.0, 0.0)).tobytes()

    def test_matches_finite_differences_away_from_kinks(self):
        rng = np.random.default_rng(9)
        eps = 1e-6
        for spec in self.kinds():
            z = rng.normal(scale=2.0, size=2000)
            t = spec.t if np.isscalar(spec.t) else 1.0
            # keep probes clear of the kink set {|z| == t} and {z == t}
            keep = (np.abs(np.abs(z) - t) > 1e-3) & (np.abs(z) > 1e-3)
            z = z[keep]
            num = (apply_activation(spec, z + eps) - apply_activation(spec, z - eps)) / (2 * eps)
            ana = activation_derivative(spec, z)
            np.testing.assert_allclose(ana, num, rtol=1e-4, atol=1e-6)


class TestReluExpansions:
    def test_shrink_as_relu_matches_closed_form(self):
        rng = np.random.default_rng(10)
        z = rng.normal(scale=3.0, size=(1, 1, 8, 8))
        k, k_tilde, b = shrink_as_relu(0.9)
        inner = relu_bias(tensor.conv2d(k, z) + b[:, None, None, None])
        out = tensor.conv2d(tensor.tensor_transpose(k_tilde), inner)
        assert np.max(np.abs(out - soft_shrink(z, 0.9))) < 1e-12

    def test_shrink_channel_count_doubles(self):
        k, k_tilde, b = shrink_as_relu(0.2, channels=3)
        assert k.shape == (6, 3, 1, 1)
        assert k_tilde.shape == (6, 3, 1, 1)
        assert b.shape == (6,)

    def test_shrink_zero_threshold_is_identity(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=(1, 1, 6, 6))
        k, k_tilde, b = shrink_as_relu(0.0)
        inner = relu_bias(tensor.conv2d(k, z) + b[:, None, None, None])
        out = tensor.conv2d(tensor.tensor_transpose(k_tilde), inner)
        assert np.max(np.abs(out - z)) < 1e-14

    def test_clip_as_relu_matches_closed_form(self):
        rng = np.random.default_rng(12)
        z = rng.normal(scale=3.0, size=(1, 1, 8, 8))
        k, k_tilde, b = clip_as_relu(0.7)
        assert k.shape[0] == 4
        inner = relu_bias(tensor.conv2d(k, z) + b[:, None, None, None])
        out = tensor.conv2d(tensor.tensor_transpose(k_tilde), inner)
        assert np.max(np.abs(out - soft_clip(z, 0.7))) < 1e-12

    def test_clip_large_threshold_passes_signal(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=(1, 1, 6, 6))
        k, k_tilde, b = clip_as_relu(1e9)
        inner = relu_bias(tensor.conv2d(k, z) + b[:, None, None, None])
        out = tensor.conv2d(tensor.tensor_transpose(k_tilde), inner)
        np.testing.assert_allclose(out, z, atol=1e-12)

    def test_scalar_grid_equivalence(self):
        # dense scalar sweep for both expansions
        z = np.linspace(-5, 5, 10001)[None, None, None, :]
        z = np.broadcast_to(z, (1, 1, 2, 10001)).copy()
        ks, kts, bs = shrink_as_relu(1.2)
        kc, ktc, bc = clip_as_relu(1.2)
        shrunk = tensor.conv2d(
            tensor.tensor_transpose(kts), relu_bias(tensor.conv2d(ks, z) + bs[:, None, None, None])
        )
        clipped = tensor.conv2d(
            tensor.tensor_transpose(ktc), relu_bias(tensor.conv2d(kc, z) + bc[:, None, None, None])
        )
        assert np.max(np.abs(shrunk - soft_shrink(z, 1.2))) < 1e-12
        assert np.max(np.abs(clipped - soft_clip(z, 1.2))) < 1e-12
