"""Network specs, builders, runtime, reconstruction analysis, FLOP counts."""

import importlib.resources as ir
import json
from types import SimpleNamespace

import numpy as np
import pytest

from fdl import autodiff as ad
from fdl import analysis, tensor
from fdl.activations import ActivationSpec
from fdl.analysis import (
    count_flops,
    equivalent_filter,
    flops_lwfsn,
    flops_red,
    flops_unet,
    ideal_instantiation,
    pr_analyze,
)
from fdl.errors import ConfigError
from fdl.framelets import haar_dwt, make_basis, phase_complement
from fdl.network import (
    NUMPY_OPS,
    Activation,
    Conv,
    Network,
    NetworkSpec,
    Resample,
    SkipAdd,
    build_lwfsn,
    build_red,
    build_rlwfsn,
    build_toy_spec,
    build_unet,
    evaluate,
    spec_from_json,
    spec_to_json,
    validate_spec,
)

from oracles import conv2d_reference, downsample_reference, upsample_reference
from test_pr_golden import pool


def bundled(name):
    return ir.files("fdl") / "specs" / f"{name}.json"


RELU = Activation(ActivationSpec("relu_bias", t=0.0))


class TestSpecValidation:
    def test_channel_walk(self):
        # (channels, level) per layer: the pooled path runs at level 1
        assert validate_spec(build_unet(8, 16)) == [
            (8, 0), (8, 0), (1, 0),
            (8, 1), (16, 1), (16, 1), (8, 1), (8, 1),
            (8, 0), (1, 0), (1, 0),
        ]

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            NetworkSpec(layers=(Conv(4, 2, 3),))  # input has 1 channel

    def test_bad_skip_reference(self):
        with pytest.raises(ConfigError):
            NetworkSpec(layers=(Conv(2, 1, 3), SkipAdd(from_=5)))

    def test_dwt_resample_needs_factor_two(self):
        down = {"type": "resample", "direction": "down", "kind": "dwt_low", "s": 4}
        with pytest.raises(ConfigError, match="layer 1: resampling factor must be 2"):
            spec_from_json({"layers": [{"type": "conv", "out_ch": 2, "in_ch": 1}, down]})

    def test_json_round_trip(self):
        for spec in (build_unet(8, 16), build_red(4, 8), build_lwfsn(8), build_rlwfsn(8)):
            assert spec_from_json(spec_to_json(spec)) == spec

    def test_json_schema_violation_names_layer(self):
        payload = {"layers": [{"type": "conv", "out_ch": 4}]}  # in_ch missing
        with pytest.raises(ConfigError, match="layer 0"):
            spec_from_json(payload)

    def test_bundled_specs_load(self):
        # the CLI and the analyze benchmark read these files; the benchmark's
        # width variants come from the builders, so the two must agree
        builders = {
            "unet": build_unet(64, 128), "red": build_red(4, 8), "lwfsn": build_lwfsn(64),
            "rlwfsn": build_rlwfsn(64), "toy": build_toy_spec(),
        }
        for name, built in builders.items():
            assert spec_from_json(json.loads(bundled(name).read_text())) == built, name


class TestBuilders:
    def test_toy_spec_widths(self):
        spec = build_toy_spec()
        convs = [l for l in spec.layers if isinstance(l, Conv)]
        assert [(c.out_ch, c.in_ch) for c in convs] == [
            (6, 1),
            (12, 6),
            (24, 12),
            (12, 24),
            (6, 12),
            (1, 6),
        ]

    def test_decoder_mirrors_encoder_channels(self):
        # every decoder inverts some encoder's channel pair and vice versa
        # (the two-path design has two decoder heads on one encoder)
        for spec in (build_unet(8, 16), build_red(4, 8), build_toy_spec()):
            convs = [l for l in spec.layers if isinstance(l, Conv)]
            enc = {(c.in_ch, c.out_ch) for c in convs if c.out_ch > c.in_ch}
            dec = {(c.out_ch, c.in_ch) for c in convs if c.out_ch < c.in_ch}
            assert enc == dec

    def test_lwfsn_rejects_clip_activation(self):
        with pytest.raises(ConfigError):
            build_lwfsn(8, act=ActivationSpec("soft_clip", t=1.0))

    def test_rlwfsn_rejects_shrink_activation(self):
        with pytest.raises(ConfigError):
            build_rlwfsn(8, act=ActivationSpec("soft_shrink", t=1.0))


class TestRuntime:
    def test_lwfsn_with_tight_frame_is_identity(self):
        # undecimated-normalized Haar bank as encoder, its synthesis as decoder
        haar = haar_dwt()
        basis = make_basis(haar.forward * 0.5, haar.inverse * 0.5)
        assert basis.c == pytest.approx(1.0)
        spec = build_lwfsn(4)  # threshold 0 by default
        net = Network(spec, [(basis.forward, None), (tensor.tensor_transpose(basis.inverse), None)])
        rng = np.random.default_rng(0)
        y = rng.normal(size=(1, 1, 16, 16))
        out = net.run(y)
        assert np.max(np.abs(out - y)) < 1e-8

    def test_rlwfsn_constant_passes_through(self):
        spec = build_rlwfsn(4)
        delta = np.zeros((4, 1, 3, 3))
        delta[0, 0, 1, 1] = 1.0
        net = Network(spec, [(delta, None), (tensor.tensor_transpose(delta), None)])
        y = np.full((1, 1, 8, 8), 0.6)
        np.testing.assert_allclose(net.run(y), y, atol=1e-12)

    def test_red_output_nonnegative(self):
        rng = np.random.default_rng(1)
        spec = build_red(4, 8)
        weights = []
        for layer in spec.layers:
            if isinstance(layer, Conv):
                k = rng.normal(scale=0.3, size=(layer.out_ch, layer.in_ch, 3, 3))
                b = rng.normal(scale=0.1, size=layer.out_ch) if layer.bias else None
                weights.append((k, b))
        net = Network(spec, weights)
        out = net.run(rng.normal(size=(1, 1, 8, 8)))
        assert np.min(out) >= 0.0

    def test_residual_wrapper_with_zero_block_is_identity(self):
        spec = build_rlwfsn(4)
        zeros = np.zeros((4, 1, 3, 3))
        net = Network(spec, [(zeros, None), (np.zeros((1, 4, 3, 3)), None)])
        rng = np.random.default_rng(2)
        y = rng.normal(size=(1, 1, 8, 8))
        np.testing.assert_array_equal(net.run(y), y)

    def test_dwt_full_round_trip(self):
        spec = NetworkSpec(
            layers=(Resample("down", "dwt_full"), Resample("up", "dwt_full")),
            input_channels=2,
            name="dwt_full",
        )
        assert validate_spec(spec) == [(8, 1), (2, 0)]
        assert spec_from_json(spec_to_json(spec)) == spec
        y = np.random.default_rng(3).normal(size=(2, 1, 16, 16))
        np.testing.assert_allclose(Network(spec, []).run(y), y, rtol=0, atol=1e-12)

    def test_plain_resampling_matches_tensor_oracles(self):
        # plain layers apply the one-band unit filter: phase-0 decimation
        # and zero insertion, bit for bit
        rng = np.random.default_rng(4)
        k = rng.normal(size=(1, 1, 3, 3))
        spec = NetworkSpec(
            layers=(Resample("down", "plain"), Conv(1, 1, 3, bias=False), Resample("up", "plain"))
        )
        net = Network(spec, [(k, None)])
        for shape in ((1, 1, 8, 8), (1, 3, 6, 10), (1, 2, 12, 4)):
            x = rng.normal(size=shape)
            want = upsample_reference(tensor.conv2d(k, downsample_reference(x, 2)), 2)
            assert net.run(x).tobytes() == want.tobytes()
            x = rng.normal(size=(3,) + shape[1:])
            unit = np.ones((1, 1, 1, 1))
            assert tensor.bank_down(unit, x).tobytes() == downsample_reference(x, 2).tobytes()
            assert tensor.bank_up(unit, x).tobytes() == upsample_reference(x, 2).tobytes()

    def test_shape_preservation_all_builders(self):
        for spec in (build_unet(4, 8), build_red(4, 8), build_lwfsn(4), build_rlwfsn(4), build_toy_spec()):
            net = ideal_instantiation(spec)
            out = net.run(np.ones((1, 1, 12, 12)))
            assert out.shape == (1, 1, 12, 12), spec.name


def random_weights(spec, rng):
    """One random ``(kernel, bias_or_None)`` pair per Conv of ``spec``."""
    weights = []
    for layer in spec.layers:
        if isinstance(layer, Conv):
            k = rng.normal(scale=0.3, size=(layer.out_ch, layer.in_ch, layer.n_f, layer.n_f))
            b = rng.normal(scale=0.1, size=layer.out_ch) if layer.bias else None
            weights.append((k, b))
    return weights


def as_nodes(weights):
    return [(ad.Parameter(k), None if b is None else ad.Parameter(b)) for k, b in weights]


class TestConvActivationFusion:
    """``evaluate`` hands an Activation to the Conv before it only when
    nothing else reads that Conv's output."""

    @pytest.mark.parametrize("name", ["lwfsn", "red", "rlwfsn", "toy", "unet"])
    def test_run_is_autodiff_evaluate_bitwise(self, name):
        # unet and red feed conv and activation outputs into skips
        spec = spec_from_json(json.loads(bundled(name).read_text()))
        rng = np.random.default_rng(14)
        weights = random_weights(spec, rng)
        x = rng.normal(size=(1, 1, 8, 8))
        out = evaluate(spec, as_nodes(weights), ad.constant(x), ad)
        assert out.value.tobytes() == Network(spec, weights).run(x).tobytes()

    def test_fuses_only_an_unnamed_conv_output(self):
        relu = ActivationSpec("relu_bias", t=0.0)
        spec = NetworkSpec(
            layers=(
                Conv(2, 1, 3),                # 0: applies layer 1
                Activation(relu),             # 1
                Conv(2, 2, 3),                # 2: named by layer 4
                Activation(relu),             # 3
                SkipAdd(from_=2),             # 4
                Conv(2, 2, 3),                # 5: applies layer 6, which is named
                Activation(relu),             # 6
                Conv(2, 2, 3, bias=False),    # 7: a skip follows
                SkipAdd(from_=6),             # 8
                Conv(1, 2, 3),                # 9: named by layer 10
                Activation(relu, source=9),   # 10
            )
        )
        rng = np.random.default_rng(15)
        weights = random_weights(spec, rng)
        x = rng.normal(size=(1, 1, 8, 8))
        calls = []

        def conv(kernel, z, bias, act):
            calls.append(("conv", act is not None))
            return NUMPY_OPS.conv(kernel, z, bias, act)

        def act(z, act_spec):
            calls.append(("act",))
            return NUMPY_OPS.act(z, act_spec)

        ops = SimpleNamespace(**{**vars(NUMPY_OPS), "conv": conv, "act": act})
        out = evaluate(spec, weights, x, ops)
        assert calls == [
            ("conv", True), ("conv", False), ("act",), ("conv", True),
            ("conv", False), ("conv", False), ("act",),
        ]

        def layer(i, z):
            k, b = weights[i]
            z = conv2d_reference(k, z)
            return z if b is None else z + b[:, None, None, None]

        o0 = np.maximum(layer(0, x), 0.0)
        o2 = layer(1, o0)
        o4 = np.maximum(o2, 0.0) + o2
        o6 = np.maximum(layer(2, o4), 0.0)
        want = np.maximum(layer(4, layer(3, o6) + o6), 0.0)
        np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)
        node = evaluate(spec, as_nodes(weights), ad.constant(x), ad)
        assert node.value.tobytes() == out.tobytes()

    def test_activation_with_its_own_source_is_not_fused(self):
        # layer 2 reads layer 0, so the Conv before it (whose output
        # nothing reads) must not apply it
        relu = ActivationSpec("relu_bias", t=0.0)
        spec = NetworkSpec(layers=(Conv(1, 1, 3), Conv(1, 1, 3), Activation(relu, source=0)))
        rng = np.random.default_rng(16)
        weights = random_weights(spec, rng)
        x = rng.normal(size=(1, 1, 8, 8))
        k, b = weights[0]
        want = np.maximum(conv2d_reference(k, x) + b[:, None, None, None], 0.0)
        np.testing.assert_allclose(Network(spec, weights).run(x), want, rtol=1e-12, atol=1e-12)
        node = evaluate(spec, as_nodes(weights), ad.constant(x), ad)
        np.testing.assert_allclose(node.value, want, rtol=1e-12, atol=1e-12)


class TestPrAnalyze:
    def test_lwfsn_perfect(self):
        report = pr_analyze(build_lwfsn(8))
        assert report.is_perfect
        assert report.max_recon_err < 1e-8
        assert report.gain_dc == pytest.approx(1.0, abs=1e-6)
        assert report.gain_nyquist == pytest.approx(1.0, abs=1e-6)

    def test_unet_imperfect_with_doubled_dc(self):
        report = pr_analyze(build_unet(8, 16))
        assert not report.is_perfect
        assert report.gain_dc == pytest.approx(2.0, abs=1e-6)
        assert report.gain_nyquist == pytest.approx(1.0, abs=1e-6)

    def test_unet_residual_variant_same_verdict(self):
        report = pr_analyze(build_unet(8, 16, residual=True))
        assert not report.is_perfect
        assert report.gain_dc == pytest.approx(2.0, abs=1e-6)

    def test_red_blocks_perfect(self):
        report = pr_analyze(build_red(4, 8))
        assert report.is_perfect
        assert report.max_recon_err < 1e-8

    def test_rlwfsn_suppresses_dc(self):
        report = pr_analyze(build_rlwfsn(8))
        assert not report.is_perfect
        assert report.gain_dc == pytest.approx(0.0, abs=1e-8)
        assert report.gain_nyquist == pytest.approx(1.0, abs=1e-6)

    def test_verdict_triple(self):
        # the three architecture verdicts, asserted together as a regression
        assert pr_analyze(build_lwfsn(8)).is_perfect
        assert not pr_analyze(build_unet(8, 16)).is_perfect
        assert pr_analyze(build_red(4, 8)).is_perfect

    def test_narrow_conv_not_instantiable(self):
        spec = NetworkSpec(
            layers=(Conv(3, 2, 3), RELU, Conv(2, 3, 3)), input_channels=2
        )
        with pytest.raises(ConfigError):
            pr_analyze(spec)

    def test_paired_convs_must_share_filter_size(self):
        spec = NetworkSpec(layers=(Conv(4, 1, 3), RELU, Conv(1, 4, 5)))
        with pytest.raises(ConfigError, match="paired convs must share filter size"):
            pr_analyze(spec)

    def test_references_to_a_shortcut_go_to_its_main_input(self):
        layers = (
            Conv(2, 1, 3), RELU, Conv(1, 2, 3),       # 0-2: a rectified pair
            SkipAdd(from_=-1, residual=True),          # 3: shortcut, dropped
            Conv(2, 1, 3, source=3), RELU, Conv(1, 2, 3),  # 4-6: names it as source
            SkipAdd(from_=3),                          # 7: and as from_
        )
        net = ideal_instantiation(NetworkSpec(layers=layers, residual=True))
        ideal = net.spec.layers
        assert not net.spec.residual and len(ideal) == 7
        assert not any(isinstance(layer, SkipAdd) and layer.residual for layer in ideal)
        assert ideal[3] == Conv(2, 1, 1, bias=False, source=2)
        assert ideal[6] == SkipAdd(from_=2, source=5)
        assert all(bias is None for _, bias in net.weights)
        x = np.random.default_rng(8).normal(size=(1, 1, 8, 8))
        np.testing.assert_allclose(net.run(x), 2 * x, atol=1e-12)  # two reconstructing paths


def report_hex(spec):
    report = pr_analyze(spec)
    floats = (report.gain_dc, report.gain_nyquist, report.max_recon_err)
    return report.is_perfect, tuple(float.hex(v) for v in floats)


def report_or_error(spec):
    try:
        return report_hex(spec)
    except ConfigError as exc:
        return str(exc)


# The specs of TestLiveWidths whose live prefixes do not close: a skip of
# unequal prefixes, an up-sampling that splits one, a decoder that reads
# another, and an encoder that its declared widths cannot host.
FALLBACKS = (
    (Conv(2, 1), RELU, Conv(2, 1, source=-1), SkipAdd(from_=1),
     Conv(1, 2), Conv(1, 2, source=1), SkipAdd(from_=4)),
    (Conv(4, 1), Resample("up", "dwt_full"), Resample("down", "dwt_full"), Conv(1, 4)),
    (Conv(4, 1), RELU, Conv(8, 4), Conv(4, 8), Conv(1, 4), Conv(8, 1),
     Conv(4, 8), Conv(1, 4), Conv(1, 8, source=5), SkipAdd(from_=7)),
    (Conv(2, 1), RELU, Conv(2, 1, source=-1), SkipAdd(from_=1),
     Conv(3, 2), RELU, Conv(2, 3), Conv(1, 2), Conv(1, 2, source=1), SkipAdd(from_=8)),
)


class TestLiveWidths:
    """The ideal network carries only the channels its impulse banks can
    make nonzero."""

    def test_wide_unet_runs_at_its_live_widths(self):
        net = ideal_instantiation(build_unet(64, 128))
        assert [k.shape[:2] for k, _ in net.weights] == [(2, 1), (1, 2), (4, 2), (2, 4), (1, 2)]
        convs = [layer for layer in net.spec.layers if isinstance(layer, Conv)]
        assert [(c.out_ch, c.in_ch) for c in convs] == [(2, 1), (1, 2), (4, 2), (2, 4), (1, 2)]

    def test_skip_of_unequal_live_prefixes_keeps_declared_widths(self):
        # layer 3 joins a rectified encoder's two live channels with a plain
        # encoder's one, so no channel can be dropped
        layers = (
            Conv(2, 1), RELU, Conv(2, 1, source=-1), SkipAdd(from_=1),
            Conv(1, 2), Conv(1, 2, source=1), SkipAdd(from_=4),
        )
        spec = NetworkSpec(layers=layers)
        net = ideal_instantiation(spec)
        assert [k.shape[:2] for k, _ in net.weights] == [(2, 1), (2, 1), (1, 2), (1, 2)]
        x = np.random.default_rng(9).normal(size=(1, 1, 8, 8))
        assert net.run(x).tobytes() == (x + (x + np.maximum(x, 0.0))).tobytes()
        report = pr_analyze(spec)
        assert not report.is_perfect
        assert (report.gain_dc, report.gain_nyquist) == (3.0, 2.5)

    @pytest.mark.parametrize(
        "layers, verdict",
        [
            # one live channel of four cannot split into the four dwt_full bands
            ((Conv(4, 1), Resample("up", "dwt_full"), Resample("down", "dwt_full"), Conv(1, 4)),
             (True, 1.0, 1.0)),
            # the decoder at layer 6 pairs with the encoder at layer 2 (two live
            # channels) but reads the plain encoder at layer 5 (one)
            ((Conv(4, 1), RELU, Conv(8, 4), Conv(4, 8), Conv(1, 4), Conv(8, 1),
              Conv(4, 8), Conv(1, 4), Conv(1, 8, source=5), SkipAdd(from_=7)),
             (False, 2.0, 2.0)),
        ],
        ids=["up-sampling-splits-a-prefix", "decoder-reads-another-prefix"],
    )
    def test_other_unclosed_prefixes_keep_declared_widths(self, layers, verdict):
        spec = NetworkSpec(layers=layers)
        net = ideal_instantiation(spec)
        declared = [(c.out_ch, c.in_ch) for c in layers if isinstance(c, Conv)]
        assert [k.shape[:2] for k, _ in net.weights] == declared
        report = pr_analyze(spec)
        assert (report.is_perfect, report.gain_dc, report.gain_nyquist) == pytest.approx(verdict)

    def test_an_encoder_its_declared_widths_cannot_host_still_raises(self):
        # the skip at layer 3 sends the walk to declared widths before the
        # encoder at layer 4 that three channels cannot host
        layers = (
            Conv(2, 1), RELU, Conv(2, 1, source=-1), SkipAdd(from_=1),
            Conv(3, 2), RELU, Conv(2, 3), Conv(1, 2), Conv(1, 2, source=1), SkipAdd(from_=8),
        )
        with pytest.raises(ConfigError, match="^3 output channels cannot host 2 signed"):
            ideal_instantiation(NetworkSpec(layers=layers))

    @pytest.mark.parametrize(
        "narrow, wide",
        [
            (build_lwfsn(2), build_lwfsn(128)),
            (build_rlwfsn(2, 5), build_rlwfsn(128, 5)),
            (build_red(2, 4), build_red(64, 128)),
            (build_unet(2, 4), build_unet(64, 128)),
            (build_unet(2, 8, 5, residual=True), build_unet(32, 128, 5, residual=True)),
            (build_toy_spec((2, 4, 8)), build_toy_spec((8, 16, 32))),
        ],
        ids=["lwfsn", "rlwfsn", "red", "unet", "unet-residual", "toy"],
    )
    def test_report_does_not_depend_on_the_declared_width(self, narrow, wide):
        assert report_hex(narrow) == report_hex(wide)

    def test_live_widths_give_the_declared_widths_report(self, monkeypatch):
        """Over the golden pool and the fall-back shapes above, the live
        network reports what the declared one does, byte for byte, and
        raises the same messages."""
        specs = dict(pool())
        specs.update((f"fall-back {i}", NetworkSpec(layers=layers)) for i, layers in enumerate(FALLBACKS))
        live = {key: report_or_error(spec) for key, spec in specs.items()}
        declared_walks = []

        def declared(spec):
            declared_walks.append(spec)
            return analysis._ideal_walk(spec, *analysis._pair_convs(spec), live=False)

        monkeypatch.setattr(analysis, "ideal_instantiation", declared)
        assert {key: report_or_error(spec) for key, spec in specs.items()} == live
        assert len(declared_walks) == len(specs) == 130

    def test_probes_are_one_read_only_batch_per_channel_count(self):
        batch, images = analysis._probes(2)
        assert analysis._probes(2)[0] is batch
        assert batch.shape == (2, 5, 16, 16) and images.shape == (5, 2, 1, 16, 16)
        assert not batch.flags.writeable and not images.flags.writeable
        rng = np.random.default_rng(analysis.PR_SEED)
        for column in range(analysis.PR_PROBES):
            assert images[column].tobytes() == rng.normal(size=(2, 1, 16, 16)).tobytes()
        assert np.all(images[3] == 1.0)
        rows, cols = np.indices((16, 16))
        assert np.all(images[4] == np.where((rows + cols) % 2, -1.0, 1.0))
        for column in range(5):
            assert np.array_equal(batch[:, column, None], images[column])


class TestEquivalentFilter:
    def test_delta_pair(self):
        delta = tensor.signed_impulse_bank(1, (1.0,), size=3)
        spec = NetworkSpec(layers=(Conv(1, 1, 3, bias=False), Conv(1, 1, 3, bias=False)))
        net = Network(spec, [(delta, None), (delta, None)])
        k = equivalent_filter(net)
        n = k.shape[2]
        np.testing.assert_allclose(k, tensor.identity_image(1, n), atol=1e-12)

    def test_single_conv_pair_matches_kernel_composition(self):
        rng = np.random.default_rng(3)
        enc = rng.normal(size=(3, 1, 3, 3))
        dec = rng.normal(size=(1, 3, 3, 3))
        spec = NetworkSpec(layers=(Conv(3, 1, 3, bias=False), Conv(1, 3, 3, bias=False)))
        net = Network(spec, [(enc, None), (dec, None)])
        k = equivalent_filter(net, grid=8)
        want = conv2d_reference(dec, conv2d_reference(enc, tensor.identity_image(1, 8)))
        assert np.max(np.abs(k - want)) < 1e-12

    def test_pct_pair_collapses_to_scaled_identity(self):
        pct = phase_complement(haar_dwt())
        spec = NetworkSpec(layers=(Conv(8, 1, 3, bias=False), RELU, Conv(1, 8, 3, bias=False)))
        net = Network(spec, [(pct.forward, None), (tensor.tensor_transpose(pct.inverse), None)])
        k = equivalent_filter(net, grid=8)
        np.testing.assert_allclose(k, tensor.identity_image(1, 8), atol=1e-9)

    def test_identity_activation_before_rectifier_collapses(self):
        pct = phase_complement(haar_dwt())
        identity = Activation(ActivationSpec("soft_shrink", t=0.0))
        layers = (Conv(8, 1, 3, bias=False), identity, RELU, Conv(1, 8, 3, bias=False))
        weights = [(pct.forward, None), (tensor.tensor_transpose(pct.inverse), None)]
        k = equivalent_filter(Network(NetworkSpec(layers=layers), weights), grid=8)
        np.testing.assert_allclose(k, tensor.identity_image(1, 8), atol=1e-9)

    @pytest.mark.parametrize("tail", ["identity-before-decoder", "rectifier-after-pair"])
    def test_refuses_rectifier_without_adjacent_pair(self, tail):
        pct = phase_complement(haar_dwt())
        enc, dec = (pct.forward, None), (tensor.tensor_transpose(pct.inverse), None)
        identity = Activation(ActivationSpec("soft_clip", t=np.inf))
        if tail == "identity-before-decoder":
            layers = (Conv(8, 1, 3, bias=False), RELU, identity, Conv(1, 8, 3, bias=False))
            weights = [enc, dec]
        else:
            delta = tensor.signed_impulse_bank(1, (1.0,), size=3)
            layers = (Conv(8, 1, 3, bias=False), RELU, Conv(1, 8, 3, bias=False), RELU,
                      Conv(1, 1, 3, bias=False))
            weights = [enc, dec, (delta, None)]
        net = Network(NetworkSpec(layers=layers), weights)
        with pytest.raises(ConfigError, match="'relu_bias' is not provably an identity"):
            equivalent_filter(net, grid=8)

    def test_refuses_unprotected_relu(self):
        rng = np.random.default_rng(4)
        spec = NetworkSpec(layers=(Conv(2, 1, 3, bias=False), RELU, Conv(1, 2, 3, bias=False)))
        net = Network(
            spec, [(rng.normal(size=(2, 1, 3, 3)), None), (rng.normal(size=(1, 2, 3, 3)), None)]
        )
        with pytest.raises(ConfigError, match="identity"):
            equivalent_filter(net)

    def test_refuses_resampling(self):
        net = ideal_instantiation(build_lwfsn(4))
        with pytest.raises(ConfigError):
            equivalent_filter(net)

    def test_refuses_nonzero_bias(self):
        delta = tensor.signed_impulse_bank(1, (1.0,), size=3)
        spec = NetworkSpec(layers=(Conv(1, 1, 3, bias=True), Conv(1, 1, 3, bias=False)))
        net = Network(spec, [(delta, np.array([0.5])), (delta, None)])
        with pytest.raises(ConfigError, match="bias"):
            equivalent_filter(net)


class TestFlops:
    def test_worked_values(self):
        assert count_flops(build_unet(64, 128), 512, 512) == 10_116_661_248
        assert count_flops(build_red(4, 8), 16, 16) == 165_888
        assert count_flops(build_lwfsn(64), 128, 128) == 18_874_368

    def test_unet_random_configs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c0, c1 = int(rng.integers(1, 64)), int(rng.integers(1, 128))
            n_r, n_c = 2 * int(rng.integers(2, 128)), 2 * int(rng.integers(2, 128))
            n_f = int(rng.choice([1, 3, 5, 7]))
            assert count_flops(build_unet(c0, c1, n_f), n_r, n_c) == flops_unet(
                c0, c1, n_r, n_c, n_f
            )

    def test_red_random_configs(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            c0, c1 = int(rng.integers(1, 64)), int(rng.integers(1, 128))
            n_r, n_c = int(rng.integers(2, 256)), int(rng.integers(2, 256))
            n_f = int(rng.choice([1, 3, 5, 7]))
            assert count_flops(build_red(c0, c1, n_f), n_r, n_c) == flops_red(
                c0, c1, n_r, n_c, n_f
            )

    def test_lwfsn_random_configs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            c0 = int(rng.integers(1, 128))
            n_r, n_c = 2 * int(rng.integers(2, 128)), 2 * int(rng.integers(2, 128))
            n_f = int(rng.choice([1, 3, 5, 7]))
            assert count_flops(build_lwfsn(c0, n_f), n_r, n_c) == flops_lwfsn(c0, n_r, n_c, n_f)

    def test_rlwfsn_costs_like_lwfsn(self):
        # same trainable convs, so the same closed form applies
        assert count_flops(build_rlwfsn(32), 64, 64) == flops_lwfsn(32, 64, 64, 3)

    def test_resolution_must_divide(self):
        from fdl.errors import ShapeError

        with pytest.raises(ShapeError):
            count_flops(build_unet(4, 8), 15, 16)
