"""Gradient correctness, optimizer behavior, initialization."""

import weakref

import numpy as np
import pytest

from fdl import autodiff as ad
from fdl import tensor
from fdl.activations import ActivationSpec
from fdl.errors import ConfigError, ShapeError
from fdl.network import (
    Conv,
    Network,
    NetworkSpec,
    Resample,
    SkipAdd,
    build_lwfsn,
    build_red,
    build_unet,
    evaluate,
)
from fdl.optim import Adam, xavier_bound, xavier_uniform_init
from fdl.training import build_toy


def check_gradients(build, values, rng, n_probes=20, eps=1e-5, rtol=1e-4):
    """Compare back-propagated gradients with central finite differences
    along random unit directions."""
    params = [ad.Parameter(v.copy()) for v in values]
    loss = build(params)
    ad.backward(loss)
    grads = [p.grad.copy() for p in params]

    def loss_at(vs):
        return float(build([ad.Parameter(v) for v in vs]).value)

    for _ in range(n_probes):
        i = int(rng.integers(len(values)))
        d = rng.normal(size=values[i].shape)
        d /= np.linalg.norm(d.ravel())
        plus = [v.copy() for v in values]
        minus = [v.copy() for v in values]
        plus[i] += eps * d
        minus[i] -= eps * d
        fd = (loss_at(plus) - loss_at(minus)) / (2.0 * eps)
        an = float(np.vdot(grads[i], d))
        rel = abs(fd - an) / max(1e-8, abs(fd), abs(an))
        assert rel < rtol, f"probe on arg {i}: fd={fd:.6e} analytic={an:.6e} rel={rel:.2e}"


def away_from_kinks(rng, shape, thresholds, margin=5e-3):
    """Sample values whose distance to every kink exceeds the margin."""
    z = rng.normal(scale=1.5, size=shape)
    for t in thresholds:
        bad = np.abs(np.abs(z) - t) < margin
        while np.any(bad):
            z[bad] = rng.normal(scale=1.5, size=int(bad.sum()))
            bad = np.abs(np.abs(z) - t) < margin
    return z


class TestGradCheck:
    def test_conv_kernel_gradient(self):
        rng = np.random.default_rng(0)
        x = ad.constant(rng.normal(size=(1, 1, 6, 6)))
        target = ad.constant(rng.normal(size=(1, 1, 6, 6)))
        check_gradients(
            lambda ps: ad.mse(ad.conv(ps[0], x), target),
            [rng.normal(size=(1, 1, 3, 3))],
            rng,
        )

    def test_conv_signal_gradient(self):
        rng = np.random.default_rng(1)
        k = ad.constant(rng.normal(size=(3, 2, 3, 3)))
        target = ad.constant(rng.normal(size=(3, 1, 6, 6)))
        check_gradients(
            lambda ps: ad.mse(ad.conv(k, ps[0]), target),
            [rng.normal(size=(2, 1, 6, 6))],
            rng,
        )

    def test_pointwise_kernel_gradient_fills_every_tap(self):
        # ad.conv keeps the dense route for a kernel with only center taps,
        # as pct_delta installs: its zero taps still get their gradient.
        rng = np.random.default_rng(8)
        bank = tensor.signed_impulse_bank(2, (1.0, -1.0), size=3)
        for kernel in (bank, tensor.tensor_transpose(bank)):
            x = ad.constant(rng.normal(size=(kernel.shape[1], 2, 6, 6)))
            target = ad.constant(rng.normal(size=(kernel.shape[0], 2, 6, 6)))
            param = ad.Parameter(kernel.copy())
            ad.backward(ad.mse(ad.conv(param, x), target))
            eps = 1e-5
            for index in np.ndindex(kernel.shape):
                if index[2:] == (1, 1):
                    continue
                plus, minus = kernel.copy(), kernel.copy()
                plus[index] += eps
                minus[index] -= eps
                fd = float(ad.mse(ad.conv(ad.constant(plus), x), target).value)
                fd -= float(ad.mse(ad.conv(ad.constant(minus), x), target).value)
                fd /= 2.0 * eps
                assert param.grad[index] != 0.0
                assert abs(param.grad[index] - fd) < 1e-6 * max(1e-8, abs(fd))

    def test_transpose_gradient(self):
        rng = np.random.default_rng(2)
        x = ad.constant(rng.normal(size=(3, 1, 6, 6)))
        target = ad.constant(rng.normal(size=(2, 1, 6, 6)))
        check_gradients(
            lambda ps: ad.mse(ad.conv(ad.transpose(ps[0]), x), target),
            [rng.normal(size=(3, 2, 3, 3))],
            rng,
        )

    def test_resampling_gradients(self):
        # plain resampling: the bank ops with the one-band unit filter
        rng = np.random.default_rng(3)
        unit = np.ones((1, 1, 1, 1))
        t_down = ad.constant(rng.normal(size=(2, 1, 3, 3)))
        t_up = ad.constant(rng.normal(size=(2, 1, 12, 12)))
        check_gradients(
            lambda ps: ad.mse(ad.bank_down(unit, ps[0]), t_down),
            [rng.normal(size=(2, 1, 6, 6))],
            rng,
        )
        check_gradients(
            lambda ps: ad.mse(ad.bank_up(unit, ps[0]), t_up),
            [rng.normal(size=(2, 1, 6, 6))],
            rng,
        )

    def test_arithmetic_gradients(self):
        rng = np.random.default_rng(4)
        target = ad.constant(rng.normal(size=(2, 1, 4, 4)))
        shapes = [(2, 1, 4, 4), (2, 1, 4, 4)]
        check_gradients(
            lambda ps: ad.mse(ad.add(ps[0], ps[1]), target),
            [rng.normal(size=s) for s in shapes],
            rng,
        )
        check_gradients(
            lambda ps: ad.mse(ad.sub(ps[0], ps[1]), target),
            [rng.normal(size=s) for s in shapes],
            rng,
        )

    def test_bias_gradient(self):
        # the bias parent of ad.conv, with no activation after it
        rng = np.random.default_rng(5)
        k = ad.constant(rng.normal(size=(3, 2, 3, 3)))
        x = ad.constant(rng.normal(size=(2, 1, 4, 4)))
        target = ad.constant(rng.normal(size=(3, 1, 4, 4)))
        check_gradients(
            lambda ps: ad.mse(ad.conv(k, x, ps[0]), target),
            [rng.normal(size=(3,))],
            rng,
        )

    @pytest.mark.parametrize(
        "spec",
        [
            ActivationSpec("relu_bias", t=0.4),
            ActivationSpec("soft_shrink", t=0.6),
            ActivationSpec("soft_clip", t=0.6),
            ActivationSpec("garrote", t=0.5),
            ActivationSpec("dog_shrink", t=0.8, p=2),
            ActivationSpec("dog_clip", t=0.8, p=4),
            ActivationSpec(
                "let",
                members=(
                    (0.4, ActivationSpec("soft_shrink", t=0.3)),
                    (0.6, ActivationSpec("garrote", t=0.7)),
                ),
            ),
        ],
        ids=lambda s: s.kind,
    )
    def test_activation_gradients(self, spec):
        rng = np.random.default_rng(6)
        thresholds = {float(spec.t) if np.isscalar(spec.t) else 0.0}
        for _, member in spec.members:
            thresholds.add(float(member.t))
        z = away_from_kinks(rng, (2, 1, 5, 5), sorted(thresholds))
        # pad to even spatial? operations here never resample, size is free
        target = ad.constant(rng.normal(size=z.shape))
        check_gradients(lambda ps: ad.mse(ad.act(ps[0], spec), target), [z], rng)

    def test_mse_gradients_both_sides(self):
        rng = np.random.default_rng(7)
        shapes = [(1, 1, 4, 4), (1, 1, 4, 4)]
        check_gradients(
            lambda ps: ad.mse(ps[0], ps[1]),
            [rng.normal(size=s) for s in shapes],
            rng,
        )

    def test_disconnected_parameter_gets_zero_gradient(self):
        rng = np.random.default_rng(8)
        used = ad.Parameter(rng.normal(size=(1, 1, 4, 4)))
        unused = ad.Parameter(rng.normal(size=(1, 1, 4, 4)))
        loss = ad.mse(used, ad.constant(np.zeros((1, 1, 4, 4))))
        ad.backward(loss)
        assert np.max(np.abs(used.grad)) > 0
        np.testing.assert_array_equal(unused.grad, np.zeros_like(unused.value))

    def test_shared_gradients_are_not_aliased(self, monkeypatch):
        # out = (u + w) + u: u's two gradients and w's one all start as the
        # same upstream array; none may be summed into another in place
        received = []
        accumulate = ad.Node._accumulate

        def recording(node, g):
            received.append(g)
            accumulate(node, g)

        monkeypatch.setattr(ad.Node, "_accumulate", recording)
        p = ad.Parameter(np.arange(4.0).reshape(1, 1, 2, 2))
        q = ad.Parameter(np.ones((1, 1, 2, 2)))
        u, w = ad.transpose(p), ad.transpose(q)
        inner = ad.add(u, w)
        ad.backward(ad.mse(ad.add(inner, u), ad.constant(np.zeros((1, 1, 2, 2)))))
        # mse -> outer add; outer add -> inner, u; inner -> u, w; u -> p; w -> q
        assert len(received) == 7
        for i, a in enumerate(received):
            for b in received[i + 1 :]:
                assert not np.shares_memory(a, b)
        np.testing.assert_array_equal(p.grad, 2.0 * q.grad)

    def test_relu_subgradient_zero_at_kink(self):
        x = ad.Parameter(np.zeros((1, 1, 2, 2)))
        relu = ad.act(x, ActivationSpec("relu_bias", t=0.0))
        loss = ad.mse(relu, ad.constant(np.ones((1, 1, 2, 2))))
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, np.zeros_like(x.value))

    def test_non_scalar_loss_rejected(self):
        x = ad.Parameter(np.ones((1, 1, 2, 2)))
        with pytest.raises(ConfigError):
            ad.backward(ad.act(x, ActivationSpec("relu_bias", t=0.0)))

    def test_second_backward_on_a_consumed_graph_raises(self):
        k = ad.Parameter(np.ones((2, 1, 3, 3)))
        loss = ad.mse(ad.conv(k, ad.constant(np.ones((1, 1, 4, 4)))), ad.constant(np.zeros((2, 1, 4, 4))))
        ad.backward(loss)
        with pytest.raises(ConfigError, match="consumed"):
            ad.backward(loss)

    def test_backward_frees_closure_data_while_loss_is_referenced(self, monkeypatch):
        held = []  # weak references to every stack and rectifier mask
        stack_rows = tensor._stack_rows
        derivative = ad.activation_derivative

        def stacks(*args, **kwargs):
            out = stack_rows(*args, **kwargs)
            held.append(weakref.ref(out))
            return out

        def masks(*args):
            out = derivative(*args)
            held.append(weakref.ref(out))
            return out

        monkeypatch.setattr(tensor, "_stack_rows", stacks)
        monkeypatch.setattr(ad, "activation_derivative", masks)
        model = build_toy(seed=1)
        clean = np.random.default_rng(1).uniform(size=(1, 1, 16, 16))
        loss = ad.mse(model.forward(clean), ad.constant(clean))
        # three forward stacks (expanding convs) and six masks
        assert len(held) == 9 and all(ref() is not None for ref in held)
        ad.backward(loss)
        # plus three backward stacks (contracting convs)
        assert len(held) == 12
        assert [ref for ref in held if ref() is not None] == []
        assert np.isfinite(loss.value)  # values stay

    def test_backward_deterministic(self):
        rng = np.random.default_rng(9)
        kv = rng.normal(size=(2, 1, 3, 3))
        xv = rng.normal(size=(1, 1, 6, 6))
        grads = []
        for _ in range(2):
            k = ad.Parameter(kv.copy())
            loss = ad.mse(ad.conv(k, ad.constant(xv)), ad.constant(np.zeros((2, 1, 6, 6))))
            ad.backward(loss)
            grads.append(k.grad.copy())
        assert grads[0].tobytes() == grads[1].tobytes()


# One spec per activation family.  The kernels of TestFusedConv have 3
# output rows, so the per-channel threshold has 3 entries.
FUSED_SPECS = {
    "relu0": ActivationSpec("relu_bias", t=0.0),
    "relu": ActivationSpec("relu_bias", t=0.4),
    "relu_per_channel": ActivationSpec("relu_bias", t=(0.2, 0.5, 0.9)),
    "soft_shrink": ActivationSpec("soft_shrink", t=0.6),
    "garrote": ActivationSpec("garrote", t=0.5),
    "soft_clip": ActivationSpec("soft_clip", t=0.6),
    "dog_shrink": ActivationSpec("dog_shrink", t=0.8, p=2),
    "dog_clip": ActivationSpec("dog_clip", t=0.8, p=4),
    "let": ActivationSpec(
        "let",
        members=(
            (0.4, ActivationSpec("soft_shrink", t=0.3)),
            (0.6, ActivationSpec("garrote", t=0.7)),
        ),
    ),
}
FUSED_SHAPES = {"expanding": (3, 2, 3, 3), "contracting": (3, 4, 3, 3)}


def kink_distance(spec, z):
    """Smallest distance of any entry of ``z`` to a threshold of ``spec``
    (at ``z`` or at ``|z|``), per-channel thresholds taken by row."""
    members = [m for _, m in spec.members] or [spec]
    dist = np.inf
    for member in members:
        t = np.asarray(member.t, dtype=float).reshape(-1, 1, 1, 1)
        dist = min(dist, np.min(np.abs(z - t)), np.min(np.abs(np.abs(z) - t)))
    return dist


class TestFusedConv:
    """``ad.conv`` carrying a bias and an activation, as one node."""

    @staticmethod
    def operands(spec, shape, with_bias, seed):
        """Kernel, signal and bias (or None) values, drawn until every
        pre-activation value lies 1e-3 or more from a kink, and the rng."""
        rng = np.random.default_rng(seed)
        while True:
            k = rng.normal(scale=0.4, size=shape)
            x = rng.normal(size=(shape[1], 2, 5, 5))
            b = rng.normal(scale=0.3, size=shape[0]) if with_bias else None
            z = tensor.conv2d(k, x) + (0.0 if b is None else b[:, None, None, None])
            if kink_distance(spec, z) >= 1e-3:
                return [v for v in (k, x, b) if v is not None], rng

    @pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no_bias"])
    @pytest.mark.parametrize("shape", sorted(FUSED_SHAPES))
    @pytest.mark.parametrize("spec", sorted(FUSED_SPECS))
    def test_gradients(self, spec, shape, with_bias):
        spec, shape = FUSED_SPECS[spec], FUSED_SHAPES[shape]
        values, rng = self.operands(spec, shape, with_bias, seed=20)
        target = ad.constant(rng.normal(size=(shape[0], 2, 5, 5)))
        check_gradients(
            lambda ps: ad.mse(ad.conv(*ps[:2], ps[2] if with_bias else None, spec), target),
            values,
            rng,
        )

    @pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no_bias"])
    @pytest.mark.parametrize("shape", sorted(FUSED_SHAPES))
    @pytest.mark.parametrize("spec", sorted(FUSED_SPECS))
    def test_bitwise_equal_to_separate_act_node(self, spec, shape, with_bias):
        spec, shape = FUSED_SPECS[spec], FUSED_SHAPES[shape]
        values, rng = self.operands(spec, shape, with_bias, seed=21)
        target = ad.constant(rng.normal(size=(shape[0], 2, 5, 5)))
        runs = []
        for fused in (True, False):
            params = [ad.Parameter(v.copy()) for v in values]
            bias = params[2] if with_bias else None
            if fused:
                out = ad.conv(params[0], params[1], bias, spec)
            else:
                out = ad.act(ad.conv(params[0], params[1], bias), spec)
            ad.backward(ad.mse(out, target))
            runs.append([out.value.tobytes()] + [p.grad.tobytes() for p in params])
        assert runs[0] == runs[1]

    def test_bias_shape_checked(self):
        k = ad.Parameter(np.ones((2, 1, 3, 3)))
        x = ad.constant(np.ones((1, 1, 4, 4)))
        with pytest.raises(ShapeError, match="bias"):
            ad.conv(k, x, ad.Parameter(np.ones(3)))

    def test_reference_forward_keeps_one_array_per_conv(self):
        # besides the input and target constants, the parameters and the
        # transposed decoder kernels, the graph holds one activation-sized
        # value per conv: its biased, activated output
        model = build_toy(seed=1)
        clean = np.random.default_rng(1).uniform(size=(1, 1, 64, 64))
        loss = ad.mse(model.forward(clean), ad.constant(clean))
        nodes, todo = {}, [loss]
        while todo:
            node = todo.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                todo.extend(node.parents)
        inner = [node.value for node in nodes.values() if node.parents]
        activations = [v for v in inner if v.ndim == 4 and v.shape[2:] == (64, 64)]
        kernels = [v for v in inner if v.ndim == 4 and v.shape[2:] == (3, 3)]
        convs = sum(isinstance(layer, Conv) for layer in model.spec.layers)
        assert convs == 6
        assert len(activations) == convs and len(kernels) == 3
        assert len(inner) == convs + len(kernels) + 1  # and the scalar loss


class TestPruning:
    """No VJP is evaluated toward the input image or frozen parameters."""

    def test_reference_model_backward(self, monkeypatch):
        calls = []
        grad_signal = tensor._conv_grad_signal

        def counted(kernel, grad, **kwargs):
            calls.append(kernel.shape)
            return grad_signal(kernel, grad, **kwargs)

        monkeypatch.setattr(tensor, "_conv_grad_signal", counted)
        rng = np.random.default_rng(0)
        model = build_toy(seed=1, bias_mode="zero_fixed")
        clean = rng.uniform(size=(1, 1, 16, 16))
        noisy = clean + rng.normal(scale=0.1, size=clean.shape)
        ad.backward(ad.mse(model.forward(noisy), ad.constant(clean)))
        # six convs; the first one's signal is the input image
        assert len(calls) == 5
        assert (6, 1, 3, 3) not in calls
        for bias in model.enc_biases + model.dec_biases:
            assert bias.grad.tobytes() == np.zeros_like(bias.value).tobytes()
        for kernel in model.enc_kernels + model.dec_kernels:
            assert np.max(np.abs(kernel.grad)) > 0

    def test_each_conv_stacks_its_narrow_side_once(self, monkeypatch):
        rows = []
        stack_rows = tensor._stack_rows

        def counted(signal, kv, kh, window, correlate=False):
            rows.append((signal.shape[0], correlate))
            return stack_rows(signal, kv, kh, window, correlate)

        monkeypatch.setattr(tensor, "_stack_rows", counted)
        model = build_toy(seed=1)
        clean = np.random.default_rng(1).uniform(size=(1, 1, 16, 16))
        ad.backward(ad.mse(model.forward(clean), ad.constant(clean)))
        # expanding convs stack their input in the forward, contracting
        # convs their upstream gradient in the backward
        assert sorted(rows) == [(c, side) for c in (1, 6, 12) for side in (False, True)]

    def test_constant_only_graph_computes_nothing(self):
        x = ad.constant(np.ones((1, 1, 2, 2)))
        frozen = ad.Parameter(np.ones((1, 1, 1, 1)), trainable=False)
        loss = ad.mse(ad.conv(frozen, x), ad.constant(np.zeros((1, 1, 2, 2))))
        assert not loss.needs_grad
        ad.backward(loss)
        assert x.grad is None
        np.testing.assert_array_equal(frozen.grad, 0.0)


PLAIN_SPEC = NetworkSpec(
    layers=(
        Conv(2, 1, 3),
        Resample("down", "plain"),
        Conv(2, 2, 3),
        Resample("up", "plain"),
        SkipAdd(from_=0),
        Conv(1, 2, 3, bias=False),
    ),
    name="plain",
)


class TestBankGradients:
    """``ad.bank_down`` / ``ad.bank_up`` inside whole resampling networks."""

    @staticmethod
    def pairs(spec, params):
        """``evaluate``'s weight pairs: the next parameters for each Conv;
        the resampling filters come from the spec."""
        it = iter(params)
        convs = [layer for layer in spec.layers if isinstance(layer, Conv)]
        return [(next(it), next(it) if layer.bias else None) for layer in convs]

    @pytest.mark.parametrize(
        "spec", [build_lwfsn(4), build_unet(2, 4), PLAIN_SPEC], ids=lambda s: s.name
    )
    def test_gradients_and_bitwise_run(self, spec):
        rng = np.random.default_rng(12)
        values = []
        for layer in spec.layers:
            if isinstance(layer, Conv):
                values.append(rng.normal(scale=0.5, size=(layer.out_ch, layer.in_ch, layer.n_f, layer.n_f)))
                if layer.bias:
                    values.append(rng.normal(scale=0.1, size=layer.out_ch))
        net = Network(spec, self.pairs(spec, values))
        x = rng.normal(size=(1, 1, 8, 8))
        target = ad.constant(rng.normal(size=(1, 1, 8, 8)))
        check_gradients(
            lambda ps: ad.mse(evaluate(spec, self.pairs(spec, ps), ad.constant(x), ad), target),
            values,
            rng,
        )
        params = [ad.Parameter(v) for v in values]
        out = evaluate(spec, self.pairs(spec, params), ad.constant(x), ad)
        assert out.value.tobytes() == net.run(x).tobytes()

    @pytest.mark.parametrize("direction", ["down", "up"])
    def test_signal_gradient(self, direction):
        rng = np.random.default_rng(13)
        filters = rng.normal(size=(3, 1, 3, 3))
        op = ad.bank_down if direction == "down" else ad.bank_up
        shape, out_shape = ((2, 2, 6, 6), (6, 2, 3, 3)) if direction == "down" else ((6, 2, 3, 3), (2, 2, 6, 6))
        target = ad.constant(rng.normal(size=out_shape))
        check_gradients(lambda ps: ad.mse(op(filters, ps[0]), target), [rng.normal(size=shape)], rng)


class TestAdjointIdentity:
    def test_conv_backward_is_exact_adjoint(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            k = rng.normal(size=(3, 2, 3, 3))
            x = rng.normal(size=(2, 1, 8, 8))
            y = rng.normal(size=(3, 1, 8, 8))
            lhs = np.vdot(tensor.conv2d(k, x), y)
            rhs = np.vdot(x, tensor.conv2d_adjoint(k, y))
            assert abs(lhs - rhs) < 1e-10


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = ad.Parameter(np.array([1.0, -2.0, 3.0]))
        opt = Adam([p])
        before = p.value.copy()
        opt.step(1e-2)
        np.testing.assert_array_equal(p.value, before)

    def test_moves_against_constant_gradient(self):
        p = ad.Parameter(np.array([0.0]))
        opt = Adam([p])
        for _ in range(50):
            p.grad[...] = 2.5
            opt.step(1e-2)
        assert p.value[0] < 0.0

    def test_quadratic_bowl_converges(self):
        p = ad.Parameter(np.full(4, 0.5))
        opt = Adam([p])
        target = ad.constant(np.zeros(4))
        initial = float(ad.mse(p, target).value)
        for _ in range(200):
            opt.zero_grad()
            loss = ad.mse(p, target)
            ad.backward(loss)
            opt.step(1e-2)
        final = float(ad.mse(p, target).value)
        assert final < 1e-4 * initial

    def test_in_place_step_matches_closed_form_bitwise(self):
        rng = np.random.default_rng(12)
        shapes = [(6, 1, 3, 3), (6,), (24, 12, 3, 3)]
        params = [ad.Parameter(rng.normal(size=s)) for s in shapes]
        values = [p.value.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        b1, b2, eps = 0.9, 0.999, 1e-8
        opt = Adam(params)
        for t in range(1, 25):
            lr = 1e-3 * float(rng.uniform(0.1, 2.0))
            for p in params:
                p.grad[...] = rng.normal(size=p.value.shape) * 10.0 ** rng.integers(-8, 3)
            for i, p in enumerate(params):
                g = p.grad
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * g * g
                m_hat = m[i] / (1.0 - b1**t)
                v_hat = v[i] / (1.0 - b2**t)
                values[i] = values[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
            opt.step(lr)
            for i, p in enumerate(params):
                assert p.value.tobytes() == values[i].tobytes()
                assert opt.m[i].tobytes() == m[i].tobytes()
                assert opt.v[i].tobytes() == v[i].tobytes()

    def test_skips_frozen_parameters(self):
        frozen = ad.Parameter(np.ones(3), trainable=False)
        opt = Adam([frozen])
        assert opt.params == []


class TestXavier:
    def test_bounds_and_variance(self):
        shape = (10, 10, 1, 100)  # 1e5 draws
        a = xavier_bound(shape)
        sample = xavier_uniform_init(shape, np.random.default_rng(123))
        assert np.max(np.abs(sample)) <= a
        assert abs(sample.var() - a**2 / 3.0) < 0.05 * a**2 / 3.0

    def test_same_seed_same_tensor(self):
        a = xavier_uniform_init((6, 1, 3, 3), np.random.default_rng(42))
        b = xavier_uniform_init((6, 1, 3, 3), np.random.default_rng(42))
        assert a.tobytes() == b.tobytes()

    def test_fan_formula(self):
        assert xavier_bound((6, 1, 3, 3)) == pytest.approx(np.sqrt(6.0 / (9 + 54)))


class TestSpecEvaluator:
    """``evaluate`` over the autodiff op set, on a spec with skips, residual
    shortcuts and rectifiers."""

    def setup_method(self):
        self.spec = build_red(4, 8)
        self.convs = [layer for layer in self.spec.layers if isinstance(layer, Conv)]
        self.rng = np.random.default_rng(11)
        self.values = []
        for layer in self.convs:
            shape = (layer.out_ch, layer.in_ch, layer.n_f, layer.n_f)
            self.values.append(self.rng.normal(scale=0.3, size=shape))
            if layer.bias:
                self.values.append(self.rng.normal(scale=0.1, size=layer.out_ch))
        self.x = self.rng.normal(size=(1, 1, 8, 8))

    def weights(self, params):
        it = iter(params)
        return [(next(it), next(it) if layer.bias else None) for layer in self.convs]

    def test_gradients(self):
        x = ad.constant(self.x)
        target = ad.constant(self.rng.normal(size=(1, 1, 8, 8)))
        check_gradients(
            lambda ps: ad.mse(evaluate(self.spec, self.weights(ps), x, ad), target),
            self.values,
            self.rng,
        )

    def test_matches_network_run_bitwise(self):
        params = [ad.Parameter(v) for v in self.values]
        out = evaluate(self.spec, self.weights(params), ad.constant(self.x), ad)
        net = Network(self.spec, self.weights(self.values))
        assert out.value.tobytes() == net.run(self.x).tobytes()
