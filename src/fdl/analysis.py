"""Reconstruction analysis, equivalent filters, and operation counts.

The reconstruction analyzer asks a purely structural question: does a
network topology admit filters that pass every signal through unchanged?
In one pass over the spec, :func:`ideal_instantiation` binds each
encoder/decoder conv pair to ideal filters (sign duplicated impulse pairs
when a rectifier sits between them, plain impulses otherwise) and no
biases, neutralizes shrinkage and clipping thresholds, and drops identity
shortcuts.  :func:`pr_analyze` then measures reconstruction on random
signed probes plus the two frequency extremes (a constant image and a
unit checkerboard).

Operation counts follow the convention of counting multiply-accumulates
of trainable convolutions only; fixed resampling filter banks are free.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .activations import ActivationSpec
from .errors import ConfigError, ShapeError
from .framelets import check_phase_complementary
from .network import (
    Activation,
    Conv,
    Network,
    NetworkSpec,
    Resample,
    SkipAdd,
    validate_spec,
)
from .network import _main_input  # shared layer-graph helper
from .tensor import conv2d, identity_image, signed_impulse_bank, tensor_transpose

__all__ = [
    "PRReport",
    "pr_analyze",
    "equivalent_filter",
    "count_flops",
    "flops_unet",
    "flops_red",
    "flops_lwfsn",
]


@dataclass(frozen=True)
class PRReport:
    """Verdict of the perfect-reconstruction probe."""

    name: str
    is_perfect: bool
    gain_dc: float
    gain_nyquist: float
    max_recon_err: float

    def to_json(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Ideal instantiation
# ---------------------------------------------------------------------------


def _pair_convs(spec: NetworkSpec):
    """Match every contracting conv with the expanding conv it inverts.

    Walks the main input chain upstream from each decoder until it finds a
    conv with transposed channel counts, recording whether a rectifier was
    crossed (which dictates sign-duplicated filters).
    """
    layers = spec.layers
    pairs = {}
    modes = {}
    for idx, layer in enumerate(layers):
        if not isinstance(layer, Conv):
            continue
        if layer.out_ch == layer.in_ch:
            raise ConfigError(
                f"layer {idx}: cannot assign an encoder or decoder role to a "
                f"square conv ({layer.in_ch} -> {layer.out_ch})"
            )
        if layer.out_ch > layer.in_ch:
            continue
        saw_relu = False
        j = _main_input(idx, layer)
        enc = None
        while j != -1:
            node = layers[j]
            if isinstance(node, Activation) and node.spec.kind == "relu_bias":
                saw_relu = True
            if isinstance(node, Conv) and (node.out_ch, node.in_ch) == (
                layer.in_ch,
                layer.out_ch,
            ):
                enc = j
                break
            j = _main_input(j, node)
        if enc is None:
            raise ConfigError(f"layer {idx}: no matching encoder conv upstream")
        mode = "pct" if saw_relu else "frame"
        if modes.get(enc, mode) != mode:
            raise ConfigError(f"layer {enc}: decoders disagree on rectified pairing")
        if layers[enc].n_f != layer.n_f:
            raise ConfigError(f"layer {idx}: paired convs must share filter size")
        pairs[idx] = enc
        modes[enc] = mode
    for idx, layer in enumerate(layers):
        if isinstance(layer, Conv) and layer.out_ch > layer.in_ch and idx not in modes:
            raise ConfigError(f"layer {idx}: expanding conv has no decoder to invert it")
    return pairs, modes


def _neutral_activation(spec: ActivationSpec) -> ActivationSpec:
    """Activation with its suppression disabled (thresholds to the
    pass-through limit); rectifiers keep their kink."""
    if spec.kind == "relu_bias":
        return ActivationSpec("relu_bias", t=0.0)
    if spec.is_shrink:
        return ActivationSpec("soft_shrink", t=0.0)
    return ActivationSpec("soft_clip", t=np.inf)


def ideal_instantiation(spec: NetworkSpec) -> Network:
    """Bind ideal reconstruction filters to ``spec`` without its identity
    shortcuts.

    Residual additions re-inject a block's input at its output; they would
    let any network reconstruct trivially, so every residual skip (with a
    rectifier glued to a final one) and the global wrapper are dropped, and
    a reference to a dropped layer goes to that layer's main input.  Each
    conv gets its impulse bank (a decoder the transpose of its encoder's)
    and no bias; each activation is neutralized.
    """
    pairs, modes = _pair_convs(spec)
    last = len(spec.layers) - 1
    new = {-1: -1}  # old layer index -> index of the layer that stands for it
    dropped = set()
    layers, banks, weights = [], {}, []
    for idx, layer in enumerate(spec.layers):
        src = _main_input(idx, layer)
        glued = idx == last and isinstance(layer, Activation) and src == idx - 1 and src in dropped
        if glued or (isinstance(layer, SkipAdd) and layer.residual):
            new[idx] = new[src]
            dropped.add(idx)
            continue
        src, new[idx] = new[src], len(layers)
        if isinstance(layer, Conv):
            if idx in modes:
                signs = (1.0, -1.0) if modes[idx] == "pct" else (1.0,)
                banks[idx] = signed_impulse_bank(layer.in_ch, signs, layer.out_ch, layer.n_f)
                weights.append((banks[idx], None))
            else:  # a decoder: _pair_convs pairs every contracting conv
                weights.append((tensor_transpose(banks[pairs[idx]]), None))
            layer = replace(layer, bias=False)
        elif isinstance(layer, Activation):
            layer = replace(layer, spec=_neutral_activation(layer.spec))
        elif isinstance(layer, SkipAdd):
            layer = replace(layer, from_=new[layer.from_])
        layers.append(replace(layer, source=src))
    return Network(replace(spec, layers=tuple(layers), residual=False), weights)


def _checkerboard(n):
    rr, cc = np.mgrid[0:n, 0:n]
    return ((-1.0) ** (rr + cc))[None, None]


# The probe protocol of :func:`pr_analyze`: the side of the probe images,
# the number of random probes and their seed, and the largest
# reconstruction error that still counts as perfect.
PR_GRID = 16
PR_PROBES = 3
PR_SEED = 0
PR_TOL = 1e-8


def pr_analyze(spec: NetworkSpec) -> PRReport:
    """Probe a topology for perfect reconstruction under ideal filters.

    Reports the worst reconstruction error over :data:`PR_PROBES` random
    signed :data:`PR_GRID`-square images (seed :data:`PR_SEED`) plus the
    network gains at DC (constant probe) and at the Nyquist frequency
    (checkerboard probe); the verdict is perfect when that error is below
    :data:`PR_TOL`.  The probes are the columns of one input, so the
    network runs once.
    """
    net = ideal_instantiation(spec)
    rng = np.random.default_rng(PR_SEED)
    shape = (spec.input_channels, 1, PR_GRID, PR_GRID)
    probes = [rng.normal(size=shape) for _ in range(PR_PROBES)]
    flat = np.ones(shape)
    cb = np.broadcast_to(_checkerboard(PR_GRID), shape).copy()
    out = net.run(np.concatenate(probes + [flat, cb], axis=1))
    # one contiguous (channels, 1, grid, grid) output per probe
    outs = np.ascontiguousarray(out.swapaxes(0, 1))[:, :, None]

    max_err = 0.0
    for y, out_y in zip(probes, outs):
        max_err = max(max_err, float(np.max(np.abs(out_y - y))))
    gain_dc = float(np.sum(outs[PR_PROBES]) / np.sum(flat))
    gain_nyquist = float(np.vdot(outs[PR_PROBES + 1], cb) / np.vdot(cb, cb))

    return PRReport(
        name=spec.name,
        is_perfect=bool(max_err < PR_TOL),
        gain_dc=gain_dc,
        gain_nyquist=gain_nyquist,
        max_recon_err=max_err,
    )


# ---------------------------------------------------------------------------
# Equivalent filter
# ---------------------------------------------------------------------------


def _is_identity_activation(spec: ActivationSpec) -> bool:
    thresholds = [spec.t] if spec.kind != "let" else [m.t for _, m in spec.members]
    flat = []
    for t in thresholds:
        flat.extend([t] if np.isscalar(t) else list(t))
    if spec.kind in ("soft_shrink", "garrote", "dog_shrink", "let"):
        return all(t == 0.0 for t in flat)
    if spec.kind in ("soft_clip", "dog_clip"):
        return all(np.isinf(t) for t in flat)
    return False


def equivalent_filter(net: Network, grid=None) -> np.ndarray:
    """Composite impulse response of a linear(-izable) chain network.

    Only single-resolution chains qualify: resampling and skips make the
    system shift-variant or non-collapsible.  Identity-safe activations
    (zero-threshold shrinkage, infinite-threshold clipping) are dropped;
    a rectifier is accepted only when the convs around it pass
    :func:`~fdl.framelets.check_phase_complementary`, in which case the
    triple collapses to a pure gain.  Anything else raises with a diagnostic.
    """
    spec = net.spec
    if spec.residual:
        raise ConfigError("equivalent filter: remove the residual wrapper first")
    items = []  # ("conv", kernel) | ("act", spec)
    weights = iter(net.weights)
    for idx, layer in enumerate(spec.layers):
        if _main_input(idx, layer) != idx - 1:
            raise ConfigError("equivalent filter: only chain topologies are supported")
        if isinstance(layer, (SkipAdd, Resample)):
            raise ConfigError(
                f"equivalent filter: layer {idx} ({type(layer).__name__}) makes the "
                "network shift-variant or non-collapsible"
            )
        if isinstance(layer, Conv):
            kernel, bias = next(weights)
            if bias is not None and np.any(bias != 0.0):
                raise ConfigError(f"equivalent filter: layer {idx} has a nonzero bias")
            items.append(("conv", kernel))
        elif isinstance(layer, Activation):
            items.append(("act", layer.spec))

    # eliminate activations left to right: a rectifier takes the next item
    reduced = []  # ("conv", kernel) | ("scale", factor)
    rest = iter(items)
    for kind, payload in rest:
        if kind == "conv":
            reduced.append((kind, payload))
            continue
        if _is_identity_activation(payload):
            continue
        if payload.kind == "relu_bias" and np.isscalar(payload.t) and payload.t == 0.0:
            nxt = next(rest, None)
            if reduced and reduced[-1][0] == "conv" and nxt is not None and nxt[0] == "conv":
                try:
                    report = check_phase_complementary(reduced[-1][1], tensor_transpose(nxt[1]))
                except (ShapeError, ConfigError):
                    report = None
                if report is not None and report.is_pct:
                    reduced[-1] = ("scale", report.c_estimate)
                    continue
        raise ConfigError(
            f"equivalent filter: activation {payload.kind!r} is not provably "
            "an identity here (no phase-complementary pair around it)"
        )

    if grid is None:
        reach = 1 + sum(
            max(k.shape[2], k.shape[3]) // 2 for kind, k in reduced if kind == "conv"
        )
        grid = 2 * reach + 2
        grid += grid % 2
    flow = identity_image(spec.input_channels, grid)
    for kind, payload in reduced:
        if kind == "conv":
            flow = conv2d(payload, flow)
        else:
            flow = flow * payload
    return flow


# ---------------------------------------------------------------------------
# Operation counts
# ---------------------------------------------------------------------------


def count_flops(spec: NetworkSpec, n_r, n_c) -> int:
    """Multiply-accumulate count of the trainable convolutions.

    Each conv contributes ``out_ch * in_ch * rows * cols * n_f^2`` at the
    resolution level :func:`~fdl.network.validate_spec` assigns it;
    resampling layers change the level but cost nothing themselves.
    """
    nodes = validate_spec(spec)
    n_r, n_c = int(n_r), int(n_c)
    if n_r < 1 or n_c < 1:
        raise ConfigError(f"image size must be positive, got {n_r}x{n_c}")
    factor = 2 ** max([0] + [level for _, level in nodes])
    if n_r % factor or n_c % factor:
        raise ShapeError(f"resolution {n_r}x{n_c} not divisible by {factor}")
    area = n_r * n_c  # pixels at level 0; level l has 4^-l times as many
    return sum(
        layer.out_ch * layer.in_ch * layer.n_f**2
        * (area >> 2 * level if level >= 0 else area << -2 * level)
        for layer, (_, level) in zip(spec.layers, nodes)
        if isinstance(layer, Conv)
    )


def _even(n_r, n_c):
    if n_r % 2 or n_c % 2:
        raise ConfigError(f"closed form needs even image dims, got {n_r}x{n_c}")


def flops_unet(c0, c1, n_r, n_c, n_f) -> int:
    """Closed form for the two-path design: three full-resolution convs
    plus an inner pair at quarter area."""
    _even(n_r, n_c)
    return 3 * c0 * n_r * n_c * n_f**2 + 2 * c0 * c1 * (n_r // 2) * (n_c // 2) * n_f**2


def flops_red(c0, c1, n_r, n_c, n_f) -> int:
    """Closed form for the nested residual pairs, all at full resolution."""
    return 2 * (1 + c1) * c0 * n_r * n_c * n_f**2


def flops_lwfsn(c0, n_r, n_c, n_f) -> int:
    """Closed form for the shrinkage network: one encoder/decoder conv pair."""
    return 2 * c0 * n_r * n_c * n_f**2
