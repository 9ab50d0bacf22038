"""Reconstruction analysis, equivalent filters, and operation counts.

The reconstruction analyzer asks a purely structural question: does a
network topology admit filters that pass every signal through unchanged?
In one pass over the spec, :func:`ideal_instantiation` binds each
encoder/decoder conv pair to ideal filters (sign duplicated impulse pairs
when a rectifier sits between them, plain impulses otherwise) and no
biases, neutralizes shrinkage and clipping thresholds, and drops identity
shortcuts; each layer carries only the channels those filters can make
nonzero.  :func:`pr_analyze` then measures reconstruction on random
signed probes plus the two frequency extremes (a constant image and a
unit checkerboard).

Operation counts follow the convention of counting multiply-accumulates
of trainable convolutions only; fixed resampling filter banks are free.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import lru_cache

import numpy as np

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
from .network import _main_input, _resample_filters  # shared layer-graph helpers
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


def ideal_instantiation(spec: NetworkSpec) -> Network:
    """Bind ideal reconstruction filters to ``spec`` without its identity
    shortcuts, each conv at its live width.

    Residual additions re-inject a block's input at its output; they would
    let any network reconstruct trivially, so every residual skip (with a
    rectifier glued to a final one) and the global wrapper are dropped, and
    a reference to a dropped layer goes to that layer's main input.  Each
    conv gets its impulse bank (a decoder the transpose of its encoder's),
    1x1 whatever the spec's filter size since an impulse has no extent,
    and no bias; each activation is neutralized.

    An impulse bank routes each input channel to a prefix of its outputs,
    and every other layer acts per channel and keeps 0 at 0, so only a
    prefix of each layer's channels is ever nonzero: ``n`` times its live
    inputs for an encoder (``n`` = 2 for a rectified pair, 1 otherwise),
    the rows of its transposed bank for a decoder, times or divided by its
    bands for a resampling layer.  The ideal network carries those live
    channels only; the dropped ones would add exact zeros.  A spec whose
    live prefixes do not close keeps its declared widths: a skip that joins
    two unequal ones, a decoder fed other than its encoder's live output,
    an up-sampling that splits one across its bands, or an output that is
    not the input's channels.
    """
    pairs, modes = _pair_convs(spec)
    return _ideal_walk(spec, pairs, modes, live=True) or _ideal_walk(spec, pairs, modes, live=False)


def _ideal_walk(spec: NetworkSpec, pairs, modes, live) -> Network | None:
    """The one pass of :func:`ideal_instantiation`, with each node its live
    width (``live``) or its declared one; None when the live widths do not
    close.  An encoder that its declared widths cannot host raises from the
    declared walk only, so its message names the declared widths."""
    last = len(spec.layers) - 1
    new = {-1: -1}  # old layer index -> index of the layer that stands for it
    width = {-1: spec.input_channels}  # channels of each new layer's output
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
        channels = width[src]
        changes = {"source": src}
        if isinstance(layer, Conv):
            if idx in modes:
                signs = (1.0, -1.0) if modes[idx] == "pct" else (1.0,)
                if live and layer.out_ch < len(signs) * layer.in_ch:
                    return None
                out_ch = len(signs) * channels if live else layer.out_ch
                banks[idx] = bank = signed_impulse_bank(channels, signs, out_ch)
            else:  # a decoder: _pair_convs pairs every contracting conv
                bank = tensor_transpose(banks[pairs[idx]])
                if bank.shape[1] != channels:
                    return None
            weights.append((bank, None))
            channels = bank.shape[0]
            changes.update(out_ch=channels, in_ch=bank.shape[1], n_f=1, bias=False)
        elif isinstance(layer, Activation):
            changes["spec"] = layer.spec.neutral()
        elif isinstance(layer, Resample):
            bands = _resample_filters()[layer.kind]["down"].shape[0]
            if layer.direction == "down":
                channels *= bands
            elif channels % bands:
                return None
            else:
                channels //= bands
        else:  # SkipAdd
            if width[new[layer.from_]] != channels:
                return None
            changes["from_"] = new[layer.from_]
        width[new[idx]] = channels
        layers.append(replace(layer, **changes))
    if live and width[len(layers) - 1] != spec.input_channels:
        return None
    return Network(replace(spec, layers=tuple(layers), residual=False), weights)


# The probe protocol of :func:`pr_analyze`: the side of the probe images,
# the number of random probes and their seed, and the largest
# reconstruction error that still counts as perfect.
PR_GRID = 16
PR_PROBES = 3
PR_SEED = 0
PR_TOL = 1e-8


@lru_cache(maxsize=8)  # a spec's input channels come from its file
def _probes(channels):
    """The probes of :func:`pr_analyze` for ``channels`` input channels:
    the :data:`PR_PROBES` seeded random images, a constant and a unit
    checkerboard, as the columns of one ``(channels, 5, grid, grid)`` batch
    and as one contiguous ``(channels, 1, grid, grid)`` image each.  Built
    on first use and shared after it, so both are read-only."""
    rng = np.random.default_rng(PR_SEED)
    shape = (channels, 1, PR_GRID, PR_GRID)
    rows, cols = np.mgrid[0:PR_GRID, 0:PR_GRID]
    checkerboard = np.broadcast_to((-1.0) ** (rows + cols), shape)
    batch = np.concatenate(
        [rng.normal(size=shape) for _ in range(PR_PROBES)] + [np.ones(shape), checkerboard], axis=1
    )
    images = np.ascontiguousarray(batch.swapaxes(0, 1))[:, :, None]
    batch.flags.writeable = images.flags.writeable = False
    return batch, images


def pr_analyze(spec: NetworkSpec) -> PRReport:
    """Probe a topology for perfect reconstruction under ideal filters.

    Reports the worst reconstruction error over :data:`PR_PROBES` random
    signed :data:`PR_GRID`-square images (seed :data:`PR_SEED`) plus the
    network gains at DC (constant probe) and at the Nyquist frequency
    (checkerboard probe); the verdict is perfect when that error is below
    :data:`PR_TOL`.  The probes are the columns of one input, so the
    network runs once.  A spec that decimates the probe grid below one
    sample raises :class:`ConfigError`.
    """
    net = ideal_instantiation(spec)
    depth = max([0] + [level for _, level in validate_spec(spec)])  # decimations
    if PR_GRID % 2**depth:
        raise ConfigError(
            f"spec decimates {depth} times; the {PR_GRID}x{PR_GRID} probe grid "
            f"allows at most {PR_GRID.bit_length() - 1}"
        )
    batch, probes = _probes(spec.input_channels)
    out = net.run(batch)
    # one contiguous (channels, 1, grid, grid) output per probe
    outs = np.ascontiguousarray(out.swapaxes(0, 1))[:, :, None]

    max_err = 0.0
    for y, out_y in zip(probes[:PR_PROBES], outs):
        max_err = max(max_err, float(np.max(np.abs(out_y - y))))
    flat, cb = probes[PR_PROBES:]
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
        if payload.is_identity:
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
