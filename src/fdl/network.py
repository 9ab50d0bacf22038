"""Declarative encoder-decoder CNN descriptions and a numpy runtime.

A :class:`NetworkSpec` is an ordered list of layers forming a DAG: each
layer consumes the previous layer's output unless it names an explicit
``source`` (by index, ``-1`` for the network input).  Skip layers add an
earlier output into the chain.  A skip marked ``residual`` is an identity
shortcut around an encoder-decoder block; the reconstruction analyzer
removes those before probing, as does the global subtractive wrapper
selected by ``NetworkSpec.residual``.  Every resampling layer changes the
resolution by a factor of 2; :func:`validate_spec` tracks the channel
count and resolution level of each layer output, so a skip joins like
with like and the graph returns to the input's channels and resolution.

Specs carry no learned weights, but they fix every resampling filter:
each resampling kind names a filter stack (a Haar bank, or the one-band
unit filter for ``plain``) that runs polyphase
(:func:`fdl.tensor.bank_down` / :func:`fdl.tensor.bank_up`), one small
stack applied to every channel.  :func:`evaluate` is the one interpreter
of a spec: it walks the layers once over any op set, plain arrays
(:data:`NUMPY_OPS`) or differentiable nodes (:mod:`fdl.autodiff`), and
binds the resampling filters itself, so a caller supplies conv kernels
and biases only.  :class:`Network` binds concrete conv weights to a spec
and evaluates it on images with the tensor runtime.
"""

from __future__ import annotations

import operator
from dataclasses import MISSING, dataclass, fields
from functools import cache
from numbers import Integral, Real
from types import SimpleNamespace

import numpy as np

from .activations import DOG_KINDS, ActivationSpec, apply_activation, relu_bias
from .errors import ConfigError, ShapeError, capped_repr, is_kind
from .framelets import haar_dwt
from .tensor import as_tensor4, bank_down, bank_up, conv2d

__all__ = [
    "Conv",
    "Activation",
    "Resample",
    "SkipAdd",
    "NetworkSpec",
    "Network",
    "NUMPY_OPS",
    "evaluate",
    "build_unet",
    "build_red",
    "build_lwfsn",
    "build_rlwfsn",
    "build_toy_spec",
    "spec_to_json",
    "spec_from_json",
    "TOY_WIDTHS",
]

# Channel widths of the three-level reference model used in the training
# experiments.
TOY_WIDTHS = (6, 12, 24)


@cache
def _resample_filters():
    """``(bands, 1, k, k)`` filter stack of each resampling kind, read-only
    because every evaluation shares them: the analysis stack going down, the
    synthesis stack going up.  ``plain`` is the one-band unit filter (keep
    phase 0 / insert zeros); the DWT kinds take the Haar bands LL, LH, HL,
    HH by that order.  Built on first use, so importing this module does not
    measure the Haar basis."""
    haar = haar_dwt()
    unit = np.ones((1, 1, 1, 1))
    unit.flags.writeable = False
    return {
        "plain": {"down": unit, "up": unit},
        "dwt_low": {"down": haar.forward[:1], "up": haar.inverse[:1]},
        "dwt_high": {"down": haar.forward[1:], "up": haar.inverse[1:]},
        "dwt_full": {"down": haar.forward, "up": haar.inverse},
    }



@dataclass(frozen=True)
class Conv:
    out_ch: int
    in_ch: int
    n_f: int = 3
    bias: bool = True
    source: int | None = None


@dataclass(frozen=True)
class Activation:
    spec: ActivationSpec
    source: int | None = None


@dataclass(frozen=True)
class Resample:
    direction: str  # "down" | "up"
    kind: str = "plain"
    source: int | None = None


@dataclass(frozen=True)
class SkipAdd:
    from_: int
    residual: bool = False
    source: int | None = None


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered layer graph plus the global residual flag.

    ``residual=True`` wraps the layer graph G as ``y - G(y)``.
    """

    layers: tuple
    residual: bool = False
    input_channels: int = 1
    name: str = ""

    def __post_init__(self):
        validate_spec(self)


def _main_input(index, layer):
    if layer.source is not None:
        return layer.source
    return index - 1


def _check_ref(idx, ref, what):
    if ref is not None and not (is_kind(ref, Integral) and -1 <= ref < idx):
        raise ConfigError(
            f"layer {idx}: {what} {capped_repr(ref)} must point at an earlier layer or -1"
        )


def validate_spec(spec: NetworkSpec) -> list:
    """Check layer wiring, channel arithmetic and resolution.

    Returns the ``(channels, level)`` of each layer output, where ``level``
    counts the factor-2 decimations from the input (negative after
    up-sampling).  A skip must join two equal pairs, and the graph output
    must be ``(input_channels, 0)``.
    """
    if spec.input_channels < 1:
        raise ConfigError(f"input_channels must be >= 1, got {capped_repr(spec.input_channels)}")
    nodes = []  # (channels, level) of each layer output

    def node_of(ref):
        return (spec.input_channels, 0) if ref == -1 else nodes[ref]

    for idx, layer in enumerate(spec.layers):
        _check_ref(idx, layer.source, "source")
        src = _main_input(idx, layer)
        if src < -1:
            raise ConfigError(f"layer {idx}: no previous layer to consume")
        c_in, level = node_of(src)
        if isinstance(layer, Conv):
            if layer.in_ch != c_in:
                raise ConfigError(
                    f"layer {idx}: conv expects {layer.in_ch} input channels, gets {c_in}"
                )
            if layer.n_f % 2 == 0 or layer.n_f < 1:
                raise ConfigError(f"layer {idx}: filter size must be odd, got {layer.n_f}")
            if layer.out_ch < 1:
                raise ConfigError(f"layer {idx}: out_ch must be >= 1")
            nodes.append((layer.out_ch, level))
        elif isinstance(layer, Activation):
            if not isinstance(layer.spec, ActivationSpec):
                raise ConfigError(f"layer {idx}: activation needs an ActivationSpec")
            nodes.append((c_in, level))
        elif isinstance(layer, Resample):
            if layer.direction not in ("down", "up"):
                raise ConfigError(f"layer {idx}: bad resample direction {layer.direction!r}")
            if layer.kind not in _resample_filters():
                raise ConfigError(f"layer {idx}: bad resample kind {layer.kind!r}")
            bands = _resample_filters()[layer.kind]["down"].shape[0]
            if layer.direction == "down":
                nodes.append((c_in * bands, level + 1))
            elif c_in % bands:
                raise ConfigError(
                    f"layer {idx}: {layer.kind} up-sampling needs a multiple of "
                    f"{bands} channels, got {c_in}"
                )
            else:
                nodes.append((c_in // bands, level - 1))
        elif isinstance(layer, SkipAdd):
            _check_ref(idx, layer.from_, "skip reference")
            other = node_of(layer.from_)
            if other != (c_in, level):
                raise ConfigError(
                    f"layer {idx}: skip-add joins {c_in} channels at level {level} "
                    f"with {other[0]} channels at level {other[1]}"
                )
            nodes.append((c_in, level))
        else:
            raise ConfigError(f"layer {idx}: unknown layer type {type(layer).__name__}")
    out = nodes[-1] if nodes else (spec.input_channels, 0)
    if out != (spec.input_channels, 0):
        raise ConfigError(
            f"graph output has {out[0]} channels at level {out[1]}; it must return to "
            f"the input's {spec.input_channels} channels at level 0"
        )
    return nodes


# ---------------------------------------------------------------------------
# Builders for the analyzed designs
# ---------------------------------------------------------------------------


# The zero-threshold rectifier layer that every rectified design uses.
_RELU = Activation(ActivationSpec("relu_bias", t=0.0))


def build_unet(c0, c1, n_f=3, residual=False) -> NetworkSpec:
    """Two-path single-level U-Net.

    One path stays at full resolution; the other pools through the DWT low
    band, runs an inner encoder-decoder pair, and is up-sampled back.  The
    two decoder heads are summed.  ``residual=True`` gives the
    residual-wrapped variant that estimates noise instead of signal.
    """
    layers = (
        Conv(c0, 1, n_f, bias=True),            # 0: encoder
        _RELU,                                   # 1
        Conv(1, c0, n_f, bias=False),            # 2: full-resolution decoder head
        Resample("down", "dwt_low", source=1),   # 3: low-band pooling
        Conv(c1, c0, n_f, bias=True),            # 4: inner encoder
        _RELU,                                   # 5
        Conv(c0, c1, n_f, bias=True),            # 6: inner decoder
        _RELU,                                   # 7
        Resample("up", "dwt_low"),               # 8
        Conv(1, c0, n_f, bias=False),            # 9: pooled-path decoder head
        SkipAdd(from_=2),                        # 10: sum the two heads
    )
    return NetworkSpec(layers=layers, residual=residual, name="unet")


def build_red(c0, c1, n_f=3) -> NetworkSpec:
    """Nested single-resolution residual encoder-decoder pairs.

    The inner pair sits inside the outer one; each block's shortcut adds
    its input back before a rectifier, and the final rectified shortcut
    from the network input makes the output nonnegative by construction.
    """
    layers = (
        Conv(c0, 1, n_f, bias=False),            # 0: outer encoder
        Conv(c1, c0, n_f, bias=True),            # 1: inner encoder
        _RELU,                                   # 2
        Conv(c0, c1, n_f, bias=True),            # 3: inner decoder
        SkipAdd(from_=0, residual=True),         # 4: inner shortcut
        _RELU,                                   # 5
        Conv(1, c0, n_f, bias=True),             # 6: outer decoder
        SkipAdd(from_=-1, residual=True),        # 7: shortcut from the input
        _RELU,                                   # 8
    )
    return NetworkSpec(layers=layers, name="red")


def build_lwfsn(c0, n_f=3, act: ActivationSpec | None = None) -> NetworkSpec:
    """Wavelet-frame shrinkage network.

    The encoder output is split by the DWT; detail bands are shrunk and
    the low band passes untouched, so smooth content is never attenuated.
    """
    if act is None:  # a one-member LET of soft shrinkage at t = 0: the identity
        act = ActivationSpec("let", members=((1.0, ActivationSpec("soft_shrink", t=0.0)),))
    if not act.is_shrink:
        raise ConfigError(f"detail-band activation must be a shrinkage kind, got {act.kind!r}")
    layers = (
        Conv(c0, 1, n_f, bias=False),            # 0: encoder
        Resample("down", "dwt_low", source=0),   # 1: low branch
        Resample("up", "dwt_low"),               # 2
        Resample("down", "dwt_high", source=0),  # 3: detail branch
        Activation(act),                         # 4: shrink detail bands
        Resample("up", "dwt_high"),              # 5
        SkipAdd(from_=2),                        # 6: merge branches
        Conv(1, c0, n_f, bias=False),            # 7: decoder
    )
    return NetworkSpec(layers=layers, name="lwfsn")


def build_rlwfsn(c0, n_f=3, act: ActivationSpec | None = None) -> NetworkSpec:
    """Residual wavelet-frame shrinkage network.

    Clipping replaces shrinkage (the block estimates noise) and the low
    branch is dropped entirely, which hard-codes the assumption that the
    noise is high-frequency.  The wrapper subtracts the estimate from the
    input.
    """
    if act is None:
        act = ActivationSpec("soft_clip", t=np.inf)
    if act.is_shrink:
        raise ConfigError(f"noise path needs a clipping activation, got {act.kind!r}")
    layers = (
        Conv(c0, 1, n_f, bias=False),            # 0: encoder
        Resample("down", "dwt_high"),            # 1: detail branch only
        Activation(act),                         # 2: clip keeps small values
        Resample("up", "dwt_high"),              # 3
        Conv(1, c0, n_f, bias=False),            # 4: decoder
    )
    return NetworkSpec(layers=layers, residual=True, name="rlwfsn")


def build_toy_spec(widths=TOY_WIDTHS, n_f=3) -> NetworkSpec:
    """Declarative form of the three-level training model (no resampling,
    rectifiers throughout, symmetric decoder)."""
    layers = []
    chain = (1,) + tuple(widths)
    for c_in, c_out in zip(chain[:-1], chain[1:]):
        layers += [Conv(c_out, c_in, n_f, bias=True), _RELU]
    for c_in, c_out in zip(chain[:0:-1], chain[-2::-1]):
        layers += [Conv(c_out, c_in, n_f, bias=True), _RELU]
    return NetworkSpec(layers=tuple(layers), name="toy")


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------


def _act_to_json(spec: ActivationSpec) -> dict:
    out = {"kind": spec.kind}
    if spec.kind == "let":
        out["members"] = [[w, _act_to_json(m)] for w, m in spec.members]
    else:
        out["t"] = spec.t if np.isscalar(spec.t) else list(spec.t)
        if spec.kind in DOG_KINDS:
            out["p"] = spec.p
    return out


def _object(payload, what) -> dict:
    if not isinstance(payload, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(payload).__name__}")
    return payload


_KIND_NAMES = {Integral: "an integer", Real: "a number", bool: "a boolean", str: "a string"}


def _field(entry: dict, key, kind, default=MISSING):
    """``entry[key]``, or ``default`` when it is absent and optional.  A kind
    of ``_KIND_NAMES`` is checked by the rule of :func:`fdl.errors.is_kind`;
    any other (a nested activation, a layer reference) is checked elsewhere."""
    value = entry[key] if default is MISSING else entry.get(key, default)
    if kind in _KIND_NAMES and not is_kind(value, kind):
        raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {capped_repr(value)}")
    return value


def _act_from_json(payload: dict) -> ActivationSpec:
    kind = _field(_object(payload, "activation"), "kind", str)
    if kind == "let":
        members = []
        for w, m in payload.get("members", []):
            if not is_kind(w, Real):
                raise ConfigError(f"let weight must be a number, got {capped_repr(w)}")
            members.append((float(w), _act_from_json(m)))
        return ActivationSpec("let", members=tuple(members))
    t = payload.get("t", ActivationSpec.t)
    if not (is_kind(t, Real) or isinstance(t, list) and all(is_kind(v, Real) for v in t)):
        raise ConfigError(f"t must be a number or a list of numbers, got {capped_repr(t)}")
    return ActivationSpec(kind, t=t, p=_field(payload, "p", Integral, ActivationSpec.p))


# The JSON form of each layer type: its "type" name, then the key and kind of
# each dataclass field but the last (``source``), in field order; a field the
# dataclass gives no default is required.  ActivationSpec marks a nested
# activation object, and None a layer reference that validate_spec checks.
_LAYER_JSON = {
    Conv: ("conv", (("out_ch", Integral), ("in_ch", Integral), ("n_f", Integral), ("bias", bool))),
    Activation: ("activation", (("activation", ActivationSpec),)),
    Resample: ("resample", (("direction", str), ("kind", str))),
    SkipAdd: ("skip_add", (("from", None), ("residual", bool))),
}
# layer class -> ("type" name, (JSON key, attribute, kind, default) per field)
_LAYER_SCHEMA = {
    cls: (name, tuple((key, f.name, kind, f.default)
                      for (key, kind), f in zip(keys, fields(cls)[:-1], strict=True)))
    for cls, (name, keys) in _LAYER_JSON.items()
}
_LAYER_TYPES = {name: (cls, schema) for cls, (name, schema) in _LAYER_SCHEMA.items()}


def spec_to_json(spec: NetworkSpec) -> dict:
    layers = []
    for layer in spec.layers:
        name, schema = _LAYER_SCHEMA[type(layer)]
        entry = {"type": name}
        for key, attr, kind, _ in schema:
            value = getattr(layer, attr)
            entry[key] = _act_to_json(value) if kind is ActivationSpec else value
        if layer.source is not None:
            entry["source"] = layer.source
        layers.append(entry)
    return {
        "name": spec.name,
        "residual": spec.residual,
        "input_channels": spec.input_channels,
        "layers": layers,
    }


def spec_from_json(payload: dict) -> NetworkSpec:
    entries = _object(payload, "spec").get("layers", [])
    if not isinstance(entries, list):
        raise ConfigError(f"spec layers must be a JSON list, got {type(entries).__name__}")
    layers = []
    for idx, entry in enumerate(entries):
        if not isinstance(entry, dict) or "type" not in entry:
            raise ConfigError(f"layer {idx}: expected an object with a 'type' field")
        name = entry["type"]
        try:
            if not isinstance(name, str) or name not in _LAYER_TYPES:
                raise ConfigError(f"unknown layer type {capped_repr(name)}")
            cls, schema = _LAYER_TYPES[name]
            if cls is Resample and _field(entry, "s", Integral, 2) != 2:
                raise ConfigError(f"resampling factor must be 2, got {capped_repr(entry['s'])}")
            values = {"source": entry.get("source")}
            for key, attr, kind, default in schema:
                value = _field(entry, key, kind, default)
                values[attr] = _act_from_json(value) if kind is ActivationSpec else value
            layers.append(cls(**values))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"layer {idx}: {exc}") from exc
    try:
        return NetworkSpec(
            layers=tuple(layers),
            residual=_field(payload, "residual", bool, False),
            input_channels=_field(payload, "input_channels", Integral, 1),
            name=_field(payload, "name", str, ""),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Runtime
# ---------------------------------------------------------------------------


def _conv(kernel, x, bias=None, act=None):
    """``conv2d``, then the bias added in place into its fresh output, then
    the activation: a rectifier in place too, so the conv holds its input
    and one output; another kind returns a new array."""
    out = conv2d(kernel, x)
    if bias is not None:
        out += bias[:, None, None, None]
    if act is not None and act.kind == "relu_bias":
        return relu_bias(out, act.t, out=out)
    return out if act is None else apply_activation(act, out)


# The op set of :func:`evaluate` on plain arrays; :mod:`fdl.autodiff`
# provides the same names on graph nodes.
NUMPY_OPS = SimpleNamespace(
    conv=_conv,
    act=lambda x, spec: apply_activation(spec, x),
    bank_down=bank_down,
    bank_up=bank_up,
    add=operator.add,
    sub=operator.sub,
)


def evaluate(spec: NetworkSpec, conv_weights, x, ops):
    """Evaluate ``spec`` on ``x`` with the op set ``ops``.

    ``ops`` supplies, either as :data:`NUMPY_OPS` over arrays or as
    :mod:`fdl.autodiff` over graph nodes:

    * ``conv(kernel, x, bias, act)`` for Conv layers: the convolution,
      then the per-channel ``bias`` unless it is None, then the activation
      ``act`` unless it is None.  ``act`` is the spec of the Activation
      layer right after the Conv when that layer reads the Conv's output
      (its ``source`` is None) and no other layer names that output; the
      Activation layer then applies nothing more;
    * ``act(x, spec)`` for the other Activation layers;
    * ``bank_down(filters, x)`` / ``bank_up(filters, x)`` for Resample
      layers: a fixed ``(bands, 1, k, k)`` filter stack applied to each
      channel, with decimation by 2 (analysis) or up-sampling by 2
      (synthesis);
    * ``add(a, b)`` for SkipAdd layers and ``sub(a, b)`` for the residual
      wrapper.

    ``conv_weights`` holds one ``(kernel, bias_or_None)`` pair per Conv
    layer in spec order, in the form ``ops`` takes.  A resampling layer
    applies its kind's fixed filter stack, a plain array.  Only the
    outputs that a later layer names as ``source`` or ``from_`` are kept
    alive.
    """
    layers = spec.layers
    named = {ref for layer in layers for ref in (layer.source, getattr(layer, "from_", None))}
    # Activation layers that the Conv before them applies
    fused = {
        idx + 1
        for idx, (layer, after) in enumerate(zip(layers, layers[1:]))
        if isinstance(layer, Conv) and isinstance(after, Activation)
        and after.source is None and idx not in named
    }
    kept = {-1: x}
    weights = iter(conv_weights)
    out = x
    for idx, layer in enumerate(layers):
        if layer.source is not None:
            out = kept[layer.source]
        if isinstance(layer, Conv):
            kernel, bias = next(weights)
            act = layers[idx + 1].spec if idx + 1 in fused else None
            out = ops.conv(kernel, out, bias, act)
        elif isinstance(layer, Activation):
            if idx not in fused:
                out = ops.act(out, layer.spec)
        elif isinstance(layer, Resample):
            bank = ops.bank_down if layer.direction == "down" else ops.bank_up
            out = bank(_resample_filters()[layer.kind][layer.direction], out)
        else:  # SkipAdd
            out = ops.add(out, kept[layer.from_])
        if idx in named:
            kept[idx] = out
    return ops.sub(x, out) if spec.residual else out


class Network:
    """A spec bound to concrete conv weights, evaluated with the tensor
    runtime.

    ``conv_weights`` is one ``(kernel, bias_or_None)`` pair per Conv layer
    in spec order; kernels must match the declared shapes.  The validated
    pairs are kept, in the same order, as ``weights``.
    """

    def __init__(self, spec: NetworkSpec, conv_weights):
        self.spec = spec  # validated when it was constructed
        convs = [(idx, layer) for idx, layer in enumerate(spec.layers) if isinstance(layer, Conv)]
        if len(conv_weights) != len(convs):
            raise ConfigError(f"expected {len(convs)} weight pairs, got {len(conv_weights)}")
        self.weights = []  # (kernel, bias_or_None) per Conv layer, in spec order
        for (idx, layer), (kernel, bias) in zip(convs, conv_weights):
            kernel = as_tensor4(kernel, f"layer {idx} kernel")
            want = (layer.out_ch, layer.in_ch, layer.n_f, layer.n_f)
            if kernel.shape != want:
                raise ShapeError(f"layer {idx}: kernel shape {kernel.shape}, expected {want}")
            if layer.bias:
                bias = np.zeros(layer.out_ch) if bias is None else np.asarray(bias, float)
                if bias.shape != (layer.out_ch,):
                    raise ShapeError(f"layer {idx}: bias shape {bias.shape}")
            else:
                bias = None
            self.weights.append((kernel, bias))

    def run(self, image) -> np.ndarray:
        """Evaluate the network on an image (or multi-channel tensor)."""
        x_in = as_tensor4(image, "input")
        if x_in.shape[0] != self.spec.input_channels:
            raise ShapeError(
                f"input has {x_in.shape[0]} channels, spec wants {self.spec.input_channels}"
            )
        return evaluate(self.spec, self.weights, x_in, NUMPY_OPS)
