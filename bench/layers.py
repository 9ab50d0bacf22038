"""Boundaries the traced run wraps, and the per-layer metrics derived from
their spans.

Each metric is normalized per work unit: per trained image on ``train``,
per request on ``denoise`` and ``analyze``.  A metric whose layer a
workload never reaches is reported as 0 and listed as absent.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from tracer import self_times

CONV_STAGES = ("1to6", "6to12", "12to24", "24to12", "12to6", "6to1")
CONV_KINDS = ("conv_fwd", "conv_grad_signal", "conv_grad_kernel")


def _stage(out_ch, in_ch):
    return f"{in_ch}to{out_ch}"


def _kernel_conv_info(args, result):
    """Stage, MACs issued and MACs on nonzero taps of a conv whose first
    argument is the kernel (forward and signal gradient)."""
    kernel, signal = args
    ko, kc, kv, kh = kernel.shape
    cols, h, w = signal.shape[1:]
    pixels = cols * h * w
    return [_stage(ko, kc), ko * kc * kv * kh * pixels, int(np.count_nonzero(kernel)) * pixels]


def _conv_grad_kernel_info(args, result):
    _, grad, kernel_shape = args
    ko, kc, kv, kh = kernel_shape
    cols, h, w = grad.shape[1:]
    macs = ko * kc * kv * kh * cols * h * w
    return [_stage(ko, kc), macs, macs]


def _shift_stack_info(args, result):
    signal, kv, kh = args[:3]
    rows, cols, h, w = signal.shape
    computed = rows * kv * kh * cols * h * w * 8
    return [computed, int(result.nbytes)]


def install_boundaries(tracer):
    """Declare every boundary of the per-layer table on ``tracer``."""
    from fdl import (
        activations,
        analysis,
        autodiff,
        cli,
        datasets,
        experiments,
        framelets,
        lowrank,
        metrics,
        network,
        optim,
        pnm,
        tensor,
        training,
    )

    s = tracer.span
    s(tensor, "_conv_forward", "tensor.conv_fwd", _kernel_conv_info)
    s(tensor, "_conv_grad_signal", "tensor.conv_grad_signal", _kernel_conv_info)
    s(tensor, "_conv_grad_kernel", "tensor.conv_grad_kernel", _conv_grad_kernel_info)
    s(tensor, "_shift_stack", "tensor.shift_stack", _shift_stack_info)
    s(tensor, "conv2d", "tensor.conv")
    s(tensor, "conv2d_adjoint", "tensor.conv")
    s(autodiff, "backward", "autodiff.backward")
    tracer.count(autodiff, "Node._accumulate", "autodiff.vjp_calls")
    s(activations, "activation_derivative", "activations.derivative")
    s(activations, "apply_activation", "activations.apply")
    s(optim, "Adam.step", "optim.adam_step")
    # batch size 1: every training image starts with zero_grad
    s(optim, "Adam.zero_grad", "optim.zero_grad", opens_unit=True)
    s(datasets, "gen_triangles", "datasets.gen_triangles")
    s(datasets, "add_noise", "datasets.add_noise")
    s(training, "ToyModel.forward", "training.forward")
    s(training, "ToyModel.predict", "training.predict")
    s(training, "load_checkpoint", "training.load_checkpoint")
    s(training, "train", "training.train")
    s(experiments, "run_tight_frame_experiment", "experiments.run_tight_frame_experiment")
    s(framelets, "make_basis", "framelets.make_basis")
    s(framelets, "framelet_forward", "framelets.framelet_forward")
    s(framelets, "denoise_framelet", "framelets.denoise_framelet")
    s(framelets, "check_phase_complementary", "framelets.check_pct")
    s(metrics, "estimate_sigma_mad", "metrics.estimate_sigma_mad")
    s(metrics, "snr_db", "metrics.snr_db")
    s(lowrank, "svd", "lowrank.svd")
    s(lowrank, "lowrank_approx", "lowrank.lowrank_approx")
    s(pnm, "read_image", "pnm.read_image")
    s(pnm, "write_pgm", "pnm.write_pgm")
    s(cli, "main", "cli.main")
    s(network, "spec_from_json", "network.spec_from_json")
    s(network, "Network.__init__", "network.bind")
    s(network, "Network.run", "network.run")
    tracer.count(network, "validate_spec", "network.validate_spec.calls")
    s(analysis, "pr_analyze", "analysis.pr_analyze")
    s(analysis, "ideal_instantiation", "analysis.ideal_instantiation")
    s(analysis, "count_flops", "analysis.count_flops")
    s(analysis, "equivalent_filter", "analysis.equivalent_filter")


def metric_units():
    """Unit of every per-layer metric, in the order of BENCHMARK.json."""
    units = {}
    for kind in CONV_KINDS:
        for stage in CONV_STAGES:
            units[f"tensor.{kind}.{stage}.ms"] = "ms"
    for kind in CONV_KINDS:
        units[f"tensor.{kind}.gmacs"] = "GMAC/s"
    units.update(
        {
            "tensor.shift_stack.self_ms": "ms",
            "tensor.shift_stack.mb": "MB",
            "tensor.macs": "MAC",
            "tensor.conv.calls": "count",
            "tensor.conv.us_per_call": "us",
            "tensor.useful_mac_frac": "frac",
            "autodiff.backward.self_ms": "ms",
            "autodiff.vjp_calls": "count",
            "activations.derivative.ms": "ms",
            "activations.apply.ms": "ms",
            "optim.adam_step.ms": "ms",
            "optim.zero_grad.ms": "ms",
            "datasets.gen_triangles.ms": "ms",
            "datasets.add_noise.ms": "ms",
            "training.step.ms_p50": "ms",
            "training.forward.self_ms": "ms",
            "training.predict.ms": "ms",
            "training.load_checkpoint.ms": "ms",
            "experiments.train.ms": "ms",
            "experiments.self_ms": "ms",
            "framelets.make_basis.ms": "ms",
            "framelets.framelet_forward.calls": "count",
            "framelets.denoise_framelet.self_ms": "ms",
            "framelets.check_pct.ms": "ms",
            "metrics.estimate_sigma_mad.ms": "ms",
            "metrics.snr_db.ms": "ms",
            "lowrank.svd.ms": "ms",
            "lowrank.lowrank_approx.ms": "ms",
            "pnm.read_image.ms": "ms",
            "pnm.write_pgm.ms": "ms",
            "cli.self_ms": "ms",
            "network.spec_from_json.ms": "ms",
            "network.bind.ms": "ms",
            "network.run.self_ms": "ms",
            "network.validate_spec.calls": "count",
            "analysis.pr_analyze.self_ms": "ms",
            "analysis.ideal_instantiation.ms": "ms",
            "analysis.count_flops.ms": "ms",
            "analysis.equivalent_filter.ms": "ms",
            "trace.overhead_frac": "frac",
            "trace.self_sum_frac": "frac",
        }
    )
    return units


class SpanSummary:
    """Totals per span name: calls, inclusive and self seconds."""

    def __init__(self, spans):
        self.spans = spans
        self.self_s = self_times(spans)
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_total = defaultdict(float)
        for i, span in enumerate(spans):
            name = span[0]
            self.calls[name] += 1
            self.self_total[name] += self.self_s[i]
            if not self._nested_in_same(i):
                self.inclusive[name] += span[2] - span[1]

    def _nested_in_same(self, i):
        """Whether span ``i`` runs inside another span of its own name, whose
        inclusive time already covers it."""
        name, parent = self.spans[i][0], self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def of(self, name):
        return [s for s in self.spans if s[0] == name]


def step_durations(spans):
    """Forward + loss + backward + Adam of each training image: from the
    start of ``ToyModel.forward`` to the end of the next ``Adam.step``
    under the same ``train`` call."""
    pending = {}
    out = []
    for name, start, end, parent, *_ in spans:
        if name == "training.forward":
            pending[parent] = start
        elif name == "optim.adam_step" and parent in pending:
            out.append(end - pending.pop(parent))
    return out


def per_layer_metrics(spans, counts, units_done, traced_s, untraced_s):
    """Compute every per-layer metric; returns ``(values, absent)``."""
    summary = SpanSummary(spans)
    n = max(units_done, 1)
    values, absent = {}, []

    def put(name, value, present):
        values[name] = float(value) if present else 0.0
        if not present:
            absent.append(name)

    def ms(total):
        return 1e3 * total / n

    by_stage = defaultdict(float)
    macs = defaultdict(int)
    useful = defaultdict(int)
    busy = defaultdict(float)
    for kind in CONV_KINDS:
        for _, start, end, _, _, info in summary.of(f"tensor.{kind}"):
            by_stage[(kind, info[0])] += end - start
            macs[kind] += info[1]
            useful[kind] += info[2]
            busy[kind] += end - start
    for kind in CONV_KINDS:
        for stage in CONV_STAGES:
            key = (kind, stage)
            put(f"tensor.{kind}.{stage}.ms", ms(by_stage[key]), key in by_stage)
    for kind in CONV_KINDS:
        put(f"tensor.{kind}.gmacs", macs[kind] / busy[kind] / 1e9 if busy[kind] else 0.0, busy[kind] > 0)

    stacks = summary.of("tensor.shift_stack")
    put("tensor.shift_stack.self_ms", ms(summary.self_total["tensor.shift_stack"]), stacks)
    put("tensor.shift_stack.mb", sum(s[5][0] for s in stacks) / 1e6 / n, stacks)
    total_macs = sum(macs.values())
    put("tensor.macs", total_macs / n, total_macs > 0)
    conv_calls = summary.calls["tensor.conv"]
    put("tensor.conv.calls", conv_calls / n, conv_calls)
    put(
        "tensor.conv.us_per_call",
        1e6 * summary.inclusive["tensor.conv"] / conv_calls if conv_calls else 0.0,
        conv_calls,
    )
    kernel_macs = macs["conv_fwd"] + macs["conv_grad_signal"]
    put(
        "tensor.useful_mac_frac",
        (useful["conv_fwd"] + useful["conv_grad_signal"]) / kernel_macs if kernel_macs else 0.0,
        kernel_macs > 0,
    )

    def inclusive(metric, span_name):
        put(metric, ms(summary.inclusive[span_name]), summary.calls[span_name])

    def self_ms(metric, span_name):
        put(metric, ms(summary.self_total[span_name]), summary.calls[span_name])

    def calls(metric, count):
        put(metric, count / n, count)

    self_ms("autodiff.backward.self_ms", "autodiff.backward")
    calls("autodiff.vjp_calls", counts.get("autodiff.vjp_calls", 0))
    inclusive("activations.derivative.ms", "activations.derivative")
    inclusive("activations.apply.ms", "activations.apply")
    inclusive("optim.adam_step.ms", "optim.adam_step")
    inclusive("optim.zero_grad.ms", "optim.zero_grad")
    inclusive("datasets.gen_triangles.ms", "datasets.gen_triangles")
    inclusive("datasets.add_noise.ms", "datasets.add_noise")
    steps = step_durations(spans)
    put("training.step.ms_p50", 1e3 * statistics.median(steps) if steps else 0.0, steps)
    self_ms("training.forward.self_ms", "training.forward")
    inclusive("training.predict.ms", "training.predict")
    inclusive("training.load_checkpoint.ms", "training.load_checkpoint")
    inclusive("experiments.train.ms", "training.train")
    self_ms("experiments.self_ms", "experiments.run_tight_frame_experiment")
    inclusive("framelets.make_basis.ms", "framelets.make_basis")
    calls("framelets.framelet_forward.calls", summary.calls["framelets.framelet_forward"])
    self_ms("framelets.denoise_framelet.self_ms", "framelets.denoise_framelet")
    inclusive("framelets.check_pct.ms", "framelets.check_pct")
    inclusive("metrics.estimate_sigma_mad.ms", "metrics.estimate_sigma_mad")
    inclusive("metrics.snr_db.ms", "metrics.snr_db")
    inclusive("lowrank.svd.ms", "lowrank.svd")
    inclusive("lowrank.lowrank_approx.ms", "lowrank.lowrank_approx")
    inclusive("pnm.read_image.ms", "pnm.read_image")
    inclusive("pnm.write_pgm.ms", "pnm.write_pgm")
    self_ms("cli.self_ms", "cli.main")
    inclusive("network.spec_from_json.ms", "network.spec_from_json")
    inclusive("network.bind.ms", "network.bind")
    self_ms("network.run.self_ms", "network.run")
    calls("network.validate_spec.calls", counts.get("network.validate_spec.calls", 0))
    self_ms("analysis.pr_analyze.self_ms", "analysis.pr_analyze")
    inclusive("analysis.ideal_instantiation.ms", "analysis.ideal_instantiation")
    inclusive("analysis.count_flops.ms", "analysis.count_flops")
    inclusive("analysis.equivalent_filter.ms", "analysis.equivalent_filter")

    put("trace.overhead_frac", (traced_s - untraced_s) / untraced_s, True)
    put("trace.self_sum_frac", sum(summary.self_s) / untraced_s, True)
    return values, absent


def cross_checks(spans, forward_macs_expected):
    """Counts the benchmark computes itself, checked against the program.

    * conv MACs issued under each ``ToyModel.forward`` equal
      ``count_flops(build_toy_spec(), 64, 64)``;
    * each shift stack's computed size matches the array it returned.
    Returns a list of ``(ok, detail)``.
    """
    results = []
    stacks = [s for s in spans if s[0] == "tensor.shift_stack"]
    bad = [s[5] for s in stacks if s[5][0] != s[5][1]]
    results.append((not bad, f"{len(stacks)} shift stacks, {len(bad)} with computed bytes != array bytes"))
    if forward_macs_expected is not None:
        per_forward = defaultdict(int)
        forwards = {i for i, s in enumerate(spans) if s[0] == "training.forward"}
        for s in spans:
            if s[0] == "tensor.conv_fwd" and s[3] in forwards:
                per_forward[s[3]] += s[5][1]
        wrong = [v for v in per_forward.values() if v != forward_macs_expected]
        results.append(
            (
                bool(per_forward) and not wrong,
                f"{len(per_forward)} forwards, MACs per forward "
                f"{sorted(set(per_forward.values()))} vs count_flops {forward_macs_expected}",
            )
        )
    return results
