"""fdl benchmark: one closed-loop client, end-to-end metrics or a traced run.

Usage, from the repository root::

    python3 bench/run.py --workload {train,denoise,analyze} --seed N \\
        --seconds S --trace {0,1}

The program is imported from ``src/`` with BLAS pinned to one thread
before numpy loads, as the CLI does by default.  The benchmark generates
its inputs from ``--seed``, runs operations back to back for ``--seconds``
and checks every output.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it list each metric with its unit, sample
count and direction, the per-kind latencies and the environment.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
operation twice, once plain and once with the module boundaries wrapped
(see ``layers.py``), and reports the per-layer metrics plus the tracing
overhead; spans are written to ``.bench_out/``.  The exit code is 0 only
when every output check passed.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 4

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

# name -> (unit, better); reported by every workload
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "latency_ms_p50": ("ms", "lower"),
    "latency_ms_p90": ("ms", "lower"),
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="fdl benchmark")
    parser.add_argument("--workload", required=True, choices=("train", "denoise", "analyze"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _setup_probes(args):
    """Set-up time of fresh processes doing only import and set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class Outcome:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, label, ok, detail):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{label}: {detail}")


def _run_checked(workload, op, outcome, tracer=None, op_id=None):
    """Run one operation, check its output; returns the seconds it took."""
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run(op)
        else:
            with tracer.active(op_id):
                result = workload.run(op)
    except Exception as exc:  # the benchmark keeps going and counts it
        elapsed = time.perf_counter() - start
        outcome.record(op.kind, False, f"raised {exc!r}")
        return elapsed
    elapsed = time.perf_counter() - start
    try:
        ok, detail = workload.check(op, result)
    except Exception as exc:  # an unreadable output is a failed output
        ok, detail = False, f"check raised {exc!r}"
    outcome.record(op.kind, ok, detail)
    return elapsed


def _end_to_end(workload, records, setup_times):
    durations = [d for _, d, _ in records]
    if workload.name == "train":
        throughput = statistics.median(u / d for _, d, u in records)
    else:
        throughput = sum(u for _, _, u in records) / sum(durations)
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "peak_rss_mb": ((usage_self + usage_children) / 1024.0, 1),
        "throughput_per_s": (throughput, len(records)),
        "latency_ms_p50": (1e3 * _percentile(durations, 50), len(records)),
        "latency_ms_p90": (1e3 * _percentile(durations, 90), len(records)),
    }


def _kind_table(records):
    lines = []
    for kind in sorted({k for k, _, _ in records}):
        ms = [1e3 * d for k, d, _ in records if k == kind]
        row = f"  {kind:<12} n={len(ms):<6} p50={_percentile(ms, 50):10.4f} ms  p90={_percentile(ms, 90):10.4f} ms"
        if len(ms) >= 1000:
            row += f"  p99={_percentile(ms, 99):10.4f} ms"
        lines.append(row)
    return lines


def main(argv=None):
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fdl", "__init__.py")):
        print(f"bench: no program under {os.path.join(ROOT, 'src', 'fdl')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import layers
    import workloads
    from fdl import analysis, cli, experiments, training  # noqa: F401  load every boundary

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        workload.setup()
        setup_self = time.perf_counter() - _STARTED
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_self}))
            return 0
        return _measure(args, workload, layers, setup_self)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, layers, setup_self):
    import envinfo
    from tracer import Tracer

    setup_times = [setup_self] + _setup_probes(args)
    outcome = Outcome()
    for label, ok, detail in workload.pre_checks():
        outcome.record(label, ok, detail)
        print(f"pre-check {label}: {'ok' if ok else 'FAILED'} ({detail})")

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install_boundaries(tracer)
    records, traced_s, untraced_s, traced_units = [], 0.0, 0.0, 0
    start = time.perf_counter()
    deadline = start + args.seconds
    index = 0
    while time.perf_counter() < deadline:
        op = workload.next_op()
        if tracer is None:
            records.append((op.kind, _run_checked(workload, op, outcome), op.units))
        else:
            # plain and traced back to back, alternating which goes first
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                if traced:
                    traced_s += _run_checked(workload, op, outcome, tracer, index)
                    traced_units += op.units
                else:
                    elapsed = _run_checked(workload, op, outcome)
                    untraced_s += elapsed
                    records.append((op.kind, elapsed, op.units))
        index += 1
    wall = time.perf_counter() - start

    env = envinfo.environment(ROOT)
    print(f"workload={workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"operations={len(records)} wall_s={wall:.3f}")
    print("environment " + json.dumps(env, sort_keys=True))
    extra = workload.summary()
    if extra:
        print("workload " + json.dumps(extra, sort_keys=True))
    print("latency by kind (untraced):")
    for line in _kind_table(records):
        print(line)

    if tracer is None:
        measured = _end_to_end(workload, records, setup_times)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        for name, (value, samples) in measured.items():
            print(f"metric {name:<20} {value:14.6f} {units[name]:<6} samples={samples:<6} "
                  f"better={END_TO_END[name][1]}")
        values = {name: value for name, (value, _) in measured.items()}
    else:
        forward_macs = workload.forward_macs() if workload.name == "train" else None
        for ok, detail in layers.cross_checks(tracer.spans, forward_macs):
            outcome.record("cross-check", ok, detail)
            print(f"cross-check: {'ok' if ok else 'FAILED'} ({detail})")
        values, absent = layers.per_layer_metrics(
            tracer.spans, tracer.counts, traced_units, traced_s, untraced_s
        )
        units = layers.metric_units()
        for name in units:
            mark = "  (absent from this workload)" if name in absent else ""
            print(f"metric {name:<36} {values[name]:16.6f} {units[name]}{mark}")
        trace_path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{args.seed}.json")
        tracer.write(trace_path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(trace_path, ROOT)}")

    failed_frac = outcome.failed / max(outcome.attempted, 1)
    print(f"failed_frac {failed_frac:.6f} ({outcome.failed} of {outcome.attempted} operations)")
    for failure in outcome.failures:
        print(f"FAILED {failure}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
