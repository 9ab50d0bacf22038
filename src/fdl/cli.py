"""Command-line interface.

Subcommands: denoise, analyze-pr, flops, train, experiment.  Every command
that produces files does so under one run directory (``--out``, or a
default under ``./runs``) containing a ``manifest.json`` with the command
line, the resolved configuration, the seed, and the files written.
Re-running a command with the same arguments and ``--threads 1``
reproduces every output byte for byte (the manifest differs only in its
wall-clock field).  A command handler returns what the run shows and
writes; :func:`main` alone writes the run directory, then prints the shown
value as JSON on stdout.

Exit codes: 0 success, 2 unreadable input or unwritable run directory,
3 bad parameters or config, 4 numeric failure or an allocation that
failed (``MemoryError``).

BLAS thread pinning must happen before numpy is first imported, which is
why this module defers all package imports into the command handlers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

EXIT_OK = 0
EXIT_IO = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class CommandLineError(Exception):
    pass


class _IoError(Exception):
    pass


def _pin_threads(argv):
    """Fix the BLAS thread count before numpy loads.

    An explicit ``--threads N`` overrides inherited thread variables; without
    it the count defaults to 1 unless the environment already sets one.
    """
    n = None
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            n = argv[i + 1]
        elif arg.startswith("--threads="):
            n = arg.split("=", 1)[1]
    for var in _THREAD_VARS:
        if n is None:
            os.environ.setdefault(var, "1")
        else:
            os.environ[var] = n


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CommandLineError(message)


def _thread_count(text):
    """``--threads`` value: an integer >= 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return n


def _build_parser():
    parser = _Parser(prog="fdl", description="Framelet denoising lab")
    parser.add_argument(
        "--threads", type=_thread_count, default=1, help="BLAS thread count, >= 1 (default 1)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("denoise", help="denoise a grayscale image")
    p.add_argument("input", help="PGM (P2/P5) or PNG image")
    p.add_argument(
        "--method",
        choices=("wavelet-shrink", "svd-lowrank", "model"),
        default="wavelet-shrink",
    )
    p.add_argument("--threshold", default="auto", help="shrinkage threshold, or 'auto' (MAD)")
    p.add_argument(
        "--activation",
        choices=("soft_shrink", "garrote", "dog_shrink"),
        default="soft_shrink",
    )
    p.add_argument("--undecimated", action="store_true", help="skip the factor-2 decimation")
    p.add_argument(
        "--rank",
        help="singular values to keep (svd-lowrank); a comma list runs the "
        "per-rank demo on a clean input",
    )
    p.add_argument(
        "--sigma", type=float, default=0.1, help="noise level for the per-rank demo"
    )
    p.add_argument("--checkpoint", help="model checkpoint directory (model)")
    p.add_argument("--bias-scale", type=float, default=1.0)
    p.add_argument("--zero-bias", action="store_true")
    p.add_argument("--reference", help="clean reference image for SNR metrics")
    p.add_argument("--out", help="run directory (default runs/denoise)")
    p.set_defaults(default_of=p.get_default)

    p = sub.add_parser("analyze-pr", help="perfect-reconstruction analysis of a network spec")
    p.add_argument("spec", help="spec JSON path or bundled name (unet, red, lwfsn, rlwfsn, toy)")
    p.add_argument("--out", help="optional run directory for the report")

    p = sub.add_parser("flops", help="operation count of a network spec")
    p.add_argument("spec", help="spec JSON path or bundled name")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--out", help="optional run directory for the report")

    p = sub.add_parser("train", help="train the reference model from a config file")
    p.add_argument("config", help="training config JSON")
    p.add_argument("--out", help="run directory (default runs/train-seed<seed>)")

    p = sub.add_parser("experiment", help="run a bundled experiment")
    p.add_argument("name", help="tight-frame | bias-zero | generalization")
    # unset protocol flags leave ExperimentConfig's defaults in place
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--images-per-epoch", type=int)
    p.add_argument("--image-size", type=int, help="training image side length")
    p.add_argument("--test-image-size", type=int)
    p.add_argument("--out", help="run directory (default runs/<name>-seed<seed>)")
    return parser


def _env_seed():
    raw = os.environ.get("FDL_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise CommandLineError(f"FDL_SEED must be an integer, got {raw!r}") from exc


def _write_file(run_dir, name, payload):
    """Write ``payload`` as ``name`` under ``run_dir`` in the format the
    extension of ``name`` names: a ``.pgm`` image, ``.csv`` rows, or JSON
    with sorted keys.  A name without an extension is a model checkpoint
    directory.  Returns the paths written, relative to ``run_dir``."""
    path = os.path.join(run_dir, name)
    if name.endswith(".pgm"):
        from fdl.pnm import write_pgm

        write_pgm(path, payload)
    elif name.endswith(".csv"):
        import csv

        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(payload)
    elif "." not in name:
        from fdl.training import save_checkpoint

        return [os.path.join(name, f) for f in save_checkpoint(payload, path)]
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return [name]


def _finish_run(run_dir, argv, started, config, files, seed=None):
    """Complete a run directory: write each ``name: payload`` of ``files``
    (see :func:`_write_file`), then ``manifest.json`` listing the files
    written.  Files an earlier run left in ``run_dir`` stay, unlisted.
    This is the one place that writes run files."""
    from fdl import __version__

    os.makedirs(run_dir, exist_ok=True)
    outputs = []
    for name, payload in files.items():
        outputs += _write_file(run_dir, name, payload)
    manifest = {
        "command": ["fdl"] + list(argv),
        "config": config,
        "seed": seed,
        "version": __version__,
        "outputs": sorted(outputs),
        "wall_clock_s": round(time.time() - started, 3),
    }
    _write_file(run_dir, "manifest.json", manifest)


def _json_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read(path, parse):
    """``parse(path)``; an unreadable file (``OSError``) or an unparseable one
    (a ``ValueError``, such as malformed JSON or a malformed image, or the
    ``RecursionError`` of JSON nested too deep) is an input error."""
    try:
        return parse(path)
    except OSError as exc:
        raise _IoError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise _IoError(f"cannot parse {path}: {exc}") from exc


def _resolve_spec(ref):
    import importlib.resources as resources

    from fdl.network import spec_from_json

    if os.path.exists(ref):
        return spec_from_json(_read(ref, _json_file))
    candidate = resources.files("fdl") / "specs" / f"{ref}.json"
    if candidate.is_file():
        return spec_from_json(json.loads(candidate.read_text(encoding="utf-8")))
    raise _IoError(f"no such spec file or bundled spec: {ref}")


def _naming(path, fn, *args):
    """``fn(*args)``; a bad parameter it raises on, such as a reference
    without an SNR (``metrics.snr_db``), is named by the file ``path``."""
    from fdl.errors import ConfigError

    try:
        return fn(*args)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# The denoise flags each method reads; any other must keep its default.  The
# per-rank demo takes its input as the clean image: it reads no --reference.
_DENOISE_READS = {
    "wavelet-shrink": ("threshold", "activation", "undecimated", "reference"),
    "svd-lowrank": ("rank", "reference"),
    "svd-lowrank with a --rank list": ("rank", "sigma"),
    "model": ("checkpoint", "bias_scale", "zero_bias", "reference"),
}


def _cmd_denoise(args):
    import numpy as np

    from fdl.activations import ActivationSpec
    from fdl.errors import ConfigError
    from fdl.framelets import denoise_framelet, framelet_forward, haar_dwt, map_thresholds
    from fdl.lowrank import lowrank_denoise_demo, lowrank_project
    from fdl.metrics import estimate_sigma_mad, snr_db
    from fdl.pnm import read_image
    from fdl.tensor import as_image

    demo = args.method == "svd-lowrank" and "," in (args.rank or "")
    method = "svd-lowrank with a --rank list" if demo else args.method
    for dest in sum(_DENOISE_READS.values(), ()):
        if dest not in _DENOISE_READS[method] and getattr(args, dest) != args.default_of(dest):
            raise CommandLineError(f"--{dest.replace('_', '-')} is not read by --method {method}")
    y = as_image(_read(args.input, read_image), "input image")
    params = {"method": args.method}
    out = None  # stays None for the per-rank demo, which writes its own images

    if args.method == "wavelet-shrink":
        basis = haar_dwt()
        decimated = not args.undecimated
        if args.threshold == "auto":
            sigma_hat = estimate_sigma_mad(y)
            bands = framelet_forward(basis, y, decimated=decimated)
            t = map_thresholds(basis, bands, sigma_hat)
            params.update(sigma_hat=sigma_hat, threshold=[float(v) for v in t])
        else:
            try:
                t = float(args.threshold)
            except ValueError:
                t = np.nan
            if not np.isfinite(t):
                raise ConfigError(f"--threshold must be a finite number or 'auto', got {args.threshold!r}")
            params.update(threshold=t)
        params.update(activation=args.activation, decimated=decimated)
        out = denoise_framelet(basis, y, ActivationSpec(args.activation, t=t), decimated=decimated)
    elif args.method == "svd-lowrank":
        if args.rank is None:
            raise ConfigError("svd-lowrank needs --rank")
        try:
            ranks = [int(r) for r in str(args.rank).split(",")]
        except ValueError as exc:
            raise ConfigError(f"--rank must be an integer or comma list, got {args.rank!r}") from exc
        if demo:
            if not 0 <= args.sigma < np.inf:
                raise ConfigError(f"--sigma must be a finite number >= 0, got {args.sigma}")
            report = _naming(args.input, lowrank_denoise_demo, y, args.sigma, ranks)
            params = {
                "method": "svd-lowrank-demo",
                "ranks": ranks,
                "sigma": args.sigma,
                "snr_noisy_input_db": report.snr_noisy_input,
                "snr_clean_recon_db": list(report.snr_clean),
                "snr_noisy_recon_db": list(report.snr_noisy),
            }
            images = report.files()
        else:
            (recon,) = lowrank_project(y[0, 0], ranks)
            out = recon[None, None]
            params.update(rank=ranks[0], n_sv=min(y.shape[2:]))
    else:  # model
        if not args.checkpoint:
            raise ConfigError("model method needs --checkpoint")
        if not np.isfinite(args.bias_scale):
            raise ConfigError(f"--bias-scale must be a finite number, got {args.bias_scale}")
        from fdl.training import load_checkpoint

        model = load_checkpoint(args.checkpoint)
        out = model.predict(y, bias_scale=args.bias_scale, zero_bias=args.zero_bias)
        params.update(
            checkpoint=args.checkpoint, bias_scale=args.bias_scale, zero_bias=args.zero_bias
        )

    metrics = dict(params)
    if out is not None:
        images = {"denoised.pgm": out}
        if args.reference:
            reference = as_image(_read(args.reference, read_image), "reference image")
            metrics["snr_input_db"] = _naming(args.reference, snr_db, reference, y)
            metrics["snr_output_db"] = snr_db(reference, out)
            metrics["snr_gain_db"] = metrics["snr_output_db"] - metrics["snr_input_db"]

    run_dir = args.out or os.path.join("runs", "denoise")
    return metrics, run_dir, params, {"metrics.json": metrics, **images}, None


def _cmd_analyze_pr(args):
    from fdl.analysis import pr_analyze

    payload = pr_analyze(_resolve_spec(args.spec)).to_json()
    return payload, args.out, {"spec": args.spec}, {"pr_report.json": payload}, None


def _cmd_flops(args):
    from fdl.analysis import count_flops

    total = count_flops(_resolve_spec(args.spec), args.rows, args.cols)
    payload = {"spec": args.spec, "rows": args.rows, "cols": args.cols, "flops": total}
    return total, args.out, payload, {"flops.json": payload}, None


def _cmd_train(args):
    from fdl.training import TrainConfig, train

    env_seed = _env_seed()
    cfg = TrainConfig.from_json(_read(args.config, _json_file))
    if env_seed is not None:
        cfg = dataclasses.replace(cfg, seed=env_seed)
    model, history = train(cfg)
    run_dir = args.out or os.path.join("runs", f"train-seed{cfg.seed}")
    files = {"checkpoint": model, "history.json": history.to_json()}
    last = history.epochs[-1] if history.epochs else {}
    return {"run_dir": run_dir, "final": last}, run_dir, cfg.to_json(), files, cfg.seed


def _cmd_experiment(args):
    from fdl.experiments import ExperimentConfig, run_named_experiment

    env_seed = _env_seed()
    side = args.image_size
    given = {
        "seed": args.seed if env_seed is None else env_seed,
        "epochs": args.epochs,
        "images_per_epoch": args.images_per_epoch,
        "image_size": None if side is None else (side, side),
        "test_image_size": args.test_image_size,
    }
    cfg = ExperimentConfig(**{name: v for name, v in given.items() if v is not None})
    run_dir = args.out or os.path.join("runs", f"{args.name}-seed{cfg.seed}")
    report = run_named_experiment(args.name, cfg)
    config = {"experiment": args.name, **dataclasses.asdict(cfg)}
    return report.to_json(), run_dir, config, report.files(), cfg.seed


_HANDLERS = {
    "denoise": _cmd_denoise,
    "analyze-pr": _cmd_analyze_pr,
    "flops": _cmd_flops,
    "train": _cmd_train,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _pin_threads(argv)
    started = time.time()
    try:
        args = _build_parser().parse_args(argv)
        shown, run_dir, config, files, seed = _HANDLERS[args.command](args)
        if run_dir is not None:
            try:
                _finish_run(run_dir, argv, started, config, files, seed)
            except OSError as exc:
                raise _IoError(f"cannot write run directory {run_dir}: {exc}") from exc
        print(json.dumps(shown, indent=2, sort_keys=True))
        return EXIT_OK
    except CommandLineError as exc:
        print(f"fdl: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (_IoError, FileNotFoundError) as exc:
        print(f"fdl: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # numpy's "Unable to allocate ..." included
        print(f"fdl: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:  # map package errors without importing them eagerly
        from fdl.errors import ConfigError, NumericError, ShapeError

        if isinstance(exc, NumericError):
            print(f"fdl: numeric failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        if isinstance(exc, (ConfigError, ShapeError)):
            print(f"fdl: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        raise


if __name__ == "__main__":
    sys.exit(main())
