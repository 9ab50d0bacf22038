"""Command-line interface.

Subcommands: denoise, analyze-pr, flops, train, experiment.  Every command
that produces files does so under one run directory (``--out``, or a
default under ``./runs``) containing a ``manifest.json`` with the command
line, the resolved configuration, the seed, and the files written.
Re-running a command with the same arguments and ``--threads 1``
reproduces every output byte for byte (the manifest differs only in its
wall-clock field).

Exit codes: 0 success, 2 unreadable input, 3 bad parameters or config,
4 numeric failure.

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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=25)
    p.add_argument("--images-per-epoch", type=int, default=192)
    p.add_argument("--image-size", type=int, default=64, help="training image side length")
    p.add_argument("--test-image-size", type=int, default=256)
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

        manifest = save_checkpoint(payload, path)
        entries = _read_json(manifest)["parameters"]
        return [os.path.join(name, f) for f in ["checkpoint.json"] + [e["file"] for e in entries]]
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
    os.makedirs(run_dir, exist_ok=True)
    outputs = []
    for name, payload in files.items():
        outputs += _write_file(run_dir, name, payload)
    manifest = {
        "command": ["fdl"] + list(argv),
        "config": config,
        "seed": seed,
        "version": _version(),
        "outputs": sorted(outputs),
        "wall_clock_s": round(time.time() - started, 3),
    }
    _write_file(run_dir, "manifest.json", manifest)


def _version():
    from fdl import __version__

    return __version__


def _read_json(path):
    """Parsed JSON file; an unreadable or unparseable file is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _IoError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON or not UTF-8
        raise _IoError(f"cannot parse {path}: {exc}") from exc


def _resolve_spec(ref):
    import importlib.resources as resources

    from fdl.network import spec_from_json

    if os.path.exists(ref):
        return spec_from_json(_read_json(ref))
    candidate = resources.files("fdl") / "specs" / f"{ref}.json"
    if candidate.is_file():
        return spec_from_json(json.loads(candidate.read_text(encoding="utf-8")))
    raise _IoError(f"no such spec file or bundled spec: {ref}")


def _read_input_image(path):
    from fdl.errors import FdlError
    from fdl.pnm import read_image

    try:
        return read_image(path)
    except OSError as exc:
        raise _IoError(f"cannot read {path}: {exc}") from exc
    except FdlError as exc:
        raise _IoError(f"cannot parse {path}: {exc}") from exc


def _cmd_denoise(args, argv):
    import numpy as np

    from fdl.activations import ActivationSpec
    from fdl.errors import ConfigError
    from fdl.framelets import denoise_framelet, detail_band_mask, framelet_forward, haar_dwt
    from fdl.lowrank import lowrank_approx, svd
    from fdl.metrics import estimate_sigma_mad, snr_db
    from fdl.tensor import as_image

    started = time.time()
    y = as_image(_read_input_image(args.input), "input image")
    params = {"method": args.method}
    out = None  # stays None for the per-rank demo, which writes its own images

    if args.method == "wavelet-shrink":
        basis = haar_dwt().basis()
        decimated = not args.undecimated
        if args.threshold == "auto":
            sigma_hat = estimate_sigma_mad(y)
            bands = framelet_forward(basis, y, decimated=decimated)
            detail = detail_band_mask(basis)
            sigma_d = np.sqrt(
                np.maximum(bands[detail].var(axis=(1, 2, 3)) - sigma_hat**2, 1e-12)
            )
            t = sigma_hat**2 / sigma_d
            params.update(sigma_hat=sigma_hat, threshold=[float(v) for v in t])
        else:
            try:
                t = float(args.threshold)
            except ValueError as exc:
                raise ConfigError(f"--threshold must be a number or 'auto', got {args.threshold!r}") from exc
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
        if len(ranks) > 1:
            # per-rank demo: the input is treated as the clean reference
            from fdl.lowrank import lowrank_denoise_demo

            demo = lowrank_denoise_demo(y, sigma=args.sigma, ranks=ranks, seed=0)
            params = {
                "method": "svd-lowrank-demo",
                "ranks": ranks,
                "sigma": args.sigma,
                "snr_noisy_input_db": demo.snr_noisy_input,
                "snr_clean_recon_db": list(demo.snr_clean),
                "snr_noisy_recon_db": list(demo.snr_noisy),
            }
            images = demo.files()
        else:
            factors = svd(y[0, 0])
            out = lowrank_approx(factors, ranks[0])[None, None]
            params.update(rank=ranks[0], n_sv=factors.n_sv)
    else:  # model
        if not args.checkpoint:
            raise ConfigError("model method needs --checkpoint")
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
            reference = as_image(_read_input_image(args.reference), "reference image")
            metrics["snr_input_db"] = snr_db(reference, y)
            metrics["snr_output_db"] = snr_db(reference, out)
            metrics["snr_gain_db"] = metrics["snr_output_db"] - metrics["snr_input_db"]

    run_dir = args.out or os.path.join("runs", "denoise")
    _finish_run(run_dir, argv, started, params, {"metrics.json": metrics, **images})
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_analyze_pr(args, argv):
    from fdl.analysis import pr_analyze

    started = time.time()
    spec = _resolve_spec(args.spec)
    report = pr_analyze(spec)
    payload = report.to_json()
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        _finish_run(args.out, argv, started, {"spec": args.spec}, {"pr_report.json": payload})
    return EXIT_OK


def _cmd_flops(args, argv):
    from fdl.analysis import count_flops

    started = time.time()
    spec = _resolve_spec(args.spec)
    total = count_flops(spec, args.rows, args.cols)
    print(total)
    if args.out:
        payload = {"spec": args.spec, "rows": args.rows, "cols": args.cols, "flops": total}
        _finish_run(args.out, argv, started, payload, {"flops.json": payload})
    return EXIT_OK


def _cmd_train(args, argv):
    from fdl.training import TrainConfig, build_toy, train

    started = time.time()
    env_seed = _env_seed()
    cfg = TrainConfig.from_json(_read_json(args.config))
    if env_seed is not None:
        cfg = dataclasses.replace(cfg, seed=env_seed)
    model = build_toy(seed=cfg.seed, init_mode=cfg.init_mode, bias_mode=cfg.bias_mode)
    history = train(model, cfg)
    run_dir = args.out or os.path.join("runs", f"train-seed{cfg.seed}")
    files = {"checkpoint": model, "history.json": history.to_json()}
    _finish_run(run_dir, argv, started, cfg.to_json(), files, cfg.seed)
    last = history.epochs[-1] if history.epochs else {}
    print(json.dumps({"run_dir": run_dir, "final": last}, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_experiment(args, argv):
    from fdl.experiments import ExperimentConfig, run_named_experiment

    started = time.time()
    seed = _env_seed()
    seed = args.seed if seed is None else seed
    cfg = ExperimentConfig(
        seed=seed,
        epochs=args.epochs,
        images_per_epoch=args.images_per_epoch,
        image_size=(args.image_size, args.image_size),
        test_image_size=args.test_image_size,
    )
    run_dir = args.out or os.path.join("runs", f"{args.name}-seed{seed}")
    report = run_named_experiment(args.name, cfg)
    config = {"experiment": args.name, **dataclasses.asdict(cfg)}
    _finish_run(run_dir, argv, started, config, report.files(), seed=seed)
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    return EXIT_OK


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
    try:
        args = _build_parser().parse_args(argv)
        return _HANDLERS[args.command](args, argv)
    except CommandLineError as exc:
        print(f"fdl: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (_IoError, FileNotFoundError) as exc:
        print(f"fdl: {exc}", file=sys.stderr)
        return EXIT_IO
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
