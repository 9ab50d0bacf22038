"""The three benchmark workloads.

Each workload is a closed loop with one client: it issues an operation,
waits for the result, checks it and issues the next.  Inputs come from
the workload seed only.  Seeds change the data (images, noise, kernel
values, sizes, order) but each workload draws its operations from a fixed
multiset, so the cost profile of a run does not depend on the seed.

* ``train``: ``run_tight_frame_experiment`` at 64x64, the unit the slow
  acceptance gate repeats (two independent trainings plus the PCT probe).
* ``denoise``: in-process ``fdl denoise`` requests, an interleaved equal
  mix of ``model`` (256x256), ``wavelet-shrink`` and ``svd-lowrank``
  (512x512), reading and writing PGM files.
* ``analyze``: library calls on 16x16 probe grids (``pr_analyze``,
  ``count_flops``, ``check_phase_complementary``, ``equivalent_filter``),
  where per-call overhead dominates.

Run ``OPENBLAS_NUM_THREADS=1 python3 bench/workloads.py`` to rewrite the
committed training reference, ``reference_train.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference_train.json")

# One train operation: 2 trainings x 2 epochs x 16 images of 64x64.
TRAIN_EPOCHS = 2
TRAIN_IMAGES = 16
TRAIN_SIZE = 64
# Configuration of the committed reference history: the default seed on a
# smaller unit, so the check costs little of each run.
REFERENCE_SEED = 0
REFERENCE_IMAGES = 4


class Op:
    """One closed-loop operation: what to run and how much work it is."""

    __slots__ = ("kind", "args", "units")

    def __init__(self, kind, args, units=1):
        self.kind = kind
        self.args = args
        self.units = units


def _derived_seed(rng):
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def train_config(seed, images_per_epoch=TRAIN_IMAGES):
    from fdl.experiments import ExperimentConfig

    return ExperimentConfig(
        seed=seed,
        epochs=TRAIN_EPOCHS,
        images_per_epoch=images_per_epoch,
        image_size=(TRAIN_SIZE, TRAIN_SIZE),
    )


def reference_history():
    from fdl.experiments import run_tight_frame_experiment

    cfg = train_config(REFERENCE_SEED, REFERENCE_IMAGES)
    return run_tight_frame_experiment(cfg).to_json()["history"]


class Train:
    name = "train"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.dead_models = 0
        self.infinite_snr = 0
        self.trainings = 0

    def setup(self):
        from fdl import experiments

        self.experiments = experiments
        self.rng = np.random.default_rng((self.seed, 11))

    def forward_macs(self):
        """MACs of one forward pass, from the program's own count."""
        from fdl.analysis import count_flops
        from fdl.network import build_toy_spec

        return count_flops(build_toy_spec(), TRAIN_SIZE, TRAIN_SIZE)

    def pre_checks(self):
        """Gradient check on sampled kernel entries, then the committed
        reference history."""
        yield ("gradient", *self._gradient_check())
        with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
            reference = json.load(fh)
        history = reference_history()
        for label in ("shared", "independent"):
            ok, detail = checks.check_history_reference(history[label], reference[label])
            yield (f"reference history ({label})", ok, detail)

    def _gradient_check(self, entries_per_kernel=2, h=1e-6):
        from fdl import autodiff as ad
        from fdl.training import build_toy

        rng = np.random.default_rng((self.seed, 12))
        model = build_toy(seed=_derived_seed(rng), init_mode="shared_enc_dec")
        for bias in model.enc_biases + model.dec_biases:
            bias.value[:] = rng.uniform(-0.05, 0.05, size=bias.value.shape)
        clean = rng.uniform(0.0, 1.0, size=(1, 1, TRAIN_SIZE, TRAIN_SIZE))
        noisy = clean + rng.normal(scale=0.1, size=clean.shape)

        def loss_value():
            return float(ad.mse(model.forward(noisy), ad.constant(clean)).value)

        loss = ad.mse(model.forward(noisy), ad.constant(clean))
        ad.backward(loss)
        analytic, numeric = [], []
        for kernel in model.enc_kernels + model.dec_kernels:
            for _ in range(entries_per_kernel):
                idx = tuple(int(rng.integers(0, n)) for n in kernel.value.shape)
                analytic.append(float(kernel.grad[idx]))
                w = kernel.value[idx]
                kernel.value[idx] = w + h
                up = loss_value()
                kernel.value[idx] = w - h
                down = loss_value()
                kernel.value[idx] = w
                numeric.append((up - down) / (2 * h))
        return checks.check_gradient(analytic, numeric)

    def next_op(self):
        units = 2 * TRAIN_EPOCHS * TRAIN_IMAGES
        return Op("experiment", train_config(_derived_seed(self.rng)), units)

    def run(self, op):
        return self.experiments.run_tight_frame_experiment(op.args)

    def check(self, op, report):
        payload = report.to_json()["history"]
        for label in ("shared", "independent"):
            ok, detail = checks.check_finite_losses(payload[label])
            if not ok:
                return ok, f"{label}: {detail}"
            self.trainings += 1
            self.dead_models += checks.is_dead_history(payload[label])
            self.infinite_snr += checks.has_infinite_snr(payload[label])
        rng = np.random.default_rng((op.args.seed, 13))
        probe = rng.normal(0.5, 0.2, size=(1, 1, TRAIN_SIZE, TRAIN_SIZE))
        for model in (report.shared_model, report.independent_model):
            ok, detail = checks.check_close(
                model.predict(probe), model.forward(probe).value, "predict vs forward"
            )
            if not ok:
                return ok, detail
        return True, "finite losses, predict == forward"

    def summary(self):
        """Known outcomes, recorded and not filtered: dead models and
        trainings whose validation set holds a blank image."""
        return {
            "trainings": self.trainings,
            "dead_models": self.dead_models,
            "dead_model_note": "validation SNR exactly 0.00 dB in every epoch",
            "infinite_val_snr": self.infinite_snr,
            "infinite_val_snr_note": "val_snr_db is -inf: a blank validation image",
        }


# ---------------------------------------------------------------------------
# denoise
# ---------------------------------------------------------------------------

DENOISE_POOL = 3
SVD_RANKS = (8, 16, 32, 64)


def scene(rng, size):
    """Piecewise-constant image of seeded rectangles and disks in [0.1, 0.9]."""
    img = np.full((size, size), rng.uniform(0.1, 0.3))
    rr, cc = np.mgrid[0:size, 0:size]
    for _ in range(8):
        r0, c0 = rng.uniform(0, size, size=2)
        extent = rng.uniform(0.05, 0.3) * size
        value = rng.uniform(0.1, 0.9)
        if rng.random() < 0.5:
            img[(abs(rr - r0) < extent) & (abs(cc - c0) < extent / 2)] = value
        else:
            img[(rr - r0) ** 2 + (cc - c0) ** 2 < extent**2] = value
    return img


class Denoise:
    name = "denoise"
    METHODS = ("model", "wavelet", "svd")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self._references = {}

    def setup(self):
        from fdl import cli
        from fdl.training import build_toy, save_checkpoint

        self.cli = cli
        rng = np.random.default_rng((self.seed, 21))
        os.makedirs(self.workdir, exist_ok=True)
        self.inputs = {}
        for size in (256, 512):
            for j in range(DENOISE_POOL):
                clean = scene(rng, size)
                noisy = clean + rng.normal(scale=rng.uniform(0.05, 0.12), size=clean.shape)
                paths = {}
                for label, image in (("clean", clean), ("noisy", noisy)):
                    paths[label] = os.path.join(self.workdir, f"{label}{size}_{j}.pgm")
                    checks.write_pgm16(paths[label], image)
                self.inputs[(size, j)] = (paths, checks.quantize(noisy))

        model = build_toy(seed=_derived_seed(rng), init_mode="pct_delta")
        for kernel in model.enc_kernels + model.dec_kernels:
            kernel.value += rng.normal(scale=0.05, size=kernel.value.shape)
        for bias in model.enc_biases + model.dec_biases:
            bias.value[:] = rng.uniform(-0.05, 0.05, size=bias.value.shape)
        self.weights = [
            [k.value.copy() for k in model.enc_kernels],
            [b.value.copy() for b in model.enc_biases],
            [k.value.copy() for k in model.dec_kernels],
            [b.value.copy() for b in model.dec_biases],
        ]
        self.checkpoint = os.path.join(self.workdir, "checkpoint")
        save_checkpoint(model, self.checkpoint)
        self.rng = np.random.default_rng((self.seed, 22))
        self._queue = []

    def pre_checks(self):
        for j in range(DENOISE_POOL):
            self._model_reference(j)
            for rank in SVD_RANKS:
                self._svd_reference(j, rank)
        return ()

    def _model_reference(self, j):
        key = ("model", j)
        if key not in self._references:
            noisy = self.inputs[(256, j)][1]
            self._references[key] = checks.toy_forward_fft(*self.weights, noisy[None, None])
        return self._references[key]

    def _svd_reference(self, j, rank):
        key = ("svd", j, rank)
        if key not in self._references:
            noisy = self.inputs[(512, j)][1]
            energy = float(np.sum(noisy**2))
            self._references[key] = (energy, checks.discarded_energy(noisy, rank))
        return self._references[key]

    def next_op(self):
        """Methods come in shuffled blocks of three, so the mix stays equal."""
        if not self._queue:
            self._queue = [self.METHODS[i] for i in self.rng.permutation(3)]
        method = self._queue.pop()
        j = int(self.rng.integers(0, DENOISE_POOL))
        out = os.path.join(self.workdir, f"out-{method}")
        if method == "model":
            paths = self.inputs[(256, j)][0]
            argv = ["--method", "model", "--checkpoint", self.checkpoint,
                    "--reference", paths["clean"]]
            return Op(method, (j, None, paths["noisy"], argv + ["--out", out]))
        paths = self.inputs[(512, j)][0]
        if method == "wavelet":
            argv = ["--method", "wavelet-shrink", "--threshold", "auto",
                    "--reference", paths["clean"]]
            return Op(method, (j, None, paths["noisy"], argv + ["--out", out]))
        rank = SVD_RANKS[int(self.rng.integers(0, len(SVD_RANKS)))]
        # the reference is the input itself, so the reported SNR gives the
        # exact (unclipped) error energy of the low-rank output
        argv = ["--method", "svd-lowrank", "--rank", str(rank), "--reference", paths["noisy"]]
        return Op(method, (j, rank, paths["noisy"], argv + ["--out", out]))

    def run(self, op):
        _, _, path, argv = op.args
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(["denoise", path] + argv)

    def check(self, op, code):
        j, rank, _, argv = op.args
        if code != 0:
            return False, f"exit code {code}"
        out = argv[-1]
        with open(os.path.join(out, "metrics.json"), "r", encoding="utf-8") as fh:
            metrics = json.load(fh)
        if op.kind == "model":
            return checks.check_model_output(
                checks.read_pgm16(os.path.join(out, "denoised.pgm")), self._model_reference(j)
            )
        if op.kind == "wavelet":
            return checks.check_snr_gain(metrics["snr_gain_db"])
        energy, discarded = self._svd_reference(j, rank)
        return checks.check_svd_energy(energy, metrics["snr_output_db"], discarded)

    def summary(self):
        return {}


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

BUNDLED_WIDTHS = {"lwfsn": (64,), "red": (4, 8), "unet": (64, 128), "rlwfsn": (64,), "toy": (6, 12, 24)}
VARIANT_WIDTHS = {
    "lwfsn": [(4,), (8,), (16,), (24,), (32,)],
    "rlwfsn": [(4,), (8,), (12,), (16,), (32,)],
    "red": [(2, 4), (3, 8), (4, 8), (4, 12), (6, 16)],
    "unet": [(2, 4), (4, 8), (8, 16), (16, 32), (24, 48)],
    "toy": [(2, 4, 8), (3, 6, 12), (2, 5, 10), (4, 8, 16), (6, 12, 24)],
}
VARIANT_FILTERS = (3, 3, 5, 3, 5)
# One block of ten requests; its order is shuffled per block.
ANALYZE_BLOCK = ("pr",) * 4 + ("flops",) * 2 + ("pct",) * 2 + ("eqf",) * 2


class Analyze:
    name = "analyze"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        import fdl
        from fdl import analysis, framelets, network
        from fdl.activations import ActivationSpec

        self.analysis, self.framelets, self.network = analysis, framelets, network
        self.relu = ActivationSpec("relu_bias", t=0.0)
        rng = np.random.default_rng((self.seed, 31))
        builders = {
            "lwfsn": network.build_lwfsn,
            "rlwfsn": network.build_rlwfsn,
            "red": network.build_red,
            "unet": network.build_unet,
            "toy": lambda *w, n_f: network.build_toy_spec(w, n_f),
        }
        specs_dir = os.path.join(os.path.dirname(fdl.__file__), "specs")
        self.pool = []  # (family, widths, n_f, json payload, spec)
        for family, widths in BUNDLED_WIDTHS.items():
            with open(os.path.join(specs_dir, f"{family}.json"), "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            self.pool.append((family, widths, 3, payload, network.spec_from_json(payload)))
        for family, choices in VARIANT_WIDTHS.items():
            for widths, n_f in zip(choices, VARIANT_FILTERS):
                spec = builders[family](*widths, n_f=n_f)
                self.pool.append((family, widths, n_f, network.spec_to_json(spec), spec))
        self.rng = np.random.default_rng((self.seed, 32))
        self._queue = []
        self._cycles = {"pr": [], "flops": []}

    def pre_checks(self):
        return ()

    def _next_item(self, kind):
        """Cycle through the spec pool in a fresh seeded order each pass."""
        cycle = self._cycles[kind]
        if not cycle:
            cycle.extend(self.rng.permutation(len(self.pool)).tolist())
        return self.pool[cycle.pop()]

    def next_op(self):
        if not self._queue:
            self._queue = [ANALYZE_BLOCK[i] for i in self.rng.permutation(len(ANALYZE_BLOCK))]
        kind = self._queue.pop()
        rng = self.rng
        if kind in ("pr", "flops"):
            item = self._next_item(kind)
            if kind == "pr":
                return Op(kind, item)
            n_r, n_c = (2 * int(v) for v in rng.integers(4, 257, size=2))
            return Op(kind, (item, n_r, n_c))
        if kind == "pct":
            c = int(rng.integers(1, 4))
            if rng.random() < 0.5:
                m = int(rng.integers(2, 9))
                k = rng.normal(size=(m, c, 3, 3))
                k_tilde = rng.normal(size=(m, c, 3, 3))
            else:
                scale = rng.uniform(0.5, 2.0)
                k = np.zeros((2 * c, c, 3, 3))
                for ch in range(c):
                    k[2 * ch, ch, 1, 1] = scale
                    k[2 * ch + 1, ch, 1, 1] = -scale
                k_tilde = k.copy()
            return Op(kind, (k, k_tilde))
        n_f = int(rng.choice((3, 5)))
        head = rng.normal(size=(1, 1, n_f, n_f))
        scale = rng.uniform(0.5, 2.0)
        enc = np.zeros((2, 1, 3, 3))
        enc[0, 0, 1, 1], enc[1, 0, 1, 1] = scale, -scale
        return Op(kind, (head, enc, scale, n_f))

    def run(self, op):
        network, analysis = self.network, self.analysis
        if op.kind == "pr":
            return analysis.pr_analyze(network.spec_from_json(op.args[3]))
        if op.kind == "flops":
            item, n_r, n_c = op.args
            return analysis.count_flops(item[4], n_r, n_c)
        if op.kind == "pct":
            return self.framelets.check_phase_complementary(*op.args)
        head, enc, _, n_f = op.args
        relu = network.Activation(self.relu)
        spec = network.NetworkSpec(
            layers=(
                network.Conv(1, 1, n_f, bias=False),
                network.Conv(2, 1, 3, bias=False),
                relu,
                network.Conv(1, 2, 3, bias=False),
            )
        )
        net = network.Network(spec, [(head, None), (enc, None), (np.swapaxes(enc, 0, 1), None)])
        return analysis.equivalent_filter(net, grid=self._eqf_grid(n_f))

    @staticmethod
    def _eqf_grid(n_f):
        return 2 * (1 + n_f // 2) + 2

    def check(self, op, result):
        if op.kind == "pr":
            return checks.check_pr_verdict(op.args[0], result)
        if op.kind == "flops":
            (family, widths, n_f, _, _), n_r, n_c = op.args
            return checks.check_flops(family, widths, n_r, n_c, n_f, result)
        if op.kind == "pct":
            k, k_tilde = op.args
            return checks.check_pct_report(result, k, k_tilde, grid=8)
        head, _, scale, n_f = op.args
        expected = checks.embedded_filter(head, self._eqf_grid(n_f), scale**2)
        return checks.check_close(result, expected, "equivalent filter", atol=1e-12)

    def summary(self):
        return {}


WORKLOADS = {w.name: w for w in (Train, Denoise, Analyze)}


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    history = reference_history()
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(history, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")
