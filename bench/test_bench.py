"""Tests of the benchmark itself: tracer hygiene, self time and the output
checks.  Run from the repository root with ``python3 -m pytest bench``."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def _all_fdl_attributes():
    """Identity of every attribute of the loaded fdl modules and classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "fdl" or name.startswith("fdl."):
            for attr, value in vars(module).items():
                out[(name, attr)] = id(value)
                if isinstance(value, type) and value.__module__ == name:
                    for meth, member in vars(value).items():
                        out[(name, attr, meth)] = id(member)
    return out


@pytest.fixture(scope="module")
def analyze(tmp_path_factory):
    import fdl.cli
    import fdl.experiments
    import fdl.lowrank
    import fdl.pnm  # noqa: F401  load every module a boundary lives in

    workload = workloads.Analyze(5, str(tmp_path_factory.mktemp("analyze")))
    workload.setup()
    return workload


@pytest.fixture(scope="module")
def denoise(tmp_path_factory):
    workload = workloads.Denoise(5, str(tmp_path_factory.mktemp("denoise")))
    workload.setup()
    return workload


class TestTracer:
    def test_traced_run_restores_every_attribute(self, analyze):
        before = _all_fdl_attributes()
        tracer = Tracer()
        layers.install_boundaries(tracer)
        assert _all_fdl_attributes() == before, "declaring boundaries must not patch"
        for i in range(12):
            op = analyze.next_op()
            with tracer.active(i):
                result = analyze.run(op)
            assert analyze.check(op, result)[0]
        assert tracer.spans
        assert _all_fdl_attributes() == before
        for owner, attr, original in tracer.patched_attributes():
            assert vars(owner)[attr] is original

    def test_patches_reach_from_imports(self, analyze):
        import fdl.autodiff
        import fdl.framelets
        import fdl.tensor
        import fdl.training

        tracer = Tracer()
        layers.install_boundaries(tracer)
        with tracer.active(0):
            for module, attr in (
                (fdl.tensor, "_conv_forward"),
                (fdl.tensor, "_shift_stack"),
                (fdl.autodiff, "apply_activation"),
                (fdl.training, "gen_triangles"),
                (fdl.framelets, "conv2d"),
            ):
                assert hasattr(getattr(module, attr), "__wrapped__"), f"{module.__name__}.{attr}"

    def test_untraced_run_records_no_spans(self, analyze):
        tracer = Tracer()
        layers.install_boundaries(tracer)
        op = analyze.next_op()
        with tracer.active(0):
            analyze.run(op)
        recorded, counted = len(tracer.spans), dict(tracer.counts)
        for _ in range(12):
            analyze.run(analyze.next_op())
        assert len(tracer.spans) == recorded
        assert dict(tracer.counts) == counted

    def test_exception_inside_active_restores(self):
        tracer = Tracer()
        layers.install_boundaries(tracer)
        before = _all_fdl_attributes()
        with pytest.raises(ZeroDivisionError):
            with tracer.active(0):
                1 / 0
        assert _all_fdl_attributes() == before
        assert tracer.spans[-1][0] == "op"

    def test_training_spans_carry_one_id_per_image(self):
        from fdl.experiments import run_tight_frame_experiment

        tracer = Tracer()
        layers.install_boundaries(tracer)
        cfg = dataclasses.replace(workloads.train_config(3), epochs=1, images_per_epoch=3)
        with tracer.active(7):
            run_tight_frame_experiment(cfg)
        forwards = [s[4] for s in tracer.spans if s[0] == "training.forward"]
        assert forwards == ["7.1", "7.2", "7.3", "7.4", "7.5", "7.6"]
        steps = [s[4] for s in tracer.spans if s[0] == "optim.adam_step"]
        assert steps == forwards


class TestSelfTime:
    def test_self_time_is_span_minus_children(self):
        spans = [
            ["op", 0.0, 10.0, -1, 0, None],
            ["a", 1.0, 4.0, 0, 0, None],
            ["b", 1.5, 2.0, 1, 0, None],
            ["c", 5.0, 9.0, 0, 0, None],
        ]
        assert self_times(spans) == [10.0 - 3.0 - 4.0, 3.0 - 0.5, 0.5, 4.0]

    def test_self_times_partition_a_real_trace(self, analyze):
        tracer = Tracer()
        layers.install_boundaries(tracer)
        for i in range(20):
            with tracer.active(i):
                analyze.run(analyze.next_op())
        spans = tracer.spans
        own = self_times(spans)
        for i, span in enumerate(spans):
            children = sum(s[2] - s[1] for s in spans if s[3] == i)
            assert own[i] == pytest.approx(span[2] - span[1] - children, abs=1e-12)
            assert own[i] >= -1e-9
        roots = sum(s[2] - s[1] for s in spans if s[3] == -1)
        assert sum(own) == pytest.approx(roots, rel=1e-9)


class TestChecksRejectCorruptedOutputs:
    def test_model_output(self, denoise):
        op = next(o for o in iter(denoise.next_op, None) if o.kind == "model")
        assert denoise.check(op, denoise.run(op))[0]
        path = os.path.join(op.args[3][-1], "denoised.pgm")
        image = checks.read_pgm16(path)
        image[7, 9] += 2.0 / checks.PGM_MAX if image[7, 9] < 0.5 else -2.0 / checks.PGM_MAX
        checks.write_pgm16(path, image)
        ok, detail = denoise.check(op, 0)
        assert not ok, detail

    def test_svd_energy(self, denoise):
        op = next(o for o in iter(denoise.next_op, None) if o.kind == "svd")
        assert denoise.check(op, denoise.run(op))[0]
        energy, discarded = denoise._svd_reference(op.args[0], op.args[1])
        snr = 10 * np.log10(energy / discarded)
        assert checks.check_svd_energy(energy, snr, discarded)[0]
        assert not checks.check_svd_energy(energy, snr + 1e-3, discarded)[0]
        assert not checks.check_svd_energy(energy, float("nan"), discarded)[0]

    def test_wavelet_gain_and_exit_code(self, denoise):
        op = next(o for o in iter(denoise.next_op, None) if o.kind == "wavelet")
        assert denoise.check(op, denoise.run(op))[0]
        assert not checks.check_snr_gain(-0.1)[0]
        assert not checks.check_snr_gain(float("nan"))[0]
        assert not denoise.check(op, 3)[0]

    def test_training_outputs(self):
        history = {"epochs": [{"epoch": 0, "lr": 1e-3, "train_loss": 0.05, "val_mse": 0.02, "val_snr_db": 7.3}]}
        assert checks.check_finite_losses(history)[0]
        bad = json.loads(json.dumps(history))
        bad["epochs"][0]["train_loss"] = float("nan")
        assert not checks.check_finite_losses(bad)[0]
        blank = json.loads(json.dumps(history))
        blank["epochs"][0]["val_snr_db"] = float("-inf")
        assert checks.check_finite_losses(blank)[0] and checks.has_infinite_snr(blank)

        rounding = json.loads(json.dumps(history))
        rounding["epochs"][0]["val_mse"] *= 1 + 1e-12
        assert checks.check_history_reference(rounding, history)[0]
        precision = json.loads(json.dumps(history))
        precision["epochs"][0]["val_mse"] *= 1 + 1e-6
        assert not checks.check_history_reference(precision, history)[0]

        dead = json.loads(json.dumps(history))
        dead["epochs"][0]["val_snr_db"] = 0.0
        assert checks.is_dead_history(dead) and not checks.is_dead_history(history)

        assert checks.check_gradient([1.0, 2.0], [1.0, 2.0 + 1e-12])[0]
        assert not checks.check_gradient([1.0, 2.0], [1.0, 2.1])[0]
        assert not checks.check_gradient([1.0, 2.0], [1.0, -2.0])[0]
        a = np.ones((1, 1, 4, 4))
        assert not checks.check_close(a, a + 1e-9, "predict vs forward")[0]

    def test_train_check_rejects_predict_mismatch(self):
        from fdl.experiments import run_tight_frame_experiment
        from fdl.training import ToyModel

        cfg = dataclasses.replace(workloads.train_config(3), epochs=1, images_per_epoch=2)
        report = run_tight_frame_experiment(cfg)
        train = workloads.Train(3, None)
        op = workloads.Op("experiment", cfg, 4)
        assert train.check(op, report)[0]
        original = ToyModel.predict
        try:
            ToyModel.predict = lambda self, y, **kw: original(self, y, **kw) * (1 + 1e-9)
            assert not train.check(op, report)[0]
        finally:
            ToyModel.predict = original

    def test_analysis_outputs(self, analyze):
        from fdl.analysis import count_flops, pr_analyze
        from fdl.framelets import check_phase_complementary
        from fdl.network import build_unet

        report = pr_analyze(build_unet(4, 8))
        assert checks.check_pr_verdict("unet", report)[0]
        assert not checks.check_pr_verdict("unet", dataclasses.replace(report, gain_dc=1.0))[0]
        assert not checks.check_pr_verdict("lwfsn", report)[0]

        flops = count_flops(build_unet(4, 8), 32, 48)
        assert checks.check_flops("unet", (4, 8), 32, 48, 3, flops)[0]
        assert not checks.check_flops("unet", (4, 8), 32, 48, 3, flops + 1)[0]

        rng = np.random.default_rng(0)
        k, kt = rng.normal(size=(4, 2, 3, 3)), rng.normal(size=(4, 2, 3, 3))
        pct = check_phase_complementary(k, kt)
        assert checks.check_pct_report(pct, k, kt, grid=8)[0]
        corrupted = dataclasses.replace(pct, response=pct.response + 1e-6)
        assert not checks.check_pct_report(corrupted, k, kt, grid=8)[0]
        assert not checks.check_pct_report(dataclasses.replace(pct, is_pct=not pct.is_pct), k, kt, grid=8)[0]

        op = next(o for o in iter(analyze.next_op, None) if o.kind == "eqf")
        result = analyze.run(op)
        assert analyze.check(op, result)[0]
        result[0, 0, 0, 0] += 1e-9
        assert not analyze.check(op, result)[0]

    def test_fft_conv_matches_program(self):
        from fdl.tensor import conv2d

        rng = np.random.default_rng(1)
        for n_f in (1, 3, 5):
            k, x = rng.normal(size=(3, 2, n_f, n_f)), rng.normal(size=(2, 2, 8, 10))
            np.testing.assert_allclose(checks.fft_conv(k, x), conv2d(k, x), atol=1e-12)


class TestContract:
    def test_benchmark_json_matches_reported_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
        assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

    def test_fails_without_the_program(self, tmp_path):
        shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "analyze", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
