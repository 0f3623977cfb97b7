"""The benchmark under perfbench/ reaches into ditlab by name: it wraps and
patches public functions and methods from outside. These tests fail when a
name it relies on is renamed or its reference check stops working."""

import importlib
import math
import os
import subprocess
import sys

import ditlab  # noqa: F401  (the tracer patches the loaded ditlab modules)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_selftest_catches_every_planted_fault():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout


def _perfbench_module(name: str):
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.pop(0)


def test_tracer_installs_and_uninstalls():
    Tracer = _perfbench_module("layertrace").Tracer
    from ditlab import optim, schedule, training

    originals = (schedule.sample, schedule.ddim_step, schedule.ilf_forward,
                 training.train_backbone, optim.Adam.step)
    tracer = Tracer()
    try:
        tracer.install()
        assert schedule.sample is not originals[0]
        assert schedule.ilf_forward is not originals[2]
    finally:
        tracer.uninstall()
    assert (schedule.sample, schedule.ddim_step, schedule.ilf_forward,
            training.train_backbone, optim.Adam.step) == originals


def test_training_calls_run():
    """One iteration of each trainer, called as the benchmark calls them."""
    run = _perfbench_module("run")
    bench = run.Bench(run.WORKLOADS["toy_train"], 41)
    done = []
    backbone = bench.train_backbone(1, lambda: done.append("backbone"))
    feedback = bench.train_feedback(1, lambda: done.append("feedback"))
    assert done == ["backbone", "feedback"]
    assert len(backbone) == 1 and math.isfinite(backbone[0])
    assert len(feedback) == 1 and all(math.isfinite(v) for v in feedback[0])


def test_correctness_checks_pass_after_feedback_training():
    """The benchmark's held-out backbone loss (an unbatched DiT.forward) and
    its feedback gradient check (an ilf_forward that records a tape, against
    float64 central differences) report no problem on the toy_train set-up."""
    run = _perfbench_module("run")
    bench = run.Bench(run.WORKLOADS["toy_train"], 41)
    bench.train_feedback(1, lambda: None)
    assert math.isfinite(run.backbone_eval_loss(bench))
    problems = []
    worst = run.check_feedback_gradients(bench, problems)
    assert problems == []
    assert worst <= run.GRAD_REL_TOL
