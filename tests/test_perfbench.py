"""The benchmark under perfbench/ reaches into ditlab by name: it wraps and
patches public functions and methods from outside. These tests fail when a
name it relies on is renamed or its reference check stops working."""

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


def test_tracer_installs_and_uninstalls():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from layertrace import Tracer
    finally:
        sys.path.pop(0)
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
