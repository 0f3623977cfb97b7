#!/usr/bin/env python3
"""Self-test of the benchmark's reference check.

    python3 perfbench/selftest.py

Samples 2 images of each kind at the toy_sample shape and runs the same
check the benchmark runs (`run.check_reference`: images against the float64
reference sampler). The unmodified program must pass it. Then each mutation
below is patched into the loaded program in turn, and the check must fail for
the kind the mutation touches. Exits 1 if the clean program fails or a
mutation goes unnoticed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys

import run


@contextlib.contextmanager
def patched(owner, attr, value):
    old = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, old)


def mutations():
    from ditlab import caching, schedule
    from ditlab.autodiff import Tensor
    from ditlab.schedule import InferencePlan

    ilf_forward = schedule.ilf_forward
    cached_run_block = caching.cached_run_block

    def s_ignored(model, fs, *args, **kwargs):
        zero = Tensor(fs.s.data * 0.0)
        return ilf_forward(model, dataclasses.replace(fs, s=zero), *args, **kwargs)

    def never_refresh(model, idx, h, cond, store, refresh):
        return cached_run_block(model, idx, h, cond, store, refresh and not store.valid(idx))

    return {
        "t_post = t/2": ("ilf", patched(InferencePlan, "t_post", lambda self, k: self.steps[k] / 2)),
        "t_post = t": ("ilf", patched(InferencePlan, "t_post", lambda self, k: self.steps[k])),
        "s ignored": ("ilf", patched(schedule, "ilf_forward", s_ignored)),
        "cache never refreshes": ("cached", patched(caching, "cached_run_block", never_refresh)),
    }


def failing_kinds(bench) -> tuple:
    first = {kind: (7, bench.sample(kind, 7, 2)) for kind in run.KINDS}
    problems = []
    errors = run.check_reference(bench, first, problems)
    return {p.split(":")[0] for p in problems}, errors


def main() -> int:
    run._import_program()
    bench = run.Bench(run.WORKLOADS["toy_sample"], seed=3)
    ok = True
    bad, errors = failing_kinds(bench)
    print(f"clean program: rel. errors {errors}")
    if bad:
        print(f"FAIL: the clean program fails the check for {sorted(bad)}")
        ok = False
    for name, (kind, patch) in mutations().items():
        with patch:
            bad, errors = failing_kinds(bench)
        caught = kind in bad
        print(f"mutation {name!r}: {kind} rel. error {errors[kind]:.3g} -> "
              f"{'caught' if caught else 'NOT CAUGHT'}")
        ok &= caught
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
