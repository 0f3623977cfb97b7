"""scripts/bench_json.py on fake perfbench runs: nothing here starts a
benchmark process."""

import importlib.util
import json
import os
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_json", os.path.join(ROOT, "scripts", "bench_json.py"))
bench_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_json)

METRICS = [{"name": "ms", "unit": "ms", "better": "lower"},
           {"name": "rss", "unit": "MB", "better": "lower"}]


def ok_run(seed, ms, failed=0, correct=True):
    return {"seed": seed, "correct": correct, "attempted": 10, "failed": failed,
            "metrics": {"ms": ms, "rss": 100.0}}


def test_quartiles_on_known_lists():
    assert bench_json.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert bench_json.quartiles([1.0, 2.0, 3.0, 4.0]) == {
        "median": 2.5, "q1": 1.75, "q3": 3.25, "n": 4}
    assert bench_json.quartiles([7.5]) == {"median": 7.5, "q1": 7.5, "q3": 7.5, "n": 1}


def test_errored_run_is_left_out_of_the_medians_and_fails_all_correct():
    runs = [ok_run(1, 10.0), {"seed": 2, "error": "exit 1: boom"}, ok_run(3, 30.0, failed=2)]
    out = bench_json.summarize(runs, METRICS)
    assert out["all_correct"] is False
    assert out["runs"] is runs
    assert out["metrics"]["ms"] == {"unit": "ms", "better": "lower",
                                    "median": 20.0, "q1": 15.0, "q3": 25.0, "n": 2}
    assert (out["failed_ops"], out["attempted_ops"]) == (2, 20)

    assert bench_json.summarize([ok_run(1, 10.0), ok_run(2, 12.0)], METRICS)["all_correct"]
    wrong = bench_json.summarize([ok_run(1, 10.0), ok_run(2, 12.0, correct=False)], METRICS)
    assert wrong["all_correct"] is False
    assert bench_json.summarize([{"seed": 1, "error": "x"}], METRICS)["metrics"] == {}


def test_checkouts_alternate_and_each_gets_its_file(tmp_path, monkeypatch):
    checkouts = {}
    for label in ("a", "b"):
        path = tmp_path / label
        (path / "perfbench").mkdir(parents=True)
        (path / "perfbench" / "run.py").write_text("")
        checkouts[label] = str(path)
    calls = []

    def fake_run(path, workload, seed, seconds):
        calls.append((os.path.basename(path), workload, seed))
        if path == checkouts["b"] and seed == 2:
            return {"seed": seed, "error": "exit 1: boom"}
        return {**ok_run(seed, 0.0), "metrics": {"setup_s": float(seed)},
                "header": "workload w blas_threads 1"}

    monkeypatch.setattr(bench_json, "run_once", fake_run)
    monkeypatch.chdir(tmp_path)
    assert bench_json.main([f"{lb}={p}" for lb, p in checkouts.items()]
                           + ["--seeds", "1", "2", "3"]) == 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    first = workloads[0]
    assert [c for c in calls if c[1] == first] == [
        ("a", first, 1), ("b", first, 1), ("b", first, 2), ("a", first, 2),
        ("a", first, 3), ("b", first, 3)]
    a, b = (json.loads((tmp_path / f"BENCH_{lb}.json").read_text()) for lb in ("a", "b"))
    assert a["alternated_with"] == ["b"] and a["tier1"] is None
    assert a["environment"]["blas_threads"] == ["1"]
    assert sorted(a["workloads"]) == sorted(workloads)
    assert [r["position"] for r in a["workloads"][first]["runs"]] == [0, 1, 0]
    assert a["workloads"][first]["all_correct"]
    assert not b["workloads"][first]["all_correct"]
    assert a["workloads"][first]["metrics"]["setup_s"]["median"] == 2.0
    assert b["workloads"][first]["metrics"]["setup_s"]["median"] == 2.0  # seeds 1 and 3
    assert b["workloads"][first]["metrics"]["setup_s"]["n"] == 2


def test_each_file_holds_its_verdict_against_the_other_checkout(tmp_path, monkeypatch):
    checkouts = {}
    for label in ("a", "b"):
        (tmp_path / label / "perfbench").mkdir(parents=True)
        (tmp_path / label / "perfbench" / "run.py").write_text("")
        checkouts[label] = str(tmp_path / label)
    setup = {"a": {1: 1.0, 2: 2.0, 3: 3.0}, "b": {1: 1.5, 2: 1.0, 3: 4.0}}  # lower is better
    iters = {"a": {1: 10.0, 2: 10.0, 3: 10.0}, "b": {1: 10.0, 2: 7.0, 3: 7.0}}  # higher

    def fake_run(path, workload, seed, seconds):
        label = os.path.basename(path)
        return {**ok_run(seed, 0.0), "metrics": {"setup_s": setup[label][seed],
                                                 "backbone_train_iters_per_s": iters[label][seed]}}

    monkeypatch.setattr(bench_json, "run_once", fake_run)
    monkeypatch.chdir(tmp_path)
    assert bench_json.main([f"{lb}={p}" for lb, p in checkouts.items()]
                           + ["--seeds", "1", "2", "3"]) == 0
    a, b = (json.loads((tmp_path / f"BENCH_{lb}.json").read_text()) for lb in ("a", "b"))
    first = sorted(a["workloads"])[0]
    a_vs, b_vs = a["workloads"][first]["versus"]["b"], b["workloads"][first]["versus"]["a"]
    assert sorted(a_vs) == sorted(b_vs) == ["backbone_train_iters_per_s", "setup_s"]
    # setup_s: medians 2.0 against 1.5; 2.0 > 1.5 * 1.25, so a is worse beyond the bound
    assert a_vs["setup_s"] == {"other_median": 1.5, "ratio": 2.0 / 1.5, "better_on": 2,
                               "pairs": 3, "worse_beyond_bound": True}
    assert b_vs["setup_s"] == {"other_median": 2.0, "ratio": 0.75, "better_on": 1,
                               "pairs": 3, "worse_beyond_bound": False}
    # iters/s: medians 7.0 against 10.0; 7.0 < 10.0 * 0.75, and seed 1 is a tie
    assert b_vs["backbone_train_iters_per_s"] == {
        "other_median": 10.0, "ratio": 0.7, "better_on": 0, "pairs": 3,
        "worse_beyond_bound": True}
    assert a_vs["backbone_train_iters_per_s"]["better_on"] == 2
    assert not a_vs["backbone_train_iters_per_s"]["worse_beyond_bound"]


def test_bad_checkout_or_seed_is_refused(tmp_path):
    with pytest.raises(SystemExit):
        bench_json.main([f"x={tmp_path}", "--seeds", "1"])
    with pytest.raises(SystemExit):
        bench_json.main([f"x={ROOT}", "--seeds", "-1"])


def test_tier1_keeps_the_failing_node_ids(monkeypatch):
    stdout = "\n".join([
        "..F.E.", "=========================== short test summary info ============================",
        "FAILED tests/test_acceptance.py::test_criterion_11 - AssertionError: ratio 1.31",
        "FAILED tests/test_dit.py::test_shape[B,L,d]",
        "ERROR tests/test_data.py - SyntaxError: invalid syntax",
        "==== 1 failed, 1 error, 4 passed in 3.02s ===="])
    calls = []

    def fake_run(cmd, cwd, env, capture_output, text):
        calls.append((cmd, cwd, env["PYTHONPATH"].split(os.pathsep)[0]))
        return subprocess.CompletedProcess(cmd, 1, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_json.subprocess, "run", fake_run)
    out = bench_json.run_tier1("/checkout")
    assert calls == [(bench_json.TIER1, "/checkout", "src")]
    assert out["exit"] == 1 and out["summary"] == "1 failed, 1 error, 4 passed in 3.02s"
    assert out["failed"] == ["tests/test_acceptance.py::test_criterion_11",
                             "tests/test_dit.py::test_shape[B,L,d]", "tests/test_data.py"]

    monkeypatch.setattr(bench_json.subprocess, "run", lambda cmd, **kw:
                        subprocess.CompletedProcess(cmd, 0, stdout="....\n== 4 passed ==\n"))
    assert bench_json.run_tier1("/checkout")["failed"] == []
