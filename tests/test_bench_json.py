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
