#!/usr/bin/env python3
"""Run the benchmark over several seeds and write BENCH_<label>.json.

    python3 scripts/bench_json.py fused=. --seeds 41 42 43 44 45
    python3 scripts/bench_json.py parent=../parent fused=. --seeds 41 42 43 44 45 --tier1

Each LABEL=DIR names a checkout of this repository. For every workload that
BENCHMARK.json lists and for every seed, `perfbench/run.py --trace 0` runs
once in each checkout, one process at a time. The checkout that runs first
alternates from seed to seed, so two checkouts give alternating pairs.

Each run lasts BENCHMARK.json's `run_seconds`. Each checkout gets its own
BENCH_<label>.json in the current directory. It holds every run's end-to-end
metrics; per workload, the median and quartiles of each metric; the numpy
version, BLAS build and BLAS thread count that perfbench ran with; and, with
--tier1, the wall time of the Tier-1 command in that checkout and the node
ids of the tests it reported as failed or errored.

Given more than one checkout, each workload entry also holds, under
`versus`, the verdict against each other checkout for every end-to-end
metric: the other's median, the ratio of the medians, on how many seeds
this checkout read better, whether its median is worse than the other's by
more than the metric's `bound` in BENCHMARK.json, and whether the verdict is
`unresolved`: the other's quartile spread is wider than the bound, and not
every run of this checkout reads better than every run of the other.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def quartiles(values: list) -> dict:
    """Median and quartiles (statistics.quantiles, inclusive method)."""
    if len(values) == 1:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def numpy_build() -> dict:
    """This interpreter's numpy version and the BLAS it was built against."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        blas = {}
    return {"version": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}


def git_state(path: str):
    """`git describe --always --dirty` of a checkout, or None outside git."""
    try:
        out = subprocess.run(["git", "-C", path, "describe", "--always", "--dirty"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run_once(path: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run: its result line, or the error it ended with."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=path, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        err = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"seed": seed, "error": f"exit {proc.returncode}: {err}"}
    header = next((ln for ln in lines if ln.startswith("# workload ")), "")
    return {"seed": seed, "header": header.lstrip("# "), "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def run_tier1(path: str) -> dict:
    """Wall time, exit code and last summary line of the Tier-1 command, and
    the node ids of the FAILED / ERROR lines in pytest's short summary."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p))
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=path, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines() or [""]
    failed = [ln.split(" ", 1)[1].split(" - ", 1)[0] for ln in lines
              if ln.startswith(("FAILED ", "ERROR "))]
    return {"wall_s": round(time.perf_counter() - t0, 1), "exit": proc.returncode,
            "summary": lines[-1].strip("= "), "failed": failed}


def summarize(runs: list, metrics: list) -> dict:
    ok = [r for r in runs if "metrics" in r]
    out = {"runs": runs, "all_correct": len(ok) == len(runs) and all(r["correct"] for r in ok),
           "failed_ops": sum(r["failed"] for r in ok),
           "attempted_ops": sum(r["attempted"] for r in ok), "metrics": {}}
    for m in metrics:
        values = [r["metrics"][m["name"]] for r in ok if m["name"] in r["metrics"]]
        if values:
            out["metrics"][m["name"]] = {"unit": m["unit"], "better": m["better"],
                                         **quartiles(values)}
    return out


def versus(runs: list, other: list, metrics: list) -> dict:
    """Per end-to-end metric, `runs` against the `other` checkout's runs: the
    other's median, the ratio of the medians (this / other), on how many of
    the seeds both measured this side read better (ties count for neither),
    whether this side's median is worse by more than the metric's bound, and
    whether the comparison is unresolved: the other side's quartile spread
    (q3 - q1) / median is wider than the bound, and not every run of this
    side reads better than every run of the other."""
    def by_seed(rs, name):
        return {r["seed"]: r["metrics"][name] for r in rs if name in r.get("metrics", {})}

    out = {}
    for m in metrics:
        mine, theirs = by_seed(runs, m["name"]), by_seed(other, m["name"])
        if not (mine and theirs):
            continue
        a = quartiles(list(mine.values()))["median"]
        q = quartiles(list(theirs.values()))
        b = q["median"]
        sign = 1 if m["better"] == "lower" else -1  # > 0: this side reads worse
        seeds = [s for s in mine if s in theirs]
        all_better = max(sign * v for v in mine.values()) < min(sign * v for v in theirs.values())
        out[m["name"]] = {"other_median": b, "ratio": a / b,
                          "better_on": sum(sign * (mine[s] - theirs[s]) < 0 for s in seeds),
                          "pairs": len(seeds),
                          "worse_beyond_bound": sign * (a - b) > m["bound"] * b,
                          "unresolved": q["q3"] - q["q1"] > m["bound"] * b and not all_better}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", metavar="LABEL=DIR")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--tier1", action="store_true",
                        help="also time the Tier-1 test command in each checkout")
    args = parser.parse_args(argv)

    checkouts = []
    for item in args.checkouts:
        label, sep, path = item.partition("=")
        if not (sep and label and os.path.isfile(os.path.join(path, "perfbench", "run.py"))):
            parser.error(f"{item!r} is not LABEL=DIR of a checkout with perfbench/run.py")
        checkouts.append((label, os.path.abspath(path)))
    if any(s < 0 for s in args.seeds):
        parser.error("seeds must be >= 0")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]

    runs = {label: {w["name"]: [] for w in spec["workloads"]} for label, _ in checkouts}
    for w in spec["workloads"]:
        for i, seed in enumerate(args.seeds):
            order = checkouts if i % 2 == 0 else checkouts[::-1]
            for position, (label, path) in enumerate(order):
                run = run_once(path, w["name"], seed, seconds)
                run["position"] = position
                runs[label][w["name"]].append(run)
                print(f"{w['name']} seed {seed} {label}: "
                      f"{run.get('metrics', run.get('error'))}", file=sys.stderr)

    # perfbench pins its BLAS threads itself and prints them in its header line
    headers = [r["header"].split() for rs in runs.values() for wr in rs.values()
               for r in wr if r.get("header")]
    environment = {"python": sys.version.split()[0], "numpy": numpy_build(),
                   "nproc": os.cpu_count(),
                   "blas_threads": sorted({h[h.index("blas_threads") + 1] for h in headers
                                           if "blas_threads" in h})}
    for label, path in checkouts:
        doc = {"label": label, "checkout": git_state(path),
               "command": f"python3 perfbench/run.py --workload W --seed S "
                          f"--seconds {seconds:g} --trace 0",
               "seeds": args.seeds, "alternated_with": [lb for lb, _ in checkouts if lb != label],
               "environment": environment,
               "tier1": run_tier1(path) if args.tier1 else None,
               "workloads": {name: {**summarize(rs, spec["end_to_end"]),
                                    "versus": {lb: versus(rs, runs[lb][name], spec["end_to_end"])
                                               for lb, _ in checkouts if lb != label}}
                             for name, rs in runs[label].items()}}
        out = f"BENCH_{label}.json"
        with open(out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
