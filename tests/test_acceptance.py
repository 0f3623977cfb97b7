"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. The expensive trained-toy fixture is session-scoped and shared.
"""

import csv
import gc
import json
import os
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import TOY_LOOP, baseline_block_cost, ilf_block_cost
from ditlab import DiT, make_feedback
from ditlab.analysis import BenchEntry, bench, compare_drift, toy_quality
from ditlab.autodiff import Tensor, backward, mse
from ditlab.caching import CacheConfig
from ditlab.checkpoint import params_hash
from ditlab.feedback import ilf_forward
from ditlab.schedule import (
    make_plain_plan,
    make_plan,
    noise_sample,
    sample,
)
from ditlab.training import TrainConfig, train_feedback


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:>2}: FAIL  {label}", flush=True)
        raise
    print(f"[acceptance] criterion {num:>2}: PASS  {label}", flush=True)


def backbone_hash(model: DiT) -> str:
    return params_hash({k: p.data for k, p in model.named_params().items()})


# ---------------------------------------------------------------------------


def test_criterion_01_block_forward_checksums():
    with criterion(1, "block-forward checksums, exact"):
        entries = [
            BenchEntry(kind="baseline", steps=20),
            BenchEntry(kind="baseline", steps=12),
            BenchEntry(kind="ilf", steps=10, preset="skip_inner", loop=(8, 19)),
            BenchEntry(kind="cached", steps=20, cache_location="inner",
                       cache_count=18, refresh_period=3),
            BenchEntry(kind="cached", steps=20, cache_location="inner",
                       cache_count=18, refresh_period=2),
            BenchEntry(kind="ilf", steps=12, preset="all", loop=(0, 5)),
            BenchEntry(kind="ilf", steps=12, preset="skip_inner", loop=(8, 19)),
        ]
        rows = bench(entries, mock_n=28)
        got = [r.block_forwards for r in rows]
        assert got == [560, 336, 332, 326, 380, 420, 388]


def test_criterion_02_zero_feedback_equivalence(trained_toy):
    with criterion(2, "zero-feedback sampling bit-identical to baseline, 10 seeds"):
        model, ns = trained_toy["model"], trained_toy["ns"]
        fs = make_feedback(model, *TOY_LOOP, np.random.default_rng(901))
        fs.set_trainable(False)
        assert np.array_equal(fs.s.data, np.zeros(fs.m, np.float32))
        n = model.cfg.n_blocks
        plan_ilf = make_plan(8, model.cfg.T, "identity", "all", TOY_LOOP, n)
        plan_base = make_plain_plan(8, model.cfg.T, n)
        for seed in range(10):
            a = sample("ilf", model, ns, plan_ilf, seed % 8, seed, fs=fs)
            b = sample("baseline", model, ns, plan_base, seed % 8, seed)
            assert np.array_equal(a.images, b.images)
            assert a.block_forwards == ilf_block_cost(n, 8, fs.m, 8)
            assert b.block_forwards == baseline_block_cost(n, 8)


def test_criterion_03_freeze_invariant(trained_toy):
    with criterion(3, "backbone hash unchanged by 200 feedback-training steps"):
        model, ns, ds = trained_toy["model"], trained_toy["ns"], trained_toy["dataset"]
        before = backbone_hash(model)
        fs = make_feedback(model, *TOY_LOOP, np.random.default_rng(902))
        plan = make_plan(8, model.cfg.T, "rescaled", "skip_inner", TOY_LOOP, model.cfg.n_blocks)
        train_feedback(model, fs, ns, ds,
                       TrainConfig(batch_size=8, lr=1e-3, iterations=200, seed=31), plan=plan)
        assert backbone_hash(model) == before


def test_criterion_04_gradient_checks(trained_toy):
    with criterion(4, "feedback/s autodiff vs central differences, rel <= 1e-3"):
        model, ns, ds = trained_toy["model"], trained_toy["ns"], trained_toy["dataset"]
        rng = np.random.default_rng(903)
        fs = make_feedback(model, *TOY_LOOP, rng)
        for p in fs.block.named_params().values():
            p.data = (p.data + rng.normal(0, 0.1, p.data.shape)).astype(np.float32)
        fs.s.data = rng.uniform(0.2, 0.5, fs.m).astype(np.float32)

        images = ds.images[:2]
        labels = ds.labels[:2]
        eps_draws = [rng.standard_normal(images[0].shape).astype(np.float32)
                     for _ in range(2)]
        ts = [700, 340]

        def forward_terms():
            terms = []
            for x0, label, eps, t in zip(images, labels, eps_draws, ts):
                x_t = noise_sample(x0, t, eps, ns)
                pred, _ = ilf_forward(model, fs, x_t, t, t // 2, int(label))
                terms.append((pred, eps))
            return terms

        def loss_tensor():
            terms = forward_terms()
            total = None
            for pred, eps in terms:
                part = mse(pred, Tensor(eps))
                total = part if total is None else total + part
            return total * (1.0 / len(terms))

        def loss64() -> float:
            total = 0.0
            for pred, eps in forward_terms():
                d = pred.data.astype(np.float64) - eps.astype(np.float64)
                total += (d * d).mean()
            return total / 2.0

        backward(loss_tensor())
        named = fs.named_params()
        # probe pool: coordinates identifiable at f32 with h=1e-3. The fd
        # quotient carries ~2e-5 absolute noise from the f32 forward, so a
        # relative error of 1e-3 is resolvable only where |g| >= 2e-5 / 1e-3.
        h, rel_tol, fd_noise = 1e-3, 1e-3, 2e-5
        pool_bound = fd_noise / rel_tol
        pool = []
        for name, p in named.items():
            flat_g = p.grad.reshape(-1) if p.grad is not None else None
            if flat_g is None:
                continue
            for idx in np.flatnonzero(np.abs(flat_g) >= pool_bound):
                pool.append((name, int(idx)))
        assert len(pool) >= 5
        probes = [pool[i] for i in rng.choice(len(pool), size=5, replace=False)]

        worst = 0.0
        for name, idx in probes:
            p = named[name]
            flat = p.data.reshape(-1)
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss64()
            flat[idx] = orig - h
            down = loss64()
            flat[idx] = orig
            fd = (up - down) / (2 * h)
            ad = float(p.grad.reshape(-1)[idx])
            rel = abs(ad - fd) / max(abs(ad), abs(fd))
            worst = max(worst, rel)
        assert worst <= rel_tol, f"worst probe rel err {worst:.2e}"


def test_criterion_05_forward_noising_statistics(trained_toy):
    with criterion(5, "Monte-Carlo variance of noised samples within 3%"):
        ns = trained_toy["ns"]
        rng = np.random.default_rng(904)
        n_draws, dim, sigma0 = 10_000, 16, 2.0
        for t in (100, 500, 900):
            x0 = (sigma0 * rng.standard_normal((n_draws, dim))).astype(np.float32)
            eps = rng.standard_normal((n_draws, dim)).astype(np.float32)
            x_t = noise_sample(x0, t, eps, ns)
            ab = ns.alpha_bar_at(t)
            expect = ab * sigma0**2 + (1.0 - ab)
            got = float(x_t.astype(np.float64).var())
            assert abs(got - expect) / expect < 0.03


def test_criterion_06_t_post_rules():
    with criterion(6, "post-feedback time rules, 1e-9 exact"):
        rescaled = make_plan(10, 1000, "rescaled", "all", (8, 19), 28)
        assert abs(rescaled.t_post(0) - 957.142857142857142) < 1e-9
        annealed = make_plan(10, 1000, "annealed", "all", (8, 19), 28)
        assert abs(annealed.t_post(1) - 690.0) < 1e-9
        for S, k, t, i in ((10, 0, 1000.0, 100.0), (16, 8, 500.0, 62.5)):
            uniform = make_plan(S, 1000, "uniform", "all", (8, 19), 28)
            assert (uniform.steps[k], uniform.gap(k)) == (t, i)
            assert abs(uniform.t_post(k) - (t - i / 2)) < 1e-9


def test_criterion_07_caching_equivalences(trained_toy):
    with criterion(7, "p=1 caching bit-identical; residual decomposition 1e-6"):
        model, ns = trained_toy["model"], trained_toy["ns"]
        n = model.cfg.n_blocks
        plan = make_plain_plan(8, model.cfg.T, n)
        cache_cfg = CacheConfig.from_preset("inner", 4, n, refresh_period=1)
        base = sample("baseline", model, ns, plan, 2, seed=41, n_samples=3)
        cached = sample("cached", model, ns, plan, 2, seed=41, n_samples=3,
                        cache_cfg=cache_cfg)
        assert np.array_equal(base.images, cached.images)
        assert cached.block_forwards == base.block_forwards

        rng = np.random.default_rng(905)
        for idx in range(n):
            h = Tensor(rng.normal(size=(model.cfg.tokens, model.cfg.hidden_dim))
                       .astype(np.float32))
            cond = model.embed_condition(512.0, 1)
            branches = []
            out = model.blocks[idx].run(h, cond, branches)
            attn, mlp = branches
            residual = out.data - (h.data + attn.data + mlp.data)
            assert np.abs(residual).max() <= 1e-6


def test_criterion_08_drift_direction(trained_toy):
    with criterion(8, "caching reduces mean drift-over-time on the toy model"):
        model, ns = trained_toy["model"], trained_toy["ns"]
        n = model.cfg.n_blocks
        plan = make_plain_plan(20, model.cfg.T, n)
        cache_cfg = CacheConfig.from_preset("inner", 4, n, refresh_period=2)
        base, cached = [], []
        sample("baseline", model, ns, plan, 0, seed=55, taps=base)
        sample("cached", model, ns, plan, 0, seed=55, cache_cfg=cache_cfg, taps=cached)
        hits = [k for k in range(plan.S) if k % cache_cfg.refresh_period != 0]
        report = compare_drift(base[0], cached[0],
                               block_subset=list(cache_cfg.blocks),
                               step_subset=hits)
        assert not report.degenerate
        assert report.cached_mean < report.baseline_mean, (
            f"drift direction inverted: cached {report.cached_mean:.4f} "
            f">= baseline {report.baseline_mean:.4f}")


def test_criterion_09_end_to_end_quality(trained_toy):
    with criterion(9, "trained ILF at S=8 within 1.25x of baseline quality"):
        model, fs, ns, ds = (trained_toy["model"], trained_toy["fs"],
                             trained_toy["ns"], trained_toy["dataset"])
        assert len(trained_toy["backbone_curve"]) >= 3000
        assert len(trained_toy["feedback_curve"]) >= 2000
        n = model.cfg.n_blocks
        plan_base = make_plain_plan(8, model.cfg.T, n)
        plan_ilf = make_plan(8, model.cfg.T, "rescaled", "skip_inner", TOY_LOOP, n)
        base = sample("baseline", model, ns, plan_base, None, seed=101, n_samples=128)
        ilf = sample("ilf", model, ns, plan_ilf, None, seed=101, fs=fs, n_samples=128)
        q_base = toy_quality(base.images, base.labels, ds.images, ds.labels)
        q_ilf = toy_quality(ilf.images, ilf.labels, ds.images, ds.labels)
        print(f"[acceptance]   baseline mmd={q_base.mmd:.5f} "
              f"cls_err={q_base.per_class_mean_err:.4f} | "
              f"ilf mmd={q_ilf.mmd:.5f} cls_err={q_ilf.per_class_mean_err:.4f}",
              flush=True)
        assert q_ilf.mmd <= 1.25 * q_base.mmd
        assert q_ilf.per_class_mean_err <= 1.25 * q_base.per_class_mean_err
        assert ilf.block_forwards == ilf_block_cost(n, 8, fs.m, 4)
        assert base.block_forwards == baseline_block_cost(n, 8)


def test_criterion_10_command_determinism(tmp_path):
    with criterion(10, "commands byte-identical on rerun (timing excluded)"):
        from ditlab import cli

        def config_for(out_dir):
            return {
                "seed": 3, "out_dir": out_dir,
                "backbone": {"image_size": 8, "patch_size": 4, "hidden_dim": 16,
                             "n_heads": 2, "n_blocks": 3, "n_classes": 4, "T": 100},
                "data": {"source": "procedural", "seed": 5, "n_per_class": 4},
                "backbone_train": {"batch_size": 4, "lr": 2e-3, "iterations": 4,
                                   "seed": 11},
                "ilf": {"loop_start": 1, "loop_end": 2,
                        "train": {"batch_size": 4, "lr": 1e-3, "iterations": 3,
                                  "seed": 12}},
                "plan": {"steps": 5, "tpost_mode": "rescaled", "preset": "all"},
                "cache": {"location": "inner", "count": 1, "refresh_period": 2},
                "sample": {"n_samples": 2, "class_id": None, "seed": 4},
                "bench": {"mock_n": 28, "entries": [{"kind": "baseline", "steps": 20}]},
            }

        def run_all(tag):
            root = tmp_path / tag
            root.mkdir()
            cfg_path = root / "run.json"
            cfg_path.write_text(json.dumps(config_for(str(root / "train"))))
            cli.cmd_train(str(cfg_path))
            cli.cmd_sample(str(cfg_path), "ilf", str(root / "samples"))
            cli.cmd_drift(str(cfg_path), str(root / "drift"))
            cli.cmd_bench(str(cfg_path))
            files = {}
            for base, _, names in os.walk(root):
                for name in names:
                    if name == "run.json":
                        continue
                    path = os.path.join(base, name)
                    rel = os.path.relpath(path, root)
                    blob = open(path, "rb").read()
                    if name.endswith(".csv"):
                        rows = list(csv.DictReader(blob.decode().splitlines()))
                        for row in rows:
                            row.pop("wall_ms", None)
                        files[rel] = rows
                    else:
                        files[rel] = blob
            return files

        first = run_all("a")
        second = run_all("b")
        assert first.keys() == second.keys()
        for rel in first:
            assert first[rel] == second[rel], f"nondeterministic output: {rel}"


def test_criterion_11_wall_clock_sanity(trained_toy):
    with criterion(11, "wall-clock ratio within 20% of the block-forward ratio"):
        model, fs, ns = trained_toy["model"], trained_toy["fs"], trained_toy["ns"]
        n = model.cfg.n_blocks
        plan_base = make_plain_plan(20, model.cfg.T, n)
        plan_ilf = make_plan(10, model.cfg.T, "rescaled", "skip_inner", TOY_LOOP, n)

        # best of interleaved repeats, so a change in machine load hits both
        # kinds alike; gc pauses stay out of the timed runs
        runs = {"baseline": (plan_base, None), "ilf": (plan_ilf, fs)}
        walls = {kind: [] for kind in runs}
        blocks = {}
        gc.collect()
        gc.disable()
        try:
            for _ in range(5):
                for kind, (plan, fsx) in runs.items():
                    res = sample(kind, model, ns, plan, 0, seed=77, fs=fsx, n_samples=8)
                    walls[kind].append(res.wall_ms)
                    blocks[kind] = res.block_forwards
        finally:
            gc.enable()
        wall_base, wall_ilf = min(walls["baseline"]), min(walls["ilf"])
        blocks_base, blocks_ilf = blocks["baseline"], blocks["ilf"]
        block_ratio = blocks_base / blocks_ilf
        wall_ratio = wall_base / wall_ilf
        print(f"[acceptance]   block ratio {block_ratio:.3f} "
              f"wall ratio {wall_ratio:.3f}", flush=True)
        assert blocks_base == 120 and blocks_ilf == 76
        assert 0.8 * block_ratio <= wall_ratio <= 1.2 * block_ratio
