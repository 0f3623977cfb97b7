#!/usr/bin/env python3
"""ditlab benchmark: per-kind sampling latency, training rate, set-up time and
peak memory on three workloads, with an outside-in layer trace.

    python3 perfbench/run.py --workload toy_sample --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports ditlab from `src/`. Each workload
is a closed loop from one process and one caller, in rounds. A round makes
`triples_per_round` calls of `schedule.sample` for each of baseline, ilf and
cached, interleaved, then one iteration of `training.train_backbone` and one
of `training.train_feedback` (plan mode, one teacher pass), both at batch 16.
Each training loop is one call that runs for the whole run, stepped one
iteration per round (`Stepper`), so every metric samples the whole run. The
number of rounds is set from a warm-up round so that the run takes about
`--seconds`. The outputs are checked (see `check_*`), and the last line of
stdout is one JSON object: `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` prints the end-to-end metrics. `--trace 1` makes the same
untraced run, then a fixed amount of the workload's primary work once more
under `layertrace.Tracer` (the sampling calls of one round, or
TRACE_TRAIN_ITERS iterations of each training loop), prints the per-layer
metrics of that traced work, and writes its spans to `perfbench/out/`.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # pinned before numpy loads; at most `nproc` (2 on the reference box)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

import layertrace  # noqa: E402
import reference  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

KINDS = ("baseline", "ilf", "cached")
BATCH = 16
LR = 1e-3
PERTURB = 0.05            # std of the noise added to every set-up weight
S_RANGE = (0.1, 0.3)      # the ILF scale s of the sampling feedback state
SETUP_REPEATS = 7
REF_IMAGES = 4            # images per kind checked against the reference
MIN_ROUNDS = 4
TRACE_TRAIN_ITERS = 3     # per training loop, in toy_train's traced work
GRAD_REL_TOL = 1e-3
EVAL_IMAGES = 32
GRAD_PROBES = 6


@dataclass(frozen=True)
class Workload:
    n_blocks: int
    loop: tuple            # ILF inner loop (b, e)
    cache_count: int       # inner blocks cached
    period: int            # cache refresh period p
    train_plan_steps: int  # steps of the plan the feedback trains for
    images_per_call: int
    triples_per_round: int  # sampling calls of each kind per training iteration
    primary: str           # "sample" or "train": the work the traced run traces
    expect: tuple          # block forwards per image: baseline, ilf, cached


# Shapes mirror configs/toy.json (6 blocks) and configs/bench_mock28.json
# (28 blocks): width 64, 4 heads, 16x16 images in 4x4 patches, 8 classes,
# T = 1000. Sampling plans are the reference plans of their `bench` sections.
WORKLOADS = {
    # per-step work is a large share at 6 blocks; 16 images leave a batch room to gain
    "toy_sample": Workload(
        n_blocks=6, loop=(2, 4), cache_count=4, period=2, train_plan_steps=8,
        images_per_call=16, triples_per_round=1, primary="sample",
        expect=(120, 76, 80)),
    # block forwards dominate at paper depth; one image leaves nothing to batch
    "deep28_single": Workload(
        n_blocks=28, loop=(8, 19), cache_count=18, period=3, train_plan_steps=10,
        images_per_call=1, triples_per_round=6, primary="sample",
        expect=(560, 332, 326)),
    # mostly training: the forward with a tape, backward and Adam
    "toy_train": Workload(
        n_blocks=6, loop=(2, 4), cache_count=4, period=2, train_plan_steps=8,
        images_per_call=1, triples_per_round=1, primary="train",
        expect=(120, 76, 80)),
}

SAMPLE_STEPS = {"baseline": 20, "ilf": 10, "cached": 20}

E2E_UNITS = {
    "setup_s": "s",
    "baseline_ms_per_image": "ms",
    "ilf_ms_per_image": "ms",
    "cached_ms_per_image": "ms",
    "backbone_train_iters_per_s": "iter/s",
    "feedback_train_iters_per_s": "iter/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (span or counter, quantity, unit)
LAYER_METRICS = {
    "dit.block.calls": ("dit.block", "calls", "count"),
    "dit.block.self_us": ("dit.block", "self_us_per_call", "us"),
    "dit.embed_condition.calls": ("dit.embed_condition", "calls", "count"),
    "dit.embed_condition.ms": ("dit.embed_condition", "ms", "ms"),
    "dit.patchify.ms": ("dit.patchify", "ms", "ms"),
    "dit.final_layer.ms": ("dit.final_layer", "ms", "ms"),
    "schedule.ddim_step.ms": ("schedule.ddim_step", "ms", "ms"),
    "feedback.ilf_forward.calls": ("feedback.ilf_forward", "calls", "count"),
    "feedback.ilf_forward.ms": ("feedback.ilf_forward", "ms", "ms"),
    "caching.cached_forward.ms": ("caching.cached_forward", "ms", "ms"),
    "caching.cached_run_block.hits": ("caching.hits", "count", "count"),
    "caching.cached_run_block.refreshes": ("caching.refreshes", "count", "count"),
    "caching.hit_ratio": (None, "hit_ratio", "ratio"),
    "autodiff.matmul.calls": ("autodiff.matmul", "calls", "count"),
    "autodiff.matmul.ms": ("autodiff.matmul", "ms", "ms"),
    "autodiff.scaled_dot_attention.ms": ("autodiff.scaled_dot_attention", "ms", "ms"),
    "autodiff.layer_norm.ms": ("autodiff.layer_norm", "ms", "ms"),
    "autodiff.gelu.ms": ("autodiff.gelu", "ms", "ms"),
    "autodiff.softmax.ms": ("autodiff.softmax", "ms", "ms"),
    "autodiff.tensors_created": ("autodiff.tensors_created", "count", "count"),
    "autodiff.tape_nodes": ("autodiff.tape_nodes", "count", "count"),
    "autodiff.backward.ms": ("autodiff.backward", "ms", "ms"),
    "optim.Adam.step.ms": ("optim.Adam.step", "ms", "ms"),
    "training.teacher_forward.ms": ("training.teacher_forward", "ms", "ms"),
    "data.batches.ms": ("data.batches", "ms", "ms"),
    "data.gen_shapes.ms": ("data.gen_shapes", "ms", "ms"),
    "dit.DiT.init.ms": ("dit.DiT.init", "ms", "ms"),
    "trace.overhead_pct": (None, "overhead_pct", "%"),
}


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ditlab", "__init__.py")):
        sys.exit(f"error: no ditlab package under {src}; run from the repository root")
    sys.path.insert(0, src)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


class Bench:
    """Everything one workload needs, built from the seed."""

    def __init__(self, wl: Workload, seed: int):
        from ditlab import BackboneConfig, DiT, gen_shapes, make_feedback, make_plan
        from ditlab import make_plain_plan, make_schedule
        from ditlab.caching import CacheConfig

        self.wl, self.seed = wl, seed
        n = wl.n_blocks
        cfg = BackboneConfig(n_blocks=n)
        self.ns = make_schedule(cfg.T)

        # sampling weights: a fresh model and feedback state, every weight
        # perturbed (gates and final layer included) and s set non-zero;
        # frozen, as `ditlab sample` freezes what it loads
        self.model = DiT(cfg, np.random.default_rng([seed, 0]))
        _perturb(self.model.params(), np.random.default_rng([seed, 1]))
        self.model.set_trainable(False)
        self.fs = make_feedback(self.model, *wl.loop, np.random.default_rng([seed, 2]))
        _perturb(self.fs.block.named_params().values(), np.random.default_rng([seed, 3]))
        self.fs.s.data = np.random.default_rng([seed, 4]).uniform(
            *S_RANGE, self.fs.m).astype(np.float32)
        self.fs.set_trainable(False)
        self.plans = {
            "baseline": make_plain_plan(SAMPLE_STEPS["baseline"], cfg.T, n),
            "ilf": make_plan(SAMPLE_STEPS["ilf"], cfg.T, "rescaled", "skip_inner", wl.loop, n),
            "cached": make_plain_plan(SAMPLE_STEPS["cached"], cfg.T, n),
        }
        self.cache = CacheConfig.from_preset("inner", wl.cache_count, n, wl.period)

        # training: a fresh backbone on the procedural shapes set; a fresh
        # feedback state distilled against the frozen sampling backbone, for
        # the plan of the workload's config
        self.train_model = DiT(cfg, np.random.default_rng([seed, 10]))
        self.dataset = gen_shapes(seed=seed, n_per_class=64, n_classes=cfg.n_classes,
                                  size=cfg.image_size)
        self.train_plan = make_plan(wl.train_plan_steps, cfg.T, "rescaled", "skip_inner",
                                    wl.loop, n)
        self.train_fs = make_feedback(self.model, *wl.loop, np.random.default_rng([seed, 11]))

    def sample(self, kind: str, seed: int, n_images: int):
        from ditlab import sample

        return sample(kind, self.model, self.ns, self.plans[kind], None, seed,
                      fs=self.fs if kind == "ilf" else None,
                      cache_cfg=self.cache if kind == "cached" else None,
                      n_samples=n_images)

    def train_backbone(self, iterations: int, on_iteration):
        """`training.train_backbone`; on_iteration() runs after each iteration.
        Returns the loss curve."""
        from ditlab.training import BackboneTrainConfig, train_backbone

        cfg = BackboneTrainConfig(batch_size=BATCH, lr=LR, iterations=iterations,
                                  seed=self.seed, checkpoint_interval=1)
        return train_backbone(self.train_model, self.ns, self.dataset, cfg,
                              on_checkpoint=lambda _: on_iteration())

    def train_feedback(self, iterations: int, on_iteration):
        from ditlab.training import TrainConfig, train_feedback

        cfg = TrainConfig(batch_size=BATCH, lr=LR, iterations=iterations, seed=self.seed,
                          tpost_mode_training="plan", teacher_steps=1, checkpoint_interval=1)
        return train_feedback(self.model, self.train_fs, self.ns, self.dataset, cfg,
                              on_checkpoint=lambda _: on_iteration(), plan=self.train_plan)


def _perturb(params, rng):

    for p in params:
        p.data = (p.data + rng.normal(0.0, PERTURB, p.data.shape)).astype(np.float32)


def timed_loop(loop, iterations: int) -> list:
    """Run a training loop straight through; returns seconds per iteration."""
    stamps = [time.perf_counter()]
    loop(iterations, lambda: stamps.append(time.perf_counter()))
    return [b - a for a, b in zip(stamps, stamps[1:])]


def setup(wl: Workload, seed: int):
    """Build the workload SETUP_REPEATS times; returns (set-up seconds per
    build, the first build for warm-up, the last build for the run)."""
    times, builds = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        built = Bench(wl, seed)
        times.append(time.perf_counter() - t0)
        builds = [builds[0] if builds else built, built]
    return times, builds[0], builds[-1]


# ---------------------------------------------------------------------------
# the measured rounds
# ---------------------------------------------------------------------------


class Stepper:
    """A training loop advanced one iteration per `step()`.

    The loop runs in a worker thread that waits, after each iteration, until
    the caller asks for the next one; exactly one of the two threads runs at
    any time. This interleaves a training loop's iterations with other work
    without changing how the loop itself runs.
    """

    WAIT_S = 600.0

    def __init__(self, loop, iterations: int):
        self.times: list = []
        self.curve = None
        self.error = None
        self._go = threading.Semaphore(0)
        self._done = threading.Semaphore(0)
        self._thread = threading.Thread(target=self._work, args=(loop, iterations), daemon=True)
        self._thread.start()

    def _work(self, loop, iterations):
        self._go.acquire()
        t0 = time.perf_counter()

        def iteration_done():
            nonlocal t0
            self.times.append(time.perf_counter() - t0)
            self._done.release()
            self._go.acquire()
            t0 = time.perf_counter()

        try:
            self.curve = loop(iterations, iteration_done)
        except Exception as exc:  # reported by the caller as failed iterations
            self.error = exc
        self._done.release()

    def step(self) -> bool:
        """Run one iteration; False if the loop has failed."""
        if self.error is not None or not self._thread.is_alive():
            return False
        self._go.release()
        if not self._done.acquire(timeout=self.WAIT_S):
            raise TimeoutError("training iteration did not finish")
        return self.error is None

    def finish(self):
        """Let the loop return after its last iteration."""
        if self._thread.is_alive():
            self._go.release()
            self._thread.join(self.WAIT_S)
        if self._thread.is_alive():
            raise TimeoutError("training loop did not return")


class Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def closed_form(wl: Workload, kind: str) -> int:
    """Block forwards per image, from the README's cost model."""
    n, S = wl.n_blocks, SAMPLE_STEPS[kind]
    if kind == "baseline":
        return n * S
    if kind == "ilf":
        m = wl.loop[1] - wl.loop[0] + 1
        feedback_steps = 4  # skip_inner: the first two and the last two steps
        return n * S + (m + 1) * feedback_steps
    c, p = wl.cache_count, wl.period
    return (n - c) * S + c * -(-S // p)


def warm_up(bench: Bench) -> float:
    """One call of each kind and one iteration of each training loop, on the
    warm-up build; returns the seconds one round should take."""
    t0 = time.perf_counter()
    for kind in KINDS:
        bench.sample(kind, 0, bench.wl.images_per_call)
    sampling = time.perf_counter() - t0
    t0 = time.perf_counter()
    timed_loop(bench.train_backbone, 1)
    timed_loop(bench.train_feedback, 1)
    return bench.wl.triples_per_round * sampling + time.perf_counter() - t0


def run_rounds(bench: Bench, rounds: int, ops: Counter, problems: list):
    """`rounds` rounds of: triples_per_round x (one call per kind), then one
    backbone and one feedback iteration. Returns per-kind ms-per-image, the
    first call's result per kind, and the two training steppers."""

    wl = bench.wl
    ms = {k: [] for k in KINDS}
    first = {}
    trainers = [Stepper(bench.train_backbone, rounds), Stepper(bench.train_feedback, rounds)]
    calls = 0
    try:
        for _ in range(rounds):
            for _ in range(wl.triples_per_round):
                for kind in KINDS:
                    ops.attempted += 1
                    call_seed = bench.seed * 100_000 + calls
                    calls += 1
                    t0 = time.perf_counter()
                    try:
                        res = bench.sample(kind, call_seed, wl.images_per_call)
                    except Exception as exc:  # counted, reported, and the run goes on
                        ops.failed += 1
                        print(f"# failed: sample {kind}: {exc!r}", file=sys.stderr)
                        continue
                    ms[kind].append((time.perf_counter() - t0) * 1000.0 / wl.images_per_call)
                    if res.block_forwards != closed_form(wl, kind):
                        problems.append(f"{kind}: {res.block_forwards} block forwards per "
                                        f"image, closed form {closed_form(wl, kind)}")
                    if not np.isfinite(res.images).all():
                        problems.append(f"{kind}: non-finite image in call seed {call_seed}")
                    first.setdefault(kind, (call_seed, res))
            for trainer in trainers:
                ops.attempted += 1
                if not trainer.step():
                    ops.failed += 1
    finally:
        for trainer in trainers:
            trainer.finish()
    for name, trainer in zip(("backbone", "feedback"), trainers):
        if trainer.error is not None:
            print(f"# failed: {name} training: {trainer.error!r}", file=sys.stderr)
    bench.train_model.set_trainable(False)
    return ms, first, trainers


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------


def check_blocks(wl: Workload, problems: list):
    for kind, want in zip(KINDS, wl.expect):
        if closed_form(wl, kind) != want:
            problems.append(f"{kind}: closed form {closed_form(wl, kind)} != {want}")


def check_reference(bench: Bench, first: dict, problems: list) -> dict:
    """The first REF_IMAGES images of each kind's first call against the
    float64 reference sampler."""
    ref = reference.RefDiT(bench.model, bench.fs)
    errors = {}
    for kind, (call_seed, res) in first.items():
        cache = (bench.cache.blocks, bench.cache.refresh_period)
        n = min(REF_IMAGES, res.images.shape[0])
        want = ref.sample(kind, SAMPLE_STEPS[kind], call_seed, n, cache)
        err = reference.rel_error(res.images[:n], want)
        tol = reference.relative_tolerance(closed_form(bench.wl, kind))
        errors[kind] = err
        if not err <= tol:
            problems.append(f"{kind}: rel. error {err:.3g} against the float64 reference "
                            f"> {tol:.3g}")
    if not (bench.fs.s.data != 0).all():
        problems.append("the sampling feedback state has s == 0")
    return errors


def backbone_eval_loss(bench: Bench) -> float:
    """Mean noise-prediction loss of the training backbone on a fixed batch of
    EVAL_IMAGES noised dataset images (float64 mse over the outputs)."""
    from ditlab import noise_sample

    ds, model = bench.dataset, bench.train_model
    model.set_trainable(False)
    rng = np.random.default_rng([bench.seed, 6])
    total = 0.0
    for i in rng.choice(len(ds), size=EVAL_IMAGES, replace=False):
        t = int(rng.integers(1, model.cfg.T + 1))
        eps = rng.standard_normal(ds.images[i].shape).astype(np.float32)
        pred = model.forward(noise_sample(ds.images[i], t, eps, bench.ns), t, int(ds.labels[i]))
        total += float(((pred.data.astype(np.float64) - eps) ** 2).mean())
    return total / EVAL_IMAGES


def check_backbone_training(curve, pixels: int, before: float, after: float,
                            problems: list):
    """The fresh model predicts 0, so its first training loss is the mean of
    eps^2 over the batch. The loss on a fixed evaluation batch must fall: the
    per-batch training losses of a few iterations are too noisy to show it."""
    band = 5.0 * math.sqrt(2.0 / pixels)  # std of the mean of eps^2 over a batch
    if not abs(curve[0] - 1.0) <= band:
        problems.append(f"first backbone loss {curve[0]:.4f} outside 1 +- {band:.4f}")
    if not after < before:
        problems.append(f"backbone evaluation loss did not fall: {before:.4f} -> {after:.4f}")


def params_hash(model) -> str:
    h = hashlib.sha256()
    for name, p in model.named_params().items():
        h.update(name.encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


def check_feedback_gradients(bench: Bench, problems: list) -> float:
    """Autodiff gradients of the trained feedback state against float64
    central differences of the reference ILF forward. Returns the worst
    relative error over the probed coordinates."""
    from ditlab import Tensor, backward, ilf_forward, mse, noise_sample

    model, fs, ns = bench.model, bench.train_fs, bench.ns
    rng = np.random.default_rng([bench.seed, 5])
    picks = rng.choice(len(bench.dataset), size=2, replace=False)
    cases = []
    for i, t in zip(picks, (700, 340)):
        eps = rng.standard_normal(bench.dataset.images[i].shape).astype(np.float32)
        x_t = noise_sample(bench.dataset.images[i], t, eps, ns)
        cases.append((x_t, t, bench.train_plan.t_post_at(t), int(bench.dataset.labels[i]), eps))

    named = fs.named_params()
    for p in named.values():
        p.grad = None
    loss = None
    for x_t, t, tp, label, eps in cases:
        term = mse(ilf_forward(model, fs, x_t, t, tp, label)[0], Tensor(eps))
        loss = term if loss is None else loss + term
    backward(loss * (1.0 / len(cases)))
    grads = {k: p.grad.copy() for k, p in named.items() if p.grad is not None}
    for p in named.values():
        p.grad = None

    ref = reference.RefDiT(model, fs)
    weights = reference.params64(fs)

    def loss64(w):
        ref.set_feedback(w)
        total = 0.0
        for x_t, t, tp, label, eps in cases:
            d = ref.eps_ilf(x_t[None].astype(np.float64), t, tp, [label])[0] - eps
            total += float((d * d).mean())
        return total / len(cases)

    # the largest-|g| coordinate of each parameter, the largest first
    probes = sorted(((float(np.abs(g).max()), k, int(np.abs(g).argmax()))
                     for k, g in grads.items()), reverse=True)[:GRAD_PROBES]
    worst = 0.0
    for _, name, idx in probes:
        h = 1e-6 * max(1.0, abs(float(weights[name].reshape(-1)[idx])))
        w = {k: v.copy() for k, v in weights.items()}
        flat = w[name].reshape(-1)
        flat[idx] += h
        up = loss64(w)
        flat[idx] -= 2 * h
        down = loss64(w)
        fd = (up - down) / (2 * h)
        g = float(grads[name].reshape(-1)[idx])
        rel = abs(g - fd) / max(abs(fd), 1e-12)
        worst = max(worst, rel)
        if not rel <= GRAD_REL_TOL:
            problems.append(f"feedback grad {name}[{idx}]: autodiff {g:.6g}, "
                            f"float64 central difference {fd:.6g}")
    return worst


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def measure(wl: Workload, seed: int, seconds: float):
    setup_times, warm, bench = setup(wl, seed)
    rounds = max(MIN_ROUNDS, round(seconds / warm_up(warm)))
    del warm
    ops, problems = Counter(), []
    backbone_hash = params_hash(bench.model)
    eval_before = backbone_eval_loss(bench)
    ms, first, (bb, fb) = run_rounds(bench, rounds, ops, problems)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_blocks(wl, problems)
    ref_errors = check_reference(bench, first, problems)
    eval_after = backbone_eval_loss(bench)
    if bb.curve:
        check_backbone_training(bb.curve, BATCH * bench.dataset.images[0].size,
                                eval_before, eval_after, problems)
    if params_hash(bench.model) != backbone_hash:
        problems.append("feedback training changed the frozen backbone's parameters")
    grad_worst = check_feedback_gradients(bench, problems) if fb.curve else None

    metrics = {"setup_s": statistics.median(setup_times)}
    for kind in KINDS:
        if ms[kind]:
            metrics[f"{kind}_ms_per_image"] = statistics.median(ms[kind])
    if bb.curve:
        metrics["backbone_train_iters_per_s"] = 1.0 / statistics.median(bb.times)
    if fb.curve:
        metrics["feedback_train_iters_per_s"] = 1.0 / statistics.median(fb.times)
    metrics["peak_rss_mb"] = peak_rss_mb
    info = {
        "rounds": rounds,
        "samples_per_kind": {k: len(v) for k, v in ms.items()},
        "ref_rel_error": ref_errors,
        "grad_worst_rel": grad_worst,
        "backbone_eval_loss_before_after": [eval_before, eval_after],
        "ilf_baseline_wall_ratio": (metrics["baseline_ms_per_image"] / metrics["ilf_ms_per_image"]
                                    if "ilf_ms_per_image" in metrics else None),
        "ilf_baseline_block_ratio": closed_form(wl, "baseline") / closed_form(wl, "ilf"),
    }
    return metrics, ops, problems, info


def traced_work(name: str, seed: int, untraced: dict, problems: list):
    """One set-up and a fixed amount of the workload's primary work, traced."""
    wl = WORKLOADS[name]
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        bench = Bench(wl, seed)
        traced = {}
        if wl.primary == "sample":
            sample_ids, ms = [], {k: [] for k in KINDS}
            for call in range(wl.triples_per_round):
                for kind in KINDS:
                    first_span = len(tracer.start)
                    t0 = time.perf_counter()
                    bench.sample(kind, seed * 100_000 + call, wl.images_per_call)
                    ms[kind].append((time.perf_counter() - t0) * 1000.0 / wl.images_per_call)
                    sample_ids.append((kind, first_span, len(tracer.start)))
            for kind in KINDS:
                traced[f"{kind}_ms_per_image"] = statistics.median(ms[kind])
        else:
            bb = timed_loop(bench.train_backbone, TRACE_TRAIN_ITERS)
            fb = timed_loop(bench.train_feedback, TRACE_TRAIN_ITERS)
            traced["backbone_train_iters_per_s"] = 1.0 / statistics.median(bb)
            traced["feedback_train_iters_per_s"] = 1.0 / statistics.median(fb)
    finally:
        tracer.uninstall()

    block_id = tracer.names.index("dit.block")
    if wl.primary == "sample":
        for kind, lo, hi in sample_ids:
            calls = sum(1 for nid in tracer.name_of[lo:hi] if nid == block_id)
            if calls != closed_form(wl, kind) * wl.images_per_call:
                problems.append(f"traced {kind}: {calls} dit.block calls for "
                                f"{wl.images_per_call} images, closed form "
                                f"{closed_form(wl, kind)} per image")

    summary = tracer.summary()
    layer = {}
    for metric, (source, quantity, unit) in LAYER_METRICS.items():
        row = summary.get(source, {"calls": 0, "total_ns": 0, "self_ns": 0})
        if quantity == "calls":
            value = row["calls"]
        elif quantity == "ms":
            value = row["total_ns"] / 1e6
        elif quantity == "self_us_per_call":
            value = row["self_ns"] / 1e3 / max(row["calls"], 1)
        elif quantity == "count":
            value = tracer.counts.get(source, 0)
        elif quantity == "hit_ratio":
            hits, refreshes = tracer.counts.get("caching.hits", 0), tracer.counts.get(
                "caching.refreshes", 0)
            value = hits / (hits + refreshes) if hits + refreshes else 0.0
        else:  # overhead_pct: traced primary-phase time against untraced
            traced_t = sum(_op_seconds(k, v) for k, v in traced.items())
            plain_t = sum(_op_seconds(k, untraced[k]) for k in traced)
            value = (traced_t / plain_t - 1.0) * 100.0
        layer[metric] = {"value": value, "unit": unit}

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{name}_seed{seed}")
    tracer.write_csv(stem + "_spans.csv")
    diffs = {k: v - untraced[k] for k, v in traced.items()}
    with open(stem + "_trace.json", "w") as f:
        json.dump({"per_layer": layer, "traced": traced,
                   "traced_minus_untraced": diffs, "spans": len(tracer.start)}, f, indent=1)
    return layer, diffs


def _op_seconds(metric: str, value: float) -> float:
    return 1.0 / value if metric.endswith("_per_s") else value / 1000.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _import_program()

    wl = WORKLOADS[args.workload]
    metrics, ops, problems, info = measure(wl, args.seed, args.seconds)
    missing = sorted(set(E2E_UNITS) - set(metrics))
    if missing:
        print(f"error: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"numpy {np.__version__} blas_threads {BLAS_THREADS} nproc {os.cpu_count()}")
    print("# " + json.dumps(info))
    if args.trace:
        out, diffs = traced_work(args.workload, args.seed, metrics, problems)
        print("# traced minus untraced: " + json.dumps(diffs))
    else:
        out = {k: {"value": metrics[k], "unit": u} for k, u in E2E_UNITS.items()}
    for problem in problems:
        print(f"# check failed: {problem}")
    print(json.dumps({"correct": not problems, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
