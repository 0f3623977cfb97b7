"""Noise schedule, DDIM stepping, post-feedback time rules, and sampling plans.

Scheduler scalars are kept in float64; only image/feature payloads are f32.
The denoising update is always keyed on the plan's own timestep t, never on
the post-feedback condition time. `InferencePlan.t_post_at` is a plan's
one rule for that condition time; the sampler and the feedback trainer
both read it. `InferencePlan.actions` gives every step of a sampling kind
its action (full, feedback, refresh or hit); the sampler runs those
actions, and `block_cost` sums their costs.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from .autodiff import no_grad
from .caching import CacheConfig, CacheStore, cached_forward
from .dit import DiT
from .feedback import FeedbackState, ilf_forward

TPOST_MODES = ("uniform", "rescaled", "annealed", "identity")
KINDS = ("baseline", "ilf", "cached")

ANNEAL_FLOOR = 10.0
BETA_MIN, BETA_MAX = 1e-4, 0.02


# ---------------------------------------------------------------------------
# noise schedule
# ---------------------------------------------------------------------------


@dataclass
class NoiseSchedule:
    T: int
    beta: np.ndarray       # [T+1], beta[0] = 0 sentinel
    alpha: np.ndarray      # [T+1]
    alpha_bar: np.ndarray  # [T+1], alpha_bar[0] = 1

    def alpha_bar_at(self, t: float) -> float:
        """alpha_bar extended to real t by linear interpolation."""
        if not (0.0 <= t <= self.T):
            raise ValueError(f"t={t} outside [0, {self.T}]")
        return float(np.interp(t, np.arange(self.T + 1), self.alpha_bar))


def make_schedule(T: int) -> NoiseSchedule:
    """Linear beta schedule over T steps, from BETA_MIN to BETA_MAX."""
    if T < 1:
        raise ValueError("T must be >= 1")
    beta = np.zeros(T + 1, dtype=np.float64)
    beta[1:] = np.linspace(BETA_MIN, BETA_MAX, T)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    return NoiseSchedule(T=T, beta=beta, alpha=alpha, alpha_bar=alpha_bar)


def noise_sample(x0: np.ndarray, t: float, eps: np.ndarray, ns: NoiseSchedule) -> np.ndarray:
    """Forward-noise x0 to step t with the given draw of eps."""
    ab = ns.alpha_bar_at(t)
    out = float(np.sqrt(ab)) * x0 + float(np.sqrt(1.0 - ab)) * eps
    return out.astype(np.float32)


def spacing(S: int, T: int) -> list:
    """Trailing-uniform descending timesteps: t_k = T (S - k + 1) / S."""
    if not (1 <= S <= T):
        raise ValueError(f"need 1 <= S <= T, got S={S}, T={T}")
    return [T * (S - k + 1) / S for k in range(1, S + 1)]


def ddim_step(x_t: np.ndarray, eps_hat: np.ndarray, t: float, t_next: float,
              ns: NoiseSchedule) -> np.ndarray:
    """Deterministic DDIM update from t to t_next (eta=0)."""
    if not (t > t_next >= 0):
        raise ValueError(f"need t > t_next >= 0, got {t}, {t_next}")
    ab_t = ns.alpha_bar_at(t)
    ab_n = ns.alpha_bar_at(t_next)
    if ab_t <= 0.0:
        raise ValueError("alpha_bar(t) vanished")
    x0_pred = (x_t - float(np.sqrt(1.0 - ab_t)) * eps_hat) / float(np.sqrt(ab_t))
    out = float(np.sqrt(ab_n)) * x0_pred + float(np.sqrt(1.0 - ab_n)) * eps_hat
    return out.astype(np.float32)


# ---------------------------------------------------------------------------
# inference plans
# ---------------------------------------------------------------------------


def _preset_flags(preset: str, S: int) -> list:
    """Which steps run feedback. Presets name the feedback placement; the
    four-step placements keep cost comparable across presets."""
    if preset == "all":
        return [True] * S
    if preset == "alternating":
        if S < 2:
            raise ValueError("alternating needs S >= 2")
        return [k % 2 == 0 for k in range(S)]
    if S < 5:
        raise ValueError(f"preset {preset!r} needs S >= 5, got {S}")
    if preset == "skip_inner":
        keep = {0, 1, S - 2, S - 1}
    elif preset == "first_only":
        keep = {0, 1, 2, 3}
    elif preset == "last_only":
        keep = {S - 4, S - 3, S - 2, S - 1}
    else:
        raise ValueError(f"unknown preset {preset!r}")
    return [k in keep for k in range(S)]


@dataclass(frozen=True)
class InferencePlan:
    steps: tuple          # descending real timesteps t_1 > ... > t_S
    feedback: tuple       # per-step bool
    tpost_mode: str
    loop_start: int
    loop_end: int
    n_blocks: int
    T: int

    def __post_init__(self):
        if len(self.steps) != len(self.feedback):
            raise ValueError("steps and feedback flags must align")
        if any(not (0 < t <= self.T) for t in self.steps):
            raise ValueError("plan steps must lie in (0, T]")
        if list(self.steps) != sorted(set(self.steps), reverse=True):
            raise ValueError("plan steps must be strictly descending")
        if self.tpost_mode not in TPOST_MODES:
            raise ValueError(f"unknown tpost_mode {self.tpost_mode!r}")
        if not (0 <= self.loop_start <= self.loop_end < self.n_blocks):
            raise ValueError(f"loop ({self.loop_start}, {self.loop_end}) invalid for "
                             f"{self.n_blocks} blocks")

    @property
    def S(self) -> int:
        return len(self.steps)

    @property
    def m(self) -> int:
        return self.loop_end - self.loop_start + 1

    def gap(self, k: int) -> float:
        """Gap to the next scheduled step; the final step's gap reaches 0."""
        nxt = self.steps[k + 1] if k + 1 < self.S else 0.0
        return self.steps[k] - nxt

    def t_post(self, k: int) -> float:
        """The condition time after feedback at plan step k."""
        return self.t_post_at(self.steps[k])

    def actions(self, kind: str, cache_cfg=None) -> tuple:
        """What each step runs when this plan is sampled as `kind`: "full"
        (every block once), "feedback" (the ILF pass), "refresh" (every block
        once, the cached blocks' branches stored) or "hit" (the cached blocks
        read from the store). The one place a kind's per-step work is decided;
        kind='cached' needs the CacheConfig and a plan without feedback flags."""
        if kind == "baseline":
            return ("full",) * self.S
        if kind == "ilf":
            return tuple("feedback" if f else "full" for f in self.feedback)
        if kind != "cached":
            raise ValueError(f"unknown kind {kind!r}")
        if cache_cfg is None:
            raise ValueError("kind='cached' needs a CacheConfig")
        if any(self.feedback):
            raise ValueError("cached sampling takes a plan without feedback flags")
        return tuple("refresh" if cache_cfg.refreshes(k) else "hit" for k in range(self.S))

    def block_cost(self, kind: str, cache_cfg=None) -> int:
        """Block forwards per image when sampling this plan as `kind`: the sum
        of its actions' costs."""
        actions = self.actions(kind, cache_cfg)
        n = self.n_blocks
        c = len(cache_cfg.blocks) if cache_cfg is not None else 0
        cost = {"full": n, "feedback": n + self.m + 1, "refresh": n, "hit": n - c}
        return sum(cost[a] for a in actions)

    def t_post_at(self, t: float) -> float:
        """The plan's one t_post rule, for any t in (0, T]: t less the
        tpost_mode shift at the gap i of the plan step k whose interval
        (t_{k+1}, t_k] holds t, clamped to [0, t]. The sampler takes it at
        plan steps, through t_post(k); the feedback trainer conditions on it
        at every drawn t."""
        if not (0 < t <= self.T):
            raise ValueError(f"t={t} outside (0, {self.T}]")
        k = sum(s >= t for s in self.steps) - 1
        i, m, n = self.gap(k), self.m, self.n_blocks
        mode = self.tpost_mode
        if mode == "annealed" and k == 0:
            mode = "rescaled"  # the first plan step always uses the rescaled rule
        if mode == "identity":
            shift = 0.0
        elif mode == "uniform":
            shift = i / 2.0
        elif mode == "rescaled":
            shift = i * (m / n)
        else:
            shift = max(i * (n / m) * (t / self.T), ANNEAL_FLOOR)
        return min(max(t - shift, 0.0), t)


def make_plan(S: int, T: int, mode: str, preset: str, loop, n_blocks: int) -> InferencePlan:
    b, e = loop
    return InferencePlan(
        steps=tuple(spacing(S, T)),
        feedback=tuple(_preset_flags(preset, S)),
        tpost_mode=mode,
        loop_start=int(b),
        loop_end=int(e),
        n_blocks=int(n_blocks),
        T=int(T),
    )


def make_plain_plan(S: int, T: int, n_blocks: int) -> InferencePlan:
    """A feedback-free plan, as baseline and cached sampling use."""
    plan = make_plan(S, T, "identity", "all", (0, 0), n_blocks)
    return dataclasses.replace(plan, feedback=(False,) * S)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


@dataclass
class SampleResult:
    images: np.ndarray          # [N, C, H, W]
    labels: list
    kind: str
    block_forwards: int         # per generated image
    wall_ms: float              # per generated image
    plan: InferencePlan
    cache_cfg: CacheConfig | None
    seed: int

    def cost_row(self) -> dict:
        # for kind=cached, m holds the cached-block count and the
        # feedback_steps column carries the refresh-step count
        plan, cache_cfg = self.plan, self.cache_cfg
        m = 0
        if self.kind == "ilf":
            m = plan.m
        elif self.kind == "cached":
            m = len(cache_cfg.blocks)
        per_step = sum(a in ("feedback", "refresh") for a in plan.actions(self.kind, cache_cfg))
        return {
            "kind": self.kind,
            "S": plan.S,
            "n": plan.n_blocks,
            "m": m,
            "feedback_steps": per_step,
            "block_forwards": self.block_forwards,
            "wall_ms": self.wall_ms,
            "seed": self.seed,
        }


COST_COLUMNS = ("kind", "S", "n", "m", "feedback_steps", "block_forwards", "wall_ms", "seed")


def _step_function(kind: str, model: DiT, plan: InferencePlan, fs, cache_cfg):
    """Check what `kind` needs and resolve it once, into a step function
    (x, k, label, store, feats) -> eps that runs the plan's action at step k;
    a `feats` list receives the step's block outputs."""
    actions = plan.actions(kind, cache_cfg)
    if plan.n_blocks != model.cfg.n_blocks:
        raise ValueError("plan was built for a different block count")
    if kind == "ilf":
        if fs is None:
            raise ValueError("kind='ilf' needs a FeedbackState")
        if (fs.loop_start, fs.loop_end) != (plan.loop_start, plan.loop_end):
            raise ValueError("plan loop bounds disagree with the FeedbackState")

    def step(x, k, label, store, feats):
        action, t = actions[k], plan.steps[k]
        if action == "full":
            return model.forward(x, t, label, feats)
        if action == "feedback":
            return ilf_forward(model, fs, x, t, plan.t_post(k), label, feats)[0]
        return cached_forward(model, x, t, label, cache_cfg, store, action == "refresh", feats)

    return step


def sample(kind: str, model: DiT, ns: NoiseSchedule, plan: InferencePlan, class_id,
           seed: int, fs: FeedbackState | None = None, cache_cfg=None,
           n_samples: int = 1, taps: list | None = None) -> SampleResult:
    """Run one sampling configuration.

    No gradient tape is recorded, even if the model or feedback state is
    still trainable. `block_forwards` is plan.block_cost(kind, cache_cfg),
    per image. class_id=None gives image j the class j % n_classes. Given a
    `taps` list, appends one entry per image to it: per plan step, the list
    of that step's block outputs [tokens, dim], as `DiT.run_blocks`'s
    `feats` list receives them.
    """
    step = _step_function(kind, model, plan, fs, cache_cfg)
    cfg = model.cfg
    shape = (cfg.channels, cfg.image_size, cfg.image_size)
    images, labels = [], []

    t0 = time.perf_counter()
    with no_grad():
        for j in range(n_samples):
            rng = np.random.default_rng([seed, j])
            label = class_id if class_id is not None else j % cfg.n_classes
            x = rng.standard_normal(shape).astype(np.float32)
            store = CacheStore()  # read only by the cached step
            sample_taps = []
            for k in range(plan.S):
                t = plan.steps[k]
                t_next = plan.steps[k + 1] if k + 1 < plan.S else 0.0
                feats = [] if taps is not None else None
                eps = step(x, k, label, store, feats)
                x = ddim_step(x, eps.data, t, t_next, ns)
                sample_taps.append(feats)
            images.append(x)
            labels.append(label)
            if taps is not None:
                taps.append(sample_taps)
    wall_ms = (time.perf_counter() - t0) * 1000.0 / n_samples

    return SampleResult(
        images=np.stack(images),
        labels=labels,
        kind=kind,
        block_forwards=plan.block_cost(kind, cache_cfg),
        wall_ms=wall_ms,
        plan=plan,
        cache_cfg=cache_cfg,
        seed=seed,
    )
