"""Training loops: standard noise-prediction training for the backbone, and
distillation training for the feedback state against the frozen backbone.

The feedback trainer noises each clean image to a uniformly drawn step t and
runs the feedback-augmented model there, with the re-run conditioned on the
t_post that the sampler would use at t: the rule of the run's inference plan,
at that plan's step gap (InferencePlan.t_post_at). It distills the student
toward the frozen backbone evaluated on the same trajectory re-noised to that
same t_post. Gradients are applied only to the feedback parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, backward, mse
from .data import Dataset, batches
from .dit import DiT
from .feedback import FeedbackState, ilf_forward
from .optim import Adam
from .schedule import InferencePlan, NoiseSchedule, PlanConfig, ddim_step, make_plan, noise_sample

TPOST_TRAINING_MODES = ("plan", "t")


@dataclass
class TrainConfig:
    batch_size: int = 16
    lr: float = 1e-3
    iterations: int = 2000
    w_recon: float = 1.0
    w_distill: float = 1.0
    seed: int = 0
    tpost_mode_training: str = "plan"
    teacher_steps: int = 1
    checkpoint_interval: int = 0  # 0 disables periodic checkpoints

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        if self.w_recon < 0 or self.w_distill < 0:
            raise ValueError("loss weights must be >= 0")
        if self.w_recon == 0 and self.w_distill == 0:
            raise ValueError("at least one loss weight must be positive")
        if self.tpost_mode_training not in TPOST_TRAINING_MODES:
            raise ValueError(f"unknown tpost_mode_training {self.tpost_mode_training!r}")
        if self.teacher_steps < 1:
            raise ValueError("teacher_steps must be >= 1")


def _teacher_prediction(model: DiT, ns: NoiseSchedule, x0: np.ndarray,
                        x_t: np.ndarray, t: int, t_post: float, eps: np.ndarray,
                        label, teacher_steps: int) -> Tensor:
    if teacher_steps == 1 or t_post >= t:
        # fast approximation: re-noise the same trajectory directly to t_post
        x_post = noise_sample(x0, t_post, eps, ns)
        return model.forward(x_post, t_post, label)
    # expensive variant: chain DDIM transitions from t down to t_post
    taus = np.linspace(t, t_post, teacher_steps + 1)
    x = x_t
    for j in range(teacher_steps):
        pred = model.forward(x, float(taus[j]), label)
        x = ddim_step(x, pred.data, float(taus[j]), float(taus[j + 1]), ns)
    return model.forward(x, float(taus[-1]), label)


def feedback_train_step(model: DiT, fs: FeedbackState, ns: NoiseSchedule,
                        images: np.ndarray, labels: np.ndarray,
                        cfg: TrainConfig, rng: np.random.Generator,
                        opt: Adam, plan: InferencePlan | None = None) -> tuple:
    """One batch of feedback training. Returns (recon, distill, total) floats.

    The "plan" training mode needs the inference plan whose t_post rule the
    re-run and the teacher are conditioned on; the "t" mode ignores it.
    """
    if not model.frozen:
        raise RuntimeError("backbone must be frozen before feedback training")
    if cfg.tpost_mode_training == "plan" and plan is None:
        raise ValueError("tpost_mode_training='plan' needs an inference plan")
    T = model.cfg.T
    recon_terms, distill_terms = [], []
    for x0, label in zip(images, labels):
        t = int(rng.integers(1, T + 1))
        eps = rng.standard_normal(x0.shape).astype(np.float32)
        x_t = noise_sample(x0, t, eps, ns)
        t_post = plan.t_post_at(t) if cfg.tpost_mode_training == "plan" else float(t)
        teacher = _teacher_prediction(model, ns, x0, x_t, t, t_post, eps,
                                      int(label), cfg.teacher_steps)
        pred, _ = ilf_forward(model, fs, x_t, t, t_post, int(label))
        recon_terms.append(mse(pred, Tensor(eps)))
        distill_terms.append(mse(pred, teacher))

    inv_b = 1.0 / len(recon_terms)
    recon = _mean_terms(recon_terms) * inv_b
    distill = _mean_terms(distill_terms) * inv_b
    loss = recon * cfg.w_recon + distill * cfg.w_distill
    if not loss.is_finite():
        raise FloatingPointError("non-finite feedback training loss")
    opt.zero_grad()
    backward(loss)
    opt.step()
    return recon.item(), distill.item(), loss.item()


def _mean_terms(terms):
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


def _train_loop(params, dataset: Dataset, cfg, step_fn, on_checkpoint) -> list:
    """The loop both trainers share: Adam over `params`, draws from rng
    [seed, 17], batches from rng [seed, 31], and one step_fn(images, labels,
    rng, opt) per iteration, whose tape is gone before the checkpoint callback."""
    opt = Adam(params, lr=cfg.lr)
    rng = np.random.default_rng([cfg.seed, 17])
    stream = batches(dataset, cfg.batch_size, np.random.default_rng([cfg.seed, 31]))
    curve = []
    for step in range(cfg.iterations):
        images, labels = next(stream)
        curve.append(step_fn(images, labels, rng, opt))
        if on_checkpoint and cfg.checkpoint_interval and (step + 1) % cfg.checkpoint_interval == 0:
            on_checkpoint(step + 1)
    return curve


def train_feedback(model: DiT, fs: FeedbackState, ns: NoiseSchedule,
                   dataset: Dataset, cfg: TrainConfig, on_checkpoint=None,
                   plan: InferencePlan | None = None) -> list:
    """Run feedback training; returns the loss curve as (recon, distill, total)
    rows, one per iteration.

    `plan` is the inference plan the feedback will be sampled with; the
    "plan" training mode falls back to the default run config's plan
    (PlanConfig()) when it is None.
    """
    loop = (fs.loop_start, fs.loop_end)
    if plan is None and cfg.tpost_mode_training == "plan":
        d = PlanConfig()
        plan = make_plan(d.steps, model.cfg.T, d.tpost_mode, d.preset, loop,
                         model.cfg.n_blocks, d.orientation)
    if plan is not None and ((plan.loop_start, plan.loop_end) != loop
                             or plan.n_blocks != model.cfg.n_blocks):
        raise ValueError("plan loop bounds or block count disagree with the feedback state")

    def step(images, labels, rng, opt):
        return feedback_train_step(model, fs, ns, images, labels, cfg, rng, opt, plan)

    return _train_loop(fs.params(), dataset, cfg, step, on_checkpoint)


@dataclass
class BackboneTrainConfig:
    batch_size: int = 16
    lr: float = 1e-3
    iterations: int = 3000
    seed: int = 0
    checkpoint_interval: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.lr < 0:
            raise ValueError("lr must be >= 0")


def backbone_train_step(model: DiT, ns: NoiseSchedule, images: np.ndarray,
                        labels: np.ndarray, rng: np.random.Generator, opt: Adam) -> float:
    """One batch of noise-prediction training of the backbone. Returns the
    batch loss."""
    T = model.cfg.T
    terms = []
    for x0, label in zip(images, labels):
        t = int(rng.integers(1, T + 1))
        eps = rng.standard_normal(x0.shape).astype(np.float32)
        x_t = noise_sample(x0, t, eps, ns)
        terms.append(mse(model.forward(x_t, t, int(label)), Tensor(eps)))
    loss = _mean_terms(terms) * (1.0 / len(terms))
    if not loss.is_finite():
        raise FloatingPointError("non-finite backbone training loss")
    opt.zero_grad()
    backward(loss)
    opt.step()
    return loss.item()


def train_backbone(model: DiT, ns: NoiseSchedule, dataset: Dataset,
                   cfg: BackboneTrainConfig, on_checkpoint=None) -> list:
    """Standard noise-prediction training of the backbone itself; returns
    the loss curve, one batch loss per iteration."""
    model.set_trainable(True)

    def step(images, labels, rng, opt):
        return backbone_train_step(model, ns, images, labels, rng, opt)

    return _train_loop(model.params(), dataset, cfg, step, on_checkpoint)
