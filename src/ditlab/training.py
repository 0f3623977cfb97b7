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
from .schedule import InferencePlan, NoiseSchedule, noise_sample


@dataclass
class TrainLoopConfig:
    """What `_train_loop` reads, for either trainer. Each trainer's config
    extends it and sets its own `iterations` default."""
    batch_size: int = 16
    lr: float = 1e-3
    iterations: int = 0
    seed: int = 0
    checkpoint_interval: int = 0  # 0 disables periodic checkpoints

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for key in ("lr", "iterations", "seed", "checkpoint_interval"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key}={getattr(self, key)} must be >= 0")


@dataclass
class BackboneTrainConfig(TrainLoopConfig):
    iterations: int = 3000


@dataclass
class TrainConfig(TrainLoopConfig):
    """Feedback training: the loop's fields plus the loss weights."""
    iterations: int = 2000
    w_recon: float = 1.0
    w_distill: float = 1.0
    tpost_mode_training: str = "plan"  # only "plan": t_post comes from the inference plan
    teacher_steps: int = 1  # only 1: the teacher re-noises straight to t_post

    def __post_init__(self):
        super().__post_init__()
        if self.w_recon < 0 or self.w_distill < 0:
            raise ValueError("loss weights must be >= 0")
        if self.w_recon == 0 and self.w_distill == 0:
            raise ValueError("at least one loss weight must be positive")
        if self.tpost_mode_training != "plan":
            raise ValueError("tpost_mode_training must be 'plan'")
        if self.teacher_steps != 1:
            raise ValueError("teacher_steps must be 1")


def _noised_batch(images: np.ndarray, T: int, ns: NoiseSchedule,
                  rng: np.random.Generator) -> tuple:
    """Per sample, in batch order, draw t uniform in [1, T] and then eps.
    Returns (t [B] ints, eps, x_t), each image noised to its own t."""
    ts, eps = [], []
    for x0 in images:
        ts.append(int(rng.integers(1, T + 1)))
        eps.append(rng.standard_normal(x0.shape).astype(np.float32))
    x_t = np.stack([noise_sample(x0, t, e, ns) for x0, t, e in zip(images, ts, eps)])
    return np.array(ts), np.stack(eps), x_t


def feedback_train_step(model: DiT, fs: FeedbackState, ns: NoiseSchedule,
                        images: np.ndarray, labels: np.ndarray,
                        cfg: TrainConfig, rng: np.random.Generator,
                        opt: Adam, plan: InferencePlan) -> tuple:
    """One batch of feedback training, as one student forward, one teacher
    forward and one backward. Returns (recon, distill, total) floats.

    The re-run and the teacher are conditioned on the t_post that `plan`'s
    rule gives at each drawn t. The teacher sees each sample's trajectory
    re-noised straight to its t_post.
    """
    if not model.frozen:
        raise RuntimeError("backbone must be frozen before feedback training")
    ts, eps, x_t = _noised_batch(images, model.cfg.T, ns, rng)
    t_post = np.array([plan.t_post_at(t) for t in ts])
    x_post = np.stack([noise_sample(x0, tp, e, ns) for x0, tp, e in zip(images, t_post, eps)])
    teacher = model.forward(x_post, t_post, labels)
    pred, _ = ilf_forward(model, fs, x_t, ts, t_post, labels)
    recon = mse(pred, Tensor(eps))
    distill = mse(pred, teacher)
    loss = recon * cfg.w_recon + distill * cfg.w_distill
    _descend(loss, opt, "feedback")
    return recon.item(), distill.item(), loss.item()


def _descend(loss: Tensor, opt: Adam, what: str):
    """One Adam step down a batch loss, refused if the loss is not finite."""
    if not loss.is_finite():
        raise FloatingPointError(f"non-finite {what} training loss")
    opt.zero_grad()
    backward(loss)
    opt.step()


def _train_loop(params, dataset: Dataset, cfg: TrainLoopConfig, step_fn, on_checkpoint) -> list:
    """The loop both trainers share: Adam over `params`, draws from rng
    [seed, 17], batches from rng [seed, 31], and one step_fn(images, labels,
    rng, opt) per iteration, whose tape is gone before the checkpoint callback.
    A diverging step may overflow; its numpy warnings are silenced, since
    `_descend` refuses the non-finite loss that follows."""
    opt = Adam(params, lr=cfg.lr)
    rng = np.random.default_rng([cfg.seed, 17])
    stream = batches(dataset, cfg.batch_size, np.random.default_rng([cfg.seed, 31]))
    curve = []
    for step in range(cfg.iterations):
        images, labels = next(stream)
        with np.errstate(over="ignore", invalid="ignore"):
            curve.append(step_fn(images, labels, rng, opt))
        if on_checkpoint and cfg.checkpoint_interval and (step + 1) % cfg.checkpoint_interval == 0:
            on_checkpoint(step + 1)
    return curve


def train_feedback(model: DiT, fs: FeedbackState, ns: NoiseSchedule,
                   dataset: Dataset, cfg: TrainConfig, on_checkpoint=None, *,
                   plan: InferencePlan) -> list:
    """Run feedback training; returns the loss curve as (recon, distill, total)
    rows, one per iteration. `plan` is the inference plan the feedback will
    be sampled with, and must share the feedback state's loop."""
    if ((plan.loop_start, plan.loop_end) != (fs.loop_start, fs.loop_end)
            or plan.n_blocks != model.cfg.n_blocks):
        raise ValueError("plan loop bounds or block count disagree with the feedback state")

    def step(images, labels, rng, opt):
        return feedback_train_step(model, fs, ns, images, labels, cfg, rng, opt, plan)

    return _train_loop(fs.params(), dataset, cfg, step, on_checkpoint)


def backbone_train_step(model: DiT, ns: NoiseSchedule, images: np.ndarray,
                        labels: np.ndarray, rng: np.random.Generator, opt: Adam) -> float:
    """One batch of noise-prediction training of the backbone, as one forward
    and one backward. Returns the batch loss."""
    ts, eps, x_t = _noised_batch(images, model.cfg.T, ns, rng)
    loss = mse(model.forward(x_t, ts, labels), Tensor(eps))
    _descend(loss, opt, "backbone")
    return loss.item()


def train_backbone(model: DiT, ns: NoiseSchedule, dataset: Dataset,
                   cfg: BackboneTrainConfig, on_checkpoint=None) -> list:
    """Standard noise-prediction training of the backbone itself; returns
    the loss curve, one batch loss per iteration."""
    model.set_trainable(True)

    def step(images, labels, rng, opt):
        return backbone_train_step(model, ns, images, labels, rng, opt)

    return _train_loop(model.params(), dataset, cfg, step, on_checkpoint)
