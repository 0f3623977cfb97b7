import numpy as np
import pytest

from ditlab import BackboneConfig, DiT, gen_shapes, make_feedback, make_plan, make_schedule
from ditlab.training import BackboneTrainConfig, TrainConfig, train_backbone, train_feedback

# acceptance-grade toy run: 6 blocks, 16x16 images, shapes dataset
TOY_SEED = 7
TOY_LOOP = (2, 4)
BACKBONE_ITERS = 3000
FEEDBACK_ITERS = 2000


# ---------------------------------------------------------------------------
# closed-form block-forward costs per image: the oracle for
# InferencePlan.block_cost and for the sampler's counted totals
# ---------------------------------------------------------------------------


def baseline_block_cost(n: int, S: int) -> int:
    return n * S


def ilf_block_cost(n: int, S: int, m: int, feedback_steps: int) -> int:
    return n * S + (m + 1) * feedback_steps


def refresh_count(S: int, p: int) -> int:
    """How many of S steps refresh under CacheConfig.refreshes: ceil(S / p)."""
    if p < 1:
        raise ValueError("refresh period must be >= 1")
    return -(-S // p)


def cached_block_cost(n: int, S: int, n_cached: int, p: int) -> int:
    return (n - n_cached) * S + n_cached * refresh_count(S, p)


def tiny_config(**overrides) -> BackboneConfig:
    base = dict(image_size=8, patch_size=4, channels=1, hidden_dim=16,
                n_heads=2, n_blocks=3, n_classes=4, T=1000)
    base.update(overrides)
    return BackboneConfig(**base)


def randomize(model: DiT, rng: np.random.Generator, scale: float = 0.05):
    """Perturb every parameter (gates and final projection included) so the
    model's output is non-trivial."""
    for p in model.params():
        p.data = (p.data + rng.normal(0.0, scale, p.data.shape)).astype(np.float32)


@pytest.fixture
def tiny_model():
    return DiT(tiny_config(), np.random.default_rng(11))


@pytest.fixture
def tiny_random_model():
    model = DiT(tiny_config(), np.random.default_rng(11))
    randomize(model, np.random.default_rng(12), 0.08)
    return model


@pytest.fixture(scope="session")
def toy_dataset():
    return gen_shapes(seed=21, n_per_class=64, n_classes=8, size=16)


@pytest.fixture(scope="session")
def trained_toy(toy_dataset):
    """Backbone trained on the shapes set, then a feedback state distilled
    against it. Session-scoped: this is the expensive fixture every
    end-to-end check shares."""
    cfg = BackboneConfig()
    model = DiT(cfg, np.random.default_rng([TOY_SEED, 0]))
    ns = make_schedule(cfg.T)
    backbone_curve = train_backbone(
        model, ns, toy_dataset,
        BackboneTrainConfig(batch_size=16, lr=1e-3, iterations=BACKBONE_ITERS, seed=TOY_SEED))
    model.set_trainable(False)
    fs = make_feedback(model, *TOY_LOOP, np.random.default_rng([TOY_SEED, 1]))
    # the plan criterion 9 samples with, as in configs/toy.json
    plan = make_plan(8, cfg.T, "rescaled", "skip_inner", TOY_LOOP, cfg.n_blocks)
    feedback_curve = train_feedback(
        model, fs, ns, toy_dataset,
        TrainConfig(batch_size=16, lr=1e-3, iterations=FEEDBACK_ITERS, seed=TOY_SEED),
        plan=plan)
    fs.set_trainable(False)  # as `ditlab sample` loads it: sampling records no tape
    return {
        "model": model,
        "fs": fs,
        "ns": ns,
        "dataset": toy_dataset,
        "backbone_curve": backbone_curve,
        "feedback_curve": feedback_curve,
    }
