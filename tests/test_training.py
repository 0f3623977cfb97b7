import numpy as np
import pytest

from conftest import randomize, tiny_config
from ditlab import DiT, gen_shapes, make_feedback, make_schedule
from ditlab.checkpoint import params_hash
from ditlab.optim import Adam
from ditlab.schedule import make_plan, noise_sample
from ditlab.training import (
    BackboneTrainConfig,
    TrainConfig,
    feedback_train_step,
    train_backbone,
    train_feedback,
)


@pytest.fixture
def setup():
    cfg = tiny_config(image_size=8, n_classes=4)
    model = DiT(cfg, np.random.default_rng(81))
    randomize(model, np.random.default_rng(82), 0.05)
    model.set_trainable(False)
    fs = make_feedback(model, 1, 2, np.random.default_rng(83))
    ns = make_schedule(cfg.T)
    ds = gen_shapes(seed=9, n_per_class=8, n_classes=4, size=8)
    return model, fs, ns, ds


def snapshot(params) -> str:
    return params_hash({k: p.data for k, p in params.items()})


def plan_for(model, fs):
    """The run config's default plan (8 steps, rescaled, skip_inner) on the
    feedback state's loop."""
    return make_plan(8, model.cfg.T, "rescaled", "skip_inner", (fs.loop_start, fs.loop_end),
                     model.cfg.n_blocks)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(w_recon=0.0, w_distill=0.0)
    with pytest.raises(ValueError):
        TrainConfig(w_recon=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(tpost_mode_training="quarter")
    with pytest.raises(ValueError):
        TrainConfig(tpost_mode_training="t")
    for steps in (0, 2):  # the teacher re-noises straight to t_post: one step only
        with pytest.raises(ValueError):
            TrainConfig(teacher_steps=steps)


def test_zero_iterations_is_a_noop(setup):
    model, fs, ns, ds = setup
    before = snapshot(fs.named_params())
    curve = train_feedback(model, fs, ns, ds, TrainConfig(iterations=0, batch_size=4),
                           plan=plan_for(model, fs))
    assert curve == []
    assert snapshot(fs.named_params()) == before


def test_curve_length_matches_iterations(setup):
    model, fs, ns, ds = setup
    curve = train_feedback(model, fs, ns, ds,
                           TrainConfig(iterations=5, batch_size=4, lr=1e-3, seed=3),
                           plan=plan_for(model, fs))
    assert len(curve) == 5
    assert all(len(row) == 3 for row in curve)


def test_one_step_moves_feedback_not_backbone(setup):
    model, fs, ns, ds = setup
    backbone_before = snapshot(model.named_params())
    fs_before = snapshot(fs.named_params())
    train_feedback(model, fs, ns, ds, TrainConfig(iterations=1, batch_size=4, lr=1e-2, seed=4),
                   plan=plan_for(model, fs))
    assert snapshot(model.named_params()) == backbone_before
    assert snapshot(fs.named_params()) != fs_before


def test_backbone_freeze_enforced(setup):
    model, fs, ns, ds = setup
    model.set_trainable(True)
    rng = np.random.default_rng(0)
    opt = Adam(fs.params())
    with pytest.raises(RuntimeError):
        feedback_train_step(model, fs, ns, ds.images[:2], ds.labels[:2],
                            TrainConfig(batch_size=2), rng, opt, plan_for(model, fs))
    model.set_trainable(False)


def test_recon_only_fresh_feedback_equals_baseline_loss(setup):
    """With s=0 and t_post forced to t (an identity plan), the student
    reduces to the frozen backbone, so the recon term equals the backbone's
    own noise-prediction error."""
    model, _, ns, ds = setup
    fs = make_feedback(model, 1, 2, np.random.default_rng(84))
    cfg = TrainConfig(batch_size=4, w_distill=0.0, lr=0.0)
    plan = make_plan(8, model.cfg.T, "identity", "skip_inner", (1, 2), model.cfg.n_blocks)
    rng = np.random.default_rng(5)
    opt = Adam(fs.params(), lr=0.0)
    recon, _, _ = feedback_train_step(model, fs, ns, ds.images[:4], ds.labels[:4],
                                      cfg, rng, opt, plan)

    from ditlab.autodiff import Tensor, mse
    from ditlab.schedule import noise_sample

    rng2 = np.random.default_rng(5)  # same t and eps draws
    manual = []
    for x0, label in zip(ds.images[:4], ds.labels[:4]):
        t = int(rng2.integers(1, model.cfg.T + 1))
        eps = rng2.standard_normal(x0.shape).astype(np.float32)
        x_t = noise_sample(x0, t, eps, ns)
        manual.append(mse(model.forward(x_t, t, int(label)), Tensor(eps)).item())
    assert np.isclose(recon, np.mean(manual), atol=1e-6)


def test_student_and_teacher_see_the_plan_t_post(setup, monkeypatch):
    """The feedback re-run and the teacher are both conditioned on the t_post
    that the sampler's own rule gives at the drawn t: for a rescaled plan,
    t - (T/S) * m/n. The teacher input is the same trajectory re-noised there."""
    import ditlab.training as training

    model, fs, ns, ds = setup
    T, n = model.cfg.T, model.cfg.n_blocks
    plan = make_plan(8, T, "rescaled", "skip_inner", (fs.loop_start, fs.loop_end), n)
    student, teacher = [], []
    real_ilf, real_forward = training.ilf_forward, model.forward

    def spy_ilf(model_, fs_, x, t, t_post, class_id=None):
        student.append((t, t_post))
        return real_ilf(model_, fs_, x, t, t_post, class_id)

    def spy_forward(x, t, class_id=None, feats=None):
        teacher.append((x.copy(), t))
        return real_forward(x, t, class_id, feats)

    monkeypatch.setattr(training, "ilf_forward", spy_ilf)
    monkeypatch.setattr(model, "forward", spy_forward)
    images, labels = ds.images[:4], ds.labels[:4]
    feedback_train_step(model, fs, ns, images, labels, TrainConfig(batch_size=4),
                        np.random.default_rng(5), Adam(fs.params()), plan)

    assert len(student) == len(teacher) == 1  # one batched pass of each
    (t_seen, t_post), (x_teacher, t_teacher) = student[0], teacher[0]
    assert len(t_seen) == len(t_post) == len(t_teacher) == len(x_teacher) == 4
    rng = np.random.default_rng(5)  # same t and eps draws
    for i, x0 in enumerate(images):
        t = int(rng.integers(1, T + 1))
        eps = rng.standard_normal(x0.shape).astype(np.float32)
        expect = max(t - (T / plan.S) * plan.m / n, 0.0)
        assert t_seen[i] == t
        assert t_post[i] == pytest.approx(expect, abs=1e-9)
        assert t_teacher[i] == t_post[i]
        assert np.array_equal(x_teacher[i], noise_sample(x0, t_post[i], eps, ns))


def _assert_grads_match(params, want):
    # the floor is float32 noise at the largest gradient's scale: some
    # gradients (the key bias) are exactly zero in exact arithmetic
    floor = 1e-6 * max(np.abs(g).max() for g in want.values())
    for name, p in params.items():
        np.testing.assert_allclose(p.grad, want[name], rtol=1e-5, atol=floor, err_msg=name)


def test_batched_steps_equal_the_per_sample_reference(setup):
    """Each step runs its batch as one forward and one backward. Its losses
    and gradients equal the mean of per-image unbatched passes on the same t
    and eps draws. The batch repeats class 1, whose table-row gradient must
    sum the repeats; every weight gradient must sum the batch."""
    from ditlab.autodiff import Tensor, backward, mse
    from ditlab.feedback import ilf_forward
    from ditlab.training import backbone_train_step

    model, fs, ns, ds = setup
    T = model.cfg.T
    pick = [np.flatnonzero(ds.labels == c)[j] for c, j in ((1, 0), (3, 0), (1, 1), (0, 0), (1, 2))]
    images, labels = ds.images[pick], ds.labels[pick]
    inv_b = 1.0 / len(pick)

    def draws(seed):
        rng = np.random.default_rng(seed)
        for x0, label in zip(images, labels):
            t = int(rng.integers(1, T + 1))
            eps = rng.standard_normal(x0.shape).astype(np.float32)
            yield x0, int(label), t, eps, noise_sample(x0, t, eps, ns)

    # backbone
    params = model.named_params()
    model.set_trainable(True)
    loss = backbone_train_step(model, ns, images, labels, np.random.default_rng(5),
                               Adam(params.values(), lr=0.0))
    got = {k: p.grad for k, p in params.items()}
    for p in params.values():
        p.grad = None
    terms = []
    for _, label, t, eps, x_t in draws(5):
        term = mse(model.forward(x_t, t, label), Tensor(eps))
        backward(term * inv_b)
        terms.append(term.item())
    assert loss == pytest.approx(np.mean(terms), rel=1e-5)
    assert np.any(params["cond.table"].grad[1] != 0)
    want = {k: p.grad for k, p in params.items()}
    for k, p in params.items():
        p.grad = got[k]
    _assert_grads_match(params, want)
    model.set_trainable(False)

    # feedback, at the plan's t_post
    plan = make_plan(8, T, "rescaled", "skip_inner", (fs.loop_start, fs.loop_end),
                     model.cfg.n_blocks)
    named = fs.named_params()
    recon, distill, _ = feedback_train_step(model, fs, ns, images, labels,
                                            TrainConfig(batch_size=len(pick)),
                                            np.random.default_rng(6),
                                            Adam(named.values(), lr=0.0), plan)
    got = {k: p.grad for k, p in named.items()}
    for p in named.values():
        p.grad = None
    recons, distills = [], []
    for x0, label, t, eps, x_t in draws(6):
        tp = plan.t_post_at(t)
        teacher = model.forward(noise_sample(x0, tp, eps, ns), tp, label)
        pred, _ = ilf_forward(model, fs, x_t, t, tp, label)
        r, d = mse(pred, Tensor(eps)), mse(pred, teacher)
        backward((r + d) * inv_b)
        recons.append(r.item())
        distills.append(d.item())
    assert recon == pytest.approx(np.mean(recons), rel=1e-5)
    assert distill == pytest.approx(np.mean(distills), rel=1e-5)
    want = {k: p.grad for k, p in named.items()}
    for k, p in named.items():
        p.grad = got[k]
    _assert_grads_match(named, want)


def test_plan_mode_needs_a_matching_plan(setup):
    model, fs, ns, ds = setup
    other = make_plan(8, model.cfg.T, "rescaled", "all", (0, 1), model.cfg.n_blocks)
    with pytest.raises(ValueError):
        train_feedback(model, fs, ns, ds, TrainConfig(iterations=1, batch_size=2),
                       plan=other)


def test_mse_self_is_zero():
    from ditlab.autodiff import Tensor, mse

    a = Tensor(np.random.default_rng(1).normal(size=(3, 3)).astype(np.float32))
    assert mse(a, a).item() == 0.0


def test_undersized_dataset_rejected(setup):
    # a Dataset can never be empty (validated at construction), so the
    # practical failure is a batch that the dataset cannot fill
    model, fs, ns, ds = setup
    ds_bad = type(ds)(images=ds.images[:1], labels=ds.labels[:1],
                      n_classes=ds.n_classes, source="procedural")
    with pytest.raises(ValueError):
        train_feedback(model, fs, ns, ds_bad, TrainConfig(iterations=1, batch_size=2),
                       plan=plan_for(model, fs))


def test_checkpoint_callback_cadence(setup):
    model, fs, ns, ds = setup
    seen = []
    train_feedback(model, fs, ns, ds,
                   TrainConfig(iterations=5, batch_size=2, checkpoint_interval=2, seed=7),
                   on_checkpoint=seen.append, plan=plan_for(model, fs))
    assert seen == [2, 4]


def test_backbone_training_reduces_loss(setup):
    _, _, ns, ds = setup
    model = DiT(tiny_config(image_size=8, n_classes=4), np.random.default_rng(85))
    curve = train_backbone(model, ns, ds,
                           BackboneTrainConfig(batch_size=8, lr=2e-3, iterations=60, seed=8))
    assert len(curve) == 60
    assert np.mean(curve[-10:]) < np.mean(curve[:10])


def test_training_deterministic(setup):
    model, _, ns, ds = setup

    def run():
        fs = make_feedback(model, 1, 2, np.random.default_rng(86))
        train_feedback(model, fs, ns, ds, TrainConfig(iterations=3, batch_size=4, seed=9),
                       plan=plan_for(model, fs))
        return snapshot(fs.named_params())

    assert run() == run()


def test_distill_term_decreases_on_reference_run(trained_toy):
    """On the 2000-iteration toy run the distillation term's moving average
    must fall by at least 30% from its step-50 level (measured value is
    recorded in the README)."""
    distill = [row[1] for row in trained_toy["feedback_curve"]]
    start = np.mean(distill[:50])
    end = np.mean(distill[-50:])
    assert end <= 0.7 * start


def test_no_tape_alive_at_checkpoint(setup):
    """Both loops drop each iteration's gradient tape before the checkpoint
    callback runs: no Tensor linked into a tape is alive there."""
    import gc

    from ditlab.autodiff import Tensor

    def tape_nodes():
        gc.collect()
        return sum(1 for o in gc.get_objects() if isinstance(o, Tensor) and o._parents)

    _, _, ns, ds = setup
    model = DiT(tiny_config(image_size=8, n_classes=4), np.random.default_rng(87))
    before = tape_nodes()
    seen = []
    train_backbone(model, ns, ds,
                   BackboneTrainConfig(batch_size=4, iterations=2, seed=10,
                                       checkpoint_interval=1),
                   on_checkpoint=lambda step: seen.append(tape_nodes()))
    model.set_trainable(False)
    fs = make_feedback(model, 1, 2, np.random.default_rng(88))
    train_feedback(model, fs, ns, ds,
                   TrainConfig(iterations=2, batch_size=4, seed=10, checkpoint_interval=1),
                   on_checkpoint=lambda step: seen.append(tape_nodes()), plan=plan_for(model, fs))
    assert seen == [before] * 4
