import numpy as np
import pytest

from conftest import (
    baseline_block_cost,
    cached_block_cost,
    ilf_block_cost,
    randomize,
    refresh_count,
    tiny_config,
)
from ditlab import CacheConfig, DiT, make_feedback
from ditlab.schedule import (
    InferencePlan,
    ddim_step,
    make_plain_plan,
    make_plan,
    make_schedule,
    noise_sample,
    sample,
    spacing,
)


# ---------------------------------------------------------------------------
# schedule construction and forward noising
# ---------------------------------------------------------------------------


def test_single_step_schedule():
    ns = make_schedule(1)
    assert ns.alpha_bar[1] == 1.0 - 1e-4
    assert ns.alpha_bar[0] == 1.0


def test_alpha_bar_monotone_default():
    ns = make_schedule(1000)
    assert ns.alpha_bar[1000] < ns.alpha_bar[1]
    assert (np.diff(ns.alpha_bar) < 0).all()
    assert ((ns.beta[1:] > 0) & (ns.beta[1:] < 1)).all()
    assert (np.diff(ns.beta[1:]) >= 0).all()


def test_alpha_bar_matches_cumprod_oracle():
    ns = make_schedule(5)
    direct = 1.0
    for t in range(1, 6):
        direct *= 1.0 - ns.beta[t]
        assert np.isclose(ns.alpha_bar[t], direct)
    assert np.isclose(ns.alpha_bar[2], (1 - ns.beta[1]) * (1 - ns.beta[2]))


def test_make_schedule_rejects_bad_ranges():
    with pytest.raises(ValueError):
        make_schedule(0)


def test_noise_sample_endpoints():
    ns = make_schedule(1000)
    x0 = np.full((2, 2), 0.5, np.float32)
    eps = np.full((2, 2), -1.0, np.float32)
    assert np.array_equal(noise_sample(x0, 0, eps, ns), x0)  # alpha_bar(0) = 1
    nearly_noise = noise_sample(x0, 1000, eps, ns)
    assert np.abs(nearly_noise - eps).max() < 0.1


def test_noise_sample_rejects_out_of_range():
    ns = make_schedule(10)
    with pytest.raises(ValueError):
        noise_sample(np.zeros(1, np.float32), 11, np.zeros(1, np.float32), ns)


def test_noise_sample_variance_monte_carlo():
    ns = make_schedule(1000)
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=16).astype(np.float32)
    x0 /= np.linalg.norm(x0)  # fixed unit-norm input: Var(x0) term is 0
    for t in (100, 500, 900):
        draws = np.stack([
            noise_sample(x0, t, rng.standard_normal(16).astype(np.float32), ns)
            for _ in range(10_000)])
        expect = 1.0 - ns.alpha_bar_at(t)
        got = draws.var(axis=0).mean()  # per-coordinate variance across draws
        assert abs(got - expect) / expect < 0.03


# ---------------------------------------------------------------------------
# spacing and ddim
# ---------------------------------------------------------------------------


def test_spacing_examples():
    assert spacing(1, 1000) == [1000.0]
    assert spacing(4, 1000) == [1000.0, 750.0, 500.0, 250.0]
    assert spacing(10, 10) == [10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
    with pytest.raises(ValueError):
        spacing(0, 100)
    with pytest.raises(ValueError):
        spacing(101, 100)


def test_ddim_inverts_known_noise():
    ns = make_schedule(1000)
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=(4,)).astype(np.float32)
    eps = rng.normal(size=(4,)).astype(np.float32)
    x_t = noise_sample(x0, 600, eps, ns)
    # with the exact generating eps, one step to 0 recovers x0
    out = ddim_step(x_t, eps, 600, 0, ns)
    assert np.allclose(out, x0, atol=1e-4)


def test_ddim_final_step_returns_x0_pred():
    ns = make_schedule(1000)
    x_t = np.array([0.3], np.float32)
    eps = np.array([0.1], np.float32)
    ab = ns.alpha_bar_at(50)
    expect = (x_t - np.sqrt(1 - ab) * eps) / np.sqrt(ab)
    assert np.allclose(ddim_step(x_t, eps, 50, 0, ns), expect, atol=1e-5)


def test_ddim_halfstep_composition_with_constant_model():
    # algebraic consistency: a constant-eps predictor makes DDIM exactly
    # composable across intermediate steps
    ns = make_schedule(1000)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(8,)).astype(np.float32)
    eps = rng.normal(size=(8,)).astype(np.float32) * 0.3
    one = ddim_step(x, eps, 1000, 500, ns)
    two = ddim_step(ddim_step(x, eps, 1000, 750, ns), eps, 750, 500, ns)
    assert np.allclose(one, two, rtol=1e-4, atol=1e-4)


def test_ddim_validates_order():
    ns = make_schedule(1000)
    with pytest.raises(ValueError):
        ddim_step(np.zeros(1, np.float32), np.zeros(1, np.float32), 100, 100, ns)


# ---------------------------------------------------------------------------
# t_post rules
# ---------------------------------------------------------------------------


def test_t_post_uniform_values():
    plan = make_plan(10, 1000, "uniform", "all", (8, 19), 28)
    assert plan.t_post(0) == 1000.0 - 100.0 / 2.0 == 950.0
    assert plan.t_post(9) == 100.0 - 100.0 / 2.0 == 50.0  # the last gap runs down to 0
    plan = make_plan(16, 1000, "uniform", "all", (8, 19), 28)
    assert plan.t_post(8) == 500.0 - 62.5 / 2.0


def test_t_post_rescaled_values():
    plan = make_plan(10, 1000, "rescaled", "all", (8, 19), 28)
    assert plan.t_post(0) == 1000.0 - 100.0 * (12 / 28)
    assert abs(plan.t_post(0) - 957.142857142857) < 1e-9
    plan = make_plan(4, 1000, "rescaled", "all", (0, 5), 6)  # m = n
    assert plan.t_post(1) == 750.0 - 250.0 * (6 / 6) == 500.0


def test_t_post_annealed_values():
    plan = make_plan(10, 1000, "annealed", "all", (8, 19), 28)
    assert plan.t_post(0) == 1000.0 - 100.0 * (12 / 28)  # step 0: the rescaled rule
    assert plan.t_post(1) == 900.0 - max(100.0 * (28 / 12) * (900.0 / 1000), 10.0)
    assert abs(plan.t_post(1) - 690.0) < 1e-9
    plan = make_plan(20, 100, "annealed", "all", (0, 5), 6)
    # a tiny shift falls back to the floor of 10
    assert plan.t_post(10) == 50.0 - max(5.0 * (6 / 6) * (50.0 / 100), 10.0) == 40.0
    # clamped at zero
    assert plan.t_post(19) == max(5.0 - max(5.0 * (6 / 6) * (5.0 / 100), 10.0), 0.0) == 0.0


# ---------------------------------------------------------------------------
# plans and presets
# ---------------------------------------------------------------------------


def test_preset_skip_inner_counts():
    plan10 = make_plan(10, 1000, "rescaled", "skip_inner", (8, 19), 28)
    assert sum(plan10.feedback) == 4
    assert [k for k, f in enumerate(plan10.feedback, start=1) if f] == [1, 2, 9, 10]
    plan12 = make_plan(12, 1000, "rescaled", "skip_inner", (8, 19), 28)
    assert sum(plan12.feedback) == 4
    assert sum(not f for f in plan12.feedback[2:10]) == 8  # middle 8 skipped


def test_preset_all_and_alternating():
    assert sum(make_plan(6, 1000, "uniform", "all", (0, 1), 4).feedback) == 6
    alt = make_plan(6, 1000, "uniform", "alternating", (0, 1), 4)
    assert alt.feedback == (True, False, True, False, True, False)


def test_preset_first_last_outer():
    first = make_plan(8, 1000, "uniform", "first_only", (0, 1), 4)
    assert first.feedback == (True,) * 4 + (False,) * 4
    last = make_plan(8, 1000, "uniform", "last_only", (0, 1), 4)
    assert last.feedback == (False,) * 4 + (True,) * 4
    outer = make_plan(8, 1000, "uniform", "skip_inner", (0, 1), 4)
    assert outer.feedback == (True,) * 2 + (False,) * 4 + (True,) * 2


def test_preset_too_small_raises():
    with pytest.raises(ValueError):
        make_plan(4, 1000, "uniform", "skip_inner", (0, 1), 4)
    with pytest.raises(ValueError):
        make_plan(1, 1000, "uniform", "alternating", (0, 1), 4)


def test_plan_validation():
    with pytest.raises(ValueError):
        InferencePlan(steps=(100.0, 200.0), feedback=(True, True),
                      tpost_mode="uniform", loop_start=0, loop_end=1, n_blocks=4, T=1000)
    with pytest.raises(ValueError):
        make_plan(4, 1000, "bogus", "all", (0, 1), 4)
    with pytest.raises(ValueError):
        make_plan(4, 1000, "uniform", "all", (3, 1), 4)
    with pytest.raises(ValueError):
        make_plan(4, 1000, "rescaled", "all", (0, 4), 4)  # a loop wider than the depth


def test_plan_tpost_clamps_and_orders():
    plan = make_plan(8, 1000, "annealed", "all", (0, 5), 6)
    for k in range(plan.S):
        tp = plan.t_post(k)
        assert 0.0 <= tp <= plan.steps[k]
    # first annealed step must match the rescaled rule exactly
    t0, i0 = plan.steps[0], plan.gap(0)
    assert plan.t_post(0) == t0 - i0 * (6 / 6)
    # later steps use the annealed rule
    t1, i1 = plan.steps[1], plan.gap(1)
    assert plan.t_post(1) == t1 - max(i1 * (6 / 6) * (t1 / 1000), 10.0)


def test_plan_tpost_at_extends_the_step_rule_between_steps():
    for mode in ("uniform", "rescaled", "annealed", "identity"):
        plan = make_plan(8, 1000, mode, "skip_inner", (2, 4), 6)
        for k in range(plan.S):
            assert plan.t_post_at(plan.steps[k]) == plan.t_post(k)
    plan = make_plan(8, 1000, "rescaled", "skip_inner", (2, 4), 6)
    for t in (999.0, 600.0, 126.0, 100.0):
        assert plan.t_post_at(t) == pytest.approx(t - 125.0 * 3 / 6, abs=1e-9)
    assert plan.t_post_at(1.0) == 0.0  # clamped to [0, t]
    with pytest.raises(ValueError):
        plan.t_post_at(0.0)


def test_plan_gap_uses_next_step_and_final_reaches_zero():
    plan = make_plan(4, 1000, "uniform", "all", (0, 1), 4)
    assert [plan.gap(k) for k in range(4)] == [250.0, 250.0, 250.0, 250.0]


# ---------------------------------------------------------------------------
# closed-form costs
# ---------------------------------------------------------------------------


def test_cost_closed_forms_match_published_counts():
    assert baseline_block_cost(28, 20) == 560
    assert baseline_block_cost(28, 12) == 336
    assert ilf_block_cost(28, 10, 12, 4) == 332
    assert ilf_block_cost(28, 12, 6, 12) == 420
    assert ilf_block_cost(28, 12, 12, 4) == 388
    assert cached_block_cost(28, 20, 18, 3) == 326
    assert cached_block_cost(28, 20, 18, 2) == 380


def test_refresh_count_phasing():
    assert refresh_count(20, 3) == 7
    assert refresh_count(20, 2) == 10
    assert refresh_count(5, 1) == 5
    with pytest.raises(ValueError):
        refresh_count(5, 0)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


@pytest.fixture
def sampler_setup():
    cfg = tiny_config(T=1000)
    model = DiT(cfg, np.random.default_rng(31))
    randomize(model, np.random.default_rng(32), 0.08)
    model.set_trainable(False)
    fs = make_feedback(model, 1, 2, np.random.default_rng(33))
    fs.set_trainable(False)
    ns = make_schedule(cfg.T)
    return model, fs, ns


def test_sample_deterministic_and_counts(sampler_setup):
    model, fs, ns = sampler_setup
    plan = make_plan(5, 1000, "rescaled", "skip_inner", (1, 2), model.cfg.n_blocks)
    a = sample("ilf", model, ns, plan, 1, seed=5, fs=fs, n_samples=2)
    b = sample("ilf", model, ns, plan, 1, seed=5, fs=fs, n_samples=2)
    assert np.array_equal(a.images, b.images)
    n, m = model.cfg.n_blocks, fs.m
    assert a.block_forwards == ilf_block_cost(n, 5, m, sum(plan.feedback))
    # the counted total equals the plan's closed form over presets and loops
    for loop in ((0, 0), (1, 2), (0, 2), (2, 2)):
        fs_loop = make_feedback(model, *loop, np.random.default_rng(34))
        for S, preset in ((5, "skip_inner"), (6, "first_only"), (6, "last_only"),
                          (7, "skip_inner"), (2, "alternating"), (6, "alternating"),
                          (1, "all"), (4, "all")):
            plan = make_plan(S, 1000, "rescaled", preset, loop, n)
            res = sample("ilf", model, ns, plan, 0, seed=5, fs=fs_loop)
            assert res.block_forwards == plan.block_cost("ilf")
            assert res.block_forwards == ilf_block_cost(n, S, fs_loop.m, sum(plan.feedback))


def test_sample_taps_are_block_outputs_and_change_nothing(sampler_setup):
    model, fs, ns = sampler_setup
    cfg = model.cfg
    plain = make_plain_plan(5, 1000, cfg.n_blocks)
    # skip_inner at S=5 runs a plain step between feedback steps
    feedback = make_plan(5, 1000, "rescaled", "skip_inner", (1, 2), cfg.n_blocks)
    cache_cfg = CacheConfig.from_preset("inner", 1, cfg.n_blocks, 2)
    for kind, plan, kw in (("baseline", plain, {}), ("ilf", feedback, {"fs": fs}),
                           ("cached", plain, {"cache_cfg": cache_cfg})):
        taps = []
        off = sample(kind, model, ns, plan, None, seed=7, n_samples=2, **kw)
        on = sample(kind, model, ns, plan, None, seed=7, n_samples=2, taps=taps, **kw)
        assert np.array_equal(on.images, off.images)
        assert on.block_forwards == off.block_forwards
        assert len(taps) == 2
        for sample_taps in taps:
            assert len(sample_taps) == plan.S
            for step_taps in sample_taps:
                assert len(step_taps) == cfg.n_blocks
                assert all(f.shape == (cfg.tokens, cfg.hidden_dim) for f in step_taps)


def test_sample_baseline_cost_and_shape(sampler_setup):
    model, _, ns = sampler_setup
    plan = make_plain_plan(6, 1000, model.cfg.n_blocks)
    res = sample("baseline", model, ns, plan, 0, seed=9, n_samples=3)
    assert res.images.shape == (3, 1, 8, 8)
    assert res.block_forwards == baseline_block_cost(model.cfg.n_blocks, 6)
    assert res.cost_row()["block_forwards"] == res.block_forwards
    n = model.cfg.n_blocks
    for S in (1, 3, 6):
        plan = make_plain_plan(S, 1000, n)
        res = sample("baseline", model, ns, plan, 0, seed=9)
        assert res.block_forwards == plan.block_cost("baseline") == n * S


def test_sigma_rule_ddim_never_sees_tpost(sampler_setup, monkeypatch):
    import ditlab.schedule as schedule

    model, fs, ns = sampler_setup
    plan = make_plan(5, 1000, "rescaled", "all", (1, 2), model.cfg.n_blocks)
    pairs = []

    def spy_ddim(x_t, eps_hat, t, t_next, ns):
        pairs.append((t, t_next))
        return ddim_step(x_t, eps_hat, t, t_next, ns)

    monkeypatch.setattr(schedule, "ddim_step", spy_ddim)
    sample("ilf", model, ns, plan, 1, seed=6, fs=fs, n_samples=2)
    nxt = list(plan.steps[1:]) + [0.0]
    assert pairs == list(zip(plan.steps, nxt)) * 2  # every image, every step
    tposts = {plan.t_post(k) for k in range(plan.S)}
    seen = {p[0] for p in pairs} | {p[1] for p in pairs}
    assert not (tposts & seen - {0.0} - set(plan.steps))


def test_sample_requires_feedback_state(sampler_setup):
    model, _, ns = sampler_setup
    plan = make_plan(5, 1000, "rescaled", "all", (1, 2), model.cfg.n_blocks)
    with pytest.raises(ValueError):
        sample("ilf", model, ns, plan, 0, seed=1)


def test_sample_round_robin_labels(sampler_setup):
    model, _, ns = sampler_setup
    plan = make_plain_plan(3, 1000, model.cfg.n_blocks)
    res = sample("baseline", model, ns, plan, None, seed=2, n_samples=6)
    assert res.labels == [0, 1, 2, 3, 0, 1]


def test_sample_rejects_unknown_kind(sampler_setup):
    model, _, ns = sampler_setup
    plan = make_plain_plan(3, 1000, model.cfg.n_blocks)
    with pytest.raises(ValueError):
        sample("mystery", model, ns, plan, 0, seed=1)
    with pytest.raises(ValueError):
        plan.block_cost("mystery")


def test_sampler_runs_exactly_the_plan_actions(sampler_setup, monkeypatch):
    """Each step of each kind runs the pass its action names: model.forward
    for full, ilf_forward for feedback, cached_forward refreshing or not for
    refresh and hit. The cost row counts the same actions."""
    import ditlab.schedule as schedule

    model, fs, ns = sampler_setup
    n = model.cfg.n_blocks
    seen = []
    forward, ilf, cached = model.forward, schedule.ilf_forward, schedule.cached_forward

    def spy_forward(*args, **kwargs):
        seen.append("full")
        return forward(*args, **kwargs)

    def spy_ilf(*args, **kwargs):
        seen.append("feedback")
        return ilf(*args, **kwargs)

    def spy_cached(model, x, t, label, cfg, store, refresh, feats=None):
        seen.append("refresh" if refresh else "hit")
        return cached(model, x, t, label, cfg, store, refresh, feats)

    monkeypatch.setattr(model, "forward", spy_forward)
    monkeypatch.setattr(schedule, "ilf_forward", spy_ilf)
    monkeypatch.setattr(schedule, "cached_forward", spy_cached)

    runs = []  # (kind, plan, sample kwargs, the expected actions)
    for S in (1, 2, 5, 7):
        plain = make_plain_plan(S, 1000, n)
        runs.append(("baseline", plain, {}, ("full",) * S))
        for preset in ("all", "alternating", "skip_inner", "first_only", "last_only"):
            if S >= {"all": 1, "alternating": 2}.get(preset, 5):
                plan = make_plan(S, 1000, "rescaled", preset, (1, 2), n)
                runs.append(("ilf", plan, {"fs": fs},
                             tuple("feedback" if f else "full" for f in plan.feedback)))
        for p in (1, 2, 3):
            runs.append(("cached", plain,
                         {"cache_cfg": CacheConfig.from_preset("inner", 1, n, p)},
                         tuple("hit" if k % p else "refresh" for k in range(S))))
    for kind, plan, kw, expected in runs:
        seen.clear()
        res = sample(kind, model, ns, plan, 0, seed=3, **kw)
        actions = plan.actions(kind, kw.get("cache_cfg"))
        assert tuple(seen) == actions == expected, (kind, plan.S, kw)
        assert res.cost_row()["feedback_steps"] == sum(
            a in ("feedback", "refresh") for a in actions)
        assert res.block_forwards == plan.block_cost(kind, kw.get("cache_cfg"))

    feedback_plan = make_plan(5, 1000, "rescaled", "skip_inner", (1, 2), n)
    with pytest.raises(ValueError):
        feedback_plan.block_cost("cached", CacheConfig.from_preset("inner", 1, n, 2))


def test_sampler_runs_the_blocks_it_counts(sampler_setup, monkeypatch):
    """The block forwards that actually run, counted at DiTBlock.run (the
    feedback block included), equal the plan's block_cost per image."""
    from ditlab.dit import DiTBlock

    model, fs, ns = sampler_setup
    n = model.cfg.n_blocks
    calls = []
    run = DiTBlock.run

    def spy_run(self, *args, **kwargs):
        calls.append(1)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(DiTBlock, "run", spy_run)
    for S in (1, 2, 5):
        plain = make_plain_plan(S, 1000, n)
        runs = [("baseline", plain, {})]
        for preset in ("all", "skip_inner") if S >= 5 else ("all",):
            runs.append(("ilf", make_plan(S, 1000, "rescaled", preset, (1, 2), n), {"fs": fs}))
        for p in (1, 2, 3):
            runs.append(("cached", plain, {"cache_cfg": CacheConfig.from_preset("inner", 1, n, p)}))
        for kind, plan, kw in runs:
            calls.clear()
            res = sample(kind, model, ns, plan, None, seed=3, n_samples=3, **kw)
            cost = plan.block_cost(kind, kw.get("cache_cfg"))
            assert len(calls) == cost * 3 == res.block_forwards * 3, (kind, S, kw)


def test_sample_records_no_tape_for_trainable_state(sampler_setup, monkeypatch):
    """A still-trainable model and feedback state sample the same images as
    frozen ones, and no op output links a tape node while sampling."""
    import ditlab.autodiff as autodiff

    model, fs, ns = sampler_setup
    plan = make_plan(5, 1000, "rescaled", "all", (1, 2), model.cfg.n_blocks)
    frozen = sample("ilf", model, ns, plan, None, seed=8, fs=fs, n_samples=2)

    linked = []
    make = autodiff._make

    def counted_make(data, parents, vjp):
        out = make(data, parents, vjp)
        if out._parents:
            linked.append(out)
        return out

    monkeypatch.setattr(autodiff, "_make", counted_make)
    model.set_trainable(True)
    fs.set_trainable(True)
    trainable = sample("ilf", model, ns, plan, None, seed=8, fs=fs, n_samples=2)
    assert np.array_equal(trainable.images, frozen.images)
    assert linked == []
    # outside sampling, a trainable model records its tape again
    model.forward(np.zeros((1, 8, 8), np.float32), 500.0, 0)
    assert linked
