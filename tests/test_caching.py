import numpy as np
import pytest

from conftest import cached_block_cost, randomize, refresh_count, tiny_config
from ditlab import DiT
from ditlab.autodiff import Tensor
from ditlab.caching import (
    CacheConfig,
    CacheStore,
    cached_forward,
    cached_run_block,
    location_preset,
)
from ditlab.schedule import make_plain_plan, make_schedule, sample


@pytest.fixture
def model():
    m = DiT(tiny_config(), np.random.default_rng(71))
    randomize(m, np.random.default_rng(72), 0.08)
    m.set_trainable(False)
    return m


# ---------------------------------------------------------------------------
# location presets
# ---------------------------------------------------------------------------


def test_location_presets_published_shapes():
    assert location_preset("inner", 18, 28) == tuple(range(5, 23))
    assert location_preset("first", 14, 28) == tuple(range(14))
    assert location_preset("alternating", 14, 28) == tuple(range(0, 28, 2))
    assert location_preset("last", 4, 8) == (4, 5, 6, 7)
    assert location_preset("outer", 4, 8) == (0, 1, 6, 7)


def test_location_preset_rejects_excess():
    with pytest.raises(ValueError):
        location_preset("inner", 9, 8)
    with pytest.raises(ValueError):
        location_preset("sideways", 2, 8)


def test_cache_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(blocks=(0, 0), refresh_period=2)
    with pytest.raises(ValueError):
        CacheConfig(blocks=(1,), refresh_period=0)


# ---------------------------------------------------------------------------
# cached block runs
# ---------------------------------------------------------------------------


def test_refresh_matches_plain_block(model):
    rng = np.random.default_rng(73)
    h = Tensor(rng.normal(size=(4, 16)).astype(np.float32))
    cond = Tensor(rng.normal(size=16).astype(np.float32))
    store = CacheStore()
    out, cost = cached_run_block(model, 1, h, cond, store, refresh=True)
    assert cost == 1
    assert np.array_equal(out.data, model.blocks[1].run(h, cond).data)


def test_hit_after_refresh_identical_inputs(model):
    rng = np.random.default_rng(74)
    h = Tensor(rng.normal(size=(4, 16)).astype(np.float32))
    cond = Tensor(rng.normal(size=16).astype(np.float32))
    store = CacheStore()
    refreshed, _ = cached_run_block(model, 1, h, cond, store, refresh=True)
    hit, cost = cached_run_block(model, 1, h, cond, store, refresh=False)
    assert cost == 0
    assert np.array_equal(hit.data, refreshed.data)


def test_hit_with_new_input_applies_stale_deltas(model):
    rng = np.random.default_rng(75)
    h1 = Tensor(rng.normal(size=(4, 16)).astype(np.float32))
    h2 = Tensor(rng.normal(size=(4, 16)).astype(np.float32))
    cond = Tensor(rng.normal(size=16).astype(np.float32))
    store = CacheStore()
    cached_run_block(model, 1, h1, cond, store, refresh=True)
    hit, _ = cached_run_block(model, 1, h2, cond, store, refresh=False)
    attn, mlp = store.get(1)
    assert np.array_equal(hit.data, (h2.data + attn) + mlp)
    fresh = model.blocks[1].run(h2, cond)
    assert not np.array_equal(hit.data, fresh.data)  # drift source


def test_hit_before_refresh_is_an_error(model):
    h = Tensor(np.zeros((4, 16), np.float32))
    cond = Tensor(np.zeros(16, np.float32))
    with pytest.raises(ValueError):
        cached_run_block(model, 0, h, cond, CacheStore(), refresh=False)


def test_cached_forward_counts(model):
    cfg = CacheConfig(blocks=(0, 2), refresh_period=2)
    store = CacheStore()
    x = np.random.default_rng(76).normal(size=(1, 8, 8)).astype(np.float32)
    _, c_refresh = cached_forward(model, x, 500.0, 1, cfg, store, refresh=True)
    assert c_refresh == model.cfg.n_blocks
    _, c_hit = cached_forward(model, x, 400.0, 1, cfg, store, refresh=False)
    assert c_hit == model.cfg.n_blocks - 2


# ---------------------------------------------------------------------------
# cached sampling
# ---------------------------------------------------------------------------


def test_refresh_every_step_equals_baseline(model):
    ns = make_schedule(model.cfg.T)
    plan = make_plain_plan(6, model.cfg.T, model.cfg.n_blocks)
    cache_cfg = CacheConfig.from_preset("inner", 2, model.cfg.n_blocks, refresh_period=1)
    base = sample("baseline", model, ns, plan, 1, seed=3, n_samples=2)
    cached = sample("cached", model, ns, plan, 1, seed=3, cache_cfg=cache_cfg, n_samples=2)
    assert np.array_equal(base.images, cached.images)
    assert cached.block_forwards == base.block_forwards


def test_cached_sample_cost_closed_form(model):
    ns = make_schedule(model.cfg.T)
    n = model.cfg.n_blocks
    for S, c, p in ((6, 2, 2), (5, 1, 3), (8, 3, 2), (1, 1, 1), (7, 0, 2), (4, 3, 5)):
        plan = make_plain_plan(S, model.cfg.T, n)
        for location in ("inner", "outer", "alternating"):
            cache_cfg = CacheConfig.from_preset(location, c, n, refresh_period=p)
            res = sample("cached", model, ns, plan, 0, seed=4, cache_cfg=cache_cfg)
            assert res.block_forwards == cached_block_cost(n, S, c, p)
            assert res.block_forwards == plan.block_cost("cached", cache_cfg)
            assert res.cost_row()["m"] == c
    with pytest.raises(ValueError):
        plan.block_cost("cached")  # the closed form needs the cache config


def test_cached_sample_rejects_feedback_plan(model):
    from ditlab.schedule import make_plan

    ns = make_schedule(model.cfg.T)
    plan = make_plan(5, model.cfg.T, "rescaled", "all", (0, 1), model.cfg.n_blocks)
    cache_cfg = CacheConfig.from_preset("inner", 2, model.cfg.n_blocks, 2)
    with pytest.raises(ValueError):
        sample("cached", model, ns, plan, 0, seed=1, cache_cfg=cache_cfg)


def test_exhaustive_cost_grid():
    # closed form must hold for every small (n, S, c, p) combination
    for n in (2, 3, 5):
        for S in (1, 2, 5, 8):
            for c in range(n + 1):
                for p in (1, 2, 3):
                    cost = cached_block_cost(n, S, c, p)
                    manual = 0
                    for k in range(S):
                        refresh = (k % p == 0)
                        manual += (n - c) + (c if refresh else 0)
                    assert cost == manual
                    assert refresh_count(S, p) == sum(
                        1 for k in range(S) if k % p == 0)


def test_refreshes_counts_refresh_count():
    # the rule the cached sampler and the drift command read is the one the
    # closed-form cost counts
    for S in range(1, 13):
        for p in range(1, 8):
            cfg = CacheConfig(blocks=(0,), refresh_period=p)
            assert sum(cfg.refreshes(k) for k in range(S)) == refresh_count(S, p)
            assert cfg.refreshes(0)
