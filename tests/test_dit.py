import numpy as np
import pytest

from conftest import randomize, tiny_config
from ditlab import BackboneConfig, DiT
from ditlab.autodiff import Tensor, backward, mul, sum_all
from ditlab.dit import LN_EPS, sinusoid


# ---------------------------------------------------------------------------
# straight-line block oracle (plain numpy, float64, no tape)
# ---------------------------------------------------------------------------


def block_oracle(blk, h, cond, w=None):
    """The block's output, in float64 from its parameters, or from `w`: a
    dict of float64 arrays by parameter name."""
    def ln(x):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + LN_EPS)

    def gelu(x):
        c = np.sqrt(2 / np.pi)
        return 0.5 * x * (1 + np.tanh(c * (x + 0.044715 * x**3)))

    def silu(x):
        return x / (1 + np.exp(-x))

    d, nh, hd = blk.dim, blk.n_heads, blk.head_dim
    if w is None:
        w = {k: v.data.astype(np.float64) for k, v in blk.named_params().items()}
    mod = silu(cond.astype(np.float64)) @ w["w_mod"] + w["b_mod"]
    sa, ca, ga, sm, cm, gm = (mod[j * d:(j + 1) * d] for j in range(6))

    x = ln(h.astype(np.float64)) * (1 + ca) + sa
    L = x.shape[0]
    q = (x @ w["wq"] + w["bq"]).reshape(L, nh, hd)
    k = (x @ w["wk"] + w["bk"]).reshape(L, nh, hd)
    v = (x @ w["wv"] + w["bv"]).reshape(L, nh, hd)
    att = np.zeros((L, nh, hd))
    for head in range(nh):
        for i in range(L):
            logits = np.array([q[i, head] @ k[j, head] for j in range(L)]) / np.sqrt(hd)
            p = np.exp(logits - logits.max())
            p /= p.sum()
            for j in range(L):
                att[i, head] += p[j] * v[j, head]
    attn_out = att.reshape(L, d) @ w["wo"] + w["bo"]
    h_mid = h.astype(np.float64) + attn_out * ga

    x2 = ln(h_mid) * (1 + cm) + sm
    mlp_out = gelu(x2 @ w["w1"] + w["b1"]) @ w["w2"] + w["b2"]
    return h_mid + mlp_out * gm


# ---------------------------------------------------------------------------
# patchify / unpatchify
# ---------------------------------------------------------------------------


def test_patchify_token_count():
    model = DiT(BackboneConfig(), np.random.default_rng(0))
    tokens = model.patchify(np.zeros((1, 16, 16), np.float32))
    assert tokens.shape == (16, 64)


def test_patchify_zero_image_gives_positions():
    model = DiT(BackboneConfig(), np.random.default_rng(0))
    tokens = model.patchify(np.zeros((1, 16, 16), np.float32))
    assert np.array_equal(tokens.data, model.pos.data)


def test_patchify_rejects_wrong_size():
    model = DiT(BackboneConfig(), np.random.default_rng(0))
    with pytest.raises(ValueError):
        model.patchify(np.zeros((1, 8, 8), np.float32))


def test_patch_extraction_roundtrip():
    model = DiT(BackboneConfig(), np.random.default_rng(0))
    rng = np.random.default_rng(1)
    imgs = rng.normal(size=(3, 1, 16, 16)).astype(np.float32)
    patches = model.extract_patches(imgs)
    assert patches.shape == (3, model.cfg.tokens, model.cfg.patch_dim)
    assert np.array_equal(model.unpatchify(Tensor(patches)).data, imgs)


def test_unpatchify_inverts_extract_on_tape():
    model = DiT(BackboneConfig(), np.random.default_rng(0))
    rng = np.random.default_rng(2)
    img = rng.normal(size=(1, 16, 16)).astype(np.float32)
    tokens = Tensor(model.extract_patches(img))
    assert np.array_equal(model.unpatchify(tokens).data, img)


# ---------------------------------------------------------------------------
# condition embedding
# ---------------------------------------------------------------------------


def test_embed_int_and_float_t_agree(tiny_model):
    a = tiny_model.embed_condition(0, 1).data
    b = tiny_model.embed_condition(0.0, 1).data
    assert np.array_equal(a, b)


def test_embed_fractional_t_distinct(tiny_model):
    e = tiny_model.embed_condition(957.14, 2).data
    assert not np.array_equal(e, tiny_model.embed_condition(957, 2).data)
    assert not np.array_equal(e, tiny_model.embed_condition(958, 2).data)


def test_sinusoid_pattern_at_zero(tiny_model):
    feats = sinusoid(0.0, tiny_model.cfg.hidden_dim)
    assert np.array_equal(feats, np.tile([0.0, 1.0], tiny_model.cfg.hidden_dim // 2)
                          .astype(np.float32))


def test_embed_rejects_out_of_range(tiny_model):
    with pytest.raises(ValueError):
        tiny_model.embed_condition(500.0, tiny_model.cfg.n_classes + 1)
    with pytest.raises(ValueError):
        tiny_model.embed_condition(500.0, tiny_model.cfg.n_classes)
    with pytest.raises(ValueError):
        tiny_model.embed_condition(-1.0, 0)
    with pytest.raises(ValueError):
        tiny_model.embed_condition(tiny_model.cfg.T + 1, 0)


def test_embed_continuity(tiny_random_model):
    delta = 1e-4
    for t in (3.0, 500.0, 999.0):
        a = tiny_random_model.embed_condition(t, 1).data
        b = tiny_random_model.embed_condition(t + delta, 1).data
        assert np.linalg.norm(a - b) <= 1e-3


def test_class_table_permutation_permutes_outputs(tiny_random_model):
    model = tiny_random_model
    e2 = model.embed_condition(10.0, 2).data.copy()
    e3 = model.embed_condition(10.0, 3).data.copy()
    rows = model.class_table.data.copy()
    rows[[2, 3]] = rows[[3, 2]]
    model.class_table.data = rows
    assert np.array_equal(model.embed_condition(10.0, 2).data, e3)
    assert np.array_equal(model.embed_condition(10.0, 3).data, e2)


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


def test_fresh_block_is_identity(tiny_model):
    rng = np.random.default_rng(3)
    h = Tensor(rng.normal(size=(4, 16)).astype(np.float32))
    cond = Tensor(rng.normal(size=16).astype(np.float32))
    out = tiny_model.blocks[0].run(h, cond)
    assert np.array_equal(out.data, h.data)


def test_zero_cond_zero_modulation_is_plain_block(tiny_random_model):
    # with a zeroed modulation MLP and gates forced to pass-through, the
    # block reduces to a plain pre-norm transformer block
    model = tiny_random_model
    blk = model.blocks[0]
    blk.w_mod.data[:] = 0
    blk.b_mod.data[:] = 0
    blk.b_mod.data[2 * blk.dim:3 * blk.dim] = 1.0   # attention gate = 1
    blk.b_mod.data[5 * blk.dim:6 * blk.dim] = 1.0   # mlp gate = 1
    rng = np.random.default_rng(4)
    h = rng.normal(size=(4, 16)).astype(np.float32)
    out = blk.run(Tensor(h), Tensor(np.zeros(16, np.float32))).data
    expect = block_oracle(blk, h, np.zeros(16, np.float32))
    assert np.allclose(out, expect, atol=1e-5)


def test_random_block_matches_scalar_oracle(tiny_random_model):
    rng = np.random.default_rng(5)
    blk = tiny_random_model.blocks[1]
    h = rng.normal(size=(4, 16)).astype(np.float32)
    cond = rng.normal(size=16).astype(np.float32)
    out = blk.run(Tensor(h), Tensor(cond)).data
    assert np.allclose(out, block_oracle(blk, h, cond), atol=1e-5)


def test_block_parameter_gradients_match_float64_central_differences(tiny_random_model):
    """The tape's float32 gradients against central differences of the
    float64 oracle, at a sample of coordinates of every parameter."""
    rng = np.random.default_rng(8)
    blk = tiny_random_model.blocks[1]
    h = rng.normal(size=(4, 16)).astype(np.float32)
    cond = rng.normal(size=16).astype(np.float32)
    g = rng.normal(size=(4, 16)).astype(np.float32)
    params = blk.named_params()
    backward(sum_all(mul(blk.run(Tensor(h), Tensor(cond)), Tensor(g))))

    w = {k: v.data.astype(np.float64) for k, v in params.items()}
    step = 1e-6
    for name, p in params.items():
        flat = w[name].reshape(-1)
        for i in rng.choice(flat.size, size=min(flat.size, 12), replace=False):
            orig = flat[i]
            flat[i] = orig + step
            up = (block_oracle(blk, h, cond, w) * g).sum()
            flat[i] = orig - step
            down = (block_oracle(blk, h, cond, w) * g).sum()
            flat[i] = orig
            fd = (up - down) / (2 * step)
            # float32 rounding over a [4, 16] block stays near 1e-7 here
            assert abs(p.grad.reshape(-1)[i] - fd) <= 1e-5 * max(1.0, abs(fd)), (name, i)


def test_block_rejects_bad_shapes(tiny_model):
    with pytest.raises(ValueError):
        tiny_model.blocks[0].run(Tensor(np.zeros((4, 8), np.float32)),
                                 Tensor(np.zeros(16, np.float32)))


def test_residual_branch_decomposition(tiny_random_model):
    rng = np.random.default_rng(6)
    h = Tensor(rng.normal(size=(4, 16)).astype(np.float32))
    cond = Tensor(rng.normal(size=16).astype(np.float32))
    branches = []
    out = tiny_random_model.blocks[2].run(h, cond, branches)
    attn, mlp = branches
    recomposed = h.data + attn.data + mlp.data
    assert np.abs(out.data - recomposed).max() <= 1e-6


# ---------------------------------------------------------------------------
# full forward
# ---------------------------------------------------------------------------


def test_fresh_model_predicts_zero(tiny_model):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1, 8, 8)).astype(np.float32)
    eps = tiny_model.forward(x, 400.0, 1)
    assert np.array_equal(eps.data, np.zeros_like(x))


def test_tap_structure_and_consistency(tiny_random_model):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(1, 8, 8)).astype(np.float32)
    eps_plain = tiny_random_model.forward(x, 321.5, 2)
    taps = []
    eps_tap = tiny_random_model.forward(x, 321.5, 2, taps)
    assert np.array_equal(eps_plain.data, eps_tap.data)
    assert len(taps) == tiny_random_model.cfg.n_blocks
    assert all(f.shape == (4, 16) for f in taps)


def test_forward_equals_manual_block_composition(tiny_random_model):
    model = tiny_random_model
    rng = np.random.default_rng(9)
    x = rng.normal(size=(1, 8, 8)).astype(np.float32)
    t, cls = 123.0, 3

    taps = []
    eps = model.forward(x, t, cls, taps)

    h = model.patchify(x)
    cond = model.embed_condition(t, cls)
    for i in range(model.cfg.n_blocks):
        h = model.blocks[i].run(h, cond)
        assert np.array_equal(h.data, taps[i])
    manual = model.final_layer(h, cond)
    assert np.array_equal(manual.data, eps.data)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_invariants():
    with pytest.raises(ValueError):
        tiny_config(image_size=10, patch_size=4)
    with pytest.raises(ValueError):
        tiny_config(hidden_dim=15)
    with pytest.raises(ValueError, match="even"):
        tiny_config(hidden_dim=15, n_heads=3)
    with pytest.raises(ValueError):
        tiny_config(n_blocks=1)
    with pytest.raises(ValueError):
        tiny_config(patch_size=0)
    with pytest.raises(ValueError):
        tiny_config(n_heads=0)
    for key in ("image_size", "channels", "hidden_dim", "n_classes", "mlp_ratio"):
        for value in (0, -1, -4):
            with pytest.raises(ValueError, match=f"{key} must be >= 1"):
                tiny_config(**{key: value})


def test_named_params_stable_and_complete(tiny_model):
    names = list(tiny_model.named_params())
    assert names[0] == "patch_w"
    assert "blocks.0.wq" in names and "blocks.2.b_mod" in names
    assert names == list(tiny_model.named_params())  # deterministic ordering
