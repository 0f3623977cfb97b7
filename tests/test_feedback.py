import numpy as np
import pytest

from conftest import randomize, tiny_config
from ditlab import BackboneConfig, DiT, make_feedback
from ditlab.autodiff import Tensor, backward, mse
from ditlab.feedback import FeedbackState, ilf_forward


@pytest.fixture
def setup():
    cfg = tiny_config()
    model = DiT(cfg, np.random.default_rng(41))
    randomize(model, np.random.default_rng(42), 0.08)
    model.set_trainable(False)
    fs = make_feedback(model, 1, 2, np.random.default_rng(43))
    return model, fs


def test_make_feedback_validates_bounds(setup):
    model, _ = setup
    with pytest.raises(ValueError):
        make_feedback(model, 2, 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        make_feedback(model, 0, model.cfg.n_blocks, np.random.default_rng(0))


def test_fresh_state_zero_s_and_trainable(setup):
    _, fs = setup
    assert np.array_equal(fs.s.data, np.zeros(2, np.float32))
    assert all(p.requires_grad for p in fs.params())
    assert fs.m == 2


def test_tpost_above_t_rejected(setup):
    model, fs = setup
    x = np.zeros((1, 8, 8), np.float32)
    with pytest.raises(ValueError):
        ilf_forward(model, fs, x, 100.0, 150.0, 0)


def test_zero_feedback_equivalence_bit_exact(setup):
    """s=0 with t_post=t reduces the feedback pass to the plain forward."""
    model, fs = setup
    rng = np.random.default_rng(44)
    for _ in range(3):
        x = rng.normal(size=(1, 8, 8)).astype(np.float32)
        t = float(rng.integers(1, 1000))
        eps_ilf, count = ilf_forward(model, fs, x, t, t, 1)
        eps_plain = model.forward(x, t, 1)
        assert np.array_equal(eps_ilf.data, eps_plain.data)
        assert count == model.cfg.n_blocks + fs.m + 1


def test_block_forward_count_formula():
    # paper-scale shape: 28 blocks, loop 8..19 -> 28 + 12 + 1 = 41 per pass
    cfg = BackboneConfig(image_size=8, patch_size=4, hidden_dim=16, n_heads=2,
                         n_blocks=28, n_classes=4)
    model = DiT(cfg, np.random.default_rng(45))
    fs = make_feedback(model, 8, 19, np.random.default_rng(46))
    x = np.zeros((1, 8, 8), np.float32)
    _, count = ilf_forward(model, fs, x, 1000.0, 500.0, 0)
    assert count == 41
    # toy shape from the cost contract: n=6, loop (2, 4) -> 10
    cfg6 = BackboneConfig(image_size=8, patch_size=4, hidden_dim=16, n_heads=2,
                          n_blocks=6, n_classes=4)
    model6 = DiT(cfg6, np.random.default_rng(47))
    fs6 = make_feedback(model6, 2, 4, np.random.default_rng(48))
    _, count6 = ilf_forward(model6, fs6, x, 800.0, 400.0, 1)
    assert count6 == 10


def test_count_invariant_over_loop_choices():
    cfg = tiny_config(n_blocks=4)
    model = DiT(cfg, np.random.default_rng(49))
    x = np.zeros((1, 8, 8), np.float32)
    for b in range(4):
        for e in range(b, 4):
            fs = make_feedback(model, b, e, np.random.default_rng(50))
            _, count = ilf_forward(model, fs, x, 500.0, 250.0, 0)
            assert count == 4 + (e - b + 1) + 1


def test_injection_affine_in_s_at_final_layer_input():
    """With identity (fresh) loop and tail blocks and a random feedback
    block, the final-layer input is exactly affine in each s_i."""
    cfg = tiny_config(n_blocks=3)
    model = DiT(cfg, np.random.default_rng(51))  # all blocks fresh => identity
    fs = make_feedback(model, 1, 2, np.random.default_rng(52))
    randomize_block(fs, np.random.default_rng(53))
    x = np.random.default_rng(54).normal(size=(1, 8, 8)).astype(np.float32)

    def final_input(s_values):
        fs.s.data = np.asarray(s_values, np.float32)
        taps = []
        ilf_forward(model, fs, x, 600.0, 300.0, 1, taps)
        return taps[-1].astype(np.float64)

    for i in range(fs.m):
        base = [0.0] * fs.m
        s0 = final_input(base)
        base[i] = 1.0
        s1 = final_input(base)
        base[i] = 2.0
        s2 = final_input(base)
        assert np.abs((s2 - s0) - 2.0 * (s1 - s0)).max() <= 1e-5


def randomize_block(fs, rng, scale=0.1):
    for p in fs.block.named_params().values():
        p.data = (p.data + rng.normal(0.0, scale, p.data.shape)).astype(np.float32)


def test_injection_constant_when_feed_is_identity():
    # fully fresh model and fresh feedback block: f_feed equals the tokens,
    # so scaling them only rescales the final layer-norm input, and eps_hat
    # is constant (trivially affine) in every s_i
    cfg = tiny_config(n_blocks=3)
    model = DiT(cfg, np.random.default_rng(55))
    model.final_w.data = np.random.default_rng(56).normal(
        0, 0.1, model.final_w.data.shape).astype(np.float32)
    fs = make_feedback(model, 1, 2, np.random.default_rng(57))
    x = np.random.default_rng(58).normal(size=(1, 8, 8)).astype(np.float32)
    outs = []
    for val in (0.0, 1.0, 2.0):
        fs.s.data = np.full(fs.m, val, np.float32)
        eps, _ = ilf_forward(model, fs, x, 600.0, 300.0, 1)
        outs.append(eps.data.copy())
    assert np.abs(outs[2] - outs[0]).max() <= 1e-5
    assert np.abs((outs[2] - outs[0]) - 2 * (outs[1] - outs[0])).max() <= 1e-5


def test_gradient_reaches_s(setup):
    model, fs = setup
    randomize_block(fs, np.random.default_rng(59))
    rng = np.random.default_rng(60)
    x = rng.normal(size=(1, 8, 8)).astype(np.float32)
    target = rng.normal(size=(1, 8, 8)).astype(np.float32)
    pred, _ = ilf_forward(model, fs, x, 700.0, 350.0, 2)
    backward(mse(pred, Tensor(target)))
    assert fs.s.grad is not None
    assert np.abs(fs.s.grad).max() > 0
    assert fs.block.wq.grad is not None
    # frozen backbone receives nothing
    assert all(p.grad is None for p in model.params())


def test_tap_covers_effective_outputs(setup):
    model, fs = setup
    fs.s.data = np.array([0.3, -0.2], np.float32)
    rng = np.random.default_rng(61)
    x = rng.normal(size=(1, 8, 8)).astype(np.float32)
    taps = []
    eps, count = ilf_forward(model, fs, x, 500.0, 250.0, 1, taps)
    assert len(taps) == model.cfg.n_blocks
    eps_plain, _ = ilf_forward(model, fs, x, 500.0, 250.0, 1)
    assert np.array_equal(eps.data, eps_plain.data)


@pytest.mark.parametrize("which", ["forward", "ilf_forward"])
def test_unbatched_call_is_a_batch_of_one(setup, which):
    """One image takes a batch's path: its output equals row 0 of the same
    call at B=1 in every bit, and each row of a B=3 call equals the image's
    own call within float32 rounding."""
    model, fs = setup
    randomize(fs, np.random.default_rng(45), 0.08)  # live gates and s
    rng = np.random.default_rng(46)
    x = rng.normal(size=(3, 1, 8, 8)).astype(np.float32)
    t, t_post = np.array([700.0, 420.0, 90.0]), np.array([500.0, 300.0, 60.0])
    ids = np.array([1, 3, 0])

    def run(j):  # an int for one image, a slice for a batch
        if which == "forward":
            return model.forward(x[j], t[j], ids[j]).data
        return ilf_forward(model, fs, x[j], t[j], t_post[j], ids[j])[0].data

    one = run(0)
    assert one.shape == (1, 8, 8)
    assert np.array_equal(one, run(slice(0, 1))[0])
    batch = run(slice(0, 3))
    for j in range(3):
        np.testing.assert_allclose(batch[j], run(j), rtol=1e-5)
