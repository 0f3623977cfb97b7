import math

import numpy as np
import pytest

from ditlab.analysis import (
    BenchEntry,
    bench,
    compare_drift,
    drift_csv,
    drift_over_blocks,
    drift_over_time,
    heatmap_pgm,
    median_bandwidth,
    normalize_pair,
    rbf_mmd2,
    toy_quality,
)
from ditlab.pgm import pgm_bytes


def taps_from(arr):
    """arr: [S, n_blocks, L, D] -> per step, the list of block outputs."""
    return [[np.asarray(arr[k, b], np.float32) for b in range(arr.shape[1])]
            for k in range(arr.shape[0])]


def mmd2_oracle(x, y, bandwidth):
    """Quadratic-time direct-sum V-statistic with math.exp, no vectorization."""
    x = [np.asarray(v, np.float64).ravel() for v in x]
    y = [np.asarray(v, np.float64).ravel() for v in y]
    gamma = 1.0 / (2.0 * bandwidth * bandwidth)

    def k(a, b):
        d = a - b
        return math.exp(-gamma * float(d @ d))

    kxx = sum(k(a, b) for a in x for b in x) / (len(x) ** 2)
    kyy = sum(k(a, b) for a in y for b in y) / (len(y) ** 2)
    kxy = sum(k(a, b) for a in x for b in y) / (len(x) * len(y))
    return kxx + kyy - 2 * kxy


def norm_oracle(a, b):
    """Scalar-loop L2 norm of the difference of two feature maps."""
    total = 0.0
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            total += (float(a[i, j]) - float(b[i, j])) ** 2
    return math.sqrt(total)


# ---------------------------------------------------------------------------
# drift matrices
# ---------------------------------------------------------------------------


def test_drift_over_time_first_column_zero():
    rng = np.random.default_rng(0)
    taps = taps_from(rng.normal(size=(5, 3, 4, 6)))
    raw = drift_over_time(taps)
    assert np.allclose(raw[:, 0], 0.0)
    assert (raw >= 0).all()


def test_drift_over_time_constant_features():
    arr = np.tile(np.random.default_rng(1).normal(size=(1, 3, 4, 6)), (5, 1, 1, 1))
    raw = drift_over_time(taps_from(arr))
    assert np.allclose(raw, 0.0)


def test_drift_over_blocks_row_zero_and_oracle():
    rng = np.random.default_rng(2)
    arr = rng.normal(size=(4, 3, 4, 6))
    taps = taps_from(arr)
    raw = drift_over_blocks(taps)
    assert np.allclose(raw[0], 0.0)
    for k in range(4):
        for b in range(3):
            assert np.isclose(raw[b, k], norm_oracle(arr[k, b], arr[k, 0]), atol=1e-5)


def test_drift_over_time_matches_norm_oracle():
    rng = np.random.default_rng(3)
    arr = rng.normal(size=(3, 2, 5, 4))
    raw = drift_over_time(taps_from(arr))
    for k in range(3):
        for b in range(2):
            assert np.isclose(raw[b, k], norm_oracle(arr[k, b], arr[0, b]), atol=1e-5)


def test_normalize_pair_joint_max_is_one():
    rng = np.random.default_rng(4)
    a = np.abs(rng.normal(size=(3, 4)))
    b = np.abs(rng.normal(size=(3, 4))) * 3.0
    na, nb = normalize_pair(a, b)
    joint = max(na.max(), nb.max())
    assert abs(joint - 1.0) <= 1e-6
    assert (na >= 0).all() and (nb >= 0).all()


def test_normalize_pair_keeps_an_all_zero_pair():
    z = np.zeros((2, 2))
    na, nb = normalize_pair(z, z)
    assert (na == 0.0).all() and (nb == 0.0).all()


def test_drift_requires_two_steps():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        drift_over_time(taps_from(rng.normal(size=(1, 2, 3, 4))))


# ---------------------------------------------------------------------------
# compare_drift
# ---------------------------------------------------------------------------


def test_compare_identical_runs_ratio_one():
    rng = np.random.default_rng(6)
    arr = rng.normal(size=(5, 3, 4, 6))
    report = compare_drift(taps_from(arr), taps_from(arr))
    assert not report.degenerate
    assert np.isclose(report.ratio, 1.0)


def test_compare_drift_all_zero_degenerate():
    arr = np.zeros((4, 2, 3, 3))
    report = compare_drift(taps_from(arr), taps_from(arr))
    assert report.degenerate
    assert math.isnan(report.ratio)


def test_compare_drift_detects_reduction():
    rng = np.random.default_rng(7)
    base = rng.normal(size=(4, 2, 3, 3))
    damped = base.copy()
    damped[1:] = base[:1] + 0.3 * (base[1:] - base[:1])  # pulled toward step 0
    report = compare_drift(taps_from(base), taps_from(damped))
    assert report.cached_mean < report.baseline_mean
    assert report.ratio < 1.0


def test_compare_drift_plan_length_mismatch():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError):
        compare_drift(taps_from(rng.normal(size=(3, 2, 3, 3))),
                      taps_from(rng.normal(size=(4, 2, 3, 3))))


# ---------------------------------------------------------------------------
# CSV / PGM rendering
# ---------------------------------------------------------------------------


def test_drift_csv_layout():
    mat, _ = normalize_pair(np.array([[1.0, 2.0]]), np.array([[0.5, 0.5]]))
    text = drift_csv(mat, [1000.0, 500.0])
    lines = text.strip().split("\n")
    assert lines[0] == "block,1000.0,500.0"
    assert lines[1].startswith("0,")


def test_heatmap_pgm_format():
    mat, _ = normalize_pair(np.array([[1.0, 0.0], [0.5, 0.25]]),
                            np.array([[0.1, 0.1], [0.1, 0.1]]))
    blob = heatmap_pgm(mat)
    assert blob.startswith(b"P5\n2 2\n255\n")
    assert len(blob) == len(b"P5\n2 2\n255\n") + 4
    assert blob[-4] == 255  # the joint max maps to full white


HEADER_1x6 = b"P5\n6 1\n255\n"


def test_pgm_bytes_maps_minus_one_to_black_and_one_to_white():
    blob = pgm_bytes(np.array([[-1.0, 0.0, 1.0, 2.0, -3.0, 0.5]]))
    assert blob == HEADER_1x6 + bytes([0, 128, 255, 255, 0, 191])


def test_pgm_bytes_takes_one_channel_first():
    img = np.random.default_rng(9).uniform(-1.0, 1.0, size=(1, 3, 5))
    assert pgm_bytes(img) == pgm_bytes(img[0])
    assert pgm_bytes(img).startswith(b"P5\n5 3\n255\n")


@pytest.mark.parametrize("shape", [(3, 4, 4), (16,)])
def test_pgm_bytes_refuses_other_shapes(shape):
    with pytest.raises(ValueError):
        pgm_bytes(np.zeros(shape))


# ---------------------------------------------------------------------------
# MMD and quality
# ---------------------------------------------------------------------------


def test_mmd_identical_sets_zero():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(40, 8))
    assert rbf_mmd2(x, x.copy()) <= 1e-6


def test_mmd_symmetric():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(30, 8))
    y = rng.normal(size=(25, 8)) + 0.5
    assert abs(rbf_mmd2(x, y) - rbf_mmd2(y, x)) <= 1e-9


def test_mmd_matches_direct_sum_oracle():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(12, 5))
    y = rng.normal(size=(9, 5)) + 1.0
    bw = median_bandwidth(x, y)
    assert np.isclose(rbf_mmd2(x, y, bw), mmd2_oracle(x, y, bw), atol=1e-10)


def test_mmd_disjoint_constants_near_max():
    x = np.zeros((20, 16))
    y = np.ones((20, 16))
    # median-heuristic bandwidth equals the cross distance here, so the
    # cross kernel is exp(-1/2) exactly
    assert np.isclose(rbf_mmd2(x, y), 2 * (1 - np.exp(-0.5)), atol=1e-9)
    # a bandwidth well under the separation drives it to the maximum of 2
    assert rbf_mmd2(x, y, bandwidth=0.5) > 1.99


def test_toy_quality_contracts():
    rng = np.random.default_rng(12)
    ref = rng.normal(size=(120, 1, 4, 4)).astype(np.float32)
    labels = np.arange(120) % 4
    report = toy_quality(ref, labels, ref, labels)
    assert report.mmd <= 1e-6
    assert report.per_class_mean_err <= 1e-6
    assert report.n_samples == 120
    with pytest.raises(ValueError):
        toy_quality(ref[:50], labels[:50], ref, labels)


def test_toy_quality_constant_sets():
    zeros = np.zeros((100, 1, 4, 4), np.float32)
    ones = np.ones((100, 1, 4, 4), np.float32)
    labels = np.zeros(100, np.int64)
    report = toy_quality(ones, labels, zeros, labels)
    assert report.mmd > 0.5  # far from 0 for clearly separated sets
    assert np.isclose(report.per_class_mean_err, 4.0)  # ||1s|| over 16 pixels


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_mock_published_counts():
    entries = [
        BenchEntry(kind="baseline", steps=20),
        BenchEntry(kind="baseline", steps=12),
        BenchEntry(kind="ilf", steps=10, preset="skip_inner", loop=(8, 19)),
        BenchEntry(kind="cached", steps=20, cache_count=18, refresh_period=3),
        BenchEntry(kind="cached", steps=20, cache_count=18, refresh_period=2),
        BenchEntry(kind="ilf", steps=12, preset="all", loop=(0, 5)),
        BenchEntry(kind="ilf", steps=12, preset="skip_inner", loop=(8, 19)),
    ]
    rows = bench(entries, mock_n=28)
    assert [r.block_forwards for r in rows] == [560, 336, 332, 326, 380, 420, 388]
    assert abs(rows[2].speedup - 560 / 332) <= 1e-9
    assert round(rows[2].speedup, 2) == 1.69
    assert all(r.wall_ms == 0.0 for r in rows)


def test_bench_single_entry_speedup_one():
    rows = bench([BenchEntry(kind="baseline", steps=7)], mock_n=6)
    assert rows[0].speedup == 1.0
    assert rows[0].block_forwards == 42


def test_bench_speedup_is_count_exact():
    entries = [BenchEntry(kind="baseline", steps=20),
               BenchEntry(kind="cached", steps=20, cache_count=18, refresh_period=3)]
    rows = bench(entries, mock_n=28)
    assert rows[1].speedup == rows[0].block_forwards / rows[1].block_forwards
