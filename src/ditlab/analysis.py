"""Diagnostics: feature-drift matrices, a kernel two-sample quality score,
and the block-forward / wall-clock benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import schedule as sched
from .caching import CacheConfig
from .dit import BackboneConfig
from .pgm import p5_bytes


# ---------------------------------------------------------------------------
# feature drift (per block, per step)
# ---------------------------------------------------------------------------


@dataclass
class DriftReport:
    baseline_mean: float
    cached_mean: float
    ratio: float
    degenerate: bool


def _check_taps(taps) -> tuple:
    if len(taps) < 2:
        raise ValueError("need taps from at least 2 steps")
    n_blocks = len(taps[0])
    if any(len(t) != n_blocks for t in taps):
        raise ValueError("tap block counts differ across steps")
    return len(taps), n_blocks


def drift_over_time(taps) -> np.ndarray:
    """Raw drift: per block, L2 distance of its features from the first
    (highest-t) step's features."""
    S, n_blocks = _check_taps(taps)
    out = np.zeros((n_blocks, S), dtype=np.float64)
    for b in range(n_blocks):
        ref = taps[0][b].astype(np.float64)
        for k in range(S):
            out[b, k] = np.linalg.norm(taps[k][b].astype(np.float64) - ref)
    return out


def drift_over_blocks(taps) -> np.ndarray:
    """Raw drift: per step, L2 distance of each block's features from the
    first block's features at that step."""
    S, n_blocks = _check_taps(taps)
    out = np.zeros((n_blocks, S), dtype=np.float64)
    for k in range(S):
        ref = taps[k][0].astype(np.float64)
        for b in range(n_blocks):
            out[b, k] = np.linalg.norm(taps[k][b].astype(np.float64) - ref)
    return out


def _joint_max(a: np.ndarray, b: np.ndarray) -> float:
    """Joint maximum of a baseline/cached pair; 1.0 if both are all-zero."""
    return float(max(a.max(), b.max())) or 1.0


def normalize_pair(a: np.ndarray, b: np.ndarray) -> tuple:
    """Two paired raw drift matrices, each divided by their joint maximum."""
    mx = _joint_max(a, b)
    return a / mx, b / mx


def compare_drift(baseline_taps, cached_taps, block_subset=None, step_subset=None) -> DriftReport:
    """Mean normalized drift-over-time for paired runs, restricted to the
    given blocks/steps (defaults: every block, every step past the first),
    and their cached/baseline ratio."""
    if len(baseline_taps) != len(cached_taps):
        raise ValueError("paired runs must have the same plan length")
    raw_b = drift_over_time(baseline_taps)
    raw_c = drift_over_time(cached_taps)
    rows = sorted(block_subset) if block_subset else list(range(raw_b.shape[0]))
    cols = sorted(step_subset) if step_subset else list(range(1, raw_b.shape[1]))
    mx = _joint_max(raw_b, raw_c)
    mean_b = float(raw_b[np.ix_(rows, cols)].mean()) / mx
    mean_c = float(raw_c[np.ix_(rows, cols)].mean()) / mx
    if mean_b == 0.0:
        return DriftReport(mean_b, mean_c, float("nan"), degenerate=True)
    return DriftReport(mean_b, mean_c, mean_c / mean_b, degenerate=False)


def drift_csv(values: np.ndarray, timesteps) -> str:
    """Header row = timesteps, first column = block index."""
    lines = ["block," + ",".join(repr(float(t)) for t in timesteps)]
    for b, row in enumerate(values):
        lines.append(f"{b}," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def heatmap_pgm(values: np.ndarray) -> bytes:
    """Grayscale PGM of a normalized drift matrix, values scaled by 255."""
    return p5_bytes(np.round(np.clip(values, 0.0, 1.0) * 255.0).astype(np.uint8))


# ---------------------------------------------------------------------------
# toy sample quality
# ---------------------------------------------------------------------------


@dataclass
class QualityReport:
    mmd: float
    per_class_mean_err: float
    n_samples: int


def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    xx = (x * x).sum(axis=1)[:, None]
    yy = (y * y).sum(axis=1)[None, :]
    return np.maximum(xx + yy - 2.0 * (x @ y.T), 0.0)


def median_bandwidth(x: np.ndarray, y: np.ndarray) -> float:
    """Median pairwise distance over the pooled set; 1.0 if degenerate."""
    pooled = np.concatenate([x, y], axis=0)
    d = np.sqrt(_sq_dists(pooled, pooled))
    iu = np.triu_indices(len(pooled), k=1)
    med = float(np.median(d[iu]))
    return med if med > 0 else 1.0


def rbf_mmd2(x: np.ndarray, y: np.ndarray, bandwidth: float | None = None) -> float:
    """Biased (V-statistic) squared MMD with an RBF kernel; always >= 0."""
    x = x.reshape(len(x), -1).astype(np.float64)
    y = y.reshape(len(y), -1).astype(np.float64)
    if bandwidth is None:
        bandwidth = median_bandwidth(x, y)
    gamma = 1.0 / (2.0 * bandwidth * bandwidth)
    kxx = np.exp(-gamma * _sq_dists(x, x)).mean()
    kyy = np.exp(-gamma * _sq_dists(y, y)).mean()
    kxy = np.exp(-gamma * _sq_dists(x, y)).mean()
    return float(max(kxx + kyy - 2.0 * kxy, 0.0))


def toy_quality(samples: np.ndarray, sample_labels, reference: np.ndarray,
                reference_labels, min_samples: int = 100) -> QualityReport:
    """MMD between sample and reference pixel vectors plus the mean L2 error
    between per-class mean images."""
    if len(samples) < min_samples:
        raise ValueError(f"need at least {min_samples} samples, got {len(samples)}")
    if len(reference) == 0:
        raise ValueError("empty reference set")
    sample_labels = np.asarray(sample_labels)
    reference_labels = np.asarray(reference_labels)
    mmd = rbf_mmd2(samples, reference)
    errs = []
    for cls in np.unique(reference_labels):
        ours = samples[sample_labels == cls]
        theirs = reference[reference_labels == cls]
        if len(ours) == 0:
            raise ValueError(f"no samples for class {cls}")
        diff = ours.mean(axis=0).astype(np.float64) - theirs.mean(axis=0).astype(np.float64)
        errs.append(np.linalg.norm(diff))
    return QualityReport(mmd=mmd, per_class_mean_err=float(np.mean(errs)),
                         n_samples=len(samples))


# ---------------------------------------------------------------------------
# benchmarking
# ---------------------------------------------------------------------------


@dataclass
class BenchEntry:
    """One sampling configuration: a kind, its plan and its cache."""
    kind: str
    steps: int
    preset: str = "all"
    tpost_mode: str = "rescaled"
    loop: tuple[int, int] | None = None  # (b, e) for ilf
    cache_location: str = "inner"
    cache_count: int = 0
    refresh_period: int = 2

    # the fields that only one kind reads, each to that kind
    ONLY_FOR = {"preset": "ilf", "tpost_mode": "ilf", "loop": "ilf",
                "cache_location": "cached", "cache_count": "cached", "refresh_period": "cached"}

    def build(self, T: int, n_blocks: int) -> tuple:
        """(plan, cache config) for sampling this entry on n_blocks blocks;
        the cache config is None unless kind='cached'."""
        if self.kind not in sched.KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind != "ilf":
            plan = sched.make_plain_plan(self.steps, T, n_blocks)
        elif self.loop is None:
            raise ValueError("ilf bench entry needs a loop")
        else:
            plan = sched.make_plan(self.steps, T, self.tpost_mode, self.preset, self.loop, n_blocks)
        if self.kind != "cached":
            return plan, None
        return plan, CacheConfig.from_preset(self.cache_location, self.cache_count, n_blocks,
                                             self.refresh_period)

    def label(self) -> str:
        bits = [f"S={self.steps}"]
        if self.kind == "ilf":
            bits.append(f"preset={self.preset}")
            bits.append(f"loop={self.loop[0]}-{self.loop[1]}")
        if self.kind == "cached":
            bits.append(f"cache={self.cache_location}:{self.cache_count}")
            bits.append(f"p={self.refresh_period}")
        return ";".join(bits)


@dataclass
class BenchRow:
    kind: str
    config: str
    block_forwards: int
    wall_ms: float
    speedup: float
    seed: int


BENCH_COLUMNS = ("kind", "config", "block_forwards", "wall_ms", "speedup", "seed")


def bench(entries, model=None, ns=None, fs=None, class_id=None, seed: int = 0,
          n_samples: int = 1, mock_n: int | None = None, repeats: int = 1,
          T: int = BackboneConfig.T) -> list:
    """Cost table over a grid of sampling configurations.

    Each entry's count is its plan's block_cost. With mock_n set, nothing
    runs: the plan is built at that width on a T-step schedule, and wall_ms
    is 0. Otherwise the plan is sampled on the model, and wall_ms is the
    best of `repeats` runs. The speedup column is exact: baseline count /
    count.
    """
    if mock_n is not None:
        n = mock_n
    elif model is None or ns is None:
        raise ValueError("real bench runs need a model and a schedule")
    else:
        n, T = model.cfg.n_blocks, model.cfg.T
    counts, walls = [], []
    for entry in entries:
        plan, cache_cfg = entry.build(T, n)
        counts.append(plan.block_cost(entry.kind, cache_cfg))
        if mock_n is not None:
            walls.append(0.0)
            continue
        walls.append(min(sched.sample(entry.kind, model, ns, plan, class_id, seed,
                                      fs=fs if entry.kind == "ilf" else None,
                                      cache_cfg=cache_cfg, n_samples=n_samples).wall_ms
                         for _ in range(repeats)))

    ref = next((i for i, e in enumerate(entries) if e.kind == "baseline"), 0)
    return [BenchRow(kind=entry.kind, config=entry.label(), block_forwards=count,
                     wall_ms=wall, speedup=counts[ref] / count, seed=seed)
            for entry, count, wall in zip(entries, counts, walls)]
