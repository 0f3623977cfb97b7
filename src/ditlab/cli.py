"""Command-line surface: train, sample, drift, bench.

Each command takes a JSON config (see config.py and the README schema); flags
only choose the command, kind, and output directory. Reruns with the same
config and seeds reproduce every output byte except wall-clock columns.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys

import numpy as np

from . import analysis
from .analysis import BENCH_COLUMNS
from .checkpoint import (atomic_open, config_hash, load_checkpoint, load_into, params_hash,
                         save_checkpoint)
from .config import ConfigError, RunConfig, load_run_config
from .dit import DiT
from .feedback import FeedbackState, make_feedback
from .pgm import write_pgm
from .schedule import COST_COLUMNS, KINDS, make_schedule, sample
from .training import train_backbone, train_feedback


def _backbone_hash_of(model: DiT) -> str:
    return params_hash({f"backbone.{k}": p.data for k, p in model.named_params().items()})


def _backbone_cfg_hash(cfg: RunConfig) -> str:
    return config_hash(dataclasses.asdict(cfg.backbone))


def _build_model(cfg: RunConfig) -> DiT:
    return DiT(cfg.backbone, np.random.default_rng([cfg.seed, 0]))


def _load_backbone(cfg: RunConfig, path: str) -> DiT:
    model = _build_model(cfg)
    if not os.path.exists(path):
        raise ConfigError(f"missing checkpoint {path!r}; run `ditlab train` first")
    arrays, _ = load_checkpoint(path, expect_config_hash=_backbone_cfg_hash(cfg))
    load_into(model.named_params(), arrays, prefix="backbone.")
    model.set_trainable(False)
    return model


def _load_feedback(cfg: RunConfig, model: DiT, path: str) -> FeedbackState:
    if not os.path.exists(path):
        raise ConfigError(f"missing checkpoint {path!r}; run `ditlab train` first")
    fs = make_feedback(model, cfg.ilf.loop_start, cfg.ilf.loop_end,
                       np.random.default_rng([cfg.seed, 1]))
    arrays, header = load_checkpoint(path, expect_config_hash=_backbone_cfg_hash(cfg))
    meta = header.get("meta", {})
    trained_loop = (meta.get("loop_start"), meta.get("loop_end"))
    if trained_loop != (fs.loop_start, fs.loop_end):
        raise ConfigError(f"{path}: feedback state was trained for loop {trained_loop}, "
                          f"not the config's ilf loop {(fs.loop_start, fs.loop_end)}")
    load_into(fs.named_params(), arrays, prefix="feedback.")
    recorded = meta.get("backbone_hash")
    if not recorded:
        raise ConfigError(f"{path}: feedback checkpoint records no backbone hash")
    actual = _backbone_hash_of(model)
    if recorded != actual:
        raise ConfigError(
            "backbone parameters do not match the ones this feedback state was "
            f"trained against (recorded {str(recorded)[:12]}..., loaded {actual[:12]}...)")
    fs.set_trainable(False)
    return fs


def _write_csv(path: str, columns, rows):
    with atomic_open(path, "w", newline="") as f:
        csv.writer(f).writerows([columns, *rows])


def _save_backbone(path: str, model: DiT, cfg: RunConfig):
    arrays = {f"backbone.{k}": p.data for k, p in model.named_params().items()}
    save_checkpoint(path, arrays, _backbone_cfg_hash(cfg))


def _save_feedback(path: str, fs: FeedbackState, cfg: RunConfig, backbone_hash: str):
    arrays = {f"feedback.{k}": p.data for k, p in fs.named_params().items()}
    save_checkpoint(path, arrays, _backbone_cfg_hash(cfg),
                    meta={"backbone_hash": backbone_hash,
                          "loop_start": fs.loop_start, "loop_end": fs.loop_end})


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_train(config_path: str) -> dict:
    cfg = load_run_config(config_path)
    os.makedirs(cfg.out_dir, exist_ok=True)
    ns = make_schedule(cfg.backbone.T)
    dataset = cfg.dataset()

    if cfg.backbone_checkpoint:
        model = _load_backbone(cfg, cfg.backbone_checkpoint)
        backbone_curve = []
    else:
        model = _build_model(cfg)

        def save_backbone_at(step):
            _save_backbone(os.path.join(cfg.out_dir, f"backbone_{step:06d}.ckpt"), model, cfg)

        backbone_curve = train_backbone(model, ns, dataset, cfg.backbone_train,
                                        on_checkpoint=save_backbone_at)
    backbone_path = os.path.join(cfg.out_dir, "backbone.ckpt")
    _save_backbone(backbone_path, model, cfg)
    _write_csv(os.path.join(cfg.out_dir, "backbone_loss.csv"), ("step", "loss"),
               [(i + 1, repr(v)) for i, v in enumerate(backbone_curve)])

    model.set_trainable(False)
    backbone_hash = _backbone_hash_of(model)
    fs = make_feedback(model, cfg.ilf.loop_start, cfg.ilf.loop_end,
                       np.random.default_rng([cfg.seed, 1]))

    def save_feedback_at(step):
        _save_feedback(os.path.join(cfg.out_dir, f"feedback_{step:06d}.ckpt"),
                       fs, cfg, backbone_hash)

    curve = train_feedback(model, fs, ns, dataset, cfg.ilf.train,
                           on_checkpoint=save_feedback_at, plan=cfg.sampling("ilf")[0])
    feedback_path = os.path.join(cfg.out_dir, "feedback.ckpt")
    _save_feedback(feedback_path, fs, cfg, backbone_hash)
    _write_csv(os.path.join(cfg.out_dir, "feedback_loss.csv"),
               ("step", "recon", "distill", "total"),
               [(i + 1, repr(r), repr(d), repr(t)) for i, (r, d, t) in enumerate(curve)])
    return {"backbone": backbone_path, "feedback": feedback_path, "out_dir": cfg.out_dir}


def cmd_sample(config_path: str, kind: str, out_dir: str) -> dict:
    cfg = load_run_config(config_path)
    os.makedirs(out_dir, exist_ok=True)
    ns = make_schedule(cfg.backbone.T)
    model = _load_backbone(cfg, os.path.join(cfg.out_dir, "backbone.ckpt"))
    fs = None
    if kind == "ilf":
        fs = _load_feedback(cfg, model, os.path.join(cfg.out_dir, "feedback.ckpt"))
    plan, cache_cfg = cfg.sampling(kind)
    result = sample(kind, model, ns, plan, cfg.sample.class_id, cfg.sample.seed,
                    fs=fs, cache_cfg=cache_cfg, n_samples=cfg.sample.n_samples)
    for i, (img, label) in enumerate(zip(result.images, result.labels)):
        write_pgm(os.path.join(out_dir, f"sample_{i:03d}_class{label}.pgm"), img)
    row = result.cost_row()
    _write_csv(os.path.join(out_dir, "cost.csv"), COST_COLUMNS,
               [[row[c] for c in COST_COLUMNS]])
    return {"images": len(result.images), "block_forwards": result.block_forwards,
            "out_dir": out_dir}


def cmd_drift(config_path: str, out_dir: str) -> dict:
    cfg = load_run_config(config_path)
    os.makedirs(out_dir, exist_ok=True)
    ns = make_schedule(cfg.backbone.T)
    model = _load_backbone(cfg, os.path.join(cfg.out_dir, "backbone.ckpt"))
    plan, cache_cfg = cfg.sampling("cached")  # the plain plan, which baseline runs too
    base, cached = [], []  # one entry each: the one image's per-step block outputs
    sample("baseline", model, ns, plan, cfg.sample.class_id, cfg.sample.seed, taps=base)
    sample("cached", model, ns, plan, cfg.sample.class_id, cfg.sample.seed,
           cache_cfg=cache_cfg, taps=cached)
    base_taps, cached_taps = base[0], cached[0]

    time_pair = analysis.normalize_pair(
        analysis.drift_over_time(base_taps), analysis.drift_over_time(cached_taps),
        plan.steps)
    block_pair = analysis.normalize_pair(
        analysis.drift_over_blocks(base_taps), analysis.drift_over_blocks(cached_taps),
        plan.steps)
    names = ("drift_time_baseline", "drift_time_cached",
             "drift_blocks_baseline", "drift_blocks_cached")
    for name, matrix in zip(names, (*time_pair, *block_pair)):
        with atomic_open(os.path.join(out_dir, f"{name}.csv"), "w") as f:
            f.write(analysis.drift_csv(matrix))
        with atomic_open(os.path.join(out_dir, f"{name}.pgm")) as f:
            f.write(analysis.heatmap_pgm(matrix))

    hits = [k for k, a in enumerate(plan.actions("cached", cache_cfg)) if a == "hit"]
    report = analysis.compare_drift(base_taps, cached_taps,
                                    block_subset=list(cache_cfg.blocks),
                                    step_subset=hits or None)
    _write_csv(os.path.join(out_dir, "direction.csv"),
               ("baseline_mean", "cached_mean", "ratio", "degenerate"),
               [(repr(report.baseline_mean), repr(report.cached_mean),
                 repr(report.ratio), int(report.degenerate))])
    return {"out_dir": out_dir, "ratio": report.ratio}


def cmd_bench(config_path: str) -> dict:
    cfg = load_run_config(config_path)
    entries = cfg.bench.entries
    if not entries:
        raise ConfigError("bench.entries is empty")
    os.makedirs(cfg.out_dir, exist_ok=True)
    if cfg.bench.mock_n is not None:
        rows = analysis.bench(entries, mock_n=cfg.bench.mock_n, seed=cfg.sample.seed,
                              T=cfg.backbone.T)
    else:
        ns = make_schedule(cfg.backbone.T)
        model = _load_backbone(cfg, os.path.join(cfg.out_dir, "backbone.ckpt"))
        fs = None
        if any(e.kind == "ilf" for e in entries):
            fs = _load_feedback(cfg, model, os.path.join(cfg.out_dir, "feedback.ckpt"))
        rows = analysis.bench(entries, model=model, ns=ns, fs=fs,
                              class_id=cfg.sample.class_id, seed=cfg.sample.seed,
                              n_samples=cfg.bench.n_samples, repeats=cfg.bench.repeats)
    path = os.path.join(cfg.out_dir, "bench.csv")
    _write_csv(path, BENCH_COLUMNS,
               [(r.kind, r.config, r.block_forwards, repr(r.wall_ms),
                 repr(r.speedup), r.seed) for r in rows])
    return {"bench_csv": path, "rows": len(rows)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ditlab",
        description="Toy diffusion-transformer lab: feedback blocks, caching, cost accounting")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train backbone then feedback state")
    p_train.add_argument("config")

    p_sample = sub.add_parser("sample", help="generate images and a cost report")
    p_sample.add_argument("config")
    p_sample.add_argument("--kind", choices=KINDS, required=True)
    p_sample.add_argument("--out", required=True)

    p_drift = sub.add_parser("drift", help="paired feature-drift matrices")
    p_drift.add_argument("config")
    p_drift.add_argument("--out", required=True)

    p_bench = sub.add_parser("bench", help="block-forward / wall-clock cost table")
    p_bench.add_argument("config")

    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            out = cmd_train(args.config)
        elif args.command == "sample":
            out = cmd_sample(args.config, args.kind, args.out)
        elif args.command == "drift":
            out = cmd_drift(args.config, args.out)
        else:
            out = cmd_bench(args.config)
    except (ConfigError, ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(" ".join(f"{k}={v}" for k, v in out.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
