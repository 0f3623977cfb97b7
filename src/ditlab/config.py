"""JSON run configuration: the unit of reproducibility.

Every random choice is driven by an explicit seed in the file; command-line
flags only select the command and output paths. A config is checked by
building what the commands build from it: every section, the plans and the
cache config of each sampling kind, and every bench entry. Errors name the
offending key path or section; JSON syntax errors carry line and column.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from dataclasses import dataclass, field

import numpy as np

from .analysis import BenchEntry
from .data import SHAPES_MIN_SIZE, Dataset, gen_shapes, load_idx
from .dit import BackboneConfig
from .training import BackboneTrainConfig, TrainConfig


class ConfigError(ValueError):
    pass


@dataclass
class DataConfig:
    source: str = "procedural"
    seed: int = 1
    n_per_class: int = 64
    idx_images: str | None = None
    idx_labels: str | None = None

    def __post_init__(self):
        if self.source not in ("procedural", "idx"):
            raise ValueError("source must be 'procedural' or 'idx'")
        if self.source == "idx" and not (self.idx_images and self.idx_labels):
            raise ValueError("source='idx' needs idx_images and idx_labels")
        if self.source == "procedural" and self.n_per_class < 1:
            raise ValueError("n_per_class must be >= 1")


@dataclass
class IlfConfig:
    loop_start: int = 2
    loop_end: int = 4
    train: TrainConfig = field(default_factory=TrainConfig)


@dataclass
class PlanConfig:
    """The `plan` section of a run config: what feedback sampling uses and
    what feedback training conditions its t_post on."""
    steps: int = 8
    tpost_mode: str = "rescaled"
    preset: str = "skip_inner"


@dataclass
class CacheSection:
    location: str = "inner"
    count: int = 4
    refresh_period: int = 2


@dataclass
class SampleConfig:
    n_samples: int = 16
    class_id: int | None = None
    seed: int = 4

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


@dataclass
class BenchConfig:
    mock_n: int | None = None
    repeats: int = 2
    n_samples: int = 1
    entries: list[BenchEntry] = field(default_factory=list)

    def __post_init__(self):
        if self.n_samples < 1 or self.repeats < 1:
            raise ValueError("n_samples and repeats must be >= 1")


@dataclass
class RunConfig:
    seed: int = 0
    out_dir: str = "runs/toy"
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    backbone_checkpoint: str | None = None
    data: DataConfig = field(default_factory=DataConfig)
    backbone_train: BackboneTrainConfig = field(default_factory=BackboneTrainConfig)
    ilf: IlfConfig = field(default_factory=IlfConfig)
    plan: PlanConfig = field(default_factory=PlanConfig)
    cache: CacheSection = field(default_factory=CacheSection)
    sample: SampleConfig = field(default_factory=SampleConfig)
    bench: BenchConfig = field(default_factory=BenchConfig)

    def __post_init__(self):
        self._dataset = None  # built once, by the first dataset() call

    def sampling(self, kind: str) -> tuple:
        """(plan, cache config) that sampling as `kind` runs, from the plan,
        ilf and cache sections; the cache config is None unless kind='cached'."""
        p, c = self.plan, self.cache
        entry = BenchEntry(kind=kind, steps=p.steps, preset=p.preset, tpost_mode=p.tpost_mode,
                           loop=(self.ilf.loop_start, self.ilf.loop_end),
                           cache_location=c.location, cache_count=c.count,
                           refresh_period=c.refresh_period)
        return entry.build(self.backbone.T, self.backbone.n_blocks)

    def dataset(self) -> Dataset:
        """The training set of the data section, checked against the image
        shape of the backbone and the batch size of each training phase.
        Built once per config: load checks it, and `train` trains on it."""
        if self._dataset is not None:
            return self._dataset
        d, b = self.data, self.backbone
        if d.source == "procedural":
            if d.seed < 0:
                raise ConfigError(f"data.seed={d.seed} must be >= 0")
            if b.image_size < SHAPES_MIN_SIZE:
                raise ConfigError(f"backbone.image_size={b.image_size} is below the procedural "
                                  f"source's minimum of {SHAPES_MIN_SIZE}")
            ds = gen_shapes(d.seed, d.n_per_class, b.n_classes, b.image_size)
        else:
            ds = load_idx(d.idx_images, d.idx_labels, size=b.image_size)
        if ds.n_classes > b.n_classes:
            raise ConfigError(f"dataset has {ds.n_classes} classes but "
                              f"backbone.n_classes={b.n_classes}")
        shape = (b.channels, b.image_size, b.image_size)
        if ds.images.shape[1:] != shape:
            raise ConfigError(f"dataset images are {ds.images.shape[1:]}, but backbone.channels "
                              f"and backbone.image_size ask for {shape}")
        for key, batch in (("backbone_train", self.backbone_train.batch_size),
                           ("ilf.train", self.ilf.train.batch_size)):
            if batch > len(ds):
                raise ConfigError(f"{key}.batch_size={batch} exceeds the "
                                  f"{len(ds)} dataset images")
        self._dataset = ds
        return ds


def _typed(tp, val, path: str):
    """`val` checked against the declared field type `tp`: int (not bool),
    float (an int too) that float32 holds finite, str, `X | None`, a tuple or
    list of typed items (both from a JSON list), or a dataclass (from a JSON
    object)."""
    if isinstance(tp, types.UnionType):  # `X | None`
        if val is None:
            return None
        (tp,) = (a for a in tp.__args__ if a is not type(None))
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (tuple, list) and isinstance(val, list):
        items = args if origin is tuple else args * len(val)
        if len(items) != len(val):
            raise ConfigError(f"config key {path!r} must hold {len(items)} values")
        return origin(_typed(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(items, val)))
    if dataclasses.is_dataclass(tp):
        return _build(tp, val, path)
    wanted = (int, float) if tp is float else (origin or tp)
    if not isinstance(val, wanted) or isinstance(val, bool):
        name = getattr(tp, "__name__", str(tp))
        raise ConfigError(f"config key {path!r} must be {name}, not {type(val).__name__}")
    if tp is float and not abs(val) <= float(np.finfo(np.float32).max):
        raise ConfigError(f"config key {path!r} must be a finite float32, not {val}")
    return val


def _build(cls, raw, path: str):
    """Instantiate a dataclass from a JSON object, rejecting unknown keys and
    values of the wrong type by their key path."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config key {path!r} must be an object")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, val in raw.items():
        if key not in hints:
            raise ConfigError(f"unknown config key {path + '.' if path else ''}{key!r}")
        kwargs[key] = _typed(hints[key], val, f"{path}.{key}" if path else key)
    return _built(path, cls, **kwargs)


def _built(section: str, build, *args, **kwargs):
    """build(*args, **kwargs), whose ValueError or TypeError becomes one
    ConfigError that names the config section."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config section {section!r}: {exc}") from None


def _check_builds(cfg: RunConfig, raw: dict):
    """Build each plan and cache config the commands build from `cfg`:
    those of every sampling kind, and every bench entry's at the width it
    runs at (mock_n when set). A procedural dataset is built too; IDX files
    are read only by `train`. Also refuses a negative run or sample seed, a
    bench entry key (in `raw`, the loaded JSON) that its kind does not read,
    and a real bench's ilf entry whose loop is not the ilf loop."""
    for key, seed in (("seed", cfg.seed), ("sample.seed", cfg.sample.seed)):
        if seed < 0:
            raise ConfigError(f"{key}={seed} must be >= 0")
    if cfg.data.source == "procedural":
        _built("data/backbone", cfg.dataset)
    for kind, section in (("baseline", "plan"), ("ilf", "plan/ilf"), ("cached", "cache")):
        _built(section, cfg.sampling, kind)
    width = cfg.backbone.n_blocks if cfg.bench.mock_n is None else cfg.bench.mock_n
    ilf_loop = (cfg.ilf.loop_start, cfg.ilf.loop_end)
    given = raw.get("bench", {}).get("entries", [])
    for i, (entry, keys) in enumerate(zip(cfg.bench.entries, given)):
        _built(f"bench.entries[{i}]", entry.build, cfg.backbone.T, width)
        for key in keys:
            if BenchEntry.ONLY_FOR.get(key, entry.kind) != entry.kind:
                raise ConfigError(f"bench.entries[{i}].{key} does not apply to kind "
                                  f"{entry.kind!r}, only to {BenchEntry.ONLY_FOR[key]!r}")
        # a real bench samples every ilf entry with the one trained feedback state
        if cfg.bench.mock_n is None and entry.kind == "ilf" and entry.loop != ilf_loop:
            raise ConfigError(f"bench.entries[{i}].loop {list(entry.loop)} is not the ilf "
                              f"loop {list(ilf_loop)} that the feedback state is trained for")
    class_id = cfg.sample.class_id
    if class_id is not None and not (0 <= class_id < cfg.backbone.n_classes):
        raise ConfigError("sample.class_id out of range")


def parse_run_config(raw: dict, source: str = "<config>") -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be a JSON object")
    try:
        cfg = _build(RunConfig, raw, "")
        _check_builds(cfg, raw)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    return cfg


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    return parse_run_config(raw, source=path)
