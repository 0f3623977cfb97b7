import csv
import json
import os
import warnings

import numpy as np
import pytest

from ditlab import cli
from ditlab.config import ConfigError, load_run_config, parse_run_config


def tiny_config_dict(out_dir, **plan_overrides):
    plan = {"steps": 5, "tpost_mode": "rescaled", "preset": "all"}
    plan.update(plan_overrides)
    return {
        "seed": 3,
        "out_dir": out_dir,
        "backbone": {"image_size": 8, "patch_size": 4, "channels": 1,
                     "hidden_dim": 16, "n_heads": 2, "n_blocks": 3,
                     "n_classes": 4, "T": 100},
        "data": {"source": "procedural", "seed": 5, "n_per_class": 4},
        "backbone_train": {"batch_size": 4, "lr": 2e-3, "iterations": 4, "seed": 11},
        "ilf": {"loop_start": 1, "loop_end": 2,
                "train": {"batch_size": 4, "lr": 1e-3, "iterations": 3, "seed": 12}},
        "plan": plan,
        "cache": {"location": "inner", "count": 1, "refresh_period": 2},
        "sample": {"n_samples": 2, "class_id": None, "seed": 4},
        "bench": {"mock_n": 28, "entries": [
            {"kind": "baseline", "steps": 20},
            {"kind": "ilf", "steps": 10, "preset": "skip_inner", "loop": [8, 19]},
        ]},
    }


def write_config(tmp_path, cfg_dict, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg_dict, indent=1))
    return str(path)


def read_cost_csv(path):
    with open(path) as f:
        rows = list(csv.DictReader(f))
    return rows


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_config_roundtrip(tmp_path):
    path = write_config(tmp_path, tiny_config_dict(str(tmp_path / "run")))
    cfg = load_run_config(path)
    assert cfg.backbone.n_blocks == 3
    assert cfg.ilf.train.iterations == 3
    assert cfg.plan.steps == 5
    assert cfg.sample.class_id is None


def test_config_defaults_fill():
    cfg = parse_run_config({})
    assert cfg.backbone.hidden_dim == 64
    assert cfg.plan.preset == "skip_inner"
    assert cfg.ilf.train.w_recon == 1.0


def test_config_unknown_key_named(tmp_path):
    d = tiny_config_dict(str(tmp_path))
    d["backbone"]["hidden_dmi"] = 32
    with pytest.raises(ConfigError, match="backbone.'hidden_dmi'"):
        parse_run_config(d)
    # the annealed-ratio orientation key is gone: n/m is the only ratio
    d = tiny_config_dict(str(tmp_path))
    d["plan"]["orientation"] = "n_over_m"
    with pytest.raises(ConfigError, match="plan.'orientation'"):
        parse_run_config(d)
    d = tiny_config_dict(str(tmp_path))
    d["bench"]["entries"][1]["orientation"] = "n_over_m"
    with pytest.raises(ConfigError, match=r"bench.entries\[1\].'orientation'"):
        parse_run_config(d)


def test_config_unknown_toplevel_key():
    with pytest.raises(ConfigError, match="mystery"):
        parse_run_config({"mystery": 1})


def test_config_json_error_carries_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "seed": 3,\n  "oops"\n}')
    with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
        load_run_config(str(path))


def test_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(str(tmp_path / "nope.json"))


def test_config_semantic_validation(tmp_path):
    d = tiny_config_dict(str(tmp_path))
    d["ilf"]["loop_end"] = 7
    with pytest.raises(ConfigError, match="loop"):
        parse_run_config(d)
    d = tiny_config_dict(str(tmp_path))
    d["plan"]["tpost_mode"] = "sideways"
    with pytest.raises(ConfigError, match="tpost_mode"):
        parse_run_config(d)
    d = tiny_config_dict(str(tmp_path))
    d["cache"]["count"] = 9
    with pytest.raises(ConfigError, match="cache.count"):
        parse_run_config(d)
    d = tiny_config_dict(str(tmp_path))
    d["data"]["source"] = "idx"
    with pytest.raises(ConfigError, match="idx"):
        parse_run_config(d)


def _one_error_line_and_no_output(capsys, tmp_path, d, commands=("train", "bench"),
                                  says=""):
    out_dir = tmp_path / "never_written"
    d["out_dir"] = str(out_dir)
    path = write_config(tmp_path, d, "bad.json")
    for command in commands:
        code = cli.main([command, path])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert says in err[0], err
        assert not out_dir.exists()


def test_config_values_are_type_checked(tmp_path, capsys):
    for section, key, value in (("plan", "steps", "8"), ("cache", "count", "1"),
                                ("ilf.train", "lr", "x")):
        d = tiny_config_dict(str(tmp_path))
        owner = d
        for part in section.split("."):
            owner = owner[part]
        owner[key] = value
        _one_error_line_and_no_output(capsys, tmp_path, d, commands=("train",),
                                      says=f"{section}.{key}")
    for bad in ({"seed": True}, {"out_dir": 5}, {"backbone_train": {"lr": "2"}},
                {"backbone": {"n_blocks": 3.0}}):
        d = {**tiny_config_dict(str(tmp_path)), **bad}
        with pytest.raises(ConfigError, match="must be"):
            parse_run_config(d)
    d = tiny_config_dict(str(tmp_path))
    d["ilf"]["train"]["lr"] = 1  # an int is a float
    d["sample"]["class_id"] = 2
    d["backbone_checkpoint"] = None
    assert parse_run_config(d).ilf.train.lr == 1


def test_config_plans_and_caches_are_built_at_load(tmp_path, capsys):
    # the first two used to pass load and fail only after the whole backbone
    # had trained; the bench entries passed load and failed in `ditlab bench`,
    # some with a TypeError traceback
    cases = [({"plan": {"steps": 4, "preset": "skip_inner"}}, "needs S >= 5"),
             ({"plan": {"steps": 1, "preset": "alternating"}}, "needs S >= 2"),
             ({"bench": {"mock_n": 28, "entries": [{"kind": "ilf", "steps": 10, "loop": 5}]}},
              "bench.entries[0].loop"),
             ({"bench": {"mock_n": 28, "entries": [{"steps": 10}]}}, "bench.entries[0]"),
             ({"bench": {"mock_n": 28, "entries": [{"kind": "baseline", "steps": 5},
                                                   {"kind": "ilf", "steps": 4, "loop": [1, 2],
                                                    "preset": "last_only"}]}},
              "bench.entries[1]"),
             ({"bench": {"mock_n": 28, "entries": [{"kind": "baseline", "steps": 5,
                                                    "cache_cout": 2}]}},
              "bench.entries[0].'cache_cout'"),
             ({"cache": {"refresh_period": 0}}, "cache")]
    for override, says in cases:
        d = tiny_config_dict(str(tmp_path))
        for section, values in override.items():
            d[section].update(values)
        _one_error_line_and_no_output(capsys, tmp_path, d, says=says)

    # bench entries are built at mock_n width when it is set, else at the
    # backbone's: the loop (8, 19) fits 28 blocks, not the backbone's 3
    d = tiny_config_dict(str(tmp_path))
    assert parse_run_config(d).bench.entries[1].loop == (8, 19)
    d["bench"]["mock_n"] = None
    with pytest.raises(ConfigError, match=r"bench.entries\[1\]"):
        parse_run_config(d)


def test_config_zero_divisors_and_counts_rejected_at_load(tmp_path, capsys):
    # each used to pass load, or end in a ZeroDivisionError traceback; an
    # odd hidden_dim passed load and failed at the first forward
    for bad in ({"patch_size": 0}, {"n_heads": 0}, {"hidden_dim": 15, "n_heads": 3}):
        d = tiny_config_dict(str(tmp_path))
        d["backbone"].update(bad)
        _one_error_line_and_no_output(capsys, tmp_path, d, says="backbone")
    for section, key, value in (("sample", "n_samples", 0), ("bench", "n_samples", 0),
                                ("bench", "repeats", 0), ("bench", "repeats", -3)):
        d = tiny_config_dict(str(tmp_path))
        d[section][key] = value
        with pytest.raises(ConfigError, match=f"section '{section}'.*{key}"):
            parse_run_config(d)


def test_backbone_sizes_below_one_rejected_at_load(tmp_path, capsys):
    # zero sizes used to end in a ZeroDivisionError traceback from the weight
    # init; hidden_dim=-4 failed only at train time, naming no key
    for key, value in (("hidden_dim", 0), ("hidden_dim", -4), ("mlp_ratio", -1),
                       ("mlp_ratio", 0), ("image_size", 0), ("channels", 0),
                       ("n_classes", 0)):
        d = tiny_config_dict(str(tmp_path))
        d["backbone"][key] = value
        _one_error_line_and_no_output(capsys, tmp_path, d, says="section 'backbone'")
        code = cli.main(["sample", write_config(tmp_path, d, "bad.json"),
                         "--kind", "baseline", "--out", str(tmp_path / "never_written")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and len(err) == 1 and err[0].startswith("error:"), err
        assert "section 'backbone'" in err[0] and key in err[0], err
        assert not (tmp_path / "never_written").exists()


def test_config_dataset_and_lr_checked_at_load(tmp_path, capsys):
    # each used to pass load; `train` then made out_dir and failed at the
    # first batch or forward naming no key, or trained on a negative lr
    for section, key, value, says in (
            ("backbone", "channels", 3, "backbone.channels"),
            ("backbone", "n_classes", 9, "n_classes"),
            ("backbone", "image_size", 4, "backbone.image_size"),
            ("data", "seed", -1, "data.seed"),
            ("backbone_train", "batch_size", 64, "backbone_train.batch_size"),
            ("ilf.train", "batch_size", 17, "ilf.train.batch_size"),
            ("backbone_train", "lr", -1, "backbone_train"),
            ("ilf.train", "lr", -0.5, "ilf.train"),
            # json.load takes NaN and Infinity: NaN failed at the first
            # softmax naming no key, Infinity after the backbone had trained
            ("backbone_train", "lr", float("nan"), "backbone_train.lr"),
            ("ilf.train", "w_recon", float("inf"), "ilf.train.w_recon")):
        d = tiny_config_dict(str(tmp_path))
        owner = d
        for part in section.split("."):
            owner = owner[part]
        owner[key] = value
        _one_error_line_and_no_output(capsys, tmp_path, d, says=says)
    d = tiny_config_dict(str(tmp_path))
    d["backbone_train"]["lr"] = 0  # a zero rate is legal
    d["backbone_train"]["batch_size"] = 16  # the whole 16-image set
    assert len(parse_run_config(d).dataset()) == 16


def test_diverging_training_ends_in_one_error_line(tmp_path, capsys):
    # a loss that overflows during training used to end in a
    # FloatingPointError traceback
    d = tiny_config_dict(str(tmp_path / "run"))
    d["backbone_train"]["lr"] = 1e30
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["train", write_config(tmp_path, d)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "non-finite backbone training loss" in err[0], err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught


def test_float_beyond_float32_is_refused_at_load(tmp_path, capsys):
    # 1e39 used to load, overflow float32 on the first feedback step with a
    # numpy RuntimeWarning, and end in an error naming no key
    d = tiny_config_dict(str(tmp_path))
    d["ilf"]["train"]["w_distill"] = 1e39
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _one_error_line_and_no_output(capsys, tmp_path, d, says="ilf.train.w_distill")


def test_negative_seeds_and_intervals_rejected_at_load(tmp_path, capsys):
    # each used to pass load: a negative seed failed at its first RNG, after
    # the backbone had trained for ilf.train.seed, with a message naming no
    # key; a negative checkpoint_interval checkpointed every |interval| steps
    for path, value, says in (("seed", -1, ": seed=-1"),
                              ("sample.seed", -1, "sample.seed=-1"),
                              ("backbone_train.seed", -1, "'backbone_train': seed=-1"),
                              ("ilf.train.seed", -1, "'ilf.train': seed=-1"),
                              ("backbone_train.checkpoint_interval", -2,
                               "'backbone_train': checkpoint_interval=-2"),
                              ("ilf.train.checkpoint_interval", -2,
                               "'ilf.train': checkpoint_interval=-2")):
        d = tiny_config_dict(str(tmp_path))
        *sections, key = path.split(".")
        owner = d
        for part in sections:
            owner = owner[part]
        owner[key] = value
        _one_error_line_and_no_output(capsys, tmp_path, d, says=says)


def test_real_bench_ilf_entry_needs_the_ilf_loop(tmp_path, capsys):
    # a real bench used to load both checkpoints and then fail on the loop
    d = tiny_config_dict(str(tmp_path))
    d["bench"] = {"mock_n": None, "entries": [{"kind": "ilf", "steps": 5, "loop": [0, 2]}]}
    _one_error_line_and_no_output(capsys, tmp_path, d, says="bench.entries[0].loop")
    d["bench"]["entries"][0]["loop"] = [1, 2]
    assert parse_run_config(d).bench.entries[0].loop == (1, 2)
    d["bench"]["mock_n"] = 28  # a mock bench takes any loop that fits its width
    d["bench"]["entries"][0]["loop"] = [0, 5]
    assert parse_run_config(d).bench.entries[0].loop == (0, 5)


def test_bench_entry_keys_must_apply_to_the_kind(tmp_path, capsys):
    # a baseline entry with ILF and cache keys used to load, run without
    # them, and print a label that hid them
    stray = {"kind": "baseline", "steps": 5, "loop": [9, 9], "preset": "nonsense",
             "cache_count": 99}
    for entry, key in ((stray, "loop"),
                       ({"kind": "baseline", "steps": 5, "refresh_period": 2}, "refresh_period"),
                       ({"kind": "cached", "steps": 5, "tpost_mode": "uniform"}, "tpost_mode"),
                       ({"kind": "ilf", "steps": 5, "loop": [8, 19], "cache_count": 2},
                        "cache_count")):
        d = tiny_config_dict(str(tmp_path))
        d["bench"]["entries"].append(entry)
        _one_error_line_and_no_output(capsys, tmp_path, d, says=f"bench.entries[2].{key} ")
    d = tiny_config_dict(str(tmp_path))
    d["bench"]["entries"] += [
        {"kind": "ilf", "steps": 10, "preset": "all", "tpost_mode": "uniform",
         "loop": [8, 19]},
        {"kind": "cached", "steps": 5, "cache_location": "inner", "cache_count": 2,
         "refresh_period": 3}]
    assert [e.kind for e in parse_run_config(d).bench.entries] == [
        "baseline", "ilf", "ilf", "cached"]


def test_train_builds_the_dataset_once(tmp_path, monkeypatch):
    # load checks the dataset and `train` trains on the one load built
    import ditlab.config as config

    calls = []
    real = config.gen_shapes

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(config, "gen_shapes", counting)
    d = tiny_config_dict(str(tmp_path / "run"))
    d["backbone_train"]["iterations"] = 1
    d["ilf"]["train"]["iterations"] = 1
    assert cli.main(["train", write_config(tmp_path, d)]) == 0
    assert len(calls) == 1


def test_shipped_configs_load():
    configs = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    names = sorted(n for n in os.listdir(configs) if n.endswith(".json"))
    assert names
    for name in names:
        load_run_config(os.path.join(configs, name))


# ---------------------------------------------------------------------------
# train command
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_train")
    out_dir = str(tmp / "run")
    path = write_config(tmp, tiny_config_dict(out_dir))
    result = cli.cmd_train(path)
    return {"config": path, "out": out_dir, "result": result, "tmp": tmp}


def test_train_outputs_exist(trained_dir):
    out = trained_dir["out"]
    assert os.path.exists(os.path.join(out, "backbone.ckpt"))
    assert os.path.exists(os.path.join(out, "feedback.ckpt"))
    with open(os.path.join(out, "backbone_loss.csv")) as f:
        assert len(f.read().strip().split("\n")) == 1 + 4  # header + iters
    with open(os.path.join(out, "feedback_loss.csv")) as f:
        lines = f.read().strip().split("\n")
    assert lines[0] == "step,recon,distill,total"
    assert len(lines) == 1 + 3


def test_train_rerun_bit_identical(trained_dir, tmp_path):
    out2 = str(tmp_path / "rerun")
    d = tiny_config_dict(out2)
    path = write_config(tmp_path, d)
    cli.cmd_train(path)
    for name in ("backbone.ckpt", "feedback.ckpt", "backbone_loss.csv",
                 "feedback_loss.csv"):
        a = open(os.path.join(trained_dir["out"], name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b, name


def test_train_zero_iterations_keeps_init(tmp_path):
    d = tiny_config_dict(str(tmp_path / "zero"))
    d["backbone_train"]["iterations"] = 0
    d["ilf"]["train"]["iterations"] = 0
    path = write_config(tmp_path, d)
    cli.cmd_train(path)
    with open(os.path.join(str(tmp_path / "zero"), "backbone_loss.csv")) as f:
        assert f.read().strip() == "step,loss"  # empty curve

    from ditlab.checkpoint import load_checkpoint
    from ditlab.config import load_run_config as load
    from ditlab.dit import DiT

    cfg = load(path)
    fresh = DiT(cfg.backbone, np.random.default_rng([cfg.seed, 0]))
    arrays, _ = load_checkpoint(os.path.join(str(tmp_path / "zero"), "backbone.ckpt"))
    for k, p in fresh.named_params().items():
        assert np.array_equal(arrays[f"backbone.{k}"], p.data)


def test_train_from_backbone_checkpoint_with_feedback_checkpoints(trained_dir, tmp_path):
    """`backbone_checkpoint` skips backbone training and saves the loaded
    backbone as it is; feedback training then matches the run that trained
    that backbone, and writes a checkpoint every `checkpoint_interval` steps."""
    out = tmp_path / "from_ckpt"
    d = tiny_config_dict(str(out))
    d["backbone_checkpoint"] = os.path.join(trained_dir["out"], "backbone.ckpt")
    d["backbone_train"]["checkpoint_interval"] = 1
    d["ilf"]["train"]["checkpoint_interval"] = 1
    cli.cmd_train(write_config(tmp_path, d))

    def read(path):
        with open(path, "rb") as f:
            return f.read()

    assert read(out / "backbone.ckpt") == read(d["backbone_checkpoint"])
    assert read(out / "backbone_loss.csv").decode().strip() == "step,loss"
    assert read(out / "feedback.ckpt") == read(os.path.join(trained_dir["out"], "feedback.ckpt"))
    assert sorted(p.name for p in out.glob("*_0*.ckpt")) == [
        "feedback_000001.ckpt", "feedback_000002.ckpt", "feedback_000003.ckpt"]
    assert read(out / "feedback_000003.ckpt") == read(out / "feedback.ckpt")


# ---------------------------------------------------------------------------
# sample command
# ---------------------------------------------------------------------------


def test_sample_baseline_outputs(trained_dir, tmp_path):
    out = str(tmp_path / "samples")
    cli.cmd_sample(trained_dir["config"], "baseline", out)
    pgms = sorted(f for f in os.listdir(out) if f.endswith(".pgm"))
    assert len(pgms) == 2
    blob = open(os.path.join(out, pgms[0]), "rb").read()
    assert blob.startswith(b"P5\n")
    header, rest = blob.split(b"255\n", 1)
    assert len(rest) == 8 * 8
    rows = read_cost_csv(os.path.join(out, "cost.csv"))
    assert rows[0]["kind"] == "baseline"
    assert int(rows[0]["block_forwards"]) == 3 * 5


def test_sample_ilf_and_cached_costs(trained_dir, tmp_path):
    out_i = str(tmp_path / "ilf")
    cli.cmd_sample(trained_dir["config"], "ilf", out_i)
    rows = read_cost_csv(os.path.join(out_i, "cost.csv"))
    # n=3, S=5, all steps feedback, m=2 -> 15 + 3*5 = 30
    assert int(rows[0]["block_forwards"]) == 30
    assert int(rows[0]["feedback_steps"]) == 5

    out_c = str(tmp_path / "cached")
    cli.cmd_sample(trained_dir["config"], "cached", out_c)
    rows = read_cost_csv(os.path.join(out_c, "cost.csv"))
    # n=3, one cached block, p=2 over 5 steps -> 2*5 + 1*3 = 13
    assert int(rows[0]["block_forwards"]) == 13


def test_sample_rerun_identical_modulo_wall(trained_dir, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    cli.cmd_sample(trained_dir["config"], "baseline", out1)
    cli.cmd_sample(trained_dir["config"], "baseline", out2)
    for f in sorted(os.listdir(out1)):
        a = open(os.path.join(out1, f), "rb").read()
        b = open(os.path.join(out2, f), "rb").read()
        if f == "cost.csv":
            strip = lambda blob: [
                {k: v for k, v in row.items() if k != "wall_ms"}
                for row in csv.DictReader(blob.decode().splitlines())]
            assert strip(a) == strip(b)
        else:
            assert a == b, f


def test_sample_missing_checkpoint_errors(tmp_path):
    d = tiny_config_dict(str(tmp_path / "never_trained"))
    path = write_config(tmp_path, d)
    with pytest.raises(ConfigError, match="missing checkpoint"):
        cli.cmd_sample(path, "baseline", str(tmp_path / "out"))


def test_sample_ilf_detects_backbone_swap(trained_dir, tmp_path):
    # retrain with a different seed into a new dir, then splice that
    # backbone under the original feedback checkpoint
    d = tiny_config_dict(str(tmp_path / "other"))
    d["seed"] = 99
    other = write_config(tmp_path, d, "other.json")
    cli.cmd_train(other)

    spliced = str(tmp_path / "spliced")
    os.makedirs(spliced)
    import shutil

    shutil.copy(os.path.join(str(tmp_path / "other"), "backbone.ckpt"),
                os.path.join(spliced, "backbone.ckpt"))
    shutil.copy(os.path.join(trained_dir["out"], "feedback.ckpt"),
                os.path.join(spliced, "feedback.ckpt"))
    d2 = tiny_config_dict(spliced)
    spliced_cfg = write_config(tmp_path, d2, "spliced.json")
    with pytest.raises(ConfigError, match="do not match"):
        cli.cmd_sample(spliced_cfg, "ilf", str(tmp_path / "out2"))


def test_sample_bad_checkpoint_or_loop_is_one_error_line(trained_dir, tmp_path, capsys):
    import shutil

    def one_error_line(cfg_path, kind):
        code = cli.main(["sample", cfg_path, "--kind", kind, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:"), err

    # a truncated backbone checkpoint
    cut = str(tmp_path / "cut")
    shutil.copytree(trained_dir["out"], cut)
    blob = open(os.path.join(cut, "backbone.ckpt"), "rb").read()
    open(os.path.join(cut, "backbone.ckpt"), "wb").write(blob[:5])
    one_error_line(write_config(tmp_path, tiny_config_dict(cut), "cut.json"), "baseline")

    # a feedback state trained for loop (1, 2) under a config with loop (0, 1):
    # the same loop size, so the arrays alone would load
    d = tiny_config_dict(trained_dir["out"])
    d["ilf"]["loop_start"], d["ilf"]["loop_end"] = 0, 1
    one_error_line(write_config(tmp_path, d, "loop.json"), "ilf")


def test_sample_ilf_rejects_foreign_or_unhashed_feedback(trained_dir, tmp_path, capsys):
    import shutil

    from ditlab.checkpoint import load_checkpoint, save_checkpoint

    src = os.path.join(trained_dir["out"], "feedback.ckpt")
    arrays, header = load_checkpoint(src)
    meta = header["meta"]
    no_hash = {k: v for k, v in meta.items() if k != "backbone_hash"}
    for name, cfg_hash, meta_out, says in (
            ("foreign", "0" * 64, meta, "config hash"),
            ("unhashed", header["config_hash"], no_hash, "no backbone hash")):
        run = str(tmp_path / name)
        shutil.copytree(trained_dir["out"], run)
        save_checkpoint(os.path.join(run, "feedback.ckpt"), arrays, cfg_hash, meta=meta_out)
        path = write_config(tmp_path, tiny_config_dict(run), f"{name}.json")
        with pytest.raises(ValueError, match=says):
            cli.cmd_sample(path, "ilf", str(tmp_path / f"{name}_out"))
        code = cli.main(["sample", path, "--kind", "ilf", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and len(err) == 1 and err[0].startswith("error:"), err


# ---------------------------------------------------------------------------
# drift command
# ---------------------------------------------------------------------------


def test_drift_outputs(trained_dir, tmp_path):
    out = str(tmp_path / "drift")
    cli.cmd_drift(trained_dir["config"], out)
    names = ["drift_time_baseline", "drift_time_cached",
             "drift_blocks_baseline", "drift_blocks_cached"]
    joint_max = 0.0
    for name in names:
        with open(os.path.join(out, f"{name}.csv")) as f:
            lines = f.read().strip().split("\n")
        assert len(lines) == 1 + 3              # header + n_blocks rows
        assert len(lines[0].split(",")) == 1 + 5  # block + S columns
        for line in lines[1:]:
            joint_max = max(joint_max, max(float(v) for v in line.split(",")[1:]))
        assert os.path.exists(os.path.join(out, f"{name}.pgm"))
    assert abs(joint_max - 1.0) <= 1e-6
    rows = read_cost_csv(os.path.join(out, "direction.csv"))
    assert rows[0]["degenerate"] == "0"


def test_drift_identical_configs_ratio_one(trained_dir, tmp_path):
    # refresh_period 1 makes the cached run identical to baseline
    d = tiny_config_dict(trained_dir["out"])
    d["cache"]["refresh_period"] = 1
    path = write_config(trained_dir["tmp"], d, "p1.json")
    out = str(tmp_path / "drift_p1")
    cli.cmd_drift(path, out)
    rows = read_cost_csv(os.path.join(out, "direction.csv"))
    assert float(rows[0]["ratio"]) == 1.0


def test_drift_on_an_untrained_backbone_writes_zeros(tmp_path):
    """adaLN-Zero blocks start as identities, so every block's output equals
    its input and drift over blocks is all-zero for both kinds."""
    d = tiny_config_dict(str(tmp_path / "zero"))
    d["backbone_train"]["iterations"] = 0
    d["ilf"]["train"]["iterations"] = 0
    path = write_config(tmp_path, d)
    cli.cmd_train(path)
    out = tmp_path / "drift"
    cli.cmd_drift(path, str(out))
    assert sorted(os.listdir(out)) == sorted(
        [f"drift_{axis}_{kind}.{ext}" for axis in ("time", "blocks")
         for kind in ("baseline", "cached") for ext in ("csv", "pgm")] + ["direction.csv"])
    for kind in ("baseline", "cached"):
        with open(out / f"drift_blocks_{kind}.csv") as f:
            rows = list(csv.reader(f))[1:]
        assert len(rows) == 3
        assert all(v == "0.0" for row in rows for v in row[1:])
        blob = (out / f"drift_blocks_{kind}.pgm").read_bytes()
        header = b"P5\n5 3\n255\n"
        assert blob.startswith(header) and blob[len(header):] == bytes(15)


def test_drift_with_one_step_is_one_error_line_before_any_output(trained_dir, tmp_path, capsys):
    path = write_config(tmp_path, tiny_config_dict(trained_dir["out"], steps=1))
    out = tmp_path / "drift"
    assert cli.main(["drift", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "plan.steps" in err[0], err
    assert not out.exists()


# ---------------------------------------------------------------------------
# bench command
# ---------------------------------------------------------------------------


def test_bench_mock_csv(trained_dir):
    result = cli.cmd_bench(trained_dir["config"])
    with open(result["bench_csv"]) as f:
        rows = list(csv.DictReader(f))
    assert [r["block_forwards"] for r in rows] == ["560", "332"]
    assert abs(float(rows[1]["speedup"]) - 560 / 332) < 1e-9
    assert list(rows[0]) == ["kind", "config", "block_forwards", "wall_ms",
                             "speedup", "seed"]


def test_bench_real_runs(trained_dir, tmp_path):
    d = tiny_config_dict(trained_dir["out"])
    d["bench"] = {"mock_n": None, "repeats": 1, "entries": [
        {"kind": "baseline", "steps": 5},
        {"kind": "cached", "steps": 5, "cache_count": 1, "refresh_period": 2},
    ]}
    path = write_config(trained_dir["tmp"], d, "bench_real.json")
    result = cli.cmd_bench(path)
    with open(result["bench_csv"]) as f:
        rows = list(csv.DictReader(f))
    assert int(rows[0]["block_forwards"]) == 15
    assert int(rows[1]["block_forwards"]) == 13
    assert float(rows[1]["wall_ms"]) > 0


# ---------------------------------------------------------------------------
# main entry point
# ---------------------------------------------------------------------------


def test_main_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope}")
    code = cli.main(["train", str(bad)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_main_sample_requires_kind(trained_dir):
    with pytest.raises(SystemExit):
        cli.main(["sample", trained_dir["config"]])


def test_main_happy_path(trained_dir, tmp_path, capsys):
    out = str(tmp_path / "cli_out")
    code = cli.main(["sample", trained_dir["config"], "--kind", "baseline",
                     "--out", out])
    assert code == 0
    assert "block_forwards" in capsys.readouterr().out
