"""End-to-end command-line harness: ingest -> train -> eval -> bench ->
report, plus gradcheck, determinism, and error exits."""
import argparse
import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fallgcn import cli
from fallgcn.cli import build_parser, main
from fallgcn.config import ARCHIVE_FIELDS, ConfigError, DataConfig, OutConfig, load_run_config
from fallgcn.layers import MaskingConfig
from fallgcn.layouts import builtin_layout
from fallgcn.metrics import format_report, metrics
from fallgcn.model import ModelConfig, load_model
from fallgcn.skeleton_io import (
    ManifestEntry,
    SkeletonClip,
    load_clip_archive,
    save_clip_archive,
    write_manifest,
    write_sequences,
)
from fallgcn.synthetic import CLASS_NAMES, generate_sequences
from fallgcn.training import Hyperparams, evaluate, read_history


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Sequence files + manifest + config for a small synthetic run."""
    root = tmp_path_factory.mktemp("cli")
    sequences = generate_sequences(20, seed=0, length_range=(16, 20),
                                   invalid_rate=0.05)
    seq_path = root / "sequences.jsonl"
    write_sequences(seq_path, sequences, CLASS_NAMES)
    entries = [
        ManifestEntry(path=seq_path, label=CLASS_NAMES[s.label], seq_id=s.id)
        for s in sequences
    ]
    write_manifest(root / "manifest.csv", entries)
    config = {
        "data": {
            "layout": "stick9",
            "manifest": str(root / "manifest.csv"),
            "archive": str(root / "clips.fgcn"),
            "clip_len": 16,
            "stride": 16,
            "train_fraction": 0.8,
            "split_seed": 7,
        },
        "model": {"channels": [8, 16], "head_hidden": 16, "dropout": 0.0},
        "masking": {"p_joint": 0.0, "p_frame": 0.0},
        "train": {"learning_rate": 0.02, "batch_size": 8, "epochs": 8, "seed": 0},
        "out": {
            "checkpoint": str(root / "model.fgcn"),
            "history": str(root / "history.csv"),
            "report": str(root / "report.json"),
            "archive": str(root / "clips.fgcn"),
        },
    }
    (root / "run.json").write_text(json.dumps(config))
    return root


@pytest.fixture(scope="module")
def trained(workspace) -> None:
    """Writes the workspace's clips.fgcn, model.fgcn and report.json once,
    so that a test reading them also runs on its own."""
    cfg = str(workspace / "run.json")
    assert main(["ingest", "--config", cfg]) == 0
    assert main(["train", "--config", cfg]) == 0
    assert main(["eval", "--config", cfg, "--checkpoint", str(workspace / "model.fgcn"),
                 "--archive", str(workspace / "clips.fgcn")]) == 0


def test_ingest_writes_archive_and_summary(workspace, capsys):
    assert main(["ingest", "--config", str(workspace / "run.json")]) == 0
    out = capsys.readouterr().out
    assert "fall:" in out and "walk:" in out
    assert "invalid frames dropped" in out
    clips, class_names, layout, meta = load_clip_archive(workspace / "clips.fgcn")
    assert class_names == ["fall", "walk"]
    assert layout.name == "stick9"
    assert all(c.data.shape == (2, 16, 9) for c in clips)


def test_ingest_deterministic_bytes(workspace, tmp_path):
    cfg = str(workspace / "run.json")
    out1, out2 = tmp_path / "a.fgcn", tmp_path / "b.fgcn"
    assert main(["ingest", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["ingest", "--config", cfg, "--out", str(out2)]) == 0
    d1 = hashlib.sha256(out1.read_bytes()).hexdigest()
    d2 = hashlib.sha256(out2.read_bytes()).hexdigest()
    assert d1 == d2


def test_ingest_bad_path_named_and_nonzero(workspace, tmp_path, capsys):
    bad_manifest = tmp_path / "bad.csv"
    write_manifest(bad_manifest, [ManifestEntry(tmp_path / "ghost.jsonl", "fall", "x")])
    code = main([
        "ingest", "--config", str(workspace / "run.json"),
        "--manifest", str(bad_manifest), "--out", str(tmp_path / "o.fgcn"),
    ])
    assert code != 0
    assert "ghost.jsonl" in capsys.readouterr().err


def test_ingest_non_finite_coordinate_names_file_line_and_frame(workspace, tmp_path, capsys):
    seq_path = tmp_path / "nan.jsonl"
    frame = "[[0.0, NaN]" + ", [0.0, 0.0]" * 8 + "]"  # stick9: 9 joints
    seq_path.write_text(f'{{"id": "a", "label": "fall", "frames": [{frame}]}}\n')
    manifest = tmp_path / "nan.csv"
    write_manifest(manifest, [ManifestEntry(seq_path, "fall", "a")])
    code = main([
        "ingest", "--config", str(workspace / "run.json"),
        "--manifest", str(manifest), "--out", str(tmp_path / "o.fgcn"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{seq_path}:1" in err and "frame 0" in err
    assert "Traceback" not in err


def test_ingest_names_the_sequence_with_no_valid_frame(workspace, tmp_path, capsys):
    seq_path = tmp_path / "lost.jsonl"
    still = "[" + ", ".join(["[0.0, 0.0]"] * 9) + "]"  # stick9: 9 joints
    frames = ", ".join([f'{{"joints": {still}, "valid": false}}'] * 5)
    seq_path.write_text(f'{{"id": "a", "label": "fall", "frames": [{frames}]}}\n')
    manifest = tmp_path / "lost.csv"
    write_manifest(manifest, [ManifestEntry(seq_path, "fall", "a")])
    code = main([
        "ingest", "--config", str(workspace / "run.json"),
        "--manifest", str(manifest), "--out", str(tmp_path / "o.fgcn"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "sequence 'a': none of its 5 frames is valid" in err
    assert "Traceback" not in err


def test_ingest_names_the_sequence_and_clip_whose_frame_overflows(workspace, tmp_path, capsys):
    # clip_len 16, stride 16: frame 19 of the sequence is frame 3 of clip 1
    seq_path = tmp_path / "far.jsonl"
    still = "[" + ", ".join(["[0.0, 0.0]"] * 9) + "]"  # stick9: 9 joints
    far = "[[1e200, 0.0]" + ", [0.0, 0.0]" * 8 + "]"
    frames = [still] * 19 + [far] + [still] * 12
    seq_path.write_text(f'{{"id": "seqA", "label": "fall", "frames": [{", ".join(frames)}]}}\n')
    manifest = tmp_path / "far.csv"
    write_manifest(manifest, [ManifestEntry(seq_path, "fall", "seqA")])
    code = main([
        "ingest", "--config", str(workspace / "run.json"),
        "--manifest", str(manifest), "--out", str(tmp_path / "o.fgcn"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert ("sequence 'seqA', clip 1: normalize_clip: frame 3 is too far from its root "
            "joint to scale") in err
    assert "Traceback" not in err


def test_train_writes_checkpoint_and_history(workspace, capsys):
    assert main(["train", "--config", str(workspace / "run.json")]) == 0
    out = capsys.readouterr().out
    assert "final val accuracy" in out
    assert (workspace / "model.fgcn").exists()
    history = read_history(workspace / "history.csv")
    assert len(history) == 8
    assert history[-1].val_accuracy == 100.0  # easy task, tuned settings


def test_train_deterministic_final_loss(workspace, tmp_path):
    cfg = str(workspace / "run.json")
    ck1, ck2 = tmp_path / "m1.fgcn", tmp_path / "m2.fgcn"
    hist_path = workspace / "history.csv"
    assert main(["train", "--config", cfg, "--out", str(ck1)]) == 0
    h1 = read_history(hist_path)
    assert main(["train", "--config", cfg, "--out", str(ck2)]) == 0
    h2 = read_history(hist_path)
    assert [r.train_loss for r in h1] == [r.train_loss for r in h2]
    assert ck1.read_bytes() == ck2.read_bytes()


def test_train_zero_epochs_initial_checkpoint(workspace, tmp_path, capsys):
    cfg = json.loads((workspace / "run.json").read_text())
    cfg["train"]["epochs"] = 0
    cfg["out"]["checkpoint"] = str(tmp_path / "init.fgcn")
    cfg["out"]["history"] = str(tmp_path / "empty.csv")
    cfg_path = tmp_path / "zero.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "init.fgcn").exists()
    assert read_history(tmp_path / "empty.csv") == []


@pytest.mark.parametrize("name, value", [("learning_rate", "0.1"), ("batch_size", 0)])
def test_train_rejects_bad_hyperparams_by_name(workspace, tmp_path, capsys, name, value):
    cfg = json.loads((workspace / "run.json").read_text())
    cfg["train"][name] = value
    cfg["out"]["checkpoint"] = str(tmp_path / "never.fgcn")
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(cfg_path)]) != 0
    assert f"Hyperparams: {name}" in capsys.readouterr().err
    assert not (tmp_path / "never.fgcn").exists()


@pytest.mark.parametrize("value", ["0.1", True])
def test_train_rejects_a_bad_masking_probability_by_name(workspace, tmp_path, capsys, value):
    cfg = json.loads((workspace / "run.json").read_text())
    cfg["masking"]["p_joint"] = value
    cfg["out"]["checkpoint"] = str(tmp_path / "never.fgcn")
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(cfg_path)]) == 1
    assert "MaskingConfig: p_joint" in capsys.readouterr().err
    assert not (tmp_path / "never.fgcn").exists()


@pytest.mark.usefixtures("trained")
def test_eval_report_matches_metrics_exactly(workspace, capsys):
    code = main([
        "eval", "--config", str(workspace / "run.json"),
        "--checkpoint", str(workspace / "model.fgcn"),
        "--archive", str(workspace / "clips.fgcn"),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    payload = json.loads((workspace / "report.json").read_text())
    model = load_model(workspace / "model.fgcn")
    clips, class_names, _, _ = load_clip_archive(workspace / "clips.fgcn")
    cm = evaluate(model, clips, class_names=class_names)
    assert payload["confusion"] == cm.counts.tolist()
    expected = format_report(metrics(cm), "text")
    assert expected in printed
    # trained to perfection on this task: accuracy row shows 100.00
    assert "100.00" in printed.splitlines()[-2]


@pytest.mark.usefixtures("trained")
def test_eval_constant_predictor_balanced_50(workspace, tmp_path, capsys):
    model = load_model(workspace / "model.fgcn")
    model.head.fc2.weight.data[:] = 0.0
    model.head.fc2.bias.data[:] = 0.0
    from fallgcn.model import save_model

    const_ckpt = tmp_path / "const.fgcn"
    save_model(model, const_ckpt)
    code = main([
        "eval", "--config", str(workspace / "run.json"),
        "--checkpoint", str(const_ckpt),
        "--archive", str(workspace / "clips.fgcn"),
        "--out", str(tmp_path / "const_report.json"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "50.00" in out.splitlines()[-2]  # the Average row


STICK9 = builtin_layout("stick9")
# archives that differ from the workspace's (2-D, 16 frames, stick9,
# fall/walk) in exactly one ModelConfig field: clip shape, classes, layout
MISMATCHED_ARCHIVES = {
    "dims": ((3, 16, 9), CLASS_NAMES, STICK9),
    "clip_len": ((2, 8, 9), CLASS_NAMES, STICK9),
    "joint_count": ((2, 16, 10), CLASS_NAMES,
                    dataclasses.replace(STICK9, joint_count=10,
                                        edges=STICK9.edges + ((8, 9),))),
    "layout_name": ((2, 16, 9), CLASS_NAMES, dataclasses.replace(STICK9, name="stick9b")),
    "num_classes": ((2, 16, 9), CLASS_NAMES + ["sit"], STICK9),
}


@pytest.mark.usefixtures("trained")
@pytest.mark.parametrize("field", MISMATCHED_ARCHIVES)
def test_eval_mismatched_archive_fails(workspace, tmp_path, capsys, field):
    shape, class_names, layout = MISMATCHED_ARCHIVES[field]
    archive = tmp_path / "other.fgcn"
    rng = np.random.default_rng(0)
    clips = [SkeletonClip(data=rng.normal(size=shape), label=k % 2) for k in range(4)]
    save_clip_archive(archive, clips, class_names, layout)
    code = main([
        "eval", "--config", str(workspace / "run.json"),
        "--checkpoint", str(workspace / "model.fgcn"),
        "--archive", str(archive), "--out", str(tmp_path / "never.json"),
    ])
    assert code != 0
    err = capsys.readouterr().err
    assert [name for name in ARCHIVE_FIELDS if name in err] == [field]
    assert not (tmp_path / "never.json").exists()


@pytest.mark.usefixtures("trained")
def test_eval_refuses_an_archive_whose_graph_differs_under_the_same_name(
        workspace, tmp_path, capsys):
    chain = dataclasses.replace(STICK9, edges=tuple((j, j + 1) for j in range(8)))
    archive = tmp_path / "chain.fgcn"
    rng = np.random.default_rng(0)
    clips = [SkeletonClip(data=rng.normal(size=(2, 16, 9)), label=k % 2) for k in range(4)]
    save_clip_archive(archive, clips, CLASS_NAMES, chain)
    code = main([
        "eval", "--config", str(workspace / "run.json"),
        "--checkpoint", str(workspace / "model.fgcn"),
        "--archive", str(archive), "--out", str(tmp_path / "never.json"),
    ])
    assert code != 0
    err = capsys.readouterr().err
    assert "adjacency" in err
    assert [name for name in ARCHIVE_FIELDS if name in err] == []
    assert not (tmp_path / "never.json").exists()


@pytest.mark.usefixtures("trained")
def test_report_rerenders_saved_metrics(workspace, capsys):
    assert main(["report", "--metrics", str(workspace / "report.json")]) == 0
    text = capsys.readouterr().out
    assert "Average" in text
    assert main([
        "report", "--metrics", str(workspace / "report.json"), "--format", "machine",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "accuracy" in payload


@pytest.mark.usefixtures("trained")
def test_bench_reports_both_variants(workspace, capsys):
    code = main([
        "bench", "--checkpoint", str(workspace / "model.fgcn"),
        "--samples", "30", "--warmup", "2", "--format", "machine",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_samples"] == 30
    assert payload["separable"]["flops"] < payload["dense"]["flops"]
    assert np.isfinite(payload["welch_t"])


def test_gradcheck_command_passes(monkeypatch, capsys):
    # the checks themselves run in the acceptance tests; this one reads the
    # command's report and exit code on given errors
    seeds, results = [], [("sgc", 3e-9), ("three_stream_model", 2e-6)]
    monkeypatch.setattr(cli, "_gradcheck_modules", lambda seed: seeds.append(seed) or results)
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "three_stream_model   max relative error 2.000e-06  ok" in out
    assert "FAIL" not in out
    results.append(("dense_tcn", cli.GRADCHECK_TOLERANCE))
    assert main(["gradcheck", "--seed", "3"]) == 1
    captured = capsys.readouterr()
    assert "dense_tcn            max relative error 1.000e-04  FAIL" in captured.out
    assert captured.out.count("  ok") == 2
    assert captured.err == "error: gradcheck: at least one module at or above 0.0001\n"
    assert seeds == [0, 3]


@pytest.mark.parametrize("command", ["train", "gradcheck"])
@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_seed_flag_refuses_a_value_that_is_not_a_count(capsys, command, seed):
    with pytest.raises(SystemExit) as info:
        main([command, "--seed", seed])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument --seed: must be an int >= 0, got {seed!r}\n")


BAD_SECTION_VALUES = [
    ("ingest", "data", "clip_len", "32", "must be an int >= 2"),
    ("ingest", "data", "clip_len", 1, "must be an int >= 2"),
    ("ingest", "data", "stride", 8.0, "must be an int >= 1"),
    ("ingest", "data", "stride", 0, "must be an int >= 1"),
    ("ingest", "data", "layout", 5, "must be a string"),
    ("ingest", "data", "manifest", ["manifest.csv"], "must be a string or null"),
    ("train", "data", "train_fraction", "0.9", "must be a number in (0, 1)"),
    ("train", "data", "train_fraction", 0.0, "must be a number in (0, 1)"),
    ("train", "data", "train_fraction", 1.0, "must be a number in (0, 1)"),
    ("train", "data", "split_seed", 1.5, "must be an int >= 0"),
    ("train", "data", "split_seed", -1, "must be an int >= 0"),
    ("train", "data", "archive", True, "must be a string or null"),
    ("train", "out", "history", 1, "must be a string"),
    ("ingest", "out", "archive", None, "must be a string"),
    # ingest reads none of these sections, yet refuses the file
    ("ingest", "train", "epochs", "3", "must be an int >= 0"),
    ("ingest", "model", "kernel_t", 2, "must be odd"),
    ("ingest", "masking", "p_joint", 7, "must be a number in [0, 1]"),
]


@pytest.mark.parametrize("command, section, key, value, rule", BAD_SECTION_VALUES,
                         ids=[f"{s}.{k}={v!r}" for _, s, k, v, _ in BAD_SECTION_VALUES])
def test_bad_section_value_is_refused_when_the_config_loads(workspace, tmp_path, capsys,
                                                            command, section, key, value, rule):
    config = json.loads((workspace / "run.json").read_text())
    config["out"] = {name: str(tmp_path / f"never-{name}") for name in config["out"]}
    config[section][key] = value
    bad = tmp_path / "run.json"
    bad.write_text(json.dumps(config))
    owner = {"data": "DataConfig", "model": "ModelConfig", "masking": "MaskingConfig",
             "train": "Hyperparams", "out": "OutConfig"}[section]
    message = f"{bad}: config section '{section}': {owner}: {key} {rule}, got {value!r}"
    with pytest.raises(ConfigError) as info:
        load_run_config(bad)
    assert str(info.value) == message
    assert main([command, "--config", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


@pytest.mark.parametrize("class_names, confusion, message", [
    *[(["fall", "walk"], [[count, 2], [0, 5]],
       f"confusion matrix counts must be non-negative integers, got {count!r}")
      for count in (1.7, True, "3", 1e30, -1)],
    ([1, 2], [[1, 2], [0, 5]], "class names must be a list of strings, got [1, 2]"),
    ("ab", [[1, 2], [0, 5]], "class names must be a list of strings, got 'ab'"),
    (["fall", "walk"], [[0, 0], [0, 0]], "metrics: empty confusion matrix"),
])
def test_report_refuses_a_bad_saved_report_naming_the_file(tmp_path, capsys, class_names,
                                                           confusion, message):
    saved = tmp_path / "report.json"
    saved.write_text(json.dumps({"class_names": class_names, "confusion": confusion}))
    assert main(["report", "--metrics", str(saved)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: report: unreadable metrics file {saved}: {message}\n"


def test_unknown_config_key_named(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"train": {"learnig_rate": 0.1}}))
    with pytest.raises(ConfigError, match="train.learnig_rate"):
        load_run_config(bad)
    code = main(["train", "--config", str(bad)])
    assert code != 0
    assert "learnig_rate" in capsys.readouterr().err


@pytest.mark.parametrize("user, message", [
    ({"trian": {}}, "unknown config key 'trian'"),
    ({"train": 3}, "config key 'train' must be a section"),
])
def test_config_key_errors_start_with_the_path(tmp_path, user, message):
    bad = tmp_path / "run.json"
    bad.write_text(json.dumps(user))
    with pytest.raises(ConfigError) as info:
        load_run_config(bad)
    assert str(info.value) == f"{bad}: {message}"


def test_config_file_that_is_not_utf8_names_the_path_and_byte_offset(tmp_path):
    bad = tmp_path / "run.json"
    bad.write_bytes(b'{"train": {"seed": "\xe5"}}')
    with pytest.raises(ConfigError) as info:
        load_run_config(bad)
    assert str(info.value).startswith(f"{bad}: not UTF-8 text: byte 0xe5 at offset 20 ")


def test_each_command_takes_only_the_flags_it_reads():
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    flags = {name: {opt for action in sub._actions for opt in action.option_strings
                    if opt not in ("-h", "--help")}
             for name, sub in commands.items()}
    assert flags == {
        "ingest": {"--config", "--out", "--manifest", "--layout"},
        "train": {"--config", "--seed", "--out", "--archive"},
        "eval": {"--config", "--out", "--format", "--checkpoint", "--archive"},
        "bench": {"--format", "--checkpoint", "--samples", "--warmup"},
        "gradcheck": {"--seed"},
        "report": {"--format", "--metrics"},
    }
    assert sum(map(len, flags.values())) == 20
    with pytest.raises(SystemExit) as info:
        parser.parse_args(["report", "--metrics", "report.json", "--seed", "1"])
    assert info.value.code == 2


def test_defaults_come_from_the_dataclasses():
    cfg = load_run_config(None)
    model_fields = {f.name for f in dataclasses.fields(ModelConfig)}
    assert set(cfg["model"]) == model_fields - set(ARCHIVE_FIELDS) - {"masking"}
    assert ModelConfig(**cfg["model"]) == ModelConfig()
    assert cfg["masking"] == dataclasses.asdict(MaskingConfig())
    assert cfg["train"] == dataclasses.asdict(Hyperparams())
    assert cfg["data"] == dataclasses.asdict(DataConfig())
    assert cfg["out"] == dataclasses.asdict(OutConfig())


def test_readme_run_configuration_is_the_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Run configuration", 1)[1]
    block = section.split("```json", 1)[1].split("```", 1)[0]
    assert json.loads(block) == load_run_config(None)


def test_removed_masking_seed_key_is_rejected(tmp_path):
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"masking": {"p_joint": 0.1, "seed": 3}}))
    with pytest.raises(ConfigError, match="unknown config key"):
        load_run_config(old)


def test_console_entry_point_runs(tmp_path):
    saved = tmp_path / "report.json"
    saved.write_text(json.dumps({"class_names": ["fall", "walk"], "confusion": [[3, 1], [0, 4]]}))
    proc = subprocess.run(
        [sys.executable, "-m", "fallgcn.cli", "report", "--metrics", str(saved)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Average" in proc.stdout
