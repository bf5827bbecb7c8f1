"""Seeded byte mutations of the input files of every reader: a byte set
to a random value, a run of bytes deleted, a run of random bytes
inserted, one bit flipped. Each mutated file must either load or raise
one of that reader's own errors, with a message that starts with the
path."""
import json

import numpy as np
import pytest

from conftest import ring_adjacency, tiny_model_config
from fallgcn.checkpoint import CheckpointError
from fallgcn.config import ConfigError, load_run_config
from fallgcn.layouts import LayoutError, builtin_layout, format_layout, load_layout
from fallgcn.model import ThreeStreamModel, load_model, save_model
from fallgcn.skeleton_io import (
    ClipFormatError,
    ManifestEntry,
    ManifestError,
    SkeletonClip,
    SkeletonSequence,
    load_clip_archive,
    parse_sequence_records,
    read_manifest,
    save_clip_archive,
    write_manifest,
    write_sequences,
)

MUTATIONS = 150
KINDS = ("set", "delete", "insert", "flip")
STICK9 = builtin_layout("stick9")


def mutate(data: bytes, kind: str, rng: np.random.Generator) -> bytes:
    i = int(rng.integers(0, len(data)))
    if kind == "set":
        return data[:i] + bytes([int(rng.integers(0, 256))]) + data[i + 1:]
    if kind == "delete":
        return data[:i] + data[i + int(rng.integers(1, 9)):]
    if kind == "insert":
        return data[:i] + rng.bytes(int(rng.integers(1, 9))) + data[i:]
    return data[:i] + bytes([data[i] ^ (1 << int(rng.integers(0, 8)))]) + data[i + 1:]


def _layout_file(tmp_path):
    path = tmp_path / "stick9.layout"
    path.write_text(format_layout(STICK9))
    return path


def _sequence_file(tmp_path):
    rng = np.random.default_rng(0)
    sequences = [
        SkeletonSequence(id=f"s{i}", label=i, layout=STICK9,
                         coords=np.round(rng.normal(size=(3, 9, 2)), 2),
                         valid=np.array([True, i == 0, True]))
        for i in range(2)
    ]
    path = tmp_path / "seqs.jsonl"
    write_sequences(path, sequences, ["adl", "fall"])
    return path


def _manifest_file(tmp_path):
    path = tmp_path / "manifest.csv"
    write_manifest(path, [ManifestEntry(path=f"seqs{i % 2}.jsonl", label=("adl", "fall")[i % 2],
                                        seq_id=f"s{i}") for i in range(4)])
    return path


def _config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "data": {"layout": "stick9", "clip_len": 32, "stride": 16},
        "model": {"channels": [16, 32], "tcn": "dense"},
        "masking": {"p_joint": 0.2},
        "train": {"epochs": 3, "learning_rate": 0.05},
    }, indent=1))
    return path


def _checkpoint_file(tmp_path):
    path = tmp_path / "model.fgcn"
    save_model(ThreeStreamModel(tiny_model_config(), ring_adjacency(5)), path)
    return path


def _archive_file(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "clips.fgcn"
    save_clip_archive(path, [SkeletonClip(data=np.round(rng.normal(size=(2, 3, 9)), 2),
                                          label=i % 2) for i in range(4)],
                      ["adl", "fall"], STICK9, stride=3)
    return path


# the archive reader raises CheckpointError for a container fault and
# ClipFormatError for an archive fault
READERS = {
    "layout": (_layout_file, load_layout, LayoutError),
    "sequences": (_sequence_file, lambda p: parse_sequence_records(p, STICK9), ClipFormatError),
    "manifest": (_manifest_file, lambda p: read_manifest(p, "stick9"), ManifestError),
    "run-config": (_config_file, load_run_config, ConfigError),
    "checkpoint": (_checkpoint_file, load_model, CheckpointError),
    "clip-archive": (_archive_file, load_clip_archive, (CheckpointError, ClipFormatError)),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("reader", READERS)
def test_mutated_input_loads_or_raises_the_readers_error_with_the_path(tmp_path, reader, kind):
    make, read, error = READERS[reader]
    path = make(tmp_path)
    original = path.read_bytes()
    read(path)  # the unmutated file loads
    rng = np.random.default_rng([list(READERS).index(reader), KINDS.index(kind)])
    for i in range(MUTATIONS):
        mutated = mutate(original, kind, rng)
        path.write_bytes(mutated)
        try:
            read(path)
        except error as exc:
            assert str(exc).startswith(f"{path}:"), f"mutation {i} {mutated!r}: {exc}"
