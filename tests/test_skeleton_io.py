"""Ingestion pipeline: file formats, failed-frame filtering, windowing,
normalization, and the stratified split."""
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fallgcn.layouts import JointLayout, builtin_layout, format_layout
from fallgcn.skeleton_io import (
    ClipFormatError,
    DatasetManifest,
    ManifestEntry,
    ManifestError,
    SkeletonClip,
    SkeletonSequence,
    clips_from_sequences,
    drop_invalid_frames,
    load_clip_archive,
    load_sequences,
    normalize_clip,
    parse_sequence_records,
    read_manifest,
    save_clip_archive,
    split_dataset,
    window_sequence,
    write_manifest,
    write_sequences,
)

PAIR = JointLayout(name="pair", joint_count=2, edges=((0, 1),), root_joint=0)


def make_seq(length, label=0, layout=PAIR, valid=None, seed=0):
    rng = np.random.default_rng(seed)
    coords = rng.normal(size=(length, layout.joint_count, 2))
    valid = np.ones(length, dtype=bool) if valid is None else np.array(valid, dtype=bool)
    return SkeletonSequence(id=f"s{seed}", label=label, coords=coords, valid=valid,
                            layout=layout)


# --- sequence files and manifests -------------------------------------------


def write_dataset(tmp_path, sequences, class_names, n_files=None):
    files = []
    per_file = len(sequences) if n_files is None else len(sequences) // n_files
    for i in range(0, len(sequences), per_file):
        path = tmp_path / f"part{i}.jsonl"
        write_sequences(path, sequences[i:i + per_file], class_names)
        files.append((path, sequences[i:i + per_file]))
    entries = [
        ManifestEntry(path=path, label=class_names[s.label], seq_id=s.id)
        for path, seqs in files for s in seqs
    ]
    manifest_path = tmp_path / "manifest.csv"
    write_manifest(manifest_path, entries)
    return manifest_path


def test_load_sequences_roundtrip(tmp_path):
    seqs = [make_seq(3, label=0, seed=1), make_seq(3, label=1, seed=2)]
    manifest_path = write_dataset(tmp_path, seqs, ["fall", "walk"], n_files=2)
    manifest = read_manifest(manifest_path, "pair")
    loaded = load_sequences(manifest, PAIR)
    assert len(loaded) == 2
    for original, got in zip(seqs, loaded):
        assert len(got) == 3
        assert got.label == original.label
        assert np.allclose(original.coords, got.coords)
        assert np.array_equal(original.valid, got.valid)


def test_valid_flag_roundtrips(tmp_path):
    seq = make_seq(4, valid=[True, False, True, False], seed=3)
    path = tmp_path / "seq.jsonl"
    write_sequences(path, [seq], ["fall"])
    records = parse_sequence_records(path, PAIR)
    flags = records[seq.id]["valid"].tolist()
    assert flags == [True, False, True, False]


def test_empty_manifest_gives_empty_list(tmp_path):
    manifest_path = tmp_path / "manifest.csv"
    write_manifest(manifest_path, [])
    manifest = read_manifest(manifest_path, "pair")
    assert load_sequences(manifest, PAIR) == []


def test_joint_count_mismatch_names_frame(tmp_path):
    coco = builtin_layout("coco18")
    seventeen = [[0.0, 0.0]] * 17
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"id": "x", "label": "fall", "frames": [seventeen]}) + "\n")
    with pytest.raises(ClipFormatError, match=r"frame 0.*17 joints.*expects 18"):
        parse_sequence_records(path, coco)


def test_missing_file_and_missing_record_errors(tmp_path):
    manifest_path = tmp_path / "manifest.csv"
    write_manifest(manifest_path, [ManifestEntry(tmp_path / "nope.jsonl", "fall", "a")])
    manifest = read_manifest(manifest_path, "pair")
    with pytest.raises(ManifestError, match="nope.jsonl"):
        load_sequences(manifest, PAIR)
    seq_path = tmp_path / "seq.jsonl"
    write_sequences(seq_path, [make_seq(2)], ["fall"])
    write_manifest(manifest_path, [ManifestEntry(seq_path, "fall", "missing-id")])
    with pytest.raises(ClipFormatError, match="missing-id"):
        load_sequences(read_manifest(manifest_path, "pair"), PAIR)


def test_duplicate_record_id_rejected(tmp_path):
    path = tmp_path / "dup.jsonl"
    rec = json.dumps({"id": "a", "label": "x", "frames": [[[0.0, 0.0], [1.0, 1.0]]]})
    path.write_text(rec + "\n" + rec + "\n")
    with pytest.raises(ClipFormatError, match="duplicate record id 'a'"):
        parse_sequence_records(path, PAIR)


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "label": "x", "frames": []}\nnot json\n')
    with pytest.raises(ClipFormatError, match=":2"):
        parse_sequence_records(path, PAIR)


@pytest.mark.parametrize("records_before", [0, 500], ids=["first-line", "past-first-chunk"])
def test_sequence_file_that_is_not_utf8_names_the_path_and_byte_offset(tmp_path,
                                                                       records_before):
    # 500 records put the bad byte past the reader's first 8 KiB chunk,
    # so the offset must count from the start of the file
    path = tmp_path / "bad.jsonl"
    before = b"".join(b'{"id": "r%d", "frames": []}\n' % i for i in range(records_before))
    path.write_bytes(before + b'{"id": "a\xe5", "frames": []}\n')
    with pytest.raises(ClipFormatError) as info:
        parse_sequence_records(path, PAIR)
    assert str(info.value).startswith(
        f"{path}: not UTF-8 text: byte 0xe5 at offset {len(before) + 9} ")


def test_manifest_that_is_not_utf8_names_the_path_and_byte_offset(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_bytes(b"path,label,id\na.jsonl,fall,x\xe5\n")
    with pytest.raises(ManifestError) as info:
        read_manifest(path, "pair")
    assert str(info.value).startswith(f"{path}: not UTF-8 text: byte 0xe5 at offset 28 ")


GOOD_FRAME = "[[0.0, 0.0], [1.0, 1.0]]"


@pytest.mark.parametrize("frames, frame", [
    (f"[{GOOD_FRAME}, [[0.0, NaN], [1.0, 1.0]]]", 1),
    (f"[{GOOD_FRAME}, {GOOD_FRAME}, [[0.0, 0.0], [Infinity, 1.0]]]", 2),
    (f"[{GOOD_FRAME}, [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]]", 1),
    ("5", None),
    (f'[{GOOD_FRAME}, {{"joints": {GOOD_FRAME}, "valid": "false"}}]', 1),
], ids=["NaN", "Infinity", "mixed-dims", "frames-not-a-list", "valid-not-a-bool"])
def test_bad_sequence_record_names_file_line_and_frame(tmp_path, frames, frame):
    path = tmp_path / "seq.jsonl"
    path.write_text(f'{{"id": "a", "label": "fall", "frames": [{GOOD_FRAME}]}}\n'
                    f'{{"id": "b", "label": "fall", "frames": {frames}}}\n')
    manifest = tmp_path / "manifest.csv"
    write_manifest(manifest, [ManifestEntry(path, "fall", "a"), ManifestEntry(path, "fall", "b")])
    with pytest.raises(ClipFormatError) as info:
        load_sequences(read_manifest(manifest, "pair"), PAIR)
    assert f"{path}:2" in str(info.value)
    if frame is not None:
        assert f"frame {frame}" in str(info.value)


@pytest.mark.parametrize("bad, message", [
    ("[[0.0, 0.0], [1.0]]", "unreadable frame coordinates"),
    (f"[[1{'0' * 400}, 0], [1, 1]]", "unreadable frame coordinates .int too large"),
    ("[[[0.0, 0.0], [1.0, 1.0]]]", r"got shape \(1, 2, 2\)"),
    (f"[{GOOD_FRAME}, {GOOD_FRAME}]", r"got shape \(2, 2, 2\)"),
    ("[[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]]", r"got shape \(2, 4\)"),
    ("[[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]", "frame has 3 dims, frame 0 has 2"),
    ('{"valid": false}', "frame object missing 'joints'"),
], ids=["ragged", "huge-integer", "3-D", "3-D-two-frames", "four-coordinates", "xyz-among-xy",
        "no-joints"])
@pytest.mark.parametrize("at", [1, 4])  # frame 0 would set the record's dims
def test_a_bad_frame_among_good_ones_is_named(tmp_path, bad, message, at):
    frames = [GOOD_FRAME] * 5
    frames[at] = bad
    path = tmp_path / "seq.jsonl"
    path.write_text(f'{{"id": "a", "frames": [{GOOD_FRAME}]}}\n'
                    f'{{"id": "b", "frames": [{", ".join(frames)}]}}\n')
    where = re.escape(f"{path}:2 (frame {at}): ")
    with pytest.raises(ClipFormatError, match=rf"^{where}.*{message}"):
        parse_sequence_records(path, PAIR)


def test_a_record_of_four_coordinate_frames_names_frame_0(tmp_path):
    path = tmp_path / "seq.jsonl"
    path.write_text('{"id": "a", "frames": [[[0, 0, 0, 0], [1, 1, 1, 1]], '
                    '[[2, 2, 2, 2], [3, 3, 3, 3]]]}\n')
    where = re.escape(f"{path}:1 (frame 0): ")
    with pytest.raises(ClipFormatError, match=rf"^{where}.*got shape \(2, 4\)"):
        parse_sequence_records(path, PAIR)


def test_a_record_converted_whole_keeps_each_frames_values_and_flags(tmp_path):
    path = tmp_path / "seq.jsonl"
    path.write_text('{"id": "a", "frames": [[[0, 1], [2.5, 3]], '
                    '{"joints": [[4, 5], [6, 7]], "valid": false}, '
                    '{"joints": [[8, 9], [1e300, -0.0]]}]}\n'
                    '{"id": "b", "frames": []}\n')
    records = parse_sequence_records(path, PAIR)
    want = np.array([[[0, 1], [2.5, 3]], [[4, 5], [6, 7]], [[8, 9], [1e300, -0.0]]])
    assert records["a"]["coords"].view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert records["a"]["valid"].tolist() == [True, False, True]
    assert records["b"]["coords"].shape == (0, 2, 2) and records["b"]["valid"].shape == (0,)


@pytest.mark.parametrize("coords, valid", [
    (np.zeros((3, 3, 2)), np.ones(3, dtype=bool)),
    (np.zeros((3, 2, 4)), np.ones(3, dtype=bool)),
    (np.zeros((3, 2)), np.ones(3, dtype=bool)),
    (np.zeros((3, 2, 2)), np.ones(3)),
    (np.zeros((3, 2, 2)), np.ones(2, dtype=bool)),
], ids=["joint-count", "dims", "2-D", "float-mask", "mask-length"])
def test_sequence_rejects_bad_coords_or_mask(coords, valid):
    with pytest.raises(ValueError, match="sequence 'x'"):
        SkeletonSequence(id="x", label=0, coords=coords, valid=valid, layout=PAIR)


@settings(max_examples=60, deadline=None)
@given(t=st.integers(0, 12), dims=st.sampled_from([2, 3]), data=st.data())
def test_sequence_file_roundtrip_is_bit_exact(tmp_path_factory, t, dims, data):
    coords = data.draw(arrays(np.float64, (t, PAIR.joint_count, dims),
                              elements=st.floats(allow_nan=False, allow_infinity=False)))
    valid = data.draw(arrays(np.bool_, (t,)))
    seq = SkeletonSequence(id="s", label=0, coords=coords, valid=valid, layout=PAIR)
    manifest = write_dataset(tmp_path_factory.mktemp("roundtrip"), [seq], ["fall"])
    (got,) = load_sequences(read_manifest(manifest, "pair"), PAIR)
    # a record without frames carries no dims and loads as 2-D
    assert got.coords.shape == (t, PAIR.joint_count, dims if t else 2)
    assert got.coords.tobytes() == seq.coords.tobytes()
    assert np.array_equal(got.valid, seq.valid)


def test_manifest_header_required(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a.jsonl,fall,s0\n")
    with pytest.raises(ManifestError, match="header"):
        read_manifest(path, "pair")


def test_manifest_class_names_sorted_and_dense():
    entries = [
        ManifestEntry("a", "walk", "1"),
        ManifestEntry("b", "fall", "2"),
        ManifestEntry("c", "walk", "3"),
    ]
    manifest = DatasetManifest(entries=entries, layout_name="pair")
    assert manifest.class_names == ["fall", "walk"]
    assert manifest.label_index("walk") == 1


# --- filtering ---------------------------------------------------------------


def test_drop_invalid_counts():
    seq = make_seq(10, valid=[i not in (2, 5, 7) for i in range(10)])
    out = drop_invalid_frames(seq)
    assert len(out) == 7
    assert out.label == seq.label
    kept = [c for c, ok in zip(seq.coords, seq.valid) if ok]
    assert all(np.array_equal(a, b) for a, b in zip(out.coords, kept))


def test_drop_invalid_identity_when_all_valid():
    seq = make_seq(5)
    out = drop_invalid_frames(seq)
    assert len(out) == 5
    assert all(np.array_equal(a, b) for a, b in zip(out.coords, seq.coords))


def test_drop_invalid_imvia_scale_counts():
    # 42,066 total frames with 1,435 extraction failures leaves 40,631
    total, invalid = 42066, 1435
    rng = np.random.default_rng(0)
    bad = set(rng.choice(total, size=invalid, replace=False).tolist())
    valid = np.array([i not in bad for i in range(total)])
    seq = SkeletonSequence(id="imvia", label=0, coords=np.zeros((total, 2, 2)), valid=valid,
                           layout=PAIR)
    assert len(drop_invalid_frames(seq)) == 40631


# --- windowing ---------------------------------------------------------------


def test_window_counts_examples():
    assert len(window_sequence(make_seq(100), 64, 32)) == 2
    assert len(window_sequence(make_seq(64), 64, 32)) == 1


def test_window_starts_at_stride_multiples():
    seq = make_seq(100)
    clips = window_sequence(seq, 64, 32)
    stacked = seq.coords.transpose(2, 0, 1)
    assert np.array_equal(clips[0].data, stacked[:, 0:64, :])
    assert np.array_equal(clips[1].data, stacked[:, 32:96, :])


def test_window_pads_short_sequence_with_last_frame():
    seq = make_seq(10)
    (clip,) = window_sequence(seq, 64, 32)
    assert clip.data.shape == (2, 64, 2)
    last = seq.coords[-1].T  # [dims, V]
    for t in range(10, 64):
        assert np.array_equal(clip.data[:, t, :], last)


def test_window_pads_with_the_last_valid_frame():
    seq = make_seq(5, valid=[True, True, True, False, False])
    (clip,) = window_sequence(seq, 8, 4)
    assert np.array_equal(clip.data[:, :5, :], seq.coords.transpose(2, 0, 1))
    for t in range(5, 8):
        assert np.array_equal(clip.data[:, t, :], seq.coords[2].T)


def test_window_count_property_sweep():
    rng = np.random.default_rng(1)
    for _ in range(200):
        length = int(rng.integers(1, 120))
        clip_len = int(rng.integers(2, 80))
        stride = int(rng.integers(1, 50))
        clips = window_sequence(make_seq(length), clip_len, stride)
        if length >= clip_len:
            assert len(clips) == (length - clip_len) // stride + 1
        else:
            assert len(clips) == 1
        assert all(c.data.shape == (2, clip_len, 2) for c in clips)
        assert all(c.label == 0 for c in clips)


def test_window_empty_sequence_errors():
    seq = make_seq(3, valid=[False, False, False])
    with pytest.raises(ValueError, match="empty"):
        window_sequence(drop_invalid_frames(seq), 8, 4)


def test_ingest_names_a_sequence_with_no_valid_frame():
    good, bad = make_seq(6, seed=1), make_seq(5, valid=[False] * 5, seed=2)
    with pytest.raises(ClipFormatError,
                       match=r"^sequence 's2': none of its 5 frames is valid$"):
        clips_from_sequences([good, bad], PAIR, 4, 2)
    assert len(clips_from_sequences([good], PAIR, 4, 2)) == 2


# --- normalization -----------------------------------------------------------


def test_normalize_translates_root_and_scales():
    data = np.zeros((2, 1, 2))
    data[:, 0, 0] = [5.0, 5.0]   # root
    data[:, 0, 1] = [6.0, 5.0]
    clip = SkeletonClip(data=data, label=0)
    out = normalize_clip(clip, PAIR)
    assert np.allclose(out.data[:, 0, 0], [0.0, 0.0])
    assert np.allclose(out.data[:, 0, 1], [1.0, 0.0])


def test_normalize_coincident_joints_no_division():
    data = np.full((2, 3, 2), 4.2)
    out = normalize_clip(SkeletonClip(data=data, label=1), PAIR)
    assert np.array_equal(out.data, np.zeros((2, 3, 2)))


def test_normalize_idempotent():
    rng = np.random.default_rng(2)
    for _ in range(20):
        data = rng.normal(size=(2, 5, 2)) * rng.uniform(0.5, 50)
        once = normalize_clip(SkeletonClip(data=data, label=0), PAIR)
        twice = normalize_clip(once, PAIR)
        assert np.abs(twice.data - once.data).max() < 1e-12


def test_normalize_refuses_a_frame_whose_distance_overflows():
    data = np.zeros((2, 3, 2))
    data[:, 1, 1] = 1e200
    with pytest.raises(ValueError, match="frame 1 "):
        normalize_clip(SkeletonClip(data=data, label=0), PAIR)


def test_pipeline_preserves_label_and_joint_count():
    layout = builtin_layout("stick9")
    seq = make_seq(40, label=3, layout=layout, seed=5)
    filtered = drop_invalid_frames(seq)
    for clip in window_sequence(filtered, 16, 8):
        normalized = normalize_clip(clip, layout)
        assert normalized.label == 3
        assert normalized.data.shape[2] == layout.joint_count


@pytest.mark.parametrize("label", [1.5, True, np.bool_(True), "1"])
def test_clip_rejects_a_label_that_is_not_an_integer(label):
    with pytest.raises(ValueError, match="label must be an integer"):
        SkeletonClip(data=np.zeros((2, 4, 2)), label=label)


def test_clip_accepts_a_numpy_integer_label():
    assert SkeletonClip(data=np.zeros((2, 4, 2)), label=np.int64(1)).label == 1


# --- splitting ---------------------------------------------------------------


def balanced_clips(per_class, classes=2, t=4):
    clips = []
    for label in range(classes):
        for i in range(per_class):
            data = np.full((2, t, 2), float(label * 1000 + i))
            clips.append(SkeletonClip(data=data, label=label))
    return clips


def test_split_90_10_two_balanced_classes():
    clips = balanced_clips(50)
    train, test = split_dataset(clips, 0.9, seed=7)
    assert len(train) == 90 and len(test) == 10
    for label in (0, 1):
        assert sum(c.label == label for c in train) == 45
        assert sum(c.label == label for c in test) == 5


def test_split_deterministic():
    clips = balanced_clips(50)
    a = split_dataset(clips, 0.9, seed=7)
    b = split_dataset(clips, 0.9, seed=7)
    for side_a, side_b in zip(a, b):
        assert len(side_a) == len(side_b)
        for ca, cb in zip(side_a, side_b):
            assert np.array_equal(ca.data, cb.data)
    c_train, _ = split_dataset(clips, 0.9, seed=8)
    assert any(
        not np.array_equal(x.data, y.data) for x, y in zip(a[0], c_train)
    )


def test_split_six_class_90_10_protocol():
    # FU-Kinect style: 6 classes x 168 recordings, 90/10 per class
    clips = balanced_clips(168, classes=6)
    train, test = split_dataset(clips, 0.9, seed=0)
    for label in range(6):
        assert sum(c.label == label for c in train) == 151  # round(151.2)
        assert sum(c.label == label for c in test) == 17
    assert len(train) + len(test) == len(clips)


def test_split_partition_property():
    rng = np.random.default_rng(3)
    for _ in range(20):
        per_class = int(rng.integers(2, 30))
        classes = int(rng.integers(2, 5))
        frac = float(rng.uniform(0.05, 0.95))
        clips = balanced_clips(per_class, classes=classes)
        train, test = split_dataset(clips, frac, seed=int(rng.integers(0, 100)))
        assert len(train) + len(test) == len(clips)
        ids = sorted(float(c.data[0, 0, 0]) for c in train + test)
        assert ids == sorted(float(c.data[0, 0, 0]) for c in clips)
        assert not set(id(c) for c in train) & set(id(c) for c in test)
        for label in range(classes):
            assert sum(c.label == label for c in train) >= 1
            assert sum(c.label == label for c in test) >= 1


def test_split_single_clip_class_errors():
    clips = balanced_clips(5) + [SkeletonClip(data=np.zeros((2, 4, 2)), label=2)]
    with pytest.raises(ValueError, match="class 2"):
        split_dataset(clips, 0.9, seed=0)


# --- clip archive ------------------------------------------------------------


def test_clip_archive_roundtrip_and_determinism(tmp_path):
    layout = builtin_layout("stick9")
    rng = np.random.default_rng(4)
    clips = [
        SkeletonClip(data=rng.normal(size=(2, 8, 9)), label=i % 2) for i in range(6)
    ]
    p1, p2 = tmp_path / "a.fgcn", tmp_path / "b.fgcn"
    save_clip_archive(p1, clips, ["fall", "walk"], layout, stride=4)
    save_clip_archive(p2, clips, ["fall", "walk"], layout, stride=4)
    assert p1.read_bytes() == p2.read_bytes()
    loaded, class_names, got_layout, meta = load_clip_archive(p1)
    assert class_names == ["fall", "walk"]
    assert got_layout == layout
    assert [c.data.shape for c in loaded] == [(2, 8, 9)] * 6
    for a, b in zip(clips, loaded):
        assert a.label == b.label
        assert np.array_equal(a.data, b.data)


def _edited_archive(tmp_path, edit):
    """A 4-clip stick9 archive rewritten by ``edit(arrays, meta)``."""
    from fallgcn.checkpoint import load_arrays, save_arrays

    rng = np.random.default_rng(5)
    clips = [SkeletonClip(data=rng.normal(size=(2, 8, 9)), label=i % 2) for i in range(4)]
    path = tmp_path / "clips.fgcn"
    save_clip_archive(path, clips, ["fall", "walk"], builtin_layout("stick9"), stride=4)
    arrays, meta = load_arrays(path)
    edit(arrays, meta)
    save_arrays(path, arrays, meta)
    return path


def _rejects(path, field):
    with pytest.raises(ClipFormatError, match=field) as info:
        load_clip_archive(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("labels", [
    np.array([0, 1], dtype=np.int64),
    np.array([0.0, 1.0, 0.0, 1.0]),
    np.array([[0], [1], [0], [1]], dtype=np.int64),
], ids=["short", "float", "2-D"])
def test_clip_archive_rejects_labels_not_one_int_per_clip(tmp_path, labels):
    _rejects(_edited_archive(tmp_path, lambda arrays, meta: arrays.update(labels=labels)),
             "labels")


@pytest.mark.parametrize("bad", [5, -1])
def test_clip_archive_rejects_labels_outside_the_classes(tmp_path, bad):
    def edit(arrays, meta):
        arrays["labels"][2] = bad

    _rejects(_edited_archive(tmp_path, edit), f"clip 2 label {bad}")


STICK9_TEXT = format_layout(builtin_layout("stick9"))


@pytest.mark.parametrize("key, value", [
    ("layout", None),
    ("class_names", None),
    pytest.param("layout", STICK9_TEXT + "edge 0 99\n", id="layout-edge-0-99"),
    pytest.param("layout", STICK9_TEXT + "bogus 1\n", id="layout-unknown-directive"),
    # JSON objects, well-formed and not, as archives held before the layout
    # became .layout text
    ("layout", {"name": "stick9", "joint_count": 9, "root_joint": 4,
                "edges": [list(e) for e in builtin_layout("stick9").edges]}),
    ("layout", {"name": "stick9", "joint_count": 9, "edges": [[0, 1]], "root_joint": 0}),
    ("class_names", []),
])
def test_clip_archive_rejects_missing_or_malformed_metadata(tmp_path, key, value):
    # None removes the field; the layout-text cases carry their own ids so
    # that the numbered ids of the others stay as they were
    def edit(arrays, meta):
        if value is None:
            del meta[key]
        else:
            meta[key] = value

    _rejects(_edited_archive(tmp_path, edit), key)


@pytest.mark.parametrize("edit", [
    lambda arrays, meta: arrays.update(clips=arrays["clips"][:, :, :, :8]),
    lambda arrays, meta: arrays.update(clips=arrays["clips"][0]),
    lambda arrays, meta: arrays.update(clips=np.concatenate([arrays["clips"]] * 2, axis=1)),
    lambda arrays, meta: arrays["clips"].__setitem__((2, 0, 3, 4), np.nan),
], ids=["joint_count", "3-D", "4-channels", "non-finite"])
def test_clip_archive_rejects_a_bad_clips_record(tmp_path, edit):
    _rejects(_edited_archive(tmp_path, edit), "clips")
