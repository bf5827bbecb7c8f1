"""Skeleton keypoint ingestion: sequence files, manifests, failed-frame
filtering, fixed-length windowing, per-frame normalization, and the
stratified train/test split.

File formats
------------
Sequence file: JSON Lines, one record per skeleton sequence::

    {"id": "chute01", "label": "fall", "frames": [FRAME, ...]}

where FRAME is either a bare array of per-joint ``[x, y]`` (or
``[x, y, z]``) coordinate arrays in layout order, or an object
``{"joints": [...], "valid": false}`` for frames where pose extraction
failed (``valid`` defaults to true).

Manifest file: CSV with a required header ``path,label,id``; paths are
resolved relative to the manifest's directory.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import load_arrays, save_arrays
from .layouts import JointLayout


class ManifestError(ValueError):
    """Raised for malformed or inconsistent manifest files."""


class ClipFormatError(ValueError):
    """Raised for malformed sequence records; carries file and line."""


@dataclass
class SkeletonFrame:
    """Per-frame joint coordinates [joint_count, dims] and a validity flag."""

    coords: np.ndarray
    valid: bool = True

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 2 or self.coords.shape[1] not in (2, 3):
            raise ValueError(
                f"frame coords must be [joints, 2 or 3], got shape {self.coords.shape}"
            )
        if not np.isfinite(self.coords).all():
            raise ValueError("frame contains non-finite coordinates")


@dataclass
class SkeletonSequence:
    """One labeled recording: ordered frames sharing a joint layout."""

    id: str
    label: int
    frames: list[SkeletonFrame]
    layout: JointLayout

    def __post_init__(self) -> None:
        for i, f in enumerate(self.frames):
            if f.coords.shape[0] != self.layout.joint_count:
                raise ValueError(
                    f"sequence '{self.id}': frame {i} has {f.coords.shape[0]} joints, "
                    f"layout '{self.layout.name}' expects {self.layout.joint_count}"
                )
            if f.coords.shape[1] != self.frames[0].coords.shape[1]:
                raise ValueError(f"sequence '{self.id}': frame {i} changes dims")

    def __len__(self) -> int:
        return len(self.frames)


@dataclass
class SkeletonClip:
    """Model input: data [dims, T, joints] plus the class index."""

    data: np.ndarray
    label: int

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise ValueError(f"clip data must be [dims, T, joints], got {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise ValueError("clip contains non-finite values")


@dataclass
class ManifestEntry:
    path: Path
    label: str
    seq_id: str


@dataclass
class DatasetManifest:
    entries: list[ManifestEntry]
    layout_name: str
    class_names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.class_names:
            self.class_names = sorted({e.label for e in self.entries})
        for e in self.entries:
            if e.label not in self.class_names:
                raise ManifestError(
                    f"entry '{e.seq_id}': label '{e.label}' not among classes "
                    f"{self.class_names}"
                )

    def label_index(self, name: str) -> int:
        return self.class_names.index(name)


def read_manifest(path: str | Path, layout_name: str) -> DatasetManifest:
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"manifest not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ManifestError(f"{path}: empty manifest, header row required") from None
        if [h.strip() for h in header] != ["path", "label", "id"]:
            raise ManifestError(
                f"{path}:1: header must be 'path,label,id', got {','.join(header)!r}"
            )
        entries = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ManifestError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            entries.append(
                ManifestEntry(path=path.parent / row[0], label=row[1], seq_id=row[2])
            )
    return DatasetManifest(entries=entries, layout_name=layout_name)


def write_manifest(path: str | Path, entries: list[ManifestEntry]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "label", "id"])
        for e in entries:
            writer.writerow([str(e.path), e.label, e.seq_id])


def _parse_frame(raw, layout: JointLayout, where: str) -> SkeletonFrame:
    valid = True
    joints = raw
    if isinstance(raw, dict):
        if "joints" not in raw:
            raise ClipFormatError(f"{where}: frame object missing 'joints'")
        joints = raw["joints"]
        valid = bool(raw.get("valid", True))
    try:
        coords = np.asarray(joints, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ClipFormatError(f"{where}: unreadable frame coordinates ({exc})") from exc
    if coords.ndim != 2 or coords.shape[1] not in (2, 3):
        raise ClipFormatError(
            f"{where}: frame must be a list of [x, y] or [x, y, z] arrays, "
            f"got shape {coords.shape}"
        )
    if coords.shape[0] != layout.joint_count:
        raise ClipFormatError(
            f"{where}: frame has {coords.shape[0]} joints, layout "
            f"'{layout.name}' expects {layout.joint_count}"
        )
    return SkeletonFrame(coords=coords, valid=valid)


def parse_sequence_records(path: str | Path, layout: JointLayout) -> dict[str, dict]:
    """All records in a sequence file, keyed by id; values keep raw label
    and parsed frames."""
    path = Path(path)
    records: dict[str, dict] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ClipFormatError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(rec, dict) or "id" not in rec or "frames" not in rec:
                raise ClipFormatError(f"{path}:{lineno}: record needs 'id' and 'frames'")
            frames = [
                _parse_frame(f, layout, f"{path}:{lineno} (frame {i})")
                for i, f in enumerate(rec["frames"])
            ]
            if str(rec["id"]) in records:
                raise ClipFormatError(
                    f"{path}:{lineno}: duplicate record id '{rec['id']}' "
                    f"(first seen at line {records[str(rec['id'])]['line']})"
                )
            records[str(rec["id"])] = {
                "label": rec.get("label"),
                "frames": frames,
                "line": lineno,
            }
    return records


def write_sequences(path: str | Path, sequences: list[SkeletonSequence],
                    class_names: list[str]) -> None:
    """Write sequences in the JSON Lines record format (round-trips with
    :func:`parse_sequence_records`)."""
    with open(path, "w") as fh:
        for seq in sequences:
            frames = []
            for f in seq.frames:
                joints = [[float(x) for x in row] for row in f.coords]
                frames.append(joints if f.valid else {"joints": joints, "valid": False})
            rec = {"id": seq.id, "label": class_names[seq.label], "frames": frames}
            fh.write(json.dumps(rec) + "\n")


def load_sequences(manifest: DatasetManifest, layout: JointLayout) -> list[SkeletonSequence]:
    """One SkeletonSequence per manifest entry, frame order preserved.

    The manifest's label column is authoritative; a record's own label
    field is treated as annotation and not cross-checked.
    """
    file_cache: dict[Path, dict[str, dict]] = {}
    out = []
    for entry in manifest.entries:
        if entry.path not in file_cache:
            if not entry.path.exists():
                raise ManifestError(f"sequence file not found: {entry.path}")
            file_cache[entry.path] = parse_sequence_records(entry.path, layout)
        records = file_cache[entry.path]
        if entry.seq_id not in records:
            raise ClipFormatError(
                f"{entry.path}: no record with id '{entry.seq_id}' "
                f"(found {sorted(records)})"
            )
        rec = records[entry.seq_id]
        out.append(
            SkeletonSequence(
                id=entry.seq_id,
                label=manifest.label_index(entry.label),
                frames=rec["frames"],
                layout=layout,
            )
        )
    return out


def drop_invalid_frames(seq: SkeletonSequence) -> SkeletonSequence:
    """Keep exactly the frames where pose extraction succeeded."""
    kept = [f for f in seq.frames if f.valid]
    return SkeletonSequence(id=seq.id, label=seq.label, frames=kept, layout=seq.layout)


def window_sequence(seq: SkeletonSequence, clip_len: int, stride: int) -> list[SkeletonClip]:
    """Cut fixed-length clips starting at 0, stride, 2*stride, ...

    A sequence shorter than ``clip_len`` yields a single clip padded by
    repeating its last valid frame, which keeps the padded tail free of
    spurious motion.
    """
    if clip_len < 2:
        raise ValueError(f"window_sequence: clip_len must be >= 2, got {clip_len}")
    if stride < 1:
        raise ValueError(f"window_sequence: stride must be >= 1, got {stride}")
    if not seq.frames:
        raise ValueError(f"window_sequence: sequence '{seq.id}' is empty")
    stacked = np.stack([f.coords for f in seq.frames])  # [T, V, dims]
    length = stacked.shape[0]
    clips = []
    if length < clip_len:
        pad_source = [f for f in seq.frames if f.valid] or seq.frames
        pad = np.repeat(pad_source[-1].coords[None], clip_len - length, axis=0)
        window = np.concatenate([stacked, pad], axis=0)
        clips.append(SkeletonClip(data=window.transpose(2, 0, 1), label=seq.label))
    else:
        for start in range(0, length - clip_len + 1, stride):
            window = stacked[start:start + clip_len]
            clips.append(SkeletonClip(data=window.transpose(2, 0, 1), label=seq.label))
    return clips


NORMALIZE_MIN_SCALE = 1e-8


def normalize_clip(clip: SkeletonClip, layout: JointLayout) -> SkeletonClip:
    """Center each frame on the root joint and scale by the frame's
    largest joint-to-root distance (skipped when everything coincides).

    Idempotent: a normalized frame has the root at the origin and max
    distance exactly 1.
    """
    centered = clip.data - clip.data[:, :, layout.root_joint:layout.root_joint + 1]
    dists = np.sqrt((centered ** 2).sum(axis=0))  # [T, V]
    scales = dists.max(axis=1)  # [T]
    divisors = np.where(scales >= NORMALIZE_MIN_SCALE, scales, 1.0)
    return SkeletonClip(data=centered / divisors[None, :, None], label=clip.label)


def save_clip_archive(path: str | Path, clips: list[SkeletonClip],
                      class_names: list[str], layout: JointLayout,
                      stride: int | None = None) -> None:
    """Write windowed clips plus everything needed to rebuild the model
    input contract (layout, class names, clip length)."""
    if not clips:
        raise ValueError("save_clip_archive: no clips to write")
    data = np.stack([c.data for c in clips])
    labels = np.array([c.label for c in clips], dtype=np.int64)
    meta = {
        "kind": "clip_archive",
        "class_names": list(class_names),
        "dims": int(data.shape[1]),
        "clip_len": int(data.shape[2]),
        "stride": stride,
        "layout": {
            "name": layout.name,
            "joint_count": layout.joint_count,
            "edges": [list(e) for e in layout.edges],
            "root_joint": layout.root_joint,
        },
    }
    save_arrays(path, {"clips": data, "labels": labels}, meta=meta)


def load_clip_archive(path: str | Path) -> tuple[list[SkeletonClip], list[str], JointLayout, dict]:
    """Clips, class names, layout and metadata written by
    :func:`save_clip_archive`; every field is checked against the others."""
    arrays, meta = load_arrays(path)
    if meta.get("kind") != "clip_archive" or "clips" not in arrays or "labels" not in arrays:
        raise ClipFormatError(f"{path}: not a clip archive")

    def meta_field(key: str, ok, want: str):
        if key not in meta:
            raise ClipFormatError(f"{path}: metadata field '{key}' is missing")
        if not ok(meta[key]):
            raise ClipFormatError(
                f"{path}: metadata field '{key}' must be {want}, got {meta[key]!r}"
            )
        return meta[key]

    # metadata comes from JSON, so an integer field is exactly an int
    class_names = meta_field(
        "class_names",
        lambda v: isinstance(v, list) and v and all(isinstance(n, str) for n in v),
        "a non-empty list of names")
    dims = meta_field("dims", lambda v: type(v) is int and v in (2, 3), "2 or 3")
    clip_len = meta_field("clip_len", lambda v: type(v) is int and v >= 1, "an int >= 1")
    lay = meta_field(
        "layout", lambda v: isinstance(v, dict) and isinstance(v.get("name"), str)
        and type(v.get("joint_count")) is int and type(v.get("root_joint")) is int
        and isinstance(v.get("edges"), list),
        "an object with name, joint_count, edges and root_joint")
    try:
        layout = JointLayout(
            name=lay["name"],
            joint_count=lay["joint_count"],
            edges=tuple(tuple(e) for e in lay["edges"]),
            root_joint=lay["root_joint"],
        )
    except (TypeError, ValueError) as exc:
        raise ClipFormatError(f"{path}: metadata field 'layout' is malformed: {exc}") from exc
    data, labels = arrays["clips"], arrays["labels"]
    if data.ndim != 4 or len(data) < 1 or data.shape[1:] != (dims, clip_len, layout.joint_count):
        raise ClipFormatError(
            f"{path}: record 'clips' has shape {data.shape}, expected "
            f"[N >= 1, {dims}, {clip_len}, {layout.joint_count}]"
        )
    if labels.dtype.kind not in "iu" or labels.shape != (data.shape[0],):
        raise ClipFormatError(
            f"{path}: record 'labels' must be a 1-D integer array with one entry per "
            f"clip ({data.shape[0]}), got {labels.dtype} of shape {labels.shape}"
        )
    bad = (labels < 0) | (labels >= len(class_names))
    if bad.any():
        i = int(bad.argmax())
        raise ClipFormatError(
            f"{path}: record 'labels' gives clip {i} label {int(labels[i])}, "
            f"outside the {len(class_names)} classes"
        )
    clips = []
    for i, (clip, label) in enumerate(zip(data, labels)):
        try:
            clips.append(SkeletonClip(data=clip, label=int(label)))
        except ValueError as exc:
            raise ClipFormatError(f"{path}: record 'clips', clip {i}: {exc}") from exc
    return clips, list(class_names), layout, meta


def split_dataset(clips: list[SkeletonClip], train_fraction: float,
                  seed: int) -> tuple[list[SkeletonClip], list[SkeletonClip]]:
    """Deterministic stratified split.

    Per class, round(train_fraction * count) clips go to train (ties
    round up), clamped so both sides get at least one clip. A class
    with a single clip cannot be split and is an error.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"split_dataset: train_fraction must be in (0,1), got {train_fraction}")
    by_class: dict[int, list[int]] = {}
    for i, clip in enumerate(clips):
        by_class.setdefault(clip.label, []).append(i)
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in sorted(by_class):
        idx = np.array(by_class[label])
        if len(idx) < 2:
            raise ValueError(
                f"split_dataset: class {label} has only {len(idx)} clip(s); "
                f"need at least 2 to split"
            )
        n_train = int(np.floor(train_fraction * len(idx) + 0.5))
        n_train = min(max(n_train, 1), len(idx) - 1)
        perm = rng.permutation(len(idx))
        train_idx += sorted(idx[perm[:n_train]].tolist())
        test_idx += sorted(idx[perm[n_train:]].tolist())
    return [clips[i] for i in sorted(train_idx)], [clips[i] for i in sorted(test_idx)]
