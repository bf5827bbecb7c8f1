"""Skeleton keypoint ingestion: sequence files, manifests, failed-frame
filtering, fixed-length windowing, per-frame normalization (the three
run in that order by :func:`clips_from_sequences`), and the stratified
train/test split.

File formats
------------
Sequence file: JSON Lines, one record per skeleton sequence::

    {"id": "chute01", "label": "fall", "frames": [FRAME, ...]}

where FRAME is either a bare array of per-joint ``[x, y]`` (or
``[x, y, z]``) coordinate arrays in layout order, or an object
``{"joints": [...], "valid": false}`` for frames where pose extraction
failed (``valid`` defaults to true). A record loads as one
``SkeletonSequence``: coordinates [T, joints, dims] and a validity mask
[T]. A non-finite coordinate, a ``valid`` that is not a JSON boolean, a
``frames`` that is not a list, or frames mixing 2-D and 3-D fail with
``ClipFormatError`` naming ``path:line`` (and the frame, if one is at fault).
A sequence file or manifest that is not UTF-8 text fails with its
reader's typed error naming the path and the byte offset.

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
from .layouts import JointLayout, LayoutError, format_layout, open_utf8, parse_layout


class ManifestError(ValueError):
    """Raised for malformed or inconsistent manifest files."""


class ClipFormatError(ValueError):
    """Raised for malformed sequence records; carries file and line."""


@dataclass
class SkeletonSequence:
    """One labeled recording: coords [T, joints, dims] and validity mask [T]."""

    id: str
    label: int
    coords: np.ndarray
    valid: np.ndarray
    layout: JointLayout

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=np.float64)
        self.valid = np.asarray(self.valid)
        v = self.layout.joint_count
        if (self.coords.shape[1:] not in ((v, 2), (v, 3)) or self.valid.dtype != bool
                or self.valid.shape != self.coords.shape[:1]):
            raise ValueError(
                f"sequence '{self.id}': layout '{self.layout.name}' needs coords "
                f"[T, {v}, 2 or 3] and a bool mask valid [T], got {self.coords.shape} "
                f"and {self.valid.dtype} {self.valid.shape}")
        finite = np.isfinite(self.coords).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"sequence '{self.id}': frame {finite.argmin()} has non-finite "
                             "coordinates")

    def __len__(self) -> int:
        return len(self.coords)


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
        if isinstance(self.label, bool) or not isinstance(self.label, (int, np.integer)):
            raise ValueError(f"clip label must be an integer, got {self.label!r}")


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
    with open_utf8(path, ManifestError, newline="") as fh:
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


def _parse_frame(raw, layout: JointLayout, where: str) -> tuple[np.ndarray, bool]:
    valid = True
    joints = raw
    if isinstance(raw, dict):
        if "joints" not in raw:
            raise ClipFormatError(f"{where}: frame object missing 'joints'")
        joints = raw["joints"]
        valid = raw.get("valid", True)
        if not isinstance(valid, bool):
            raise ClipFormatError(f"{where}: 'valid' must be true or false, got {valid!r}")
    try:
        coords = np.asarray(joints, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
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
    return coords, valid


def parse_sequence_records(path: str | Path, layout: JointLayout) -> dict[str, dict]:
    """All records in a sequence file, keyed by id; each value holds
    ``coords`` [T, joints, dims], ``valid`` [T] and the line. A record's
    own label is not read: the manifest's label column is the one that
    counts (see :func:`load_sequences`)."""
    path = Path(path)
    records: dict[str, dict] = {}
    with open_utf8(path, ClipFormatError) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ClipFormatError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(rec, dict) or "id" not in rec or not isinstance(
                    rec.get("frames"), list):
                raise ClipFormatError(f"{path}:{lineno}: record needs 'id' and a 'frames' list")
            coords, valid = _record_arrays(rec["frames"], layout, f"{path}:{lineno}")
            if str(rec["id"]) in records:
                raise ClipFormatError(
                    f"{path}:{lineno}: duplicate record id '{rec['id']}' "
                    f"(first seen at line {records[str(rec['id'])]['line']})"
                )
            records[str(rec["id"])] = {"coords": coords, "valid": valid, "line": lineno}
    return records


def _record_arrays(frames: list, layout: JointLayout, where: str) -> tuple[np.ndarray, np.ndarray]:
    """A record's coordinates [T, joints, dims] and validity mask [T].

    The joints of every frame are converted in one ``np.asarray``. Only
    when a frame object lacks ``joints`` or has a ``valid`` that is not a
    boolean, or when the record does not convert to [T, joints, 2 or 3],
    is each frame parsed on its own, to name the first frame at fault.
    """
    joints = [f.get("joints", f) if isinstance(f, dict) else f for f in frames]
    valid = [f.get("valid", True) if isinstance(f, dict) else True for f in frames]
    if frames and all(isinstance(v, bool) for v in valid):
        try:
            coords = np.asarray(joints, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            coords = None
        if (coords is not None and coords.ndim == 3 and coords.shape[1] == layout.joint_count
                and coords.shape[2] in (2, 3)):
            return coords, np.array(valid, dtype=bool)
    parsed = [_parse_frame(f, layout, f"{where} (frame {i})") for i, f in enumerate(frames)]
    dims = parsed[0][0].shape[1] if parsed else 2
    for i, (coords, _) in enumerate(parsed):
        if coords.shape[1] != dims:
            raise ClipFormatError(f"{where} (frame {i}): frame has "
                                  f"{coords.shape[1]} dims, frame 0 has {dims}")
    return (np.array([c for c, _ in parsed]).reshape(-1, layout.joint_count, dims),
            np.array([v for _, v in parsed], dtype=bool))


def write_sequences(path: str | Path, sequences: list[SkeletonSequence],
                    class_names: list[str]) -> None:
    """Write sequences in the JSON Lines record format (round-trips with
    :func:`parse_sequence_records`)."""
    with open(path, "w") as fh:
        for seq in sequences:
            frames = [
                joints if ok else {"joints": joints, "valid": False}
                for joints, ok in zip(seq.coords.tolist(), seq.valid.tolist())
            ]
            rec = {"id": seq.id, "label": class_names[seq.label], "frames": frames}
            fh.write(json.dumps(rec) + "\n")


def load_sequences(manifest: DatasetManifest, layout: JointLayout) -> list[SkeletonSequence]:
    """One SkeletonSequence per manifest entry, frame order preserved.

    The manifest's label column is authoritative; a record's own label
    field is annotation and is not read.
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
        try:
            out.append(SkeletonSequence(
                id=entry.seq_id, label=manifest.label_index(entry.label),
                coords=rec["coords"], valid=rec["valid"], layout=layout,
            ))
        except ValueError as exc:
            raise ClipFormatError(f"{entry.path}:{rec['line']}: {exc}") from exc
    return out


def drop_invalid_frames(seq: SkeletonSequence) -> SkeletonSequence:
    """Keep exactly the frames where pose extraction succeeded."""
    return SkeletonSequence(id=seq.id, label=seq.label, coords=seq.coords[seq.valid],
                            valid=seq.valid[seq.valid], layout=seq.layout)


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
    length = len(seq)
    if not length:
        raise ValueError(f"window_sequence: sequence '{seq.id}' is empty")
    if length < clip_len:
        valid_rows = np.flatnonzero(seq.valid)
        last = seq.coords[valid_rows[-1] if len(valid_rows) else -1]
        pad = np.repeat(last[None], clip_len - length, axis=0)
        windows = [np.concatenate([seq.coords, pad], axis=0)]
    else:
        windows = [seq.coords[start:start + clip_len]
                   for start in range(0, length - clip_len + 1, stride)]
    return [SkeletonClip(data=w.transpose(2, 0, 1), label=seq.label) for w in windows]


NORMALIZE_MIN_SCALE = 1e-8


def normalize_clip(clip: SkeletonClip, layout: JointLayout) -> SkeletonClip:
    """Center each frame on the root joint and scale by the frame's
    largest joint-to-root distance (skipped when everything coincides).

    Idempotent: a normalized frame has the root at the origin and max
    distance exactly 1. A frame whose distance overflows float64 is
    refused by index.
    """
    with np.errstate(over="ignore"):  # an overflow is refused below, by frame
        centered = clip.data - clip.data[:, :, layout.root_joint:layout.root_joint + 1]
        dists = np.sqrt((centered ** 2).sum(axis=0))  # [T, V]
    scales = dists.max(axis=1)  # [T]
    if not np.isfinite(scales).all():
        raise ValueError(f"normalize_clip: frame {int(np.isfinite(scales).argmin())} is too "
                         "far from its root joint to scale (the distance overflows)")
    divisors = np.where(scales >= NORMALIZE_MIN_SCALE, scales, 1.0)
    return SkeletonClip(data=centered / divisors[None, :, None], label=clip.label)


def clips_from_sequences(sequences: list[SkeletonSequence], layout: JointLayout,
                         clip_len: int, stride: int) -> list[SkeletonClip]:
    """The ingest recipe: drop each sequence's invalid frames, window the
    rest into clips and normalize each clip; clips in sequence order.

    Each step is looked up as a module global when it runs, so a wrapper
    set on this module (``perfbench``'s tracer) sees every call. A clip
    that ``normalize_clip`` refuses is named by sequence id and index."""
    clips = []
    for seq in sequences:
        for index, clip in enumerate(window_sequence(drop_invalid_frames(seq), clip_len, stride)):
            try:
                clips.append(normalize_clip(clip, layout))
            except ValueError as exc:
                raise ClipFormatError(f"sequence '{seq.id}', clip {index}: {exc}") from exc
    return clips


def stack_clips(clips: list[SkeletonClip]) -> tuple[np.ndarray, np.ndarray]:
    """Clip data [N, dims, T, joints] and int64 labels [N]."""
    return np.stack([c.data for c in clips]), np.array([c.label for c in clips], dtype=np.int64)


def save_clip_archive(path: str | Path, clips: list[SkeletonClip],
                      class_names: list[str], layout: JointLayout,
                      stride: int | None = None) -> None:
    """Write windowed clips with their labels, class names, layout (as
    ``.layout`` text) and the ingest stride; each fact is stored once, so
    the clip shape is read off the ``clips`` record."""
    if not clips:
        raise ValueError("save_clip_archive: no clips to write")
    data, labels = stack_clips(clips)
    meta = {"kind": "clip_archive", "class_names": list(class_names), "stride": stride,
            "layout": format_layout(layout)}
    save_arrays(path, {"clips": data, "labels": labels}, meta=meta)


def load_clip_archive(path: str | Path) -> tuple[list[SkeletonClip], list[str], JointLayout, dict]:
    """Clips, class names, layout and metadata written by
    :func:`save_clip_archive`; the records are checked against the
    metadata."""
    arrays, meta = load_arrays(path)
    if meta.get("kind") != "clip_archive" or "clips" not in arrays or "labels" not in arrays:
        raise ClipFormatError(f"{path}: not a clip archive")
    class_names = meta.get("class_names")
    if not (isinstance(class_names, list) and class_names
            and all(isinstance(n, str) for n in class_names)):
        raise ClipFormatError(f"{path}: metadata field 'class_names' must be a non-empty "
                              f"list of names, got {class_names!r}")
    if not isinstance(meta.get("layout"), str):
        raise ClipFormatError(f"{path}: metadata field 'layout' must be .layout text, got "
                              f"{meta.get('layout')!r}; ingest the sequences again")
    try:
        layout = parse_layout(meta["layout"], source=f"{path}: metadata field 'layout'")
    except LayoutError as exc:
        raise ClipFormatError(str(exc)) from exc
    data, labels = arrays["clips"], arrays["labels"]
    if (data.ndim != 4 or min(data.shape[0], data.shape[2]) < 1 or data.shape[1] not in (2, 3)
            or data.shape[3] != layout.joint_count):
        raise ClipFormatError(
            f"{path}: record 'clips' has shape {data.shape}, expected "
            f"[N >= 1, 2 or 3, T >= 1, {layout.joint_count}]"
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
