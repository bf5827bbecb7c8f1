"""Walk the ingestion pipeline end to end on a small synthetic dataset:
sequence files -> manifest -> load -> drop failed frames -> window ->
normalize -> stratified split.

Run:  python3 demos/01_skeleton_pipeline.py
"""
import tempfile
from pathlib import Path

import numpy as np

from fallgcn import (
    builtin_layout,
    clips_from_sequences,
    load_sequences,
    read_manifest,
    split_dataset,
    write_manifest,
    write_sequences,
)
from fallgcn.skeleton_io import ManifestEntry
from fallgcn.synthetic import CLASS_NAMES, generate_sequences

workdir = Path(tempfile.mkdtemp(prefix="fallgcn_demo_"))
print(f"working in {workdir}\n")

# 1. Create raw sequence files. Real data would come from a pose
#    extractor; here the synthetic generator stands in, including a few
#    frames marked as extraction failures.
sequences = generate_sequences(10, seed=0, length_range=(40, 70), invalid_rate=0.05)
seq_file = workdir / "recordings.jsonl"
write_sequences(seq_file, sequences, CLASS_NAMES)
print(f"wrote {len(sequences)} sequences to {seq_file.name}")

entries = [ManifestEntry(seq_file, CLASS_NAMES[s.label], s.id) for s in sequences]
manifest_file = workdir / "manifest.csv"
write_manifest(manifest_file, entries)

# 2. Load through the manifest.
layout = builtin_layout("stick9")
manifest = read_manifest(manifest_file, layout.name)
loaded = load_sequences(manifest, layout)
print(f"loaded {len(loaded)} sequences, classes = {manifest.class_names}")

# 3. Filter failed frames, window into fixed-length clips, normalize:
#    the same recipe `fallgcn ingest` runs.
clips = clips_from_sequences(loaded, layout, clip_len=32, stride=16)
dropped_total = sum(int((~seq.valid).sum()) for seq in loaded)
print(f"dropped {dropped_total} invalid frames, produced {len(clips)} clips "
      f"of shape {clips[0].data.shape}  # [dims, T, joints]")

# Normalization puts the root joint at the origin with max joint
# distance 1 per frame, so camera placement and resolution wash out.
sample = clips[0].data
root_norm = np.abs(sample[:, :, layout.root_joint]).max()
max_dist = np.sqrt((sample ** 2).sum(axis=0)).max()
print(f"root residual {root_norm:.1e}, max joint distance {max_dist:.3f}")

# 4. Deterministic stratified split.
train_clips, test_clips = split_dataset(clips, train_fraction=0.8, seed=7)
for name, side in (("train", train_clips), ("test", test_clips)):
    counts = {c: sum(k.label == c for k in side) for c in (0, 1)}
    print(f"{name}: {len(side)} clips, per-class {counts}")
