import numpy as np

from fallgcn.synthetic import CLASS_NAMES, generate_sequences, make_dataset


def test_generator_deterministic():
    a = generate_sequences(5, seed=3)
    b = generate_sequences(5, seed=3)
    for sa, sb in zip(a, b):
        assert sa.id == sb.id and sa.label == sb.label and len(sa) == len(sb)
        assert np.array_equal(sa.coords, sb.coords)
        assert np.array_equal(sa.valid, sb.valid)
    c = generate_sequences(5, seed=4)
    assert any(
        not np.array_equal(x.coords[0], y.coords[0])
        for x, y in zip(a, c)
    )


def test_generator_counts_and_labels():
    seqs = generate_sequences(7, seed=0)
    assert len(seqs) == 14
    assert sum(s.label == 0 for s in seqs) == 7
    assert CLASS_NAMES == ["fall", "walk"]


def test_fall_root_descends_monotonically():
    for seq in generate_sequences(5, seed=1):
        root_y = seq.coords[:, 4, 1]
        if seq.label == 0:
            assert np.all(np.diff(root_y) < 0)


def test_invalid_rate_marks_frames():
    seqs = generate_sequences(10, seed=2, invalid_rate=0.3)
    flags = np.concatenate([s.valid for s in seqs])
    assert 0.5 < np.mean(flags) < 0.9
    assert all(s.valid[-1] for s in seqs)


def test_make_dataset_sizes_and_balance():
    train, test = make_dataset(n_per_class=25, seed=0)
    assert len(train) == 40 and len(test) == 10
    assert sum(c.label == 0 for c in train) == 20
    assert sum(c.label == 0 for c in test) == 5
    for clip in train + test:
        assert clip.data.shape == (2, 32, 9)
        # normalized: root at origin every frame
        assert np.abs(clip.data[:, :, 4]).max() < 1e-12
