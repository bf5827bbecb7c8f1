import struct

import numpy as np
import pytest

from fallgcn.checkpoint import CheckpointError, load_arrays, save_arrays


def test_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "weights": rng.normal(size=(3, 4)),
        "tiny": np.array(np.pi),
        "counts": rng.integers(0, 100, size=7).astype(np.int64),
    }
    path = tmp_path / "ckpt.fgcn"
    save_arrays(path, arrays, meta={"note": "x", "k": [1, 2]})
    loaded, meta = load_arrays(path)
    assert list(loaded) == list(arrays)  # order preserved
    for name in arrays:
        assert loaded[name].dtype == arrays[name].dtype
        assert np.array_equal(
            loaded[name].view(np.uint64), arrays[name].view(np.uint64)
        ), name
    assert meta == {"note": "x", "k": [1, 2]}


def test_same_content_same_bytes(tmp_path):
    arrays = {"a": np.arange(6.0).reshape(2, 3)}
    p1, p2 = tmp_path / "one", tmp_path / "two"
    save_arrays(p1, arrays, meta={"b": 1, "a": 2})
    save_arrays(p2, {"a": np.arange(6.0).reshape(2, 3)}, meta={"a": 2, "b": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "x"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_arrays(path)
    save_arrays(path, {"a": np.ones(4)})
    whole = path.read_bytes()
    path.write_bytes(whole[:-8])
    with pytest.raises(CheckpointError, match="truncated"):
        load_arrays(path)
    path.write_bytes(whole + b"junk")
    with pytest.raises(CheckpointError, match="trailing"):
        load_arrays(path)


def test_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(CheckpointError, match="dtype"):
        save_arrays(tmp_path / "x", {"a": np.ones(3, dtype=np.float32)})


def _container(meta: bytes, records: bytes = b"", count: int = 0) -> bytes:
    """A hand-built container: header, raw metadata bytes, raw records."""
    return (b"FGCN" + struct.pack("<I", 1) + struct.pack("<Q", len(meta)) + meta
            + struct.pack("<Q", count) + records)


def _record_header(name: bytes, shape: tuple[int, ...]) -> bytes:
    return (struct.pack("<H", len(name)) + name + struct.pack("<BB", 0, len(shape))
            + struct.pack(f"<{len(shape)}Q", *shape))


def test_rejects_shape_whose_size_wraps_to_zero(tmp_path):
    # 2**32 * 2**32 wraps to 0 in u64/i64 arithmetic; the record needs 2**67 bytes
    path = tmp_path / "x"
    path.write_bytes(_container(b"{}", _record_header(b"a", (2 ** 32, 2 ** 32)), count=1))
    wrapped = f"truncated at byte 47: record 'a'.* needs {2 ** 67} bytes"
    with pytest.raises(CheckpointError, match=wrapped):
        load_arrays(path)


@pytest.mark.parametrize("shape", [(1,) * 65, (0, 2 ** 63), (0, 2 ** 63 - 1)])
def test_rejects_shape_numpy_cannot_build(tmp_path, shape):
    # each record has its one data element, or none, so only the shape is wrong
    path = tmp_path / "x"
    path.write_bytes(_container(b"", _record_header(b"a", shape) + b"\x00" * 8, count=1))
    why = rf"record 'a' at byte 29 has a shape numpy cannot build: {len(shape)} dimensions"
    with pytest.raises(CheckpointError, match=why) as info:
        load_arrays(path)
    assert str(shape) in str(info.value)


def test_largest_dimension_count_round_trips(tmp_path):
    path = tmp_path / "x"
    save_arrays(path, {"a": np.zeros((1,) * 32), "b": np.zeros((0, 2 ** 40))})
    arrays, _ = load_arrays(path)
    assert arrays["a"].shape == (1,) * 32 and arrays["b"].shape == (0, 2 ** 40)
    with pytest.raises(CheckpointError, match="33 dimensions, at most 32"):
        save_arrays(path, {"a": np.zeros((1,) * 33)})


def test_rejects_record_larger_than_file(tmp_path):
    path = tmp_path / "x"
    path.write_bytes(_container(b"", _record_header(b"a", (3,)) + b"\x00" * 16, count=1))
    with pytest.raises(CheckpointError, match=r"needs 24 bytes, 16 left"):
        load_arrays(path)


def test_rejects_bad_metadata(tmp_path):
    path = tmp_path / "x"
    meta_at = 16  # magic, version, meta length
    for meta, why in ((b"\xff\xfe{}", "not UTF-8"), (b"{oops", "not JSON"),
                      (b"[1, 2]", "not a JSON object")):
        path.write_bytes(_container(meta))
        with pytest.raises(CheckpointError, match=f"metadata at byte {meta_at} is {why}"):
            load_arrays(path)


def test_rejects_non_utf8_record_name(tmp_path):
    path = tmp_path / "x"
    path.write_bytes(_container(b"", _record_header(b"\xff", ()) + b"\x00" * 8, count=1))
    with pytest.raises(CheckpointError, match="record name at byte 26 is not UTF-8"):
        load_arrays(path)
