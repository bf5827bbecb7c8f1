import numpy as np
import pytest

from conftest import random_layout
from fallgcn.layouts import (
    JointLayout,
    LayoutError,
    builtin_layout,
    format_layout,
    load_layout,
    parse_layout,
    ring_layout,
    save_layout,
)


def test_builtin_layouts_load_and_validate():
    coco = builtin_layout("coco18")
    assert coco.joint_count == 18
    assert coco.root_joint == 1
    kinect = builtin_layout("kinect20")
    assert kinect.joint_count == 20
    assert len(kinect.edges) == 19  # tree
    stick = builtin_layout("stick9")
    assert stick.joint_count == 9


def test_unknown_builtin_lists_available():
    with pytest.raises(LayoutError, match="coco18"):
        builtin_layout("nope")


def test_roundtrip_through_file(tmp_path):
    layout = builtin_layout("coco18")
    path = tmp_path / "copy.layout"
    save_layout(layout, path)
    again = load_layout(path)
    assert again == layout


def test_parse_rejects_bad_directives():
    with pytest.raises(LayoutError, match=":2"):
        parse_layout("name x\nbogus 1 2\n")
    with pytest.raises(LayoutError, match="missing"):
        parse_layout("name x\njoints 3\n")


def test_invariants_enforced():
    with pytest.raises(LayoutError, match="self-edge"):
        JointLayout(name="x", joint_count=3, edges=((0, 0),), root_joint=0)
    with pytest.raises(LayoutError, match="duplicate"):
        JointLayout(name="x", joint_count=3, edges=((0, 1), (1, 0), (1, 2)), root_joint=0)
    with pytest.raises(LayoutError, match="exceeds"):
        JointLayout(name="x", joint_count=3, edges=((0, 5),), root_joint=0)
    with pytest.raises(LayoutError, match="not connected"):
        JointLayout(name="x", joint_count=4, edges=((0, 1), (2, 3)), root_joint=0)
    with pytest.raises(LayoutError, match="root"):
        JointLayout(name="x", joint_count=2, edges=((0, 1),), root_joint=5)


def test_too_few_edges_for_the_joint_count_are_refused_before_any_per_joint_work(monkeypatch):
    # a connected graph on V joints has at least V - 1 edges, so a 30-byte
    # file declaring 10^8 joints is refused without a list per joint
    def per_joint_walk(self):
        raise AssertionError("the connectivity walk ran")

    monkeypatch.setattr(JointLayout, "_connected", per_joint_walk)
    with pytest.raises(LayoutError, match="layout 'a': graph is not connected"):
        parse_layout("name a\njoints 100000000\nroot 0\n")
    with pytest.raises(LayoutError, match="not connected"):
        JointLayout(name="x", joint_count=4, edges=((0, 1), (1, 2)), root_joint=0)


def test_edges_canonicalized_smaller_first():
    layout = JointLayout(name="x", joint_count=3, edges=((2, 1), (1, 0)), root_joint=0)
    assert layout.edges == ((1, 2), (0, 1))


def test_format_is_parseable():
    rng = np.random.default_rng(0)
    layouts = [builtin_layout(name) for name in ("coco18", "kinect20", "stick9")]
    layouts += [ring_layout(v) for v in (3, 5, 8)]
    layouts += [random_layout(rng, max_joints=10) for _ in range(20)]
    for layout in layouts:
        assert parse_layout(format_layout(layout)) == layout


@pytest.mark.parametrize("name", ["", "my layout", "a#b", "tab\tname", "line\n"])
def test_name_the_text_format_cannot_carry_is_refused(name):
    with pytest.raises(LayoutError, match="layout name"):
        JointLayout(name=name, joint_count=2, edges=((0, 1),), root_joint=0)


@pytest.mark.parametrize("last_line, error", [
    ("bogus 1", "{path}:4: unrecognized layout directive 'bogus 1'"),
    ("edge 0 99", "{path}: layout 'x': edge (0, 99) exceeds joint count 3"),
    ("name y", "{path}:4: repeated 'name' directive (first given at line 1)"),
    ("joints 4", "{path}:4: repeated 'joints' directive (first given at line 2)"),
    ("root 1", "{path}:4: repeated 'root' directive (first given at line 3)"),
], ids=["unknown-directive", "edge-out-of-range", "repeated-name", "repeated-joints",
        "repeated-root"])
def test_layout_file_error_names_the_file_once(tmp_path, last_line, error):
    path = tmp_path / "bad.layout"
    path.write_text(f"name x\njoints 3\nroot 0\n{last_line}\n")
    with pytest.raises(LayoutError) as info:
        load_layout(path)
    assert str(info.value) == error.format(path=path)


def test_layout_file_that_is_not_utf8_names_the_path_and_byte_offset(tmp_path):
    path = tmp_path / "bad.layout"
    path.write_bytes(b"name x\xe5\njoints 2\nroot 0\nedge 0 1\n")
    with pytest.raises(LayoutError) as info:
        load_layout(path)
    assert str(info.value).startswith(f"{path}: not UTF-8 text: byte 0xe5 at offset 6 ")
