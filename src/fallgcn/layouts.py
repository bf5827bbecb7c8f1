"""Joint layout definitions: which keypoints exist and how they connect.

A layout is the static anatomy of one skeleton convention (COCO-18 from
2D pose extraction, Kinect-20 from depth sensors). Layouts are loaded
from plain-text ``.layout`` files; the two standard ones ship with the
package under ``fallgcn/layouts/``.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterator, TextIO


class LayoutError(ValueError):
    """Raised for malformed layout definitions or files."""


@dataclass(frozen=True)
class JointLayout:
    """Skeleton anatomy: joint count, bone edges, and the centering root.

    Edges are unordered joint-index pairs stored with the smaller index
    first. The edge set must connect every joint into one component.
    """

    name: str
    joint_count: int
    edges: tuple[tuple[int, int], ...]
    root_joint: int

    def __post_init__(self) -> None:
        # the name is one token of the ``.layout`` text format
        if self.name.split() != [self.name] or "#" in self.name:
            raise LayoutError(f"layout name {self.name!r} must be non-empty, without "
                              "whitespace or '#'")
        if self.joint_count < 1:
            raise LayoutError(f"layout '{self.name}': joint_count must be positive")
        if not 0 <= self.root_joint < self.joint_count:
            raise LayoutError(
                f"layout '{self.name}': root joint {self.root_joint} out of range"
            )
        seen: set[tuple[int, int]] = set()
        canonical = []
        for a, b in self.edges:
            if not (0 <= a < self.joint_count and 0 <= b < self.joint_count):
                raise LayoutError(
                    f"layout '{self.name}': edge ({a}, {b}) exceeds joint count "
                    f"{self.joint_count}"
                )
            if a == b:
                raise LayoutError(f"layout '{self.name}': self-edge at joint {a}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise LayoutError(f"layout '{self.name}': duplicate edge {key}")
            seen.add(key)
            canonical.append(key)
        object.__setattr__(self, "edges", tuple(canonical))
        # V joints need V - 1 edges to connect; checked first, because
        # _connected builds a list per joint
        if self.joint_count > 1 and (len(canonical) < self.joint_count - 1
                                     or not self._connected()):
            raise LayoutError(f"layout '{self.name}': graph is not connected")

    def _connected(self) -> bool:
        adj: dict[int, list[int]] = {v: [] for v in range(self.joint_count)}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = {0}
        stack = [0]
        while stack:
            for n in adj[stack.pop()]:
                if n not in seen:
                    seen.add(n)
                    stack.append(n)
        return len(seen) == self.joint_count

    def degree(self, joint: int) -> int:
        return sum(1 for a, b in self.edges if joint in (a, b))


def parse_layout(text: str, source: str = "<string>") -> JointLayout:
    """Parse the plain-text layout format.

    Directives, one per line: ``name <str>``, ``joints <int>``,
    ``root <int>``, ``edge <int> <int>``. ``#`` starts a comment. Each
    of ``name``, ``joints`` and ``root`` is given exactly once.
    """
    name = None
    joints = None
    root = None
    edges: list[tuple[int, int]] = []
    first_line: dict[str, int] = {}  # line of each name/joints/root directive
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *args = line.split()
        if (key, len(args)) not in (("name", 1), ("joints", 1), ("root", 1), ("edge", 2)):
            raise LayoutError(f"{source}:{lineno}: unrecognized layout directive {line!r}")
        if key != "edge":
            if key in first_line:
                raise LayoutError(f"{source}:{lineno}: repeated '{key}' directive "
                                  f"(first given at line {first_line[key]})")
            first_line[key] = lineno
        try:
            if key == "name":
                name = args[0]
            elif key == "joints":
                joints = int(args[0])
            elif key == "root":
                root = int(args[0])
            else:
                edges.append((int(args[0]), int(args[1])))
        except ValueError as exc:
            raise LayoutError(f"{source}:{lineno}: {exc}") from exc
    if name is None or joints is None or root is None:
        raise LayoutError(f"{source}: missing one of name/joints/root directives")
    try:
        return JointLayout(name=name, joint_count=joints, edges=tuple(edges), root_joint=root)
    except LayoutError as exc:
        raise LayoutError(f"{source}: {exc}") from exc


def format_layout(layout: JointLayout) -> str:
    lines = [f"name {layout.name}", f"joints {layout.joint_count}", f"root {layout.root_joint}"]
    lines += [f"edge {a} {b}" for a, b in layout.edges]
    return "\n".join(lines) + "\n"


@contextmanager
def open_utf8(path: Path, error: type[ValueError], newline: str | None = None) -> Iterator[TextIO]:
    """``path`` opened for reading as UTF-8 text. Bytes that do not decode
    raise ``error`` starting with the path and naming the byte offset."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        # the stream counts offsets from the chunk it was decoding
        try:
            path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} at "
                        f"offset {exc.start} ({exc.reason})") from exc
        raise


def load_layout(path: str | Path) -> JointLayout:
    path = Path(path)
    with open_utf8(path, LayoutError) as fh:
        text = fh.read()
    return parse_layout(text, source=str(path))


def save_layout(layout: JointLayout, path: str | Path) -> None:
    Path(path).write_text(format_layout(layout))


def builtin_layout(name: str) -> JointLayout:
    """Load one of the layouts shipped with the package (coco18, kinect20, stick9)."""
    ref = resources.files("fallgcn") / "layouts" / f"{name}.layout"
    if not ref.is_file():
        available = sorted(
            p.name.removesuffix(".layout")
            for p in (resources.files("fallgcn") / "layouts").iterdir()
            if p.name.endswith(".layout")
        )
        raise LayoutError(f"unknown builtin layout '{name}'; available: {available}")
    return parse_layout(ref.read_text(), source=f"builtin:{name}")


def resolve_layout(name_or_path: str) -> JointLayout:
    """Accept either a builtin layout name or a path to a .layout file."""
    p = Path(name_or_path)
    if p.suffix == ".layout" or p.exists():
        return load_layout(p)
    return builtin_layout(name_or_path)


def ring_layout(joint_count: int) -> JointLayout:
    """``ring{V}``: joints 0..V-1 joined in a cycle, every joint of degree
    two (V >= 3). The layout of the tiny gradient-check models."""
    return JointLayout(
        name=f"ring{joint_count}", joint_count=joint_count, root_joint=0,
        edges=tuple((i, (i + 1) % joint_count) for i in range(joint_count)),
    )
