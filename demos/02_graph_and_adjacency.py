"""Skeleton graphs: the symmetric degree-normalized adjacency the
spatial convolution aggregates with, and the neighbor sets and bones
read off its support.

Run:  python3 demos/02_graph_and_adjacency.py
"""
import numpy as np

from fallgcn import JointLayout, builtin_layout, normalized_adjacency

np.set_printoptions(precision=3, suppress=True)

# A 3-joint chain is small enough to read the matrix directly.
chain = JointLayout(name="chain3", joint_count=3, edges=((0, 1), (1, 2)), root_joint=1)
norm = normalized_adjacency(chain)
print("normalized: D^(-1/2) (A + I) D^(-1/2), D = degree of A + I")
print(norm)
print("entry [0,1] = 1/sqrt(2*3) =", 1 / np.sqrt(6))

# Its support is A + I: each joint aggregates itself and its neighbors.
support = norm > 0
print("\nneighbor sets B(v) = {v} + direct neighbors:")
for v, row in enumerate(support):
    print(f"  B({v}) = {np.flatnonzero(row).tolist()}")
print("degrees with self-loops:", support.sum(axis=1))

# Self-loops guarantee positive degree, so normalization never divides
# by zero, and the operator's spectral radius stays at most 1.
eigs = np.linalg.eigvalsh(norm)
print("eigenvalues:", eigs, "-> spectral radius", np.abs(eigs).max())

# The shipped full-body layouts.
for name in ("coco18", "kinect20"):
    layout = builtin_layout(name)
    degrees = [layout.degree(v) for v in range(layout.joint_count)]
    print(f"\n{name}: {layout.joint_count} joints, {len(layout.edges)} bones, "
          f"root joint {layout.root_joint}, max degree {max(degrees)}")
    n = normalized_adjacency(layout)
    print(f"  normalized adjacency: symmetric={np.allclose(n, n.T)}, "
          f"entries in [{n.min():.3f}, {n.max():.3f}]")
