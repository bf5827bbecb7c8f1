"""Inside one GSTCN block: spatial graph convolution with its learnable
adjacency mask, the separable temporal convolution and its dense
equivalent, and the residual composition.

Run:  python3 demos/04_gstcn_blocks.py
"""
import numpy as np

from fallgcn import (
    GstcnBlock,
    MaskingConfig,
    SepTcnLayer,
    SgcLayer,
    Tensor,
    apply_masking,
    builtin_layout,
    normalized_adjacency,
    septcn_flops,
)
from fallgcn import autodiff as ad

rng = np.random.default_rng(0)
layout = builtin_layout("stick9")
norm_adj = normalized_adjacency(layout)
neighbors = [np.flatnonzero(row) for row in norm_adj > 0]  # B(v), self included
V = layout.joint_count

# --- spatial graph convolution vs an explicit neighbor loop ------------
sgc = SgcLayer(2, 4, norm_adj, rng)
x = rng.normal(size=(2, 6, V))  # [C, T, V]
fast = sgc.forward(Tensor(x[None])).data[0]

slow = np.zeros_like(fast)
for t in range(6):
    embedded = [x[:, t, j] @ sgc.weight.data for j in range(V)]
    for i in range(V):
        for j in neighbors[i]:  # each joint aggregates itself + neighbors
            slow[:, t, i] += norm_adj[i, j] * sgc.mask.data[i, j] * embedded[j]
print(f"SGC vectorized vs neighbor loop: max |diff| = {np.abs(fast - slow).max():.2e}")

# The mask starts at all-ones (pure anatomical graph) and is trained to
# reweight connections.
print(f"adjacency mask starts at ones: {np.all(sgc.mask.data == 1.0)}")

# --- separable temporal convolution = rank-constrained dense conv ------
septcn = SepTcnLayer(4, 4, rng)
xc = Tensor(rng.normal(size=(1, 4, 6, V)))
k_dense = np.einsum("ci,co->oci", septcn.depthwise.data, septcn.pointwise.data)
dense_out = ad.bias_add(ad.dense_tconv(xc, Tensor(k_dense)), septcn.bias).data
print(f"Sep-TCN vs composed dense kernel: max |diff| = "
      f"{np.abs(septcn.forward(xc).data - dense_out).max():.2e}")

# --- the multiply-count story -------------------------------------------
print("\nmultiplies per output position, k_t = 3:")
print(f"{'C':>6}{'separable':>12}{'dense':>10}{'ratio':>8}")
for c in (16, 64, 128, 256):
    sep, dense = septcn_flops(c, c, 1, 1, 3)
    print(f"{c:>6}{sep:>12}{dense:>10}{dense / sep:>8.2f}")

# --- block composition ---------------------------------------------------
# y = ReLU( TCN(SGC(mask(x))) + proj(x) + tpool(proj(x)) )
block = GstcnBlock(2, 8, norm_adj, rng)
clip = Tensor(rng.normal(size=(3, 2, 16, V)))
out = block.forward(clip)
print(f"\nblock: {clip.shape} -> {out.shape}  (T and V preserved)")

masked = apply_masking(clip, MaskingConfig(p_joint=0.3, p_frame=0.3),
                       np.random.default_rng(1))
zero_fraction = float((masked.data == 0).mean())
print(f"training-time masking zeroed {zero_fraction:.0%} of inputs "
      f"(whole joints and whole frames)")
