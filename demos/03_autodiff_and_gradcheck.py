"""The reverse-mode engine: record ops on a tape, pull gradients, and
verify them against central finite differences.

Run:  python3 demos/03_autodiff_and_gradcheck.py
"""
import numpy as np

from fallgcn import GradTape, Tensor, grad_check, parameter
from fallgcn import autodiff as ad

rng = np.random.default_rng(0)

# A toy regression-ish objective: softmax classifier on random features.
features = Tensor(rng.normal(size=(8, 5)))
labels = rng.integers(0, 3, size=8)
weight = parameter(rng.normal(0, 0.5, size=(5, 3)))
bias = parameter(np.zeros(3))


def loss_fn():
    logits = ad.bias_add(ad.matmul(features, weight), bias)
    return ad.cross_entropy(ad.softmax(logits), labels)


# Forward under a tape, then ask for gradients.
with GradTape() as tape:
    loss = loss_fn()
grad_w, grad_b = tape.gradients(loss, [weight, bias])
print(f"loss = {loss.item():.4f}")
print(f"grad(weight) norm = {np.linalg.norm(grad_w):.4f}")
print(f"grad(bias)        = {grad_b}")

# The same gradients, the slow way: (f(p+eps) - f(p-eps)) / (2 eps)
# per coordinate. grad_check reports the worst relative disagreement.
err = grad_check(loss_fn, [weight, bias], eps=1e-5)
print(f"\nmax relative error vs finite differences: {err:.2e}")

# Ops outside a tape are plain forward computations (evaluation mode).
out = ad.relu(Tensor([-2.0, 0.0, 3.0]))
print("\nrelu(-2, 0, 3) =", out.data)

# Parameters that never touch the loss get exactly-zero gradients.
stray = parameter(rng.normal(size=(4,)))
with GradTape() as tape:
    loss = loss_fn()
(g_stray,) = tape.gradients(loss, [stray])
print("unused parameter gradient:", g_stray)

# One training step of SGD with momentum.
from fallgcn import SgdState, sgd_step

state = SgdState(learning_rate=0.1, momentum=0.9)
before = loss_fn().item()
for _ in range(20):
    with GradTape() as tape:
        loss = loss_fn()
    sgd_step([weight, bias], tape.gradients(loss, [weight, bias]), state)
print(f"\n20 SGD steps: loss {before:.4f} -> {loss_fn().item():.4f}")
