"""Build a small computation on the tape-based autodiff core and verify its
gradients against central finite differences.

Also shows the MAC tally, which counts multiply-accumulates for every matmul
and bilinear upsample executed inside the context. A node's ``value`` and
``grad`` are plain numpy arrays; parameters are ``constant`` leaves that
training updates in place.
"""

import numpy as np

from prunepose.tensor import (
    backward,
    constant,
    finite_diff_check,
    gelu,
    mac_tally,
    matmul,
    mean_all,
    softmax_rows,
    upsample_bilinear,
)

rng = np.random.default_rng(0)

# a two-layer toy network ending in a scalar
x = constant(rng.normal(size=(4, 6)))
w1 = constant(rng.normal(scale=0.3, size=(6, 8)), name="w1")
w2 = constant(rng.normal(scale=0.3, size=(8, 3)), name="w2")

with mac_tally() as tally:
    hidden = gelu(matmul(x, w1))
    out = softmax_rows(matmul(hidden, w2))
    loss = mean_all(out)
print(f"forward pass recorded {tally.macs} multiply-accumulates")

backward(loss)
print(f"dL/dw1 has shape {w1.grad.shape}, dL/dw2 has shape {w2.grad.shape}")

# compare the analytic gradient of a fresh scalar function to finite
# differences; the reported number is the worst relative mismatch
def f(t):
    return mean_all(softmax_rows(gelu(matmul(x, t))))

err = finite_diff_check(f, rng.normal(scale=0.3, size=(6, 8)), eps=1e-5)
print(f"finite-difference check: max relative error {err:.3e}")
assert err < 1e-6

# upsampling is differentiable too, and its MACs are counted; it takes a
# 4x4 grid of 2-channel tokens as 16 rows, laid out row-major
img = constant(rng.normal(size=(16, 2)))
with mac_tally() as tally:
    big = upsample_bilinear(img, (4, 4), 4)
backward(mean_all(big))
print(f"4x bilinear upsample: {img.shape} -> {big.shape}, "
      f"{tally.macs} MACs, grad sums to {img.grad.sum():.6f}")
