"""Tour of the reverse-mode engine: tapes, conv kernels, gradient checking.

Everything flows through (channels x length) arrays. A Tape records each op;
backward walks the records in reverse and hands each Parameter its gradient
as Parameter.grad, which is None until then (a second backward adds to it).
A tape built with Tape(constants=[...]) records no node for those parameters,
so they get no gradient.
"""

import numpy as np

from abas import autodiff as ad
from abas.autodiff import Parameter, Tape, Tensor

# -- a small taped computation -----------------------------------------------
tape = Tape()
x = tape.tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
w = Parameter("w", np.array([[[0.5, -0.5]]]))
b = Parameter("b", np.array([0.1]))

y = ad.conv1d(x, w, b, stride=1)
h = ad.tanh_(y)
loss = ad.abs_mean_(h)
print(f"conv output: {y.data}")
print(f"loss: {loss.item():.6f}")

tape.backward(loss)
print(f"dloss/dw: {w.grad.ravel()}")
print(f"dloss/db: {b.grad}")
print(f"dloss/dx: {tape.grad_of(x)}")

# -- the adjoint pairing of conv1d and tconv1d ---------------------------------
rng = np.random.default_rng(0)
xa = rng.normal(size=(3, 20))
ya = rng.normal(size=(5, 8))
wa = rng.normal(size=(5, 3, 6))
conv = ad.conv1d(Tensor(xa), Parameter("wa", wa), stride=2)
tconv = ad.tconv1d(Tensor(ya), Parameter("wa", wa), stride=2)
print(f"<conv(x), y> = {np.vdot(conv.data, ya):+.10f}")
print(f"<x, tconv(y)> = {np.vdot(xa, tconv.data):+.10f} (equal: adjoint identity)")

# -- transposed conv doubles length with kernel 66, stride 2, crop 32 ----------
xt = Tensor(rng.standard_normal((64, 1000), dtype=np.float32))
wt = Parameter("wt", rng.standard_normal((64, 32, 66), dtype=np.float32))
out = ad.tconv1d(xt, wt, stride=2, crop=(32, 32))
print(f"tconv 64x1000 -> {out.data.shape} (length doubled)")

# -- finite-difference verification of every op --------------------------------
from abas.verify import gradient_suite

print("\nfinite-difference check of each op (float64, central differences):")
for name, err in gradient_suite(scope="layer", seed=0):
    print(f"  {name:32s} max rel err {err:.2e}")
