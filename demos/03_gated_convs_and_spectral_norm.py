"""The two layer mechanisms the networks lean on.

1. Gated convolutions: tanh(filter) * gate, where the gate is a unit-gain
   softmax over channels (per time step, scaled by the channel count so its
   mean is 1) or an elementwise sigmoid.
2. Spectral normalization: weights divided by a power-iteration estimate of
   their top singular value, bounding each layer's Lipschitz constant.
"""

import numpy as np

from abas import nn
from abas.autodiff import Parameter, Tensor
from abas.nn import matricize

rng = np.random.default_rng(0)

# -- gated convolution ---------------------------------------------------------
x = Tensor(rng.normal(size=(4, 64)).astype(np.float32))
for gate in (nn.GATE_SOFTMAX, nn.GATE_SIGMOID):
    layer = nn.GatedConvLayer(np.random.default_rng(1), f"demo_{gate}", 4, 8, 65, gate)
    out = layer(x)
    bound = 8 if gate == nn.GATE_SOFTMAX else 1
    print(f"{gate:16s}: out {out.data.shape}, max |out| = {np.max(np.abs(out.data)):.4f} "
          f"(<= {bound})")

# softmax gating couples the channels: each time step's gate sums to the
# channel count (8 here), so the gate's mean gain is 1
layer = nn.GatedConvLayer(np.random.default_rng(1), "demo", 4, 8, 65, nn.GATE_SOFTMAX)
from abas import autodiff as ad

gates = ad.scale_(ad.channel_softmax(layer.gate(x)), 8)
print(f"gate column sums: {np.round(gates.data.sum(axis=0)[:5], 6)} ...")

# -- spectral normalization ------------------------------------------------------
w = rng.normal(size=(16, 8, 9))
mat = matricize(w, False)
true_top = np.linalg.svd(mat, compute_uv=False)[0]
state = nn.SpectralNormState(rng, 16, np.float64)
print(f"\ntrue top singular value: {true_top:.6f}")
print("power-iteration estimate per round:")
rounds = 0
for it in (1, 2, 5, 10, 25, 50):
    while rounds < it:
        state.advance(mat)
        rounds += 1
    sigma = nn.estimate_sigma(mat, state)[0]
    print(f"  after {it:3d}: {sigma:.6f} (rel err {abs(sigma - true_top) / true_top:.2e})")

view = nn.spectral_normalize(Parameter("w", w), state)
top_after = np.linalg.svd(matricize(view.data, False), compute_uv=False)[0]
print(f"top singular value after normalization: {top_after:.6f}")

# -- Xavier init ------------------------------------------------------------------
vals = nn.xavier_init(np.random.default_rng(7), (64, 32, 64), 32 * 64, 64 * 64, np.float32)
limit = np.sqrt(6.0 / (32 * 64 + 64 * 64))
print(f"\nxavier draw: bound {limit:.5f}, observed max |w| {np.max(np.abs(vals)):.5f}")
