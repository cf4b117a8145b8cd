"""Layer building blocks: gated convolutions, spectral normalization, init.

Layers own their Parameters (plus spectral-norm power-iteration state) and are
callable on Tensors. Power iteration never advances inside a forward pass;
the trainer calls ``advance_spectral_norm`` explicitly once per update phase
so that every forward within a phase sees the same normalization.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor

GATE_SOFTMAX = "softmax_channel"
GATE_SIGMOID = "sigmoid"
GATE_KINDS = (GATE_SOFTMAX, GATE_SIGMOID)

SIGMA_FLOOR = 1e-12
PRELU_INIT = 0.25


def xavier_init(rng: np.random.Generator | None, shape, fan_in: int, fan_out: int,
                dtype=np.float32):
    """Uniform Xavier/Glorot draw on [-L, L], L = sqrt(6 / (fan_in + fan_out));
    zeros without an rng, for a weight that a restore overwrites."""
    if rng is None:
        return np.zeros(shape, dtype)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class SpectralNormState:
    """Left singular-vector estimate for one weight matrix; a random unit
    vector, or zeros without an rng, for a state that a restore overwrites."""

    def __init__(self, rng: np.random.Generator | None, out_dim: int, dtype=np.float32):
        if rng is None:
            self.u = np.zeros(out_dim, dtype)
            return
        u = rng.standard_normal(out_dim)
        self.u = (u / np.linalg.norm(u)).astype(dtype)

    def advance(self, w_mat: np.ndarray):
        """One power iteration: v from u, then u from v."""
        v = w_mat.T @ self.u
        v /= max(np.linalg.norm(v), SIGMA_FLOOR)
        u = w_mat @ v
        self.u = u / max(np.linalg.norm(u), SIGMA_FLOOR)


def matricize(w: np.ndarray, transpose_in_out: bool) -> np.ndarray:
    """Weight as the (out, in * k) matrix spectral normalization acts on."""
    w_op = w.transpose(1, 0, 2) if transpose_in_out else w
    return w_op.reshape(w_op.shape[0], -1)


def estimate_sigma(w_mat: np.ndarray, state: SpectralNormState) -> tuple[float, np.ndarray]:
    """Current top-singular-value estimate u'Wv and the v it used."""
    v = w_mat.T @ state.u
    v /= max(np.linalg.norm(v), SIGMA_FLOOR)
    sigma = float(state.u @ (w_mat @ v))
    return sigma, v


def spectral_normalize(
    weight: Parameter,
    state: SpectralNormState,
    tape: ad.Tape | None = None,
    transpose_in_out: bool = False,
) -> Tensor:
    """Weight view divided by its estimated top singular value.

    The weight is matricized to (out_channels, in_channels * kernel_width);
    transposed-conv weights (in, out, k) set ``transpose_in_out`` so rows are
    still the operator's output side. u and v are treated as constants, but
    gradients flow through the division itself. Without a tape, or on a tape
    that holds the weight constant, the result is a tape-less Tensor and
    records nothing.
    """
    w = weight.data
    sigma, v = estimate_sigma(matricize(w, transpose_in_out), state)
    sigma = max(sigma, SIGMA_FLOOR)
    w_norm = w * w.dtype.type(1.0 / sigma)
    if tape is None or tape.holds_constant(weight):
        return Tensor(w_norm)
    leaf_id = tape.leaf(weight).node_id
    u = state.u.copy()

    def bwd(g):
        # d(W / sigma) with sigma = u'Wv and u, v held constant
        gd = np.asarray(g)
        coef = float(np.vdot(gd, w_norm)) / sigma
        gw = gd * gd.dtype.type(1.0 / sigma)
        rank1 = np.outer(coef * u, v).reshape(u.size, -1, w.shape[2])
        if transpose_in_out:
            rank1 = rank1.transpose(1, 0, 2)
        gw -= rank1
        return [(leaf_id, gw)]

    return tape.record("spectral_normalize", w_norm, bwd)


class _NormedConv:
    """Xavier-initialized weight, zero bias and the weight's power-iteration state;
    every call sees the weight through ``spectral_normalize``."""

    transpose_in_out = False  # True where the weight is (in, out, k)

    def __init__(self, rng: np.random.Generator, name: str, c_in: int, c_out: int, k: int, dtype):
        self.name = name
        shape = (c_in, c_out, k) if self.transpose_in_out else (c_out, c_in, k)
        self.weight = Parameter(f"{name}.weight", xavier_init(rng, shape, c_in * k, c_out * k, dtype))
        self.bias = Parameter(f"{name}.bias", np.zeros(c_out, dtype=dtype))
        self.sn = SpectralNormState(rng, c_out, dtype)

    def normalized_weight(self, tape: ad.Tape | None) -> Tensor:
        return spectral_normalize(self.weight, self.sn, tape, self.transpose_in_out)

    def advance_spectral_norm(self):
        self.sn.advance(matricize(self.weight.data, self.transpose_in_out))

    def parameters(self):
        return [self.weight, self.bias]


class Conv1d(_NormedConv):
    """Spectrally normalized conv layer; weight shaped (out_channels, in_channels, k)."""

    def __init__(
        self,
        rng: np.random.Generator,
        name: str,
        c_in: int,
        c_out: int,
        k: int,
        stride: int = 1,
        pad: tuple[int, int] = (0, 0),
        pad_mode: str = "zero",
        dtype=np.float32,
    ):
        super().__init__(rng, name, c_in, c_out, k, dtype)
        self.stride = stride
        self.pad = pad
        self.pad_mode = pad_mode

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv1d(x, self.normalized_weight(x.tape), self.bias, self.stride, self.pad,
                         self.pad_mode)


class TConv1d(_NormedConv):
    """Spectrally normalized transposed-conv layer; weight shaped (in_channels, out_channels, k)."""

    transpose_in_out = True

    def __init__(
        self,
        rng: np.random.Generator,
        name: str,
        c_in: int,
        c_out: int,
        k: int,
        stride: int = 2,
        crop: tuple[int, int] = (0, 0),
        dtype=np.float32,
    ):
        super().__init__(rng, name, c_in, c_out, k, dtype)
        self.stride = stride
        self.crop = crop

    def __call__(self, x: Tensor) -> Tensor:
        return ad.tconv1d(x, self.normalized_weight(x.tape), self.bias, self.stride, self.crop)


class GatedConvLayer:
    """Filter/gate conv pair: tanh(filter) elementwise-times gate.

    The gate is a unit-gain channel softmax, ``c_out * softmax`` over channels
    (each column sums to ``c_out``, mean 1), or an elementwise sigmoid. Kernel
    width and reflect padding are chosen to preserve length. The output
    magnitude is bounded by ``c_out`` with the softmax gate and by 1 with the
    sigmoid gate.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        name: str,
        c_in: int,
        c_out: int,
        k: int,
        gate_kind: str = GATE_SOFTMAX,
        dtype=np.float32,
    ):
        if gate_kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {gate_kind!r}")
        if k % 2 == 0:
            raise ValueError("gated conv kernel width must be odd to preserve length")
        self.gate_kind = gate_kind
        pad = (k // 2, k // 2)
        self.filter = Conv1d(rng, f"{name}.filter", c_in, c_out, k, 1, pad, "reflect", dtype)
        self.gate = Conv1d(rng, f"{name}.gate", c_in, c_out, k, 1, pad, "reflect", dtype)

    def __call__(self, x: Tensor) -> Tensor:
        # fused kernel: shared pad + im2col + stacked GEMM for both paths;
        # bit-identical to tanh(self.filter(x)) * gate(self.gate(x))
        return ad.gated_conv_pair(
            x, self.filter.normalized_weight(x.tape), self.filter.bias,
            self.gate.normalized_weight(x.tape), self.gate.bias, self.filter.pad[0], self.gate_kind,
        )

    def parameters(self):
        return self.filter.parameters() + self.gate.parameters()
