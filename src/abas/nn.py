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


def xavier_init(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype=np.float32):
    """Uniform Xavier/Glorot draw on [-L, L], L = sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class SpectralNormState:
    """Left singular-vector estimate for one weight matrix."""

    def __init__(self, rng: np.random.Generator, out_dim: int, dtype=np.float32):
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
    gradients flow through the division itself.
    """
    w = weight.data
    sigma, v = estimate_sigma(matricize(w, transpose_in_out), state)
    sigma = max(sigma, SIGMA_FLOOR)
    w_norm = np.multiply(w, w.dtype.type(1.0 / sigma), out=ad.pool.take(w.shape, w.dtype))
    if tape is None:
        return Tensor(w_norm)
    leaf_id = tape.leaf(weight).node_id
    u = state.u.copy()

    def bwd(g):
        # d(W / sigma) with sigma = u'Wv and u, v held constant
        gd = np.asarray(g)
        coef = float(np.vdot(gd, w_norm)) / sigma
        gw = np.multiply(gd, gd.dtype.type(1.0 / sigma), out=ad.pool.take(w.shape, gd.dtype))
        rank1 = ad.pool.take((u.size, v.size), gd.dtype)
        np.multiply((coef * u)[:, None], v[None, :], out=rank1)
        rank1 = rank1.reshape(u.size, -1, w.shape[2])
        if transpose_in_out:
            rank1 = rank1.transpose(1, 0, 2)
        gw -= rank1
        return [(leaf_id, gw)]

    return tape.record("spectral_normalize", w_norm, bwd)


def _weight_view(layer, tape: ad.Tape | None, transpose_in_out: bool = False):
    """A conv layer's weight, spectral-normalized when the layer carries SN state."""
    if layer.sn is None:
        return layer.weight
    return spectral_normalize(layer.weight, layer.sn, tape, transpose_in_out)


class Conv1d:
    """Conv layer with optional activation and spectral normalization."""

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
        spectral_norm: bool = True,
        dtype=np.float32,
    ):
        self.name = name
        self.stride = stride
        self.pad = pad
        self.pad_mode = pad_mode
        self.weight = Parameter(
            f"{name}.weight", xavier_init(rng, (c_out, c_in, k), c_in * k, c_out * k, dtype)
        )
        self.bias = Parameter(f"{name}.bias", np.zeros(c_out, dtype=dtype))
        self.sn = SpectralNormState(rng, c_out, dtype) if spectral_norm else None

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv1d(x, _weight_view(self, x.tape), self.bias, self.stride, self.pad,
                         self.pad_mode)

    def parameters(self):
        return [self.weight, self.bias]

    def sn_entries(self):
        return [(self.weight.name, self.sn, False)] if self.sn is not None else []


class TConv1d:
    """Transposed-conv layer; weight shaped (in_channels, out_channels, k)."""

    def __init__(
        self,
        rng: np.random.Generator,
        name: str,
        c_in: int,
        c_out: int,
        k: int,
        stride: int = 2,
        crop: tuple[int, int] = (0, 0),
        spectral_norm: bool = True,
        dtype=np.float32,
    ):
        self.name = name
        self.stride = stride
        self.crop = crop
        self.weight = Parameter(
            f"{name}.weight", xavier_init(rng, (c_in, c_out, k), c_in * k, c_out * k, dtype)
        )
        self.bias = Parameter(f"{name}.bias", np.zeros(c_out, dtype=dtype))
        self.sn = SpectralNormState(rng, c_out, dtype) if spectral_norm else None

    def __call__(self, x: Tensor) -> Tensor:
        w = _weight_view(self, x.tape, transpose_in_out=True)
        return ad.tconv1d(x, w, self.bias, self.stride, self.crop)

    def parameters(self):
        return [self.weight, self.bias]

    def sn_entries(self):
        return [(self.weight.name, self.sn, True)] if self.sn is not None else []


class GatedConvLayer:
    """Filter/gate conv pair: tanh(filter) elementwise-times gate.

    The gate is a channel softmax or an elementwise sigmoid; kernel width and
    reflect padding are chosen to preserve length, so the output magnitude is
    bounded by 1 either way.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        name: str,
        c_in: int,
        c_out: int,
        k: int,
        gate_kind: str = GATE_SOFTMAX,
        spectral_norm: bool = True,
        dtype=np.float32,
    ):
        if gate_kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {gate_kind!r}")
        if k % 2 == 0:
            raise ValueError("gated conv kernel width must be odd to preserve length")
        self.gate_kind = gate_kind
        pad = (k // 2, k // 2)
        self.filter = Conv1d(
            rng, f"{name}.filter", c_in, c_out, k, 1, pad, "reflect", spectral_norm, dtype
        )
        self.gate = Conv1d(
            rng, f"{name}.gate", c_in, c_out, k, 1, pad, "reflect", spectral_norm, dtype
        )

    def __call__(self, x: Tensor) -> Tensor:
        # fused kernel: shared pad + im2col + stacked GEMM for both paths;
        # bit-identical to tanh(self.filter(x)) * gate(self.gate(x))
        return ad.gated_conv_pair(
            x, _weight_view(self.filter, x.tape), self.filter.bias,
            _weight_view(self.gate, x.tape), self.gate.bias, self.filter.pad[0], self.gate_kind,
        )

    def parameters(self):
        return self.filter.parameters() + self.gate.parameters()

    def sn_entries(self):
        return self.filter.sn_entries() + self.gate.sn_entries()
