"""Reverse-mode differentiation over (channels x length) arrays.

Define-by-run: every operation appends a record to the Tape that produced its
inputs, so the record list is already in topological order and the backward
pass is a single reverse sweep. Tensors are 2-D (channels x length) signal
maps; Parameters may hold any shape (conv weights are 3-D, biases 1-D).

Running ops on tape-less Tensors (``Tensor(data)``) skips recording entirely,
which is the inference / frozen-forward mode. Non-finite values are located
after the fact: ``Tape.first_nonfinite`` names the earliest op that made one.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


# perfbench/runner.py calls pool.clear() between repetitions. The engine keeps
# no array cache, so the call does nothing; drop this once the benchmark does.
pool = SimpleNamespace(clear=lambda: None)


class Parameter:
    """Named weight array with a gradient accumulator of identical shape."""

    def __init__(self, name: str, data):
        self.name = name
        self.data = np.asarray(data)
        self.grad = np.zeros_like(self.data)

    def zero_grad(self):
        self.grad[...] = 0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class Tensor:
    """Array plus an optional handle onto the tape that produced it."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data, tape: "Tape | None" = None, node_id: int = -1):
        arr = np.asarray(data)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr[None, :]
        self.data = arr
        self.tape = tape
        self.node_id = node_id

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def length(self) -> int:
        return self.data.shape[-1]

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, node={self.node_id})"


class Tape:
    """Ordered op record for one forward pass plus gradient storage.

    ``backward`` walks the records in exact reverse order, accumulates node
    gradients, and finally adds leaf-parameter gradients into their
    ``Parameter.grad`` accumulators (+=, so repeated backward calls double).
    """

    def __init__(self):
        self._records: list[tuple[str, int, np.ndarray, Callable]] = []
        self._leaf_params: dict[int, Parameter] = {}
        self._param_cache: dict[int, int] = {}
        self._n_nodes = 0
        self.grads: dict[int, np.ndarray] = {}

    def _new_node(self, data) -> Tensor:
        t = Tensor(data, self, self._n_nodes)
        self._n_nodes += 1
        return t

    def tensor(self, data) -> Tensor:
        """Register an input leaf; its gradient is readable after backward."""
        return self._new_node(data)

    def leaf(self, param: Parameter) -> Tensor:
        """Tape node for a Parameter, cached so repeated use shares one node."""
        nid = self._param_cache.get(id(param))
        if nid is None:
            t = self._new_node(param.data)
            self._param_cache[id(param)] = t.node_id
            self._leaf_params[t.node_id] = param
            return t
        return Tensor(param.data, self, nid)

    def record(self, name: str, out_data, backward_fn: Callable) -> Tensor:
        """Append an op: backward_fn(grad_out) yields (node_id, grad) pairs."""
        t = self._new_node(out_data)
        self._records.append((name, t.node_id, t.data, backward_fn))
        return t

    def backward(self, loss: Tensor):
        if loss.tape is not self:
            raise ValueError("loss does not belong to this tape")
        if loss.data.shape != (1, 1):
            raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
        if not self._records:
            raise ValueError("backward on an empty tape")
        grads: dict[int, np.ndarray] = {
            loss.node_id: np.ones((1, 1), dtype=loss.data.dtype)
        }
        for _name, out_id, _out, fn in reversed(self._records):
            g = grads.pop(out_id, None)
            if g is None:
                continue
            for nid, ga in fn(g):
                cur = grads.get(nid)
                grads[nid] = ga if cur is None else cur + ga
        for nid, p in self._leaf_params.items():
            if nid in grads:
                p.grad += grads[nid].reshape(p.data.shape)
        self.grads = grads

    def grad_of(self, t: Tensor) -> np.ndarray | None:
        """Gradient of the last backward pass w.r.t. an input leaf."""
        return self.grads.get(t.node_id)

    def first_nonfinite(self) -> str | None:
        """Name of the earliest op whose recorded output is non-finite."""
        for name, out_id, out, _fn in self._records:
            if not np.all(np.isfinite(out)):
                return f"{name}#{out_id}"
        return None


def _lift(tape: Tape | None, w) -> tuple[int, np.ndarray]:
    """Resolve a weight argument to (node id or -1, raw array)."""
    if isinstance(w, Tensor):
        if tape is not None and w.tape is not tape and w.tape is not None:
            raise ValueError("mixing tensors from different tapes")
        return (w.node_id if w.tape is not None else -1), w.data
    if isinstance(w, Parameter):
        if tape is None:
            return -1, w.data
        return tape.leaf(w).node_id, w.data
    return -1, np.asarray(w)


def _check_same(a: Tensor, b: Tensor) -> Tape | None:
    if a.data.shape != b.data.shape:
        raise ValueError(f"shape mismatch: {a.data.shape} vs {b.data.shape}")
    tape = a.tape if a.tape is not None else b.tape
    if a.tape is not None and b.tape is not None and a.tape is not b.tape:
        raise ValueError("mixing tensors from different tapes")
    return tape


def _emit(tape: Tape | None, name: str, out, bwd) -> Tensor:
    if tape is None:
        return Tensor(out)
    return tape.record(name, out, bwd)


# ---------------------------------------------------------------------------
# array kernels shared by the taped ops and the fused gated conv


def _reflect(xd: np.ndarray, left: int, right: int) -> np.ndarray:
    """(C, L) array mirror-padded without repeating the edge sample."""
    c, length = xd.shape
    if left < 0 or right < 0:
        raise ValueError("pad must be non-negative")
    if left >= length or right >= length:
        raise ValueError(f"pad ({left}, {right}) must be smaller than length {length}")
    y = np.empty((c, length + left + right), xd.dtype)
    y[:, left : left + length] = xd
    if left:
        y[:, :left] = xd[:, left:0:-1]
    if right:
        stop = length - 2 - right
        y[:, left + length :] = xd[:, length - 2 : (stop if stop >= 0 else None) : -1]
    return y


def _reflect_adjoint(g: np.ndarray, left: int, right: int, length: int) -> np.ndarray:
    """Adjoint of _reflect: fold the mirrored margins of g back onto the source."""
    gx = g[:, left : left + length].copy()
    if left:
        gx[:, 1 : left + 1] += g[:, left - 1 :: -1]
    if right:
        stop = length - 2 - right
        gx[:, length - 2 : (stop if stop >= 0 else None) : -1] += g[:, left + length :]
    return gx


def _softmax(a: np.ndarray) -> np.ndarray:
    """Columnwise softmax over channels, with max subtraction."""
    y = a - a.max(axis=0, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=0, keepdims=True)
    return y


def _softmax_vjp(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Input gradient of _softmax given its output y: y * (g - sum(g * y))."""
    return (g - (g * y).sum(axis=0, keepdims=True)) * y


def _sigmoid(a: np.ndarray) -> np.ndarray:
    """Logistic function without overflow for large |a|."""
    e = np.exp(-np.abs(a))
    return np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _sigmoid_vjp(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (g.dtype.type(1.0) - y) * y * g


def _tanh_vjp(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (g.dtype.type(1.0) - y * y) * g


# ---------------------------------------------------------------------------
# convolution kernels
#
# All heavy work routes through GEMMs. conv1d picks one of two lowerings from
# the shapes alone. In general it multiplies the weights with the (c_in*k, T)
# im2col matrix of the padded input, built IM2COL_BLOCK output columns at a
# time in one reused buffer, so the whole matrix (k times the input) never
# exists in the forward pass. The tape keeps the padded input instead:
# backward rebuilds the whole matrix for the weight-gradient GEMM and frees
# it before the input-gradient GEMM. A stride-1 conv that narrows
# (c_out < c_in) instead lowers on the output side: one GEMM gives every
# tap's contribution at every position, a (c_out*k, L) matrix, and a sum
# along its diagonals gives the output; its backward works on the im2col of
# the (c_out, T) output gradient. That keeps a 64 -> 1 channel conv from
# copying its input k times. Cross-correlation convention throughout: no
# kernel flip.

# Output columns per forward GEMM of the im2col lowering. The blocked product
# is bit-identical to the one-GEMM product only while OpenBLAS takes the same
# kernel path for every column: blocks start on multiples of this width (a
# multiple of the kernels' column grid, 8 or 16), and the last block also
# takes the remainder, so no block is narrower than the width unless the
# whole output is (a narrow call can fall to the small-matrix kernels, or at
# one column to gemv, which sum in another order).
IM2COL_BLOCK = 1024


def _im2col(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Contiguous (C*k, T) column matrix of all kernel-width windows of x (C, L)."""
    win = sliding_window_view(x, k, axis=1)
    if stride > 1:
        win = win[:, ::stride, :]
    c, t, _ = win.shape
    cols = np.empty((c * k, t), x.dtype)
    np.copyto(cols.reshape(c, k, t), win.transpose(0, 2, 1))
    return cols


def _fold(cols: np.ndarray, stride: int, out_len: int) -> np.ndarray:
    """Adjoint of _im2col: scatter-add cols[c, k, t] into out[c, t*stride + k].

    Each stride phase of out (every stride-th sample) is one contiguous row of
    an accumulator, and the taps are added in ascending order, so every output
    sums its terms in the order of a plain strided scatter-add."""
    C, K, T = cols.shape
    n = -(-out_len // stride)
    phases = np.zeros((C, stride, n), cols.dtype)
    for k in range(K):
        q, p = divmod(k, stride)
        phases[:, p, q : q + T] += cols[:, k, :]
    return phases.transpose(0, 2, 1).reshape(C, n * stride)[:, :out_len]


def _im2col_matmul(w_mat: np.ndarray, xp: np.ndarray, k: int, stride: int) -> np.ndarray:
    """w_mat @ _im2col(xp, k, stride), with the columns built IM2COL_BLOCK
    outputs at a time in one buffer that every block reuses."""
    c = xp.shape[0]
    t_out = (xp.shape[1] - k) // stride + 1
    n_blocks = max(1, t_out // IM2COL_BLOCK)  # the last block takes the remainder
    edges = [i * IM2COL_BLOCK for i in range(n_blocks)] + [t_out]
    buf = np.empty((c, k, t_out - edges[-2]), xp.dtype)
    cols = buf.reshape(c * k, -1)
    win = sliding_window_view(xp, k, axis=1)[:, ::stride]  # (c, t_out, k) view
    y = np.empty((w_mat.shape[0], t_out), np.result_type(w_mat, xp))
    for t0, t1 in zip(edges, edges[1:]):
        np.copyto(buf[:, :, : t1 - t0], win[:, t0:t1].transpose(0, 2, 1))
        np.matmul(w_mat, cols[:, : t1 - t0], out=y[:, t0:t1])
    return y


def _pad_zero(x: np.ndarray, left: int, right: int) -> np.ndarray:
    c, length = x.shape
    out = np.zeros((c, length + left + right), x.dtype)
    out[:, left : left + length] = x
    return out


def conv1d(
    x: Tensor,
    weight,
    bias=None,
    stride: int = 1,
    pad: tuple[int, int] = (0, 0),
    pad_mode: str = "zero",
) -> Tensor:
    """Strided 1-D cross-correlation with per-output-channel bias.

    weight is (out_channels, in_channels, k); output length is
    floor((length + pad_l + pad_r - k) / stride) + 1.

    The lowering follows from the shapes. With stride 1 and fewer output than
    input channels, the forward pass is one GEMM of the (c_out*k, c_in)
    weight taps with the padded input followed by a diagonal sum, and the
    gradients are GEMMs with the im2col of the zero-padded output gradient.
    Every other conv is one GEMM with the im2col matrix of the padded input.
    """
    if pad_mode not in ("zero", "reflect"):
        raise ValueError(f"unknown pad_mode {pad_mode!r}")
    if pad_mode == "reflect" and (pad[0] or pad[1]):
        x = reflect_pad(x, pad[0], pad[1])
        pad = (0, 0)
    tape = x.tape
    x_id = x.node_id
    w_id, w_data = _lift(tape, weight)
    b_id, b_data = _lift(tape, bias) if bias is not None else (-1, None)
    xd = x.data
    c_in, length = xd.shape
    c_out, w_cin, k = w_data.shape
    if w_cin != c_in:
        raise ValueError(f"channel mismatch: input has {c_in}, weight expects {w_cin}")
    pl, pr = pad
    lp = length + pl + pr
    if lp < k:
        raise ValueError(f"padded length {lp} < kernel width {k}")
    xp = _pad_zero(xd, pl, pr) if (pl or pr) else xd
    narrowing = stride == 1 and c_out < c_in
    if narrowing:
        # taps[o, j, s] = sum_c w[o, c, j] * xp[c, s]; y[o, t] = sum_j taps[o, j, t + j]
        t_out = lp - k + 1
        taps = np.matmul(w_data.transpose(0, 2, 1).reshape(c_out * k, c_in), xp)
        taps = taps.reshape(c_out, k, lp)
        y = taps[:, 0, :t_out].copy()
        for j in range(1, k):
            y += taps[:, j, j : j + t_out]
    else:
        w_mat = w_data.reshape(c_out, c_in * k)
        y = _im2col_matmul(w_mat, xp, k, stride)
    if b_data is not None:
        y += b_data.reshape(-1, 1)

    def bwd(g):
        out = []
        if narrowing:
            # gcols[o*k + m, s] = g[o, s + m - (k - 1)], zero outside g
            gcols = _im2col(_pad_zero(g, k - 1, k - 1), k, 1)
            if w_id >= 0:
                gw_rev = np.matmul(xp, gcols.T).reshape(c_in, c_out, k)
                out.append((w_id, gw_rev[:, :, ::-1].transpose(1, 0, 2).copy()))
            w_rev = w_data[:, :, ::-1].transpose(1, 0, 2).reshape(c_in, c_out * k)
            gx = np.matmul(w_rev, gcols)
        else:
            if w_id >= 0:
                gw = np.matmul(g, _im2col(xp, k, stride).T)
                out.append((w_id, gw.reshape(w_data.shape)))
            gcols = np.matmul(w_mat.T, g).reshape(c_in, k, g.shape[1])
            gx = _fold(gcols, stride, lp)
        if b_id >= 0:
            out.append((b_id, g.sum(axis=1)))
        if pl or pr:
            gx = gx[:, pl : lp - pr]
        out.append((x_id, gx))
        return out

    return _emit(tape, "conv1d", y, bwd)


def tconv1d(
    x: Tensor, weight, bias=None, stride: int = 1, crop: tuple[int, int] = (0, 0)
) -> Tensor:
    """1-D transposed convolution (adjoint of zero-padded conv1d).

    weight is (in_channels, out_channels, k); the raw output of length
    (length - 1) * stride + k loses ``crop`` samples from each side.
    """
    tape = x.tape
    x_id = x.node_id
    w_id, w_data = _lift(tape, weight)
    b_id, b_data = _lift(tape, bias) if bias is not None else (-1, None)
    xd = x.data
    c_in, length = xd.shape
    w_cin, c_out, k = w_data.shape
    if w_cin != c_in:
        raise ValueError(f"channel mismatch: input has {c_in}, weight expects {w_cin}")
    raw = (length - 1) * stride + k
    cl, cr = crop
    if cl < 0 or cr < 0 or cl + cr >= raw:
        raise ValueError(f"crop {crop} exceeds raw output length {raw}")
    w_mat = w_data.reshape(c_in, c_out * k)
    cols = np.matmul(w_mat.T, xd).reshape(c_out, k, length)
    y = _fold(cols, stride, raw)[:, cl : raw - cr]
    if b_data is not None:
        y += b_data.reshape(-1, 1)

    def bwd(g):
        g_raw = _pad_zero(g, cl, cr)
        gcols = _im2col(g_raw, k, stride)  # (c_out*k, length)
        out = []
        if w_id >= 0:
            out.append((w_id, np.matmul(xd, gcols.T).reshape(w_data.shape)))
        if b_id >= 0:
            out.append((b_id, g.sum(axis=1)))
        out.append((x_id, np.matmul(w_mat, gcols)))
        return out

    return _emit(tape, "tconv1d", y, bwd)


def gated_conv_pair(
    x: Tensor,
    w_filter,
    b_filter,
    w_gate,
    b_gate,
    pad: int,
    gate_kind: str = "softmax_channel",
) -> Tensor:
    """Fused length-preserving gated convolution: tanh(filter) * gate.

    The sigmoid gate is elementwise. The channel-softmax gate is unit-gain,
    ``c_out * softmax(gate)``, so each column sums to ``c_out`` and its mean
    is 1; an unscaled softmax would shrink the signal about ``c_out``-fold per
    layer, down to subnormal floats within a few layers.

    The filter and gate convolutions share one reflect pad and one blocked
    im2col product (see _im2col_matmul), with their weights stacked into one
    GEMM per block, which matters because gated layers dominate the
    generator's cost; backward rebuilds the im2col matrix only for the weight
    gradient. Produces the exact values of the equivalent op composition
    (GEMM rows are independent), with the softmax gate composed as
    ``scale_(channel_softmax(gate), c_out)``.
    """
    tape = x.tape
    x_id = x.node_id
    wf_id, wf = _lift(tape, w_filter)
    wg_id, wg = _lift(tape, w_gate)
    bf_id, bf = _lift(tape, b_filter) if b_filter is not None else (-1, None)
    bg_id, bg = _lift(tape, b_gate) if b_gate is not None else (-1, None)
    xd = x.data
    c_in, length = xd.shape
    c_out, w_cin, k = wf.shape
    if wf.shape != wg.shape:
        raise ValueError(f"filter/gate weight shapes differ: {wf.shape} vs {wg.shape}")
    if w_cin != c_in:
        raise ValueError(f"channel mismatch: input has {c_in}, weight expects {w_cin}")
    if 2 * pad + 1 != k:
        raise ValueError("gated conv pad must preserve length (k = 2*pad + 1)")
    if gate_kind not in ("softmax_channel", "sigmoid"):
        raise ValueError(f"unknown gate kind {gate_kind!r}")
    xp = _reflect(xd, pad, pad)
    ck = c_in * k
    w_stack = np.concatenate([wf.reshape(c_out, ck), wg.reshape(c_out, ck)])
    y_stack = _im2col_matmul(w_stack, xp, k, 1)
    yf, yg = y_stack[:c_out], y_stack[c_out:]
    if bf is not None:
        yf += bf.reshape(-1, 1)
    if bg is not None:
        yg += bg.reshape(-1, 1)

    softmax = gate_kind == "softmax_channel"
    f = np.tanh(yf)
    if softmax:
        gain = yg.dtype.type(c_out)
        probs = _softmax(yg)
        gate = probs * gain
    else:
        gate = _sigmoid(yg)
    y = f * gate

    def bwd(g):
        # through the product and the two activations
        d_yf = _tanh_vjp(g * gate, f)
        d_gate = g * f
        if softmax:
            d_gate *= gain
            d_yg = _softmax_vjp(d_gate, probs)
        else:
            d_yg = _sigmoid_vjp(d_gate, gate)
        d_stack = np.concatenate([d_yf, d_yg])
        out = []
        if wf_id >= 0 or wg_id >= 0:
            gw_stack = np.matmul(d_stack, _im2col(xp, k, 1).T)
            if wf_id >= 0:
                out.append((wf_id, gw_stack[:c_out].reshape(wf.shape)))
            if wg_id >= 0:
                out.append((wg_id, gw_stack[c_out:].reshape(wg.shape)))
        if bf_id >= 0:
            out.append((bf_id, d_yf.sum(axis=1)))
        if bg_id >= 0:
            out.append((bg_id, d_yg.sum(axis=1)))
        gcols = np.matmul(w_stack.T, d_stack).reshape(c_in, k, g.shape[1])
        gxp = _fold(gcols, 1, length + 2 * pad)
        out.append((x_id, _reflect_adjoint(gxp, pad, pad, length)))
        return out

    return _emit(tape, "gated_conv_pair", y, bwd)


def reflect_pad(x: Tensor, left: int, right: int) -> Tensor:
    """Mirror padding without repeating the edge sample."""
    length = x.length
    y = _reflect(x.data, left, right)
    x_id = x.node_id
    return _emit(
        x.tape, "reflect_pad", y, lambda g: [(x_id, _reflect_adjoint(g, left, right, length))]
    )


def channel_softmax(x: Tensor) -> Tensor:
    """Columnwise softmax over channels, computed with max subtraction."""
    y = _softmax(x.data)
    x_id = x.node_id
    return _emit(x.tape, "channel_softmax", y, lambda g: [(x_id, _softmax_vjp(g, y))])


# ---------------------------------------------------------------------------
# pointwise and reduction ops


def tanh_(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    x_id = x.node_id
    return _emit(x.tape, "tanh", y, lambda g: [(x_id, _tanh_vjp(g, y))])


def sigmoid_(x: Tensor) -> Tensor:
    y = _sigmoid(x.data)
    x_id = x.node_id
    return _emit(x.tape, "sigmoid", y, lambda g: [(x_id, _sigmoid_vjp(g, y))])


def _slope_mask(xd: np.ndarray, slope: float) -> np.ndarray:
    # dtype-preserving so float32 backward passes stay float32
    return np.where(xd > 0, xd.dtype.type(1.0), xd.dtype.type(slope))


def _leaky(xd: np.ndarray, slope: float) -> np.ndarray:
    """Bitwise ``np.where(xd > 0, xd, slope * xd)``, as one multiply by the slope mask."""
    return xd * _slope_mask(xd, slope)


def prelu_(x: Tensor, slope: Parameter) -> Tensor:
    """PReLU with a single learned slope for the whole layer."""
    tape = x.tape
    x_id = x.node_id
    s_id, s_data = _lift(tape, slope)
    s_shape = np.asarray(s_data).shape
    xd = x.data
    s = float(np.asarray(s_data).reshape(()))
    y = _leaky(xd, s)

    def bwd(g):
        out = [(x_id, g * _slope_mask(xd, s))]
        if s_id >= 0:
            gs = np.sum(g * xd * (xd <= 0))
            out.append((s_id, np.asarray(gs, dtype=g.dtype).reshape(s_shape)))
        return out

    return _emit(tape, "prelu", y, bwd)


def leaky_relu_(x: Tensor, slope: float = 0.2) -> Tensor:
    xd = x.data
    x_id = x.node_id
    y = _leaky(xd, slope)
    return _emit(x.tape, "leaky_relu", y, lambda g: [(x_id, g * _slope_mask(xd, slope))])


def relu_(x: Tensor) -> Tensor:
    xd = x.data
    x_id = x.node_id
    y = np.maximum(xd, 0)
    return _emit(x.tape, "relu", y, lambda g: [(x_id, g * (xd > 0))])


def mul_(a: Tensor, b: Tensor) -> Tensor:
    tape = _check_same(a, b)
    a_id, b_id, ad_, bd_ = a.node_id, b.node_id, a.data, b.data
    return _emit(tape, "mul", ad_ * bd_, lambda g: [(a_id, g * bd_), (b_id, g * ad_)])


def add_(a: Tensor, b: Tensor) -> Tensor:
    tape = _check_same(a, b)
    y = a.data + b.data
    a_id, b_id = a.node_id, b.node_id
    return _emit(tape, "add", y, lambda g: [(a_id, g), (b_id, g)])


def sub_(a: Tensor, b: Tensor) -> Tensor:
    tape = _check_same(a, b)
    y = a.data - b.data
    a_id, b_id = a.node_id, b.node_id
    return _emit(tape, "sub", y, lambda g: [(a_id, g), (b_id, -g)])


def concat_channels_(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[1] != b.data.shape[1]:
        raise ValueError(f"length mismatch: {a.data.shape[1]} vs {b.data.shape[1]}")
    tape = a.tape if a.tape is not None else b.tape
    if a.tape is not None and b.tape is not None and a.tape is not b.tape:
        raise ValueError("mixing tensors from different tapes")
    ca = a.data.shape[0]
    y = np.concatenate([a.data, b.data])
    a_id, b_id = a.node_id, b.node_id
    return _emit(
        tape, "concat_channels", y,
        lambda g: [(a_id, g[:ca]), (b_id, g[ca:])],
    )


def scale_(x: Tensor, c: float) -> Tensor:
    c = float(c)
    y = x.data * x.data.dtype.type(c)
    x_id = x.node_id
    return _emit(x.tape, "scale", y, lambda g: [(x_id, g * c)])


def shift_(x: Tensor, c: float) -> Tensor:
    c = float(c)
    x_id = x.node_id
    return _emit(x.tape, "shift", x.data + c, lambda g: [(x_id, g)])


def abs_mean_(x: Tensor) -> Tensor:
    """Mean absolute value as a (1, 1) scalar tensor."""
    xd = x.data
    x_id = x.node_id
    y = np.array([[np.mean(np.abs(xd))]], dtype=xd.dtype)
    return _emit(
        x.tape, "abs_mean", y,
        lambda g: [(x_id, (g.reshape(())[()] / xd.size) * np.sign(xd))],
    )


def mean_(x: Tensor) -> Tensor:
    """Plain mean as a (1, 1) scalar tensor."""
    xd = x.data
    x_id = x.node_id
    y = np.array([[np.mean(xd)]], dtype=xd.dtype)
    return _emit(
        x.tape, "mean", y,
        lambda g: [(x_id, np.full(xd.shape, g.reshape(())[()] / xd.size, dtype=xd.dtype))],
    )


# ---------------------------------------------------------------------------
# verification


def grad_check(
    build_loss: Callable[[], tuple[Tape, Tensor]],
    params: Iterable[Parameter],
    epsilon: float = 1e-5,
    coords_per_param: int = 4,
    seed: int = 0,
) -> float:
    """Max relative error between analytic gradients and central differences.

    ``build_loss`` must rebuild the forward pass from scratch (fresh tape) and
    return (tape, scalar loss); any randomness must be frozen inside the
    closure. Parameters and inputs should be float64 for the documented
    tolerances to be meaningful. Per coordinate the step is
    epsilon * max(1, |theta|); the error is |a - n| / max(1, |a|, |n|).
    """
    params = list(params)
    rng = np.random.default_rng(seed)
    for p in params:
        p.zero_grad()
    tape, loss = build_loss()
    tape.backward(loss)
    analytic = {id(p): p.grad.copy() for p in params}
    max_rel = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        n = min(coords_per_param, flat.size)
        idxs = rng.choice(flat.size, size=n, replace=False)
        for i in idxs:
            theta = float(flat[i])
            eps = epsilon * max(1.0, abs(theta))
            flat[i] = theta + eps
            f_plus = build_loss()[1].item()
            flat[i] = theta - eps
            f_minus = build_loss()[1].item()
            flat[i] = theta
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(analytic[id(p)].reshape(-1)[i])
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            max_rel = max(max_rel, rel)
    return max_rel
