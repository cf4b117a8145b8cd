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

import sys
from typing import Callable, Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

class _ArrayPool:
    """Recycles fixed-shape scratch arrays across forward/backward passes.

    Freshly faulted pages are expensive in sandboxed environments, and a
    training step churns through hundreds of megabytes of short-lived arrays
    of a small set of shapes. The pool keeps strong references to every array
    it hands out; an entry is reusable exactly when the pool holds the only
    reference (refcount check), so no explicit release step exists and views
    held elsewhere keep a buffer safely out of circulation.

    Single-threaded by design, matching the one-tape-per-worker model.
    """

    MAX_PER_KEY = 64
    MAX_BYTES = 3 << 29

    def __init__(self):
        self._store: dict[tuple, list[np.ndarray]] = {}
        self._bytes = 0

    def take(self, shape: tuple, dtype) -> np.ndarray:
        """Uninitialized array of the given shape; contents are arbitrary."""
        key = (shape, np.dtype(dtype).str)
        entries = self._store.get(key)
        if entries is not None:
            for arr in entries:
                # 3 = pool list + local `arr` + getrefcount argument
                if sys.getrefcount(arr) == 3:
                    return arr
        arr = np.empty(shape, dtype=dtype)
        if self._bytes + arr.nbytes <= self.MAX_BYTES:
            bucket = self._store.setdefault(key, [])
            if len(bucket) < self.MAX_PER_KEY:
                bucket.append(arr)
                self._bytes += arr.nbytes
        return arr

    def zeros(self, shape: tuple, dtype) -> np.ndarray:
        arr = self.take(shape, dtype)
        arr[...] = 0
        return arr

    def clear(self):
        self._store.clear()
        self._bytes = 0


pool = _ArrayPool()


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
    y = pool.take((c, length + left + right), xd.dtype)
    y[:, left : left + length] = xd
    if left:
        y[:, :left] = xd[:, left:0:-1]
    if right:
        stop = length - 2 - right
        y[:, left + length :] = xd[:, length - 2 : (stop if stop >= 0 else None) : -1]
    return y


def _reflect_adjoint(g: np.ndarray, left: int, right: int, length: int) -> np.ndarray:
    """Adjoint of _reflect: fold the mirrored margins of g back onto the source."""
    gx = pool.take((g.shape[0], length), g.dtype)
    np.copyto(gx, g[:, left : left + length])
    if left:
        gx[:, 1 : left + 1] += g[:, left - 1 :: -1]
    if right:
        stop = length - 2 - right
        gx[:, length - 2 : (stop if stop >= 0 else None) : -1] += g[:, left + length :]
    return gx


def _softmax(a: np.ndarray) -> np.ndarray:
    """Columnwise softmax over channels, with max subtraction."""
    y = pool.take(a.shape, a.dtype)
    np.subtract(a, a.max(axis=0, keepdims=True), out=y)
    np.exp(y, out=y)
    y /= y.sum(axis=0, keepdims=True)
    return y


def _softmax_vjp(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Input gradient of _softmax given its output y: y * (g - sum(g * y))."""
    gx = pool.take(g.shape, g.dtype)
    np.multiply(g, y, out=gx)
    dot = gx.sum(axis=0, keepdims=True)
    np.subtract(g, dot, out=gx)
    gx *= y
    return gx


def _sigmoid(a: np.ndarray) -> np.ndarray:
    """Logistic function without overflow for large |a|."""
    e = np.exp(-np.abs(a))
    return np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _sigmoid_vjp(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    gx = pool.take(g.shape, g.dtype)
    np.subtract(g.dtype.type(1.0), y, out=gx)
    gx *= y
    gx *= g
    return gx


def _tanh_vjp(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    gx = pool.take(g.shape, g.dtype)
    np.multiply(y, y, out=gx)
    np.subtract(g.dtype.type(1.0), gx, out=gx)
    gx *= g
    return gx


# ---------------------------------------------------------------------------
# convolution kernels
#
# All heavy work routes through GEMMs on an explicit im2col matrix, which is
# materialized once per op and shared between the forward pass and both weight
# and input gradients. Cross-correlation convention throughout: no kernel flip.


def _im2col(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Contiguous (C*k, T) column matrix of all kernel-width windows of x (C, L)."""
    win = sliding_window_view(x, k, axis=1)
    if stride > 1:
        win = win[:, ::stride, :]
    c, t, _ = win.shape
    cols = pool.take((c * k, t), x.dtype)
    np.copyto(cols.reshape(c, k, t), win.transpose(0, 2, 1))
    return cols


def _fold(cols: np.ndarray, stride: int, out_len: int) -> np.ndarray:
    """Adjoint of _im2col: scatter-add cols[c, k, t] into out[c, t*stride + k]."""
    C, K, T = cols.shape
    out = pool.zeros((C, out_len), cols.dtype)
    span = (T - 1) * stride + 1
    for k in range(K):
        out[:, k : k + span : stride] += cols[:, k, :]
    return out


def _pad_zero(x: np.ndarray, left: int, right: int) -> np.ndarray:
    c, length = x.shape
    out = pool.take((c, length + left + right), x.dtype)
    if left:
        out[:, :left] = 0
    if right:
        out[:, left + length :] = 0
    out[:, left : left + length] = x
    return out


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = pool.take((a.shape[0], b.shape[1]), np.result_type(a, b))
    return np.matmul(a, b, out=out)


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
    cols = _im2col(xp, k, stride)
    w_mat = w_data.reshape(c_out, c_in * k)
    y = _matmul(w_mat, cols)
    if b_data is not None:
        y += b_data.reshape(-1, 1)

    def bwd(g):
        out = []
        if w_id >= 0:
            out.append((w_id, _matmul(g, cols.T).reshape(w_data.shape)))
        if b_id >= 0:
            out.append((b_id, g.sum(axis=1)))
        gcols = _matmul(w_mat.T, g).reshape(c_in, k, g.shape[1])
        gx = _fold(gcols, stride, lp)
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
    cols = _matmul(w_mat.T, xd).reshape(c_out, k, length)
    y = _fold(cols, stride, raw)[:, cl : raw - cr]
    if b_data is not None:
        y += b_data.reshape(-1, 1)

    def bwd(g):
        g_raw = _pad_zero(g, cl, cr)
        gcols = _im2col(g_raw, k, stride)  # (c_out*k, length)
        out = []
        if w_id >= 0:
            out.append((w_id, _matmul(xd, gcols.T).reshape(w_data.shape)))
        if b_id >= 0:
            out.append((b_id, g.sum(axis=1)))
        out.append((x_id, _matmul(w_mat, gcols)))
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

    The filter and gate convolutions share one reflect pad and one im2col, and
    their weights are stacked into a single GEMM, which matters because gated
    layers dominate the generator's cost. Produces the exact values of the
    equivalent op composition (GEMM rows are independent).
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
    cols = _im2col(_reflect(xd, pad, pad), k, 1)

    ck = c_in * k
    w_stack = pool.take((2 * c_out, ck), wf.dtype)
    w_stack[:c_out] = wf.reshape(c_out, ck)
    w_stack[c_out:] = wg.reshape(c_out, ck)
    y_stack = _matmul(w_stack, cols)
    yf, yg = y_stack[:c_out], y_stack[c_out:]
    if bf is not None:
        yf += bf.reshape(-1, 1)
    if bg is not None:
        yg += bg.reshape(-1, 1)

    softmax = gate_kind == "softmax_channel"
    f = np.tanh(yf, out=pool.take(yf.shape, yf.dtype))
    gate = _softmax(yg) if softmax else _sigmoid(yg)
    y = np.multiply(f, gate, out=pool.take(f.shape, f.dtype))

    def bwd(g):
        # through the product and the two activations
        d_yf = _tanh_vjp(np.multiply(g, gate, out=pool.take(g.shape, g.dtype)), f)
        d_gate = np.multiply(g, f, out=pool.take(g.shape, g.dtype))
        d_yg = _softmax_vjp(d_gate, gate) if softmax else _sigmoid_vjp(d_gate, gate)
        d_stack = pool.take((2 * c_out, g.shape[1]), g.dtype)
        d_stack[:c_out] = d_yf
        d_stack[c_out:] = d_yg
        out = []
        if wf_id >= 0 or wg_id >= 0:
            gw_stack = _matmul(d_stack, cols.T)
            if wf_id >= 0:
                out.append((wf_id, gw_stack[:c_out].reshape(wf.shape)))
            if wg_id >= 0:
                out.append((wg_id, gw_stack[c_out:].reshape(wg.shape)))
        if bf_id >= 0:
            out.append((bf_id, d_yf.sum(axis=1)))
        if bg_id >= 0:
            out.append((bg_id, d_yg.sum(axis=1)))
        gcols = _matmul(w_stack.T, d_stack).reshape(c_in, k, g.shape[1])
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
    y = np.tanh(x.data, out=pool.take(x.data.shape, x.data.dtype))
    x_id = x.node_id
    return _emit(x.tape, "tanh", y, lambda g: [(x_id, _tanh_vjp(g, y))])


def sigmoid_(x: Tensor) -> Tensor:
    y = _sigmoid(x.data)
    x_id = x.node_id
    return _emit(x.tape, "sigmoid", y, lambda g: [(x_id, _sigmoid_vjp(g, y))])


def _slope_mask(xd: np.ndarray, slope: float) -> np.ndarray:
    # dtype-preserving so float32 backward passes stay float32
    return np.where(xd > 0, xd.dtype.type(1.0), xd.dtype.type(slope))


def prelu_(x: Tensor, slope: Parameter) -> Tensor:
    """PReLU with a single learned slope for the whole layer."""
    tape = x.tape
    x_id = x.node_id
    s_id, s_data = _lift(tape, slope)
    s_shape = np.asarray(s_data).shape
    xd = x.data
    s = float(np.asarray(s_data).reshape(()))
    y = np.where(xd > 0, xd, s * xd)

    def bwd(g):
        gx = pool.take(xd.shape, g.dtype)
        np.multiply(g, _slope_mask(xd, s), out=gx)
        out = [(x_id, gx)]
        if s_id >= 0:
            gs = np.sum(g * xd * (xd <= 0))
            out.append((s_id, np.asarray(gs, dtype=g.dtype).reshape(s_shape)))
        return out

    return _emit(tape, "prelu", y, bwd)


def leaky_relu_(x: Tensor, slope: float = 0.2) -> Tensor:
    xd = x.data
    y = np.where(xd > 0, xd, slope * xd)

    x_id = x.node_id

    def bwd(g):
        gx = pool.take(xd.shape, g.dtype)
        np.multiply(g, _slope_mask(xd, slope), out=gx)
        return [(x_id, gx)]

    return _emit(x.tape, "leaky_relu", y, bwd)


def relu_(x: Tensor) -> Tensor:
    xd = x.data
    x_id = x.node_id
    return _emit(x.tape, "relu", np.maximum(xd, 0), lambda g: [(x_id, g * (xd > 0))])


def mul_(a: Tensor, b: Tensor) -> Tensor:
    tape = _check_same(a, b)
    y = np.multiply(a.data, b.data, out=pool.take(a.data.shape, np.result_type(a.data, b.data)))

    a_id, b_id, ad_, bd_ = a.node_id, b.node_id, a.data, b.data

    def bwd(g):
        ga = np.multiply(g, bd_, out=pool.take(g.shape, g.dtype))
        gb = np.multiply(g, ad_, out=pool.take(g.shape, g.dtype))
        return [(a_id, ga), (b_id, gb)]

    return _emit(tape, "mul", y, bwd)


def add_(a: Tensor, b: Tensor) -> Tensor:
    tape = _check_same(a, b)
    y = np.add(a.data, b.data, out=pool.take(a.data.shape, np.result_type(a.data, b.data)))
    a_id, b_id = a.node_id, b.node_id
    return _emit(tape, "add", y, lambda g: [(a_id, g), (b_id, g)])


def sub_(a: Tensor, b: Tensor) -> Tensor:
    tape = _check_same(a, b)
    y = np.subtract(a.data, b.data, out=pool.take(a.data.shape, np.result_type(a.data, b.data)))
    a_id, b_id = a.node_id, b.node_id
    return _emit(tape, "sub", y, lambda g: [(a_id, g), (b_id, -g)])


def concat_channels_(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[1] != b.data.shape[1]:
        raise ValueError(f"length mismatch: {a.data.shape[1]} vs {b.data.shape[1]}")
    tape = a.tape if a.tape is not None else b.tape
    if a.tape is not None and b.tape is not None and a.tape is not b.tape:
        raise ValueError("mixing tensors from different tapes")
    ca = a.data.shape[0]
    y = pool.take((a.data.shape[0] + b.data.shape[0], a.data.shape[1]),
                  np.result_type(a.data, b.data))
    y[:ca] = a.data
    y[ca:] = b.data
    a_id, b_id = a.node_id, b.node_id
    return _emit(
        tape, "concat_channels", y,
        lambda g: [(a_id, g[:ca]), (b_id, g[ca:])],
    )


def scale_(x: Tensor, c: float) -> Tensor:
    c = float(c)
    y = np.multiply(x.data, x.data.dtype.type(c), out=pool.take(x.data.shape, x.data.dtype))
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
