"""Reverse-mode differentiation over (channels x length) arrays.

Define-by-run: every operation appends a record to the Tape that produced its
inputs, so the record list is already in topological order and the backward
pass is a single reverse sweep. Tensors are 2-D (channels x length) signal
maps; Parameters may hold any shape (conv weights are 3-D, biases 1-D).

Running ops on tape-less Tensors (``Tensor(data)``) skips recording entirely,
which is the inference / frozen-forward mode. Non-finite values are located
after the fact: ``Tape.first_nonfinite`` names the earliest op that made one.
``Tape.outputs`` lists every op's name and output in forward order, so the
feature maps of a forward are read off its tape.

A Tensor may hold several signals of equal length side by side on its time
axis, segment-major: ``Tensor(data, segments=S)`` (or ``tape.tensor(data, S)``)
with data (C, S * L), segment i in columns i*L .. (i+1)*L. Time-axis ops
(pads, convolutions) and their backward passes treat each segment as a signal
of its own, pointwise ops do not care, and every GEMM runs once over the
columns of all segments. The reductions ``mean_`` and ``abs_mean_`` give one
value per segment, and ``batch_mean_`` averages those into a scalar loss.
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
        # calloc'd: a model that never runs backward never touches these pages
        self.grad = np.zeros(self.data.shape, self.data.dtype)

    def zero_grad(self):
        self.grad[...] = 0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class Tensor:
    """Array plus an optional handle onto the tape that produced it, and the
    number of segments its time axis holds (see the module docstring)."""

    __slots__ = ("data", "tape", "node_id", "segments")

    def __init__(self, data, tape: "Tape | None" = None, node_id: int = -1,
                 segments: int = 1):
        arr = np.asarray(data)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr[None, :]
        if type(segments) is not int or segments < 1 or arr.shape[-1] % segments:
            raise ValueError(f"{arr.shape[-1]} samples do not split into {segments!r} segments")
        self.data = arr
        self.tape = tape
        self.node_id = node_id
        self.segments = segments

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def length(self) -> int:
        """Samples per segment."""
        return self.data.shape[-1] // self.segments

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

    def _new_node(self, data, segments: int = 1) -> Tensor:
        t = Tensor(data, self, self._n_nodes, segments)
        self._n_nodes += 1
        return t

    def tensor(self, data, segments: int = 1) -> Tensor:
        """Register an input leaf; its gradient is readable after backward."""
        return self._new_node(data, segments)

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

    def outputs(self) -> list[tuple[str, np.ndarray]]:
        """Each recorded op's name and output array, in forward order."""
        return [(name, out) for name, _id, out, _fn in self._records]

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
    if a.segments != b.segments:
        raise ValueError(f"segment mismatch: {a.segments} vs {b.segments}")
    tape = a.tape if a.tape is not None else b.tape
    if a.tape is not None and b.tape is not None and a.tape is not b.tape:
        raise ValueError("mixing tensors from different tapes")
    return tape


def _emit(tape: Tape | None, name: str, out, bwd, segments: int = 1) -> Tensor:
    if tape is None:
        return Tensor(out, segments=segments)
    t = tape.record(name, out, bwd)  # perfbench wraps record with this signature
    t.segments = segments
    return t


def _split(xd: np.ndarray, segments: int) -> np.ndarray:
    """(C, S*L) segment-major array as a (C, S, L) view."""
    return xd.reshape(xd.shape[0], segments, -1)


def _join(a: np.ndarray) -> np.ndarray:
    """(C, S, L) array as (C, S*L), segment-major."""
    return a.reshape(a.shape[0], -1)


# ---------------------------------------------------------------------------
# array kernels shared by the taped ops and the fused gated conv


def _pad(xd: np.ndarray, segments: int, left: int, right: int, mode: str = "zero") -> np.ndarray:
    """Each segment of xd padded with zeros, or with its mirror image without
    repeating the edge sample (mode "reflect"); xd itself when there is no pad."""
    if not (left or right):
        return xd
    x = _split(xd, segments)
    length = x.shape[-1]
    if left < 0 or right < 0:
        raise ValueError("pad must be non-negative")
    reflect = mode == "reflect"
    if reflect and (left >= length or right >= length):
        raise ValueError(f"pad ({left}, {right}) must be smaller than length {length}")
    y = np.empty(x.shape[:-1] + (left + length + right,), x.dtype)
    y[..., left : left + length] = x
    y[..., :left] = x[..., left:0:-1] if reflect else 0
    y[..., left + length :] = x[..., -2 : -2 - right : -1] if reflect else 0
    return _join(y)


def _unpad(gp: np.ndarray, left: int, right: int, mode: str = "zero") -> np.ndarray:
    """Adjoint of _pad: the gradient (C, S*L) of the segments whose padded
    gradient is gp (C, S, left + L + right); a mirrored margin adds back onto
    the samples it copied."""
    length = gp.shape[-1] - left - right
    g = gp[..., left : left + length]
    if mode == "reflect" and (left or right):
        g = g.copy()
        if left:
            g[..., 1 : left + 1] += gp[..., left - 1 :: -1]
        if right:
            g[..., -2 : -2 - right : -1] += gp[..., left + length :]
    return _join(g)


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
# im2col matrix of the padded input, built one column block at a time in one
# reused buffer, so the whole matrix (k times the input) never exists. A conv
# pads inside itself (_pad, zero or reflect) and its tape keeps the
# unpadded input; backward pads it again and runs in the same column blocks:
# each block rebuilds its slice of the im2col matrix for the weight gradient,
# which sums over the blocks (_im2col_wgrad), and the input gradient's GEMM is
# folded back block by block (_matmul_fold), then through the pad's adjoint
# (_unpad). A stride-1 conv that narrows (c_out < c_in) instead lowers on the
# output side: one GEMM gives every tap's contribution at every position, a
# (c_out*k, L) matrix, and a sum along its diagonals gives the output; its
# backward works, block by block, on the im2col of the (c_out, T) output
# gradient. That keeps a 64 -> 1 channel conv from copying its input k times.
# A transposed conv's backward is the im2col lowering of its padded output
# gradient, blocked alike. Cross-correlation convention throughout: no kernel
# flip.
#
# On a multi-segment tensor every pad, window, diagonal sum and fold stays
# inside its segment, and one rule (_plan) picks each GEMM's columns: blocks
# that run across segment edges, or, where a one-segment call's GEMM would be
# small, blocks of each segment on its own. Each output column is then the
# same dot product, over the same operands, as in a call on its segment
# alone, and in float32 it has the same bits: above SMALL_GEMM_MACS,
# OpenBLAS's sgemm sums a column alike wherever it sits in the product. A
# weight gradient sums over all the columns of all segments, so it is the sum
# of the per-segment gradients up to rounding.

# Output columns per GEMM of the blocked products. The blocked product is
# bit-identical to the one-GEMM product only while OpenBLAS takes the same
# kernel path for every column: blocks start on multiples of this width (a
# multiple of the kernels' column grid, 8 or 16), and the last block also
# takes the remainder, so no block is narrower than the width unless the
# whole output is (a narrow call can fall to the small-matrix kernels, or at
# one column to gemv, which sum in another order).
IM2COL_BLOCK = 1024

# OpenBLAS runs a GEMM of at most this many multiply-adds (M*K*N) on its
# small-matrix kernels, which sum a column in an order that depends on where
# the column sits. Where a one-segment call's block would be that small,
# _plan blocks each segment on its own instead of across segments.
SMALL_GEMM_MACS = 100**3


def _fold_add(phases: np.ndarray, cols: np.ndarray, stride: int, first: int = 0):
    """Scatter-add cols[c, k, ..., t] into out[c, ..., (first + t)*stride + k],
    held as its stride phases: phases[c, ..., p, i] is out[c, ..., i*stride + p]
    (the middle axes, if any, are segments). Each phase is one contiguous
    row, and the taps are added in ascending order."""
    t = cols.shape[-1]
    for k in range(cols.shape[1]):
        q, p = divmod(k, stride)
        phases[..., p, first + q : first + q + t] += cols[:, k]


def _unphase(phases: np.ndarray, out_len: int) -> np.ndarray:
    """The signal that phases[..., p, i] holds as out[..., i*stride + p], cut to out_len."""
    return np.swapaxes(phases, -1, -2).reshape(*phases.shape[:-2], -1)[..., :out_len]


def _small(macs: int, cols: int) -> bool:
    return macs * cols <= SMALL_GEMM_MACS


def _column_blocks(t_seg: int, segments: int, width: int | None = None,
                   own: bool = False) -> list:
    """Blocks (t0, t1, pieces) of segments * t_seg segment-major columns,
    width (IM2COL_BLOCK) wide, the last taking the remainder; with own, the
    columns of each segment are blocked on their own. A piece (s0, s1, a, b)
    is columns a .. b of each of segments s0 .. s1 - 1, side by side in the
    block: a part of one segment, or a run of whole segments."""
    width = width or IM2COL_BLOCK
    if own:
        return [(s * t_seg + a, s * t_seg + b, [(s, s + 1, a, b)])
                for s in range(segments) for a, b, _ in _column_blocks(t_seg, 1, width)]
    total = segments * t_seg
    edges = [i * width for i in range(max(1, total // width))] + [total]
    blocks = []
    for t0, t1 in zip(edges, edges[1:]):
        (s0, a), (s1, b) = divmod(t0, t_seg), divmod(t1, t_seg)
        if s0 == s1:
            pieces = [(s0, s0 + 1, a, b)]
        else:
            pieces = [(s0, s0 + 1, a, t_seg)] if a else []
            s0 += bool(a)
            pieces += [(s0, s1, 0, t_seg)] if s1 > s0 else []
            pieces += [(s1, s1 + 1, 0, b)] if b else []
        blocks.append((t0, t1, pieces))
    return blocks


def _plan(macs: int, t_seg: int, segments: int, width: int | None = None) -> list:
    """The _column_blocks of a GEMM of macs multiply-adds a column over
    segments * t_seg columns, width (IM2COL_BLOCK) wide: across segments, or
    each segment on its own where a one-segment call's first block would be
    small (see SMALL_GEMM_MACS), so that each column sums as in that call."""
    width = width or IM2COL_BLOCK
    return _column_blocks(t_seg, segments, width, _small(macs, min(t_seg, width)))


def _piece(block: np.ndarray, t_seg: int, t0: int, piece) -> np.ndarray:
    """The part of a block buffer (c, k, width) that holds a piece of
    _column_blocks, as (c, k, segments, columns)."""
    s0, s1, a, b = piece
    o = s0 * t_seg + a - t0
    return block[:, :, o : o + (s1 - s0) * (b - a)].reshape(*block.shape[:2], s1 - s0, b - a)


def _windows(xp: np.ndarray, k: int, stride: int, segments: int) -> np.ndarray:
    """(c, S, t, k) view of every kernel-width window of each segment of xp."""
    return sliding_window_view(_split(xp, segments), k, axis=2)[:, :, ::stride]


def _im2col_blocks(win: np.ndarray, blocks: list):
    """Yield (t0, t1, cols) for each block of _column_blocks: cols is columns
    t0 .. t1 of the im2col matrices of the windows win (c, S, t, k) side by
    side, built in one buffer that every block reuses, so it lives until the
    next block. A block may hold the windows of several segments."""
    c, _, t_seg, k = win.shape
    buf = np.empty((c, k, blocks[-1][1] - blocks[-1][0]), win.dtype)  # the last is the widest
    cols = buf.reshape(c * k, -1)
    for t0, t1, pieces in blocks:
        for piece in pieces:
            s0, s1, a, b = piece
            np.copyto(_piece(buf, t_seg, t0, piece), win[:, s0:s1, a:b].transpose(0, 3, 1, 2))
        yield t0, t1, cols[:, : t1 - t0]


def _im2col_matmul(w_mat: np.ndarray, xp: np.ndarray, k: int, stride: int,
                   segments: int = 1) -> np.ndarray:
    """w_mat @ the im2col matrices of the segments of xp side by side, one
    GEMM per block of _plan, each block's columns built by _im2col_blocks."""
    win = _windows(xp, k, stride, segments)
    t_seg = win.shape[2]
    y = np.empty((w_mat.shape[0], segments * t_seg), np.result_type(w_mat, xp))
    for t0, t1, cols in _im2col_blocks(win, _plan(w_mat.size, t_seg, segments)):
        np.matmul(w_mat, cols, out=y[:, t0:t1])
    return y


def _im2col_wgrad(a: np.ndarray, xp: np.ndarray, k: int, stride: int,
                  segments: int = 1, w_mat: np.ndarray | None = None):
    """(gw, y): gw is a @ the transposed im2col matrices of the segments of xp
    side by side, a weight gradient: one GEMM per IM2COL_BLOCK columns
    (_im2col_blocks) across segments, summed block after block, or one GEMM
    over every column where a block-wide one would be small (see
    SMALL_GEMM_MACS), so the matrix has under 1000 rows.

    y is None, or given w_mat, _im2col_matmul(w_mat, xp, ...): the input
    gradient of a transposed or narrowing conv, which needs the same matrix.
    It runs in the same loop where its plan has the same blocks."""
    win = _windows(xp, k, stride, segments)
    c, _, t_seg, _ = win.shape
    whole = _small(a.shape[0] * c * k, IM2COL_BLOCK)
    blocks = _column_blocks(t_seg, segments, segments * t_seg if whole else None)
    if w_mat is not None and _plan(w_mat.size, t_seg, segments) != blocks:
        return (_im2col_wgrad(a, xp, k, stride, segments)[0],
                _im2col_matmul(w_mat, xp, k, stride, segments))
    gw = np.zeros((a.shape[0], c * k), np.result_type(a, xp))
    y = None if w_mat is None else np.empty((w_mat.shape[0], segments * t_seg), gw.dtype)
    for t0, t1, cols in _im2col_blocks(win, blocks):
        gw += np.matmul(a[:, t0:t1], cols.T)
        if y is not None:
            np.matmul(w_mat, cols, out=y[:, t0:t1])
    return gw, y


def _matmul_fold(w_t: np.ndarray, xd: np.ndarray, k: int, stride: int, out_len: int,
                 segments: int = 1) -> np.ndarray:
    """w_t @ xd, (C*k, S*L) taps, folded with stride into (C, S, out_len): tap j
    of input column t adds to output t*stride + j of its segment. That is a
    transposed conv's raw output, or a conv's input gradient (the adjoint of
    im2col). The GEMM runs one block of _plan at a time, so the taps of a
    whole 1 s signal never exist at once; where an IM2COL_BLOCK-wide block
    would be small, the plan's blocks are whole segments. Blocks run last
    first: an output adds its taps in ascending order, and later inputs hold
    its lower taps, so every output sums in the order of one strided
    scatter-add of the whole product, tap after tap."""
    t_seg = xd.shape[1] // segments
    whole = _small(w_t.size, IM2COL_BLOCK)
    blocks = _plan(w_t.size, t_seg, segments, t_seg if whole else None)
    c = w_t.shape[0] // k
    dtype = np.result_type(w_t, xd)
    phases = np.zeros((c, segments, stride, -(-out_len // stride)), dtype)
    buf = np.empty((c, k, blocks[-1][1] - blocks[-1][0]), dtype)  # the last is the widest
    cols = buf.reshape(c * k, -1)
    for t0, t1, pieces in reversed(blocks):
        np.matmul(w_t, xd[:, t0:t1], out=cols[:, : t1 - t0])
        for piece in pieces:
            s0, s1, a, _ = piece
            _fold_add(phases[:, s0:s1], _piece(buf, t_seg, t0, piece), stride, a)
    del buf, cols  # before _unphase copies the phases
    return _unphase(phases, out_len)


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
    tape = x.tape
    x_id = x.node_id
    w_id, w_data = _lift(tape, weight)
    b_id, b_data = _lift(tape, bias) if bias is not None else (-1, None)
    xd, n_seg = x.data, x.segments
    c_in, length = x.channels, x.length
    c_out, w_cin, k = w_data.shape
    if w_cin != c_in:
        raise ValueError(f"channel mismatch: input has {c_in}, weight expects {w_cin}")
    pl, pr = pad
    lp = length + pl + pr
    if lp < k:
        raise ValueError(f"padded length {lp} < kernel width {k}")
    xp = _pad(xd, n_seg, pl, pr, pad_mode)
    narrowing = stride == 1 and c_out < c_in
    if narrowing:
        # taps[o, j, s] = sum_c w[o, c, j] * xp[c, s]; y[o, t] = sum_j taps[o, j, t + j]
        # within each segment; the diagonal sums cross any block edge inside a
        # segment, so the plan's blocks are whole segments, or all of them at once
        t_out = lp - k + 1
        w_taps = w_data.transpose(0, 2, 1).reshape(c_out * k, c_in)
        taps = np.empty((c_out * k, n_seg * lp), np.result_type(w_taps, xp))
        for t0, t1, _ in _plan(w_taps.size, lp, n_seg, n_seg * lp):
            np.matmul(w_taps, xp[:, t0:t1], out=taps[:, t0:t1])
        taps = taps.reshape(c_out, k, n_seg, lp)
        y = taps[:, 0, :, :t_out].copy()
        for j in range(1, k):
            y += taps[:, j, :, j : j + t_out]
        y = _join(y)
    else:
        w_mat = w_data.reshape(c_out, c_in * k)
        y = _im2col_matmul(w_mat, xp, k, stride, n_seg)
    if b_data is not None:
        y += b_data.reshape(-1, 1)

    def bwd(g):
        out = []
        if narrowing:
            # gcols[o*k + m, s] = g[o, s + m - (k - 1)] within each segment, zero outside g
            w_rev = w_data[:, :, ::-1].transpose(1, 0, 2).reshape(c_in, c_out * k)
            gw_rev, gx = _im2col_wgrad(_pad(xd, n_seg, pl, pr, pad_mode),
                                       _pad(g, n_seg, k - 1, k - 1), k, 1, n_seg, w_rev)
            if w_id >= 0:
                gw_rev = gw_rev.reshape(c_in, c_out, k)
                out.append((w_id, gw_rev[:, :, ::-1].transpose(1, 0, 2).copy()))
            gx = _split(gx, n_seg)
        else:
            if w_id >= 0:
                gw, _ = _im2col_wgrad(g, _pad(xd, n_seg, pl, pr, pad_mode), k, stride, n_seg)
                out.append((w_id, gw.reshape(w_data.shape)))
            gx = _matmul_fold(w_mat.T, g, k, stride, lp, n_seg)
        if b_id >= 0:
            out.append((b_id, g.sum(axis=1)))
        out.append((x_id, _unpad(gx, pl, pr, pad_mode)))
        return out

    return _emit(tape, "conv1d", y, bwd, n_seg)


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
    xd, n_seg = x.data, x.segments
    c_in, length = x.channels, x.length
    w_cin, c_out, k = w_data.shape
    if w_cin != c_in:
        raise ValueError(f"channel mismatch: input has {c_in}, weight expects {w_cin}")
    raw = (length - 1) * stride + k
    cl, cr = crop
    if cl < 0 or cr < 0 or cl + cr >= raw:
        raise ValueError(f"crop {crop} exceeds raw output length {raw}")
    w_mat = w_data.reshape(c_in, c_out * k)
    y = _join(_matmul_fold(w_mat.T, xd, k, stride, raw, n_seg)[..., cl : raw - cr])
    if b_data is not None:
        y += b_data.reshape(-1, 1)

    def bwd(g):
        # the im2col lowering of the raw output gradient, (c_out*k, length) a segment
        gw, gx = _im2col_wgrad(xd, _pad(g, n_seg, cl, cr), k, stride, n_seg, w_mat)
        out = [(x_id, gx)]
        if w_id >= 0:
            out.append((w_id, gw.reshape(w_data.shape)))
        if b_id >= 0:
            out.append((b_id, g.sum(axis=1)))
        return out

    return _emit(tape, "tconv1d", y, bwd, n_seg)


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
    generator's cost; backward runs in the same blocks. The tape keeps the
    unpadded input, the output, tanh(filter) and the gate's softmax or
    sigmoid. Produces the exact values of the equivalent op composition
    (GEMM rows are independent), with the softmax gate composed as
    ``scale_(channel_softmax(gate), c_out)``.
    """
    tape = x.tape
    x_id = x.node_id
    wf_id, wf = _lift(tape, w_filter)
    wg_id, wg = _lift(tape, w_gate)
    bf_id, bf = _lift(tape, b_filter) if b_filter is not None else (-1, None)
    bg_id, bg = _lift(tape, b_gate) if b_gate is not None else (-1, None)
    xd, n_seg = x.data, x.segments
    c_in, length = x.channels, x.length
    c_out, w_cin, k = wf.shape
    if wf.shape != wg.shape:
        raise ValueError(f"filter/gate weight shapes differ: {wf.shape} vs {wg.shape}")
    if w_cin != c_in:
        raise ValueError(f"channel mismatch: input has {c_in}, weight expects {w_cin}")
    if 2 * pad + 1 != k:
        raise ValueError("gated conv pad must preserve length (k = 2*pad + 1)")
    if gate_kind not in ("softmax_channel", "sigmoid"):
        raise ValueError(f"unknown gate kind {gate_kind!r}")

    ck = c_in * k
    w_stack = np.concatenate([wf.reshape(c_out, ck), wg.reshape(c_out, ck)])
    y_stack = _im2col_matmul(w_stack, _pad(xd, n_seg, pad, pad, "reflect"), k, 1, n_seg)
    yf, yg = y_stack[:c_out], y_stack[c_out:]
    if bf is not None:
        yf += bf.reshape(-1, 1)
    if bg is not None:
        yg += bg.reshape(-1, 1)

    softmax = gate_kind == "softmax_channel"
    gain = yg.dtype.type(c_out)
    f = np.tanh(yf)
    act = _softmax(yg) if softmax else _sigmoid(yg)  # the gate is act, times gain for softmax
    y = f * (act * gain) if softmax else f * act

    def bwd(g):
        # through the product and the two activations
        gate = act * gain if softmax else act
        d_yf = _tanh_vjp(g * gate, f)
        d_gate = g * f
        if softmax:
            d_gate *= gain
            d_yg = _softmax_vjp(d_gate, act)
        else:
            d_yg = _sigmoid_vjp(d_gate, act)
        d_stack = np.concatenate([d_yf, d_yg])
        del gate, d_yf, d_gate, d_yg  # not alive beside the blocks' column buffer
        out = []
        if wf_id >= 0 or wg_id >= 0:
            gw_stack, _ = _im2col_wgrad(d_stack, _pad(xd, n_seg, pad, pad, "reflect"), k, 1, n_seg)
            if wf_id >= 0:
                out.append((wf_id, gw_stack[:c_out].reshape(wf.shape)))
            if wg_id >= 0:
                out.append((wg_id, gw_stack[c_out:].reshape(wg.shape)))
        if bf_id >= 0:
            out.append((bf_id, d_stack[:c_out].sum(axis=1)))
        if bg_id >= 0:
            out.append((bg_id, d_stack[c_out:].sum(axis=1)))
        gxp = _matmul_fold(w_stack.T, d_stack, k, 1, length + 2 * pad, n_seg)
        out.append((x_id, _unpad(gxp, pad, pad, "reflect")))
        return out

    return _emit(tape, "gated_conv_pair", y, bwd, n_seg)


def reflect_pad(x: Tensor, left: int, right: int) -> Tensor:
    """Mirror padding of each segment without repeating the edge sample."""
    n_seg = x.segments
    y = _pad(x.data, n_seg, left, right, "reflect")
    x_id = x.node_id
    return _emit(x.tape, "reflect_pad", y,
                 lambda g: [(x_id, _unpad(_split(g, n_seg), left, right, "reflect"))], n_seg)


def channel_softmax(x: Tensor) -> Tensor:
    """Columnwise softmax over channels, computed with max subtraction."""
    y = _softmax(x.data)
    x_id = x.node_id
    return _emit(x.tape, "channel_softmax", y, lambda g: [(x_id, _softmax_vjp(g, y))],
                 x.segments)


# ---------------------------------------------------------------------------
# pointwise and reduction ops


def tanh_(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    x_id = x.node_id
    return _emit(x.tape, "tanh", y, lambda g: [(x_id, _tanh_vjp(g, y))], x.segments)


def sigmoid_(x: Tensor) -> Tensor:
    y = _sigmoid(x.data)
    x_id = x.node_id
    return _emit(x.tape, "sigmoid", y, lambda g: [(x_id, _sigmoid_vjp(g, y))], x.segments)


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

    return _emit(tape, "prelu", y, bwd, x.segments)


def leaky_relu_(x: Tensor, slope: float = 0.2) -> Tensor:
    xd = x.data
    x_id = x.node_id
    y = _leaky(xd, slope)
    return _emit(x.tape, "leaky_relu", y, lambda g: [(x_id, g * _slope_mask(xd, slope))],
                 x.segments)


def relu_(x: Tensor) -> Tensor:
    xd = x.data
    x_id = x.node_id
    y = np.maximum(xd, 0)
    return _emit(x.tape, "relu", y, lambda g: [(x_id, g * (xd > 0))], x.segments)


def mul_(a: Tensor, b: Tensor) -> Tensor:
    tape = _check_same(a, b)
    a_id, b_id, ad_, bd_ = a.node_id, b.node_id, a.data, b.data
    return _emit(tape, "mul", ad_ * bd_, lambda g: [(a_id, g * bd_), (b_id, g * ad_)],
                 a.segments)


def add_(a: Tensor, b: Tensor) -> Tensor:
    tape = _check_same(a, b)
    y = a.data + b.data
    a_id, b_id = a.node_id, b.node_id
    return _emit(tape, "add", y, lambda g: [(a_id, g), (b_id, g)], a.segments)


def sub_(a: Tensor, b: Tensor) -> Tensor:
    tape = _check_same(a, b)
    y = a.data - b.data
    a_id, b_id = a.node_id, b.node_id
    return _emit(tape, "sub", y, lambda g: [(a_id, g), (b_id, -g)], a.segments)


def concat_channels_(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[1] != b.data.shape[1]:
        raise ValueError(f"length mismatch: {a.data.shape[1]} vs {b.data.shape[1]}")
    if a.segments != b.segments:
        raise ValueError(f"segment mismatch: {a.segments} vs {b.segments}")
    tape = a.tape if a.tape is not None else b.tape
    if a.tape is not None and b.tape is not None and a.tape is not b.tape:
        raise ValueError("mixing tensors from different tapes")
    ca = a.data.shape[0]
    y = np.concatenate([a.data, b.data])
    a_id, b_id = a.node_id, b.node_id
    return _emit(
        tape, "concat_channels", y,
        lambda g: [(a_id, g[:ca]), (b_id, g[ca:])], a.segments,
    )


def scale_(x: Tensor, c: float) -> Tensor:
    c = float(c)
    y = x.data * x.data.dtype.type(c)
    x_id = x.node_id
    return _emit(x.tape, "scale", y, lambda g: [(x_id, g * c)], x.segments)


def shift_(x: Tensor, c: float) -> Tensor:
    c = float(c)
    x_id = x.node_id
    return _emit(x.tape, "shift", x.data + c, lambda g: [(x_id, g)], x.segments)


def _segment_rows(xd: np.ndarray, segments: int) -> np.ndarray:
    """(S, C*L): each segment's values as one contiguous row, so that a row's
    mean has the bits of np.mean over a call on that segment alone."""
    return _split(xd, segments).transpose(1, 0, 2).reshape(segments, -1)


def abs_mean_(x: Tensor) -> Tensor:
    """Mean absolute value of each segment, as a (1, S) tensor of S one-value segments."""
    xd, n_seg = x.data, x.segments
    x_id = x.node_id
    rows = _segment_rows(xd, n_seg)
    y = np.mean(np.abs(rows), axis=1).reshape(1, n_seg)
    n = rows.shape[1]
    return _emit(
        x.tape, "abs_mean", y,
        lambda g: [(x_id, _join((g.reshape(1, n_seg, 1) / n) * np.sign(_split(xd, n_seg))))],
        n_seg,
    )


def mean_(x: Tensor) -> Tensor:
    """Plain mean of each segment, as a (1, S) tensor of S one-value segments."""
    xd, n_seg = x.data, x.segments
    x_id = x.node_id
    rows = _segment_rows(xd, n_seg)
    y = np.mean(rows, axis=1).reshape(1, n_seg)
    n = rows.shape[1]
    shape = (xd.shape[0], n_seg, n // xd.shape[0])
    return _emit(
        x.tape, "mean", y,
        lambda g: [(x_id, _join(np.broadcast_to((g.reshape(1, n_seg, 1) / n).astype(xd.dtype),
                                                shape)))],
        n_seg,
    )


def batch_mean_(x: Tensor) -> Tensor:
    """Mean of every value of x, all segments together, as a (1, 1) scalar: the
    batch mean of the one value per segment that mean_ and abs_mean_ give."""
    xd = x.data
    x_id = x.node_id
    y = np.array([[np.mean(xd)]], dtype=xd.dtype)
    return _emit(
        x.tape, "batch_mean", y,
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
