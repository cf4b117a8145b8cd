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

import ctypes
import functools
from types import SimpleNamespace
from typing import Callable, Iterable

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import sliding_window_view


# perfbench/runner.py calls pool.clear() between repetitions. The engine keeps
# no array cache, so the call does nothing; drop this once the benchmark does.
pool = SimpleNamespace(clear=lambda: None)


try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim  # glibc only
except (AttributeError, OSError, TypeError):
    _MALLOC_TRIM = None


def release_free_memory():
    """Give the free pages of the C heap back to the system (glibc's
    malloc_trim; elsewhere nothing). glibc serves arrays below its dynamic
    mmap threshold, which rises to the largest array freed so far (up to
    32 MB), from the heap, and hands the heap's free pages back only from its
    top, so how much of a training step's working set stays resident after it
    hangs on which small block last landed near the top. With the default
    model, a 3 s vocode call at segment 16000 after a desk training step that
    left it resident peaked about 38 MB above one after a step that did not,
    in some runs of the same calls only. train_loop and every cli command
    call this first, so each starts from the pages in use and its peak does
    not depend on what the process ran before."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


class Parameter:
    """Named weight array and its gradient: None, or an array of the weight's
    shape and dtype from the backward passes since the last ``zero_grad``."""

    def __init__(self, name: str, data):
        self.name = name
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None

    def zero_grad(self):
        """Drop the gradient; the next backward that reaches this weight sets it."""
        self.grad = None

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
    gradients, and finally hands each leaf parameter its gradient: a
    ``Parameter.grad`` of None becomes the array backward computed, and one
    that holds a gradient becomes the sum of the two, made out of place, so
    repeated backward calls double it and no tape array is written over.

    Parameters in ``constants`` are held constant: ops read their values but
    record no node for them, so backward computes no gradient for them and
    leaves their ``grad`` alone.
    """

    def __init__(self, constants: Iterable[Parameter] = ()):
        self._records: list[tuple[str, int, np.ndarray, Callable]] = []
        self._leaf_params: dict[int, Parameter] = {}
        self._param_cache: dict[int, int] = {}
        self._constants = {id(p) for p in constants}
        self._n_nodes = 0
        self.grads: dict[int, np.ndarray] = {}

    def holds_constant(self, param: Parameter) -> bool:
        """Whether param is one of this tape's constants."""
        return id(param) in self._constants

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
            g = grads.pop(nid, None)
            if g is not None:
                g = g.reshape(p.data.shape).astype(p.data.dtype, copy=False)
                p.grad = g if p.grad is None else p.grad + g
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
        if tape is None or tape.holds_constant(w):
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
# All heavy work routes through GEMMs. Every correlation of a weight matrix
# with a padded signal, strided or not, goes through _correlate, whose size
# rule (_fft_pays) picks the lowering. By default it multiplies the weights with
# the (c_in*k, T) im2col matrix of the padded input, built one column block at
# a time in one reused buffer, so the whole matrix (k times the input) never
# exists. A correlation of FFT_MIN_TAPS to FFT_FRAME/2 + 1 taps, with at
# least FFT_MIN_CHANNELS rows and channels, whose segments give at least
# FFT_MIN_COLUMNS outputs each at 65 taps, and proportionally more at fewer
# taps, is an overlap-save FFT product instead (_fft_correlate): the kernels'
# spectra from one GEMM with the DFT's rows, rfft of FFT_FRAME-sample frames,
# one complex GEMM per frequency bin, irfft. A stride-s correlation of c
# channels and k taps takes it as the stride-1 correlation of its input's
# phase stack (_phase_stack: row c*s + p holds samples p, p + s, ... of
# channel c) with its kernel's phase taps (_phase_taps: tap q*s + p as tap q
# of phase p, zero past k), s*c channels of ceil(k/s) taps, and the stack's
# adjoint (_phase_unstack) carries its gradients back. On im2col it keeps
# its every s-th window, whose matrix is the phase stack's with its rows in
# tap order, so each output sums as a direct strided sum does.
# conv1d, the gated conv and the transposed conv all call _correlate. A
# transposed conv is stride correlations of its zero-padded input, one per
# phase of its output (the kernel's taps p, p + stride, ...), stacked into one
# weight matrix and interleaved (polyphase), so it needs no fold. A conv pads
# inside itself (_pad, zero or reflect) and its tape keeps the unpadded input;
# backward pads it again. The input gradient of a conv or gated conv (of its
# phase stack, at stride > 1) is itself a correlation, of the output gradient
# zero-padded by k - 1 with the flipped, transposed kernels
# (_correlate_adjoint): where the size rule takes its outputs to the FFT
# product it goes through _correlate, and otherwise the GEMM of the
# transposed weights with the output gradient is folded back block by block,
# with the stride (_matmul_fold). Then
# the pad's adjoint (_unpad) applies. The weight gradient (_wgrad) is the FFT
# product where the rule takes all its columns, of every segment, to it
# (FFT_MIN_WGRAD_COLUMNS; _fft_wgrad: per bin, one complex GEMM of the output
# gradient's frame spectra with the input's sums over frames, and irfft gives
# the k lags), and otherwise runs in the forward's column blocks, each
# rebuilding its slice of the im2col matrix (_im2col_wgrad). A stride-1 conv
# that narrows (c_out < c_in) instead lowers on the output side: one GEMM
# gives every tap's contribution at every position, a (c_out*k, L) matrix,
# and a sum along its diagonals gives the output; its backward works, block
# by block, on the im2col of the (c_out, T) output gradient. That keeps a
# 64 -> 1 channel conv from copying its input k times. A transposed conv's
# backward is the strided correlation of its padded output gradient, and
# the weight gradient against it (_wgrad_correlate): like the narrowing
# conv's, one im2col loop, blocked alike, where the weight gradient stays on
# im2col. Cross-correlation convention throughout: no kernel flip.
#
# On a multi-segment tensor every pad, phase stack, window, diagonal sum,
# fold and FFT frame of a forward or an input gradient stays inside its
# segment. The size
# rule of _correlate reads the per-segment length, never the segment count,
# so a segment takes the same lowering side by side as alone. One rule
# (_plan) picks each im2col GEMM's columns: blocks that run across segment
# edges, or, where a one-segment call's GEMM would be small, blocks of each
# segment on its own. Each output column is then the same dot product, over
# the same operands, as in a call on its segment alone, and in float32 it has
# the same bits: above SMALL_GEMM_MACS, OpenBLAS's sgemm sums a column alike
# wherever it sits in the product. The FFT product runs each segment on its
# own, in the same frame chunks and the same per-bin GEMMs as a call on that
# segment alone (its per-bin GEMMs are small, and batching the frames of all
# segments into one changed each segment's bits). A weight gradient sums over
# all the columns of all segments, so it is the sum of the per-segment
# gradients up to rounding, and its rule and its FFT frames may run across
# segments.

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

# The size rule (_fft_pays): the outputs per segment of a correlation of
# FFT_FRAME/2 + 1 taps from which it is an FFT product rather than an im2col
# GEMM (proportionally more at fewer taps, down to FFT_MIN_TAPS, and never
# below FFT_MIN_CHANNELS rows or channels), and the columns of all segments
# from which a weight gradient is; see _correlate for the crossover measured.
# The FFT product's frames are FFT_FRAME samples and run FFT_CHUNK at a time
# in a forward or input gradient, WGRAD_FRAMES at a time in a weight gradient.
FFT_MIN_COLUMNS = 400
FFT_MIN_WGRAD_COLUMNS = 1600
FFT_MIN_TAPS = 32
FFT_MIN_CHANNELS = 8
FFT_FRAME = 128
FFT_CHUNK = 32
WGRAD_FRAMES = 128


def _phase_stack(xd: np.ndarray, segments: int, stride: int, length: int) -> np.ndarray:
    """(c*stride, S*length): row c*stride + p holds samples p, p + stride, ...
    of channel c of each segment of xd (c, S*L), length of them, zero past
    the segment's end. At stride 1 and length L, xd itself."""
    x = _split(_pad(xd, segments, 0, max(0, length * stride - xd.shape[1] // segments)), segments)
    x = x[..., : length * stride].reshape(x.shape[0], segments, length, stride)
    return x.transpose(0, 3, 1, 2).reshape(-1, segments * length)


def _phase_unstack(gs: np.ndarray, stride: int, n: int) -> np.ndarray:
    """Adjoint of _phase_stack: the gradient (c, S, n) of a signal of n
    samples a segment whose phase stack has the gradient gs (c*stride, S,
    length); samples the stack does not reach get zero."""
    cs, segments, length = gs.shape
    g = gs.reshape(cs // stride, stride, segments, length).transpose(0, 2, 3, 1)
    g = _join(g.reshape(cs // stride, segments, length * stride)[..., :n])
    return _split(_pad(g, segments, 0, max(0, n - length * stride)), segments)


def _phase_taps(w_mat: np.ndarray, k: int, stride: int) -> np.ndarray:
    """The weights (R, c*k) of a strided correlation as those of the
    stride-1 correlation of its phase stack, (R, c*stride*ceil(k/stride)):
    column (c*stride + p)*taps + q is tap q*stride + p, zero past k."""
    return _phase_stack(w_mat.reshape(-1, k), 1, stride, -(-k // stride)).reshape(len(w_mat), -1)


def _phase_taps_adjoint(gw: np.ndarray, k: int, stride: int) -> np.ndarray:
    """The gradient (R, c*k) of w_mat from that of its _phase_taps."""
    return _phase_unstack(gw.reshape(-1, 1, -(-k // stride)), stride, k).reshape(len(gw), -1)


def _fold_add(phases: np.ndarray, cols: np.ndarray, stride: int, first: int = 0):
    """Scatter-add cols[c, k, ..., t] into out[c, ..., (first + t)*stride + k],
    held as its stride phases: phases[c, ..., p, i] is out[c, ..., i*stride + p]
    (the middle axes, if any, are segments). Each phase is one contiguous
    row, and the taps are added in ascending order."""
    t = cols.shape[-1]
    for k in range(cols.shape[1]):
        q, p = divmod(k, stride)
        phases[..., p, first + q : first + q + t] += cols[:, k]


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
    """(c, S, t, k) view of every stride-th kernel-width window of each segment of xp."""
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


def _fft_pays(columns: int, k: int, rows: int, channels: int, least: int | None = None) -> bool:
    """The size rule of the FFT product: whether a correlation of k taps,
    rows output rows and channels input channels over columns outputs takes
    it: from least (FFT_MIN_COLUMNS) outputs at FFT_FRAME/2 + 1 taps and
    proportionally more at fewer, down to FFT_MIN_TAPS, and never with fewer
    than FFT_MIN_CHANNELS rows or channels, where the transforms of the wide
    side cost more than the narrow im2col GEMM."""
    least = FFT_MIN_COLUMNS if least is None else least
    return (FFT_MIN_TAPS <= k <= FFT_FRAME // 2 + 1 and min(rows, channels) >= FFT_MIN_CHANNELS
            and columns * k >= least * (FFT_FRAME // 2 + 1))


def _correlate(w_mat: np.ndarray, xp: np.ndarray, k: int, segments: int = 1,
               stride: int = 1) -> np.ndarray:
    """w_mat (R, c*k) correlated with each segment of xp (c, S*Lp) at stride:
    (R, S*T), T outputs a segment. The blocked im2col product of xp's
    windows, or where the size rule (_fft_pays) takes the T outputs of xp's
    phase stack (stride*c channels of ceil(k/stride) taps) to it, the FFT
    product of the stack. The rule reads only T, the taps, R and the
    channels, so each segment's outputs have the bits of a call on it alone.

    Crossover, im2col (or fold) against FFT product, times faster (2 cores,
    2 BLAS threads, float32, medians of 15 calls), by outputs a segment T and
    segments S:
    - up-stage gated pair (64 rows, 32 channels, k 65): T 200: 1.1x at S 8;
      T 400: 1.1x at S 2, 1.5x at S 8; T 800: 1.8x / 2.3x; T 1600: 2.8x at S 8.
    - decoder gated pair (128 rows, 64 channels, k 65): T 100, where it trains
      at segment 1600: 0.55x at S 2, 0.97x at S 8, so the rule keeps it on
      im2col; T 1000, where it vocodes at segment 16000: 1.7x at S 1.
    - transposed convs' phases (64 rows, 64 channels, 33 taps): T 400: 0.85x
      at S 2, 1.3x at S 8; T 800: 1.7x / 2.4x; T 1000: 1.1x at S 1; the noise
      branch's (32 channels) 0.86x at T 1000, S 1, 1.1x at T 800, S 8.
    - up-stage gated input gradient (32 rows, 64 channels; T + 64 outputs)
      against _matmul_fold: T 200: 1.0x at S 2, 1.3x at S 8; T 400: 2.0x /
      2.8x; T 1600: 4.8x at S 8. The decoder's at T 100: 0.5-0.65x.
    - the encoder's stride-2 convs as phase stacks (32 taps; at segment
      16000, S 1), against their strided im2col: down1 (64 rows, 64 phase
      channels, T 4000) 2.0x, down2 (64 rows, 128 channels, T 2000) 2.5x,
      down3 (128 rows, 128 channels, T 1000) 1.4x; down0 (32 rows, 2
      channels, T 8000) 0.33x. At 32 rows, 32 taps and T 8000: 0.45x at 2
      channels, 0.69x at 4, 1.1x at 8, 1.4x at 16; down0's input gradient
      (2 rows, 32 channels, T 831) 0.52x at S 2, 0.98x at S 8.
    Hence FFT_MIN_COLUMNS 400 at 65 taps, and so about 790 at 33, and
    FFT_MIN_CHANNELS 8, rows or channels. A 3 s
    generate_segments at segment 16000 (default model, its 3 segments in one
    forward, in-process medians of 20 alternating calls) took 296 ms with
    this rule and 454 ms with the FFT product only from 2000 outputs."""
    kq = -(-k // stride)
    t_seg = (xp.shape[1] // segments - k) // stride + 1
    if _fft_pays(t_seg, kq, w_mat.shape[0], stride * xp.shape[0]):
        return _fft_correlate(_phase_taps(w_mat, k, stride),
                              _phase_stack(xp, segments, stride, t_seg + kq - 1), kq, segments)
    return _im2col_matmul(w_mat, xp, k, stride, segments)


@functools.lru_cache(maxsize=None)
def _dft_rows(n: int, k: int, dtype: np.dtype) -> np.ndarray:
    """(2*(n//2 + 1), k): cos then sin of 2*pi*b*j/n for bin b and tap j, the
    real and imaginary rows of the conjugate DFT of k taps."""
    angle = 2 * np.pi / n * (np.outer(np.arange(n // 2 + 1), np.arange(k)) % n)
    return np.concatenate([np.cos(angle), np.sin(angle)]).astype(dtype)


def _kernel_spectra(w_mat: np.ndarray, c: int, k: int) -> np.ndarray:
    """The conjugate spectra over FFT_FRAME samples of the kernels w_mat (R,
    c*k), bin-major (bins, R, c): one GEMM of the taps with _dft_rows. The
    conjugate turns the FFT's circular convolution into correlation. At k up
    to FFT_FRAME/2 + 1 taps the GEMM costs a third of rfft's strided
    transforms of the zero-filled kernels: 1.3 against 3-5 ms for the
    decoder's 128 x 64 kernels (2 cores)."""
    rows, bins = w_mat.shape[0], FFT_FRAME // 2 + 1
    p = (_dft_rows(FFT_FRAME, k, w_mat.dtype) @ w_mat.reshape(rows * c, k).T).reshape(2, bins, rows, c)
    w_f = np.empty((bins, rows, c), np.result_type(w_mat, np.complex64))
    w_f.real, w_f.imag = p
    return w_f


def _fft_correlate(w_mat: np.ndarray, xp: np.ndarray, k: int, segments: int = 1) -> np.ndarray:
    """The stride-1 _correlate as an overlap-save FFT product: each frame of
    FFT_FRAME input samples gives FFT_FRAME - k + 1 outputs, which the circular
    correlation with the kernel leaves unwrapped. The kernels' conjugate
    spectra come from _kernel_spectra; frames are transformed FFT_CHUNK at a
    time; per frequency bin, one complex GEMM of the kernels' spectra (R, c)
    with the frames' spectra (c, frames) sums over channels; irfft returns
    each frame's outputs, which are written once, into a (rows, frames, hop)
    view of the output. The transforms run along the first axis, so the
    spectra come out bin-major, as the GEMMs take them. Each segment runs on
    its own, in chunks counted from its first output, so its outputs have the
    bits of a call on it alone. Its working memory stays below that of the
    im2col product it replaces (4.8-6.4 MB against 7.8-15.7 MB beyond the
    output with the upsampler's shapes at a 1 s segment, tracemalloc)."""
    rows, c = w_mat.shape[0], xp.shape[0]
    n = FFT_FRAME
    hop = n - k + 1
    t_seg = xp.shape[1] // segments - k + 1
    dtype = np.result_type(w_mat, xp)  # both transformed in it, as im2col multiplies in it
    xp = xp.astype(dtype, copy=False)
    w_f = _kernel_spectra(w_mat.astype(dtype, copy=False), c, k)
    y = np.empty((rows, segments, t_seg), dtype)
    x = _split(xp, segments)
    span = hop * FFT_CHUNK  # outputs per chunk
    for s in range(segments):
        for t0 in range(0, t_seg, span):
            t1 = min(t_seg, t0 + span)
            frames = -(-(t1 - t0) // hop)
            need = (frames - 1) * hop + n
            xs = x[:, s, t0 : t0 + need]
            if xs.shape[1] < need:  # the last frame runs past the segment
                xs = np.concatenate([xs, np.zeros((c, need - xs.shape[1]), xs.dtype)], axis=1)
            x_f = scipy.fft.rfft(sliding_window_view(xs, n, axis=1)[:, ::hop].transpose(2, 0, 1),
                                 axis=0)  # (bins, c, frames)
            out = scipy.fft.irfft(np.matmul(w_f, x_f), n, axis=0)  # (n, R, frames)
            full, rest = divmod(t1 - t0, hop)
            y[:, s, t0 : t0 + full * hop].reshape(rows, full, hop)[...] = (
                out[:hop, :, :full].transpose(1, 2, 0))
            if rest:
                y[:, s, t1 - rest : t1] = out[:rest, :, full].T
    return _join(y)


def _correlate_adjoint(w_mat: np.ndarray, g: np.ndarray, k: int, out_len: int,
                       segments: int = 1, stride: int = 1) -> np.ndarray:
    """The input gradient (c, S, out_len) of _correlate(w_mat, xp, k,
    segments, stride) for the output gradient g (R, S*T). That of xp's phase
    stack is a correlation of g, zero-padded by taps - 1, with the flipped,
    transposed phase taps (stride*c, R*taps): where the size rule takes its
    outputs to the FFT product it goes through _correlate and back through
    the stack; otherwise it is the GEMM of the transposed weights folded
    back (_matmul_fold)."""
    kq, cs = -(-k // stride), stride * (w_mat.shape[1] // k)
    if _fft_pays(g.shape[1] // segments + kq - 1, kq, cs, w_mat.shape[0]):
        w_mat, c, k = _phase_taps(w_mat, k, stride), cs, kq  # the phase stack's
        w_flip = w_mat.reshape(-1, c, k)[:, :, ::-1].transpose(1, 0, 2).reshape(c, -1)
        gs = _correlate(w_flip, _pad(g, segments, k - 1, k - 1), k, segments)
        return _phase_unstack(_split(gs, segments), stride, out_len)
    return _matmul_fold(w_mat.T, g, k, stride, out_len, segments)


def _fft_wgrad(a: np.ndarray, xp: np.ndarray, k: int, segments: int = 1) -> np.ndarray:
    """The weight gradient of a stride-1 correlation as an FFT product: a
    (R, S*T) times the transposed im2col matrices of the segments of xp
    (c, S*(T + k - 1)), (R, c*k). a is cut into frames of hop = FFT_FRAME -
    k + 1 columns, zero-filled to FFT_FRAME samples, and xp into the
    FFT_FRAME-sample frames that start at the same columns; the circular
    correlation of two such frames holds the frame's share of every one of
    the k lags unwrapped. Both are laid out with P = frames * hop >= T + k -
    1 columns a segment, zero past its own, so that the frames of every
    segment lie hop apart along one axis: a frame of xp may run into the next
    segment's columns, but only where a's frame is zero. Per frequency bin,
    one complex GEMM of a's conjugate frame spectra (R, m) with xp's (m, c)
    sums over WGRAD_FRAMES frames at a time, across segments, and one irfft
    of the sum gives the lags. Against _im2col_wgrad (as in _correlate) for
    the up-stage gated pair's stacked weights: 400 columns (S 2 x T 200)
    0.7x, 800 (2 x 400) and 1600 (8 x 200) 1.0x, 1600 (2 x 800) 1.5x, 12800
    (8 x 1600) 2.4x; the decoder's, 800 (8 x 100) 0.85x, 1600 (8 x 200)
    1.06x; hence FFT_MIN_WGRAD_COLUMNS 1600."""
    rows, c = a.shape[0], xp.shape[0]
    n = FFT_FRAME
    hop = n - k + 1
    t_seg = a.shape[1] // segments
    frames = -(-(t_seg + n - hop) // hop)  # a segment's
    dtype = np.result_type(a, xp)
    ap = np.zeros((rows, segments, frames * hop), dtype)
    ap[..., :t_seg] = _split(a, segments)
    xs = np.zeros((c, segments * frames * hop + n - hop), dtype)
    xs[:, : segments * frames * hop].reshape(c, segments, -1)[..., : t_seg + k - 1] = (
        _split(xp, segments))
    a_frames = ap.reshape(rows, -1, hop).transpose(2, 0, 1)  # (hop, R, S*frames)
    x_frames = sliding_window_view(xs, n, axis=1)[:, ::hop].transpose(2, 1, 0)  # (n, S*frames, c)
    acc = None
    for f0 in range(0, segments * frames, WGRAD_FRAMES):
        f1 = f0 + WGRAD_FRAMES
        a_f = scipy.fft.rfft(a_frames[..., f0:f1], n, axis=0)  # (bins, R, m)
        x_f = scipy.fft.rfft(x_frames[:, f0:f1], axis=0)  # (bins, m, c)
        if f1 >= segments * frames:  # the frames are not alive beside the last product
            del ap, xs, a_frames, x_frames
        part = np.matmul(np.conjugate(a_f, out=a_f), x_f)
        del a_f, x_f  # nor the spectra beside the next chunk's, or the irfft
        acc = part if acc is None else np.add(acc, part, out=acc)
    gw = scipy.fft.irfft(acc, n, axis=0)[:k]  # (k, R, c)
    return gw.transpose(1, 2, 0).reshape(rows, c * k)


def _fft_wgrad_pays(a: np.ndarray, xp: np.ndarray, k: int, stride: int) -> bool:
    """The size rule of a weight gradient: all its columns, with
    FFT_MIN_WGRAD_COLUMNS, at the taps and channels of xp's phase stack."""
    return _fft_pays(a.shape[1], -(-k // stride), a.shape[0], stride * xp.shape[0],
                     FFT_MIN_WGRAD_COLUMNS)


def _wgrad(a: np.ndarray, xp: np.ndarray, k: int, segments: int = 1, stride: int = 1) -> np.ndarray:
    """The weight gradient (R, c*k) of _correlate(w_mat, xp, k, segments,
    stride) for the output gradient a (R, S*T): the FFT product of xp's
    phase stack where the size rule takes it (_fft_wgrad_pays), as a sum
    over segments may, or else the blocked im2col product."""
    if _fft_wgrad_pays(a, xp, k, stride):
        kq = -(-k // stride)
        xs = _phase_stack(xp, segments, stride, a.shape[1] // segments + kq - 1)
        return _phase_taps_adjoint(_fft_wgrad(a, xs, kq, segments), k, stride)
    return _im2col_wgrad(a, xp, k, stride, segments)[0]


def _wgrad_correlate(a: np.ndarray | None, xp: np.ndarray, w_mat: np.ndarray, k: int,
                     segments: int = 1, stride: int = 1):
    """(_wgrad(a, xp, k, segments, stride), None without a; _correlate(w_mat,
    xp, k, segments, stride)): a transposed or narrowing conv's weight and
    input gradients, against one padded gradient xp. Where the weight
    gradient stays on im2col, the input gradient's GEMM runs in its loop,
    on the columns it builds anyway (_im2col_wgrad)."""
    if a is None or _fft_wgrad_pays(a, xp, k, stride):
        gw = None if a is None else _wgrad(a, xp, k, segments, stride)
        return gw, _correlate(w_mat, xp, k, segments, stride)
    return _im2col_wgrad(a, xp, k, stride, segments, w_mat)


def _im2col_wgrad(a: np.ndarray, xp: np.ndarray, k: int, stride: int, segments: int = 1,
                  w_mat: np.ndarray | None = None):
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
    of input column t adds to output t*stride + j of its segment. That is the
    input gradient of a strided conv, and of a stride-1 conv or gated conv
    whose outputs the size rule keeps off the FFT product (see
    _correlate_adjoint): the adjoint of im2col. The GEMM
    runs one block of _plan at a time, so the taps of a
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
    del buf, cols  # before the phases are interleaved
    return np.swapaxes(phases, -1, -2).reshape(c, segments, -1)[..., :out_len]


def _check_stride(stride: int):
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride!r}")


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
    Every other conv is the correlation of the weights with the padded input
    at stride (_correlate): a GEMM with its im2col matrix, or with a long
    segment, a wide kernel and enough channels, an FFT product, at stride > 1
    of the input's phase stack. Its input gradient is _correlate_adjoint (a
    correlation of the padded output gradient, on the FFT product where the
    size rule takes it) and its weight gradient _wgrad.
    """
    if pad_mode not in ("zero", "reflect"):
        raise ValueError(f"unknown pad_mode {pad_mode!r}")
    _check_stride(stride)
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
        y = _correlate(w_mat, xp, k, n_seg, stride)
    if b_data is not None:
        y += b_data.reshape(-1, 1)

    def bwd(g):
        out = []
        if narrowing:
            # gcols[o*k + m, s] = g[o, s + m - (k - 1)] within each segment, zero outside g
            w_rev = w_data[:, :, ::-1].transpose(1, 0, 2).reshape(c_in, c_out * k)
            xp_w = _pad(xd, n_seg, pl, pr, pad_mode) if w_id >= 0 else None
            gw_rev, gx = _wgrad_correlate(xp_w, _pad(g, n_seg, k - 1, k - 1), w_rev, k, n_seg)
            if w_id >= 0:
                gw_rev = gw_rev.reshape(c_in, c_out, k)
                out.append((w_id, gw_rev[:, :, ::-1].transpose(1, 0, 2).copy()))
            gx = _split(gx, n_seg)
        else:
            if w_id >= 0:
                gw = _wgrad(g, _pad(xd, n_seg, pl, pr, pad_mode), k, n_seg, stride)
                out.append((w_id, gw.reshape(w_data.shape)))
            gx = _correlate_adjoint(w_mat, g, k, lp, n_seg, stride)
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

    The forward pass is polyphase: output n = q*stride + p is the stride-1
    correlation, at q, of the zero-padded input with phase p of the kernel,
    its taps p, p + stride, ... in reverse order, zero-filled to a whole
    ceil(k / stride) taps. The phases' weights are stacked into one
    (stride*c_out, c_in*ceil(k / stride)) matrix, so one _correlate computes
    them all, and their rows are interleaved into the output. Only the
    outputs that survive the crop are computed. Backward is the
    stride-``stride`` correlation of the zero-padded output gradient with
    the kernel, and the weight gradient against it (_wgrad_correlate):
    their im2col lowering, or where the size rule takes them to the FFT
    product, that of the gradient's phase stack.
    """
    _check_stride(stride)
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
    taps = -(-k // stride)
    w_mat = w_data.reshape(c_in, c_out * k)
    w_ph = _phase_taps(w_mat, k, stride).reshape(c_in, c_out, stride, taps)
    # row p*c_out + o, column c*taps + j: tap (taps - 1 - j)*stride + p of w[c, o]
    w_phases = w_ph[..., ::-1].transpose(2, 1, 0, 3).reshape(stride * c_out, c_in * taps)
    # phase outputs q0 .. q1 - 1 hold the kept raw outputs; output q of a phase
    # reads input samples q - taps + 1 .. q, zero outside the segment
    q0, q1 = cl // stride, -(-(raw - cr) // stride)
    left, right = taps - 1 - q0, q1 - length
    xs = _join(_split(xd, n_seg)[..., max(0, -left) : length - max(0, -right)])
    y = _correlate(w_phases, _pad(xs, n_seg, max(0, left), max(0, right)), taps, n_seg)
    y = y.reshape(stride, c_out, n_seg, q1 - q0).transpose(1, 2, 3, 0)
    first = cl - q0 * stride
    y = _join(y.reshape(c_out, n_seg, -1)[..., first : first + raw - cl - cr])
    if b_data is not None:
        y += b_data.reshape(-1, 1)

    def bwd(g):
        # the strided correlation of the raw output gradient: input t reads
        # raw outputs t*stride .. t*stride + k - 1
        gp = _pad(g, n_seg, cl, cr)
        gw, gx = _wgrad_correlate(xd if w_id >= 0 else None, gp, w_mat, k, n_seg, stride)
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

    The filter and gate convolutions share one reflect pad and one
    correlation (_correlate: the blocked im2col product, or at long segments
    the FFT product), with their weights stacked into one weight matrix,
    which matters because gated layers dominate the generator's cost.
    Backward takes the stacked weights too: one input gradient
    (_correlate_adjoint) and one weight gradient (_wgrad), each on the FFT
    product where the size rule takes it (the upsampler's from 400 outputs a
    segment, and its weight gradients from 1600 columns in all; the
    decoder's stay on im2col when training at segment 1600, at 100 outputs a
    segment and at most 10 segments a forward). The tape keeps the
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
    y_stack = _correlate(w_stack, _pad(xd, n_seg, pad, pad, "reflect"), k, n_seg)
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
            gw_stack = _wgrad(d_stack, _pad(xd, n_seg, pad, pad, "reflect"), k, n_seg)
            if wf_id >= 0:
                out.append((wf_id, gw_stack[:c_out].reshape(wf.shape)))
            if wg_id >= 0:
                out.append((wg_id, gw_stack[c_out:].reshape(wg.shape)))
        if bf_id >= 0:
            out.append((bf_id, d_stack[:c_out].sum(axis=1)))
        if bg_id >= 0:
            out.append((bg_id, d_stack[c_out:].sum(axis=1)))
        gxp = _correlate_adjoint(w_stack, d_stack, k, length + 2 * pad, n_seg)
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
    loss_of: Callable[[Tape], Tensor],
    params: Iterable[Parameter],
    epsilon: float = 1e-5,
    coords_per_param: int = 4,
    seed: int = 0,
) -> float:
    """Max relative error between analytic gradients and central differences.

    ``loss_of(tape)`` builds the forward pass on the tape it is given and
    returns the scalar loss; grad_check calls it with a fresh tape for the
    analytic pass and for every perturbed evaluation. Any randomness must be
    frozen inside it. Parameters and inputs should be float64 for the
    documented tolerances to be meaningful. Per coordinate the step is
    epsilon * max(1, |theta|); the error is |a - n| / max(1, |a|, |n|).
    A parameter the loss does not reach would compare a zero with a zero and
    prove nothing, so it raises ValueError.
    """
    params = list(params)
    rng = np.random.default_rng(seed)
    for p in params:
        p.zero_grad()
    tape = Tape()
    tape.backward(loss_of(tape))
    unreached = [p.name for p in params if p.grad is None]
    if unreached:
        raise ValueError(f"the loss does not reach {', '.join(unreached)}")
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
            f_plus = loss_of(Tape()).item()
            flat[i] = theta - eps
            f_minus = loss_of(Tape()).item()
            flat[i] = theta
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(analytic[id(p)].reshape(-1)[i])
            rel = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            max_rel = max(max_rel, rel)
    return max_rel
