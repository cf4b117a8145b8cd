import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from abas import autodiff as ad
from abas.autodiff import Parameter, Tape, Tensor


def leaf(tape, arr):
    return tape.tensor(np.asarray(arr, dtype=np.float64))


def conv_reference(x, w, b, stride, pad, pad_mode):
    """Direct-sum conv1d, one tap at a time; also returns the sum of the
    absolute values of the terms, the scale of the rounding error."""
    np_mode = "reflect" if pad_mode == "reflect" else "constant"
    xp = np.pad(x, ((0, 0), pad), mode=np_mode)
    k = w.shape[2]
    t = (xp.shape[1] - k) // stride + 1
    y = np.zeros((w.shape[0], t)) + b[:, None]
    scale = np.zeros_like(y) + np.abs(b)[:, None]
    for j in range(k):
        window = xp[:, j : j + (t - 1) * stride + 1 : stride]
        y += w[:, :, j] @ window
        scale += np.abs(w[:, :, j]) @ np.abs(window)
    return y, scale


@st.composite
def conv_cases(draw, extra_len=24):
    """conv1d arguments in float64: both channel orderings, so both lowerings."""
    c_in, c_out = draw(st.integers(1, 6), label="c_in"), draw(st.integers(1, 6), label="c_out")
    k, stride = draw(st.integers(1, 9), label="k"), draw(st.integers(1, 3), label="stride")
    pad_mode = draw(st.sampled_from(["zero", "reflect"]), label="pad_mode")
    pad = (draw(st.integers(0, 8), label="pad_l"), draw(st.integers(0, 8), label="pad_r"))
    min_len = max(1, k - sum(pad))
    if pad_mode == "reflect":
        min_len = max(min_len, pad[0] + 1, pad[1] + 1)
    length = draw(st.integers(min_len, min_len + extra_len), label="length")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    x = rng.standard_normal((c_in, length))
    w = rng.standard_normal((c_out, c_in, k))
    b = rng.standard_normal(c_out)
    return x, w, b, stride, pad, pad_mode, rng


class TestConv1d:
    def test_edge_detector(self):
        tape = Tape()
        y = ad.conv1d(leaf(tape, [[1.0, 2.0, 3.0]]), Parameter("w", [[[1.0, 0.0, -1.0]]]))
        assert np.allclose(y.data, [[-2.0]])

    def test_stride_two(self):
        tape = Tape()
        y = ad.conv1d(leaf(tape, [[1.0, 2.0, 3.0, 4.0]]), Parameter("w", [[[1.0, 1.0]]]), stride=2)
        assert np.allclose(y.data, [[3.0, 7.0]])

    def test_paper_shape_16000(self, rng):
        x = Tensor(rng.standard_normal((1, 16000), dtype=np.float32))
        w = Parameter("w", rng.standard_normal((32, 1, 64), dtype=np.float32))
        y = ad.conv1d(x, w, stride=2, pad=(31, 31), pad_mode="reflect")
        assert y.data.shape == (32, 8000)

    def test_length_formula(self, rng):
        for L, k, s, pl, pr in [(100, 7, 3, 2, 5), (64, 8, 2, 3, 3), (33, 65, 1, 32, 32)]:
            x = Tensor(rng.normal(size=(2, L)))
            w = Parameter("w", rng.normal(size=(3, 2, k)))
            y = ad.conv1d(x, w, stride=s, pad=(pl, pr))
            assert y.data.shape == (3, (L + pl + pr - k) // s + 1)

    def test_channel_mismatch(self, rng):
        with pytest.raises(ValueError, match="channel mismatch"):
            ad.conv1d(Tensor(np.zeros((2, 10))), Parameter("w", np.zeros((1, 3, 4))))

    def test_kernel_too_wide(self):
        with pytest.raises(ValueError, match="kernel width"):
            ad.conv1d(Tensor(np.zeros((1, 4))), Parameter("w", np.zeros((1, 1, 8))))

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one_rejected(self, stride):
        with pytest.raises(ValueError, match=f"stride must be at least 1, got {stride}$"):
            ad.conv1d(Tensor(np.zeros((1, 20))), Parameter("w", np.zeros((3, 1, 4))), stride=stride)

    def test_bias(self):
        tape = Tape()
        y = ad.conv1d(
            leaf(tape, [[1.0, 1.0]]), Parameter("w", [[[1.0]]]), Parameter("b", [2.5])
        )
        assert np.allclose(y.data, [[3.5, 3.5]])

    def test_narrowing_tapeless_memory(self, rng):
        # G.out at a vocode segment: the (64*65, 16000) im2col matrix would be 266 MB
        x = rng.standard_normal((64, 16000), dtype=np.float32)
        w = Parameter("w", rng.standard_normal((1, 64, 65), dtype=np.float32))
        tracemalloc.start()
        try:
            y = ad.conv1d(Tensor(x), w, pad=(32, 32), pad_mode="reflect")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.data.shape == (1, 16000)
        assert peak < 4 * x.nbytes, f"peak {peak} B for a {x.nbytes} B input"

    def test_narrowing_taped_memory(self, rng):
        # G.out at a training segment, reflect-padded as in the generator
        x = rng.standard_normal((64, 1600), dtype=np.float32)
        w = Parameter("w", rng.standard_normal((1, 64, 65), dtype=np.float32))
        tracemalloc.start()
        try:
            tape = Tape()
            xt = tape.tensor(x)
            tape.backward(ad.abs_mean_(ad.conv1d(xt, w, pad=(32, 32), pad_mode="reflect")))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tape.grad_of(xt).shape == x.shape
        assert peak < 4 * x.nbytes, f"peak {peak} B for a {x.nbytes} B input"

    @pytest.mark.parametrize("c_in, c_out, k, stride, pad", [(64, 1, 65, 1, 32), (32, 64, 64, 2, 31)],
                             ids=["G.out", "G.enc.down1"])
    def test_taped_reflect_pad_keeps_no_padded_copy(self, rng, c_in, c_out, k, stride, pad):
        # a reflect pad is part of the conv's one tape record, which keeps the
        # unpadded input as a zero pad's does, so after the forward the tape
        # holds no more than with a zero pad: the output, no padded copy
        x = rng.standard_normal((c_in, 1600), dtype=np.float32)
        w = Parameter("w", rng.standard_normal((c_out, c_in, k), dtype=np.float32))
        held, records = {}, {}
        for mode in ("zero", "reflect"):
            tracemalloc.start()
            try:
                tape = Tape()
                ad.conv1d(tape.tensor(x), w, stride=stride, pad=(pad, pad), pad_mode=mode)
                held[mode] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            records[mode] = len(tape.outputs())
        assert held["reflect"] < held["zero"] + 0.1 * x.nbytes, f"{held} B held, {x.nbytes} B input"
        assert records == {"zero": 1, "reflect": 1}


class TestConv1dProperties:
    @settings(max_examples=150, deadline=None)
    @given(conv_cases())
    def test_forward_matches_direct_sum(self, case):
        x, w, b, stride, pad, pad_mode, _ = case
        y = ad.conv1d(Tensor(x), Parameter("w", w), Parameter("b", b), stride, pad, pad_mode)
        ref, scale = conv_reference(x, w, b, stride, pad, pad_mode)
        assert y.data.shape == ref.shape
        assert np.all(np.abs(y.data - ref) <= 1e-12 * scale)

    @settings(max_examples=150, deadline=None)
    @given(conv_cases())
    def test_gradients_are_adjoints(self, case):
        check_conv_adjoints(case)


def check_conv_adjoints(case):
    """conv1d is linear in x and in w: <J d, g> = <d, J^T g> for each."""
    x, w, _, stride, pad, pad_mode, rng = case
    wp = Parameter("w", w)
    tape = Tape()
    xt = tape.tensor(x)
    y = ad.conv1d(xt, wp, None, stride, pad, pad_mode)
    g = rng.standard_normal(y.data.shape)
    tape.backward(ad.scale_(ad.mean_(ad.mul_(y, Tensor(g))), g.size))  # loss = <y, g>
    dx, dw = rng.standard_normal(x.shape), rng.standard_normal(w.shape)
    jx = ad.conv1d(Tensor(dx), Parameter("w", w), None, stride, pad, pad_mode).data
    jw = ad.conv1d(Tensor(x), Parameter("dw", dw), None, stride, pad, pad_mode).data
    assert float(np.vdot(jx, g)) == pytest.approx(
        float(np.vdot(dx, tape.grad_of(xt))), rel=1e-10, abs=1e-10)
    assert float(np.vdot(jw, g)) == pytest.approx(float(np.vdot(dw, wp.grad)), rel=1e-10, abs=1e-10)


# Narrowest im2col block width on the GEMM kernels' column grid (8 columns
# for OpenBLAS's AVX-512 dgemm, 16 for its small-matrix sgemm): a block that
# starts off that grid sums its last columns in another order than the
# one-GEMM product does.
SMALL_BLOCK = 16


def at_block_width(width, fn):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "IM2COL_BLOCK", width)
        return fn()


# Worst-case error of a float32 correlation output, to first order in the
# unit roundoff U, on either lowering of _correlate; both bounds are multiples
# of sum_c |w_c|_2 |x_c|_2, w_c the kernel row of channel c and x_c a window
# of that channel's input that holds every sample the output depends on.
# - im2col: a dot product of c*taps terms errs by at most gamma(c*taps) times
#   sum |w||x| (Higham 2002, eq. 3.5), and by Cauchy-Schwarz sum |w||x| is at
#   most sum_c |w_c|_2 |x_c|_2.
# - FFT product: a radix-2 FFT of N samples has normwise relative error at
#   most eps = log2(N) eta / (1 - log2(N) eta), eta = U + gamma(4) (sqrt(2) + U)
#   with twiddle factors correct to U (Higham 2002, Thm 24.2); each bin's
#   complex sum over c channels errs by sqrt(2) gamma(c + 2) of its terms.
#   The kernel's spectrum is a GEMM of its k taps with the DFT's cos and sin
#   rows (correct to U), so each bin errs by at most sqrt(2) gamma(k + 1)
#   |w|_1, and the whole spectrum by sqrt(2 N k) gamma(k + 1) |w|_2 in 2-norm,
#   where an FFT would give eps sqrt(N) |w|_2. Through the frame's transform,
#   the kernel's spectrum, the per-bin sums and the inverse transform
#   (1/sqrt(N) in 2-norm, |W|_inf <= |w|_1 <= sqrt(N) |w|_2), the error of
#   one frame's outputs has 2-norm at most
#   (2 eps + sqrt(2 k) gamma(k + 1) + sqrt(2) gamma(c + 2)) sqrt(N) sum_c |w_c|_2 |x_c|_2,
#   x_c the frame, and so does each output of it. A weight gradient
#   transforms both of its operands' frames by FFT: 3 eps in place of the
#   first two terms, with the sum over frames in place of the one over c.
U = 2.0**-24


def gamma(n):
    return n * U / (1 - n * U)


def fft_error_factor(c, frame, k=None):
    """The factor above, for a sum over c terms a bin; without k, both
    operands' spectra are FFTs (a weight gradient's)."""
    eta = U + gamma(4) * (np.sqrt(2) + U)
    eps = np.log2(frame) * eta / (1 - np.log2(frame) * eta)
    kernel = eps if k is None else np.sqrt(2 * k) * gamma(k + 1)
    return (2 * eps + kernel + np.sqrt(2) * gamma(c + 2)) * np.sqrt(frame)


def fft_wgrad_bound(a, xp, k, segments):
    """The bound above for _fft_wgrad(a, xp, k, segments), (R, c): per frame
    of hop outputs, the forward's, with the sum over channels replaced by the
    sum over every segment's frames (a frame's a zero-filled to FFT_FRAME
    samples, its xp FFT_FRAME samples)."""
    n = ad.FFT_FRAME
    hop, t = n - k + 1, a.shape[1] // segments
    frames = -(-(t + k - 1) // hop)
    scale = 0.0
    for gs, xs in zip(np.split(a.astype(np.float64), segments, axis=1),
                      np.split(xp.astype(np.float64), segments, axis=1)):
        a_frames = np.pad(gs, ((0, 0), (0, frames * hop - t))).reshape(len(gs), -1, hop)
        x_frames = sliding_window_view(
            np.pad(xs, ((0, 0), (0, (frames - 1) * hop + n - xs.shape[1]))), n, axis=1)[:, ::hop]
        scale = scale + np.linalg.norm(a_frames, axis=2) @ np.linalg.norm(x_frames, axis=2).T
    return fft_error_factor(segments * frames, n) * scale


def window_norms(x, reach):
    """|x[c, i - reach .. i + reach]|_2 for every column i of x, zero outside x."""
    sq = np.pad(x.astype(np.float64) ** 2, ((0, 0), (reach + 1, reach)))
    cs = np.cumsum(sq, axis=1)
    return np.sqrt(np.maximum(cs[:, 2 * reach + 1 :] - cs[:, : -2 * reach - 1], 0.0))


def at_fft(fn, frame=16, chunk=2):
    """fn() with every stride-1 correlation of up to frame/2 + 1 taps, and
    its input and weight gradients, on the FFT product, in frames of `frame`
    samples, `chunk` frames at a time (3 for a weight gradient), so that
    short signals span several frames and chunks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "FFT_MIN_COLUMNS", 0)
        mp.setattr(ad, "FFT_MIN_WGRAD_COLUMNS", 0)
        mp.setattr(ad, "FFT_MIN_TAPS", 1)
        mp.setattr(ad, "FFT_MIN_CHANNELS", 1)
        mp.setattr(ad, "FFT_FRAME", frame)
        mp.setattr(ad, "FFT_CHUNK", chunk)
        mp.setattr(ad, "WGRAD_FRAMES", 3)
        return fn()


def im2col(x, k, stride):
    """The whole (C*k, T) column matrix of every kernel-width window of x (C, L)."""
    win = sliding_window_view(x, k, axis=1)[:, ::stride]  # (C, T, k)
    return np.ascontiguousarray(win.transpose(0, 2, 1)).reshape(-1, win.shape[1])


def fold(cols, stride, out_len):
    """The engine's fold of a whole (C, k, T) taps array, as its stride
    phases, interleaved."""
    phases = np.zeros((cols.shape[0], stride, -(-out_len // stride)), cols.dtype)
    ad._fold_add(phases, cols, stride)
    return np.swapaxes(phases, -1, -2).reshape(cols.shape[0], -1)[:, :out_len]


def strided_scatter_add(cols, stride, out_len):
    """The adjoint of im2col as one strided add per tap, taps ascending."""
    c, taps, t = cols.shape
    out = np.zeros((c, out_len), cols.dtype)
    span = (t - 1) * stride + 1
    for j in range(taps):
        out[:, j : j + span : stride] += cols[:, j, :]
    return out


def conv_run(x, w, b, stride, pad, pad_mode, g):
    """conv1d output and its gradients w.r.t. x, w and b for the loss <y, g>."""
    wp, bp = Parameter("w", w), Parameter("b", b)
    tape = Tape()
    xt = tape.tensor(x)
    y = ad.conv1d(xt, wp, bp, stride, pad, pad_mode)
    tape.backward(ad.scale_(ad.mean_(ad.mul_(y, Tensor(g))), g.size))
    return y.data, tape.grad_of(xt), wp.grad, bp.grad


@st.composite
def gated_cases(draw):
    """gated_conv_pair arguments in float64, both gates, lengths over several blocks."""
    c_in, c_out = draw(st.integers(1, 6), label="c_in"), draw(st.integers(1, 6), label="c_out")
    pad = draw(st.integers(0, 4), label="pad")
    gate = draw(st.sampled_from(["softmax_channel", "sigmoid"]), label="gate")
    length = draw(st.integers(pad + 1, 6 * SMALL_BLOCK), label="length")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    k = 2 * pad + 1
    x = rng.standard_normal((c_in, length))
    weights = [rng.standard_normal((c_out, c_in, k)), rng.standard_normal(c_out),
               rng.standard_normal((c_out, c_in, k)), rng.standard_normal(c_out)]
    return x, weights, pad, gate, rng.standard_normal((c_out, length))


@st.composite
def segment_cases(draw):
    """A time-axis op with the shapes of its weights, and a segment count and
    per-segment length for its input; lengths run over several SMALL_BLOCK
    blocks, so blocks hold the windows of several segments."""
    kind = draw(st.sampled_from(["conv1d", "tconv1d", "gated_conv_pair", "reflect_pad"]),
                label="kind")
    c_in, c_out = draw(st.integers(1, 6), label="c_in"), draw(st.integers(1, 6), label="c_out")
    min_len = 1
    if kind == "conv1d":  # both lowerings: narrowing needs stride 1 and c_out < c_in
        k, stride = draw(st.integers(1, 9), label="k"), draw(st.integers(1, 2), label="stride")
        pad_mode = draw(st.sampled_from(["zero", "reflect"]), label="pad_mode")
        pad = (draw(st.integers(0, 8), label="pad_l"), draw(st.integers(0, 8), label="pad_r"))
        min_len = max(1, k - sum(pad))
        if pad_mode == "reflect":
            min_len = max(min_len, pad[0] + 1, pad[1] + 1)
        shapes = [(c_out, c_in, k), (c_out,)]

        def op(x, w, b):
            return ad.conv1d(x, w, b, stride, pad, pad_mode)
    elif kind == "tconv1d":
        k, stride = draw(st.integers(1, 9), label="k"), draw(st.integers(1, 2), label="stride")
        crop = (draw(st.integers(0, (k - 1) // 2), label="crop_l"),
                draw(st.integers(0, (k - 1) // 2), label="crop_r"))
        shapes = [(c_in, c_out, k), (c_out,)]

        def op(x, w, b):
            return ad.tconv1d(x, w, b, stride, crop)
    elif kind == "gated_conv_pair":
        pad = draw(st.integers(0, 4), label="pad")
        gate = draw(st.sampled_from(["softmax_channel", "sigmoid"]), label="gate")
        min_len = pad + 1
        shapes = [(c_out, c_in, 2 * pad + 1), (c_out,)] * 2

        def op(x, wf, bf, wg, bg):
            return ad.gated_conv_pair(x, wf, bf, wg, bg, pad, gate)
    else:
        left, right = draw(st.integers(0, 8), label="left"), draw(st.integers(0, 8), label="right")
        min_len = max(left, right) + 1
        shapes = []

        def op(x):
            return ad.reflect_pad(x, left, right)
    n_seg = draw(st.integers(1, 4), label="segments")
    length = draw(st.integers(min_len, min_len + 6 * SMALL_BLOCK), label="length")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    return op, shapes, c_in, n_seg, length, rng


def taped_run(op, x, weights, n_seg, g):
    """op's output on x as n_seg taped segments, the output gradient g (drawn
    from g when it is an rng) and the gradients w.r.t. x and each weight for
    the loss <y, g>, through the per-segment mean and the batch mean."""
    params = [Parameter(f"w{i}", w) for i, w in enumerate(weights)]
    tape = Tape()
    xt = tape.tensor(x, n_seg)
    y = op(xt, *params)
    if isinstance(g, np.random.Generator):
        g = g.standard_normal(y.data.shape)
    loss = ad.scale_(ad.batch_mean_(ad.mean_(ad.mul_(y, Tensor(g, segments=n_seg)))), g.size)
    tape.backward(loss)
    return y.data, g, [tape.grad_of(xt)] + [p.grad for p in params]


def gated_run(x, weights, pad, gate, g):
    """gated_conv_pair output and its gradients w.r.t. x and all four weights."""
    params = [Parameter(name, w) for name, w in zip(("wf", "bf", "wg", "bg"), weights)]
    tape = Tape()
    xt = tape.tensor(x)
    y = ad.gated_conv_pair(xt, *params, pad, gate)
    tape.backward(ad.scale_(ad.mean_(ad.mul_(y, Tensor(g))), g.size))
    return (y.data, tape.grad_of(xt), *(p.grad for p in params))


def check_taped_segments(case, lowering=lambda fn: fn()):
    """test_taped_segments_match_per_segment_tapes, with every call run
    through lowering."""
    op, shapes, c_in, n_seg, length, rng = case
    x = rng.standard_normal((c_in, n_seg * length))
    weights = [rng.standard_normal(shape) for shape in shapes]
    for wide in (False, True):
        def run():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ad, "IM2COL_BLOCK", SMALL_BLOCK)
                if wide:
                    mp.setattr(ad, "SMALL_GEMM_MACS", 0)
                y, g_out, grads = taped_run(op, x, weights, n_seg, rng)
                per = [taped_run(op, x[:, i * length : (i + 1) * length], weights, 1, g)
                       for i, g in enumerate(np.split(g_out, n_seg, axis=1))]
            return y, grads, per

        y, grads, per = lowering(run)
        if not wide:
            assert np.array_equal(y, np.concatenate([p[0] for p in per], axis=1))
        want = [np.concatenate([p[2][0] for p in per], axis=1)]
        want += [sum(p[2][j] for p in per) for j in range(1, len(grads))]
        for got, ref in zip(grads, want):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestIm2colBlocks:
    """The blocked im2col product gives the bits of the one-GEMM product."""

    @settings(max_examples=150, deadline=None)
    @given(conv_cases(extra_len=6 * SMALL_BLOCK))
    def test_conv1d_blocks_invisible(self, case):
        x, w, b, stride, pad, pad_mode, rng = case
        t_out = (x.shape[1] + sum(pad) - w.shape[2]) // stride + 1
        g = rng.standard_normal((w.shape[0], t_out))
        whole = conv_run(x, w, b, stride, pad, pad_mode, g)
        blocked = at_block_width(SMALL_BLOCK, lambda: conv_run(x, w, b, stride, pad, pad_mode, g))
        for a, b_ in zip(whole, blocked):
            assert np.array_equal(a, b_)

    @settings(max_examples=150, deadline=None)
    @given(gated_cases())
    def test_gated_conv_pair_blocks_invisible(self, case):
        whole = gated_run(*case)
        blocked = at_block_width(SMALL_BLOCK, lambda: gated_run(*case))
        for a, b in zip(whole, blocked):
            assert np.array_equal(a, b)

    def test_full_size_float32(self, rng):
        # an upsampler gated conv at a vocode segment (32 ch, L 16000, k 65,
        # filter and gate stacked) and G.enc.down1 (stride 2), at this
        # process's BLAS thread count
        x = rng.standard_normal((32, 16000), dtype=np.float32)
        xp = np.pad(x, ((0, 0), (32, 32)), mode="reflect")
        w = rng.standard_normal((64, 32 * 65), dtype=np.float32)
        assert np.array_equal(ad._im2col_matmul(w, xp, 65, 1), w @ im2col(xp, 65, 1))
        x2 = rng.standard_normal((32, 8000), dtype=np.float32)
        w2 = rng.standard_normal((64, 32, 64), dtype=np.float32)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ad, "FFT_MIN_COLUMNS", 10**9)  # at 4000 outputs it takes the FFT product
            y = ad.conv1d(Tensor(x2), w2, stride=2, pad=(31, 31))
        ref = w2.reshape(64, -1) @ im2col(np.pad(x2, ((0, 0), (31, 31))), 64, 2)
        assert np.array_equal(y.data, ref)

    @settings(max_examples=200, deadline=None)
    @given(segment_cases())
    def test_segments_match_per_segment_calls(self, case):
        """A segment-major call equals the calls on each segment, concatenated.

        Twice: as the engine runs (this case's GEMMs are all small, so each
        segment gets its own GEMM), and with wide GEMMs forced on data of small
        integers, whose sums are exact in any order, so that where every
        segment's terms land is checked apart from the order BLAS sums them in."""
        op, shapes, c_in, n_seg, length, rng = case
        for wide in (False, True):
            if wide:
                def values(shape):
                    return rng.integers(-3, 4, shape).astype(np.float64)
            else:
                values = rng.standard_normal
            x = values((c_in, n_seg * length))
            weights = [values(shape) for shape in shapes]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ad, "IM2COL_BLOCK", SMALL_BLOCK)
                if wide:
                    mp.setattr(ad, "SMALL_GEMM_MACS", 0)
                y = op(Tensor(x, segments=n_seg), *weights)
                per = [op(Tensor(x[:, i * length : (i + 1) * length]), *weights).data
                       for i in range(n_seg)]
            assert y.data.ndim == 2 and y.segments == n_seg
            assert np.array_equal(y.data, np.concatenate(per, axis=1))

    @settings(max_examples=150, deadline=None)
    @given(segment_cases())
    def test_taped_segments_match_per_segment_tapes(self, case):
        """A taped segment-major call gives the per-segment tapes' outputs bit
        for bit, and the sums of their gradients up to rounding, in float64:
        as the engine runs, and with every GEMM wide and every backward
        blocked in SMALL_BLOCK columns, so that blocks cross segment edges."""
        check_taped_segments(case)

    def test_full_size_segments_float32(self, rng):
        # G.enc.down0 at segment 528 (its one-segment GEMM is small, so each
        # segment gets its own) and at 1600 (one wide GEMM), and a decoder
        # gated conv at segment 1600 (100 columns a segment, one wide GEMM)
        w = rng.standard_normal((32, 1, 64), dtype=np.float32)
        wf, wg = (rng.standard_normal((64, 64, 65), dtype=np.float32) for _ in range(2))
        for op, c, length in [
            (lambda x: ad.conv1d(x, w, stride=2, pad=(31, 31), pad_mode="reflect"), 1, 528),
            (lambda x: ad.conv1d(x, w, stride=2, pad=(31, 31), pad_mode="reflect"), 1, 1600),
            (lambda x: ad.gated_conv_pair(x, wf, None, wg, None, 32), 64, 100),
        ]:
            x = rng.standard_normal((c, 3 * length), dtype=np.float32)
            y = op(Tensor(x, segments=3)).data
            per = [op(Tensor(x[:, i * length : (i + 1) * length])).data for i in range(3)]
            assert np.array_equal(y, np.concatenate(per, axis=1))

    def test_tconv1d_blocks_invisible_full_size(self, rng):
        # G.up.stage3.tconv at a 1 s segment. On im2col (FFT product off), the
        # phases' stacked GEMM runs in column blocks and gives the bits of one
        # GEMM of the phase-stacked weights, interleaved; on either lowering
        # the forward holds a fraction of the (32*66, 8000) taps matrix
        x = rng.standard_normal((64, 8000), dtype=np.float32)
        w = rng.standard_normal((64, 32, 66), dtype=np.float32)
        # row p*32 + o, column c*33 + j: tap (32 - j)*2 + p of w[c, o]
        w_phases = np.stack([w[:, :, p::2][:, :, ::-1] for p in range(2)])
        w_phases = w_phases.transpose(0, 2, 1, 3).reshape(64, 64 * 33)
        # crop 32 keeps phase outputs 16 .. 8015, which read x[-16 .. 8015]
        ref = w_phases @ im2col(np.pad(x, ((0, 0), (16, 16))), 33, 1)
        ref = ref.reshape(2, 32, 8000).transpose(1, 2, 0).reshape(32, 16000)
        taps_nbytes = 32 * 66 * 8000 * 4
        for fft in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                if not fft:
                    mp.setattr(ad, "FFT_MIN_COLUMNS", 10**9)
                tracemalloc.start()
                try:
                    y = ad.tconv1d(Tensor(x), w, stride=2, crop=(32, 32)).data
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            if not fft:
                assert np.array_equal(y, ref)
            assert peak < taps_nbytes / 3, f"peak {peak} B for {taps_nbytes} B of taps (fft {fft})"

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("taps", [4, 5, 64, 65])
    def test_fold_matches_strided_scatter_add(self, rng, stride, taps):
        cols = rng.standard_normal((3, taps, 50), dtype=np.float32)
        raw = 49 * stride + taps
        for out_len in (raw, raw + stride - 1):
            assert np.array_equal(fold(cols, stride, out_len),
                                  strided_scatter_add(cols, stride, out_len))


class TestFftCorrelation:
    """The FFT product of _correlate: where the size rule takes it, that it
    keeps each segment's bits, and how far it is from the im2col product."""

    @pytest.mark.parametrize("t_seg, segments, fft", [(49, 1, False), (49, 6, False),
                                                      (50, 1, True), (50, 3, True)])
    def test_size_rule_reads_per_segment_length(self, monkeypatch, rng, t_seg, segments, fft):
        monkeypatch.setattr(ad, "FFT_MIN_COLUMNS", 50)
        calls = []
        real = ad._fft_correlate
        monkeypatch.setattr(ad, "_fft_correlate", lambda *a: calls.append(a) or real(*a))
        k = ad.FFT_FRAME // 2 + 1
        c = ad.FFT_MIN_CHANNELS
        xp = rng.standard_normal((c, segments * (t_seg + k - 1)), dtype=np.float32)
        y = ad._correlate(rng.standard_normal((c, c * k), dtype=np.float32), xp, k, segments)
        assert y.shape == (c, segments * t_seg) and len(calls) == int(fft)

    @pytest.mark.parametrize("k, t_seg, fft", [(65, 49, False), (65, 50, True), (33, 98, False),
                                               (33, 99, True), (31, 10**4, False)])
    def test_size_rule_scales_with_taps(self, monkeypatch, k, t_seg, fft):
        # from FFT_MIN_COLUMNS outputs at 65 taps, from 65/k times as many at k taps
        monkeypatch.setattr(ad, "FFT_MIN_COLUMNS", 50)
        c = ad.FFT_MIN_CHANNELS
        assert ad._fft_pays(t_seg, k, c, c) == fft

    @pytest.mark.parametrize("c_in, fft", [(1, False), (32, True)], ids=["down0", "down1"])
    def test_size_rule_has_a_channel_floor(self, monkeypatch, rng, c_in, fft):
        # the encoder's stride-2 convs at one 16000-sample segment: 32 taps a
        # phase and thousands of outputs, but down0's phase stack has only 2
        # channels, below FFT_MIN_CHANNELS
        few, enough = ad.FFT_MIN_CHANNELS - 1, ad.FFT_MIN_CHANNELS
        assert not ad._fft_pays(10**6, 65, few, enough) and not ad._fft_pays(10**6, 65, enough, few)
        calls = []
        real = ad._fft_correlate
        monkeypatch.setattr(ad, "_fft_correlate", lambda *a: calls.append(a) or real(*a))
        x = rng.standard_normal((c_in, 16000 >> (c_in > 1)), dtype=np.float32)
        w = rng.standard_normal((64, c_in, 64), dtype=np.float32)
        ad.conv1d(Tensor(x), w, None, 2, (31, 31), "reflect")
        assert len(calls) == int(fft)

    @pytest.mark.parametrize("t_seg, segments, fft", [(33, 3, False), (25, 4, True), (100, 1, True)])
    def test_weight_gradient_rule_reads_all_columns(self, monkeypatch, rng, t_seg, segments, fft):
        # a weight gradient sums over segments, so its rule reads them all
        monkeypatch.setattr(ad, "FFT_MIN_WGRAD_COLUMNS", 100)
        calls = []
        real = ad._fft_wgrad
        monkeypatch.setattr(ad, "_fft_wgrad", lambda *a: calls.append(a) or real(*a))
        k = ad.FFT_FRAME // 2 + 1
        c = ad.FFT_MIN_CHANNELS
        a = rng.standard_normal((c, segments * t_seg), dtype=np.float32)
        xp = rng.standard_normal((c, segments * (t_seg + k - 1)), dtype=np.float32)
        assert ad._wgrad(a, xp, k, segments).shape == (c, c * k) and len(calls) == int(fft)

    def test_wide_kernels_stay_on_im2col(self, monkeypatch, rng):
        monkeypatch.setattr(ad, "FFT_MIN_COLUMNS", 1)
        monkeypatch.setattr(ad, "_fft_correlate", None)
        k = ad.FFT_FRAME // 2 + 2  # a frame would give fewer outputs than it has samples / 2
        xp = rng.standard_normal((1, 300), dtype=np.float32)
        assert ad._correlate(rng.standard_normal((1, k), dtype=np.float32), xp, k).shape == (1, 301 - k)

    @settings(max_examples=150, deadline=None)
    @given(segment_cases())
    def test_segments_match_per_segment_calls(self, case):
        # every op's correlations on the FFT product, in float32
        op, shapes, c_in, n_seg, length, rng = case
        x = rng.standard_normal((c_in, n_seg * length)).astype(np.float32)
        weights = [rng.standard_normal(shape).astype(np.float32) for shape in shapes]

        def run():
            y = op(Tensor(x, segments=n_seg), *weights).data
            return y, [op(Tensor(x[:, i * length : (i + 1) * length]), *weights).data
                       for i in range(n_seg)]

        y, per = at_fft(run)
        assert np.array_equal(y, np.concatenate(per, axis=1))

    @settings(max_examples=150, deadline=None)
    @given(segment_cases())
    def test_taped_segments_match_per_segment_tapes(self, case):
        # as TestIm2colBlocks', with every stride-1 correlation, input
        # gradient and weight gradient on the FFT product
        check_taped_segments(case, at_fft)

    @settings(max_examples=150, deadline=None)
    @given(conv_cases())
    def test_gradients_are_adjoints(self, case):
        # as TestConv1dProperties', on the FFT product
        at_fft(lambda: check_conv_adjoints(case))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_within_float32_bound_of_im2col(self, data):
        rows, c = data.draw(st.integers(1, 8), label="rows"), data.draw(st.integers(1, 8), label="c")
        k, t_seg = data.draw(st.integers(1, 9), label="k"), data.draw(st.integers(1, 80), label="t")
        n_seg = data.draw(st.integers(1, 3), label="segments")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        lp = t_seg + k - 1
        xp = rng.standard_normal((c, n_seg * lp)).astype(np.float32)
        w = rng.standard_normal((rows, c * k)).astype(np.float32)
        y = at_fft(lambda: ad._fft_correlate(w, xp, k, n_seg))
        ref = ad._im2col_matmul(w, xp, k, 1, n_seg)
        frame = 16  # at_fft's
        w_norms = np.linalg.norm(w.reshape(rows, c, k).astype(np.float64), axis=2)
        # a window of 2*frame + k samples about an output holds its frame and its taps
        scale = np.concatenate([w_norms @ window_norms(xs, frame + k)[:, :t_seg]
                                for xs in np.split(xp, n_seg, axis=1)], axis=1)
        bound = (fft_error_factor(c, frame, k) + gamma(c * k)) * scale
        assert np.all(np.abs(y.astype(np.float64) - ref) <= bound)


class TestFftBackward:
    """Training on the FFT product: an up-stage gated conv pair's stacked
    correlation (filter and gate, 64 rows, 32 channels, k 65) at 8 segments
    of 1600, its forward, input gradient and both weight gradients, in
    float32 against float64 direct sums within the bounds stated above U;
    and taped segments whose input gradients keep their bits."""

    ROWS, C, K, T, S = 64, 32, 65, 1600, 8

    @pytest.fixture
    def case(self, rng):
        x = rng.standard_normal((self.C, self.S * self.T), dtype=np.float32)
        xp = ad._pad(x, self.S, self.K // 2, self.K // 2, "reflect")
        w = (rng.standard_normal((self.ROWS, self.C * self.K))
             / np.sqrt(self.C * self.K)).astype(np.float32)
        g = rng.standard_normal((self.ROWS, self.S * self.T), dtype=np.float32)
        lp = self.T + self.K - 1
        assert ad._fft_pays(self.T, self.K, self.ROWS, self.C)
        assert ad._fft_pays(lp, self.K, self.C, self.ROWS)
        assert ad._fft_pays(self.S * self.T, self.K, self.ROWS, self.C, ad.FFT_MIN_WGRAD_COLUMNS)
        return xp, w, g

    def test_forward(self, case):
        xp, w, _ = case
        y = ad._correlate(w, xp, self.K, self.S)
        w_norms = np.linalg.norm(w.reshape(self.ROWS, self.C, self.K).astype(np.float64), axis=2)
        reach = ad.FFT_FRAME + self.K  # about an output: its frame and its taps
        for s, xs in enumerate(np.split(xp.astype(np.float64), self.S, axis=1)):
            ref = w.astype(np.float64) @ im2col(xs, self.K, 1)
            bound = fft_error_factor(self.C, ad.FFT_FRAME, self.K) * (
                w_norms @ window_norms(xs, reach)[:, : self.T])
            err = np.abs(y[:, s * self.T : (s + 1) * self.T] - ref)
            assert np.all(err <= bound), f"worst {np.max(err / bound):.3g} of the bound"

    def test_input_gradient(self, case):
        # a correlation of the output gradient, zero-padded by k - 1, with the
        # flipped, transposed kernels: c = ROWS channels, C rows
        _, w, g = case
        k, lp = self.K, self.T + self.K - 1
        gx = ad._correlate_adjoint(w, g, k, lp, self.S)
        w64 = w.astype(np.float64)
        w_norms = np.linalg.norm(w64.reshape(self.ROWS, self.C, k), axis=2).T
        for s, gs in enumerate(np.split(g.astype(np.float64), self.S, axis=1)):
            ref = strided_scatter_add((w64.T @ gs).reshape(self.C, k, self.T), 1, lp)
            gp = np.pad(gs, ((0, 0), (k - 1, k - 1)))
            bound = fft_error_factor(self.ROWS, ad.FFT_FRAME, k) * (
                w_norms @ window_norms(gp, ad.FFT_FRAME + k)[:, :lp])
            err = np.abs(gx[:, s] - ref)
            assert np.all(err <= bound), f"worst {np.max(err / bound):.3g} of the bound"

    def test_weight_gradients(self, case):
        xp, _, g = case
        k = self.K
        gw = ad._wgrad(g, xp, k, self.S).reshape(self.ROWS, self.C, k)
        ref = sum(gs @ im2col(xs, k, 1).T for gs, xs in zip(
            np.split(g.astype(np.float64), self.S, axis=1),
            np.split(xp.astype(np.float64), self.S, axis=1))).reshape(self.ROWS, self.C, k)
        bound = fft_wgrad_bound(g, xp, k, self.S)[:, :, None]
        for name, rows in (("filter", slice(0, self.ROWS // 2)), ("gate", slice(self.ROWS // 2, None))):
            err = np.abs(gw[rows] - ref[rows])
            assert np.all(err <= bound[rows]), f"{name}: worst {np.max(err / bound[rows]):.3g} of the bound"

    @pytest.mark.parametrize("kind", ["gated_conv_pair", "conv1d"])
    def test_taped_segments_keep_input_gradient_bits(self, rng, kind):
        # 3 segments of 800 at 32 channels and k 65: the forward and the input
        # gradient take the FFT product, segment by segment
        def draw():
            return rng.standard_normal((32, 32, 65), dtype=np.float32) / 40

        if kind == "gated_conv_pair":
            weights = [draw(), draw()]

            def op(x, wf, wg):
                return ad.gated_conv_pair(x, wf, None, wg, None, 32)
        else:
            weights = [draw()]

            def op(x, w):
                return ad.conv1d(x, w, None, 1, (32, 32), "zero")
        assert ad._fft_pays(800, 65, 32, 32) and ad._fft_pays(864, 65, 32, 32)
        x = rng.standard_normal((32, 3 * 800), dtype=np.float32)
        y, g_out, grads = taped_run(op, x, weights, 3, rng)
        per = [taped_run(op, x[:, i * 800 : (i + 1) * 800], weights, 1, g)
               for i, g in enumerate(np.split(g_out, 3, axis=1))]
        assert np.array_equal(y, np.concatenate([p[0] for p in per], axis=1))
        assert np.array_equal(grads[0], np.concatenate([p[2][0] for p in per], axis=1))
        for j in range(1, len(grads)):
            ref = sum(p[2][j] for p in per)
            assert np.max(np.abs(grads[j] - ref)) <= 1e-4 * np.max(np.abs(ref))


class TestPhaseStack:
    """Strided convs and transposed convs' backward at full size in float32
    against float64 direct sums, within the bounds stated above U: on the
    FFT product of their phase stacks, and on im2col."""

    @staticmethod
    def backward(op, x, weights, n_seg, g):
        """op's output on x as n_seg taped segments, and its backward for the
        output gradient g: the gradients w.r.t. x and each weight."""
        params = [Parameter(f"w{i}", w) for i, w in enumerate(weights)]
        tape = Tape()
        xt = tape.tensor(x, n_seg)
        y = op(xt, *params)
        grads = dict(tape._records[-1][3](g))
        return y.data, grads[xt.node_id], [grads[tape.leaf(p).node_id] for p in params]

    @staticmethod
    def stack(x, stride):
        """The phase stack of x (c, L), L a multiple of stride: row c*stride + p
        holds x[c, p::stride]."""
        c, n = x.shape
        return x.reshape(c, n // stride, stride).transpose(0, 2, 1).reshape(c * stride, -1)

    def test_encoder_down1_forward(self, rng):
        # G.enc.down1 (32 -> 64 channels, k 64, stride 2, reflect pad 31) at
        # one 8000-sample segment: 64 phase channels of 32 taps, 4000
        # outputs, on the FFT product
        x = rng.standard_normal((32, 8000), dtype=np.float32)
        w = (rng.standard_normal((64, 32, 64)) / np.sqrt(32 * 64)).astype(np.float32)
        assert ad._fft_pays(4000, 32, 64, 64)
        y = ad.conv1d(Tensor(x), w, None, 2, (31, 31), "reflect").data
        x64, w64 = x.astype(np.float64), w.astype(np.float64)
        ref, _ = conv_reference(x64, w64, np.zeros(64), 2, (31, 31), "reflect")
        stack = self.stack(np.pad(x64, ((0, 0), (31, 31)), mode="reflect"), 2)  # (64, 4031)
        w_norms = np.linalg.norm(self.stack(w64.reshape(-1, 64), 2).reshape(64, 64, 32), axis=2)
        reach = ad.FFT_FRAME + 32  # about an output: its frame and its taps
        bound = fft_error_factor(64, ad.FFT_FRAME, 32) * (
            w_norms @ window_norms(stack, reach)[:, :4000])
        err = np.abs(y - ref)
        assert np.all(err <= bound), f"worst {np.max(err / bound):.3g} of the bound"

    def test_discriminator_layer1_backward(self, rng):
        # D.layer1 (16 -> 16 channels, k 32, stride 2, zero pad 15) at 16
        # segments of 800: its phase stack would have 16 taps, too few for
        # the FFT product, so all on im2col; the weight gradient sums 16 x
        # 400 columns
        S, T, K = 16, 400, 32
        x = rng.standard_normal((16, S * 800), dtype=np.float32)
        w = (rng.standard_normal((16, 16, K)) / np.sqrt(16 * K)).astype(np.float32)
        g = rng.standard_normal((16, S * T), dtype=np.float32)
        assert not ad._fft_pays(S * T, K // 2, 16, 32, ad.FFT_MIN_WGRAD_COLUMNS)
        y, gx, (gw,) = self.backward(lambda t, wp: ad.conv1d(t, wp, None, 2, (15, 15)), x, [w], S, g)
        xp = np.pad(x.astype(np.float64).reshape(16, S, 800), ((0, 0), (0, 0), (15, 15)))
        w64, g64 = w.astype(np.float64), g.astype(np.float64).reshape(16, S, T)
        win = sliding_window_view(xp, K, axis=2)[:, :, ::2]  # (c, S, T, k)
        ref_y = np.einsum("ocj,cstj->ost", w64, win).reshape(16, -1)
        scale_y = np.einsum("ocj,cstj->ost", np.abs(w64), np.abs(win)).reshape(16, -1)
        assert np.all(np.abs(y - ref_y) <= gamma(16 * K) * scale_y)
        ref_gw = np.einsum("ost,cstj->ocj", g64, win)
        scale_gw = np.einsum("ost,cstj->ocj", np.abs(g64), np.abs(win))
        assert np.all(np.abs(gw - ref_gw) <= gamma(S * T) * scale_gw)
        # the input gradient: each output sums 16 channels in the GEMM, then
        # 16 taps in the fold
        ref_gx = np.zeros((16, S, 830))
        scale_gx = np.zeros((16, S, 830))
        for j in range(K):
            ref_gx[:, :, j : j + 2 * T - 1 : 2] += np.einsum("oc,ost->cst", w64[:, :, j], g64)
            scale_gx[:, :, j : j + 2 * T - 1 : 2] += np.einsum(
                "oc,ost->cst", np.abs(w64[:, :, j]), np.abs(g64))
        err = np.abs(gx.reshape(16, S, 800) - ref_gx[:, :, 15:815])
        assert np.all(err <= gamma(16 + K // 2) * scale_gx[:, :, 15:815])

    def test_upsampler_stage3_tconv_backward(self, rng):
        # G.up.stage3.tconv (64 -> 32 channels, k 66, stride 2, crop 32) at 8
        # segments of 800 inputs: the output gradient's phase stack (64
        # channels, 832 samples a segment) correlated with the 33 phase taps
        # gives the input gradient, and the weight gradient over 6400
        # columns; both on the FFT product
        S, L, K = 8, 800, 66
        x = rng.standard_normal((64, S * L), dtype=np.float32)
        w = (rng.standard_normal((64, 32, K)) / np.sqrt(64 * 33)).astype(np.float32)
        g = rng.standard_normal((32, S * 2 * L), dtype=np.float32)
        assert ad._fft_pays(L, 33, 64, 64)
        assert ad._fft_pays(S * L, 33, 64, 64, ad.FFT_MIN_WGRAD_COLUMNS)
        _, gx, (gw,) = self.backward(lambda t, wp: ad.tconv1d(t, wp, None, 2, (32, 32)), x, [w], S, g)
        x64, w64 = x.astype(np.float64).reshape(64, S, L), w.astype(np.float64)
        graw = np.pad(g.astype(np.float64).reshape(32, S, 2 * L), ((0, 0), (0, 0), (32, 32)))
        win = sliding_window_view(graw, K, axis=2)[:, :, ::2]  # (o, S, L, k): raw 2t .. 2t + 65
        ref_gx = np.einsum("coj,ostj->cst", w64, win)
        ref_gw = np.einsum("cst,ostj->coj", x64, win)
        # the bounds of the phase-stacked problems, segment by segment
        stacks = [self.stack(graw[:, s], 2) for s in range(S)]  # (64, 832)
        w_ph = self.stack(w64.reshape(-1, K), 2).reshape(64, 64, 33)  # [c, o*2 + p, q]
        w_norms = np.linalg.norm(w_ph, axis=2)
        reach = ad.FFT_FRAME + 33
        for s, gs in enumerate(stacks):
            bound = fft_error_factor(64, ad.FFT_FRAME, 33) * (
                w_norms @ window_norms(gs, reach)[:, :L])
            err = np.abs(gx.reshape(64, S, L)[:, s] - ref_gx[:, s])
            assert np.all(err <= bound), f"segment {s}: worst {np.max(err / bound):.3g} of the bound"
        bound = fft_wgrad_bound(x, np.concatenate(stacks, axis=1), 33, S)  # (c, o*2 + p)
        # to tap 2q + p of w[c, o]
        bound = np.broadcast_to(bound.reshape(64, 32, 1, 2), (64, 32, 33, 2)).reshape(64, 32, K)
        err = np.abs(gw - ref_gw)
        assert np.all(err <= bound), f"worst {np.max(err / bound):.3g} of the bound"


class TestTconv1d:
    def test_single_tap(self):
        tape = Tape()
        y = ad.tconv1d(leaf(tape, [[1.0]]), Parameter("w", [[[1.0, 2.0]]]), stride=2)
        assert np.allclose(y.data, [[1.0, 2.0]])

    def test_disjoint_copies(self):
        tape = Tape()
        y = ad.tconv1d(leaf(tape, [[1.0, 1.0]]), Parameter("w", [[[1.0, 1.0]]]), stride=2)
        assert np.allclose(y.data, [[1.0, 1.0, 1.0, 1.0]])

    def test_doubling_length(self, rng):
        x = Tensor(rng.standard_normal((64, 1000), dtype=np.float32))
        w = Parameter("w", rng.standard_normal((64, 32, 66), dtype=np.float32))
        y = ad.tconv1d(x, w, stride=2, crop=(32, 32))
        assert y.data.shape == (32, 2000)

    @pytest.mark.parametrize("c_in", [64, 32], ids=["G.up.stage3.tconv", "G.up.noise3"])
    def test_full_size_float32(self, rng, c_in):
        # at a 1 s segment (8000 inputs), where the engine takes the FFT
        # product, against a float64 direct sum, within the worst-case bound
        # stated above U, with c = c_in and 33 taps a phase; each output's
        # window reaches an FFT frame beyond its taps
        x = rng.standard_normal((c_in, 8000), dtype=np.float32)
        w = (rng.standard_normal((c_in, 32, 66)) / np.sqrt(c_in * 33)).astype(np.float32)
        y = ad.tconv1d(Tensor(x), w, stride=2, crop=(32, 32)).data
        x64, w64 = x.astype(np.float64), w.astype(np.float64)
        raw = np.zeros((32, 7999 * 2 + 66))
        for j in range(66):
            raw[:, j : j + 7999 * 2 + 1 : 2] += w64[:, :, j].T @ x64
        ref = raw[:, 32:-32]
        # output n = 2q + p - 32 reads x[q - 32 .. q]
        q = (np.arange(16000) + 32) // 2
        reach = ad.FFT_FRAME + 33
        scale = np.linalg.norm(w64, axis=2).T @ window_norms(x, reach)[:, np.minimum(q, 7999)]
        bound = max(gamma(c_in * 33), fft_error_factor(c_in, ad.FFT_FRAME, 33)) * scale
        err = np.abs(y - ref)
        assert np.all(err <= bound), f"worst {np.max(err / bound):.3g} of the bound"

    def test_overlap_add(self):
        tape = Tape()
        y = ad.tconv1d(leaf(tape, [[1.0, 1.0]]), Parameter("w", [[[1.0, 1.0, 1.0]]]), stride=2)
        assert np.allclose(y.data, [[1.0, 1.0, 2.0, 1.0, 1.0]])

    def test_crop_too_large(self):
        with pytest.raises(ValueError, match="crop"):
            ad.tconv1d(Tensor(np.zeros((1, 2))), Parameter("w", np.zeros((1, 1, 2))), stride=2, crop=(2, 2))

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            ad.tconv1d(Tensor(np.zeros((2, 4))), Parameter("w", np.zeros((3, 1, 2))))

    @pytest.mark.parametrize("stride", [0, -1])
    def test_stride_below_one_rejected(self, stride):
        with pytest.raises(ValueError, match=f"stride must be at least 1, got {stride}$"):
            ad.tconv1d(Tensor(np.zeros((1, 4))), Parameter("w", np.zeros((1, 1, 2))), stride=stride)


class TestAdjointIdentity:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_conv_tconv_inner_products(self, data):
        c_in, c_out = data.draw(st.integers(1, 6), label="c_in"), data.draw(st.integers(1, 6), label="c_out")
        k, s = data.draw(st.integers(1, 9), label="k"), data.draw(st.integers(1, 3), label="stride")
        t = data.draw(st.integers(2, 9), label="t")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        lx = (t - 1) * s + k
        x = rng.normal(size=(c_in, lx))
        w = rng.normal(size=(c_out, c_in, k))
        y = rng.normal(size=(c_out, t))
        conv = ad.conv1d(Tensor(x), Parameter("w", w), stride=s)
        tconv = ad.tconv1d(Tensor(y), Parameter("w", w), stride=s)
        lhs = float(np.vdot(conv.data, y))
        rhs = float(np.vdot(x, tconv.data))
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)


class TestReflectPad:
    def test_mirror(self):
        y = ad.reflect_pad(Tensor(np.array([[1.0, 2.0, 3.0]])), 2, 2)
        assert np.allclose(y.data, [[3.0, 2.0, 1.0, 2.0, 3.0, 2.0, 1.0]])

    def test_identity(self, rng):
        x = rng.normal(size=(2, 5))
        assert np.array_equal(ad.reflect_pad(Tensor(x), 0, 0).data, x)

    def test_gradient_folding(self):
        # gradient of sum after pad(2,2) on [1,2,3]: middle sample receives 3
        tape = Tape()
        x = leaf(tape, [[1.0, 2.0, 3.0]])
        y = ad.reflect_pad(x, 2, 2)
        loss = ad.scale_(ad.mean_(y), 7.0)  # sum = 7 * mean over 7 entries
        tape.backward(loss)
        assert np.allclose(tape.grad_of(x), [[2.0, 3.0, 2.0]])

    def test_max_legal_pad_gradient(self):
        tape = Tape()
        x = leaf(tape, [[1.0, 2.0, 3.0]])
        y = ad.reflect_pad(x, 2, 2)
        assert y.data.shape == (1, 7)

    def test_pad_too_large(self):
        with pytest.raises(ValueError, match="pad"):
            ad.reflect_pad(Tensor(np.zeros((1, 3))), 3, 0)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_adjoint_identity(self, data):
        # <pad(x), g> = <x, pad^T(g)>, pad^T being the backward of reflect_pad
        c = data.draw(st.integers(1, 4), label="C")
        length = data.draw(st.integers(2, 48), label="L")
        left = data.draw(st.integers(0, length - 1), label="left")
        right = data.draw(st.integers(0, length - 1), label="right")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x = rng.standard_normal((c, length))
        g = rng.standard_normal((c, length + left + right))
        tape = Tape()
        xt = tape.tensor(x)
        y = ad.reflect_pad(xt, left, right)
        tape.backward(ad.scale_(ad.mean_(ad.mul_(y, Tensor(g))), g.size))  # loss = <y, g>
        lhs = float(np.vdot(y.data, g))
        rhs = float(np.vdot(x, tape.grad_of(xt)))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestChannelSoftmax:
    def test_equal_logits(self):
        y = ad.channel_softmax(Tensor(np.zeros((2, 5))))
        assert np.allclose(y.data, 0.5)

    def test_log3_column(self):
        y = ad.channel_softmax(Tensor(np.array([[0.0], [np.log(3.0)]])))
        assert np.allclose(y.data, [[0.25], [0.75]])

    def test_single_channel(self, rng):
        y = ad.channel_softmax(Tensor(rng.normal(size=(1, 9))))
        assert np.allclose(y.data, 1.0)

    def test_columns_sum_to_one(self, rng):
        y = ad.channel_softmax(Tensor(rng.normal(size=(7, 13)) * 30))
        assert np.allclose(y.data.sum(axis=0), 1.0, atol=1e-6)
        assert np.all((y.data >= 0) & (y.data <= 1))


class TestGatedConvPair:
    @pytest.mark.parametrize("kind", ["softmax", "Sigmoid", "sigmoid ", ""])
    def test_unknown_gate_kind_rejected(self, rng, kind):
        w = rng.normal(size=(2, 3, 5))
        with pytest.raises(ValueError, match=f"unknown gate kind {kind!r}"):
            ad.gated_conv_pair(Tensor(rng.normal(size=(3, 12))), w, None, w, None, 2, kind)

    def test_tapeless_memory(self, rng):
        # an upsampler gated conv at a vocode segment: its whole (32*65, 16000)
        # im2col matrix would be 65 times the input
        x = rng.standard_normal((32, 16000), dtype=np.float32)
        w = rng.standard_normal((32, 32, 65), dtype=np.float32)
        tracemalloc.start()
        try:
            y = ad.gated_conv_pair(Tensor(x), w, None, w, None, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.data.shape == x.shape
        assert peak < 16 * x.nbytes, f"peak {peak} B for a {x.nbytes} B input"

    @pytest.mark.parametrize("gate", ["softmax_channel", "sigmoid"])
    def test_taped_forward_keeps_no_column_matrix(self, rng, gate):
        # the tape keeps the unpadded input, the output and the activations the
        # backward pass reads: a few input-sized arrays, not 65 of them
        x = rng.standard_normal((32, 16000), dtype=np.float32)
        w = Parameter("w", rng.standard_normal((32, 32, 65), dtype=np.float32))
        tracemalloc.start()
        try:
            tape = Tape()
            y = ad.gated_conv_pair(tape.tensor(x), w, None, w, None, 32, gate)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert y.data.shape == x.shape
        assert held < 6 * x.nbytes, f"{held} B held for a {x.nbytes} B input"


class TestBlockedBackward:
    """A taped forward plus backward never holds the whole column matrix of
    its GEMMs (k times the input): each IM2COL_BLOCK-column block rebuilds its
    own slice. Every peak stays under a quarter of that matrix, which an
    unblocked backward would allocate whole. The shapes span 12 to 16 blocks:
    the last block takes the remainder, up to twice the width."""

    @staticmethod
    def peak(op, x):
        tracemalloc.start()
        try:
            tape = Tape()
            tape.backward(ad.batch_mean_(ad.mean_(op(tape.tensor(x)))))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("gate", ["softmax_channel", "sigmoid"])
    def test_gated_conv_pair(self, rng, gate):
        # an upsampler gated conv: 32 channels, 12800 columns, k 65
        x = rng.standard_normal((32, 12800), dtype=np.float32)
        wf, wg = (Parameter(n, rng.standard_normal((32, 32, 65), dtype=np.float32)) for n in "fg")
        whole = 32 * 65 * 12800 * 4
        peak = self.peak(lambda t: ad.gated_conv_pair(t, wf, None, wg, None, 32, gate), x)
        assert peak < whole / 4, f"peak {peak} B for a {whole} B column matrix"

    def test_tconv1d_last_stage(self, rng):
        # G.up.stage3.tconv (64 -> 32 channels, k 66, stride 2) on 16384 input
        # columns; its backward's columns are the im2col of the output gradient
        x = rng.standard_normal((64, 16384), dtype=np.float32)
        w = Parameter("w", rng.standard_normal((64, 32, 66), dtype=np.float32))
        whole = 32 * 66 * 16384 * 4
        peak = self.peak(lambda t: ad.tconv1d(t, w, None, 2, (32, 32)), x)
        assert peak < whole / 4, f"peak {peak} B for a {whole} B column matrix"

    def test_stride_two_conv1d(self, rng):
        # G.enc.down1's shape (32 -> 64 channels, k 64, stride 2), zero pad, 8192 outputs
        x = rng.standard_normal((32, 16384), dtype=np.float32)
        w = Parameter("w", rng.standard_normal((64, 32, 64), dtype=np.float32))
        whole = 32 * 64 * 8192 * 4
        peak = self.peak(lambda t: ad.conv1d(t, w, None, 2, (31, 31)), x)
        assert peak < whole / 4, f"peak {peak} B for a {whole} B column matrix"


class TestPointwise:
    def test_prelu(self):
        tape = Tape()
        y = ad.prelu_(leaf(tape, [[-2.0, 2.0]]), Parameter("s", np.asarray(0.25)))
        assert np.allclose(y.data, [[-0.5, 2.0]])

    def test_leaky_relu_paper_slope(self):
        y = ad.leaky_relu_(Tensor(np.array([[-1.0, 1.0]])))
        assert np.allclose(y.data, [[-0.2, 1.0]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [0.2, 0.25, 0.1234567, 1.0, 1.7, 0.0, -0.3])
    def test_rectifiers_bitwise_match_where(self, rng, dtype, slope):
        # signed zeros, infinities, NaN, subnormal and huge magnitudes
        x = rng.normal(size=(5, 400)) * rng.choice([1e-40, 1e-3, 1.0, 1e30], size=(5, 400))
        x = x.astype(dtype)
        x[0, :6] = [0.0, -0.0, np.nan, np.inf, -np.inf, -np.nan]
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.where(x > 0, x, slope * x)
            got_leaky = ad.leaky_relu_(Tensor(x), slope).data
            got_prelu = ad.prelu_(Tensor(x), Parameter("s", np.asarray(slope, dtype))).data
        assert want.tobytes() == got_leaky.tobytes() == got_prelu.tobytes()
        assert np.maximum(x, 0).tobytes() == ad.relu_(Tensor(x)).data.tobytes()

    def test_concat(self, rng):
        a = Tensor(rng.normal(size=(32, 2000)).astype(np.float32))
        b = Tensor(rng.normal(size=(32, 2000)).astype(np.float32))
        assert ad.concat_channels_(a, b).data.shape == (64, 2000)

    def test_binary_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            ad.add_(Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))))

    def test_abs_mean(self):
        assert ad.abs_mean_(Tensor(np.array([[-3.0, 1.0]]))).item() == pytest.approx(2.0)

    def test_scalar_arithmetic(self):
        t = Tensor(np.array([[2.0]]))
        assert ad.scale_(t, -1.0).item() == -2.0
        assert ad.shift_(t, 1.0).item() == 3.0
        assert ad.relu_(Tensor(np.array([[-2.0]]))).item() == 0.0


class TestBackward:
    def test_tanh_at_zero(self):
        tape = Tape()
        x = leaf(tape, [[0.0]])
        tape.backward(ad.tanh_(x))
        assert np.allclose(tape.grad_of(x), [[1.0]])

    def test_accumulation_doubles(self, rng):
        w = Parameter("w", rng.normal(size=(2, 3, 4)))
        tape = Tape()
        x = leaf(tape, rng.normal(size=(3, 10)))
        loss = ad.abs_mean_(ad.conv1d(x, w))
        tape.backward(loss)
        once = w.grad.copy()
        tape.backward(loss)
        assert np.array_equal(w.grad, 2.0 * once)

    def test_first_backward_hands_over_later_ones_add_out_of_place(self, rng):
        w = Parameter("w", rng.normal(size=(2, 3, 4)))
        assert w.grad is None
        tape = Tape()
        loss = ad.abs_mean_(ad.conv1d(leaf(tape, rng.normal(size=(3, 10))), w))
        tape.backward(loss)
        first = w.grad
        assert first.shape == w.data.shape and first.dtype == w.data.dtype
        kept = first.copy()
        tape.backward(loss)
        assert w.grad is not first and np.array_equal(first, kept)
        w.zero_grad()
        assert w.grad is None

    def test_constant_parameters_get_no_gradient(self, rng):
        w, b = Parameter("w", rng.normal(size=(2, 3, 4))), Parameter("b", rng.normal(size=2))
        s = Parameter("s", np.asarray(0.3))
        x = rng.normal(size=(3, 10))

        def run(constants):
            tape = Tape(constants=constants)
            xt = leaf(tape, x)
            tape.backward(ad.abs_mean_(ad.prelu_(ad.conv1d(xt, w, b), s)))
            return tape.grad_of(xt)

        want = run(())
        grads = {p.name: p.grad for p in (w, b, s)}
        for p in (w, b, s):
            p.zero_grad()
        np.testing.assert_array_equal(run([w, s]), want)
        assert w.grad is None and s.grad is None
        np.testing.assert_array_equal(b.grad, grads["b"])

    def test_empty_tape(self):
        tape = Tape()
        with pytest.raises(ValueError, match="empty tape"):
            tape.backward(tape.tensor(np.zeros((1, 1))))

    def test_non_scalar_loss(self, rng):
        tape = Tape()
        x = leaf(tape, rng.normal(size=(2, 3)))
        y = ad.tanh_(x)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)

    def test_wrong_tape(self):
        t1, t2 = Tape(), Tape()
        x = leaf(t1, [[1.0]])
        y = ad.tanh_(x)
        leaf(t2, [[1.0]])
        with pytest.raises(ValueError, match="belong"):
            t2.backward(y)

    def test_deterministic(self, rng):
        w = Parameter("w", rng.normal(size=(2, 3, 4)))
        grads = []
        for _ in range(2):
            w.zero_grad()
            tape = Tape()
            x = tape.tensor(np.arange(30, dtype=np.float64).reshape(3, 10))
            tape.backward(ad.abs_mean_(ad.conv1d(x, w)))
            grads.append(w.grad.copy())
        assert np.array_equal(grads[0], grads[1])

    def test_first_nonfinite_names_op(self):
        tape = Tape()
        x = tape.tensor(np.array([[1e308]]))
        with np.errstate(over="ignore"):
            ad.scale_(ad.scale_(x, 1e308), 2.0)  # overflow at the first scale
        assert tape.first_nonfinite().startswith("scale")


class TestGradCheck:
    def test_linear_loss_exact(self, rng):
        w = Parameter("w", rng.normal(size=(1, 6)))

        assert ad.grad_check(lambda tape: ad.mean_(tape.leaf(w)), [w], coords_per_param=6) <= 1e-10

    def test_gradient_suite_passes(self):
        from abas.verify import TOLERANCE, gradient_suite

        results = gradient_suite(scope="layer", seed=0)
        worst = max(err for _, err in results)
        assert worst <= TOLERANCE, f"worst: {worst}"

    def test_unreached_parameter_raises(self, rng):
        # an unreached parameter would compare an analytic 0 with a numeric 0
        w, unused = Parameter("w", rng.normal(size=(1, 6))), Parameter("unused", np.zeros(3))
        with pytest.raises(ValueError, match="does not reach unused$"):
            ad.grad_check(lambda tape: ad.mean_(tape.leaf(w)), [w, unused])

    def test_finite_differences_catch_wrong_gradient(self, rng):
        w = Parameter("w", rng.normal(size=(1, 4)))

        def loss_of(tape):
            y = ad.scale_(tape.leaf(w), 2.0)
            # corrupt the recorded backward to simulate a broken op
            name, oid, od, fn = tape._records[-1]
            tape._records[-1] = (name, oid, od, lambda g: [(p, q * 3) for p, q in fn(g)])
            return ad.mean_(y)

        assert ad.grad_check(loss_of, [w], coords_per_param=4) > 0.1


class TestNoGradMode:
    def test_tapeless_matches_taped(self, rng):
        w = Parameter("w", rng.normal(size=(3, 2, 5)))
        b = Parameter("b", rng.normal(size=3))
        x = rng.normal(size=(2, 20))
        tape = Tape()
        taped = ad.conv1d(tape.tensor(x), w, b, stride=2, pad=(2, 2), pad_mode="reflect")
        plain = ad.conv1d(Tensor(x), w, b, stride=2, pad=(2, 2), pad_mode="reflect")
        assert np.array_equal(taped.data, plain.data)
        assert plain.tape is None and [n for n, _ in tape.outputs()] == ["conv1d"]


class TestTapeOutputs:
    def test_ops_in_forward_order_with_their_outputs(self, rng):
        tape = Tape()
        w = Parameter("w", rng.normal(size=(3, 2, 5)))
        h = ad.conv1d(tape.tensor(rng.normal(size=(2, 20))), w, None, 2, (2, 2), "reflect")
        y = ad.tanh_(h)
        loss = ad.mean_(ad.mul_(y, y))
        outputs = tape.outputs()
        assert [name for name, _ in outputs] == ["conv1d", "tanh", "mul", "mean"]
        assert outputs[0][1] is h.data and outputs[1][1] is y.data
        assert outputs[3][1] is loss.data
        np.testing.assert_array_equal(outputs[2][1], y.data * y.data)

    def test_outputs_is_a_copy_of_the_record_list(self, rng):
        tape = Tape()
        ad.tanh_(tape.tensor(rng.normal(size=(2, 4))))
        tape.outputs().clear()
        assert len(tape.outputs()) == 1


class TestSegments:
    def test_length_is_per_segment(self):
        x = Tensor(np.zeros((2, 12)), segments=3)
        assert (x.channels, x.length, x.segments) == (2, 4, 3)

    @pytest.mark.parametrize("segments", [0, 5, 2.0])
    def test_bad_segment_count(self, segments):
        with pytest.raises(ValueError, match="segments"):
            Tensor(np.zeros((1, 12)), segments=segments)

    @pytest.mark.parametrize("op", [
        lambda x: ad.conv1d(x, np.ones((1, 1, 3)), pad=(1, 1), pad_mode="reflect"),
        lambda x: ad.tconv1d(x, np.ones((1, 1, 2)), stride=2),
        lambda x: ad.gated_conv_pair(x, np.ones((1, 1, 3)), None, np.ones((1, 1, 3)), None, 1),
        lambda x: ad.reflect_pad(x, 1, 1),
        ad.tanh_,
    ], ids=["conv1d", "tconv1d", "gated_conv_pair", "reflect_pad", "tanh_"])
    def test_taped_op_keeps_segments(self, op, rng):
        # the output carries the segments on the tape, and the input gradient
        # is the per-segment tapes' gradients side by side
        x = rng.standard_normal((1, 12))
        tape = Tape()
        xt = tape.tensor(x, 2)
        y = op(xt)
        assert (y.tape, y.segments) == (tape, 2)
        tape.backward(ad.batch_mean_(ad.abs_mean_(y)))
        per = []
        for half in np.split(x, 2, axis=1):
            t = Tape()
            ht = t.tensor(half)
            t.backward(ad.abs_mean_(op(ht)))
            per.append(t.grad_of(ht) / 2)
        assert np.array_equal(tape.grad_of(xt), np.concatenate(per, axis=1))

    def test_segment_counts_must_agree(self):
        tape = Tape()
        with pytest.raises(ValueError, match="segment mismatch"):
            ad.add_(tape.tensor(np.zeros((1, 12))), Tensor(np.zeros((1, 12)), segments=2))
        with pytest.raises(ValueError, match="segment mismatch"):
            ad.concat_channels_(Tensor(np.zeros((1, 12))), Tensor(np.zeros((1, 12)), segments=2))

    @pytest.mark.parametrize("reduce", [ad.mean_, ad.abs_mean_])
    def test_reductions_give_one_value_per_segment(self, reduce, rng):
        x = rng.standard_normal((3, 12))
        tape = Tape()
        xt = tape.tensor(x, 3)
        y = reduce(xt)
        assert (y.data.shape, y.segments) == ((1, 3), 3)
        for i, part in enumerate(np.split(x, 3, axis=1)):
            assert y.data[0, i] == reduce(Tensor(part)).data[0, 0]
        tape.backward(ad.batch_mean_(y))
        per = []
        for part in np.split(x, 3, axis=1):
            t = Tape()
            pt = t.tensor(part)
            t.backward(reduce(pt))
            per.append(t.grad_of(pt) / 3)
        np.testing.assert_allclose(tape.grad_of(xt), np.concatenate(per, axis=1), rtol=1e-15)

    def test_batch_mean(self):
        tape = Tape()
        v = tape.tensor(np.array([[1.0, 2.0, 6.0]]), 3)
        loss = ad.batch_mean_(v)
        tape.backward(loss)
        assert (loss.item(), loss.segments) == (3.0, 1)
        np.testing.assert_array_equal(tape.grad_of(v), [[1 / 3, 1 / 3, 1 / 3]])


def resident_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise AssertionError("no VmRSS line")


@pytest.mark.skipif(ad._MALLOC_TRIM is None, reason="needs glibc's malloc_trim")
class TestReleaseFreeMemory:
    def test_hands_back_free_pages_inside_the_heap(self):
        # Freeing an 8 MB array lifts glibc's mmap threshold above 4 MB, so the
        # 4 MB arrays come from the heap. Every other one stays alive, so the
        # 40 MB of holes between them cannot leave from the heap's top.
        big = np.ones(2**21, np.float32)
        del big
        arrays = [np.ones(2**20, np.float32) for _ in range(20)]
        del arrays[::2]
        before = resident_mb()
        ad.release_free_memory()
        assert resident_mb() < before - 20
