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
        # conv1d is linear in x and in w: <J d, g> = <d, J^T g> for each
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


def im2col(x, k, stride):
    """The whole (C*k, T) column matrix of every kernel-width window of x (C, L)."""
    win = sliding_window_view(x, k, axis=1)[:, ::stride]  # (C, T, k)
    return np.ascontiguousarray(win.transpose(0, 2, 1)).reshape(-1, win.shape[1])


def fold(cols, stride, out_len):
    """The engine's fold of a whole (C, k, T) taps array, as its stride phases."""
    phases = np.zeros((cols.shape[0], stride, -(-out_len // stride)), cols.dtype)
    ad._fold_add(phases, cols, stride)
    return ad._unphase(phases, out_len)


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
        op, shapes, c_in, n_seg, length, rng = case
        x = rng.standard_normal((c_in, n_seg * length))
        weights = [rng.standard_normal(shape) for shape in shapes]
        for wide in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ad, "IM2COL_BLOCK", SMALL_BLOCK)
                if wide:
                    mp.setattr(ad, "SMALL_GEMM_MACS", 0)
                y, g_out, grads = taped_run(op, x, weights, n_seg, rng)
                per = [taped_run(op, x[:, i * length : (i + 1) * length], weights, 1, g)
                       for i, g in enumerate(np.split(g_out, n_seg, axis=1))]
            if not wide:
                assert np.array_equal(y, np.concatenate([p[0] for p in per], axis=1))
            want = [np.concatenate([p[2][0] for p in per], axis=1)]
            want += [sum(p[2][j] for p in per) for j in range(1, len(grads))]
            for got, ref in zip(grads, want):
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

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
        # G.up.stage3.tconv at a 1 s segment: the forward GEMM runs in column
        # blocks, last block first, and gives the bits of one GEMM and one fold
        # while holding a fraction of the (32*66, 8000) taps matrix
        x = rng.standard_normal((64, 8000), dtype=np.float32)
        w = rng.standard_normal((64, 32, 66), dtype=np.float32)
        tracemalloc.start()
        try:
            y = ad.tconv1d(Tensor(x), w, stride=2, crop=(32, 32)).data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        taps = w.reshape(64, -1).T @ x
        assert np.array_equal(y, fold(taps.reshape(32, 66, 8000), 2, 16064)[:, 32:-32])
        assert peak < taps.nbytes / 3, f"peak {peak} B for {taps.nbytes} B of taps"

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("taps", [4, 5, 64, 65])
    def test_fold_matches_strided_scatter_add(self, rng, stride, taps):
        cols = rng.standard_normal((3, taps, 50), dtype=np.float32)
        raw = 49 * stride + taps
        for out_len in (raw, raw + stride - 1):
            assert np.array_equal(fold(cols, stride, out_len),
                                  strided_scatter_add(cols, stride, out_len))


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

        def build():
            tape = Tape()
            return tape, ad.mean_(tape.leaf(w))

        assert ad.grad_check(build, [w], coords_per_param=6) <= 1e-10

    def test_gradient_suite_passes(self):
        from abas.verify import TOLERANCE, gradient_suite

        results = gradient_suite(scope="layer", seed=0)
        worst = max(err for _, err in results)
        assert worst <= TOLERANCE, f"worst: {worst}"

    def test_finite_differences_catch_wrong_gradient(self, rng):
        w = Parameter("w", rng.normal(size=(1, 4)))

        def build():
            tape = Tape()
            t = tape.leaf(w)
            y = ad.scale_(t, 2.0)
            # corrupt the recorded backward to simulate a broken op
            name, oid, od, fn = tape._records[-1]
            tape._records[-1] = (name, oid, od, lambda g: [(p, q * 3) for p, q in fn(g)])
            return tape, ad.mean_(y)

        assert ad.grad_check(build, [w], coords_per_param=4) > 0.1


class TestNoGradMode:
    def test_tapeless_matches_taped(self, rng):
        w = Parameter("w", rng.normal(size=(3, 2, 5)))
        b = Parameter("b", rng.normal(size=3))
        x = rng.normal(size=(2, 20))
        tape = Tape()
        taped = ad.conv1d(tape.tensor(x), w, b, stride=2, pad=(2, 2), pad_mode="reflect")
        plain = ad.conv1d(Tensor(x), w, b, stride=2, pad=(2, 2), pad_mode="reflect")
        assert np.array_equal(taped.data, plain.data)
        assert plain.tape is None and not Tape().__dict__.get("_records")


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
