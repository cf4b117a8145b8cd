"""FLOP formulas against brute-force loops that count their own multiply-adds.

Each loop is also checked against abas's op (values and gradients), so the
count is of the computation abas really performs.
"""

import numpy as np
import pytest

from abas import autodiff as ad
from abas.autodiff import Parameter, Tape
from perfbench.flops import conv_cost, gemm_flops


class Counter:
    def __init__(self):
        self.macs = 0


def naive_conv(xp, w, stride, n):
    c_out, c_in, k = w.shape
    t_out = (xp.shape[1] - k) // stride + 1
    y = np.zeros((c_out, t_out))
    for o in range(c_out):
        for t in range(t_out):
            for c in range(c_in):
                for j in range(k):
                    y[o, t] += w[o, c, j] * xp[c, t * stride + j]
                    n.macs += 1
    return y


def naive_conv_bwd(xp, w, g, stride, n):
    c_out, c_in, k = w.shape
    gw, gxp = np.zeros_like(w), np.zeros_like(xp)
    for o in range(c_out):
        for t in range(g.shape[1]):
            for c in range(c_in):
                for j in range(k):
                    gw[o, c, j] += g[o, t] * xp[c, t * stride + j]
                    gxp[c, t * stride + j] += w[o, c, j] * g[o, t]
                    n.macs += 2
    return gw, gxp


def naive_tconv(x, w, stride, n):
    c_in, c_out, k = w.shape
    raw = np.zeros((c_out, (x.shape[1] - 1) * stride + k))
    for c in range(c_in):
        for t in range(x.shape[1]):
            for o in range(c_out):
                for j in range(k):
                    raw[o, t * stride + j] += w[c, o, j] * x[c, t]
                    n.macs += 1
    return raw


def naive_tconv_bwd(x, w, graw, stride, n):
    c_in, c_out, k = w.shape
    gw, gx = np.zeros_like(w), np.zeros_like(x)
    for c in range(c_in):
        for t in range(x.shape[1]):
            for o in range(c_out):
                for j in range(k):
                    gw[c, o, j] += x[c, t] * graw[o, t * stride + j]
                    gx[c, t] += w[c, o, j] * graw[o, t * stride + j]
                    n.macs += 2
    return gw, gx


def taped(op, x_data, weights, rng):
    """Run op on a tape; return output, upstream gradient, input and weight gradients."""
    params = [Parameter(f"w{i}", w) for i, w in enumerate(weights)]
    tape = Tape()
    x = tape.tensor(x_data)
    y = op(x, *params)
    r = rng.standard_normal(y.data.shape)
    loss = ad.mean_(ad.mul_(y, tape.tensor(r)))
    tape.backward(loss)
    return y, r / r.size, tape.grad_of(x), [p.grad for p in params]


def flops_of(n):
    return 2 * n.macs


@pytest.mark.parametrize("stride,pad", [(1, (0, 0)), (2, (3, 2)), (3, (1, 1))])
def test_conv1d_counts(stride, pad):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 11))
    w = rng.standard_normal((4, 3, 5))
    y, g, gx, (gw,) = taped(lambda t, p: ad.conv1d(t, p, None, stride, pad), x, [w], rng)
    xp = np.pad(x, ((0, 0), pad))
    fwd, bwd = Counter(), Counter()
    np.testing.assert_allclose(naive_conv(xp, w, stride, fwd), y.data, rtol=1e-10)
    ngw, ngxp = naive_conv_bwd(xp, w, g, stride, bwd)
    np.testing.assert_allclose(ngw, gw, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(ngxp[:, pad[0]:xp.shape[1] - pad[1]], gx, rtol=1e-10, atol=1e-14)
    cost = conv_cost("conv1d", x.shape, w.shape, y.data.shape, wgrad=True)
    assert cost.fwd_flops == flops_of(fwd)
    assert cost.bwd_flops == flops_of(bwd)
    assert gemm_flops(cost.fwd_gemm) == cost.fwd_flops
    assert sum(gemm_flops(s) for s in cost.bwd_gemms()) == cost.bwd_flops


@pytest.mark.parametrize("stride,crop", [(1, (0, 0)), (2, (2, 2)), (3, (1, 0))])
def test_tconv1d_counts(stride, crop):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 6))
    w = rng.standard_normal((3, 2, 4))
    y, g, gx, (gw,) = taped(lambda t, p: ad.tconv1d(t, p, None, stride, crop), x, [w], rng)
    fwd, bwd = Counter(), Counter()
    raw = naive_tconv(x, w, stride, fwd)
    np.testing.assert_allclose(raw[:, crop[0]:raw.shape[1] - crop[1]], y.data, rtol=1e-10)
    graw = np.pad(g, ((0, 0), crop))
    ngw, ngx = naive_tconv_bwd(x, w, graw, stride, bwd)
    np.testing.assert_allclose(ngw, gw, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(ngx, gx, rtol=1e-10, atol=1e-14)
    cost = conv_cost("tconv1d", x.shape, w.shape, y.data.shape, wgrad=True)
    assert cost.fwd_flops == flops_of(fwd)
    assert cost.bwd_flops == flops_of(bwd)
    assert gemm_flops(cost.fwd_gemm) == cost.fwd_flops
    assert sum(gemm_flops(s) for s in cost.bwd_gemms()) == cost.bwd_flops


def test_gated_conv_pair_counts():
    rng = np.random.default_rng(2)
    c_in, c_out, k, length = 3, 4, 5, 9
    pad = k // 2
    x = rng.standard_normal((c_in, length))
    wf, wg = rng.standard_normal((2, c_out, c_in, k))
    y, g, gx, (gwf, gwg) = taped(
        lambda t, pf, pg: ad.gated_conv_pair(t, pf, None, pg, None, pad), x, [wf, wg], rng)
    xp = np.pad(x, ((0, 0), (pad, pad)), mode="reflect")
    fwd, bwd = Counter(), Counter()
    yf, yg = naive_conv(xp, wf, 1, fwd), naive_conv(xp, wg, 1, fwd)
    gate = np.exp(yg - yg.max(axis=0)) / np.exp(yg - yg.max(axis=0)).sum(axis=0)
    f = np.tanh(yf)
    np.testing.assert_allclose(f * gate, y.data, rtol=1e-10)
    d_yf = g * gate * (1 - f * f)
    d_gate = g * f
    d_yg = (d_gate - (d_gate * gate).sum(axis=0)) * gate
    ngwf, _ = naive_conv_bwd(xp, wf, d_yf, 1, bwd)
    ngwg, _ = naive_conv_bwd(xp, wg, d_yg, 1, bwd)
    np.testing.assert_allclose(ngwf, gwf, rtol=1e-9, atol=1e-14)
    np.testing.assert_allclose(ngwg, gwg, rtol=1e-9, atol=1e-14)
    cost = conv_cost("gated_conv_pair", x.shape, wf.shape, y.data.shape, wgrad=True)
    assert cost.fwd_flops == flops_of(fwd)
    assert cost.bwd_flops == flops_of(bwd)
    assert gemm_flops(cost.fwd_gemm) == cost.fwd_flops
    assert sum(gemm_flops(s) for s in cost.bwd_gemms()) == cost.bwd_flops


def test_no_weight_gradient_halves_backward():
    cost = conv_cost("conv1d", (3, 11), (4, 3, 5), (4, 7), wgrad=False)
    assert cost.bwd_flops == cost.fwd_flops
    assert len(cost.bwd_gemms()) == 1


def test_decoder_weight_gradient_shape():
    # desk config: 64 hidden channels, kernel 65, decoder length 100
    cost = conv_cost("gated_conv_pair", (64, 100), (64, 64, 65), (64, 100), wgrad=True)
    assert cost.wgrad_gemm[:3] == (128, 100, 4160)
