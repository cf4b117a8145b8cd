"""Exact FLOP counts, GEMM shapes and computed byte traffic of the conv ops.

Convention: one multiply-accumulate (MAC) of a convolution contraction is 2
FLOPs. Bias additions, padding, im2col copies, folds and the pointwise
activations inside ``gated_conv_pair`` are not counted; they are memory-bound
and show up in the timings instead. Backward work is the weight gradient (only
when the weight is on the tape) plus the input gradient, each with exactly as
many MACs as the forward contraction.

Bytes are *computed*, not measured: the compulsory float32 traffic of each
op's operands and results (forward reads x and w and writes y; backward reads
g, x and w and writes the input gradient and, when taken, the weight
gradient). Caches and the im2col matrix are ignored.

A GEMM shape is ``(M, K, N, trans_a, trans_b)`` for ``(M x K) @ (K x N)``,
with the transpose flags of the operands as ``abas.autodiff`` passes them.
"""

from __future__ import annotations

from dataclasses import dataclass

CONV_KINDS = ("conv1d", "tconv1d", "gated_conv_pair")
F32 = 4


@dataclass(frozen=True)
class ConvCost:
    """Work of one conv-kind op call, derived from its operand shapes."""

    kind: str
    macs: int
    wgrad: bool
    fwd_gemm: tuple
    wgrad_gemm: tuple
    xgrad_gemm: tuple
    x_elems: int
    w_elems: int
    y_elems: int

    @property
    def fwd_flops(self) -> int:
        return 2 * self.macs

    @property
    def bwd_flops(self) -> int:
        return 2 * self.macs * (2 if self.wgrad else 1)

    @property
    def fwd_bytes(self) -> int:
        return F32 * (self.x_elems + self.w_elems + self.y_elems)

    @property
    def bwd_bytes(self) -> int:
        # reads g, x, w; writes gx and (optionally) gw
        written = self.x_elems + (self.w_elems if self.wgrad else 0)
        return F32 * (self.y_elems + self.x_elems + self.w_elems + written)

    def bwd_gemms(self) -> list[tuple]:
        return ([self.wgrad_gemm] if self.wgrad else []) + [self.xgrad_gemm]


def conv_cost(kind: str, x_shape, w_shape, y_shape, wgrad: bool) -> ConvCost:
    """Cost of one call from the (C, L) input, weight and (C, T) output shapes.

    conv1d weight is (c_out, c_in, k); tconv1d weight is (c_in, c_out, k);
    gated_conv_pair gets the filter weight (c_out, c_in, k) and stacks the gate
    weight of the same shape under it.
    """
    c_in, length = x_shape
    if kind == "conv1d":
        c_out, _, k = w_shape
        t = y_shape[1]
        ck = c_in * k
        return ConvCost(kind, c_out * ck * t, wgrad,
                        (c_out, ck, t, False, False),
                        (c_out, t, ck, False, True),
                        (ck, c_out, t, True, False),
                        c_in * length, c_out * ck, c_out * t)
    if kind == "tconv1d":
        _, c_out, k = w_shape
        ok = c_out * k
        return ConvCost(kind, c_in * ok * length, wgrad,
                        (ok, c_in, length, True, False),
                        (c_in, length, ok, False, True),
                        (c_in, ok, length, False, False),
                        c_in * length, c_in * ok, y_shape[0] * y_shape[1])
    if kind == "gated_conv_pair":
        c_out, _, k = w_shape
        ck = c_in * k
        rows = 2 * c_out
        return ConvCost(kind, rows * ck * length, wgrad,
                        (rows, ck, length, False, False),
                        (rows, length, ck, False, True),
                        (ck, rows, length, True, False),
                        c_in * length, rows * ck, c_out * length)
    raise ValueError(f"not a conv kind: {kind!r}")


def gemm_flops(shape) -> int:
    m, k, n = shape[:3]
    return 2 * m * k * n
