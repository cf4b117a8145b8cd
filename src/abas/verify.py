"""Finite-difference verification of every differentiable op and composite.

Shared by the test suite and the grad-check command. The suite is a table of
``(name, params, loss_of)`` entries, run in order by ``ad.grad_check``:
``loss_of(tape)`` builds the forward pass on the tape it is given, from inputs
frozen when the table is built, and returns a scalar loss. Ops are looked up
through ``ad.`` when a check runs, so a patched op is the one checked. All
checks run in float64 at small shapes so central differences are exact to
O(eps^2). Entries marked ``S=3`` run their input as three taped segments side
by side.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Parameter
from .model import (
    Discriminator,
    DiscriminatorConfig,
    Generator,
    GeneratorConfig,
    NoiseBundle,
)

TOLERANCE = 1e-5


def _l1(t):
    return ad.batch_mean_(ad.abs_mean_(t))


def _op_checks(seed: int):
    rng = np.random.default_rng(seed)

    def param(name, *shape):
        return Parameter(name, rng.normal(size=shape))

    x20, x16 = rng.normal(size=(3, 20)), rng.normal(size=(4, 16))
    w, b = param("w", 5, 3, 4), param("b", 5)
    w2, b2 = param("w2", 2, 3, 5), param("b2", 2)
    w3, b3, x3 = param("w3", 1, 3, 5), param("b3", 1), param("x3", 3, 20)
    wt, bt = param("wt", 3, 2, 6), param("bt", 2)
    win, slope = param("win", 3, 20), Parameter("slope", np.asarray(0.3))
    win2 = param("win2", 3, 20)
    x16s = rng.normal(size=(4, 3 * 16))
    gc_soft, gc_sig = (nn.GatedConvLayer(np.random.default_rng(seed + 1), f"gc_{gate}", 4, 3, 5,
                                         gate, np.float64) for gate in ("softmax_channel", "sigmoid"))
    # the time-axis ops and the reductions on three segments of 20
    xs = rng.normal(size=(3, 3 * 20))
    w4 = param("w4", 5, 3, 4)
    # stride 3 with k not a multiple of it, so the last phase's taps are zero-filled
    w5, b5 = param("w5", 4, 3, 5), param("b5", 4)
    wt3, bt3 = param("wt3", 3, 2, 7), param("bt3", 2)
    sn_conv = nn.Conv1d(np.random.default_rng(seed + 2), "snc", 4, 3, 4, 2, (1, 1), "zero",
                        np.float64)
    sn_tconv = nn.TConv1d(np.random.default_rng(seed + 3), "snt", 4, 3, 6, 2, (2, 2), np.float64)

    def mean_s3(tape):
        y = ad.conv1d(tape.tensor(xs, 3), w4, b, 2, (3, 3))
        return ad.batch_mean_(ad.mul_(ad.mean_(ad.tanh_(y)), ad.abs_mean_(y)))

    return [
        ("conv1d[zero pad, stride 2]", [w, b],
         lambda tape: _l1(ad.conv1d(tape.tensor(x20), w, b, stride=2, pad=(3, 3)))),
        ("conv1d[reflect pad, stride 1]", [w2, b2],
         lambda tape: _l1(ad.conv1d(tape.tensor(x20), w2, b2, 1, (2, 2), "reflect"))),
        ("conv1d[zero pad, stride 1, c_out 1]", [w3, b3, x3],
         lambda tape: _l1(ad.conv1d(tape.leaf(x3), w3, b3, stride=1, pad=(2, 3)))),
        ("tconv1d[stride 2, crop]", [wt, bt],
         lambda tape: _l1(ad.tconv1d(tape.tensor(x20), wt, bt, stride=2, crop=(2, 2)))),
        ("reflect_pad", [win], lambda tape: _l1(ad.tanh_(ad.reflect_pad(tape.leaf(win), 4, 4)))),
        ("channel_softmax", [win],
         lambda tape: _l1(ad.mul_(ad.channel_softmax(tape.leaf(win)), tape.tensor(x20)))),
        ("tanh", [win], lambda tape: _l1(ad.tanh_(tape.leaf(win)))),
        ("sigmoid", [win], lambda tape: _l1(ad.sigmoid_(tape.leaf(win)))),
        ("prelu", [win, slope], lambda tape: _l1(ad.prelu_(tape.leaf(win), slope))),
        ("leaky_relu", [win], lambda tape: _l1(ad.leaky_relu_(tape.leaf(win), 0.2))),
        # shifted: abs_mean's adjoint at relu's zeros is 0 and would hide a wrong mask
        ("relu", [win], lambda tape: _l1(ad.shift_(ad.relu_(tape.leaf(win)), 1.0))),
        ("scale", [win], lambda tape: _l1(ad.scale_(tape.leaf(win), -1.7))),
        ("shift", [win], lambda tape: _l1(ad.shift_(tape.leaf(win), 0.9))),
        # the loss itself exercises abs_mean
        ("abs_mean", [win], lambda tape: _l1(tape.leaf(win))),
        ("mean", [win], lambda tape: _l1(ad.shift_(ad.mean_(tape.leaf(win)), 1.0))),
        ("mul", [win, win2], lambda tape: _l1(ad.tanh_(ad.mul_(tape.leaf(win), tape.leaf(win2))))),
        ("add", [win, win2], lambda tape: _l1(ad.tanh_(ad.add_(tape.leaf(win), tape.leaf(win2))))),
        ("sub", [win, win2], lambda tape: _l1(ad.tanh_(ad.sub_(tape.leaf(win), tape.leaf(win2))))),
        ("concat_channels", [win, win2],
         lambda tape: _l1(ad.tanh_(ad.concat_channels_(tape.leaf(win), tape.leaf(win2))))),
        ("gated_conv[softmax_channel]", gc_soft.parameters(),
         lambda tape: _l1(gc_soft(tape.tensor(x16)))),
        ("gated_conv[softmax_channel, S=3]", gc_soft.parameters(),
         lambda tape: _l1(gc_soft(tape.tensor(x16s, 3)))),
        ("gated_conv[sigmoid]", gc_sig.parameters(), lambda tape: _l1(gc_sig(tape.tensor(x16)))),
        ("gated_conv[sigmoid, S=3]", gc_sig.parameters(),
         lambda tape: _l1(gc_sig(tape.tensor(x16s, 3)))),
        # c_out 5 of 3 lowers on the im2col side; c_out 2, at stride 1, narrows
        ("conv1d[im2col, zero pad, stride 1, S=3]", [w4, b],
         lambda tape: _l1(ad.conv1d(tape.tensor(xs, 3), w4, b, 1, (3, 2), "zero"))),
        ("conv1d[im2col, zero pad, stride 2, S=3]", [w4, b],
         lambda tape: _l1(ad.conv1d(tape.tensor(xs, 3), w4, b, 2, (3, 2), "zero"))),
        ("conv1d[im2col, reflect pad, stride 1, S=3]", [w4, b],
         lambda tape: _l1(ad.conv1d(tape.tensor(xs, 3), w4, b, 1, (3, 2), "reflect"))),
        ("conv1d[im2col, reflect pad, stride 2, S=3]", [w4, b],
         lambda tape: _l1(ad.conv1d(tape.tensor(xs, 3), w4, b, 2, (3, 2), "reflect"))),
        ("conv1d[narrowing, zero pad, stride 1, S=3]", [w2, b2],
         lambda tape: _l1(ad.conv1d(tape.tensor(xs, 3), w2, b2, 1, (3, 2), "zero"))),
        ("conv1d[narrowing, reflect pad, stride 1, S=3]", [w2, b2],
         lambda tape: _l1(ad.conv1d(tape.tensor(xs, 3), w2, b2, 1, (3, 2), "reflect"))),
        ("tconv1d[stride 2, crop, S=3]", [wt, bt],
         lambda tape: _l1(ad.tconv1d(tape.tensor(xs, 3), wt, bt, stride=2, crop=(2, 2)))),
        ("conv1d[zero pad, stride 3, k 5]", [w5, b5],
         lambda tape: _l1(ad.conv1d(tape.tensor(x20), w5, b5, 3, (2, 1), "zero"))),
        ("conv1d[reflect pad, stride 3, k 5, S=3]", [w5, b5],
         lambda tape: _l1(ad.conv1d(tape.tensor(xs, 3), w5, b5, 3, (2, 3), "reflect"))),
        ("tconv1d[stride 3, k 7, crop, S=3]", [wt3, bt3],
         lambda tape: _l1(ad.tconv1d(tape.tensor(xs, 3), wt3, bt3, stride=3, crop=(1, 2)))),
        # reflect_pad and the reductions on three segments, behind a conv whose
        # weight gradient passes through their adjoints
        ("reflect_pad[S=3]", [w4, b], lambda tape: _l1(ad.tanh_(
            ad.reflect_pad(ad.conv1d(tape.tensor(xs, 3), w4, b, 2, (3, 3)), 4, 3)))),
        ("mean, abs_mean, batch_mean[S=3]", [w4, b], mean_s3),
        ("spectral_normalized_conv", sn_conv.parameters(),
         lambda tape: _l1(sn_conv(tape.tensor(x16)))),
        ("spectral_normalized_tconv", sn_tconv.parameters(),
         lambda tape: _l1(sn_tconv(tape.tensor(x16)))),
    ]


def _model_checks(seed: int):
    cfg = GeneratorConfig.tiny()
    G = Generator(cfg, np.random.default_rng(seed + 10), np.float64)
    D = Discriminator(DiscriminatorConfig.tiny(), np.random.default_rng(seed + 11), np.float64)
    rng = np.random.default_rng(seed + 12)
    L = 64
    r, x = rng.normal(size=(1, L)), rng.normal(size=(1, L))
    z = NoiseBundle(rng.normal(size=(cfg.noise_channels, L // cfg.compression)))
    rs, xs = rng.normal(size=(1, 3 * L)), rng.normal(size=(1, 3 * L))
    zs = NoiseBundle(rng.normal(size=(cfg.noise_channels, 3 * L // cfg.compression)))

    def end_to_end(tape):
        fake = G.generate(tape.tensor(r), z)
        score = D.discriminate(fake, tape.tensor(r))
        l1 = ad.abs_mean_(ad.sub_(fake, tape.tensor(x)))
        return ad.add_(ad.scale_(l1, 0.5), ad.scale_(score, -0.5))

    return [
        ("generator_cascade[L=64]", G.parameters(),
         lambda tape: ad.abs_mean_(ad.sub_(G.generate(tape.tensor(r), z), tape.tensor(x)))),
        ("discriminator[tiny]", D.parameters(),
         lambda tape: ad.abs_mean_(D.discriminate(tape.tensor(x), tape.tensor(r)))),
        ("generator+discriminator", G.parameters() + D.parameters(), end_to_end),
        ("generator_cascade[L=64, S=3]", G.parameters(),
         lambda tape: _l1(ad.sub_(G.generate(tape.tensor(rs, 3), zs), tape.tensor(xs, 3)))),
        ("discriminator[tiny, S=3]", D.parameters(),
         lambda tape: _l1(D.discriminate(tape.tensor(xs, 3), tape.tensor(rs, 3)))),
    ]


def gradient_suite(scope: str = "model", seed: int = 0, coords_per_param: int = 3):
    """Run every check; returns a list of (op name, max relative error)."""
    checks = _op_checks(seed)
    if scope == "model":
        checks += _model_checks(seed)
    return [(name, ad.grad_check(loss_of, params, coords_per_param=coords_per_param, seed=seed))
            for name, params, loss_of in checks]
