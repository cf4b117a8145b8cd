"""Finite-difference verification of every differentiable op and composite.

Shared by the test suite and the grad-check command. All checks run in
float64 at small shapes; each entry rebuilds its forward pass from frozen
random inputs so central differences are exact to O(eps^2). Entries marked
``S=3`` run their input as three taped segments side by side.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Parameter, Tape
from .model import (
    Discriminator,
    DiscriminatorConfig,
    Generator,
    GeneratorConfig,
    NoiseBundle,
)

TOLERANCE = 1e-5


def _loss_of(t):
    return ad.batch_mean_(ad.abs_mean_(t))


def _op_checks(seed: int):
    rng = np.random.default_rng(seed)
    x20 = rng.normal(size=(3, 20))
    x16 = rng.normal(size=(4, 16))

    checks = []

    def add_check(name, make):
        checks.append((name, make))

    w = Parameter("w", rng.normal(size=(5, 3, 4)))
    b = Parameter("b", rng.normal(size=5))

    def conv_zero():
        tape = Tape()
        return tape, _loss_of(ad.conv1d(tape.tensor(x20), w, b, stride=2, pad=(3, 3)))

    add_check("conv1d[zero pad, stride 2]", (conv_zero, [w, b]))

    w2 = Parameter("w2", rng.normal(size=(2, 3, 5)))
    b2 = Parameter("b2", rng.normal(size=2))

    def conv_reflect():
        tape = Tape()
        return tape, _loss_of(
            ad.conv1d(tape.tensor(x20), w2, b2, stride=1, pad=(2, 2), pad_mode="reflect")
        )

    add_check("conv1d[reflect pad, stride 1]", (conv_reflect, [w2, b2]))

    w3 = Parameter("w3", rng.normal(size=(1, 3, 5)))
    b3 = Parameter("b3", rng.normal(size=1))
    x3 = Parameter("x3", rng.normal(size=(3, 20)))

    def conv_narrow():
        tape = Tape()
        return tape, _loss_of(ad.conv1d(tape.leaf(x3), w3, b3, stride=1, pad=(2, 3)))

    add_check("conv1d[zero pad, stride 1, c_out 1]", (conv_narrow, [w3, b3, x3]))

    wt = Parameter("wt", rng.normal(size=(3, 2, 6)))
    bt = Parameter("bt", rng.normal(size=2))

    def tconv():
        tape = Tape()
        return tape, _loss_of(ad.tconv1d(tape.tensor(x20), wt, bt, stride=2, crop=(2, 2)))

    add_check("tconv1d[stride 2, crop]", (tconv, [wt, bt]))

    win = Parameter("win", rng.normal(size=(3, 20)))

    def refl():
        tape = Tape()
        return tape, _loss_of(ad.tanh_(ad.reflect_pad(tape.leaf(win), 4, 4)))

    add_check("reflect_pad", (refl, [win]))

    def softmax():
        tape = Tape()
        return tape, _loss_of(ad.mul_(ad.channel_softmax(tape.leaf(win)), tape.tensor(x20)))

    add_check("channel_softmax", (softmax, [win]))

    slope = Parameter("slope", np.asarray(0.3))
    single = {
        "tanh": lambda t: ad.tanh_(t),
        "sigmoid": lambda t: ad.sigmoid_(t),
        "prelu": lambda t: ad.prelu_(t, slope),
        "leaky_relu": lambda t: ad.leaky_relu_(t, 0.2),
        "scale": lambda t: ad.scale_(t, -1.7),
        "shift": lambda t: ad.shift_(t, 0.9),
        "abs_mean": lambda t: t,  # the loss itself exercises abs_mean
        "mean": lambda t: ad.shift_(ad.mean_(t), 1.0),
    }
    for name, fn in single.items():
        def make(fn=fn):
            tape = Tape()
            return tape, _loss_of(fn(tape.leaf(win)))
        add_check(name, (make, [win, slope] if name == "prelu" else [win]))

    win2 = Parameter("win2", rng.normal(size=(3, 20)))
    binary = {
        "mul": ad.mul_,
        "add": ad.add_,
        "sub": ad.sub_,
        "concat_channels": ad.concat_channels_,
    }
    for name, fn in binary.items():
        def make(fn=fn):
            tape = Tape()
            return tape, _loss_of(ad.tanh_(fn(tape.leaf(win), tape.leaf(win2))))
        add_check(name, (make, [win, win2]))

    x16s = rng.normal(size=(4, 3 * 16))
    for gate in ("softmax_channel", "sigmoid"):
        layer = nn.GatedConvLayer(
            np.random.default_rng(seed + 1), f"gc_{gate}", 4, 3, 5, gate, np.float64
        )

        for n_seg, x in ((1, x16), (3, x16s)):
            def make(layer=layer, n_seg=n_seg, x=x):
                tape = Tape()
                return tape, _loss_of(layer(tape.tensor(x, n_seg)))

            add_check(f"gated_conv[{gate}{', S=3' if n_seg > 1 else ''}]",
                      (make, layer.parameters()))

    # the time-axis ops and the reductions on three segments of 20
    xs = rng.normal(size=(3, 3 * 20))
    w4 = Parameter("w4", rng.normal(size=(5, 3, 4)))
    # c_out 5 of 3 lowers on the im2col side; c_out 2, at stride 1, narrows
    for wp, bp, strides in ((w4, b, (1, 2)), (w2, b2, (1,))):
        for pad_mode in ("zero", "reflect"):
            for stride in strides:
                def make(wp=wp, bp=bp, pad_mode=pad_mode, stride=stride):
                    tape = Tape()
                    y = ad.conv1d(tape.tensor(xs, 3), wp, bp, stride, (3, 2), pad_mode)
                    return tape, _loss_of(y)

                lowering = "narrowing" if wp is w2 else "im2col"
                add_check(f"conv1d[{lowering}, {pad_mode} pad, stride {stride}, S=3]",
                          (make, [wp, bp]))

    def tconv_s3():
        tape = Tape()
        return tape, _loss_of(ad.tconv1d(tape.tensor(xs, 3), wt, bt, stride=2, crop=(2, 2)))

    add_check("tconv1d[stride 2, crop, S=3]", (tconv_s3, [wt, bt]))

    # reflect_pad and the reductions on three segments, behind a conv whose
    # weight gradient passes through their adjoints
    def refl_s3():
        tape = Tape()
        y = ad.conv1d(tape.tensor(xs, 3), w4, b, 2, (3, 3))
        return tape, _loss_of(ad.tanh_(ad.reflect_pad(y, 4, 3)))

    add_check("reflect_pad[S=3]", (refl_s3, [w4, b]))

    def mean_s3():
        tape = Tape()
        y = ad.conv1d(tape.tensor(xs, 3), w4, b, 2, (3, 3))
        return tape, ad.batch_mean_(ad.mul_(ad.mean_(ad.tanh_(y)), ad.abs_mean_(y)))

    add_check("mean, abs_mean, batch_mean[S=3]", (mean_s3, [w4, b]))

    sn_conv = nn.Conv1d(
        np.random.default_rng(seed + 2), "snc", 4, 3, 4, 2, (1, 1), "zero", np.float64
    )

    def make_sn():
        tape = Tape()
        return tape, _loss_of(sn_conv(tape.tensor(x16)))

    add_check("spectral_normalized_conv", (make_sn, sn_conv.parameters()))

    sn_tconv = nn.TConv1d(np.random.default_rng(seed + 3), "snt", 4, 3, 6, 2, (2, 2), np.float64)

    def make_snt():
        tape = Tape()
        return tape, _loss_of(sn_tconv(tape.tensor(x16)))

    add_check("spectral_normalized_tconv", (make_snt, sn_tconv.parameters()))
    return checks


def _model_checks(seed: int):
    cfg = GeneratorConfig.tiny()
    G = Generator(cfg, np.random.default_rng(seed + 10), np.float64)
    D = Discriminator(DiscriminatorConfig.tiny(), np.random.default_rng(seed + 11), np.float64)
    rng = np.random.default_rng(seed + 12)
    L = 64
    r = rng.normal(size=(1, L))
    x = rng.normal(size=(1, L))
    z = NoiseBundle(rng.normal(size=(cfg.noise_channels, L // cfg.compression)))

    def gen_cascade():
        tape = Tape()
        fake = G.generate(tape.tensor(r), z)
        return tape, ad.abs_mean_(ad.sub_(fake, tape.tensor(x)))

    def disc():
        tape = Tape()
        score = D.discriminate(tape.tensor(x), tape.tensor(r))
        return tape, ad.abs_mean_(score)

    def end_to_end():
        tape = Tape()
        fake = G.generate(tape.tensor(r), z)
        score = D.discriminate(fake, tape.tensor(r))
        l1 = ad.abs_mean_(ad.sub_(fake, tape.tensor(x)))
        return tape, ad.add_(ad.scale_(l1, 0.5), ad.scale_(score, -0.5))

    rs, xs = rng.normal(size=(1, 3 * L)), rng.normal(size=(1, 3 * L))
    zs = NoiseBundle(rng.normal(size=(cfg.noise_channels, 3 * L // cfg.compression)))

    def gen_cascade_s3():
        tape = Tape()
        fake = G.generate(tape.tensor(rs, 3), zs)
        return tape, ad.batch_mean_(ad.abs_mean_(ad.sub_(fake, tape.tensor(xs, 3))))

    def disc_s3():
        tape = Tape()
        return tape, ad.batch_mean_(ad.abs_mean_(D.discriminate(tape.tensor(xs, 3),
                                                                tape.tensor(rs, 3))))

    return [
        ("generator_cascade[L=64]", (gen_cascade, G.parameters())),
        ("discriminator[tiny]", (disc, D.parameters())),
        ("generator+discriminator", (end_to_end, G.parameters() + D.parameters())),
        ("generator_cascade[L=64, S=3]", (gen_cascade_s3, G.parameters())),
        ("discriminator[tiny, S=3]", (disc_s3, D.parameters())),
    ]


def gradient_suite(scope: str = "model", seed: int = 0, coords_per_param: int = 3):
    """Run every check; returns a list of (op name, max relative error)."""
    checks = _op_checks(seed)
    if scope == "model":
        checks += _model_checks(seed)
    results = []
    for name, (make, params) in checks:
        err = ad.grad_check(make, params, coords_per_param=coords_per_param, seed=seed)
        results.append((name, err))
    return results
