"""The conditional generator cascade and the discriminator.

Generator = residual encoder (16x learned downsampling to a 1-channel context)
-> context decoder (1x1 expansion + stack of gated convs) -> adversarial
upsampler (4 doubling stages, each refined by a gated conv and joined by an
independently upsampled noise branch) -> single-channel tanh output.

The default channel-softmax gate is unit-gain (``c_out * softmax``), so the
ten-layer decoder keeps its hidden map at the scale of its input; with a plain
softmax every layer would shrink it about 64-fold, to subnormal floats.

Discriminator = strided conv stack over the 2-channel (candidate, residual)
concatenation, spectral-normalized throughout, global mean as the score.

Both networks take the conditioning residual at its natural scale and multiply
it by their own ``cond_scale`` where it enters: G before its encoder, D before
the concat. Training sets it to ``train.conditioning_scale`` (1 / RMS of the
training corpus's residuals), the checkpoint stores it, and ``restore_into``
sets it again, so no caller scales the residual. At its natural RMS of about
0.02 the residual would enter layers scaled for unit-scale inputs, and the
output would ignore it. (Spectral norm bounds each weight matricised to
(out, in * k), not the conv operator, whose gain measured up to 1.82 at init.)

Everything is fully convolutional: any input length that is a multiple of the
compression factor and at least ``min_input_length`` works. A forward, taped
or not, also takes several segments of one length side by side (see
``autodiff``): ``generate_segments`` and the training step run their segments
that way, and ``discriminate`` gives one score per segment. A taped forward's
feature maps are its tape's ``outputs()``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .nn import (
    GATE_KINDS,
    GATE_SOFTMAX,
    PRELU_INIT,
    Conv1d,
    GatedConvLayer,
    TConv1d,
)

# Samples per taped forward of a training phase (at least one segment): the
# segments of one forward share every GEMM, which at a short segment makes the
# GEMMs wide enough for every BLAS thread, and no tape holds more than one
# segment at the recipe's 1 s segment.
FORWARD_SAMPLES = 16000

# Samples per tape-less forward of generate_segments (at least one segment).
# Each forward normalises every weight and builds its phase taps and FFT
# kernel spectra once, so fewer forwards do that work fewer times. The budget
# is set from memory: a tape-less forward's peak at it stays below that of one
# taped forward plus backward at FORWARD_SAMPLES. tracemalloc peaks of the
# default float32 G, tape-less, by segments of 16000 in one forward: 1: 21.7
# MiB, 2: 30.8, 3: 45.7, 4: 60.6, 6: 90.4, 8: 120.2 (and 120.0-120.3 for the
# same 128000 samples at segments of 528, 1600 and 8000); taped forward plus
# backward of 16000 samples (1 x 16000 or 10 x 1600): 153.6 MiB.
TAPELESS_FORWARD_SAMPLES = 8 * FORWARD_SAMPLES


def segments_per_forward(segment_len: int, taped: bool = True) -> int:
    """Segments of ``segment_len`` samples that one forward, taped or not,
    runs side by side."""
    budget = FORWARD_SAMPLES if taped else TAPELESS_FORWARD_SAMPLES
    return max(1, budget // segment_len)


@dataclass(frozen=True)
class GeneratorConfig:
    down_kernel: int = 64
    gated_kernel: int = 65
    up_kernel: int = 66
    enc_channels: tuple[int, ...] = (32, 64, 64, 128)
    hidden_channels: int = 64
    n_decoder_layers: int = 10
    gate_kind: str = GATE_SOFTMAX

    def __post_init__(self):
        if self.down_kernel % 2 or self.up_kernel % 2:
            raise ValueError("down/up kernels must be even")
        if self.gated_kernel % 2 == 0:
            raise ValueError("gated kernel must be odd")
        if self.hidden_channels % 2:
            raise ValueError("hidden channels must split evenly into signal + noise")
        if self.gate_kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.gate_kind!r}")

    @property
    def n_stages(self) -> int:
        return len(self.enc_channels)

    @property
    def compression(self) -> int:
        return 2 ** self.n_stages

    @property
    def signal_channels(self) -> int:
        return self.hidden_channels // 2

    @property
    def noise_channels(self) -> int:
        return self.hidden_channels // 2

    @property
    def min_input_length(self) -> int:
        # every reflect pad must be strictly smaller than the map it pads
        ctx = self.compression * (self.gated_kernel // 2 + 1)
        enc = 2 ** (self.n_stages - 1) * (self.down_kernel // 2)
        return max(ctx, enc)

    @classmethod
    def tiny(cls, gate_kind: str = GATE_SOFTMAX) -> "GeneratorConfig":
        """Scaled-down variant for gradient checks and fast tests."""
        return cls(
            down_kernel=8,
            gated_kernel=7,
            up_kernel=10,
            enc_channels=(4, 8, 8, 16),
            hidden_channels=8,
            n_decoder_layers=3,
            gate_kind=gate_kind,
        )


@dataclass(frozen=True)
class DiscriminatorConfig:
    kernel: int = 32
    channels: tuple[int, ...] = (16, 16, 32, 32, 64, 32)
    leaky_slope: float = 0.2

    def __post_init__(self):
        if self.kernel % 2:
            raise ValueError("discriminator kernel must be even")

    @classmethod
    def tiny(cls) -> "DiscriminatorConfig":
        return cls(kernel=8, channels=(4, 4, 8, 8, 8, 4))


@dataclass
class NoiseBundle:
    """Base Gaussian draw feeding the upsampler's noise branch."""

    base: np.ndarray

    @classmethod
    def draw(cls, rng: np.random.Generator, channels: int, m: int, dtype=np.float32) -> "NoiseBundle":
        return cls(rng.standard_normal((channels, m), dtype=np.dtype(dtype)))


class _Layered:
    """A model whose state comes from one ordered list, ``self.layers``, of conv
    layers and bare Parameters (PReLU slopes, without spectral norm). Parameter
    order, ``convs()`` order and so the checkpoint layout follow the list.
    Every layer the forward pass uses must appear in ``self.layers``: one left
    out would train without being saved or having its spectral norm advanced.
    Built with ``rng=None``, the conv layers hold zeros for a restore to
    overwrite."""

    layers: list
    cond_scale: float = 1.0  # the residual's gain on entry, see the module docstring

    def convs(self) -> list:
        """Every spectrally normalised conv in checkpoint order, each gated
        layer as its filter then its gate."""
        return [conv for layer in self.layers if not isinstance(layer, Parameter)
                for conv in ((layer.filter, layer.gate) if isinstance(layer, GatedConvLayer)
                             else (layer,))]

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers
                for p in ([layer] if isinstance(layer, Parameter) else layer.parameters())]

    def num_parameters(self) -> int:
        return sum(p.data.size for p in self.parameters())


class Generator(_Layered):
    """Residual encoder + context decoder + adversarial upsampler."""

    def __init__(self, cfg: GeneratorConfig, rng: np.random.Generator | None,
                 dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        dp = cfg.down_kernel // 2 - 1
        gp = cfg.gated_kernel // 2
        uc = (cfg.up_kernel - 2) // 2
        self.enc_convs: list[Conv1d] = []
        self.enc_slopes: list[Parameter] = []
        prev = 1
        for i, ch in enumerate(cfg.enc_channels):
            self.enc_convs.append(
                Conv1d(rng, f"G.enc.down{i}", prev, ch, cfg.down_kernel, 2, (dp, dp), "reflect", dtype)
            )
            self.enc_slopes.append(
                Parameter(f"G.enc.down{i}.prelu", np.asarray(PRELU_INIT, dtype=dtype))
            )
            prev = ch
        self.compressor = Conv1d(
            rng, "G.enc.compress", prev, 1, cfg.gated_kernel, 1, (gp, gp), "reflect", dtype
        )
        hid = cfg.hidden_channels
        self.dec_expand = Conv1d(rng, "G.dec.expand", 1, hid, 1, 1, (0, 0), "zero", dtype)
        self.dec_layers = [
            GatedConvLayer(rng, f"G.dec.gated{i}", hid, hid, cfg.gated_kernel, cfg.gate_kind, dtype)
            for i in range(cfg.n_decoder_layers)
        ]
        sc, nc = cfg.signal_channels, cfg.noise_channels
        self.up_tconvs = [
            TConv1d(rng, f"G.up.stage{i}.tconv", hid, sc, cfg.up_kernel, 2, (uc, uc), dtype)
            for i in range(cfg.n_stages)
        ]
        self.up_gated = [
            GatedConvLayer(rng, f"G.up.stage{i}.gated", sc, sc, cfg.gated_kernel, cfg.gate_kind, dtype)
            for i in range(cfg.n_stages)
        ]
        self.noise_tconvs = [
            TConv1d(rng, f"G.up.noise{i}", nc, nc, cfg.up_kernel, 2, (uc, uc), dtype)
            for i in range(cfg.n_stages)
        ]
        self.out_conv = Conv1d(
            rng, "G.out", hid, 1, cfg.gated_kernel, 1, (gp, gp), "reflect", dtype
        )
        self.layers = [
            *(x for pair in zip(self.enc_convs, self.enc_slopes) for x in pair),
            self.compressor, self.dec_expand, *self.dec_layers,
            *self.up_tconvs, *self.up_gated, *self.noise_tconvs, self.out_conv,
        ]

    # -- forward pieces ----------------------------------------------------

    def encode_residual(self, x: Tensor) -> Tensor:
        if x.channels != 1:
            raise ValueError(f"expected 1 input channel, got {x.channels}")
        if x.length % self.cfg.compression:
            raise ValueError(f"length must be divisible by {self.cfg.compression}")
        if x.length < self.cfg.min_input_length:
            raise ValueError(
                f"input length {x.length} below minimum {self.cfg.min_input_length}"
            )
        h = ad.scale_(x, self.cond_scale)
        for conv, slope in zip(self.enc_convs, self.enc_slopes):
            h = ad.prelu_(conv(h), slope)
        return self.compressor(h)

    def decode_context(self, context: Tensor) -> Tensor:
        h = self.dec_expand(context)
        for layer in self.dec_layers:
            h = layer(h)
        return h

    def upsample_adversarial(self, hidden: Tensor, noise: NoiseBundle) -> Tensor:
        cfg = self.cfg
        want = (cfg.noise_channels, hidden.data.shape[1])
        if noise.base.shape != want:
            raise ValueError(f"noise shape mismatch: got {noise.base.shape}, want {want}")
        tape = hidden.tape
        n = (tape.tensor(noise.base, hidden.segments) if tape is not None
             else Tensor(noise.base, segments=hidden.segments))
        sig = hidden
        for tconv, gated, ntconv in zip(self.up_tconvs, self.up_gated, self.noise_tconvs):
            sig = gated(tconv(sig))
            n = ntconv(n)
            sig = ad.concat_channels_(sig, n)
        return ad.tanh_(self.out_conv(sig))

    def generate(self, residual: Tensor, noise: NoiseBundle) -> Tensor:
        return self.upsample_adversarial(self.decode_context(self.encode_residual(residual)), noise)

    def generate_segments(self, residual: np.ndarray, segment_len: int,
                          rng: np.random.Generator) -> np.ndarray:
        """Generate over a residual of any length in ``segment_len`` pieces:
        zero-pad to whole segments, draw each segment's noise from ``rng`` in
        order, and trim the output to the residual's length. The segments run
        side by side in tape-less forwards of up to TAPELESS_FORWARD_SAMPLES
        samples; each segment's output has the bits of a forward on it alone."""
        n = len(residual)
        n_seg = -(-n // segment_len)
        padded = np.zeros(n_seg * segment_len, dtype=self.dtype)
        padded[:n] = residual
        out = np.empty_like(padded)
        m = segment_len // self.cfg.compression
        nch = self.cfg.noise_channels
        per_forward = segments_per_forward(segment_len, taped=False)
        for first in range(0, n_seg, per_forward):
            s = min(per_forward, n_seg - first)
            z = np.concatenate([NoiseBundle.draw(rng, nch, m, self.dtype).base for _ in range(s)],
                               axis=1)
            span = slice(first * segment_len, (first + s) * segment_len)
            piece = self.generate(Tensor(padded[None, span], segments=s), NoiseBundle(z))
            out[span] = piece.data[0]
        return out[:n]

    def advance_spectral_norm(self):
        for conv in self.convs():
            conv.advance_spectral_norm()


class Discriminator(_Layered):
    """Strided conv stack over (candidate, residual) with a global-mean head:
    one score per segment, a (1, S) tensor."""

    def __init__(self, cfg: DiscriminatorConfig, rng: np.random.Generator | None,
                 dtype=np.float32):
        self.cfg = cfg
        pad = (cfg.kernel // 2 - 1, cfg.kernel // 2 - 1)
        self.layers: list[Conv1d] = []
        prev = 2
        for i, ch in enumerate(cfg.channels):
            self.layers.append(
                Conv1d(rng, f"D.layer{i}", prev, ch, cfg.kernel, 2, pad, "zero", dtype)
            )
            prev = ch

    def discriminate(self, candidate: Tensor, residual: Tensor) -> Tensor:
        if candidate.length != residual.length:
            raise ValueError(
                f"length mismatch: candidate {candidate.length}, residual {residual.length}"
            )
        x = ad.concat_channels_(candidate, ad.scale_(residual, self.cond_scale))
        last = len(self.layers) - 1
        for i, conv in enumerate(self.layers):
            x = conv(x)
            if i < last:
                x = ad.leaky_relu_(x, self.cfg.leaky_slope)
        return ad.mean_(x)

    def advance_spectral_norm(self):
        for conv in self.convs():
            conv.advance_spectral_norm()
