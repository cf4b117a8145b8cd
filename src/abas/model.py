"""The conditional generator cascade and the discriminator.

Generator = residual encoder (16x learned downsampling to a 1-channel context)
-> context decoder (1x1 expansion + stack of gated convs) -> adversarial
upsampler (4 doubling stages, each refined by a gated conv and joined by an
independently upsampled noise branch) -> single-channel tanh output.

Discriminator = strided conv stack over the 2-channel (candidate, residual)
concatenation, spectral-normalized throughout, global mean as the score.

Everything is fully convolutional: any input length that is a multiple of the
compression factor and at least ``min_input_length`` works.
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
    SpectralNormState,
    TConv1d,
    matricize,
)


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
    seed: int | None = None

    @classmethod
    def draw(cls, rng: np.random.Generator, channels: int, m: int, dtype=np.float32,
             seed: int | None = None) -> "NoiseBundle":
        return cls(rng.standard_normal((channels, m), dtype=np.dtype(dtype)), seed)


class Generator:
    """Residual encoder + context decoder + adversarial upsampler."""

    def __init__(self, cfg: GeneratorConfig, rng: np.random.Generator, dtype=np.float32):
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
                Conv1d(rng, f"G.enc.down{i}", prev, ch, cfg.down_kernel, 2, (dp, dp), "reflect", True, dtype)
            )
            self.enc_slopes.append(
                Parameter(f"G.enc.down{i}.prelu", np.asarray(PRELU_INIT, dtype=dtype))
            )
            prev = ch
        self.compressor = Conv1d(
            rng, "G.enc.compress", prev, 1, cfg.gated_kernel, 1, (gp, gp), "reflect", True, dtype
        )
        hid = cfg.hidden_channels
        self.dec_expand = Conv1d(rng, "G.dec.expand", 1, hid, 1, 1, (0, 0), "zero", True, dtype)
        self.dec_layers = [
            GatedConvLayer(rng, f"G.dec.gated{i}", hid, hid, cfg.gated_kernel, cfg.gate_kind, True, dtype)
            for i in range(cfg.n_decoder_layers)
        ]
        sc, nc = cfg.signal_channels, cfg.noise_channels
        self.up_tconvs = [
            TConv1d(rng, f"G.up.stage{i}.tconv", hid, sc, cfg.up_kernel, 2, (uc, uc), True, dtype)
            for i in range(cfg.n_stages)
        ]
        self.up_gated = [
            GatedConvLayer(rng, f"G.up.stage{i}.gated", sc, sc, cfg.gated_kernel, cfg.gate_kind, True, dtype)
            for i in range(cfg.n_stages)
        ]
        self.noise_tconvs = [
            TConv1d(rng, f"G.up.noise{i}", nc, nc, cfg.up_kernel, 2, (uc, uc), True, dtype)
            for i in range(cfg.n_stages)
        ]
        self.out_conv = Conv1d(
            rng, "G.out", hid, 1, cfg.gated_kernel, 1, (gp, gp), "reflect", True, dtype
        )

    # -- forward pieces ----------------------------------------------------

    def encode_residual(self, x: Tensor, trace: list | None = None) -> Tensor:
        if x.channels != 1:
            raise ValueError(f"expected 1 input channel, got {x.channels}")
        if x.length % self.cfg.compression:
            raise ValueError(f"length must be divisible by {self.cfg.compression}")
        if x.length < self.cfg.min_input_length:
            raise ValueError(
                f"input length {x.length} below minimum {self.cfg.min_input_length}"
            )
        h = x
        for conv, slope in zip(self.enc_convs, self.enc_slopes):
            h = ad.prelu_(conv(h), slope)
            if trace is not None:
                trace.append(h.data.shape)
        h = self.compressor(h)
        if trace is not None:
            trace.append(h.data.shape)
        return h

    def decode_context(self, context: Tensor) -> Tensor:
        h = self.dec_expand(context)
        for layer in self.dec_layers:
            h = layer(h)
        return h

    def upsample_adversarial(
        self, hidden: Tensor, noise: NoiseBundle, trace: list | None = None
    ) -> Tensor:
        cfg = self.cfg
        want = (cfg.noise_channels, hidden.length)
        if noise.base.shape != want:
            raise ValueError(f"noise shape mismatch: got {noise.base.shape}, want {want}")
        tape = hidden.tape
        n = tape.tensor(noise.base) if tape is not None else Tensor(noise.base)
        sig = hidden
        for tconv, gated, ntconv in zip(self.up_tconvs, self.up_gated, self.noise_tconvs):
            sig = gated(tconv(sig))
            n = ntconv(n)
            sig = ad.concat_channels_(sig, n)
            if trace is not None:
                trace.append(sig.data.shape)
        return ad.tanh_(self.out_conv(sig))

    def generate(self, residual: Tensor, noise: NoiseBundle) -> Tensor:
        return self.upsample_adversarial(self.decode_context(self.encode_residual(residual)), noise)

    # -- bookkeeping ---------------------------------------------------------

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for conv, slope in zip(self.enc_convs, self.enc_slopes):
            params += conv.parameters() + [slope]
        params += self.compressor.parameters() + self.dec_expand.parameters()
        for layer in self.dec_layers:
            params += layer.parameters()
        for group in (self.up_tconvs, self.up_gated, self.noise_tconvs):
            for layer in group:
                params += layer.parameters()
        params += self.out_conv.parameters()
        return params

    def sn_entries(self) -> list[tuple[str, SpectralNormState, bool]]:
        entries = []
        for conv in self.enc_convs:
            entries += conv.sn_entries()
        entries += self.compressor.sn_entries() + self.dec_expand.sn_entries()
        for layer in self.dec_layers:
            entries += layer.sn_entries()
        for group in (self.up_tconvs, self.up_gated, self.noise_tconvs):
            for layer in group:
                entries += layer.sn_entries()
        entries += self.out_conv.sn_entries()
        return entries

    def advance_spectral_norm(self):
        advance_states(self.sn_entries(), {p.name: p for p in self.parameters()})

    def num_parameters(self) -> int:
        return sum(p.data.size for p in self.parameters())


class Discriminator:
    """Strided conv stack over (candidate, residual) with a global-mean head."""

    def __init__(self, cfg: DiscriminatorConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        pad = (cfg.kernel // 2 - 1, cfg.kernel // 2 - 1)
        self.layers: list[Conv1d] = []
        prev = 2
        for i, ch in enumerate(cfg.channels):
            self.layers.append(
                Conv1d(rng, f"D.layer{i}", prev, ch, cfg.kernel, 2, pad, "zero", True, dtype)
            )
            prev = ch

    def discriminate(
        self, candidate: Tensor, residual: Tensor, trace: list | None = None
    ) -> Tensor:
        if candidate.length != residual.length:
            raise ValueError(
                f"length mismatch: candidate {candidate.length}, residual {residual.length}"
            )
        x = ad.concat_channels_(candidate, residual)
        last = len(self.layers) - 1
        for i, conv in enumerate(self.layers):
            x = conv(x)
            if i < last:
                x = ad.leaky_relu_(x, self.cfg.leaky_slope)
            if trace is not None:
                trace.append(x.data.shape)
        return ad.mean_(x)

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for conv in self.layers:
            params += conv.parameters()
        return params

    def sn_entries(self):
        entries = []
        for conv in self.layers:
            entries += conv.sn_entries()
        return entries

    def advance_spectral_norm(self):
        advance_states(self.sn_entries(), {p.name: p for p in self.parameters()})

    def num_parameters(self) -> int:
        return sum(p.data.size for p in self.parameters())


def advance_states(entries, params_by_name):
    for name, state, transpose in entries:
        state.advance(matricize(params_by_name[name].data, transpose))
