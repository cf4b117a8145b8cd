"""Losses, AMSGrad optimization, the alternating GAN loop, corpus handling,
and binary checkpoints.

The loop is deterministic per (seed, config) on a single worker: model init
draws from one seeded stream, while batch crops and noise draws share a second
stream whose state is captured in every checkpoint, so a resumed run continues
bit-exactly.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
import warnings
from dataclasses import dataclass, asdict, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import dsp
from .autodiff import Parameter, Tape, Tensor
from .model import (
    Discriminator,
    DiscriminatorConfig,
    Generator,
    GeneratorConfig,
    NoiseBundle,
    segments_per_forward,
)
from .nn import GATE_KINDS, GATE_SOFTMAX
from .wavio import read_wav, write_wav

TARGET_SPEECH = "speech"
TARGET_RESIDUAL = "residual"
TARGET_MODES = (TARGET_SPEECH, TARGET_RESIDUAL)

ADAM_EPS = 1e-8

CKPT_MAGIC = b"ABAS"
# Version 2: the channel-softmax gate became unit-gain. Version 3: the
# conditioning residual enters G and D scaled by the stored ``cond_scale``.
# An older file has the same tensor names and shapes but belongs to a
# different network.
CKPT_VERSION = 3
MOMENT_SUFFIXES = (".m", ".v", ".vmax")


class TrainDiverged(RuntimeError):
    """A loss went non-finite; the message names the first bad tensor."""


def _is_finite_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


@dataclass
class TrainConfig:
    gamma: float = 0.00015
    lr_d: float = 0.0006
    lr_g: float = 0.00015
    betas: tuple[float, float] = (0.5, 0.99)
    batch_size: int = 32
    segment_len: int = 16000
    steps: int = 100
    seed: int = 0
    gate_kind: str = GATE_SOFTMAX
    target_mode: str = TARGET_SPEECH
    lpc_order: int = 16
    frame_ms: int = 20
    corpus: str | None = None
    synthetic: dict | None = None  # {"n_clips": int, "clip_len": int}
    checkpoint_every: int = 0

    def __post_init__(self):
        for name, low in (("batch_size", 1), ("steps", 0), ("seed", 0), ("lpc_order", 1),
                          ("frame_ms", 1), ("checkpoint_every", 0)):
            v = getattr(self, name)
            if type(v) is not int or v < low:
                raise ValueError(f"{name} must be an int >= {low}, got {v!r}")
        if self.lpc_order >= self.frame_len:
            raise ValueError(f"lpc_order must be below the frame length {self.frame_len}, "
                             f"got {self.lpc_order}")
        for name in ("gamma", "lr_d", "lr_g"):
            if not _is_finite_number(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.lr_d <= 0 or self.lr_g <= 0:
            raise ValueError(f"learning rates must be positive, got lr_d={self.lr_d}, "
                             f"lr_g={self.lr_g}")
        b = self.betas
        if not (isinstance(b, (list, tuple)) and len(b) == 2
                and all(_is_finite_number(x) and 0.0 <= x < 1.0 for x in b)):
            raise ValueError(f"betas must be two numbers in [0, 1), got {b!r}")
        seg, gen = self.segment_len, GeneratorConfig()
        if type(seg) is not int or seg % gen.compression or seg < gen.min_input_length:
            raise ValueError(f"segment_len must be an int divisible by {gen.compression} "
                             f"and >= {gen.min_input_length}, got {seg!r}")
        if self.gate_kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.gate_kind!r}")
        if self.target_mode not in TARGET_MODES:
            raise ValueError(f"unknown target mode {self.target_mode!r}")
        spec = self.synthetic
        if spec is not None and (not isinstance(spec, dict) or set(spec) != {"n_clips", "clip_len"}
                                 or any(type(v) is not int or v < 1 for v in spec.values())):
            raise ValueError('synthetic spec must be {"n_clips": int, "clip_len": int}, '
                             f"both positive; got {spec!r}")
        self.betas = tuple(self.betas)

    @property
    def frame_len(self) -> int:
        return self.frame_ms * dsp.PIPELINE_RATE // 1000

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        if not isinstance(d, dict):
            raise ValueError(f"training config must be a JSON object, not {type(d).__name__}")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown training config fields: {', '.join(unknown)}")
        return cls(**d)


# ---------------------------------------------------------------------------
# losses (scalar arithmetic; the taped versions in train_step build the same
# expressions from autodiff ops and are asserted equal in the test suite)


def hinge_d_loss(d_real, d_fake) -> float:
    """Mean over the batch of max(0, 1 - d_real) + max(0, 1 + d_fake)."""
    dr = np.atleast_1d(np.asarray(d_real, dtype=np.float64))
    df = np.atleast_1d(np.asarray(d_fake, dtype=np.float64))
    return float(np.mean(np.maximum(0.0, 1.0 - dr) + np.maximum(0.0, 1.0 + df)))


def generator_loss(l1: float, d_fake: float, gamma: float) -> float:
    """Convex combination gamma * l1 - (1 - gamma) * d_fake."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    return gamma * float(l1) - (1.0 - gamma) * float(d_fake)


# ---------------------------------------------------------------------------
# optimizer


class AdamState:
    """Per-parameter AMSGrad state plus the shared step counter."""

    def __init__(self, params: list[Parameter]):
        self.t = 0
        self.m = {p.name: np.zeros_like(p.data) for p in params}
        self.v = {p.name: np.zeros_like(p.data) for p in params}
        self.vmax = {p.name: np.zeros_like(p.data) for p in params}


def adam_amsgrad_step(
    params: list[Parameter],
    state: AdamState,
    lr: float,
    betas: tuple[float, float] = (0.5, 0.99),
    eps: float = ADAM_EPS,
):
    """Bias-corrected Adam update with the running max of the second moment.

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2;  vmax <- max(vmax, v);
    theta <- theta - lr * m_hat / (sqrt(vmax_hat) + eps), with the usual
    1/(1-b^t) bias corrections. A parameter whose ``grad`` is None steps as
    with a zero gradient.
    """
    b1, b2 = betas
    state.t += 1
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for p in params:
        m, v, vmax = state.m[p.name], state.v[p.name], state.vmax[p.name]
        f = m.dtype.type
        g = f(0) if p.grad is None else p.grad
        m *= b1
        m += g * f(1.0 - b1)
        v *= b2
        v += g * g * f(1.0 - b2)
        np.maximum(vmax, v, out=vmax)
        p.data -= m / (np.sqrt(vmax / f(c2)) + f(eps)) * f(lr / c1)


# ---------------------------------------------------------------------------
# corpus


def synthesize_clip(rng: np.random.Generator, clip_len: int) -> np.ndarray:
    """One speech-like clip: 3-8 harmonics on a drifting fundamental (80-300 Hz),
    amplitude-modulated, plus low-passed noise 20 dB down, peak-normalized to 0.5."""
    sr = dsp.PIPELINE_RATE
    t = np.arange(clip_len) / sr
    f0 = rng.uniform(80.0, 300.0) * (
        1.0 + 0.05 * np.sin(2 * np.pi * rng.uniform(0.5, 2.0) * t)
    )
    phase = 2 * np.pi * np.cumsum(f0) / sr
    x = np.zeros(clip_len)
    for h in range(1, int(rng.integers(3, 9))):
        x += np.sin(h * phase + rng.uniform(0, 2 * np.pi)) / h
    am = 0.6 + 0.4 * np.sin(2 * np.pi * rng.uniform(1.0, 4.0) * t + rng.uniform(0, 2 * np.pi))
    x *= am
    noise = rng.standard_normal(clip_len)
    spec = np.fft.rfft(noise)
    freqs = np.fft.rfftfreq(clip_len, 1.0 / sr)
    spec *= np.clip((7000.0 - freqs) / 500.0, 0.0, 1.0)
    noise = np.fft.irfft(spec, clip_len)
    noise *= np.sqrt(np.mean(x**2)) / max(np.sqrt(np.mean(noise**2)), 1e-12) * 10 ** (-20 / 20)
    x += noise
    return (0.5 * x / np.max(np.abs(x))).astype(np.float32)


def gen_synthetic_corpus(n_clips: int, clip_len: int, seed: int, out_dir) -> list[Path]:
    """Write the synthetic corpus as PCM16 WAV files; byte-identical per seed."""
    rng = np.random.default_rng(seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(n_clips):
        clip = synthesize_clip(rng, clip_len)
        path = out_dir / f"clip_{i:03d}.wav"
        write_wav(path, dsp.AudioSignal(clip))
        paths.append(path)
    return paths


def load_corpus(config: TrainConfig) -> list[np.ndarray]:
    """Speech clips as float32 arrays, from WAV files or the synthetic recipe."""
    if config.corpus is not None:
        paths = sorted(Path(config.corpus).glob("*.wav"))
        if not paths:
            raise ValueError(f"corpus empty: no .wav files in {config.corpus}")
        return [read_wav(p).samples for p in paths]
    if config.synthetic is not None:
        spec = config.synthetic
        rng = np.random.default_rng(config.seed)
        return [synthesize_clip(rng, spec["clip_len"]) for _ in range(spec["n_clips"])]
    raise ValueError("config names neither a corpus directory nor a synthetic spec")


def make_batches(
    clips: list[np.ndarray],
    residuals: list[np.ndarray],
    segment_len: int,
    batch_size: int,
    rng: np.random.Generator,
    frame_len: int,
):
    """Endless stream of batches of (speech, residual) crops.

    Crop offsets are multiples of the LPC analysis frame length, so every crop
    starts an analysis frame of its clip (the residual is computed once per
    full clip). Clips shorter than segment_len are skipped with a warning, and
    a corpus with no usable clip raises here, before the first batch is drawn.
    """
    usable = []
    for i, clip in enumerate(clips):
        if len(clip) < segment_len:
            warnings.warn(f"clip {i} shorter than segment_len ({len(clip)} < {segment_len}), skipped")
            continue
        usable.append(i)
    if not usable:
        raise ValueError("segment longer than every clip in the corpus")

    def stream():
        while True:
            batch = []
            for _ in range(batch_size):
                ci = usable[int(rng.integers(0, len(usable)))]
                clip, res = clips[ci], residuals[ci]
                n_pos = (len(clip) - segment_len) // frame_len + 1
                off = int(rng.integers(0, n_pos)) * frame_len
                batch.append(
                    (
                        clip[off : off + segment_len][None, :],
                        res[off : off + segment_len][None, :],
                    )
                )
            yield batch

    return stream()


def residuals_for(clips: list[np.ndarray], order: int, frame_len: int) -> list[np.ndarray]:
    out = []
    for clip in clips:
        _, res = dsp.lpc_analyze(dsp.AudioSignal(clip), order=order, frame_len=frame_len)
        out.append(res.samples[: len(clip)])
    return out


def conditioning_scale(residuals: list[np.ndarray]) -> float:
    """1 / RMS of a corpus's residuals, pooled over every sample of every clip.

    G and D multiply the conditioning residual by this one constant where it
    enters them, in training and in vocoding, so it reaches the
    spectrally normalised layers at unit scale instead of its natural RMS of
    about 0.02. One constant, not a per-segment
    normalisation, so the residual's loudness still reaches the networks.
    """
    total = sum(float(np.sum(np.square(r, dtype=np.float64))) for r in residuals)
    if not total > 0.0:
        raise ValueError("corpus residual is silent: its conditioning scale 1/RMS is undefined")
    return 1.0 / math.sqrt(total / sum(r.size for r in residuals))


# ---------------------------------------------------------------------------
# training step and loop


@dataclass
class StepStats:
    d_loss: float
    g_loss: float
    l1: float
    adv: float


def _check_finite(tape: Tape, value: float, what: str):
    if np.isfinite(value):
        return
    culprit = tape.first_nonfinite()
    raise TrainDiverged(f"non-finite {what}; first bad tensor: {culprit or 'unknown'}")


def train_step(
    batch,
    G: Generator,
    D: Discriminator,
    opt_g: AdamState,
    opt_d: AdamState,
    config: TrainConfig,
    rng: np.random.Generator,
) -> StepStats:
    """One discriminator update followed by one generator update.

    Each phase runs the batch as the segments of taped forwards of up to
    FORWARD_SAMPLES samples (``segments_per_forward``), each with one tape and
    one loss: the batch mean of its examples' losses, scaled by its share of
    the batch, so the gradients of its forwards sum to the batch's. Fresh
    noise is drawn for each phase, one per example in batch order;
    spectral-norm power iterations advance exactly once per phase, before its
    forwards. A gradient lives from a phase's backward passes to its Adam
    step, which is the last to read it: every parameter enters and leaves
    the step with ``grad`` None. The D phase generates each forward's fakes
    with G frozen (``generate_segments``, one tape-less forward) and scores
    its real and fake candidates side by side, as twice as many segments.
    The G phase holds D frozen on its tapes (``Tape(constants=...)``): D's
    weights are normalised tape-less and backward computes no gradient for
    them, only the input gradients that reach G, whose bits do not depend on
    it. The batch enters both phases cast once to G's dtype, so a float64
    model runs float64 throughout, whatever its corpus holds. G and D scale
    the residual they are conditioned on by their own ``cond_scale``; in
    residual-target mode the L1 target and D's real candidate are the
    residual as the batch holds it.
    """
    g_params = G.parameters()
    d_params = D.parameters()
    inv_b = 1.0 / len(batch)
    nch = G.cfg.noise_channels
    seg = config.segment_len
    m = seg // G.cfg.compression
    residual_target = config.target_mode == TARGET_RESIDUAL
    per = segments_per_forward(seg)
    # the examples of each forward side by side, in the models' dtype:
    # (count, speech, residual)
    parts = [(len(p), np.concatenate([x for x, _ in p], axis=1).astype(G.dtype, copy=False),
              np.concatenate([r for _, r in p], axis=1).astype(G.dtype, copy=False))
             for p in (batch[i : i + per] for i in range(0, len(batch), per))]

    # -- discriminator phase
    D.advance_spectral_norm()
    for p in g_params + d_params:
        p.zero_grad()  # a gradient left by a caller is not this step's
    d_loss = 0.0
    for n, speech, res in parts:
        fake = G.generate_segments(res[0], seg, rng)[None]
        real = res if residual_target else speech
        tape = Tape()
        scores = D.discriminate(tape.tensor(np.concatenate([real, fake], axis=1), 2 * n),
                                tape.tensor(np.concatenate([res, res], axis=1), 2 * n))
        # max(0, 1 - real) + max(0, 1 + fake), as max(0, 1 + sign * score)
        sign = Tensor(np.repeat(np.array([[-1, 1]], scores.data.dtype), n, axis=1), segments=2 * n)
        hinge = ad.relu_(ad.shift_(ad.mul_(scores, sign), 1.0))
        loss = ad.scale_(ad.batch_mean_(hinge), 2 * n * inv_b)
        _check_finite(tape, loss.item(), "discriminator loss")
        tape.backward(loss)
        d_loss += loss.item()
    adam_amsgrad_step(d_params, opt_d, config.lr_d, config.betas)
    for p in d_params:
        p.zero_grad()

    # -- generator phase
    G.advance_spectral_norm()
    l1_mean = 0.0
    adv_mean = 0.0
    for n, speech, res in parts:
        z = np.concatenate([NoiseBundle.draw(rng, nch, m, G.dtype).base for _ in range(n)],
                           axis=1)
        tape = Tape(constants=d_params)
        cond = tape.tensor(res, n)
        fake = G.generate(cond, NoiseBundle(z))
        l1 = ad.abs_mean_(ad.sub_(fake, tape.tensor(res if residual_target else speech, n)))
        adv = D.discriminate(fake, cond)
        loss = ad.scale_(ad.batch_mean_(
            ad.add_(ad.scale_(l1, config.gamma), ad.scale_(adv, -(1.0 - config.gamma)))),
            n * inv_b)
        _check_finite(tape, loss.item(), "generator loss")
        tape.backward(loss)
        l1_mean += float(np.sum(l1.data, dtype=np.float64)) * inv_b
        adv_mean += float(np.sum(adv.data, dtype=np.float64)) * inv_b
    adam_amsgrad_step(g_params, opt_g, config.lr_g, config.betas)
    for p in g_params:
        p.zero_grad()

    return StepStats(
        d_loss=d_loss,
        g_loss=generator_loss(l1_mean, adv_mean, config.gamma),
        l1=l1_mean,
        adv=adv_mean,
    )


def _models(config: TrainConfig, rng: np.random.Generator | None,
            dtype=np.float32) -> tuple[Generator, Discriminator]:
    return (Generator(GeneratorConfig(gate_kind=config.gate_kind), rng, dtype),
            Discriminator(DiscriminatorConfig(), rng, dtype))


def build_models(config: TrainConfig, dtype=np.float32) -> tuple[Generator, Discriminator]:
    """Deterministic model construction from the config seed."""
    return _models(config, np.random.default_rng([config.seed, 0]), dtype)


def restore_models(ckpt: "Checkpoint") -> tuple[Generator, Discriminator]:
    """A checkpoint's models without optimizers, as vocoding needs them. They are
    built without drawing any weight: ``restore_into`` overwrites every value,
    and copies none unless the file holds them all."""
    G, D = _models(ckpt.config, None)
    restore_into(ckpt, G, D)
    return G, D


def format_loss_row(step: int, s: StepStats) -> str:
    return f"{step},{s.d_loss:.9g},{s.g_loss:.9g},{s.l1:.9g},{s.adv:.9g}"


LOSS_HEADER = "step,d_loss,g_loss,l1,adv"


def train_loop(config: TrainConfig, out_dir, resume_from=None) -> list[StepStats]:
    """Run (or resume) training; writes loss.csv, periodic step_N.ckpt, final.ckpt,
    and returns the stats of the steps it ran.

    The models' conditioning scale is computed from the corpus on a fresh run
    and restored from the checkpoint on a resumed one. A run resumed from step
    N into a directory that already holds loss.csv keeps that file's header
    and rows up to step N, and appends the rest; rows after N, which a crashed
    run may have left, are dropped and computed again."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ad.release_free_memory()

    clips = load_corpus(config)
    residuals = residuals_for(clips, config.lpc_order, config.frame_len)

    G, D = build_models(config)
    opt_g = AdamState(G.parameters())
    opt_d = AdamState(D.parameters())
    rng = np.random.default_rng([config.seed, 1])
    G.cond_scale = D.cond_scale = conditioning_scale(residuals)
    start_step = 0
    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        restore_into(ckpt, G, D, opt_g, opt_d)
        rng.bit_generator.state = ckpt.rng_state
        start_step = ckpt.step

    batches = make_batches(clips, residuals, config.segment_len, config.batch_size, rng,
                           config.frame_len)
    log_path = out_dir / "loss.csv"
    kept = 0  # characters of an existing loss.csv that a resume keeps
    if resume_from is not None and log_path.exists():
        with open(log_path) as log:
            for i, line in enumerate(log):
                if not line.endswith("\n") or (i and int(line.split(",")[0]) > start_step):
                    break
                kept += len(line)
    history: list[StepStats] = []
    with open(log_path, "a") as log:
        log.truncate(kept)
        if not kept:
            log.write(LOSS_HEADER + "\n")
        for step in range(start_step + 1, config.steps + 1):
            stats = train_step(next(batches), G, D, opt_g, opt_d, config, rng)
            history.append(stats)
            log.write(format_loss_row(step, stats) + "\n")
            log.flush()  # a crash loses no logged step
            if config.checkpoint_every and step % config.checkpoint_every == 0 and step < config.steps:
                save_checkpoint(out_dir / f"step_{step}.ckpt", config, G, D, opt_g, opt_d,
                                rng.bit_generator.state, step)
    save_checkpoint(out_dir / "final.ckpt", config, G, D, opt_g, opt_d,
                    rng.bit_generator.state, config.steps)
    return history


# ---------------------------------------------------------------------------
# checkpoints


class CheckpointError(RuntimeError):
    pass


class BadMagic(CheckpointError):
    pass


class BadVersion(CheckpointError):
    pass


class ShapeMismatch(CheckpointError):
    pass


class TruncatedCheckpoint(CheckpointError):
    pass


@dataclass
class Checkpoint:
    config: TrainConfig
    tensors: dict[str, np.ndarray]  # checkpoint name -> array, in file order
    rng_state: dict
    step: int
    adam_t: dict[str, int]  # optimizer step counters {"g": ..., "d": ...}
    cond_scale: float  # the residual's gain into G and D, see conditioning_scale


def state_tensors(G: Generator, D: Discriminator,
                  opt_g: AdamState | None, opt_d: AdamState | None) -> dict[str, np.ndarray]:
    """The live arrays of a run by checkpoint name, in file order.

    Parameters of G then D, then ``.m``/``.v``/``.vmax`` per parameter, then
    ``.sn_u`` per power-iteration vector. A missing optimizer's moments are
    read-only zero-stride stand-ins of the right shape: a checkpoint must still
    hold them, but there is nowhere to copy them.
    """
    tensors = {p.name: p.data for p in G.parameters() + D.parameters()}
    for opt, model in ((opt_g, G), (opt_d, D)):
        for p in model.parameters():
            if opt is None:
                moments = [np.broadcast_to(np.zeros((), p.data.dtype), p.data.shape)] * 3
            else:
                moments = [opt.m[p.name], opt.v[p.name], opt.vmax[p.name]]
            tensors.update((p.name + sfx, a) for sfx, a in zip(MOMENT_SUFFIXES, moments))
    tensors.update((conv.weight.name + ".sn_u", conv.sn.u) for conv in G.convs() + D.convs())
    return tensors


def _write_tensor(f, name: str, arr: np.ndarray):
    data = np.asarray(arr, dtype="<f4")  # tobytes() serializes C-order; 0-d stays rank 0
    nb = name.encode("utf-8")
    f.write(struct.pack("<H", len(nb)))
    f.write(nb)
    f.write(struct.pack("<B", data.ndim))
    for d in data.shape:
        f.write(struct.pack("<I", d))
    f.write(data.tobytes())


def _write_checkpoint(path, blob: dict, pairs, step: int):
    """Write magic, version, the JSON metadata blob, the (name, array) tensor
    records and the step to a temporary file, then rename it over path, so a
    crash mid-save leaves the previous checkpoint intact and no partial file."""
    data = json.dumps(blob).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CKPT_MAGIC)
            f.write(struct.pack("<I", CKPT_VERSION))
            f.write(struct.pack("<I", len(data)))
            f.write(data)
            f.write(struct.pack("<I", len(pairs)))
            for name, arr in pairs:
                _write_tensor(f, name, arr)
            f.write(struct.pack("<Q", step))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, config: TrainConfig, G: Generator, D: Discriminator,
                    opt_g: AdamState, opt_d: AdamState, rng_state: dict, step: int):
    """Write the training state to path atomically, with the models'
    conditioning scale, which the two must share. ``load_checkpoint`` reads
    it back."""
    if G.cond_scale != D.cond_scale:
        raise ValueError(f"G and D disagree on cond_scale: {G.cond_scale} vs {D.cond_scale}")
    blob = {"config": config.to_dict(), "rng_state": rng_state,
            "adam_t": {"g": opt_g.t, "d": opt_d.t}, "cond_scale": G.cond_scale}
    _write_checkpoint(path, blob, state_tensors(G, D, opt_g, opt_d).items(), step)


class _Reader:
    def __init__(self, data: bytes | mmap.mmap):
        self.data = data
        self.pos = 0

    def _need(self, n: int):
        if self.pos + n > len(self.data):
            raise TruncatedCheckpoint(
                f"truncated file: wanted {n} bytes at offset {self.pos}, have {len(self.data)}"
            )

    def read(self, n: int) -> bytes:
        self._need(n)
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def floats(self, count: int) -> np.ndarray:
        """Read-only float32 view into the file buffer: no copy."""
        self._need(4 * count)
        out = np.frombuffer(self.data, dtype="<f4", count=count, offset=self.pos)
        self.pos += 4 * count
        return out

    def uint(self, fmt: str) -> int:
        """One little-endian unsigned integer of struct format fmt ("B", "H", "I", "Q")."""
        fmt = "<" + fmt
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))[0]


def load_checkpoint(path) -> Checkpoint:
    """Parse a checkpoint file: magic, version, metadata keys, truncation and
    duplicate tensor names are checked here; tensor names and shapes against
    an architecture are checked by ``restore_into``. Tensors are read-only
    views into a memory map of the file, so only the pages a caller reads are
    loaded: vocoding never reads the optimizer moments, three quarters of the
    file. A map, unlike a read into the heap, also costs the same memory
    whatever the heap's free space at the time."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        raw = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) if size else b""
    r = _Reader(raw)
    if r.read(4) != CKPT_MAGIC:
        raise BadMagic("bad magic")
    version = r.uint("I")
    if version != CKPT_VERSION:
        raise BadVersion(
            f"unsupported version {version}; this build reads version {CKPT_VERSION}"
        )
    blob = json.loads(r.read(r.uint("I")).decode("utf-8"))
    if type(blob) is not dict:
        raise CheckpointError("checkpoint metadata must be a JSON object")
    for key in ("config", "rng_state", "adam_t", "cond_scale"):
        if key not in blob:
            raise CheckpointError(f"checkpoint metadata lacks {key!r}")
    cond_scale = blob["cond_scale"]
    if type(cond_scale) not in (int, float) or not 0.0 < cond_scale < math.inf:
        raise CheckpointError(f"checkpoint metadata 'cond_scale' must be a positive "
                              f"finite number, got {cond_scale!r}")
    adam_t = blob["adam_t"]
    if (type(adam_t) is not dict or sorted(adam_t) != ["d", "g"]
            or any(type(t) is not int or t < 0 for t in adam_t.values())):
        raise CheckpointError(f"checkpoint metadata 'adam_t' must map 'g' and 'd' to "
                              f"non-negative integers, got {adam_t!r}")
    try:
        np.random.PCG64().state = blob["rng_state"]
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise CheckpointError(f"checkpoint metadata 'rng_state' is not a PCG64 state: "
                              f"{e!r}") from None
    config = TrainConfig.from_dict(blob["config"])
    n_tensors = r.uint("I")
    tensors = {}
    for _ in range(n_tensors):
        name = r.read(r.uint("H")).decode("utf-8")
        if name in tensors:
            raise CheckpointError(f"tensor {name!r} appears twice")
        rank = r.uint("B")
        shape = tuple(r.uint("I") for _ in range(rank))
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        tensors[name] = r.floats(count).reshape(shape)
    step = r.uint("Q")
    return Checkpoint(config, tensors, blob["rng_state"], step, adam_t, float(cond_scale))


def restore_into(ckpt: Checkpoint, G: Generator, D: Discriminator,
                 opt_g: AdamState | None = None, opt_d: AdamState | None = None):
    """Copy checkpoint values, the conditioning scale among them, into freshly
    built models (and optimizer states).

    The file must hold exactly the tensors ``state_tensors`` names for these
    models, with the same shapes, optimizer moments included when no
    optimizer is given; otherwise ShapeMismatch is raised and nothing is copied.
    """
    live = state_tensors(G, D, opt_g, opt_d)
    for name, arr in ckpt.tensors.items():
        if name not in live:
            raise ShapeMismatch(f"unexpected tensor {name!r} for this architecture")
        if arr.shape != live[name].shape:
            raise ShapeMismatch(
                f"shape mismatch for {name!r}: file {arr.shape}, architecture {live[name].shape}"
            )
    missing = sorted(set(live) - set(ckpt.tensors))
    if missing:
        raise ShapeMismatch(f"{len(missing)} tensors missing, first {missing[0]!r}")

    stand_ins = {p.name + sfx for opt, model in ((opt_g, G), (opt_d, D)) if opt is None
                 for p in model.parameters() for sfx in MOMENT_SUFFIXES}
    for name, dst in live.items():
        if name not in stand_ins:
            dst[...] = ckpt.tensors[name]
    G.cond_scale = D.cond_scale = ckpt.cond_scale
    for opt, key in ((opt_g, "g"), (opt_d, "d")):
        if opt is not None:
            opt.t = ckpt.adam_t[key]
