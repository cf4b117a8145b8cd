"""Losses, AMSGrad optimization, the alternating GAN loop, corpus handling,
and binary checkpoints.

The loop is deterministic per (seed, config) on a single worker: model init
draws from one seeded stream, while batch crops and noise draws share a second
stream whose state is captured in every checkpoint, so a resumed run continues
bit-exactly.
"""

from __future__ import annotations

import json
import struct
import warnings
from dataclasses import dataclass, field, asdict
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
)
from .nn import GATE_KINDS, GATE_SOFTMAX
from .wavio import read_wav, write_wav

TARGET_SPEECH = "speech"
TARGET_RESIDUAL = "residual"
TARGET_MODES = (TARGET_SPEECH, TARGET_RESIDUAL)

ADAM_EPS = 1e-8
CROP_GRID = dsp.DEFAULT_FRAME_LEN

CKPT_MAGIC = b"ABAS"
CKPT_VERSION = 1
MOMENT_SUFFIXES = (".m", ".v", ".vmax")


class TrainDiverged(RuntimeError):
    """A loss went non-finite; the message names the first bad tensor."""


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
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.segment_len % 16 or self.segment_len < 528:
            raise ValueError("segment_len must be divisible by 16 and >= 528")
        if self.gate_kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.gate_kind!r}")
        if self.target_mode not in TARGET_MODES:
            raise ValueError(f"unknown target mode {self.target_mode!r}")
        self.betas = tuple(self.betas)

    @property
    def frame_len(self) -> int:
        return self.frame_ms * dsp.PIPELINE_RATE // 1000

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
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
        self._scratch = {p.name: np.empty_like(p.data) for p in params}


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
    1/(1-b^t) bias corrections. Allocation-free: updates run through one
    persistent scratch buffer per parameter.
    """
    b1, b2 = betas
    state.t += 1
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for p in params:
        m, v, vmax = state.m[p.name], state.v[p.name], state.vmax[p.name]
        s = state._scratch[p.name]
        g = p.grad
        m *= b1
        np.multiply(g, m.dtype.type(1.0 - b1), out=s)
        m += s
        v *= b2
        np.multiply(g, g, out=s)
        s *= v.dtype.type(1.0 - b2)
        v += s
        np.maximum(vmax, v, out=vmax)
        np.divide(vmax, vmax.dtype.type(c2), out=s)
        np.sqrt(s, out=s)
        s += s.dtype.type(eps)
        np.divide(m, s, out=s)
        s *= s.dtype.type(lr / c1)
        p.data -= s


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
        spec = dict(config.synthetic)
        rng = np.random.default_rng(spec.get("seed", config.seed))
        clips = [synthesize_clip(rng, int(spec["clip_len"])) for _ in range(int(spec["n_clips"]))]
        if not clips:
            raise ValueError("corpus empty: synthetic spec with zero clips")
        return clips
    raise ValueError("config names neither a corpus directory nor a synthetic spec")


def make_batches(
    clips: list[np.ndarray],
    residuals: list[np.ndarray],
    segment_len: int,
    batch_size: int,
    rng: np.random.Generator,
):
    """Endless stream of batches of (speech, residual) crops.

    Crop offsets are aligned to the LPC frame grid so the residual (computed
    once per full clip) stays in sync with the speech samples. Clips shorter
    than segment_len are skipped with a warning.
    """
    usable = []
    for i, clip in enumerate(clips):
        if len(clip) < segment_len:
            warnings.warn(f"clip {i} shorter than segment_len ({len(clip)} < {segment_len}), skipped")
            continue
        usable.append(i)
    if not usable:
        raise ValueError("segment longer than every clip in the corpus")
    while True:
        batch = []
        for _ in range(batch_size):
            ci = usable[int(rng.integers(0, len(usable)))]
            clip, res = clips[ci], residuals[ci]
            n_pos = (len(clip) - segment_len) // CROP_GRID + 1
            off = int(rng.integers(0, n_pos)) * CROP_GRID
            batch.append(
                (
                    clip[off : off + segment_len][None, :],
                    res[off : off + segment_len][None, :],
                )
            )
        yield batch


def residuals_for(clips: list[np.ndarray], order: int, frame_len: int) -> list[np.ndarray]:
    out = []
    for clip in clips:
        _, res = dsp.lpc_analyze(dsp.AudioSignal(clip), order=order, frame_len=frame_len)
        out.append(res.samples[: len(clip)])
    return out


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

    Fresh noise is drawn for each phase; spectral-norm power iterations
    advance exactly once per phase, before its forwards; gradients are zeroed
    between phases.
    """
    g_params = G.parameters()
    d_params = D.parameters()
    inv_b = 1.0 / len(batch)
    nch = G.cfg.noise_channels
    m = config.segment_len // G.cfg.compression
    residual_target = config.target_mode == TARGET_RESIDUAL

    # -- discriminator phase
    D.advance_spectral_norm()
    for p in g_params + d_params:
        p.zero_grad()
    d_loss = 0.0
    for x_seg, r_seg in batch:
        z = NoiseBundle.draw(rng, nch, m, dtype=x_seg.dtype)
        fake = G.generate(Tensor(r_seg), z).data  # no tape: G is frozen here
        tape = Tape()
        real_candidate = r_seg if residual_target else x_seg
        d_real = D.discriminate(tape.tensor(real_candidate), tape.tensor(r_seg))
        d_fake = D.discriminate(tape.tensor(fake), tape.tensor(r_seg))
        # max(0, 1 - real) + max(0, 1 + fake), averaged over the batch
        loss = ad.scale_(
            ad.add_(
                ad.relu_(ad.shift_(ad.scale_(d_real, -1.0), 1.0)),
                ad.relu_(ad.shift_(d_fake, 1.0)),
            ),
            inv_b,
        )
        _check_finite(tape, loss.item(), "discriminator loss")
        tape.backward(loss)
        d_loss += loss.item()
    adam_amsgrad_step(d_params, opt_d, config.lr_d, config.betas)

    # -- generator phase
    G.advance_spectral_norm()
    for p in g_params + d_params:
        p.zero_grad()
    l1_mean = 0.0
    adv_mean = 0.0
    for x_seg, r_seg in batch:
        z = NoiseBundle.draw(rng, nch, m, dtype=x_seg.dtype)
        tape = Tape()
        fake = G.generate(tape.tensor(r_seg), z)
        target = r_seg if residual_target else x_seg
        l1 = ad.abs_mean_(ad.sub_(fake, tape.tensor(target)))
        adv = D.discriminate(fake, tape.tensor(r_seg))
        loss = ad.scale_(
            ad.add_(ad.scale_(l1, config.gamma), ad.scale_(adv, -(1.0 - config.gamma))),
            inv_b,
        )
        _check_finite(tape, loss.item(), "generator loss")
        tape.backward(loss)
        l1_mean += l1.item() * inv_b
        adv_mean += adv.item() * inv_b
    adam_amsgrad_step(g_params, opt_g, config.lr_g, config.betas)
    for p in g_params + d_params:
        p.zero_grad()

    return StepStats(
        d_loss=d_loss,
        g_loss=generator_loss(l1_mean, adv_mean, config.gamma),
        l1=l1_mean,
        adv=adv_mean,
    )


def build_models(config: TrainConfig, dtype=np.float32) -> tuple[Generator, Discriminator]:
    """Deterministic model construction from the config seed."""
    rng = np.random.default_rng([config.seed, 0])
    g = Generator(GeneratorConfig(gate_kind=config.gate_kind), rng, dtype)
    d = Discriminator(DiscriminatorConfig(), rng, dtype)
    return g, d


def format_loss_row(step: int, s: StepStats) -> str:
    return f"{step},{s.d_loss:.9g},{s.g_loss:.9g},{s.l1:.9g},{s.adv:.9g}"


LOSS_HEADER = "step,d_loss,g_loss,l1,adv"


def train_loop(config: TrainConfig, out_dir, resume_from=None) -> tuple["Checkpoint", list[StepStats]]:
    """Run (or resume) training; writes loss.csv, periodic step_N.ckpt, final.ckpt."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    clips = load_corpus(config)
    residuals = residuals_for(clips, config.lpc_order, config.frame_len)

    G, D = build_models(config)
    opt_g = AdamState(G.parameters())
    opt_d = AdamState(D.parameters())
    rng = np.random.default_rng([config.seed, 1])
    start_step = 0
    if resume_from is not None:
        ckpt = load_checkpoint(resume_from)
        restore_into(ckpt, G, D, opt_g, opt_d)
        rng.bit_generator.state = ckpt.rng_state
        start_step = ckpt.step

    batches = make_batches(clips, residuals, config.segment_len, config.batch_size, rng)
    history: list[StepStats] = []
    with open(out_dir / "loss.csv", "w") as log:
        log.write(LOSS_HEADER + "\n")
        for step in range(start_step + 1, config.steps + 1):
            stats = train_step(next(batches), G, D, opt_g, opt_d, config, rng)
            history.append(stats)
            log.write(format_loss_row(step, stats) + "\n")
            if config.checkpoint_every and step % config.checkpoint_every == 0 and step < config.steps:
                save_checkpoint(out_dir / f"step_{step}.ckpt", config, G, D, opt_g, opt_d,
                                rng.bit_generator.state, step)
    final = save_checkpoint(out_dir / "final.ckpt", config, G, D, opt_g, opt_d,
                            rng.bit_generator.state, config.steps)
    return final, history


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
    version: int
    config: TrainConfig
    params: dict[str, np.ndarray]
    opt: dict[str, np.ndarray]
    sn_u: dict[str, np.ndarray]
    rng_state: dict
    step: int
    adam_t: dict[str, int]  # optimizer step counters {"g": ..., "d": ...}


def _write_tensor(f, name: str, arr: np.ndarray):
    data = np.asarray(arr, dtype="<f4")  # tobytes() serializes C-order; 0-d stays rank 0
    nb = name.encode("utf-8")
    f.write(struct.pack("<H", len(nb)))
    f.write(nb)
    f.write(struct.pack("<B", data.ndim))
    for d in data.shape:
        f.write(struct.pack("<I", d))
    f.write(data.tobytes())


def save_checkpoint(path, config: TrainConfig, G: Generator, D: Discriminator,
                    opt_g: AdamState, opt_d: AdamState, rng_state: dict, step: int) -> Checkpoint:
    params = {p.name: p.data for p in G.parameters() + D.parameters()}
    opt: dict[str, np.ndarray] = {}
    for state, model_params in ((opt_g, G.parameters()), (opt_d, D.parameters())):
        for p in model_params:
            opt[p.name + ".m"] = state.m[p.name]
            opt[p.name + ".v"] = state.v[p.name]
            opt[p.name + ".vmax"] = state.vmax[p.name]
    sn_u = {name + ".sn_u": st.u for name, st, _ in G.sn_entries() + D.sn_entries()}
    adam_t = {"g": opt_g.t, "d": opt_d.t}

    blob = json.dumps(
        {
            "config": config.to_dict(),
            "rng_state": _jsonable(rng_state),
            "adam_t": adam_t,
        }
    ).encode("utf-8")
    tensors = list(params.items()) + list(opt.items()) + list(sn_u.items())
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<I", CKPT_VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors:
            _write_tensor(f, name, arr)
        f.write(struct.pack("<Q", step))
    return Checkpoint(CKPT_VERSION, config,
                      {k: v.copy() for k, v in params.items()},
                      {k: v.copy() for k, v in opt.items()},
                      {k: v.copy() for k, v in sn_u.items()},
                      _jsonable(rng_state), step, adam_t)


def _jsonable(state):
    """PCG64 state dicts contain ints only, but normalize defensively."""
    return json.loads(json.dumps(state))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedCheckpoint(
                f"truncated file: wanted {n} bytes at offset {self.pos}, have {len(self.data)}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self):
        return struct.unpack("<B", self.read(1))[0]

    def u16(self):
        return struct.unpack("<H", self.read(2))[0]

    def u32(self):
        return struct.unpack("<I", self.read(4))[0]

    def u64(self):
        return struct.unpack("<Q", self.read(8))[0]


def load_checkpoint(path) -> Checkpoint:
    """Parse a checkpoint file: magic, version and truncation are checked here;
    tensor names and shapes are checked by ``restore_into``."""
    raw = Path(path).read_bytes()
    r = _Reader(raw)
    if r.read(4) != CKPT_MAGIC:
        raise BadMagic("bad magic")
    version = r.u32()
    if version != CKPT_VERSION:
        raise BadVersion(f"unsupported version {version}")
    blob = json.loads(r.read(r.u32()).decode("utf-8"))
    config = TrainConfig.from_dict(blob["config"])
    n_tensors = r.u32()
    params, opt, sn_u = {}, {}, {}
    for _ in range(n_tensors):
        name = r.read(r.u16()).decode("utf-8")
        rank = r.u8()
        shape = tuple(r.u32() for _ in range(rank))
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        arr = np.frombuffer(r.read(4 * count), dtype="<f4").reshape(shape).copy()
        if name.endswith(".sn_u"):
            sn_u[name] = arr
        elif name.endswith(MOMENT_SUFFIXES):
            opt[name] = arr
        else:
            params[name] = arr
    step = r.u64()
    adam_t = blob.get("adam_t", {"g": step, "d": step})
    return Checkpoint(version, config, params, opt, sn_u, blob["rng_state"], step, adam_t)


def restore_into(ckpt: Checkpoint, G: Generator, D: Discriminator,
                 opt_g: AdamState | None = None, opt_d: AdamState | None = None):
    """Copy checkpoint values into freshly built models (and optimizer states).

    Every tensor in the file must name a parameter, optimizer moment or
    power-iteration vector of these models with the same shape, and every one
    of those must be present, optimizer moments included when no optimizer
    is given; otherwise ShapeMismatch is raised and nothing is copied.
    """
    params = G.parameters() + D.parameters()
    sn = {name + ".sn_u": state for name, state, _ in G.sn_entries() + D.sn_entries()}
    expected = {p.name + sfx: p.data.shape for p in params for sfx in ("",) + MOMENT_SUFFIXES}
    expected.update((key, state.u.shape) for key, state in sn.items())
    found = {**ckpt.params, **ckpt.opt, **ckpt.sn_u}
    for name, arr in found.items():
        if name not in expected:
            raise ShapeMismatch(f"unexpected tensor {name!r} for this architecture")
        if arr.shape != expected[name]:
            raise ShapeMismatch(
                f"shape mismatch for {name!r}: file {arr.shape}, architecture {expected[name]}"
            )
    missing = sorted(set(expected) - set(found))
    if missing:
        raise ShapeMismatch(f"{len(missing)} tensors missing, first {missing[0]!r}")

    for p in params:
        p.data[...] = ckpt.params[p.name]
    for key, state in sn.items():
        state.u = ckpt.sn_u[key].astype(state.u.dtype)
    for opt, model, key in ((opt_g, G, "g"), (opt_d, D, "d")):
        if opt is None:
            continue
        opt.t = int(ckpt.adam_t[key])
        for p in model.parameters():
            opt.m[p.name][...] = ckpt.opt[p.name + ".m"]
            opt.v[p.name][...] = ckpt.opt[p.name + ".v"]
            opt.vmax[p.name][...] = ckpt.opt[p.name + ".vmax"]
