import struct

import numpy as np
import pytest

from abas import dsp
from abas import train as T
from abas.train import synthesize_clip


@pytest.fixture(scope="session")
def clip16k():
    """One deterministic speech-like clip of 16000 samples."""
    return synthesize_clip(np.random.default_rng(1234), 16000)


@pytest.fixture(scope="session")
def clip_bank():
    """Ten deterministic speech-like clips."""
    rng = np.random.default_rng(777)
    return [synthesize_clip(rng, 16000) for _ in range(10)]


def stable_lpc_coeffs(rng, order):
    """Random stable predictor via reflection coefficients in (-0.95, 0.95)."""
    a = np.zeros(0)
    for k in rng.uniform(-0.95, 0.95, size=order):
        a = np.concatenate([a - k * a[::-1], [k]])
    return a


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# Edits that make a checkpoint's tensors disagree with the architecture its
# config implies; restore_into must reject each with ShapeMismatch.
CHECKPOINT_DEFECTS = {
    "wrong_shape": lambda t: t.update({"G.out.weight": t["G.out.weight"][..., :-1]}),
    "unexpected_tensor": lambda t: t.update({"G.extra.weight": np.zeros(3, np.float32)}),
    "missing_parameter": lambda t: t.pop("D.layer0.bias"),
    "missing_moment": lambda t: t.pop("G.enc.down0.weight.m"),
    "missing_sn_u": lambda t: t.pop("G.enc.down0.weight.sn_u"),
}


def rewrite_checkpoint(src, dst, edit):
    """Copy checkpoint src to dst with its tensor dict changed in place by edit."""
    raw = src.read_bytes()
    head = raw[: 12 + struct.unpack("<I", raw[8:12])[0]]  # magic, version, JSON blob
    ckpt = T.load_checkpoint(src)
    tensors = {**ckpt.params, **ckpt.opt, **ckpt.sn_u}
    edit(tensors)
    with open(dst, "wb") as f:
        f.write(head)
        f.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            T._write_tensor(f, name, arr)
        f.write(struct.pack("<Q", ckpt.step))
    return dst
