import json
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


def op_shapes(tape, op):
    """Output shapes of a tape's ``op`` records, in forward order."""
    return [out.shape for name, out in tape.outputs() if name == op]


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


# Edits of a checkpoint's JSON blob or (name, array) list that load_checkpoint
# must reject, each with a text its error message names.
LOAD_DEFECTS = {
    "missing_config": (lambda blob, pairs: blob.pop("config"), "'config'"),
    "missing_rng_state": (lambda blob, pairs: blob.pop("rng_state"), "'rng_state'"),
    "unknown_config_field": (lambda blob, pairs: blob["config"].update(frobnicate=1), "frobnicate"),
    "missing_cond_scale": (lambda blob, pairs: blob.pop("cond_scale"), "'cond_scale'"),
    "zero_cond_scale": (lambda blob, pairs: blob.update(cond_scale=0.0), "'cond_scale'"),
    "duplicate_tensor": (lambda blob, pairs: pairs.append(pairs[0]), "'G.enc.down0.weight'"),
    "adam_t_without_d": (lambda blob, pairs: blob.update(adam_t={"g": 1}), "'adam_t'"),
    "adam_t_list": (lambda blob, pairs: blob.update(adam_t=[1, 1]), "'adam_t'"),
    "rng_state_list": (lambda blob, pairs: blob.update(rng_state=[1]), "'rng_state'"),
}


def rewrite_checkpoint(src, dst, edit=None, edit_file=None):
    """Copy checkpoint src to dst, with its tensor dict changed in place by
    ``edit``, then its JSON blob and (name, array) list by ``edit_file``."""
    raw = src.read_bytes()
    blob = json.loads(raw[12 : 12 + struct.unpack("<I", raw[8:12])[0]])
    ckpt = T.load_checkpoint(src)
    tensors = dict(ckpt.tensors)
    if edit is not None:
        edit(tensors)
    pairs = list(tensors.items())
    if edit_file is not None:
        edit_file(blob, pairs)
    T._write_checkpoint(dst, blob, pairs, ckpt.step)
    return dst
