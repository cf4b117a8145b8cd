"""Bit-exact RIFF/WAVE PCM16 reading and writing.

The pipeline operates on 16 kHz mono 16-bit PCM only; anything else is
rejected with a precise message. Unknown RIFF chunks are skipped. Written
files carry the canonical 44-byte header.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .dsp import AudioSignal, PIPELINE_RATE

PCM16_SCALE = 32768.0


class WavFormatError(ValueError):
    pass


def _parse(raw: bytes) -> tuple[int, int, int, bytes]:
    """(sample rate, channels, bits per sample, data chunk) of a PCM WAV file."""
    if len(raw) < 12 or raw[:4] != b"RIFF":
        raise WavFormatError("not a RIFF file")
    if raw[8:12] != b"WAVE":
        raise WavFormatError("not a WAVE file")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(raw):
        cid = raw[pos : pos + 4]
        (size,) = struct.unpack("<I", raw[pos + 4 : pos + 8])
        body = raw[pos + 8 : pos + 8 + size]
        if len(body) < size:
            if cid == b"data":
                raise WavFormatError("truncated data chunk")
            raise WavFormatError(f"truncated {cid!r} chunk")
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None:
        raise WavFormatError("missing fmt chunk")
    if data is None:
        raise WavFormatError("missing data chunk")
    if len(fmt) < 16:
        raise WavFormatError("malformed fmt chunk")
    tag, channels, rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
    if tag != 1:
        raise WavFormatError(f"unsupported non-PCM format (tag {tag})")
    return rate, channels, bits, data


def read_wav(path) -> AudioSignal:
    """Load a 16 kHz mono PCM16 file; samples scaled by 1/32768 into [-1, 1)."""
    rate, channels, bits, data = _parse(Path(path).read_bytes())
    if rate != PIPELINE_RATE:
        raise WavFormatError(f"expected {PIPELINE_RATE} Hz, got {rate}")
    if channels != 1:
        raise WavFormatError(f"expected mono, got {channels} channels")
    if bits != 16:
        raise WavFormatError(f"expected 16-bit PCM, got {bits}")
    if len(data) % 2:
        raise WavFormatError(f"data chunk of {len(data)} bytes does not hold whole 16-bit samples")
    samples = np.frombuffer(data, dtype="<i2").astype(np.float32) / PCM16_SCALE
    return AudioSignal(samples)


def write_wav(path, signal: AudioSignal):
    """Write PCM16 mono at ``PIPELINE_RATE``: clamp to [-1, 1 - 1/32768], round
    half away from zero."""
    x = np.asarray(signal.samples, dtype=np.float64)
    x = np.clip(x, -1.0, 1.0 - 1.0 / PCM16_SCALE)
    scaled = x * PCM16_SCALE
    pcm = np.where(scaled >= 0, np.floor(scaled + 0.5), np.ceil(scaled - 0.5)).astype("<i2")
    payload = pcm.tobytes()
    rate = PIPELINE_RATE
    header = b"RIFF"
    header += struct.pack("<I", 36 + len(payload))
    header += b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + payload)
