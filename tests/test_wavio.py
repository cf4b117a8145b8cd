import struct

import numpy as np
import pytest

from abas.dsp import AudioSignal
from abas.wavio import PCM16_SCALE, WavFormatError, read_wav, write_wav


def make_wav_bytes(rate=16000, channels=1, bits=16, tag=1, samples=b"\x00\x00", extra_chunk=False):
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * 2, 2, bits)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    if extra_chunk:
        chunks += b"LIST" + struct.pack("<I", 4) + b"info"
    chunks += b"data" + struct.pack("<I", len(samples)) + samples
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


class TestRead:
    def test_scaling(self, tmp_path):
        pcm = struct.pack("<3h", 0, 16384, -32768)
        p = tmp_path / "a.wav"
        p.write_bytes(make_wav_bytes(samples=pcm))
        sig = read_wav(p)
        assert np.allclose(sig.samples, [0.0, 0.5, -1.0])

    def test_unknown_chunks_skipped(self, tmp_path):
        p = tmp_path / "a.wav"
        p.write_bytes(make_wav_bytes(samples=struct.pack("<h", 123), extra_chunk=True))
        assert read_wav(p).samples[0] == pytest.approx(123 / 32768)

    def test_wrong_rate(self, tmp_path):
        p = tmp_path / "a.wav"
        p.write_bytes(make_wav_bytes(rate=48000))
        with pytest.raises(WavFormatError, match="expected 16000 Hz"):
            read_wav(p)

    def test_stereo_rejected(self, tmp_path):
        p = tmp_path / "a.wav"
        p.write_bytes(make_wav_bytes(channels=2))
        with pytest.raises(WavFormatError, match="mono"):
            read_wav(p)

    def test_wrong_depth(self, tmp_path):
        p = tmp_path / "a.wav"
        p.write_bytes(make_wav_bytes(bits=8))
        with pytest.raises(WavFormatError, match="16-bit"):
            read_wav(p)

    def test_non_pcm(self, tmp_path):
        p = tmp_path / "a.wav"
        p.write_bytes(make_wav_bytes(tag=3))
        with pytest.raises(WavFormatError, match="non-PCM"):
            read_wav(p)

    def test_not_riff(self, tmp_path):
        p = tmp_path / "a.wav"
        p.write_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(WavFormatError, match="RIFF"):
            read_wav(p)

    def test_missing_data(self, tmp_path):
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        raw = b"RIFF" + struct.pack("<I", 28) + b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt
        p = tmp_path / "a.wav"
        p.write_bytes(raw)
        with pytest.raises(WavFormatError, match="missing data"):
            read_wav(p)

    def test_truncated_data(self, tmp_path):
        good = make_wav_bytes(samples=struct.pack("<4h", 1, 2, 3, 4))
        p = tmp_path / "a.wav"
        p.write_bytes(good[:-3])
        with pytest.raises(WavFormatError, match="truncated data"):
            read_wav(p)

    def test_odd_length_data(self, tmp_path):
        p = tmp_path / "a.wav"
        p.write_bytes(make_wav_bytes(samples=b"\x01\x02\x03"))
        with pytest.raises(WavFormatError, match="data chunk of 3 bytes"):
            read_wav(p)


class TestWrite:
    def test_scaling(self, tmp_path):
        p = tmp_path / "a.wav"
        write_wav(p, AudioSignal(np.array([0.0, 0.5], dtype=np.float32)))
        pcm = np.frombuffer(p.read_bytes()[44:], dtype="<i2")
        assert list(pcm) == [0, 16384]

    def test_clamp(self, tmp_path):
        p = tmp_path / "a.wav"
        write_wav(p, AudioSignal(np.array([1.5, -2.0], dtype=np.float32)))
        pcm = np.frombuffer(p.read_bytes()[44:], dtype="<i2")
        assert list(pcm) == [32767, -32768]

    def test_round_half_away_from_zero(self, tmp_path):
        p = tmp_path / "a.wav"
        vals = np.array([0.5 / PCM16_SCALE, -0.5 / PCM16_SCALE, 1.5 / PCM16_SCALE])
        write_wav(p, AudioSignal(vals.astype(np.float64)))
        pcm = np.frombuffer(p.read_bytes()[44:], dtype="<i2")
        assert list(pcm) == [1, -1, 2]

    def test_header_bytes(self, tmp_path):
        p = tmp_path / "a.wav"
        write_wav(p, AudioSignal(np.zeros(10, dtype=np.float32)))
        raw = p.read_bytes()
        assert raw[0:4] == b"RIFF" and raw[8:12] == b"WAVE"
        assert len(raw) == 44 + 20

    def test_round_trip_bit_exact(self, tmp_path, rng):
        grid = rng.integers(-32768, 32768, size=500).astype(np.int16)
        sig = AudioSignal(grid.astype(np.float32) / PCM16_SCALE)
        p = tmp_path / "a.wav"
        write_wav(p, sig)
        back = read_wav(p)
        assert np.array_equal(back.samples, sig.samples)
        write_wav(tmp_path / "b.wav", back)
        assert (tmp_path / "b.wav").read_bytes() == p.read_bytes()
