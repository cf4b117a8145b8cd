"""Source-filter signal processing: framing, LPC analysis/synthesis, cross synthesis.

All filtering runs in float64 internally regardless of the stored sample dtype.
Frames are contiguous and non-overlapping; filter state (the last ``order``
samples) is carried across frame boundaries, with zeros before the first frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter, lfiltic

PIPELINE_RATE = 16000
DEFAULT_ORDER = 16
DEFAULT_FRAME_LEN = 320  # 20 ms at 16 kHz

ROLE_SPEECH = "speech"
ROLE_RESIDUAL = "residual"
ROLE_FAKE = "fake"
_ROLES = (ROLE_SPEECH, ROLE_RESIDUAL, ROLE_FAKE)

# Frames whose zero-lag autocorrelation falls below this are treated as silent.
SILENCE_FLOOR = 1e-10
# Reflection coefficients are clamped to this magnitude to keep synthesis stable.
REFLECTION_LIMIT = 0.999


@dataclass
class AudioSignal:
    """Mono sample sequence with a fixed rate and a pipeline role.

    ``samples`` keeps whatever float dtype it is given (float32 at the WAV
    boundary, float64 in numeric tests); values must be finite.
    """

    samples: np.ndarray
    sample_rate: int = PIPELINE_RATE
    role: str = ROLE_SPEECH

    def __post_init__(self):
        self.samples = np.atleast_1d(np.asarray(self.samples))
        if self.samples.ndim != 1:
            raise ValueError(f"expected mono 1-D samples, got shape {self.samples.shape}")
        if not np.issubdtype(self.samples.dtype, np.floating):
            self.samples = self.samples.astype(np.float32)
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain non-finite values")
        if self.role not in _ROLES:
            raise ValueError(f"unknown role {self.role!r}, expected one of {_ROLES}")

    def __len__(self):
        return len(self.samples)


@dataclass
class LpcFrame:
    """Predictor coefficients a_1..a_p of one frame; A(z) = 1 - sum(a_k z^-k)."""

    coeffs: np.ndarray
    gain_error: float
    frame_index: int

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if self.coeffs.ndim != 1:
            raise ValueError("coeffs must be 1-D")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("non-finite LPC coefficients")
        if self.gain_error < 0:
            raise ValueError("gain_error must be >= 0")


@dataclass
class LpcTrack:
    """Per-frame coefficient sets covering a signal contiguously."""

    frames: list[LpcFrame] = field(default_factory=list)
    order: int = DEFAULT_ORDER
    frame_len: int = DEFAULT_FRAME_LEN

    def __post_init__(self):
        for f in self.frames:
            if len(f.coeffs) != self.order:
                raise ValueError("all frames must share the track order")

    @property
    def coverage(self) -> int:
        """Total number of samples the track spans."""
        return len(self.frames) * self.frame_len


def _sample_array(signal) -> np.ndarray:
    return signal.samples if isinstance(signal, AudioSignal) else np.asarray(signal)


def frame_signal(signal, frame_len: int) -> np.ndarray:
    """Split a signal into contiguous non-overlapping frames, zero-padding the tail.

    Returns an (n_frames, frame_len) array whose concatenation reproduces the
    padded input exactly.
    """
    if frame_len <= 0:
        raise ValueError("frame_len must be positive")
    x = _sample_array(signal)
    if x.size == 0:
        raise ValueError("empty input")
    n_frames = -(-x.size // frame_len)
    padded = np.zeros(n_frames * frame_len, dtype=x.dtype)
    padded[: x.size] = x
    return padded.reshape(n_frames, frame_len)


def autocorrelate(frame, max_lag: int, window: np.ndarray | None = None) -> np.ndarray:
    """Autocorrelation r[0..max_lag] of the (optionally windowed) frame."""
    x = np.asarray(frame, dtype=np.float64)
    if max_lag >= x.size:
        raise ValueError(f"max_lag {max_lag} must be < frame length {x.size}")
    if window is not None:
        x = x * np.asarray(window, dtype=np.float64)
    r = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        r[k] = np.dot(x[: x.size - k], x[k:])
    return r


def levinson_durbin(autocorr, order: int) -> tuple[np.ndarray, float]:
    """Solve the Toeplitz normal equations by the Levinson-Durbin recursion.

    Returns (a, error_power) with a_1..a_p such that the predictor is
    sum(a_k x[n-k]). Reflection coefficients are clamped to
    [-REFLECTION_LIMIT, REFLECTION_LIMIT]; frames with r[0] < SILENCE_FLOOR
    come back all-zero rather than raising.
    """
    r = np.asarray(autocorr, dtype=np.float64)
    if r.size < order + 1:
        raise ValueError(f"need {order + 1} autocorrelation lags, got {r.size}")
    if r[0] < SILENCE_FLOOR:
        return np.zeros(order), float(max(r[0], 0.0))
    a = np.zeros(order)
    err = float(r[0])
    for i in range(1, order + 1):
        acc = r[i] - np.dot(a[: i - 1], r[i - 1 : 0 : -1])
        k = acc / err
        k = min(max(k, -REFLECTION_LIMIT), REFLECTION_LIMIT)
        a_prev = a[: i - 1].copy()
        a[: i - 1] = a_prev - k * a_prev[::-1]
        a[i - 1] = k
        err *= 1.0 - k * k
    return a, max(err, 0.0)


def inverse_filter(frame, coeffs, history) -> np.ndarray:
    """Prediction error e[n] = x[n] - sum_k a_k x[n-k], history crossing the frame edge."""
    a = np.asarray(coeffs, dtype=np.float64)
    h = np.asarray(history, dtype=np.float64)
    x = np.asarray(frame, dtype=np.float64)
    p = a.size
    if h.size != p:
        raise ValueError(f"history length {h.size} != order {p}")
    ext = np.concatenate([h, x])
    b = np.concatenate([[1.0], -a])
    return np.convolve(ext, b)[p : p + x.size]


def synthesis_filter(residual_frame, coeffs, history) -> np.ndarray:
    """All-pole inverse of :func:`inverse_filter`: y[n] = e[n] + sum_k a_k y[n-k]."""
    a = np.asarray(coeffs, dtype=np.float64)
    h = np.asarray(history, dtype=np.float64)
    e = np.asarray(residual_frame, dtype=np.float64)
    p = a.size
    if h.size != p:
        raise ValueError(f"history length {h.size} != order {p}")
    a_poly = np.concatenate([[1.0], -a])
    zi = lfiltic([1.0], a_poly, h[::-1])
    y, _ = lfilter([1.0], a_poly, e, zi=zi)
    return y


def lpc_analyze(
    signal: AudioSignal, order: int = DEFAULT_ORDER, frame_len: int = DEFAULT_FRAME_LEN
) -> tuple[LpcTrack, AudioSignal]:
    """Per-frame LPC analysis plus residual extraction.

    Coefficients come from Hamming-windowed autocorrelation; the residual is
    the inverse filter applied to the raw (unwindowed) samples with history
    carried across frames. The residual spans the zero-padded signal length.
    """
    if not 1 <= order < frame_len:
        raise ValueError(f"LPC order must be in 1..{frame_len - 1}, got {order}")
    _require_rate(signal)
    frames = frame_signal(signal, frame_len).astype(np.float64)
    window = np.hamming(frame_len)
    track = LpcTrack(frames=[], order=order, frame_len=frame_len)
    residual = np.empty(frames.size)
    history = np.zeros(order)
    for i, frame in enumerate(frames):
        r = autocorrelate(frame, order, window)
        a, err = levinson_durbin(r, order)
        track.frames.append(LpcFrame(coeffs=a, gain_error=err, frame_index=i))
        residual[i * frame_len : (i + 1) * frame_len] = inverse_filter(frame, a, history)
        history = frame[-order:]
    out = AudioSignal(
        residual.astype(signal.samples.dtype), signal.sample_rate, ROLE_RESIDUAL
    )
    return track, out


def lpc_synthesize(residual: AudioSignal, track: LpcTrack) -> AudioSignal:
    """Frame-wise synthesis filtering; exact inverse of the analysis filtering stage."""
    x = residual.samples
    if x.size != track.coverage:
        raise ValueError(
            f"length mismatch: residual has {x.size} samples, track covers {track.coverage}"
        )
    out = np.empty(x.size)
    history = np.zeros(track.order)
    fl = track.frame_len
    for i, lf in enumerate(track.frames):
        y = synthesis_filter(x[i * fl : (i + 1) * fl].astype(np.float64), lf.coeffs, history)
        out[i * fl : (i + 1) * fl] = y
        history = y[-track.order :]
    return AudioSignal(out.astype(x.dtype), residual.sample_rate, ROLE_SPEECH)


def cross_synthesize(
    fake: AudioSignal, original_track: LpcTrack, analysis_order: int | None = None
) -> AudioSignal:
    """Transplant the original spectral envelope onto a generated signal.

    The fake signal is LPC-analyzed on the same frame grid to extract its own
    residual, which is then filtered through the original track.
    """
    if len(fake) != original_track.coverage:
        raise ValueError(
            f"length mismatch: fake has {len(fake)} samples, "
            f"track covers {original_track.coverage}"
        )
    order = original_track.order if analysis_order is None else analysis_order
    _, fake_residual = lpc_analyze(fake, order=order, frame_len=original_track.frame_len)
    out = lpc_synthesize(fake_residual, original_track)
    return AudioSignal(out.samples, fake.sample_rate, ROLE_FAKE)


def _require_rate(signal: AudioSignal):
    if signal.sample_rate != PIPELINE_RATE:
        raise ValueError(f"expected {PIPELINE_RATE} Hz, got {signal.sample_rate}")
