"""Source-filter signal processing: framing, LPC analysis/synthesis, cross synthesis.

All filtering runs in float64 internally regardless of the stored sample dtype.
Frames are contiguous and non-overlapping; filter state (the last ``order``
samples) is carried across frame boundaries, with zeros before the first frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import lfilter, lfiltic

PIPELINE_RATE = 16000
DEFAULT_ORDER = 16
DEFAULT_FRAME_LEN = 320  # 20 ms at 16 kHz

# Frames whose zero-lag autocorrelation falls below this are treated as silent.
SILENCE_FLOOR = 1e-10
# Reflection coefficients are clamped to this magnitude to keep synthesis stable.
REFLECTION_LIMIT = 0.999


@dataclass
class AudioSignal:
    """Mono sample sequence at ``PIPELINE_RATE``.

    ``samples`` keeps whatever float dtype it is given (float32 at the WAV
    boundary, float64 in numeric tests); values must be finite.
    """

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.atleast_1d(np.asarray(self.samples))
        if self.samples.ndim != 1:
            raise ValueError(f"expected mono 1-D samples, got shape {self.samples.shape}")
        if not np.issubdtype(self.samples.dtype, np.floating):
            self.samples = self.samples.astype(np.float32)
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain non-finite values")

    def __len__(self):
        return len(self.samples)


@dataclass
class LpcTrack:
    """Per-frame LPC fits covering a signal contiguously, ``frame_len`` samples a frame.

    ``coeffs[i]`` holds frame i's predictor coefficients a_1..a_p, with
    A(z) = 1 - sum(a_k z^-k); ``gains[i]`` is its prediction-error power.
    """

    coeffs: np.ndarray  # (n_frames, order) float64
    gains: np.ndarray  # (n_frames,) float64, >= 0
    frame_len: int

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        self.gains = np.asarray(self.gains, dtype=np.float64)
        if self.coeffs.ndim != 2:
            raise ValueError(f"coeffs must be (n_frames, order), got shape {self.coeffs.shape}")
        if self.gains.shape != (len(self.coeffs),):
            raise ValueError(f"{len(self.coeffs)} frames but gains of shape {self.gains.shape}")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("non-finite LPC coefficients")
        if np.any(self.gains < 0):
            raise ValueError("gains must be >= 0")

    @property
    def order(self) -> int:
        return self.coeffs.shape[1]

    @property
    def coverage(self) -> int:
        """Total number of samples the track spans."""
        return len(self.coeffs) * self.frame_len


def frame_signal(x, frame_len: int) -> np.ndarray:
    """Split a signal into contiguous non-overlapping frames, zero-padding the tail.

    Returns an (n_frames, frame_len) array whose concatenation reproduces the
    padded input exactly.
    """
    if frame_len <= 0:
        raise ValueError("frame_len must be positive")
    x = np.asarray(x)
    if x.size == 0:
        raise ValueError("empty input")
    n_frames = -(-x.size // frame_len)
    padded = np.zeros(n_frames * frame_len, dtype=x.dtype)
    padded[: x.size] = x
    return padded.reshape(n_frames, frame_len)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot products of a and b (..., n) along their last axis, broadcast
    over the rest. Each is one BLAS dot product, the one np.dot computes for
    one such pair of vectors, so a batch has the bits of a loop over them."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def autocorrelate(frame, max_lag: int, window: np.ndarray | None = None) -> np.ndarray:
    """Autocorrelation r[..., 0..max_lag] of the (optionally windowed) frame,
    or of each frame of an (n_frames, frame_len) array at once."""
    x = np.asarray(frame, dtype=np.float64)
    n = x.shape[-1]
    if max_lag >= n:
        raise ValueError(f"max_lag {max_lag} must be < frame length {n}")
    if window is not None:
        x = x * np.asarray(window, dtype=np.float64)
    return np.stack([_dots(x[..., : n - k], x[..., k:]) for k in range(max_lag + 1)], axis=-1)


def levinson_durbin(autocorr, order: int):
    """Solve the Toeplitz normal equations by the Levinson-Durbin recursion.

    Returns (a, error_power) with a_1..a_p such that the predictor is
    sum(a_k x[n-k]). Reflection coefficients are clamped to
    [-REFLECTION_LIMIT, REFLECTION_LIMIT]; frames with r[0] < SILENCE_FLOOR
    come back all-zero rather than raising. Given an (n_frames, lags) array
    it solves every frame at once, each step of the recursion broadcast over
    the frames, and returns an (n_frames, order) array and an (n_frames,)
    array of error powers; given one frame's lags, a vector and a float.
    """
    r = np.asarray(autocorr, dtype=np.float64)
    if r.shape[-1] < order + 1:
        raise ValueError(f"need {order + 1} autocorrelation lags, got {r.shape[-1]}")
    rows = r.reshape(-1, r.shape[-1])
    silent = rows[:, 0] < SILENCE_FLOOR
    a = np.zeros((len(rows), order))
    err = np.where(silent, 1.0, rows[:, 0])  # a silent frame's recursion runs on, unread
    for i in range(1, order + 1):
        # the reversed lags copied contiguous, as np.dot copies them for one frame
        acc = rows[:, i] - _dots(a[:, : i - 1], rows[:, i - 1 : 0 : -1].copy())
        k = np.clip(acc / err, -REFLECTION_LIMIT, REFLECTION_LIMIT)
        a_prev = a[:, : i - 1].copy()
        a[:, : i - 1] = a_prev - k[:, None] * a_prev[:, ::-1]
        a[:, i - 1] = k
        err *= 1.0 - k * k
    a[silent] = 0.0
    err = np.maximum(np.where(silent, rows[:, 0], err), 0.0)
    if r.ndim == 1:
        return a[0], float(err[0])
    return a.reshape(*r.shape[:-1], order), err.reshape(r.shape[:-1])


def inverse_filter(frame, coeffs, history) -> np.ndarray:
    """Prediction error e[n] = x[n] - sum_k a_k x[n-k], history crossing the
    frame edge. Given contiguous frames (n_frames, frame_len) and one row of
    coefficients each, every frame is filtered with its own, its history the
    end of the frame before it (history itself for the first), as one FIR
    over the whole signal."""
    a = np.asarray(coeffs, dtype=np.float64)
    h = np.asarray(history, dtype=np.float64)
    x = np.asarray(frame, dtype=np.float64)
    p = a.shape[-1]
    if h.size != p:
        raise ValueError(f"history length {h.size} != order {p}")
    # e[n] = [x[n-p], ..., x[n]] . [-a_p, ..., -a_1, 1], each frame with its own taps
    taps = np.concatenate([-a[..., ::-1], np.ones(a.shape[:-1] + (1,))], axis=-1)
    windows = sliding_window_view(np.concatenate([h, x.reshape(-1)]), p + 1)
    return _dots(windows.reshape(*x.shape, p + 1), taps[..., None, :])


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
    """Per-frame LPC analysis plus residual extraction, every frame at once.

    Coefficients come from Hamming-windowed autocorrelation; the residual is
    the inverse filter applied to the raw (unwindowed) samples with history
    carried across frames. The residual spans the zero-padded signal length.
    Its values have the bits of an analysis one frame at a time.
    """
    if not 1 <= order < frame_len:
        raise ValueError(f"LPC order must be in 1..{frame_len - 1}, got {order}")
    frames = frame_signal(signal.samples, frame_len).astype(np.float64)
    coeffs, gains = levinson_durbin(autocorrelate(frames, order, np.hamming(frame_len)), order)
    residual = inverse_filter(frames, coeffs, np.zeros(order)).reshape(-1)
    return LpcTrack(coeffs, gains, frame_len), AudioSignal(residual.astype(signal.samples.dtype))


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
    for i, a in enumerate(track.coeffs):
        y = synthesis_filter(x[i * fl : (i + 1) * fl].astype(np.float64), a, history)
        out[i * fl : (i + 1) * fl] = y
        history = y[-track.order :]
    return AudioSignal(out.astype(x.dtype))


def cross_synthesize(fake: AudioSignal, original_track: LpcTrack) -> AudioSignal:
    """Transplant the original spectral envelope onto a generated signal.

    The fake signal is LPC-analyzed on the same frame grid to extract its own
    residual at the track's order, which is then filtered through the original
    track.
    """
    if len(fake) != original_track.coverage:
        raise ValueError(
            f"length mismatch: fake has {len(fake)} samples, "
            f"track covers {original_track.coverage}"
        )
    _, fake_residual = lpc_analyze(
        fake, order=original_track.order, frame_len=original_track.frame_len
    )
    return lpc_synthesize(fake_residual, original_track)
