"""Objective evaluation: segmental SNR, L1 distance, log-spectral distance.

Conventions (recorded as this artifact's definitions): SSNR uses 320-sample
frames matching the LPC grid, a 1e-8 active-frame energy threshold, and
per-frame clamping to [-10, 35] dB; LSD uses a 512-point Hann-windowed FFT
with hop 160 and magnitudes floored at 1e-8. SSNR and LSD treat their first
argument as the reference; L1 is symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import AudioSignal

SSNR_FRAME_LEN = 320
SSNR_CLAMP_DB = (-10.0, 35.0)
SSNR_SILENCE = 1e-8
LSD_FFT = 512
LSD_HOP = 160
LSD_FLOOR = 1e-8


def _samples(x) -> np.ndarray:
    arr = x.samples if isinstance(x, AudioSignal) else np.asarray(x)
    return arr.astype(np.float64, copy=False)


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    xa, xb = _samples(a), _samples(b)
    if xa.shape != xb.shape:
        raise ValueError(f"length mismatch: {xa.shape[0]} vs {xb.shape[0]}")
    return xa, xb


def ssnr(reference, degraded) -> float:
    """Mean over active frames of clamped per-frame SNR in dB.

    Frames with reference energy <= 1e-8 are skipped; zero-noise frames take
    the clamp ceiling.
    """
    x, y = _pair(reference, degraded)
    lo, hi = SSNR_CLAMP_DB
    vals = []
    for start in range(0, len(x) - SSNR_FRAME_LEN + 1, SSNR_FRAME_LEN):
        xf = x[start : start + SSNR_FRAME_LEN]
        ex = float(np.sum(xf * xf))
        if ex <= SSNR_SILENCE:
            continue
        d = xf - y[start : start + SSNR_FRAME_LEN]
        en = float(np.sum(d * d))
        if en == 0.0:
            vals.append(hi)
        else:
            vals.append(min(max(10.0 * np.log10(ex / en), lo), hi))
    if not vals:
        raise ValueError("no active frames")
    return float(np.mean(vals))


def l1_distance(a, b) -> float:
    """Mean absolute sample difference."""
    xa, xb = _pair(a, b)
    return float(np.mean(np.abs(xa - xb)))


def log_spectral_distance(a, b) -> float:
    """RMS over frames of the RMS over bins of 20*(log10|A| - log10|B|), in dB."""
    xa, xb = _pair(a, b)
    if len(xa) < LSD_FFT:
        raise ValueError(f"signals shorter than one FFT frame ({len(xa)} < {LSD_FFT})")
    win = np.hanning(LSD_FFT)
    frame_vals = []
    for start in range(0, len(xa) - LSD_FFT + 1, LSD_HOP):
        sa = np.maximum(np.abs(np.fft.rfft(xa[start : start + LSD_FFT] * win)), LSD_FLOOR)
        sb = np.maximum(np.abs(np.fft.rfft(xb[start : start + LSD_FFT] * win)), LSD_FLOOR)
        d = 20.0 * (np.log10(sa) - np.log10(sb))
        frame_vals.append(np.mean(d * d))
    return float(np.sqrt(np.mean(frame_vals)))


@dataclass
class MetricReport:
    """Per-file metric values plus their corpus means."""

    files: list[str]
    ssnr_db: list[float]
    l1: list[float]
    lsd_db: list[float]

    @property
    def mean_ssnr_db(self) -> float:
        return float(np.mean(self.ssnr_db))

    @property
    def mean_l1(self) -> float:
        return float(np.mean(self.l1))

    @property
    def mean_lsd_db(self) -> float:
        return float(np.mean(self.lsd_db))

    def to_csv(self) -> str:
        lines = ["file,ssnr_db,l1,lsd_db"]
        for name, s, l, d in zip(self.files, self.ssnr_db, self.l1, self.lsd_db):
            lines.append(f"{name},{s:.9g},{l:.9g},{d:.9g}")
        lines.append(f"MEAN,{self.mean_ssnr_db:.9g},{self.mean_l1:.9g},{self.mean_lsd_db:.9g}")
        return "\n".join(lines) + "\n"


def evaluate_corpus(pairs) -> MetricReport:
    """All metrics for a sequence of (name, reference, degraded) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no pairs to evaluate")
    report = MetricReport([], [], [], [])
    for name, ref, deg in pairs:
        report.files.append(str(name))
        report.ssnr_db.append(ssnr(ref, deg))
        report.l1.append(l1_distance(ref, deg))
        report.lsd_db.append(log_spectral_distance(ref, deg))
    return report
