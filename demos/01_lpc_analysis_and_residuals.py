"""Source-filter analysis walkthrough: frames, predictor fits, residuals.

Synthesizes a speech-like clip, runs order-16 LPC over 20 ms frames, shows
that the residual is spectrally flat where the clip is not, and demonstrates
that analysis -> synthesis is an exact round trip.
"""

import numpy as np

from abas import dsp
from abas.train import synthesize_clip

rng = np.random.default_rng(0)
clip = synthesize_clip(rng, 16000)
signal = dsp.AudioSignal(clip)
print(f"clip: {len(signal)} samples @ {dsp.PIPELINE_RATE} Hz, peak {np.max(np.abs(clip)):.3f}")

# -- analysis ---------------------------------------------------------------
track, residual = dsp.lpc_analyze(signal, order=16, frame_len=320)
print(f"track: {len(track.coeffs)} frames of {track.frame_len} samples, order {track.order}")

print(f"frame 5 coefficients (first 4): {np.round(track.coeffs[5, :4], 4)}")
print(f"frame 5 prediction-error power: {track.gains[5]:.6f}")

# the predictor removes short-term correlation: residual energy is well below
# the clip's, and its spectrum is much flatter
def spectral_flatness(x):
    p = np.abs(np.fft.rfft(x.astype(np.float64))) ** 2 + 1e-12
    return np.exp(np.mean(np.log(p))) / np.mean(p)

gain = np.sum(clip.astype(np.float64) ** 2) / np.sum(residual.samples.astype(np.float64) ** 2)
print(f"prediction gain: {10 * np.log10(gain):.1f} dB")
print(f"spectral flatness: clip {spectral_flatness(clip):.4f}, "
      f"residual {spectral_flatness(residual.samples):.4f}")

# -- exact reconstruction -----------------------------------------------------
resynth = dsp.lpc_synthesize(residual, track)
err = np.max(np.abs(resynth.samples - clip))
print(f"synthesis round-trip max error: {err:.2e} (float32 storage)")

# -- cross synthesis ----------------------------------------------------------
# replace the envelope of a white-noise "fake" with the clip's envelope
sigma = float(np.sqrt(np.mean(residual.samples.astype(np.float64) ** 2)))
noise = dsp.AudioSignal(rng.normal(0, sigma, 16000).astype(np.float32))
refined = dsp.cross_synthesize(noise, track)

from abas.metrics import log_spectral_distance

print(f"LSD(noise, clip)       = {log_spectral_distance(clip, noise):.2f} dB")
print(f"LSD(cross-synth, clip) = {log_spectral_distance(clip, refined):.2f} dB "
      "(envelope transplanted)")
