"""The full reconstruction pipeline on one clip.

speech -> LPC analysis (envelope track + residual) -> generator maps the
residual's 16x learned compression back to a fake waveform -> cross synthesis
re-imposes the original envelope -> objective scores against the input.

Uses a briefly trained model, so the fake is crude; the point is the
pipeline's mechanics and the effect of the refinement stage.
"""

import tempfile
from pathlib import Path

import numpy as np

from abas import dsp, metrics
from abas.train import TrainConfig, load_checkpoint, restore_models, synthesize_clip, train_loop

work = Path(tempfile.mkdtemp(prefix="abas_demo_vocode_"))

config = TrainConfig(
    batch_size=1, segment_len=528, steps=15, seed=1,
    synthetic={"n_clips": 2, "clip_len": 4160},
)
print("training briefly...")
train_loop(config, work)

ckpt = load_checkpoint(work / "final.ckpt")
G, _ = restore_models(ckpt)

clip = synthesize_clip(np.random.default_rng(33), 4160)
signal = dsp.AudioSignal(clip)
track, residual = dsp.lpc_analyze(signal, config.lpc_order, config.frame_len)
print(f"\ninput: {len(signal)} samples -> {len(track.coeffs)} LPC frames")

# segment-wise generation over the residual; restore_models gave G the
# conditioning scale it was trained with
fake = G.generate_segments(residual.samples, config.segment_len, np.random.default_rng(2))
fake_sig = dsp.AudioSignal(fake)

refined = dsp.cross_synthesize(fake_sig, track)

def scores(label, out):
    print(f"{label:22s} ssnr {metrics.ssnr(signal, out):7.2f} dB   "
          f"l1 {metrics.l1_distance(signal, out):.4f}   "
          f"lsd {metrics.log_spectral_distance(signal, out):6.2f} dB")

scores("raw fake vs input:", dsp.AudioSignal(fake_sig.samples[: len(signal)]))
scores("cross-synth vs input:", dsp.AudioSignal(refined.samples[: len(signal)]))
print("\n(cross synthesis transplants the input's spectral envelope onto the "
      "fake's residual, which is what pulls the LSD down)")
