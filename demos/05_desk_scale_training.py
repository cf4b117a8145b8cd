"""A small adversarial training run, end to end, in about a minute.

Builds a synthetic corpus in memory, then alternates discriminator and
generator updates (hinge loss / L1 + adversarial, Adam-AMSGrad) and prints
the loss trajectory. Checkpoint and loss.csv land in a temp directory.
"""

import tempfile
import time
from pathlib import Path

from abas.train import TrainConfig, load_checkpoint, train_loop

config = TrainConfig(
    batch_size=1,
    segment_len=528,          # smallest legal segment keeps this demo quick
    steps=40,
    seed=0,
    synthetic={"n_clips": 4, "clip_len": 4160},
    checkpoint_every=20,
)
print("config:", config.to_dict(), "\n")

out_dir = Path(tempfile.mkdtemp(prefix="abas_demo_train_"))
t0 = time.time()
history = train_loop(config, out_dir)
elapsed = time.time() - t0

print(f"{'step':>4} {'d_loss':>10} {'g_loss':>10} {'l1':>10} {'adv':>10}")
for i, s in enumerate(history, 1):
    if i % 5 == 0 or i == 1:
        print(f"{i:>4} {s.d_loss:>10.5f} {s.g_loss:>10.5f} {s.l1:>10.5f} {s.adv:>10.5f}")

print(f"\n{config.steps} steps in {elapsed:.1f}s "
      f"({elapsed / config.steps:.2f} s/step at segment {config.segment_len})")
print(f"outputs: {out_dir}/loss.csv, {out_dir}/step_20.ckpt, {out_dir}/final.ckpt")
ckpt = load_checkpoint(out_dir / "final.ckpt")
print(f"final checkpoint holds {len(ckpt.tensors)} named tensors at step {ckpt.step}")
