"""Walk a 1-second segment through the full model stack, printing every
feature map: 16x residual compression, gated-conv decoding, progressive
upsampling with the noise branch, and the conditional discriminator. The
forwards run on a tape, which keeps each op's output in forward order.
"""

import numpy as np

from abas.autodiff import Tape, Tensor
from abas.model import (
    Discriminator,
    DiscriminatorConfig,
    Generator,
    GeneratorConfig,
    NoiseBundle,
)


def maps(tape, op):
    """Shapes of the outputs of a tape's ``op`` records, in forward order."""
    return [out.shape for name, out in tape.outputs() if name == op]


rng = np.random.default_rng(0)
G = Generator(GeneratorConfig(), rng)
D = Discriminator(DiscriminatorConfig(), rng)
print(f"generator parameters:     {G.num_parameters():,}")
print(f"discriminator parameters: {D.num_parameters():,}")
print(f"minimum segment length:   {G.cfg.min_input_length} samples\n")

residual = Tensor(rng.standard_normal((1, 16000), dtype=np.float32))

tape = Tape()
ctx = G.encode_residual(tape.tensor(residual.data))
print("residual encoder (conv k=64 stride 2 + PReLU, reflect padded):")
print(f"  in  1 x 16000")
for shape in maps(tape, "conv1d"):
    print(f"  ->  {shape[0]} x {shape[1]}")

hidden = G.decode_context(ctx)
print(f"context decoder (1x1 conv + 10 gated convs): {ctx.data.shape} -> "
      f"{hidden.data.shape[0]} x {hidden.data.shape[1]}")

noise = NoiseBundle.draw(np.random.default_rng(1), G.cfg.noise_channels, hidden.length)
fake = G.upsample_adversarial(hidden, noise)
print("adversarial upsampler (tconv k=66 s=2 -> gated refine -> concat noise):")
for shape in maps(tape, "concat_channels"):
    print(f"  ->  {shape[0]} x {shape[1]}  (signal 32 + noise 32)")
print(f"output conv + tanh -> 1 x {fake.length}, range "
      f"[{fake.data.min():.3f}, {fake.data.max():.3f}]\n")

d_tape = Tape()
score = D.discriminate(d_tape.tensor(fake.data), residual)
print("discriminator (conv k=32 stride 2, LeakyReLU 0.2, spectral norm):")
print("  in  2 x 16000  (candidate, residual)")
for shape in maps(d_tape, "conv1d"):
    print(f"  ->  {shape[0]} x {shape[1]}")
print(f"global mean -> scalar score {score.item():+.6f}\n")

# same weights + same noise seed => identical output; new seed differs
a = G.generate(residual, NoiseBundle.draw(np.random.default_rng(5), 32, 1000))
b = G.generate(residual, NoiseBundle.draw(np.random.default_rng(5), 32, 1000))
c = G.generate(residual, NoiseBundle.draw(np.random.default_rng(6), 32, 1000))
print(f"same noise seed reproduces output: {np.array_equal(a.data, b.data)}")
print(f"different noise seed differs:      {not np.array_equal(a.data, c.data)}")
