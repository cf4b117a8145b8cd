"""Workload definitions and the inputs each one makes from its seed.

Why each workload exists is stated once, in BENCHMARK.json.

Every run reports every end-to-end metric, so every workload both trains and
vocodes; its primary operation is the one a traced run measures. The seed
chooses only inputs: the synthetic training corpus, the vocoded clips, and
the ``--seed`` given to training and vocoding (model init, crops, noise).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

TRAIN, VOCODE = "train", "vocode"
SAMPLE_RATE = 16000
# shared by every workload: ROADMAP's desk training config and its corpus
TRAIN_SEGMENT = 1600
GATE = "softmax_channel"
TRAIN_CLIPS, TRAIN_CLIP_LEN = 4, 16000


@dataclass(frozen=True)
class Workload:
    name: str
    primary: str  # TRAIN or VOCODE: the operation a traced run measures
    batch: int  # train batch size
    vocode_segment: int  # segment_len of the vocoding checkpoint's config
    vocode_clip_len: int  # samples per vocoded clip
    n_vocode_clips: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_desk", TRAIN, batch=2, vocode_segment=1600,
                 vocode_clip_len=16000, n_vocode_clips=1),
        Workload("train_wide", TRAIN, batch=8, vocode_segment=1600,
                 vocode_clip_len=16000, n_vocode_clips=1),
        Workload("vocode_long", VOCODE, batch=2, vocode_segment=16000,
                 vocode_clip_len=48000, n_vocode_clips=2),
    )
}


@dataclass(frozen=True)
class Inputs:
    train_config: object  # abas.train.TrainConfig
    vocode_config: object  # config embedded in the vocoding checkpoint
    clips: tuple  # float32 arrays to vocode
    vocode_seed: int


def make_inputs(w: Workload, seed: int, abas) -> Inputs:
    """Deterministic inputs of workload ``w`` for ``seed``."""
    train_config = abas.train.TrainConfig(
        batch_size=w.batch,
        segment_len=TRAIN_SEGMENT,
        steps=10**6,  # the benchmark stops train_loop itself
        seed=seed,
        gate_kind=GATE,
        synthetic={"n_clips": TRAIN_CLIPS, "clip_len": TRAIN_CLIP_LEN},
    )
    vocode_config = replace(train_config, segment_len=w.vocode_segment, synthetic=None)
    rng = np.random.default_rng([seed, 2])
    clips = tuple(abas.train.synthesize_clip(rng, w.vocode_clip_len)
                  for _ in range(w.n_vocode_clips))
    return Inputs(train_config, vocode_config, clips, seed)
