"""Check that two source trees of abas produce byte-identical outputs.

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC [--work DIR] [--ckpt FILE [--close]]

Each ``*_SRC`` is a directory holding the ``abas`` package (a checkout's
``src``). One fixed CLI scenario runs against each side in turn, under
``OPENBLAS_NUM_THREADS=1`` and in the same working directory, so the paths
that end up in the outputs (checkpoints store the corpus path; every command
echoes its arguments) are the same on both sides:

- ``gen-corpus`` (3 clips of 5000 samples);
- ``train`` for each gate and each target (batch 2, segment 1600, 4 steps,
  a checkpoint every 2 steps), and a resume from step 2 to step 4;
- ``vocode`` with and without ``--skip-cross-synth``;
- ``gen-corpus`` (1 clip of 37000 samples), and ``vocode`` of it with and
  without ``--skip-cross-synth``: 24 segments of 1600, the last one padded,
  generated side by side in one forward;
- ``train --config`` with a JSON config file that sets ``lpc_order`` 12
  (4 steps), and ``vocode`` with that checkpoint;
- ``gen-corpus`` (1 clip of 16000 samples), ``train`` on it at segment
  16000 (batch 1, 1 step), and ``vocode`` of that clip with that checkpoint,
  so every upsampler stage runs several im2col blocks;
- ``train`` at segment 528 (batch 3, 2 steps), and ``vocode`` of the
  37000-sample clip with that checkpoint: at this segment ``G.enc.down0``'s
  and ``G.enc.compress``'s GEMMs are small enough that each segment gets its
  own blocks when vocoding too, so a wrong block plan shows (at 1600 and
  16000 only the 1-tap ``G.dec.expand`` does, whose products are exact);
- ``cross-synth --order 12``;
- ``lpc`` with each of its three ``--emit`` kinds;
- ``inspect-checkpoint``;
- ``grad-check --scope model --seed 0``, so the gradient suite's printed
  errors are compared too.

With ``--ckpt FILE`` both sides instead vocode that one checkpoint, copied
into the run directory: ``gen-corpus`` as above, then the four ``vocode``
steps above (the 5000- and 37000-sample clips, with and without
``--skip-cross-synth``) and ``inspect-checkpoint``. A change that alters
training on purpose shows with it that vocoding is unchanged, given a
checkpoint written by the parent. Both sides also restore that checkpoint
into float64 models of each training config in GRAD_STEPS, run one
``train_step`` on a fixed synthetic corpus, and save the gradient that each
``adam_amsgrad_step`` call receives, per parameter, to ``grads.npz``.

``--close`` (with ``--ckpt``) is the oracle for a change that only reorders
float32 sums: each WAV compares by its decoded samples, within WAV_REL_RMS
relative RMS and WAV_MAX_LSB PCM16 steps at any sample; the ``ssnr_db=...
l1=... lsd_db=...`` line each vocode prints compares value by value, within
METRIC_REL relative difference; each gradient in ``grads.npz`` compares by
the relative L2 norm of its difference, within GRAD_REL_L2; every other file
compares byte for byte. See those constants for why the bounds hold for a
reordering and fail for a wrong tap. Without ``--close`` the gradients must
be equal.

Both sides run in a new directory under ``--work DIR`` (created if missing)
or the system's temp directory. Every command's stdout, stderr and exit code
are kept as files beside its outputs. Every file of one side is then
compared byte for byte with the other's (or, with ``--close``, as above).
Exit status: 0 when all files are identical (or close), 1 when any differs or
exists on one side only (the work directory is then kept for inspection), 2
when a command fails or an argument is bad.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import wave
from pathlib import Path

import numpy as np

GATES = ("softmax", "sigmoid")
TARGETS = ("speech", "residual")
TRAIN = ["--batch", "2", "--seg-len", "1600", "--seed", "0"]
CONFIG_FILE, CONFIG = "order12.json", {"lpc_order": 12}
GIVEN_CKPT = "given.ckpt"  # where --ckpt FILE is copied in the run dir

# --close bounds, for vocoding whose float32 sums run in another order.
# Reordering a sum moves it by a few float32 roundings of its terms: this
# tree's polyphase transposed convs and FFT products moved the generator's
# output by about 3e-6 relative RMS, far below one PCM16 step (1/32768 of
# full scale) at any sample. Cross synthesis is linear in that output, and
# writing PCM16 rounds each sample to the nearest step, so a sample that
# moves by less than a step reads at most one step apart (WAV_MAX_LSB), and
# only samples that lay that close to a rounding boundary flip. Against its
# parent, with checkpoints at segments 1600 and 16000, those flips came to
# 4.6e-6 to 1.1e-5 relative RMS; WAV_REL_RMS leaves a factor of 10. The
# metrics line (segmental SNR, L1 and log-spectral distance, means over the
# clip, printed to 6 digits) moved by less than its last digit. A kernel tap
# off by one in the transposed convs reads 1.4 relative RMS, thousands of
# steps, and metrics 0.7-2.5% apart.
WAV_MAX_LSB = 1
WAV_REL_RMS = 1e-4
METRIC_REL = 1e-4
METRICS = re.compile(r"ssnr_db=(\S+) l1=(\S+) lsd_db=(\S+)")

# The training half of --close: one train_step per config (gate, target,
# segment, batch) from the given checkpoint; every gate, target, segment and
# batch size of the scenario's training runs appears at least once. The steps
# run in float64 (models, optimizer state and batch). In float32 no bound
# from rounding can hold: the networks are piecewise linear, and a rounding
# change flips the odd leaky-ReLU input that lies within rounding of zero.
# One such flip in D.layer2, in the G phase of the batch-8 step, moved G's
# gradients by 2.6e-4 relative L2 (median over parameters; 2.6% for a PReLU
# slope) between a tree and its parent whose only difference was the order
# of float32 sums. In float64 a flip needs an input within about 1e-16 of
# zero relative to its terms.
# GRAD_REL_L2: in float64 (u = 2**-53) a sum of n terms in any order is
# within gamma(n) = n*u / (1 - n*u) of its exact value, relative to the sum
# of its terms' magnitudes (Higham 2002, eq. 3.5), so two orders differ by at
# most 2*gamma(n). The longest sums here are weight gradients over 16000
# columns (gamma = 1.8e-12); forward and backward together put about 60 such
# products in series, and to first order their relative errors add: 2e-10.
# A gradient that cancels (a bias or a PReLU slope sums terms of both signs)
# is that many times less accurate; the bound allows a factor of 50. Against
# its parent, a change that reordered the sums of the upsampler's
# correlations and their gradients read at most 1.4e-13 (a PReLU slope), and
# one tap off by one in the FFT input gradient 0.6 to 455.
GRAD_STEPS = [("softmax_channel", "speech", 1600, 8), ("sigmoid", "residual", 1600, 3),
              ("softmax_channel", "residual", 528, 3), ("sigmoid", "speech", 528, 1),
              ("softmax_channel", "speech", 16000, 1), ("sigmoid", "residual", 16000, 1)]
GRADS = "grads.npz"
GRAD_REL_L2 = 1e-8


def vocode_steps(ckpt: str) -> list[tuple[str, list[str]]]:
    """Vocoding of a 5000- and a 37000-sample clip with ``ckpt``, with and
    without cross synthesis; the second clip runs as several segments of
    one forward (24 at segment 1600, 3 at 16000)."""
    clip = "corpus/clip_000.wav"
    return [
        ("vocode", ["vocode", "--ckpt", ckpt, "--in", clip, "--out", "vocoded.wav",
                    "--seed", "1"]),
        ("vocode_raw", ["vocode", "--ckpt", ckpt, "--in", clip, "--out", "vocoded_raw.wav",
                        "--seed", "1", "--skip-cross-synth"]),
        ("gen_corpus_37k", ["gen-corpus", "--n", "1", "--len", "37000", "--seed", "0",
                            "--out", "corpus37k"]),
        ("vocode_multi", ["vocode", "--ckpt", ckpt, "--in", "corpus37k/clip_000.wav",
                          "--out", "vocoded_multi.wav", "--seed", "1"]),
        ("vocode_multi_raw", ["vocode", "--ckpt", ckpt, "--in", "corpus37k/clip_000.wav",
                              "--out", "vocoded_multi_raw.wav", "--seed", "1",
                              "--skip-cross-synth"]),
    ]


def scenario(given: bool = False) -> list[tuple[str, list[str]]]:
    """(label, abas arguments) in run order; paths are relative to the run dir.
    With ``given``, only the steps that vocode the checkpoint GIVEN_CKPT."""
    steps = [("gen_corpus", ["gen-corpus", "--n", "3", "--len", "5000", "--seed", "0",
                             "--out", "corpus"])]
    if given:
        return steps + vocode_steps(GIVEN_CKPT) + [
            ("inspect", ["inspect-checkpoint", "--ckpt", GIVEN_CKPT])]
    for gate in GATES:
        for target in TARGETS:
            steps.append((f"train_{gate}_{target}", [
                "train", "--corpus", "corpus", "--out", f"train_{gate}_{target}",
                "--gate", gate, "--target", target, "--steps", "4", "--ckpt-every", "2",
                *TRAIN]))
    ckpt = "train_softmax_speech/final.ckpt"
    clip = "corpus/clip_000.wav"
    steps += [
        ("resume", ["train", "--corpus", "corpus", "--out", "resume", "--steps", "4",
                    "--resume", "train_softmax_speech/step_2.ckpt", *TRAIN]),
        *vocode_steps(ckpt),
        ("train_order12", ["train", "--config", CONFIG_FILE, "--corpus", "corpus",
                           "--out", "train_order12", "--steps", "4", *TRAIN]),
        ("vocode_order12", ["vocode", "--ckpt", "train_order12/final.ckpt", "--in", clip,
                            "--out", "vocoded_order12.wav", "--seed", "1"]),
        ("gen_corpus_16k", ["gen-corpus", "--n", "1", "--len", "16000", "--seed", "0",
                            "--out", "corpus16k"]),
        ("train_seg16000", ["train", "--corpus", "corpus16k", "--out", "train_seg16000",
                            "--steps", "1", "--batch", "1", "--seg-len", "16000", "--seed", "0"]),
        ("vocode_seg16000", ["vocode", "--ckpt", "train_seg16000/final.ckpt",
                             "--in", "corpus16k/clip_000.wav", "--out", "vocoded_seg16000.wav",
                             "--seed", "1"]),
        ("train_seg528", ["train", "--corpus", "corpus", "--out", "train_seg528",
                          "--steps", "2", "--batch", "3", "--seg-len", "528", "--seed", "0"]),
        ("vocode_seg528", ["vocode", "--ckpt", "train_seg528/final.ckpt",
                           "--in", "corpus37k/clip_000.wav", "--out", "vocoded_seg528.wav",
                           "--seed", "1"]),
        ("cross_synth", ["cross-synth", "--carrier", "corpus/clip_001.wav",
                         "--envelope", clip, "--order", "12", "--out", "cross.wav"]),
        *((f"lpc_{emit}", ["lpc", "--in", clip, "--emit", emit,
                           "--out", f"lpc_{emit}.{'csv' if emit == 'coeffs-csv' else 'wav'}"])
          for emit in ("residual", "resynth", "coeffs-csv")),
        ("inspect", ["inspect-checkpoint", "--ckpt", ckpt]),
        ("grad_check", ["grad-check", "--scope", "model", "--seed", "0"]),
    ]
    return steps


def record_grads(ckpt: Path, out: Path):
    """For each GRAD_STEPS config: restore ckpt into fresh float64 models and
    optimizers, run one train_step on a float64 batch of a fixed synthetic
    corpus, and keep the gradient each adam_amsgrad_step call receives (zeros
    for a parameter without one); save them all to out, keyed
    config/parameter. Runs inside a side's tree (abas from PYTHONPATH)."""
    from abas import train as T

    checkpoint = T.load_checkpoint(ckpt)
    clip_rng = np.random.default_rng(0)
    clips = [T.synthesize_clip(clip_rng, 20000) for _ in range(3)]
    defaults = T.TrainConfig()  # every config below keeps its LPC settings
    residuals = T.residuals_for(clips, defaults.lpc_order, defaults.frame_len)
    grads = {}
    adam_step = T.adam_amsgrad_step
    for gate, target, seg, batch_size in GRAD_STEPS:
        tag = f"{gate}_{target}_seg{seg}_batch{batch_size}"
        config = T.TrainConfig(gate_kind=gate, target_mode=target, segment_len=seg,
                               batch_size=batch_size, seed=0)
        G, D = T.build_models(config, np.float64)
        opt_g, opt_d = T.AdamState(G.parameters()), T.AdamState(D.parameters())
        T.restore_into(checkpoint, G, D, opt_g, opt_d)
        rng = np.random.default_rng([config.seed, 1])
        batch = [(x.astype(np.float64), r.astype(np.float64)) for x, r in
                 next(T.make_batches(clips, residuals, seg, batch_size, rng, config.frame_len))]

        def spy(params, *args, **kwargs):
            for p in params:
                grads[f"{tag}/{p.name}"] = (np.zeros_like(p.data) if p.grad is None
                                            else p.grad.copy())
            return adam_step(params, *args, **kwargs)

        T.adam_amsgrad_step = spy
        try:
            T.train_step(batch, G, D, opt_g, opt_d, config, rng)
        finally:
            T.adam_amsgrad_step = adam_step
    np.savez(out, **grads)


def run_side(src: Path, run_dir: Path, ckpt: Path | None = None):
    """Run the scenario importing abas from ``src``, inside ``run_dir``; with
    ``ckpt``, the scenario that vocodes that checkpoint."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src.resolve()))
    logs = run_dir / "logs"
    logs.mkdir(parents=True)
    (run_dir / CONFIG_FILE).write_text(json.dumps(CONFIG))
    if ckpt is not None:
        shutil.copyfile(ckpt, run_dir / GIVEN_CKPT)
    for label, args in scenario(ckpt is not None):
        proc = subprocess.run([sys.executable, "-m", "abas.cli", *args], cwd=run_dir,
                              env=env, capture_output=True)
        (logs / f"{label}.stdout").write_bytes(proc.stdout)
        (logs / f"{label}.stderr").write_bytes(proc.stderr)
        (logs / f"{label}.rc").write_text(f"{proc.returncode}\n")
        if proc.returncode != 0:
            print(f"{src}: `abas {' '.join(args)}` exited {proc.returncode}:\n"
                  f"{proc.stderr.decode(errors='replace')[-2000:]}", file=sys.stderr)
            sys.exit(2)
        print(f"  {label}", flush=True)
    if ckpt is not None:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--record-grads",
                               GIVEN_CKPT, GRADS], cwd=run_dir, env=env, capture_output=True)
        if proc.returncode != 0:
            print(f"{src}: recording the gradients of {GIVEN_CKPT} exited {proc.returncode}:\n"
                  f"{proc.stderr.decode(errors='replace')[-2000:]}", file=sys.stderr)
            sys.exit(2)
        print("  grads", flush=True)


def files_under(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def pcm16(path: Path) -> np.ndarray:
    with wave.open(str(path), "rb") as f:
        return np.frombuffer(f.readframes(f.getnframes()), "<i2").astype(np.float64)


def wav_gap(a: Path, b: Path) -> tuple[bool, str]:
    """Whether two WAVs are close, and how far apart their samples are."""
    x, y = pcm16(a), pcm16(b)
    if x.shape != y.shape:
        return False, f"{x.size} against {y.size} samples"
    rel = np.sqrt(np.mean((x - y) ** 2) / max(np.mean(x ** 2), 1.0))
    lsb = int(np.max(np.abs(x - y), initial=0))
    return (rel <= WAV_REL_RMS and lsb <= WAV_MAX_LSB,
            f"relative RMS {rel:.3g} (bound {WAV_REL_RMS:g}), {lsb} LSB (bound {WAV_MAX_LSB})")


def text_gap(a: Path, b: Path) -> tuple[bool, str]:
    """Whether two texts are close: every line equal byte for byte, or both a
    metrics line with each value within METRIC_REL; and the largest gap."""
    la, lb = a.read_bytes().splitlines(), b.read_bytes().splitlines()
    if len(la) != len(lb):
        return False, f"{len(la)} against {len(lb)} lines"
    worst = 0.0
    for i, (x, y) in enumerate(zip(la, lb)):
        if x == y:
            continue
        mx, my = (METRICS.fullmatch(line.decode(errors="replace")) for line in (x, y))
        if not (mx and my):
            return False, f"line {i + 1} differs"
        for u, v in zip(map(float, mx.groups()), map(float, my.groups())):
            worst = max(worst, abs(u - v) / max(abs(u), abs(v), 1e-30))
    return worst <= METRIC_REL, f"metrics {worst:.3g} relative (bound {METRIC_REL:g})"


def grads_gap(a: Path, b: Path, close: bool) -> tuple[bool, str]:
    """Whether two grads.npz files are close (or, without close, equal), and
    the parameter farthest apart by relative L2 norm."""
    with np.load(a) as ga, np.load(b) as gb:
        if sorted(ga.files) != sorted(gb.files):
            return False, "different parameters"
        gaps = {}
        for key in ga.files:
            x, y = ga[key].astype(np.float64), gb[key].astype(np.float64)
            if x.shape != y.shape:
                return False, f"{key}: shape {x.shape} against {y.shape}"
            gaps[key] = np.linalg.norm(x - y) / max(np.linalg.norm(x), 1e-30)
    name = max(gaps, key=lambda key: np.nan_to_num(gaps[key], nan=np.inf))  # NaN is worst
    worst = gaps[name]
    ok = worst <= GRAD_REL_L2 if close else worst == 0.0
    return ok, f"{name} relative L2 {worst:.3g}" + (f" (bound {GRAD_REL_L2:g})" if close else "")


def compare(a: Path, b: Path, close: bool = False) -> tuple[list[str], list[str]]:
    """One line per file that differs (with close, that is not close) or
    exists on one side only, and with close, one per file that differs but
    is close."""
    fa, fb = files_under(a), files_under(b)
    problems = [f"only in {side}: {p}" for side, only in (("parent", fa - fb), ("change", fb - fa))
                for p in sorted(only)]
    near = []
    for p in sorted(fa & fb):
        if filecmp.cmp(a / p, b / p, shallow=False):
            continue
        if p.name == GRADS:
            ok, gap = grads_gap(a / p, b / p, close)
            if ok and not close:
                continue  # the same arrays, in archives written at other times
        elif not close:
            problems.append(f"differs: {p}")
            continue
        else:
            ok, gap = (wav_gap if p.suffix == ".wav" else text_gap)(a / p, b / p)
        (near if ok else problems).append(f"{'close' if ok else 'differs'}: {p}: {gap}")
    return problems, near


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--work", type=Path, help="scratch directory, created if missing "
                                                 "(default: the system's temp dir)")
    parser.add_argument("--ckpt", type=Path, help="vocode this checkpoint on both sides instead "
                                                 "of running the whole scenario")
    parser.add_argument("--close", action="store_true",
                        help="with --ckpt: WAVs and vocode metrics need only be close")
    args = parser.parse_args(argv)
    if args.close and args.ckpt is None:
        parser.error("--close needs --ckpt")
    for src in (args.parent_src, args.change_src):
        if not (src / "abas" / "__init__.py").is_file():
            parser.error(f"{src} holds no abas package")
    if args.ckpt is not None and not args.ckpt.is_file():
        parser.error(f"{args.ckpt} is not a file")
    if args.work is not None:
        try:
            args.work.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            parser.error(f"cannot use --work {args.work}: {e.strerror}")
    work = Path(tempfile.mkdtemp(prefix="same_outputs_", dir=args.work))
    run_dir = work / "run"  # both sides run here, so their outputs hold the same paths
    for side, src in (("parent", args.parent_src), ("change", args.change_src)):
        print(f"{side}: {src}", flush=True)
        run_side(src, run_dir, args.ckpt)
        run_dir.rename(work / side)
    problems, near = compare(work / "parent", work / "change", args.close)
    n_files = len(files_under(work / "parent"))
    for line in near + problems:
        print(line)
    if problems:
        print(f"{len(problems)} of {n_files} files differ; outputs kept in {work}")
        return 1
    shutil.rmtree(work)
    print(f"all {n_files} files byte-identical" if not near else
          f"all {n_files} files close, {n_files - len(near)} of them byte-identical")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--record-grads"]:  # run_side's worker, inside one side's tree
        record_grads(Path(sys.argv[2]), Path(sys.argv[3]))
        sys.exit(0)
    sys.exit(main())
