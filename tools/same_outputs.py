"""Check that two source trees of abas produce byte-identical outputs.

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC [--work DIR]

Each ``*_SRC`` is a directory holding the ``abas`` package (a checkout's
``src``). One fixed CLI scenario runs against each side in turn, under
``OPENBLAS_NUM_THREADS=1`` and in the same working directory, so the paths
that end up in the outputs (checkpoints store the corpus path; every command
echoes its arguments) are the same on both sides:

- ``gen-corpus`` (3 clips of 5000 samples);
- ``train`` for each gate and each target (batch 2, segment 1600, 4 steps,
  a checkpoint every 2 steps), and a resume from step 2 to step 4;
- ``vocode`` with and without ``--skip-cross-synth``;
- ``train --config`` with a JSON config file that sets ``lpc_order`` 12
  (4 steps), and ``vocode`` with that checkpoint;
- ``gen-corpus`` (1 clip of 16000 samples), ``train`` on it at segment
  16000 (batch 1, 1 step), and ``vocode`` of that clip with that checkpoint,
  so every upsampler stage runs several im2col blocks;
- ``cross-synth --order 12``;
- ``lpc`` with each of its three ``--emit`` kinds;
- ``inspect-checkpoint``.

Every command's stdout, stderr and exit code are kept as files beside its
outputs. Every file of one side is then compared byte for byte with the
other's. Exit status: 0 when all files are identical, 1 when any differs or
exists on one side only (the work directory is then kept for inspection),
2 when a command fails.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

GATES = ("softmax", "sigmoid")
TARGETS = ("speech", "residual")
TRAIN = ["--batch", "2", "--seg-len", "1600", "--seed", "0"]
CONFIG_FILE, CONFIG = "order12.json", {"lpc_order": 12}


def scenario() -> list[tuple[str, list[str]]]:
    """(label, abas arguments) in run order; paths are relative to the run dir."""
    steps = [("gen_corpus", ["gen-corpus", "--n", "3", "--len", "5000", "--seed", "0",
                             "--out", "corpus"])]
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
        ("vocode", ["vocode", "--ckpt", ckpt, "--in", clip, "--out", "vocoded.wav",
                    "--seed", "1"]),
        ("vocode_raw", ["vocode", "--ckpt", ckpt, "--in", clip, "--out", "vocoded_raw.wav",
                        "--seed", "1", "--skip-cross-synth"]),
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
        ("cross_synth", ["cross-synth", "--carrier", "corpus/clip_001.wav",
                         "--envelope", clip, "--order", "12", "--out", "cross.wav"]),
        *((f"lpc_{emit}", ["lpc", "--in", clip, "--emit", emit,
                           "--out", f"lpc_{emit}.{'csv' if emit == 'coeffs-csv' else 'wav'}"])
          for emit in ("residual", "resynth", "coeffs-csv")),
        ("inspect", ["inspect-checkpoint", "--ckpt", ckpt]),
    ]
    return steps


def run_side(src: Path, run_dir: Path):
    """Run the scenario importing abas from ``src``, inside ``run_dir``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src.resolve()))
    logs = run_dir / "logs"
    logs.mkdir(parents=True)
    (run_dir / CONFIG_FILE).write_text(json.dumps(CONFIG))
    for label, args in scenario():
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


def files_under(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def compare(a: Path, b: Path) -> list[str]:
    """One line per file that differs or exists on one side only."""
    fa, fb = files_under(a), files_under(b)
    problems = [f"only in {side}: {p}" for side, only in (("parent", fa - fb), ("change", fb - fa))
                for p in sorted(only)]
    problems += [f"differs: {p}" for p in sorted(fa & fb)
                 if not filecmp.cmp(a / p, b / p, shallow=False)]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--work", type=Path, help="scratch directory (default: a new temp dir)")
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (src / "abas" / "__init__.py").is_file():
            parser.error(f"{src} holds no abas package")
    work = Path(tempfile.mkdtemp(prefix="same_outputs_", dir=args.work))
    run_dir = work / "run"  # both sides run here, so their outputs hold the same paths
    for side, src in (("parent", args.parent_src), ("change", args.change_src)):
        print(f"{side}: {src}", flush=True)
        run_side(src, run_dir)
        run_dir.rename(work / side)
    problems = compare(work / "parent", work / "change")
    n_files = len(files_under(work / "parent"))
    if problems:
        print("\n".join(problems))
        print(f"{len(problems)} of {n_files} files differ; outputs kept in {work}")
        return 1
    shutil.rmtree(work)
    print(f"all {n_files} files byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
