"""Command-line surface: corpus generation, training, vocoding, cross
synthesis, LPC utilities, objective evaluation, and gradient verification.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O or
format error. Every command prints its resolved configuration and seed
before doing work, and is deterministic given (--seed, inputs).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import dsp, metrics
from .train import (
    CKPT_VERSION,
    CheckpointError,
    TrainConfig,
    TrainDiverged,
    gen_synthetic_corpus,
    load_checkpoint,
    restore_models,
    train_loop,
)
from .verify import TOLERANCE, gradient_suite
from .wavio import WavFormatError, read_wav, write_wav


def _echo(command: str, resolved: dict):
    print(f"[{command}] config: {json.dumps(resolved, sort_keys=True, default=str)}")


# ---------------------------------------------------------------------------
# commands


def _at_least_1(*flags: tuple[str, int]):
    """Reject a count or size flag below 1, naming it."""
    for flag, value in flags:
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")


def cmd_gen_corpus(args) -> int:
    _at_least_1(("--n", args.n), ("--len", args.len))
    _echo("gen-corpus", {"n": args.n, "len": args.len, "seed": args.seed, "out": args.out})
    paths = gen_synthetic_corpus(args.n, args.len, args.seed, args.out)
    print(f"wrote {len(paths)} clips to {args.out}")
    return 0


def _train_config(args) -> TrainConfig:
    base = {}
    if args.config:
        base = json.loads(Path(args.config).read_text())
        if not isinstance(base, dict):
            raise ValueError(f"{args.config}: training config must be a JSON object")
    overrides = {
        "gamma": args.gamma,
        "lr_d": args.lr_d,
        "lr_g": args.lr_g,
        "batch_size": args.batch,
        "segment_len": args.seg_len,
        "steps": args.steps,
        "seed": args.seed,
        "gate_kind": {"softmax": "softmax_channel", "sigmoid": "sigmoid"}.get(args.gate),
        "target_mode": args.target,
        "corpus": args.corpus,
        "checkpoint_every": args.ckpt_every,
    }
    for key, val in overrides.items():
        if val is not None:
            base[key] = val
    return TrainConfig.from_dict(base)


def cmd_train(args) -> int:
    config = _train_config(args)
    _echo("train", config.to_dict())
    out_dir = Path(args.out)
    history = train_loop(config, out_dir, resume_from=args.resume)
    print(f"finished {config.steps} steps; final checkpoint at {out_dir / 'final.ckpt'}")
    if history:
        print(f"last losses: d={history[-1].d_loss:.6g} g={history[-1].g_loss:.6g} l1={history[-1].l1:.6g}")
    return 0


def cmd_vocode(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    config = ckpt.config
    _echo("vocode", {"ckpt": args.ckpt, "in": getattr(args, "in"), "out": args.out,
                     "seed": args.seed, "skip_cross_synth": args.skip_cross_synth,
                     "segment_len": config.segment_len, "lpc_order": config.lpc_order,
                     "cond_scale": ckpt.cond_scale})
    signal = read_wav(getattr(args, "in"))
    G, _ = restore_models(ckpt)
    n, n_min = len(signal), G.cfg.min_input_length
    if n < n_min:
        raise ValueError(f"input too short: {n} samples < {n_min}")

    track, residual = dsp.lpc_analyze(signal, config.lpc_order, config.frame_len)
    fake = G.generate_segments(residual.samples, config.segment_len, np.random.default_rng(args.seed))
    fake_sig = dsp.AudioSignal(fake)
    out = fake_sig if args.skip_cross_synth else dsp.cross_synthesize(fake_sig, track)
    out_sig = dsp.AudioSignal(out.samples[:n])
    write_wav(args.out, out_sig)
    print(
        f"ssnr_db={metrics.ssnr(signal, out_sig):.6g} "
        f"l1={metrics.l1_distance(signal, out_sig):.6g} "
        f"lsd_db={metrics.log_spectral_distance(signal, out_sig):.6g}",
        file=sys.stderr,
    )
    return 0


def cmd_cross_synth(args) -> int:
    _echo("cross-synth", {"carrier": args.carrier, "envelope": args.envelope,
                          "order": args.order, "out": args.out})
    carrier = read_wav(args.carrier)
    envelope = read_wav(args.envelope)
    n = min(len(carrier), len(envelope))
    if len(carrier) != len(envelope):
        warnings.warn(f"length mismatch; trimming both to {n} samples")
    env = dsp.AudioSignal(envelope.samples[:n])
    track, _ = dsp.lpc_analyze(env, order=args.order)
    padded = np.zeros(track.coverage, dtype=np.float32)
    padded[:n] = carrier.samples[:n]
    out = dsp.cross_synthesize(dsp.AudioSignal(padded), track)
    write_wav(args.out, dsp.AudioSignal(out.samples[:n]))
    return 0


def cmd_lpc(args) -> int:
    _at_least_1(("--frame-ms", args.frame_ms))
    _echo("lpc", {"in": getattr(args, "in"), "order": args.order,
                  "frame_ms": args.frame_ms, "emit": args.emit, "out": args.out})
    signal = read_wav(getattr(args, "in"))
    frame_len = args.frame_ms * dsp.PIPELINE_RATE // 1000
    track, residual = dsp.lpc_analyze(signal, args.order, frame_len)
    n = len(signal)
    if args.emit == "residual":
        write_wav(args.out, dsp.AudioSignal(residual.samples[:n]))
    elif args.emit == "resynth":
        resynth = dsp.lpc_synthesize(residual, track)
        write_wav(args.out, dsp.AudioSignal(resynth.samples[:n]))
    else:  # coeffs-csv
        with open(args.out, "w") as f:
            f.write("frame," + ",".join(f"a{k}" for k in range(1, args.order + 1)) + "\n")
            for i, a in enumerate(track.coeffs):
                f.write(f"{i}," + ",".join(f"{c:.9g}" for c in a) + "\n")
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args) -> int:
    _echo("eval", {"ref": args.ref, "deg": args.deg, "out": args.out})
    ref_files = {p.name: p for p in Path(args.ref).glob("*.wav")}
    deg_files = {p.name: p for p in Path(args.deg).glob("*.wav")}
    common = sorted(set(ref_files) & set(deg_files))
    for name in sorted(set(ref_files) ^ set(deg_files)):
        warnings.warn(f"unpaired file skipped: {name}")
    if not common:
        raise ValueError("no paired files between the two directories")
    pairs = [(name, read_wav(ref_files[name]), read_wav(deg_files[name])) for name in common]
    report = metrics.evaluate_corpus(pairs)
    Path(args.out).write_text(report.to_csv())
    print(f"wrote {args.out} ({len(common)} pairs)")
    return 0


def cmd_grad_check(args) -> int:
    _echo("grad-check", {"scope": args.scope, "seed": args.seed})
    results = gradient_suite(args.scope, args.seed)
    failed = 0
    for name, err in results:
        ok = err <= TOLERANCE
        failed += not ok
        print(f"{name}: max rel err {err:.3e} {'PASS' if ok else 'FAIL'}")
    print(f"{len(results) - failed}/{len(results)} gradient checks passed (tolerance {TOLERANCE:g})")
    return 1 if failed else 0


def cmd_inspect_checkpoint(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    G, D = restore_models(ckpt)  # validates every tensor name and shape
    params = G.parameters() + D.parameters()
    n_sn = len(G.convs() + D.convs())
    _echo("inspect-checkpoint", {"ckpt": args.ckpt})
    print(f"version: {CKPT_VERSION}")
    print(f"step: {ckpt.step}")
    print(f"cond_scale: {ckpt.cond_scale!r}")
    print(f"config: {json.dumps(ckpt.config.to_dict(), sort_keys=True)}")
    print(f"parameters: {len(params)} tensors, {sum(p.data.size for p in params)} values")
    print(f"optimizer tensors: {len(ckpt.tensors) - len(params) - n_sn}; "
          f"power-iteration vectors: {n_sn}")
    for p in sorted(params, key=lambda p: p.name):
        print(f"  {p.name} {p.data.shape}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="abas", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="write a synthetic speech-like WAV corpus")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--len", type=int, default=16000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("train", help="train the conditional GAN")
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--gamma", type=float)
    p.add_argument("--lr-d", dest="lr_d", type=float)
    p.add_argument("--lr-g", dest="lr_g", type=float)
    p.add_argument("--batch", type=int)
    p.add_argument("--seg-len", dest="seg_len", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--gate", choices=["softmax", "sigmoid"])
    p.add_argument("--target", choices=["speech", "residual"])
    p.add_argument("--corpus", help="directory of 16 kHz mono PCM16 WAV files")
    p.add_argument("--ckpt-every", dest="ckpt_every", type=int)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("vocode", help="reconstruct speech through the full pipeline")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="in", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--skip-cross-synth", action="store_true")
    p.set_defaults(func=cmd_vocode)

    p = sub.add_parser("cross-synth", help="impose one file's envelope on another's residual")
    p.add_argument("--carrier", required=True)
    p.add_argument("--envelope", required=True)
    p.add_argument("--order", type=int, default=16)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cross_synth)

    p = sub.add_parser("lpc", help="LPC analysis utilities")
    p.add_argument("--in", dest="in", required=True)
    p.add_argument("--order", type=int, default=16)
    p.add_argument("--frame-ms", dest="frame_ms", type=int, default=20)
    p.add_argument("--emit", choices=["residual", "resynth", "coeffs-csv"], required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lpc)

    p = sub.add_parser("eval", help="objective metrics over paired directories")
    p.add_argument("--ref", required=True)
    p.add_argument("--deg", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grad-check", help="finite-difference verification of all ops")
    p.add_argument("--scope", choices=["layer", "model"], default="model")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("inspect-checkpoint", help="print checkpoint metadata")
    p.add_argument("--ckpt", required=True)
    p.set_defaults(func=cmd_inspect_checkpoint)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except TrainDiverged as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (WavFormatError, CheckpointError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
