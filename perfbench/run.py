"""abas benchmark: end-to-end and per-layer cost of training and vocoding.

Run from the repository root:

    python3 perfbench/run.py --workload train_desk --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all          # every workload once, with a summary table

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import os

# BLAS reads its thread count once, when numpy loads; nothing above imports numpy.
BLAS_THREADS = "2"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def format_value(v: float) -> str:
    return f"{v:.6g}"


def run_one(args) -> int:
    if not (ROOT / "src" / "abas" / "__init__.py").is_file():
        fail(f"no program to measure: {ROOT / 'src' / 'abas'} is missing")
    bench = spec()
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import abas.cli  # imports every abas module, numpy and scipy
    import_s = time.perf_counter() - t0
    if Path(abas.__file__).resolve().parent != ROOT / "src" / "abas":
        fail(f"imported abas from {abas.__file__}, not from {ROOT / 'src'}")

    sys.path.insert(0, str(ROOT))
    from perfbench import envinfo, runner
    from perfbench.workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    recorder = envinfo.Recorder(ROOT)
    work = WORK / f"{workload.name}-s{args.seed}-t{int(args.trace)}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs = make_inputs(workload, args.seed, abas)
        metrics, outcome, tracer = runner.run(abas, workload, inputs, work, args.seconds,
                                              bool(args.trace), import_s)
        if tracer is not None:
            trace_path = WORK / f"trace-{workload.name}-s{args.seed}.jsonl"
            tracer.write(trace_path)
            print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = recorder.finish()

    if set(metrics) != set(units):
        fail(f"metrics differ from BENCHMARK.json: extra {sorted(set(metrics) - set(units))}, "
             f"missing {sorted(set(units) - set(metrics))}", 3)
    correct = not outcome.problems
    print("env " + json.dumps(env, sort_keys=True))
    if env["contended"]:
        print("perfbench: warning: another process held a core during this run", file=sys.stderr)
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    print(f"{workload.name} seed={args.seed} seconds={args.seconds} trace={int(args.trace)}")
    for name in units:
        print(f"  {name:40s} {format_value(metrics[name]):>12s} {units[name]}")
    print(f"  {'error_rate':40s} {format_value(outcome.failed / max(outcome.attempted, 1)):>12s} "
          f"failed/attempted ({outcome.failed}/{outcome.attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n in units},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload once, untraced, in its own process; prints a summary."""
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    rows, ok = [], True
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(proc.stdout + proc.stderr, file=sys.stderr)
            fail(f"{name}: no result (exit code {proc.returncode})", 1)
        for line in lines:
            if line.startswith("check failed"):
                print(f"{name}: {line}")
        ok = ok and result["correct"]
        rows.append((name, result))
    header = ["workload"] + [f"{m} [{units[m]}]" for m in metrics] + ["error_rate", "correct"]
    print("  ".join(f"{h:>18s}" for h in header))
    for name, result in rows:
        cells = [name] + [format_value(result["metrics"][m]["value"]) for m in metrics]
        cells += [format_value(result["failed"] / max(result["attempted"], 1)),
                  str(result["correct"])]
        print("  ".join(f"{c:>18s}" for c in cells))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--all", action="store_true", help="run every workload once, untraced")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.all:
        return run_all(args)
    if not args.workload:
        p.error("give --workload NAME or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
