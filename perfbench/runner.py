"""One benchmark run: set-up repetitions, timed operations, checks, metrics.

The program is driven only through ``abas.train.train_loop`` and
``abas.cli.main(["vocode", ...])``. The benchmark's own hooks around
``train_step`` (timing, stopping on the clock) and ``write_wav`` (capturing
whether the float output was finite) are present in traced and untraced runs
alike; the per-layer probes only in traced runs.
"""

from __future__ import annotations

import contextlib
import io
import math
import resource
import statistics
import struct
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import blasref, probes
from .patching import Patches
from .tracing import Tracer
from .workloads import SAMPLE_RATE, TRAIN, VOCODE, Inputs, Workload

SETUP_REPS = 3
MIN_OPS = 3  # timed train steps and vocode calls each, however long they take
PRIMARY_SHARE = (2, 1)  # time split between the primary operation and the other
CHECK_STEPS = 2
LOSS_HEADER = "step,d_loss,g_loss,l1,adv"


class StopLoop(Exception):
    """Raised from the step hook to end train_loop on the benchmark's clock."""


@dataclass
class Outcome:
    attempted: int = 0  # operations: train steps and vocode calls
    failed: int = 0  # operations that raised or failed a check
    problems: list = field(default_factory=list)  # every failed check; empty when correct

    def fail(self, problem: str, operation: bool = True):
        self.failed += operation
        self.problems.append(problem)


@dataclass
class TrainRun:
    step_s: list = field(default_factory=list)  # seconds of every step run
    completed: int = 0  # steps that returned


class Runner:
    def __init__(self, abas, workload: Workload, inputs: Inputs, work: Path, seconds: float):
        self.abas = abas
        self.w = workload
        self.inputs = inputs
        self.work = work
        self.seconds = seconds
        self.outcome = Outcome()
        self.tracer: Tracer | None = None  # set while probes are installed
        self.ckpt = work / "vocode.ckpt"
        self.clip_paths = [work / f"clip_{i}.wav" for i in range(len(inputs.clips))]
        self._finite_outputs: list[bool] = []
        self._train_warm = False
        self._vocoded = 0

    # -- operations ---------------------------------------------------------

    def train(self, config, out_dir: Path, steps: int | None = None,
              phase: str | None = None) -> TrainRun:
        """Call train_loop; stop it before step ``steps + 1`` when steps is given.
        While probes are on, each step runs inside a ``phase`` span."""
        run = TrainRun()
        tracer = self.tracer

        def hook(step_fn):
            def step(*args, **kwargs):
                if steps is not None and len(run.step_s) >= steps:
                    raise StopLoop
                span = tracer.begin(phase) if tracer and phase else None
                self.outcome.attempted += 1
                t0 = time.perf_counter()
                try:
                    stats = step_fn(*args, **kwargs)
                finally:
                    run.step_s.append(time.perf_counter() - t0)
                    if span is not None:
                        tracer.end(span)
                run.completed += 1
                return stats
            return step

        with Patches() as p:
            p.function(self.abas.train, "train_step", hook)
            try:
                self.abas.train.train_loop(config, out_dir)
            except StopLoop:
                pass
            except Exception as e:  # a failed operation is counted, not fatal
                in_step = len(run.step_s) > run.completed
                self.outcome.fail(f"train_loop after {run.completed} steps: "
                                  f"{type(e).__name__}: {e}", operation=in_step)
        self._check_losses(out_dir / "loss.csv", run.completed)
        return run

    def train_once(self, phase: str | None = None) -> float:
        """Seconds of the only step of a one-step train_loop episode. Every
        episode times the first update from the same init, so every timed step
        does the same work: as the model trains, the cost of its subnormal
        GEMMs changes. The run's first episode is an untimed warm-up."""
        cfg, out = self.inputs.train_config, self.work / "train"
        if not self._train_warm:
            self.train(cfg, out, steps=1)
            self._train_warm = True
        episode = self.train(cfg, out, steps=1, phase=phase)
        if not episode.step_s:
            raise RuntimeError(f"train_loop ran no step: {self.outcome.problems}")
        return episode.step_s[0]

    def _check_losses(self, path: Path, completed: int):
        lines = path.read_text().splitlines() if path.exists() else []
        if not lines or lines[0] != LOSS_HEADER:
            self.outcome.fail(f"{path.name}: missing or bad header", operation=False)
            return
        rows = lines[1:]
        if len(rows) != completed:
            self.outcome.fail(f"{path.name}: {len(rows)} rows for {completed} steps",
                              operation=False)
        for i, row in enumerate(rows, 1):
            fields = row.split(",")
            if fields[0] != str(i) or not all(math.isfinite(float(v)) for v in fields[1:]):
                self.outcome.fail(f"{path.name}: step {i} logged {row!r}")

    def vocode_once(self, phase: str | None = None) -> float:
        """Vocode the next clip in turn; returns the call's wall seconds."""
        self._vocoded += 1
        return self.vocode(self._vocoded % len(self.clip_paths), self.work / "out.wav", phase)

    def vocode(self, clip_index: int, out_path: Path, phase: str | None = None) -> float:
        """One whole `abas vocode` call; returns its wall seconds."""
        argv = ["vocode", "--ckpt", str(self.ckpt), "--in", str(self.clip_paths[clip_index]),
                "--out", str(out_path), "--seed", str(self.inputs.vocode_seed)]
        tracer = self.tracer
        span = tracer.begin(phase) if tracer and phase else None
        self.outcome.attempted += 1
        self._finite_outputs.clear()
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = self.abas.cli.main(argv)
            problem = None
        except Exception as e:  # a failed operation is counted, not fatal
            problem = f"vocode raised {type(e).__name__}: {e}"
        finally:
            dt = time.perf_counter() - t0
            if span is not None:
                tracer.end(span)
        problem = problem or self._check_vocoded(rc, out_path,
                                                 len(self.inputs.clips[clip_index]), sink)
        if problem:
            self.outcome.fail(problem)
        return dt

    def _check_vocoded(self, rc, path: Path, n: int, sink) -> str | None:
        if rc != 0:
            return f"vocode exit code {rc}: {sink.getvalue()[-300:]}"
        if self._finite_outputs != [True]:
            return "vocoded samples not finite before PCM conversion"
        samples = read_pcm16(path)
        if samples is None:
            return f"{path.name}: not a canonical PCM16 WAV"
        if len(samples) != n:
            return f"{path.name}: {len(samples)} samples for a {n}-sample input"
        if np.abs(samples).max(initial=0.0) > 1.0:
            return f"{path.name}: samples outside [-1, 1]"
        return None

    def capture_finiteness(self, patches: Patches):
        """Record, at every write_wav, whether the float samples were finite."""
        def make(write_wav):
            def write(path, signal):
                self._finite_outputs.append(bool(np.all(np.isfinite(signal.samples))))
                return write_wav(path, signal)
            return write
        patches.function(self.abas.wavio, "write_wav", make)

    # -- set-up -------------------------------------------------------------

    def setup_once(self, rep: int) -> float:
        """Corpus, residuals and model build (inside train_loop, stopped before
        its first step), then a checkpoint of freshly built models, the input
        WAVs, and one cold vocode call as the warm-up."""
        abas, tracer = self.abas, self.tracer
        span = tracer.begin(probes.PHASE_SETUP) if tracer else None
        t0 = time.perf_counter()
        self.train(self.inputs.train_config, self.work / f"setup_{rep}", steps=0)
        cfg = self.inputs.vocode_config
        G, D = abas.train.build_models(cfg)
        abas.train.save_checkpoint(
            self.ckpt, cfg, G, D, abas.train.AdamState(G.parameters()),
            abas.train.AdamState(D.parameters()),
            np.random.default_rng([cfg.seed, 1]).bit_generator.state, 0)
        del G, D
        for clip, path in zip(self.inputs.clips, self.clip_paths):
            abas.wavio.write_wav(path, abas.dsp.AudioSignal(clip))
        abas.autodiff.pool.clear()  # so every repetition's warm-up call starts cold
        self.vocode(0, self.work / "warmup.wav")
        dt = time.perf_counter() - t0
        if span is not None:
            tracer.end(span)
        return dt

    # -- measurement --------------------------------------------------------

    def clip_seconds(self) -> float:
        return len(self.inputs.clips[0]) / SAMPLE_RATE

    @staticmethod
    def share_time(ops, shares, until: float, min_each: int) -> list[list[float]]:
        """Run ops one at a time, always the one furthest below its share of
        the time spent so far, until the clock passes ``until`` and each ran
        ``min_each`` times. Returns each op's seconds."""
        results: list[list[float]] = [[] for _ in ops]
        while min(map(len, results)) < min_each or time.perf_counter() < until:
            k = min(range(len(ops)), key=lambda i: sum(results[i]) / shares[i])
            results[k].append(ops[k]())
        return results

    def measure(self) -> dict:
        """Train steps and vocode calls interleaved for --seconds, so both
        metrics sample the same stretch of machine time; the primary
        operation gets two thirds of it."""
        ops = {TRAIN: self.train_once, VOCODE: self.vocode_once}
        order = [self.w.primary, VOCODE if self.w.primary == TRAIN else TRAIN]
        times = dict(zip(order, self.share_time([ops[k] for k in order], PRIMARY_SHARE,
                                                time.perf_counter() + self.seconds, MIN_OPS)))
        return {"train_step_s": statistics.median(times[TRAIN]),
                "vocode_rtf": statistics.median(times[VOCODE]) / self.clip_seconds()}

    @contextlib.contextmanager
    def probed(self, trace: Tracer):
        with Patches() as p:
            probes.install(p, trace, self.abas)
            self.tracer = trace
            try:
                yield
            finally:
                self.tracer = None

    def measure_traced(self, trace: Tracer) -> tuple[list[float], list[float]]:
        """The workload's primary operation for --seconds, alternately with and
        without probes, after checking that the probes change no output byte.
        Returns the traced and the untraced seconds per operation."""
        work = self.work
        if self.w.primary == TRAIN:
            cfg = replace(self.inputs.train_config, steps=CHECK_STEPS)
            with self.probed(trace):
                self.train(cfg, work / "check_traced", phase=probes.PHASE_WARMUP)
            self.train(cfg, work / "check_untraced")
            for name in ("loss.csv", "final.ckpt"):
                self._same_bytes(work / "check_untraced" / name, work / "check_traced" / name)
            self._train_warm = True
            op = self.train_once
        else:
            self.vocode(0, work / "check_untraced.wav")
            with self.probed(trace):
                self.vocode(0, work / "check_traced.wav", probes.PHASE_WARMUP)
            self._same_bytes(work / "check_untraced.wav", work / "check_traced.wav")
            op = self.vocode_once

        def traced_op():
            with self.probed(trace):
                return op(probes.PHASE_OP)

        return self.share_time([traced_op, op], (1, 1), time.perf_counter() + self.seconds, 1)

    def _same_bytes(self, a: Path, b: Path):
        if not (a.exists() and b.exists() and a.read_bytes() == b.read_bytes()):
            self.outcome.fail(f"traced and untraced runs wrote different {a.name}",
                              operation=False)


def read_pcm16(path: Path) -> np.ndarray | None:
    """Samples of a canonical 44-byte-header mono PCM16 WAV, scaled to [-1, 1)."""
    raw = Path(path).read_bytes()
    if len(raw) < 44 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE" or raw[36:40] != b"data":
        return None
    (size,) = struct.unpack("<I", raw[40:44])
    if 44 + size != len(raw):
        return None
    return np.frombuffer(raw[44:], dtype="<i2").astype(np.float64) / 32768.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(abas, workload: Workload, inputs: Inputs, work: Path, seconds: float, trace: bool,
        import_s: float) -> tuple[dict, Outcome, Tracer | None]:
    """One run: end-to-end metrics untraced, or per-layer metrics traced."""
    r = Runner(abas, workload, inputs, work, seconds)
    with Patches() as p:
        r.capture_finiteness(p)
        if not trace:
            setups = [r.setup_once(i) for i in range(SETUP_REPS)]
            metrics = r.measure()
            metrics["setup_s"] = import_s + statistics.median(setups)
            metrics["peak_rss_mb"] = peak_rss_mb()
            return metrics, r.outcome, None
        tracer = Tracer()
        with r.probed(tracer):
            for i in range(SETUP_REPS):
                r.setup_once(i)
        traced, untraced = r.measure_traced(tracer)
    n_ops = sum(1 for s in tracer.spans if s.name == probes.PHASE_OP)
    metrics, gemms = probes.layer_metrics(tracer, n_ops, SETUP_REPS)
    rng = np.random.default_rng(0)
    metrics["blas.sgemm_gflops"] = blasref.sgemm_gflops(gemms, rng)
    metrics["blas.dec_wgrad_gflops"] = blasref.sgemm_gflops({blasref.DEC_WGRAD_SHAPE: 1}, rng)
    metrics["trace.overhead_ms"] = 1e3 * (statistics.median(traced) - statistics.median(untraced))
    return metrics, r.outcome, tracer
