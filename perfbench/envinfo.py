"""Which code, libraries, threads and machine load produced a result."""

from __future__ import annotations

import hashlib
import os
import platform
import time
from pathlib import Path

CONTENDED_CORES = 0.1  # other processes' average busy cores that flag a run


def git_sha(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """SHA-256 over the program's sources, which identifies code without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def loadavg() -> list[str]:
    try:
        return Path("/proc/loadavg").read_text().split()
    except OSError:
        return []


def cpu_jiffies() -> tuple[int, int] | None:
    """(busy, total) jiffies over all CPUs from /proc/stat."""
    try:
        fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    idle = fields[3] + (fields[4] if len(fields) > 4 else 0)
    return sum(fields) - idle, sum(fields)


def _mark():
    return cpu_jiffies(), _own_cpu(), time.perf_counter()


def others_busy_since(mark) -> float | None:
    """Average cores kept busy by other processes since ``mark``: all busy
    jiffies minus this process's CPU time (its BLAS threads included)."""
    (j0, own0, t0), (j1, own1, t1) = mark, _mark()
    if j0 is None or j1 is None or j1[1] == j0[1] or t1 == t0:
        return None
    busy = (j1[0] - j0[0]) / (j1[1] - j0[1]) * (os.cpu_count() or 1)
    return max(0.0, busy - (own1 - own0) / (t1 - t0))


def idle_sample(window: float = 0.5) -> dict:
    """Load while this process sleeps."""
    mark = _mark()
    time.sleep(window)
    return {"loadavg": loadavg(), "busy_cores": others_busy_since(mark)}


class Recorder:
    """Samples machine load before, during and after a run."""

    def __init__(self, root: Path):
        self.root = root
        self.before = idle_sample()
        self._start = _mark()

    def finish(self) -> dict:
        import numpy
        import scipy

        during = others_busy_since(self._start)
        after = idle_sample()
        flags = [v for v in (self.before["busy_cores"], during, after["busy_cores"])
                 if v is not None]
        return {
            "git_sha": git_sha(self.root),
            "src_sha256": source_digest(self.root / "src"),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "openblas": _openblas_version(numpy),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(),
            "before": self.before,
            "after": after,
            "others_busy_cores_during": during,
            "contended": any(v > CONTENDED_CORES for v in flags),
        }


def _own_cpu() -> float:
    t = os.times()
    return t.user + t.system


def _openblas_version(numpy) -> str | None:
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return None
