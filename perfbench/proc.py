"""Child processes: the package environment, peak memory, cold imports."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REF_COLD_S, cold_probe, normalised

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPEATS = 3


def package_env() -> dict:
    """Environment for children that import fracrelax from the checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("FRACRELAX_LOG", None)  # the CLI's logging would add work to every invocation
    return env


def wait_rss(proc: subprocess.Popen) -> tuple[int, float]:
    """Wait for a child; return its exit code and peak RSS in MB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def cold_import_s(env: dict) -> float:
    """Median wall time of fresh interpreters that import fracrelax, in
    reference seconds (speed.py, cold probes)."""
    probes, times = [cold_probe()], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fracrelax"], env=env, check=True)
        times.append(time.perf_counter() - t0)
        probes.append(cold_probe())
    return statistics.median(normalised(times, probes, REF_COLD_S))
