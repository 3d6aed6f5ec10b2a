"""Machine-speed calibration of the benchmark's latencies.

On a shared host the same computation runs up to about 1.8 times slower
for seconds at a time (another tenant on the sibling hardware thread, or a
lower clock), and the whole host drifts by a third over tens of minutes.
Raw latencies then spread across runs by more than any change worth
measuring.

So every timed operation is bracketed by probes of the same kind of work
that owe nothing to fracrelax, and its latency is reported in reference
seconds:

    latency * REF / (median of the probes around it)

that is, the time it would take on a machine where the probe takes REF.
A change to fracrelax cannot move a probe, so it moves the reported
latency exactly as it moves the raw one; a change of machine speed moves
both the operation and its probes and cancels.  Two probes:

* ``probe``: one fixed QUADPACK integral of a Python integrand, the mix of
  interpreter and compiled work the library spends its time in.  For
  in-process library calls.
* ``cold_probe``: a fresh interpreter that imports numpy and exits.  For
  whole processes (cold imports, CLI invocations), whose file, mapping
  and page-fault work follows this probe and not the in-process one.
  Measured on 24 cold ``import fracrelax`` runs, it cut their spread
  (interquartile range over median) from 0.19 to 0.07.

Raw wall times stay in each run's report.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

from scipy.integrate import quad

# Median probe times on the reference machine (2 vCPUs, Python 3.11.7,
# scipy 1.17.1); they fix the scale of the reported seconds.
REF_PROBE_S = 70e-6
REF_COLD_S = 0.25
# Probes on each side of an operation whose median calibrates it.
NEIGHBOURS = 2


def _integrand(x: float) -> float:
    return math.exp(-x) * x**0.3


def probe() -> float:
    """Seconds one fixed quadrature takes now."""
    t0 = time.perf_counter()
    quad(_integrand, 0.0, 1.0)
    return time.perf_counter() - t0


def cold_probe() -> float:
    """Seconds a fresh interpreter takes to import numpy and exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


def normalised(latency: list[float], probes: list[float], ref: float = REF_PROBE_S) -> list[float]:
    """Latencies in reference seconds.  ``probes`` has one more entry than
    ``latency``: probe i ran just before operation i, the last one after
    the last operation; ``ref`` is the probe's reference time."""
    if len(probes) != len(latency) + 1:
        raise ValueError("need one probe before each operation and one after the last")
    out = []
    for i, t in enumerate(latency):
        near = probes[max(0, i + 1 - NEIGHBOURS): i + 1 + NEIGHBOURS]
        out.append(t * ref / statistics.median(near))
    return out
