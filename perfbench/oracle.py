"""Independent mpmath references for every value the benchmark checks.

Nothing here imports fracrelax.  Each reference is the exact function in
units of t/tau (tau = 1); callers rescale with ``scale_exponent``.  The
routes are mpmath's own special functions (``hyp1f1``, ``gammainc``,
``gamma``), mpmath's Talbot inverse Laplace transform of the closed-form
image, and term-by-term multiprecision series (the same brute-force style
as ``tests/oracles.py``, but summed until the terms are negligible rather
than for a fixed count, so small-alpha series are not silently truncated).

Run as a script (``python perfbench/oracle.py TASKS.json OUT.json``) it
computes the references of a list of tasks.

A reference is accepted only when two working precisions agree; for the
Talbot route the precision also sets mpmath's node count, so the two
evaluations are genuinely different computations.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath as mp

# (low, high) working precision in decimal digits, per route.
TALBOT_DPS = (15, 20)
SERIES_DPS = (20, 32)
# Two precisions agree when |lo - hi| <= AGREE_REL |hi| + AGREE_ABS.
AGREE_REL = 1e-12
AGREE_ABS = 1e-15

def scale_exponent(kind: str, family: str, alpha: float) -> float:
    """Exponent e with value(tau, t) = tau**-e * value(1, t/tau)."""
    if kind == "p_kernel":
        return alpha + 1.0
    if (kind, family) == ("kernel", "Rabotnov"):
        return 1.0 - alpha  # eh_alpha carries units 1/time^(1-alpha)
    if kind in ("kernel", "resolvent"):
        return 1.0
    return 0.0  # relaxation functions, spectra and p_nu are dimensionless


class SeriesBudgetError(ArithmeticError):
    """A multiprecision series did not settle within its term budget."""


def _sum(term, max_terms=20000, settle=3):
    """Sum term(0), term(1), ... until ``settle`` consecutive terms fall
    below the working epsilon relative to the partial sum."""
    total = mp.mpf(0)
    small = 0
    eps = mp.eps * 4
    for k in range(max_terms):
        t = term(k)
        total += t
        if abs(t) <= eps * abs(total):
            small += 1
            if small >= settle:
                return total
        else:
            small = 0
    raise SeriesBudgetError(f"series not settled after {max_terms} terms")


def _talbot(image, theta):
    return mp.invertlaplace(image, theta, method="talbot")


def _below_cut(image, x):
    """(1/pi) Im image(s) at s = -1/x approached from below the cut."""
    s = mp.mpc(-1 / x, -mp.mpf(10) ** (-mp.mp.dps - 5) / x)
    return mp.im(image(s)) / mp.pi


def _eval(kind, family, alpha, beta, theta, extra):
    a, b, th = mp.mpf(alpha), mp.mpf(beta), mp.mpf(theta)
    if kind == "kernel":
        if family == "Abel":
            return th ** (a - 1) / mp.gamma(a)
        if family == "Rabotnov":
            return _talbot(lambda s: 1 / (s**a + 1), th)
        if family == "RzhanitsynDavidson":
            return th ** (a - 1) * mp.exp(-th) / mp.gamma(a)
        if family == "CHGF":
            return a * mp.hyp1f1(1 + a, 2, -th)
        return _talbot(lambda s: (1 + s**a) ** (-b), th)
    if kind == "resolvent":
        if family == "Rabotnov":
            return th ** (a - 1) / mp.gamma(a)
        if family == "RzhanitsynDavidson":
            return _talbot(lambda s: 1 / ((1 + s) ** a - 1), th)
        return _talbot(lambda s: 1 / ((1 + s**a) ** b - 1), th)
    if kind == "relaxation":
        if family == "Abel":
            return 1 - th**a / mp.gamma(a + 1)
        if family == "Rabotnov":
            return _talbot(lambda s: s ** (a - 1) / (s**a + 1), th)
        if family == "RzhanitsynDavidson":
            return mp.gammainc(a, th, mp.inf, regularized=True)
        if family == "CHGF":
            return mp.hyp1f1(a, 1, -th)
        return _talbot(lambda s: (1 - (1 + s**a) ** (-b)) / s, th)
    if kind == "spectrum":
        images = {
            "Abel": lambda s: s ** (-a),
            "Rabotnov": lambda s: 1 / (1 + s**a),
            "RzhanitsynDavidson": lambda s: (1 + s) ** (-a),
            "CHGF": lambda s: 1 - (1 + 1 / s) ** (-a),
            "HavriliakNegami": lambda s: (1 + s**a) ** (-b),
        }
        return _below_cut(images[family], th)
    if kind == "p_kernel":
        n = mp.mpf(extra["n_eps"])
        r = n / (n + 1)

        def term(k):
            inner = a * (k + 1) * mp.hyp1f1(a * (k + 1) + 1, 2, -th)
            if k:
                inner -= k * a * mp.hyp1f1(k * a + 1, 2, -th)
            return r**k / (n + 1) * inner

        return _sum(term)
    if kind == "p_nu":
        m = mp.mpf(extra["m"])
        q = 1 / m - 1 if extra["variant"] == 3 else m - 1
        if abs(q) < 1:
            return (1 + q) * _sum(lambda k: (-q) ** k * mp.hyp1f1(a * (k + 1), 1, -th))
        return (1 + 1 / q) * _sum(lambda k: (-q) ** (-k) * mp.hyp1f1(-a * k, 1, -th))
    raise ValueError(f"no reference for kind {kind!r}")


def _uses_talbot(kind, family):
    return (kind, family) in {
        ("kernel", "Rabotnov"),
        ("kernel", "HavriliakNegami"),
        ("resolvent", "RzhanitsynDavidson"),
        ("resolvent", "HavriliakNegami"),
        ("relaxation", "Rabotnov"),
        ("relaxation", "HavriliakNegami"),
    }


def reference(task):
    """Reference for one task ``(kind, family, alpha, beta, theta, extra)``.

    Returns ``(value, verified)``: ``value`` is the high-precision result as
    a float (None if neither precision produced one) and ``verified`` is
    True only when both precisions agree.
    """
    kind, family, alpha, beta, theta, extra = task
    dps_pair = TALBOT_DPS if _uses_talbot(kind, family) else SERIES_DPS
    values = []
    for dps in dps_pair:
        with mp.workdps(dps):
            try:
                values.append(_eval(kind, family, alpha, beta, theta, extra))
            except (SeriesBudgetError, ZeroDivisionError, ValueError):
                values.append(None)
    lo, hi = values
    if hi is None:
        return None, False
    with mp.workdps(dps_pair[1]):
        value = float(mp.re(hi))
        verified = (
            lo is not None
            and math.isfinite(value)
            and abs(lo - hi) <= AGREE_REL * abs(hi) + AGREE_ABS
        )
    return value, verified


def main(tasks_path: str, out_path: str) -> int:
    """Compute the references of a JSON list of tasks into a JSON list."""
    tasks = json.loads(Path(tasks_path).read_text())
    Path(out_path).write_text(json.dumps([reference(tuple(t)) for t in tasks]))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
