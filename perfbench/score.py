"""Scoring: each attempted point is good, wrong, raised or unverified.

* raised: the call raised (library workloads); counts in ``error_frac``.
* unverified: the reference's two precisions disagree; neither good nor
  wrong, counted in ``oracle.unverified``.
* good: within the package's documented 1e-6 relative tolerance of the
  reference, with an absolute floor of 1e-12 in t/tau units for values
  near zero.
* wrong: any other returned value, non-finite ones included.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

import numpy as np

from oracle import scale_exponent
from workloads import op_task, task_key

REL_TOL = 1e-6
ABS_FLOOR = 1e-12


def within(value: float, ref: float) -> bool:
    """Both in t/tau units (tau = 1)."""
    return math.isfinite(value) and abs(value - ref) <= REL_TOL * abs(ref) + ABS_FLOOR


def rel_err(value: float, ref: float) -> float:
    if not math.isfinite(value):
        return math.inf
    return abs(value - ref) / max(abs(ref), ABS_FLOOR / REL_TOL)


# ROADMAP defects, keyed by what the benchmark observes: (quantity,
# families, outcome, route label or None for any) -> defect.
DEFECTS = (
    ("resolvent", ("HavriliakNegami", "RzhanitsynDavidson"), "OverflowError", None,
     "(a) HN creep-resolvent series fails inside its trusted region"),
    ("resolvent", ("HavriliakNegami", "RzhanitsynDavidson"), "NonConvergenceError", None,
     "(a) HN creep-resolvent series fails inside its trusted region"),
    ("resolvent", ("HavriliakNegami", "RzhanitsynDavidson"), "wrong", "series",
     "(a) HN creep-resolvent series loses digits inside its trusted region"),
    ("relaxation", ("Rabotnov",), "wrong", "asymptotic",
     "(b) Rabotnov relaxation tail expansion misses 1e-6"),
    ("kernel", ("Rabotnov", "HavriliakNegami"), "NonConvergenceError", None,
     "(c) series runs out of its 500-term budget at small alpha"),
    ("relaxation", ("Rabotnov", "HavriliakNegami"), "NonConvergenceError", None,
     "(c) series runs out of its 500-term budget at small alpha"),
    ("relaxation", ("RzhanitsynDavidson",), "ContourError", None,
     "(d) RzhanitsynDavidson relaxation: Talbot inversion loses all digits"),
    ("relaxation", ("RzhanitsynDavidson",), "wrong", None,
     "(d) RzhanitsynDavidson relaxation: Talbot inversion loses digits"),
    ("kernel", ("CHGF",), "NonConvergenceError", None,
     "CHGF 1F1 series runs out of budget for t/tau >~ 366"),
    ("relaxation", ("CHGF",), "NonConvergenceError", None,
     "CHGF 1F1 series runs out of budget for t/tau >~ 366"),
    ("kernel", ("Rabotnov", "HavriliakNegami"), "wrong", "inverted_value",
     "not in ROADMAP: invert's 32-node Bromwich-Euler misses 1e-6"),
)


def defect_of(kind: str, family: str, outcome: str, label: str = "") -> str:
    for d_kind, families, d_outcome, d_label, defect in DEFECTS:
        if (kind, outcome) == (d_kind, d_outcome) and family in families and d_label in (None, label):
            return defect
    return "not in ROADMAP"


class Tally:
    """Outcome counts plus the defect record behind them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.good = 0
        self.wrong = 0
        self.raised = 0
        self.unverified = 0
        self.errors: Counter = Counter()  # (op, exception) -> count
        self.worst: dict = defaultdict(lambda: (0.0, None))  # op -> (rel err, theta)
        self.wrong_by: Counter = Counter()
        self.defects: Counter = Counter()

    def add(self, op: dict, theta: float, outcome, ref, label: str = "") -> None:
        """outcome is a float (returned value, t/tau units) or an exception
        class name; ref is (value, verified) from the oracle."""
        self.attempted += 1
        name = f"{op['family']}.{op['kind']}" if op["family"] else op["kind"]
        if isinstance(outcome, str):
            self.raised += 1
            self.errors[(name, outcome)] += 1
            self.defects[defect_of(op["kind"], op["family"], outcome)] += 1
            return
        value, verified = ref
        if not verified:
            self.unverified += 1
            return
        if within(outcome, value):
            self.good += 1
            return
        self.wrong += 1
        self.wrong_by[(name, label)] += 1
        self.defects[defect_of(op["kind"], op["family"], "wrong", label)] += 1
        err = rel_err(outcome, value)
        if err > self.worst[(name, label)][0]:
            self.worst[(name, label)] = (err, theta)

    def add_verdict(self, name: str, ok: bool) -> None:
        """One output checked as a whole (a fit, a validate report)."""
        self.attempted += 1
        if ok:
            self.good += 1
        else:
            self.wrong += 1
            self.wrong_by[(name, "")] += 1

    @property
    def checked(self) -> int:
        return self.good + self.wrong

    def record(self) -> dict:
        return {
            "attempted": self.attempted,
            "good": self.good,
            "wrong": self.wrong,
            "raised": self.raised,
            "unverified": self.unverified,
            "errors": {f"{k[0]} {k[1]}": v for k, v in sorted(self.errors.items())},
            "wrong_by_route": {f"{k[0]} {k[1] or '-'}": v for k, v in sorted(self.wrong_by.items())},
            "worst_rel_err": {
                f"{k[0]} {k[1] or '-'}": {"rel_err": e, "theta": th}
                for k, (e, th) in sorted(self.worst.items())
            },
            "defects": dict(sorted(self.defects.items())),
        }


def to_unit_tau(value: float, op: dict, tau: float) -> float:
    """Rescale a value computed at tau to t/tau units."""
    e = scale_exponent(op["kind"], op["family"], op["alpha"])
    return value * tau**e if e else value


def score_library(ops: list[dict], passes: list[dict], refs: dict) -> tuple[Tally, Counter]:
    tally = Tally()
    routes: Counter = Counter()
    for p in passes:
        for op, tau, values, labels in zip(ops, p["taus"], p["values"], p["labels"]):
            for theta, v, label in zip(op["thetas"], values, labels):
                ref = refs[task_key(op_task(op, theta))]
                if v.startswith("!"):
                    tally.add(op, theta, v[1:], ref)
                    continue
                routes[label or "-"] += 1
                tally.add(op, theta, to_unit_tau(float.fromhex(v), op, tau), ref, label)
    return tally, routes


def latency_metrics(latencies_s: list[float]) -> dict:
    ms = np.asarray(latencies_s) * 1e3
    return {
        "op_ms_p50": float(np.percentile(ms, 50)),
        "op_ms_p90": float(np.percentile(ms, 90)),
        "samples": int(ms.size),
        "beyond_p90": int(np.sum(ms > np.percentile(ms, 90))),
    }


def end_to_end(setup_s, good_per_s, lat, tally, rss_mb) -> dict:
    """The seven end-to-end metrics.  ``error_frac`` counts raised points;
    cli-batch replaces it with its share of failed invocations."""
    return {
        "setup_s": setup_s,
        "good_pts_per_s": good_per_s,
        "op_ms_p50": lat["op_ms_p50"],
        "op_ms_p90": lat["op_ms_p90"],
        "error_frac": tally.raised / max(tally.attempted, 1),
        "wrong_frac": tally.wrong / max(tally.checked, 1),
        "peak_rss_mb": rss_mb,
    }
