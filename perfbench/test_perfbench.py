"""Self-tests of the benchmark harness: python -m pytest perfbench -q"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from oracle import reference  # noqa: E402
from score import Tally, end_to_end  # noqa: E402
from speed import REF_PROBE_S, normalised  # noqa: E402
from tracer import Tracer, outer_time, self_times  # noqa: E402
from workloads import WORKLOADS, build, oracle_tasks, pass_taus  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_inputs(workload):
    assert build(workload, 7) == build(workload, 7)
    assert build(workload, 7) != build(workload, 8)
    assert pass_taus(7, 0, 5) == pass_taus(7, 0, 5)
    assert pass_taus(7, 0, 5) != pass_taus(7, 1, 5)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_stay_in_the_admissible_box(workload):
    for op in build(workload, 3):
        assert 0.05 <= op["alpha"] <= 1.0 and 0.05 <= op["beta"] <= 1.0
    assert all(1e-3 <= tau <= 1e3 for tau in pass_taus(3, 0, 200))


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] has overlapping children [1, 4] and [3, 6] (union 5 s);
    # child [1, 4] has its own child [2, 3].
    start = [0.0, 1.0, 3.0, 2.0]
    end = [10.0, 4.0, 6.0, 3.0]
    parent = [-1, 0, 0, 1]
    assert list(self_times(start, end, parent)) == [5.0, 2.0, 3.0, 1.0]
    names = [0, 1, 1, 1]
    # outermost spans of name 1 only: [1, 4] and [3, 6]; [2, 3] is nested
    assert outer_time(names, start, end, parent, [1]) == 6.0


def _op():
    return {"kind": "relaxation", "family": "Rabotnov", "alpha": 0.5, "beta": 1.0,
            "thetas": [1.0, 2.0], "extra": {}}


def _metrics(tally, wall=2.0):
    lat = {"op_ms_p50": 1.0, "op_ms_p90": 1.0}
    return end_to_end(1.0, tally.good / wall, lat, tally, 10.0)


def test_raised_point_counts_as_error_not_goodput():
    tally = Tally()
    tally.add(_op(), 1.0, 0.5, (0.5, True))
    tally.add(_op(), 2.0, "NonConvergenceError", (0.4, True))
    m = _metrics(tally)
    assert m["error_frac"] == 0.5
    assert m["good_pts_per_s"] == 0.5
    assert m["wrong_frac"] == 0.0


def test_perturbed_value_counts_as_wrong():
    tally = Tally()
    tally.add(_op(), 1.0, 0.5 * (1 + 1e-9), (0.5, True))
    tally.add(_op(), 2.0, 0.4 * (1 + 1e-5), (0.4, True))
    m = _metrics(tally)
    assert m["wrong_frac"] == 0.5
    assert m["good_pts_per_s"] == 0.5
    assert m["error_frac"] == 0.0


def test_unverified_reference_is_counted_not_scored():
    tally = Tally()
    tally.add(_op(), 1.0, 0.5, (0.7, False))
    assert (tally.unverified, tally.good, tally.wrong) == (1, 0, 0)


def test_near_zero_values_use_the_absolute_floor():
    tally = Tally()
    tally.add(_op(), 1.0, 1e-13, (0.0, True))
    assert tally.good == 1


def test_oracle_matches_closed_forms():
    # alpha = beta = 1 collapses every kernel family to the Debye exponential.
    for task in [("kernel", "HavriliakNegami", 1.0, 1.0, 2.0, {}),
                 ("relaxation", "Rabotnov", 1.0, 1.0, 2.0, {}),
                 ("relaxation", "HavriliakNegami", 1.0, 1.0, 2.0, {})]:
        value, verified = reference(task)
        assert verified
        assert value == pytest.approx(math.exp(-2.0), rel=1e-13)
    value, verified = reference(("relaxation", "CHGF", 1.0, 1.0, 2.0, {}))
    assert verified and value == pytest.approx(math.exp(-2.0), rel=1e-13)


def test_tracer_is_bitwise_transparent_and_removable():
    sys.path.insert(0, str(HERE.parent / "src"))
    import fracrelax as fr

    ops = [op for op in build("series-grid", 1) if op["kind"] in ("resolvent", "relaxation")][:6]

    def values():
        out = []
        for op in ops:
            model = fr.KernelModel(op["family"], op["alpha"], 1.0, op["beta"])
            for theta in op["thetas"][:3]:
                try:
                    out.append(fr.evaluate_model(model, op["kind"], theta))
                except Exception as exc:
                    out.append(type(exc).__name__)
        return out

    plain = values()
    tracer = Tracer()
    assert tracer.install() > 0
    traced = values()
    assert tracer.uninstall() == 0
    assert traced == plain
    assert len(tracer.start) > 0
    assert tracer.counts["specfun.sum_series.terms"] > 0


def test_every_point_has_an_oracle_task():
    ops = build("transform-grid", 2)
    assert len(oracle_tasks(ops)) == sum(len(op["thetas"]) for op in ops)


def test_speed_normalisation_cancels_a_uniform_slowdown():
    # The same three operations on a machine running at half speed: every
    # latency and every probe doubles, so the reference latencies agree.
    fast = normalised([1e-3, 2e-3, 5e-3], [REF_PROBE_S] * 4)
    slow = normalised([2e-3, 4e-3, 10e-3], [2 * REF_PROBE_S] * 4)
    assert fast == pytest.approx([1e-3, 2e-3, 5e-3])
    assert slow == pytest.approx(fast)
    # One stray probe among an operation's neighbours does not move it.
    assert normalised([1e-3] * 3, [REF_PROBE_S, REF_PROBE_S, 9 * REF_PROBE_S, REF_PROBE_S])[0] == pytest.approx(1e-3)
    with pytest.raises(ValueError):
        normalised([1e-3], [REF_PROBE_S])
