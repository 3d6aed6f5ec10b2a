"""cli-batch: short ``python -m fracrelax`` invocations, one at a time.

Each invocation is timed from spawn to exit, between cold-start probes
(see speed.py), and its output file is checked afterwards (outside the
timed region): every CSV value against the mpmath reference, ``fit``
by how well the fitted dispersion reproduces the synthetic data,
``validate`` by its own verdict.  CSV columns are found by
header name; the ``method`` column is never read, so route labels may
change freely.  An invocation fails when it exits non-zero or its output
fails the check.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import layers
from proc import cold_import_s, wait_rss
from score import Tally, end_to_end, latency_metrics, to_unit_tau
from speed import REF_COLD_S, cold_probe, normalised
from workloads import DISTINCT_PASSES, op_task, pass_taus, task_key

HERE = Path(__file__).resolve().parent
DISTINCT = DISTINCT_PASSES["cli-batch"]
FIT_POINTS = 40
FIT_REL_RMS = 1e-6
GRID_REL = 1e-9


def _model_json(op: dict, tau: float) -> str:
    model = {"family": op["family"], "alpha": op["alpha"], "tau": tau}
    if op["family"] == "HavriliakNegami":
        model["beta"] = op["beta"]
    return json.dumps(model)


def _grid(op: dict, tau: float) -> str:
    thetas = op["thetas"]
    return f"{thetas[0] * tau!r}:{thetas[-1] * tau!r}:{len(thetas)}:log"


def hn_modulus(omega, tau, alpha, beta, delta_m):
    """Synthetic Havriliak-Negami data, m_0 = 1 (independent of the package)."""
    return 1.0 + delta_m - delta_m * (1.0 + (1j * omega * tau) ** alpha) ** (-beta)


def _fit_data(op: dict, tau: float):
    omega = np.geomspace(1e-3, 1e3, FIT_POINTS) / tau
    return omega, hn_modulus(omega, tau, op["alpha"], op["beta"], op["extra"]["delta_m"])


def command(op: dict, tau: float, out: Path) -> list[str]:
    """CLI arguments for one op at one tau; writes the fit input if needed."""
    cmd = op["command"]
    if cmd in ("eval", "spectrum"):
        argv = [cmd, "--model", _model_json(op, tau), "--grid", _grid(op, tau)]
        if cmd == "eval":
            argv += ["--quantity", op["kind"]]
    elif cmd == "invert":
        argv = ["invert", "--model", _model_json(op, tau), "--grid", _grid(op, tau),
                "--method", op["extra"]["method"]]
    elif cmd == "fit":
        omega, data = _fit_data(op, tau)
        csv = out.with_suffix(".in.csv")
        rows = ["omega,re,im"] + [f"{float(w)!r},{float(z.real)!r},{float(z.imag)!r}" for w, z in zip(omega, data)]
        csv.write_text("\n".join(rows) + "\n")
        argv = ["fit", "--in", str(csv)]
    else:
        argv = ["validate"]
    return argv + ["--out", str(out)]


def _csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def check(op: dict, tau: float, out: Path, refs: dict, tally: Tally) -> bool:
    """Check one invocation's output; returns False if it fails."""
    cmd = op["command"]
    try:
        if cmd == "validate":
            ok = bool(json.loads(out.read_text())["all_pass"])
            tally.add_verdict(cmd, ok)
            return ok
        if cmd == "fit":
            params = json.loads(out.read_text())["params"]
            omega, data = _fit_data(op, tau)
            fitted = hn_modulus(omega, params["tau0"], params["alpha"], params["beta"],
                                params["m_inf"] - params["m_0"]) + (params["m_0"] - 1.0)
            ok = bool(np.linalg.norm(fitted - data) <= FIT_REL_RMS * np.linalg.norm(data))
            tally.add_verdict(cmd, ok)
            return ok
        header, rows = _csv(out)
        columns = ("series_value", "inverted_value") if cmd == "invert" else ("value",)
        if len(rows) != len(op["thetas"]):
            return False
        ok = True
        for theta, row in zip(op["thetas"], rows):
            t = float(row[0])
            if abs(t / tau - theta) > GRID_REL * theta:
                return False
            ref = refs[task_key(op_task(op, theta))]
            for name in columns:
                cell = row[header.index(name)]
                if cell == "":
                    continue  # invert leaves series_value empty past the series route
                before = tally.wrong
                tally.add(op, theta, to_unit_tau(float(cell), op, tau), ref, name)
                ok = ok and tally.wrong == before
        return ok
    except (OSError, ValueError, KeyError, IndexError):
        return False


def run_pass(env, ops, seed, index, prefix: Path, traced: bool):
    """One timed pass; returns its taus, per-invocation (seconds, exit
    code, rss MB, output path, span path or None) and the invocations'
    latencies in reference seconds."""
    taus = pass_taus(seed, index % DISTINCT, len(ops))
    runs = []
    probes = [cold_probe()]
    for i, (op, tau) in enumerate(zip(ops, taus)):
        out = prefix.parent / f"{prefix.name}.p{index}.{i}.{'traced' if traced else 'plain'}.out"
        out.unlink(missing_ok=True)
        argv = command(op, tau, out)
        spans = None
        if traced:
            spans = out.with_suffix(".spans.npz")
            head = [sys.executable, str(HERE / "traced_cli.py"), str(spans)]
        else:
            head = [sys.executable, "-m", "fracrelax"]
        with open(out.with_suffix(".stderr"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(head + argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
            code, rss = wait_rss(proc)
            wall = time.perf_counter() - t0
        runs.append((wall, code, rss, out, spans))
        probes.append(cold_probe())
    return taus, runs, normalised([r[0] for r in runs], probes, REF_COLD_S)


def same_output(a, b) -> bool:
    """Two invocations exited alike and wrote the same bytes."""
    if a[1] != b[1]:
        return False
    return a[3].read_bytes() == b[3].read_bytes() if a[3].exists() else not b[3].exists()


def run(args, env, ops, refs, prefix: Path, budget: float):
    """Whole passes over the batch while they fit in ``budget`` seconds;
    with ``args.trace`` the same passes are then rerun traced.  The first
    pass is scored; later passes repeat its inputs and must reproduce its
    outputs."""
    setup = None if args.trace else cold_import_s(env)
    passes, elapsed = [], 0.0
    while True:
        taus, runs, ref = run_pass(env, ops, args.seed, len(passes), prefix, traced=False)
        passes.append((taus, runs, ref))
        elapsed += sum(r[0] for r in runs)
        if elapsed + elapsed / len(passes) > budget:
            break
    tally = Tally()
    failed = []
    for taus, runs, _ in passes[:DISTINCT]:
        for op, tau, (wall, code, rss, out, _) in zip(ops, taus, runs):
            if code != 0 or not check(op, tau, out, refs, tally):
                failed.append(f"{op['command']} {op['family']} {op['kind']} exit {code}")
    repeats_ok = all(same_output(a, b) for i, (_, runs, _) in enumerate(passes)
                     for a, b in zip(runs, passes[i % DISTINCT][1]))
    walls = [r[0] for _, runs, _ in passes for r in runs]
    latency = [x for _, _, ref in passes for x in ref]
    invocations = len(ops) * DISTINCT
    if not args.trace:
        lat = latency_metrics(latency)
        good = tally.good * len(passes) / DISTINCT  # repeats reproduce the scored pass
        metrics = end_to_end(setup, good / sum(latency), lat, tally,
                             max(r[2] for _, runs, _ in passes for r in runs))
        metrics["error_frac"] = len(failed) / invocations
        report = {"passes": len(passes), "wall_s": sum(latency), "raw_wall_s": sum(walls),
                  "latency": lat,
                  "failed_invocations": failed, "tally": tally.record()}
        return metrics, report, invocations, len(failed), repeats_ok
    traced = [run_pass(env, ops, args.seed, i, prefix, traced=True) for i in range(len(passes))]
    same = repeats_ok and all(
        same_output(a, b)
        for (_, plain_runs, _), (_, traced_runs, _) in zip(passes, traced)
        for a, b in zip(plain_runs, traced_runs)
    )
    traced_runs = [r for _, runs, _ in traced for r in runs if r[4].exists()]
    per_layer, detail = layers.cli_layers([r[4] for r in traced_runs], [r[0] for r in traced_runs],
                                          len(passes))
    per_layer.update(layers.import_layers(env))
    per_layer["trace.overhead_frac"] = sum(x for _, _, ref in traced for x in ref) / sum(latency) - 1.0
    per_layer["oracle.unverified"] = tally.unverified
    report = {"passes": len(passes), "bitwise_equal": same, "failed_invocations": failed,
              "detail": detail}
    return per_layer, report, invocations, len(failed), same
