"""Library-workload worker: one process, one caller, closed loop.

Usage: python perfbench/worker.py JOB.json RESULT.jsonl

The job names the ops (model x quantity grids in t/tau units), the seed
for the per-pass tau draws, the number of distinct passes, and either a
time budget or an exact pass count.  Each op is timed as a whole and
bracketed by speed probes (see speed.py); a point that raises is recorded
by its exception class and the grid goes on.  Pass i draws the taus of
distinct pass i mod ``distinct``, so the scored points are the same in
every run of a seed however many passes the budget holds; later passes
repeat them for timing.  Whole passes only, and at least ``distinct`` of
them: another pass starts only if it is expected to end within the
budget, so every pass is the same mix and the metrics do not depend on
where the clock ran out.  With ``trace`` set, the tracer is installed
after the import and its spans are written to ``spans`` at the end.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import probe  # noqa: E402
from workloads import pass_taus  # noqa: E402


def _runner(fr, op):
    """call(tau, theta) -> (value, route label) for one point of the op."""
    kind, family = op["kind"], op["family"]
    alpha, beta, extra = op["alpha"], op["beta"], op["extra"]
    if kind in ("kernel", "resolvent", "relaxation"):
        def call(tau, theta):
            model = fr.KernelModel(family, alpha, tau, beta)
            return fr.evaluate_model(model, kind, theta * tau)
    elif kind == "spectrum":
        def call(tau, theta):
            model = fr.KernelModel(family, alpha, tau, beta)
            return fr.spectrum_density(model, theta * tau)
    elif kind == "p_kernel":
        def call(tau, theta):
            return fr.p_kernel(alpha, extra["n_eps"], tau, theta * tau), ""
    elif kind == "p_nu":
        def call(tau, theta):
            return fr.p_nu_response(alpha, extra["m"], tau, extra["variant"], theta * tau), ""
    else:
        raise ValueError(f"unknown op kind {kind!r}")
    return call


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    import fracrelax as fr

    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        installed = tracer.install()
    ops = job["ops"]
    calls = [_runner(fr, op) for op in ops]
    clock = time.perf_counter
    passes = 0
    elapsed = 0.0
    with open(result_path, "w") as sink:
        while True:
            taus = pass_taus(job["seed"], passes % job["distinct"], len(ops))
            latency, probes, values, labels = [], [], [], []
            for i, (call, op) in enumerate(zip(calls, ops)):
                tau = taus[i]
                if tracer is not None:
                    tracer.op_id = passes * len(ops) + i
                out_v, out_l = [], []
                probes.append(probe())
                t0 = clock()
                for theta in op["thetas"]:
                    try:
                        value, label = call(tau, theta)
                    except Exception as exc:  # every failure is a measured outcome
                        out_v.append("!" + type(exc).__name__)
                        out_l.append("")
                    else:
                        out_v.append(float(value).hex())
                        out_l.append(label)
                latency.append(clock() - t0)
                values.append(out_v)
                labels.append(out_l)
            probes.append(probe())
            elapsed += sum(latency)
            passes += 1
            # One line per pass, written as it ends, so memory does not grow
            # with the number of passes.
            sink.write(json.dumps({"taus": taus, "latency": latency, "probes": probes,
                                   "values": values, "labels": labels}) + "\n")
            if job.get("passes") is not None:
                if passes >= job["passes"]:
                    break
            elif passes >= job["distinct"] and elapsed + elapsed / passes > job["seconds"]:
                break
        if tracer is not None:
            sink.write(json.dumps({"wrappers_installed": installed,
                                   "wrappers_left": tracer.uninstall()}) + "\n")
            tracer.save(job["spans"])
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
