"""fracrelax benchmark: seeded library grids and a CLI batch, each value
checked against an independent mpmath reference.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload series-grid --seed 1 --seconds 8 --trace 0

Workloads (see workloads.py): ``series-grid``, ``transform-grid`` and
``cli-batch``.  Each is one caller in a closed loop: the next operation
starts only when the previous one has returned.  An operation is one
model x quantity grid for the library workloads and one
``python -m fracrelax`` invocation for ``cli-batch``.  A run makes whole
passes over the seed's pool while they fit in ``--seconds``, and never
fewer than ``DISTINCT_PASSES``.  The points of those first passes are
scored, so ``attempted`` and ``failed`` are the same in every run of a
seed; later passes repeat them, and must reproduce them bitwise, for
timing.  Times are in reference seconds: each is scaled by speed probes
taken near it (speed.py), so that the speed of a shared host, which
changes from second to second and drifts over minutes, cancels.

``--workload all`` runs the three in turn.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced rerun
of the same operations.  The last line of
standard output is one JSON object: ``correct`` (the harness checked every
value it got, repeated passes reproduced the scored ones and, when
tracing, traced values are bitwise equal to the untraced ones),
``attempted`` and ``failed`` (points, or invocations for cli-batch, that
raised or were wrong) and ``metrics``.  A full report, including raw wall
times and the exception classes and worst errors behind ``error_frac``
and ``wrong_frac``, goes to ``perfbench/.out/``.  References are cached
per seed in ``perfbench/.cache/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / ".out"
CACHE = HERE / ".cache"
sys.path.insert(0, str(HERE))

import cli_batch  # noqa: E402
import layers  # noqa: E402
from proc import SRC, cold_import_s, package_env, wait_rss  # noqa: E402
from score import end_to_end, latency_metrics, score_library  # noqa: E402
from speed import normalised  # noqa: E402
from workloads import DISTINCT_PASSES, WORKLOADS, build, oracle_tasks, task_key  # noqa: E402

ORACLE_WORKERS = 2
ORACLE_VERSION = 1
# A traced run reruns, traced, exactly the passes of an untraced run given
# this share of --seconds: per-layer metrics are per pass, so fewer passes
# keep the span count and the run time down without changing them.
TRACE_BUDGET = 0.25


def references(workload: str, seed: int, ops: list[dict]) -> dict:
    """task key -> (value, verified), cached per workload and seed.  Missing
    references are computed by ORACLE_WORKERS oracle processes."""
    tasks = oracle_tasks(ops)
    path = CACHE / f"{workload}-{seed}-v{ORACLE_VERSION}.json"
    refs = {}
    if path.exists():
        refs = {k: tuple(v) for k, v in json.loads(path.read_text()).items()}
    missing = [t for t in tasks if task_key(t) not in refs]
    if missing:
        chunks = [missing[i::ORACLE_WORKERS] for i in range(ORACLE_WORKERS)]
        procs = []
        for i, chunk in enumerate(chunks):
            src, dst = OUT / f"oracle-{i}.tasks.json", OUT / f"oracle-{i}.refs.json"
            src.write_text(json.dumps(chunk))
            procs.append((subprocess.Popen([sys.executable, str(HERE / "oracle.py"), str(src), str(dst)]), dst))
        for proc, _ in procs:
            proc.wait()
        if any(proc.returncode for proc, _ in procs):
            raise RuntimeError("oracle process failed")
        for chunk, (_, dst) in zip(chunks, procs):
            values = json.loads(dst.read_text())
            refs.update((task_key(tuple(t)), tuple(v)) for t, v in zip(chunk, values))
        CACHE.mkdir(exist_ok=True)
        path.write_text(json.dumps(refs))
    return refs


def run_worker(env: dict, job: dict, tag: str) -> tuple[list[dict], dict, float]:
    """Run one worker; returns its passes, its trailer (tracer state) and
    its peak RSS in MB."""
    job_path = OUT / f"{tag}.job.json"
    result_path = OUT / f"{tag}.result.jsonl"
    job_path.write_text(json.dumps(job))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)], env=env
    )
    code, rss = wait_rss(proc)
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    passes, trailer = [], {}
    with open(result_path) as fh:
        for line in fh:
            record = json.loads(line)
            if "latency" in record:
                # From here on "latency" is in reference seconds (speed.py).
                record["wall"] = record["latency"]
                record["latency"] = normalised(record["wall"], record.pop("probes"))
                passes.append(record)
            else:
                trailer = record
    return passes, trailer, rss


def repeats_agree(passes: list[dict], distinct: int) -> bool:
    """Every repeat pass returned bitwise the values of the distinct pass
    it repeats."""
    return all(p["values"] == passes[i % distinct]["values"] for i, p in enumerate(passes))


def library(workload, args, env, ops, refs, tag, budget):
    distinct = DISTINCT_PASSES[workload]
    job = {"ops": ops, "seed": args.seed, "seconds": budget, "passes": None,
           "distinct": distinct}
    if not args.trace:
        setup = cold_import_s(env)
        passes, _, rss = run_worker(env, job, tag)
        # Outcome counts come from the distinct passes, the same points in
        # every run of a seed; goodput and latency from all passes.
        tally, routes = score_library(ops, passes[:distinct], refs)
        # Repeats reproduce their distinct pass bitwise (repeats_agree).
        good_of = [score_library(ops, [p], refs)[0].good for p in passes[:distinct]]
        good = sum(good_of[i % distinct] for i in range(len(passes)))
        wall = sum(sum(p["latency"]) for p in passes)
        lat = latency_metrics([x for p in passes for x in p["latency"]])
        metrics = end_to_end(setup, good / wall, lat, tally, rss)
        report = {"passes": len(passes), "distinct_passes": distinct, "wall_s": wall,
                  "raw_wall_s": sum(sum(p["wall"]) for p in passes), "latency": lat,
                  "routes": dict(routes), "tally": tally.record()}
        ok = repeats_agree(passes, distinct)
        return metrics, report, tally.attempted, tally.raised + tally.wrong, ok
    plain, _, _ = run_worker(env, job, tag + ".plain")
    spans = OUT / f"{tag}.spans.npz"
    traced, trailer, _ = run_worker(
        env, dict(job, passes=len(plain), trace=True, spans=str(spans)), tag + ".traced"
    )
    same = [p["values"] for p in plain] == [p["values"] for p in traced]
    tally, routes = score_library(ops, plain[:distinct], refs)
    wall = sum(sum(p["latency"]) for p in plain)
    traced_wall = sum(sum(p["latency"]) for p in traced)
    per_layer, detail = layers.library_layers(spans, ops, plain, len(plain))
    per_layer.update(layers.import_layers(env))
    per_layer["trace.overhead_frac"] = traced_wall / wall - 1.0
    per_layer["oracle.unverified"] = tally.unverified
    report = {"passes": len(plain), "bitwise_equal": same, "routes": dict(routes),
              "detail": detail, **trailer}
    ok = same and repeats_agree(plain, distinct) and trailer.get("wrappers_left") == 0
    return per_layer, report, tally.attempted, tally.raised + tally.wrong, ok


UNITS = {
    "setup_s": "s",
    "good_pts_per_s": "points/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "error_frac": "ratio",
    "wrong_frac": "ratio",
    "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("us_per_pt"):
        return "us"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def run_one(workload: str, args) -> None:
    """Run one workload and print its metrics; the JSON line comes last."""
    env = package_env()
    # Raw files are named without the seed, so each run replaces the last
    # one's instead of piling up megabytes per seed; reports keep the seed.
    tag = f"{workload}-trace{args.trace}"
    ops = build(workload, args.seed)
    refs = references(workload, args.seed, ops)
    budget = args.seconds * (TRACE_BUDGET if args.trace else 1.0)
    if workload == "cli-batch":
        result = cli_batch.run(args, env, ops, refs, OUT / tag, budget)
    else:
        result = library(workload, args, env, ops, refs, tag, budget)
    metrics, report, attempted, failed, ok = result
    report.update(workload=workload, seed=args.seed, trace=args.trace, metrics=metrics)
    report_path = OUT / f"{workload}-{args.seed}-trace{args.trace}.report.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True))
    for name in sorted(metrics):
        print(f"{workload} {name} = {metrics[name]:.6g} {unit_of(name)}")
    if "latency" in report:
        lat = report["latency"]
        print(f"{workload} samples: {lat['samples']} ops over {report['passes']} pass(es), "
              f"{lat['beyond_p90']} beyond p90; {attempted} attempted, {failed} failed")
    print(json.dumps({
        "correct": bool(ok),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": unit_of(k)} for k, v in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fracrelax" / "__init__.py").is_file():
        print(f"benchmark: no fracrelax sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_one(workload, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
