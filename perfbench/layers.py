"""Per-layer metrics from a traced run, normalised per pass over the pool.

Times are seconds per pass; counts are calls per pass.  ``.s`` metrics are
inclusive time of the outermost span of that layer; ``self_s`` metrics
subtract the time covered by child spans.
"""

from __future__ import annotations

import re
import statistics
import subprocess
import sys
from collections import defaultdict

import numpy as np

from tracer import outer_time, self_times
from workloads import EVAL_COMBOS

IMPORTS = {
    "import.fracrelax_s": "fracrelax",
    "import.scipy_integrate_s": "scipy.integrate",
    "import.scipy_optimize_s": "scipy.optimize",
    "import.numpy_s": "numpy",
}
IMPORT_REPEATS = 3
ROUTES = ("series", "quadrature", "asymptotic")

# metric -> span names whose outermost inclusive time it reports
INCLUSIVE = {
    "specfun.kummer_1f1.s": ("specfun.kummer_1f1",),
    "specfun.eh_alpha.s": ("specfun.eh_alpha",),
    "kernels.hn_relaxation_kernel.s": ("kernels.hn_relaxation_kernel",),
    "kernels.hn_creep_resolvent.s": ("kernels.hn_creep_resolvent",),
    "kernels.hn_relaxation_function.s": ("kernels.hn_relaxation_function",),
    "kernels.chgf.s": ("kernels.chgf_relaxation_S", "kernels.chgf_kernel_R"),
    "kernels.p_kernel.s": ("kernels.p_kernel",),
    "kernels.p_nu_response.s": ("kernels.p_nu_response",),
    "quadrature.s": ("quadrature.quad",),
    "laplace.s": ("laplace.inverse_laplace", "laplace.talbot", "laplace.bromwich_euler"),
    "spectra.numeric_spectrum.s": ("spectra.numeric_spectrum",),
    "fitting.fit_hn.s": ("fitting.fit_hn",),
    "validation.run_s": ("validation.run_validation",),
    "vanin.vanin_pdf.s": ("vanin.vanin_pdf",),
    "suvorova.s": ("suvorova.suvorova_stress_series", "suvorova.suvorova_convolution",
                   "suvorova.eh_weighted", "suvorova.eh_weighted_regular"),
}
# metric -> span name whose calls it counts
SPAN_CALLS = {
    "specfun.sum_series.calls": "specfun.sum_series",
    "specfun.kummer_1f1.calls": "specfun.kummer_1f1",
    "quadrature.quad.calls": "quadrature.quad",
    "laplace.inverse_laplace.calls": "laplace.inverse_laplace",
}
# metric -> counter names it sums
COUNTS = {
    "specfun.sum_series.terms": ("specfun.sum_series.terms",),
    "specfun.ln_gamma.calls": ("specfun.ln_gamma.calls",),
    "specfun.gamma.calls": ("specfun.gamma.calls",),
    "quadrature.integrand_evals": ("quadrature.integrand_evals",),
    "laplace.image_evals": ("laplace.image_evals",),
    "spectra.image.calls": tuple(
        f"spectra.{n}.calls"
        for n in ("hn_normalized_image", "hn_normalized", "rabotnov_image", "abel_image",
                  "rzhanitsyn_image", "chgf_kernel_image", "compliance_image")
    ),
    "resolvent.volterra_resolvent_transform.calls": ("resolvent.volterra_resolvent_transform.calls",),
    "fitting.nfev": ("fitting._residuals.calls",),
    "vanin.normalizer.calls": ("vanin.normalizer.calls",),
}
CLI = ("cli.process_s", "cli.parse_s", "cli.compute_s", "cli.write_s")
CLI_PARSE = ("cli.build_parser", "cli._merge_config", "cli._parse_model", "cli._parse_grid",
             "cli._read_fit_csv")


def per_op_names() -> list[str]:
    return [f"evaluate.{family}.{kind}.us_per_pt" for kind, family in EVAL_COMBOS]


PER_LAYER = (
    list(IMPORTS)
    + ["specfun.sum_series.calls", "specfun.sum_series.terms", "specfun.sum_series.self_s",
       "specfun.ln_gamma.calls", "specfun.gamma.calls", "specfun.kummer_1f1.calls",
       "specfun.kummer_1f1.s", "specfun.eh_alpha.s"]
    + ["kernels.hn_relaxation_kernel.s", "kernels.hn_creep_resolvent.s",
       "kernels.hn_relaxation_function.s", "kernels.chgf.s", "kernels.p_kernel.s",
       "kernels.p_nu_response.s"]
    + ["quadrature.quad.calls", "quadrature.integrand_evals", "quadrature.s"]
    + ["laplace.inverse_laplace.calls", "laplace.image_evals", "laplace.s", "laplace.image_s"]
    + ["spectra.numeric_spectrum.s", "spectra.image.calls",
       "resolvent.volterra_resolvent_transform.calls"]
    + ["evaluate.self_s"] + [f"evaluate.route.{r}.pts" for r in ROUTES] + per_op_names()
    + list(CLI)
    + ["fitting.fit_hn.s", "fitting.nfev", "validation.run_s", "vanin.normalizer.calls",
       "vanin.vanin_pdf.s", "suvorova.s"]
    + ["trace.overhead_frac", "oracle.unverified"]
)


def import_layers(env: dict) -> dict:
    """Cumulative import time per module from ``python -X importtime``,
    median of a few cold interpreters; 0 for a module not imported."""
    samples = defaultdict(list)
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import fracrelax"],
            env=env, capture_output=True, text=True, check=True,
        )
        seen = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$", line)
            if m:
                seen[m.group(3).strip()] = int(m.group(2)) * 1e-6
        for metric, module in IMPORTS.items():
            samples[metric].append(seen.get(module, 0.0))
    return {k: statistics.median(v) for k, v in samples.items()}


class Spans:
    """One saved span file, with self times and per-name indices."""

    def __init__(self, path) -> None:
        data = np.load(path)
        self.names = [str(n) for n in data["names"]]
        self.start, self.end = data["start"], data["end"]
        self.name, self.parent, self.op = data["name"], data["parent"], data["op"]
        self.labels = data["labels"]
        self.counts = {}
        for item in data["counts"]:
            key, _, value = str(item).rpartition("=")
            self.counts[key] = int(value)
        self.image_s = float(data["image_s"])
        self.self_s = self_times(self.start, self.end, self.parent)

    def ids(self, names) -> list[int]:
        return [i for i, n in enumerate(self.names) if n in names]

    def mask(self, name: str) -> np.ndarray:
        ids = self.ids((name,))
        return np.isin(self.name, ids) if ids else np.zeros(len(self.name), dtype=bool)

    def inclusive(self, names) -> float:
        return outer_time(self.name, self.start, self.end, self.parent, self.ids(names))


def span_layers(files: list[Spans], passes: int) -> tuple[dict, dict]:
    """Per-pass totals over span files for every span- and counter-based
    metric, and evaluate_model points per route label, keyed by whatever
    label the package returned."""
    out = defaultdict(float)
    routes = defaultdict(float)
    for sp in files:
        for label in sp.labels[sp.mask("evaluate.evaluate_model")]:
            if label:  # empty for calls that raised
                routes[str(label)] += 1.0 / passes
        for metric, names in INCLUSIVE.items():
            out[metric] += sp.inclusive(names)
        for metric, name in SPAN_CALLS.items():
            out[metric] += int(sp.mask(name).sum())
        for metric, names in COUNTS.items():
            out[metric] += sum(sp.counts.get(n, 0) for n in names)
        out["specfun.sum_series.self_s"] += float(sp.self_s[sp.mask("specfun.sum_series")].sum())
        out["evaluate.self_s"] += float(sp.self_s[sp.mask("evaluate.evaluate_model")].sum())
        out["laplace.image_s"] += sp.image_s
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({k: v / passes for k, v in out.items()})
    metrics.update({f"evaluate.route.{r}.pts": routes.get(r, 0.0) for r in ROUTES})
    return metrics, dict(sorted(routes.items()))


def library_layers(spans_path, ops: list[dict], plain_passes: list[dict], passes: int):
    """Per-layer metrics and the route-keyed detail of a traced library run."""
    sp = Spans(spans_path)
    metrics, routes = span_layers([sp], passes)
    # Family x quantity cost per point from the untraced latencies.
    per = defaultdict(lambda: [0.0, 0])
    for p in plain_passes:
        for op, latency in zip(ops, p["latency"]):
            if op["kind"] in ("kernel", "resolvent", "relaxation"):
                acc = per[f"evaluate.{op['family']}.{op['kind']}.us_per_pt"]
                acc[0] += latency
                acc[1] += len(op["thetas"])
    for name, (total, n) in per.items():
        metrics[name] = total / n * 1e6
    # Route-keyed cost per point from traced evaluate_model spans, keyed by
    # whatever label the package returned.
    routed = defaultdict(lambda: [0.0, 0])
    n_ops = len(ops)
    for i in np.flatnonzero(sp.mask("evaluate.evaluate_model")):
        op = ops[int(sp.op[i]) % n_ops]
        acc = routed[f"evaluate.{op['family']}.{op['kind']}.{sp.labels[i] or '-'}.us_per_pt"]
        acc[0] += sp.end[i] - sp.start[i]
        acc[1] += 1
    detail = {k: total / n * 1e6 for k, (total, n) in sorted(routed.items())}
    return metrics, {"route_pts": routes, "traced_us_per_pt_by_route": detail, "counts": sp.counts}


def cli_layers(span_paths: list, walls: list[float], passes: int):
    """Per-layer metrics of traced CLI invocations (one span file each)."""
    files = [Spans(p) for p in span_paths]
    metrics, routes = span_layers(files, passes)
    process = parse = write = main = 0.0
    for sp, wall in zip(files, walls):
        in_main = sp.inclusive(("cli.main",))
        main += in_main
        process += wall - in_main
        parse += sp.inclusive(CLI_PARSE)
        write += sp.inclusive(("cli._write_text",))
    metrics["cli.process_s"] = process / passes
    metrics["cli.parse_s"] = parse / passes
    metrics["cli.write_s"] = write / passes
    metrics["cli.compute_s"] = (main - parse - write) / passes
    return metrics, {"route_pts": routes}
