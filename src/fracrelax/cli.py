"""Command-line interface.

Subcommands: ``eval`` (kernel/resolvent/relaxation values over a time grid,
CSV), ``spectrum`` (relaxation-time spectrum over a tau grid, CSV), ``fit``
(Havriliak-Negami parameters from measured complex modulus CSV), ``invert``
(numerical inverse Laplace transform vs the series route, CSV) and
``validate`` (machine-readable invariant report, JSON).

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 numerical failure.  Output is deterministic: identical configuration
produces byte-identical files on every run, and every numeric is printed
with 17 significant digits (round-trippable to the exact double).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

from .errors import EvaluationError, NoResolventError
from .evaluate import QUANTITIES, evaluate_model, laplace_image, spectrum_density
from .fitting import fit_hn
from .kernels import KERNEL_FAMILIES, KernelModel
from .laplace import InverseLaplaceSpec, inverse_laplace
from .specfun import SeriesControl
from .validation import run_validation

CONFIG_SCHEMA = 1

# FRACRELAX_LOG controls verbosity (DEBUG/INFO/WARNING/ERROR); logs go to
# stderr so CSV/JSON output streams stay clean.
_LOG_ENV = "FRACRELAX_LOG"

log = logging.getLogger("fracrelax")

# config key -> the argparse attribute it supplies
_CONFIG_ATTRS = {
    "model": "model",
    "grid": "grid",
    "quantity": "quantity",
    "in": "in_path",
    "out": "out",
    "tol": "tol",
    "method": "method",
    "only": "only",
    "sabotage": "sabotage",
}
_CONFIG_KEYS = {"schema", "command", *_CONFIG_ATTRS}
_MODEL_KEYS = {"family", "alpha", "beta", "tau", "m_inf", "m_0"}
_GRID_KEYS = {"start", "stop", "points", "spacing"}

_ILT_ALIASES = {
    "talbot": "deformed-contour",
    "euler": "bromwich-series-acceleration",
    "deformed-contour": "deformed-contour",
    "bromwich-series-acceleration": "bromwich-series-acceleration",
}


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _parse_model(spec) -> KernelModel:
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--model is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise ConfigError("model must be a JSON object")
    unknown = set(spec) - _MODEL_KEYS
    if unknown:
        raise ConfigError(f"unknown model keys: {sorted(unknown)}")
    if "family" not in spec:
        raise ConfigError(f"model needs a 'family' (one of {KERNEL_FAMILIES})")
    try:
        return KernelModel(
            family=spec["family"],
            alpha=float(spec.get("alpha", 1.0)),
            tau=float(spec.get("tau", 1.0)),
            beta=float(spec.get("beta", 1.0)),
            m_inf=None if spec.get("m_inf") is None else float(spec["m_inf"]),
            m_0=None if spec.get("m_0") is None else float(spec["m_0"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_grid(spec) -> list[float]:
    if isinstance(spec, str):
        parts = spec.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError("--grid must be start:stop:points[:linear|log]")
        spec = {
            "start": parts[0],
            "stop": parts[1],
            "points": parts[2],
            "spacing": parts[3] if len(parts) == 4 else "linear",
        }
    if not isinstance(spec, dict):
        raise ConfigError("grid must be a JSON object or start:stop:points[:spacing]")
    unknown = set(spec) - _GRID_KEYS
    if unknown:
        raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
    try:
        start = float(spec["start"])
        stop = float(spec["stop"])
        points = int(spec["points"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad grid: {exc}") from exc
    spacing = spec.get("spacing", "linear")
    if spacing not in ("linear", "log"):
        raise ConfigError(f"grid spacing must be linear or log, got {spacing!r}")
    if points < 2:
        raise ConfigError("grid needs points >= 2")
    if not start < stop:
        raise ConfigError("grid needs start < stop")
    if spacing == "log":
        if start <= 0.0:
            raise ConfigError("log spacing requires start > 0")
        ratio = (stop / start) ** (1.0 / (points - 1))
        return [start * ratio**i for i in range(points)]
    step = (stop - start) / (points - 1)
    return [start + step * i for i in range(points)]


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if cfg.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(
            f"config schema must be {CONFIG_SCHEMA}, got {cfg.get('schema')!r}"
        )
    return cfg


def _merge_config(args: argparse.Namespace) -> None:
    """Config file supplies defaults; explicit flags win."""
    if not getattr(args, "config", None):
        return
    cfg = _load_config(args.config)
    for key, attr in _CONFIG_ATTRS.items():
        if key in cfg and getattr(args, attr, None) in (None, False):
            setattr(args, attr, cfg[key])


def _controls(args) -> SeriesControl:
    tol = getattr(args, "tol", None)
    if tol is None:
        return SeriesControl()
    tol = float(tol)
    if not 0.0 < tol < 1.0:
        raise ConfigError(f"--tol must be in (0, 1), got {tol}")
    return SeriesControl(rel_tol=tol)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_eval(args) -> int:
    model = _parse_model(args.model)
    ts = _parse_grid(args.grid)
    quantity = args.quantity or "kernel"
    if quantity not in QUANTITIES:
        raise ConfigError(f"quantity must be one of {QUANTITIES}")
    method = args.method or "auto"
    if method not in ("auto", "series", "quadrature"):
        raise ConfigError("eval --method must be auto, series or quadrature")
    if method == "quadrature" and quantity not in ("kernel", "resolvent"):
        raise ConfigError("forced quadrature supports kernel and resolvent only")
    ctl = _controls(args)
    log.info(
        "eval: %s %s over %d points (%s route)", model.family, quantity, len(ts), method
    )
    rows = ["t,value,method"]
    for t in ts:
        try:
            if method == "quadrature":
                value = inverse_laplace(laplace_image(model, quantity), t)
                used = "quadrature"
            else:
                value, used = evaluate_model(model, quantity, t, ctl)
                if method == "series" and used != "series":
                    raise EvaluationError(f"series route not valid at t = {t}")
        except NoResolventError as exc:
            print(f"numerical failure: no resolvent ({exc})", file=sys.stderr)
            return 3
        except (EvaluationError, ValueError, OverflowError) as exc:
            print(f"numerical failure at t = {_fmt(t)}: {exc}", file=sys.stderr)
            return 3
        rows.append(f"{_fmt(t)},{_fmt(value)},{used}")
    _write_text(args.out, "\n".join(rows) + "\n")
    return 0


def cmd_spectrum(args) -> int:
    model = _parse_model(args.model)
    taus = _parse_grid(args.grid)
    rows = ["tau,value,method"]
    try:
        for tau in taus:
            value, used = spectrum_density(model, tau)
            rows.append(f"{_fmt(tau)},{_fmt(value)},{used}")
    except (EvaluationError, ValueError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    _write_text(args.out, "\n".join(rows) + "\n")
    return 0


def _read_fit_csv(path: str):
    """(omega, values) arrays from an omega,re,im CSV."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0] != "omega,re,im":
        raise ConfigError("fit input must be CSV with header 'omega,re,im'")
    omegas, values = [], []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise ConfigError(f"line {i}: expected 3 comma-separated fields")
        try:
            w, re_part, im_part = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"line {i}: {exc}") from exc
        omegas.append(w)
        values.append(complex(re_part, im_part))
    import numpy as np

    return np.array(omegas), np.array(values)


def cmd_fit(args) -> int:
    if not args.in_path:
        raise ConfigError("fit requires --in CSV")
    omega, data = _read_fit_csv(args.in_path)
    log.info("fit: %d samples, omega in [%g, %g]", len(omega), min(omega), max(omega))
    try:
        result = fit_hn(omega, data)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    log.info(
        "fit: converged=%s after %d evaluations, residual %.3e",
        result.converged,
        result.iterations,
        result.residual_norm,
    )
    p = result.params
    report = {
        "schema": CONFIG_SCHEMA,
        "params": {
            "alpha": p.alpha,
            "beta": p.beta,
            "tau0": p.tau0,
            "m_inf": p.m_inf,
            "m_0": p.m_0,
        },
        "residual_norm": result.residual_norm,
        "std_errors": result.std_errors,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    _write_text(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_invert(args) -> int:
    model = _parse_model(args.model)
    ts = _parse_grid(args.grid)
    quantity = args.quantity or "kernel"
    if quantity not in ("kernel", "resolvent"):
        raise ConfigError("invert supports kernel and resolvent quantities")
    method = _ILT_ALIASES.get(args.method or "deformed-contour")
    if method is None:
        raise ConfigError(
            "invert --method must be deformed-contour (talbot) or "
            "bromwich-series-acceleration (euler)"
        )
    spec = InverseLaplaceSpec(method=method)
    ctl = _controls(args)

    rows = ["t,series_value,inverted_value,rel_diff"]
    try:
        image = laplace_image(model, quantity)
        for t in ts:
            inverted = inverse_laplace(image, t, spec)
            try:
                series, used = evaluate_model(model, quantity, t, ctl)
                if used != "series" or not math.isfinite(series):
                    raise EvaluationError("no series value")
                rel = abs(series - inverted) / max(abs(series), 1e-300)
                rows.append(f"{_fmt(t)},{_fmt(series)},{_fmt(inverted)},{_fmt(rel)}")
            except (EvaluationError, ValueError, OverflowError):
                rows.append(f"{_fmt(t)},,{_fmt(inverted)},")
    except NoResolventError as exc:
        print(f"numerical failure: no resolvent ({exc})", file=sys.stderr)
        return 3
    except (EvaluationError, ValueError, OverflowError) as exc:
        print(f"inversion failure: {exc}", file=sys.stderr)
        return 3
    _write_text(args.out, "\n".join(rows) + "\n")
    return 0


def cmd_validate(args) -> int:
    only = args.only
    try:
        report = run_validation(only=only, sabotage=bool(args.sabotage))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _write_text(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    if not report["all_pass"]:
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        print(f"validation failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _add_common(sub: argparse.ArgumentParser, *, model: bool = True) -> None:
    sub.add_argument("--config", help="JSON config file (flags override it)")
    if model:
        sub.add_argument("--model", help="kernel model as JSON")
        sub.add_argument("--grid", help="start:stop:points[:linear|log]")
    sub.add_argument("--out", help="output path (stdout if omitted)")
    sub.add_argument("--tol", type=float, help="series relative tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracrelax",
        description="Hereditary relaxation kernels, spectra and dispersion fits.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="evaluate a kernel quantity over a time grid")
    _add_common(p_eval)
    p_eval.add_argument("--quantity", choices=QUANTITIES, help="what to evaluate")
    p_eval.add_argument("--method", help="auto (default), series or quadrature")
    p_eval.set_defaults(fn=cmd_eval)

    p_spec = subs.add_parser("spectrum", help="relaxation-time spectrum over a tau grid")
    _add_common(p_spec)
    p_spec.set_defaults(fn=cmd_spectrum)

    p_fit = subs.add_parser("fit", help="fit HN parameters to omega,re,im CSV data")
    _add_common(p_fit, model=False)
    p_fit.add_argument("--in", dest="in_path", help="input CSV (header omega,re,im)")
    p_fit.set_defaults(fn=cmd_fit)

    p_inv = subs.add_parser("invert", help="numerically invert the model's transform")
    _add_common(p_inv)
    p_inv.add_argument("--quantity", choices=("kernel", "resolvent"))
    p_inv.add_argument("--method", help="deformed-contour (talbot) or bromwich-series-acceleration (euler)")
    p_inv.set_defaults(fn=cmd_invert)

    p_val = subs.add_parser("validate", help="run the invariant suite, report JSON")
    p_val.add_argument("--config", help="JSON config file")
    p_val.add_argument("--out", help="report path (stdout if omitted)")
    p_val.add_argument("--only", help="restrict to one module's checks")
    p_val.add_argument("--sabotage", action="store_true", help="flip a sign in the splitting condition (self-test)")
    p_val.set_defaults(fn=cmd_validate)

    return parser


def _configure_logging() -> None:
    level_name = os.environ.get(_LOG_ENV, "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(name)s %(levelname)s: %(message)s"
    )
    log.setLevel(level)


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args)
        if getattr(args, "model", None) is None and args.command in ("eval", "spectrum", "invert"):
            raise ConfigError(f"{args.command} requires --model")
        if getattr(args, "grid", None) is None and args.command in ("eval", "spectrum", "invert"):
            raise ConfigError(f"{args.command} requires --grid")
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
