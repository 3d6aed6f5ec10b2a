"""Span tracer installed from outside the package.

``Tracer.install()`` replaces selected fracrelax functions with wrappers in
every fracrelax namespace that bound them (``from .specfun import
sum_series`` copies the binding, so patching the defining module alone
would miss calls).  Each wrapper records a span (name, start, end, parent,
operation id) in memory; hot leaf functions only count calls.  ``sum_series``
counts the terms it pulls, ``quad`` the integrand evaluations, and the
inverse Laplace routines the image evaluations and their time.  The wrappers
return exactly what the wrapped function returns, so traced values are
bitwise equal to untraced ones.  ``uninstall()`` puts every original back.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

_MARK = "__perfbench_wrapper__"

# Functions that get spans, besides every function in a module's __all__.
EXTRA_SPANS = {
    "specfun": ("sum_series",),
    "quadrature": ("quad",),
    "cli": ("main", "build_parser", "_merge_config", "_parse_model", "_parse_grid",
            "_read_fit_csv", "_write_text"),
    "validation": ("run_validation",),  # the module has no __all__
}
# Hot leaf functions: call counts only.
COUNT_ONLY = {
    "specfun": ("gamma", "ln_gamma"),
    "spectra": ("hn_normalized_image", "hn_normalized", "rabotnov_image", "abel_image",
                "rzhanitsyn_image", "chgf_kernel_image", "compliance_image"),
    "resolvent": ("volterra_resolvent_transform",),
    "fitting": ("_residuals",),
    "vanin": ("normalizer",),
}
MODULES = ("specfun", "kernels", "quadrature", "laplace", "spectra", "resolvent",
           "evaluate", "fitting", "vanin", "suvorova", "validation", "cli")
# The span whose result carries a route label as its second element.
LABELLED = "evaluate.evaluate_model"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.labels: dict[int, str] = {}
        self.counts: Counter = Counter()
        self.image_s = 0.0
        self.op_id = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    # -- wrappers ----------------------------------------------------------
    def _span(self, fn, name: str):
        nid = self._nid(name)
        labelled = name == LABELLED

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if labelled:
                self.labels[idx] = result[1]
            return result

        return wrapper

    def _count(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _sum_series(self, fn, name: str):
        nid = self._nid(name)
        counts = self.counts

        def counted(terms):
            for term in terms:
                counts["specfun.sum_series.terms"] += 1
                yield term

        def wrapper(terms, *args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(counted(terms), *args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _quad(self, fn, name: str):
        nid = self._nid(name)
        counts = self.counts

        def wrapper(func, *args, **kwargs):
            def integrand(x, *extra):
                counts["quadrature.integrand_evals"] += 1
                return func(x, *extra)

            idx = self._open(nid)
            try:
                return fn(integrand, *args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _inversion(self, fn, name: str):
        nid = self._nid(name)
        counts = self.counts
        clock = time.perf_counter

        def wrapper(transform, *args, **kwargs):
            def image(s):
                counts["laplace.image_evals"] += 1
                t0 = clock()
                try:
                    return transform(s)
                finally:
                    self.image_s += clock() - t0

            idx = self._open(nid)
            try:
                return fn(image, *args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    # -- installation ------------------------------------------------------
    def _plan(self) -> dict[int, tuple[object, object]]:
        """id(original) -> (original, wrapper) for every traced function."""
        import importlib

        plan = {}
        for short in MODULES:
            mod = importlib.import_module(f"fracrelax.{short}")
            names = [n for n in getattr(mod, "__all__", ()) if callable(getattr(mod, n, None))
                     and not isinstance(getattr(mod, n), type)]
            names += [n for n in EXTRA_SPANS.get(short, ()) if hasattr(mod, n)]
            counted = set(n for n in COUNT_ONLY.get(short, ()) if hasattr(mod, n))
            for n in set(names) | counted:
                fn = getattr(mod, n)
                if id(fn) in plan or getattr(fn, _MARK, False):
                    continue
                qual = f"{short}.{n}"
                if n in counted:
                    wrapper = self._count(fn, qual + ".calls")
                elif qual == "specfun.sum_series":
                    wrapper = self._sum_series(fn, qual)
                elif qual == "quadrature.quad":
                    wrapper = self._quad(fn, qual)
                elif qual in ("laplace.talbot", "laplace.bromwich_euler"):
                    wrapper = self._inversion(fn, qual)
                else:
                    wrapper = self._span(fn, qual)
                setattr(wrapper, _MARK, True)
                plan[id(fn)] = (fn, wrapper)
        return plan

    def install(self) -> int:
        plan = self._plan()
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                entry = plan.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._installed.append((mod, attr, value))
        return len(self._installed)

    def uninstall(self) -> int:
        """Restore every original; returns how many wrappers are left."""
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()
        return sum(
            1
            for mod in _package_modules()
            for value in vars(mod).values()
            if getattr(value, _MARK, False)
        )

    # -- output ------------------------------------------------------------
    def save(self, path: str) -> None:
        labels = np.array([self.labels.get(i, "") for i in range(len(self.start))])
        np.savez(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            labels=labels,
            counts=np.array([f"{k}={v}" for k, v in sorted(self.counts.items())]),
            image_s=np.array(self.image_s),
        )


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "fracrelax" or name.startswith("fracrelax."))
    ]


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it its child spans cover."""
    n = len(start)
    children: dict[int, list[int]] = {}
    for i in range(n):
        if parent[i] >= 0:
            children.setdefault(int(parent[i]), []).append(i)
    out = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_lo = cur_hi = None
        for k in sorted(kids, key=lambda i: start[i]):
            s, e = max(start[k], lo), min(end[k], hi)
            if e <= s:
                continue
            if cur_hi is None or s > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = s, e
            else:
                cur_hi = max(cur_hi, e)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


def outer_time(names, start, end, parent, name_ids) -> float:
    """Inclusive time of spans named in ``name_ids`` that are not nested
    inside another span of the same set."""
    names, parent = np.asarray(names), np.asarray(parent)
    member = np.isin(names, list(name_ids))
    nested = np.zeros(len(names), dtype=bool)
    ancestor = parent.copy()
    live = ancestor >= 0
    while live.any():
        nested[live] |= member[ancestor[live]]
        ancestor[live] = parent[ancestor[live]]
        live = ancestor >= 0
    keep = member & ~nested
    return float(np.sum(np.asarray(end)[keep] - np.asarray(start)[keep]))
