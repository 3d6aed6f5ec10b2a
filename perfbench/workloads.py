"""Seeded inputs for the three workloads.

Every input is drawn from the full admissible box: every family, alpha and
beta in [0.05, 1], tau log-uniform in [1e-3, 1e3].  Shapes are stratified
(see ``_shapes``) so that each seed covers the box the same way and the
run-to-run spread stays small; the position inside each stratum changes
with the seed.  Time grids are fixed in units of t/tau.

Values depend on t and tau only through t/tau up to a power of tau, so the
inputs are stored in t/tau units and each distinct pass over the pool
draws fresh tau values (see ``pass_taus`` and ``DISTINCT_PASSES``), while
the references computed once in t/tau units stay valid.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("series-grid", "transform-grid", "cli-batch")

FAMILIES = ("Abel", "Rabotnov", "RzhanitsynDavidson", "CHGF", "HavriliakNegami")
EVAL_COMBOS = (
    ("kernel", "Abel"),
    ("kernel", "Rabotnov"),
    ("kernel", "RzhanitsynDavidson"),
    ("kernel", "CHGF"),
    ("kernel", "HavriliakNegami"),
    ("resolvent", "Rabotnov"),
    ("resolvent", "RzhanitsynDavidson"),
    ("resolvent", "HavriliakNegami"),
    ("relaxation", "Abel"),
    ("relaxation", "Rabotnov"),
    ("relaxation", "RzhanitsynDavidson"),
    ("relaxation", "CHGF"),
    ("relaxation", "HavriliakNegami"),
)
# Series crossovers documented in the README: t/tau0 = 5 for the
# Havriliak-Negami series (also behind the Rzhanitsyn-Davidson resolvent and
# relaxation), t/tau = 10 otherwise.  Fixed here, not read from the package,
# so the inputs do not move when the package's routing changes.
HN_CROSSOVER = 5.0
EH_CROSSOVER = 10.0
THETA_MIN = 1e-3
THETA_MAX = 1e4
ALPHA_BOX = (0.05, 1.0)
LOG_TAU_BOX = (-3.0, 3.0)

SERIES_POINTS = 5
TRANSFORM_POINTS = 6
# Shapes per family x quantity: alpha strata for one-parameter families,
# a square jittered grid of (alpha, beta) cells for Havriliak-Negami.  The
# Havriliak-Negami resolvent, whose cost and failures vary most across the
# box, gets the finest grid, and fewer points per grid to pay for it: its
# cost and its failures sit mostly at the crossover, so more cells, not
# more points, steady error_frac and wrong_frac across seeds.
SERIES_STRATA = 16
SERIES_HN_CELLS = 25
SERIES_HN_RESOLVENT_CELLS = 100
SERIES_HN_RESOLVENT_POINTS = 3
SERIES_PAIRING_SEED = 1810  # fixes the (alpha, beta) pairing pattern of series-grid
TRANSFORM_STRATA = 40
TRANSFORM_HN_CELLS = 25
SPECTRUM_STRATA = 8
SPECTRUM_HN_CELLS = 9
# Passes with their own tau draws; the passes after them repeat these for
# timing.  The scored points are those of the distinct passes, the same in
# every run of a seed.
DISTINCT_PASSES = {"series-grid": 1, "transform-grid": 8, "cli-batch": 1}
CLI_POINTS = 50
# Shapes per CLI command and family, alpha stratified over the box.  invert
# gets the most: nearly every Bromwich-Euler value misses 1e-6 and makes up
# most of wrong_frac, so a rare failing invocation (small alpha and beta)
# must not remove a large share of them.
CLI_EVAL_DRAWS = 1
CLI_INVERT_DRAWS = 4
CLI_FIT_DRAWS = 2
INVERT_POINTS = 20


def crossover(kind: str, family: str) -> float:
    if family == "HavriliakNegami" or (
        family == "RzhanitsynDavidson" and kind != "kernel"
    ):
        return HN_CROSSOVER
    return EH_CROSSOVER


def log_grid(start: float, stop: float, n: int) -> list[float]:
    """start * ratio**i, the CLI's own log-grid rule, in t/tau units."""
    ratio = (stop / start) ** (1.0 / (n - 1))
    return [start * ratio**i for i in range(n)]


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed % 2**32])


def _lattice(rng, k: int, lo: float, hi: float) -> list[float]:
    """k values, one in each of k equal strata of [lo, hi], all at the same
    random offset inside their stratum (a randomly shifted lattice): any
    interval then holds the same number of values, give or take one,
    whatever the seed."""
    u = rng.uniform()
    return [lo + (hi - lo) * (i + u) / k for i in range(k)]


def _strata(rng, k: int) -> list[float]:
    return _lattice(rng, k, *ALPHA_BOX)


def _shapes(rng, family: str, k: int, pairing=None) -> list[tuple[float, float]]:
    """k (alpha, beta) pairs: alpha strata (beta = 1) for the one-parameter
    families; for Havriliak-Negami a multi-jittered sample when k = n*n, which
    puts one point in each cell of an n x n grid and, at the same time, one
    point in each of the k strata of alpha and of beta (Chiu, Shirley and
    Wang, Graphics Gems IV, 1994), shifted by one random offset per axis as
    in ``_lattice``.  Cost and failures vary most with alpha, so stratifying
    it k ways keeps the run-to-run spread small.  ``pairing`` (a generator)
    fixes which alpha stratum meets which beta stratum; by default the seed
    chooses it too."""
    if family != "HavriliakNegami":
        return [(a, 1.0) for a in _strata(rng, k)]
    n = math.isqrt(k)
    if n * n != k:  # no square grid: a Latin hypercube of shifted lattices
        betas = rng.permutation(_strata(rng, k))
        return [(a, float(b)) for a, b in zip(_strata(rng, k), betas)]
    lo, hi = ALPHA_BOX
    pairing = pairing or rng
    col_perm = [pairing.permutation(n) for _ in range(n)]
    row_perm = [pairing.permutation(n) for _ in range(n)]
    u, v = rng.uniform(size=2)  # one offset per axis, as in _lattice
    shapes = []
    for i in range(n):
        for j in range(n):
            x = (i * n + col_perm[i][j] + u) / k
            y = (j * n + row_perm[j][i] + v) / k
            shapes.append((lo + (hi - lo) * x, lo + (hi - lo) * y))
    return shapes


def _op(kind, family, alpha, beta, thetas, command=None, **extra) -> dict:
    op = {"kind": kind, "family": family, "alpha": alpha, "beta": beta,
          "thetas": thetas, "extra": extra}
    if command:
        op["command"] = command  # the CLI subcommand, cli-batch only
    return op


def series_grid(seed: int) -> list[dict]:
    """Every valid family x quantity from t/tau = 1e-3 up to its series
    crossover, plus p_kernel and p_nu_response grids."""
    rng = _rng("series-grid", seed)
    ops = []
    for kind, family in EVAL_COMBOS:
        n, k = SERIES_POINTS, SERIES_STRATA
        if (kind, family) == ("resolvent", "HavriliakNegami"):
            n, k = SERIES_HN_RESOLVENT_POINTS, SERIES_HN_RESOLVENT_CELLS
        elif family == "HavriliakNegami":
            k = SERIES_HN_CELLS
        thetas = log_grid(THETA_MIN, crossover(kind, family), n)
        # The Havriliak-Negami resolvent costs from 10 ms to seconds a grid,
        # steeply in both alpha and beta, and its cost distribution sets
        # op_ms_p90.  With a pairing drawn per seed, p90 moved by a third
        # between seeds; a fixed pairing keeps the cost distribution, while
        # the seed still shifts every alpha and beta within its stratum.
        pairing = np.random.default_rng(SERIES_PAIRING_SEED)
        for a, b in _shapes(rng, family, k, pairing):
            ops.append(_op(kind, family, a, b, thetas))
    thetas = log_grid(THETA_MIN, EH_CROSSOVER, SERIES_POINTS)
    # n_eps log-uniform in [0.1, 4], stratified and paired with alpha at random
    log_n = rng.permutation(_lattice(rng, SERIES_STRATA, -1.0, np.log10(4.0)))
    for a, ln in zip(_strata(rng, SERIES_STRATA), log_n):
        ops.append(_op("p_kernel", "", a, 1.0, thetas, n_eps=float(10**ln)))
    # |q| < 1 and |q| > 1 expansions, half each; |q| = 1 is a documented
    # branch degeneracy, kept out of reach.
    half = SERIES_STRATA // 2
    qs = rng.permutation(_lattice(rng, half, -0.8, 0.8) + _lattice(rng, half, 1.25, 4.0))
    for a, q in zip(_strata(rng, SERIES_STRATA), qs):
        variant = 3 if rng.uniform() < 0.5 else 4
        m = 1.0 / (1.0 + q) if variant == 3 else 1.0 + q
        ops.append(_op("p_nu", "", a, 1.0, thetas, m=float(m), variant=variant))
    return _shuffled(rng, ops)


def transform_grid(seed: int) -> list[dict]:
    """Every valid family x quantity from just past its crossover to
    t/tau = 1e4, plus spectrum densities over tau/tau_model in [1e-3, 1e3]."""
    rng = _rng("transform-grid", seed)
    ops = []
    for kind, family in EVAL_COMBOS:
        start = crossover(kind, family)
        thetas = log_grid(start, THETA_MAX, TRANSFORM_POINTS + 1)[1:]
        k = TRANSFORM_HN_CELLS if family == "HavriliakNegami" else TRANSFORM_STRATA
        for a, b in _shapes(rng, family, k):
            ops.append(_op(kind, family, a, b, thetas))
    ratios = log_grid(1e-3, 1e3, TRANSFORM_POINTS)
    for family in FAMILIES:
        k = SPECTRUM_HN_CELLS if family == "HavriliakNegami" else SPECTRUM_STRATA
        for a, b in _shapes(rng, family, k):
            ops.append(_op("spectrum", family, a, b, ratios))
    return _shuffled(rng, ops)


def cli_batch(seed: int) -> list[dict]:
    """One pass of short CLI invocations: every eval quantity once, invert
    (talbot and euler) four times and fit twice, with alpha (and beta)
    stratified over the box, one spectrum per family and one validate.  The
    Havriliak-Negami resolvent is left to series-grid: its small-shape
    series points cost up to a second each and would swamp the interpreter
    start-up this workload is meant to expose."""
    rng = _rng("cli-batch", seed)
    ops = []
    eval_thetas = log_grid(1e-2, 1e2, CLI_POINTS)
    for kind, family in EVAL_COMBOS:
        if (kind, family) != ("resolvent", "HavriliakNegami"):
            for a, b in _shapes(rng, family, CLI_EVAL_DRAWS):
                ops.append(_op(kind, family, a, b, eval_thetas, command="eval"))
    ratios = log_grid(1e-2, 1e2, CLI_POINTS)
    for family in FAMILIES:
        for a, b in _shapes(rng, family, 1):
            ops.append(_op("spectrum", family, a, b, ratios, command="spectrum"))
    invert_thetas = log_grid(0.1, HN_CROSSOVER, INVERT_POINTS)
    for method in ("talbot", "euler"):
        for family in ("Rabotnov", "HavriliakNegami"):
            for a, b in _shapes(rng, family, CLI_INVERT_DRAWS):
                ops.append(_op("kernel", family, a, b, invert_thetas, command="invert",
                               method=method))
    for a, b in _shapes(rng, "HavriliakNegami", CLI_FIT_DRAWS):
        delta_m = float(10 ** rng.uniform(-0.3, 1.0))
        ops.append(_op("fit", "HavriliakNegami", a, b, [], command="fit", delta_m=delta_m))
    ops.append(_op("validate", "", 1.0, 1.0, [], command="validate"))
    return _shuffled(rng, ops)


def _shuffled(rng, ops: list[dict]) -> list[dict]:
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


BUILDERS = {
    "series-grid": series_grid,
    "transform-grid": transform_grid,
    "cli-batch": cli_batch,
}


def build(workload: str, seed: int) -> list[dict]:
    return BUILDERS[workload](seed)


def pass_taus(seed: int, pass_index: int, n_ops: int) -> list[float]:
    """Fresh log-uniform tau for every op of one pass over the pool."""
    rng = np.random.default_rng([seed % 2**32, 1_000_003, pass_index])
    return [float(x) for x in 10.0 ** rng.uniform(*LOG_TAU_BOX, size=n_ops)]


def op_task(op: dict, theta: float) -> tuple:
    """The oracle task behind one point of an op, in t/tau units."""
    extra = {k: v for k, v in op["extra"].items() if k in ("n_eps", "m", "variant")}
    return (op["kind"], op["family"], op["alpha"], op["beta"], theta, extra)


def oracle_tasks(ops: list[dict]) -> list[tuple]:
    """Distinct reference tasks the ops need."""
    tasks = {}
    for op in ops:
        for theta in op["thetas"]:
            task = op_task(op, theta)
            tasks[task_key(task)] = task
    return list(tasks.values())


def task_key(task: tuple) -> str:
    kind, family, alpha, beta, theta, extra = task
    tail = ",".join(f"{k}={extra[k]!r}" for k in sorted(extra))
    return f"{kind}|{family}|{alpha!r}|{beta!r}|{theta!r}|{tail}"
