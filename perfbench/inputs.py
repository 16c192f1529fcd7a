"""Seeded request generators for the three benchmark workloads.

Everything here is plain Python on top of `random.Random(seed)`, so the same
seed yields the same request stream on every machine.  Requests are tuples
of floats and strings; `build_*` turns one into poissonline objects.  The
package module is passed in rather than imported, so that the setup probe
can time that import itself.

point-queries
    An endless stream in blocks of ten: seven oscillator kernel points and
    three dirac/euler solves rotating through six (problem, datum) pairs.
    Kernel points: y log-uniform in [0.05, 5], a log-uniform in [0.05, 4],
    x and x' uniform within 3 widths 1/sqrt(a) of the origin.  The fixed
    block keeps the operation mix, and with it the latency tail, the same
    for every seed.
field-solve
    Cycles of four oscillator `solve_grid` requests (eigenfunction,
    gaussian, bump, sampled), each a 2 y-levels x 2 targets grid.  A cycle
    covers y in [0.05, 2], targets in [-1, 1] and a in [0.5, 2] on fixed
    bins whose centres the seed jitters (see FIELD_DESIGN).
verify-gate
    The fixed `verify --suite all` argument list; it ignores the seed.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import math
import random

# (problem, datum kind) pairs cycled through by the point-queries solves
POINT_SOLVES = (
    ("dirac", "exponential"), ("dirac", "gaussian"), ("dirac", "bump"),
    ("euler", "power"), ("euler", "gaussian"), ("euler", "bump"),
)
SAMPLED_NODES = 1001
SAMPLED_HALF_WIDTH = 5.0

GATE_SUITES = ("identities", "spectral", "residuals", "invariants")
# records per suite in `verify --suite all`; 138 in total
GATE_RECORDS = {"identities": 52, "spectral": 21, "residuals": 33,
                "invariants": 32}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# ---------------------------------------------------------------------------
# point-queries


def _point_solve(rng: random.Random, problem: str, kind: str) -> tuple:
    y = _log_uniform(rng, 0.05, 5.0)
    if problem == "dirac":
        if kind == "exponential":
            return ("dirac", kind, (_log_uniform(rng, 0.2, 3.0),), y,
                    rng.uniform(-2.0, 2.0))
        center, width = rng.uniform(-1.0, 1.0), rng.uniform(0.2, 1.5)
        # targets left of or inside the datum, where u is not negligible
        return ("dirac", kind, (center, width), y,
                center + width * rng.uniform(-3.0, 0.8))
    a = _log_uniform(rng, 0.25, 4.0)
    branch = rng.choice((-1.0, 1.0))
    if kind == "power":
        return ("euler", kind, (rng.uniform(0.2, 3.0),), y,
                branch * rng.uniform(0.3, 3.0), a)
    center, width = branch * rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.0)
    # the scaling kernel integrates over 0 < |xi'| < |xi|: put xi beyond
    # part of the datum on its branch
    target = center + branch * width * rng.uniform(-0.3, 3.0)
    return ("euler", kind, (center, width), y, target, a)


def point_stream(seed: int):
    """Endless point-queries request stream for `seed`."""
    rng = random.Random(f"point-queries:{seed}")
    i = solves = 0
    while True:
        if i % 10 < 7:
            a = _log_uniform(rng, 0.05, 4.0)
            w = 3.0 / math.sqrt(a)
            yield ("kernel", _log_uniform(rng, 0.05, 5.0),
                   rng.uniform(-w, w), rng.uniform(-w, w), a)
        else:
            problem, kind = POINT_SOLVES[solves % len(POINT_SOLVES)]
            solves += 1
            yield _point_solve(rng, problem, kind)
        i += 1


def make_datum(pl, kind: str, params: tuple):
    if kind == "sampled":
        grid, values = params
        return pl.InitialData.sampled(grid, values)
    return getattr(pl.InitialData, kind)(*params)


def build_point(pl, req: tuple):
    """Objects of one point-queries request, as (function, arguments)."""
    if req[0] == "kernel":
        _, y, x, xp, a = req
        return pl.oscillator_poisson_kernel, (pl.EvaluationPoint(y, x, xp),
                                              pl.OscillatorParam(a))
    if req[0] == "dirac":
        _, kind, params, y, target = req
        return pl.solve_dirac, (make_datum(pl, kind, params), y, target)
    _, kind, params, y, target, a = req
    return pl.solve_euler, (make_datum(pl, kind, params), y, target, a)


# ---------------------------------------------------------------------------
# field-solve


# Field-solve design: request j of a cycle is (kind, y-bins, target-bins,
# a-bin).  Its grid pairs a near-boundary y-level with a far one.  Each
# grid cell nests hundreds of kernel quadratures whose count doubles with
# every panel-ladder rung the cell needs, so freely drawn parameters make
# the cost of a 16-cell cycle vary by a factor of two between seeds.  The
# seed therefore only jitters the bin centres (by JITTER, relative), which
# keeps every cell on the same rung and the cycle cost steady.
FIELD_DESIGN = (
    ("eigenfunction", (0, 7), (0, 4), 2),
    ("gaussian", (1, 6), (1, 5), 0),
    ("bump", (2, 5), (2, 6), 3),
    ("sampled", (3, 4), (3, 7), 1),
)
JITTER = 0.01
# (center, width, amplitude) of the sampled profile's Gaussian features
SAMPLED_FEATURES = ((-0.6, 1.2, 0.8), (0.3, 1.0, -0.5), (0.9, 1.4, 0.6))


def _sampled_profile(jit) -> tuple:
    """Three Gaussian features sampled on a fine grid.

    Each feature is below 2% of its amplitude at the window edges, where
    the sampled preset drops to zero.
    """
    features = [(jit(c), jit(w), jit(amp)) for c, w, amp in SAMPLED_FEATURES]
    step = 2.0 * SAMPLED_HALF_WIDTH / (SAMPLED_NODES - 1)
    grid = tuple(-SAMPLED_HALF_WIDTH + k * step for k in range(SAMPLED_NODES))
    values = tuple(sum(amp * math.exp(-0.5 * ((x - c) / w) ** 2)
                       for c, w, amp in features) for x in grid)
    return grid, values


def field_cycle(rng: random.Random, index: int) -> list:
    """Four solve_grid requests covering y in [0.05, 2] (8 log-bins),
    targets in [-1, 1] (8 bins) and a in [0.5, 2] (4 log-bins):
    (kind, params, ys, xs, a)."""
    def jit(v):
        return v * (1.0 + JITTER * rng.uniform(-1.0, 1.0))

    def y_bin(k):
        return 0.05 * 40.0 ** ((k + 0.5) / 8)

    def a_bin(k):
        return 0.5 * 4.0 ** ((k + 0.5) / 4)

    cycle = []
    for kind, y_bins, x_bins, a_k in FIELD_DESIGN:
        ys = tuple(jit(y_bin(k)) for k in y_bins)
        xs = tuple(jit(-0.875 + 0.25 * k) for k in x_bins)
        if kind == "eigenfunction":
            params = ((2 + index) % 5,)  # n costs differ: not seeded
        elif kind == "gaussian":
            params = (jit(0.2), jit(0.8))
        elif kind == "bump":
            params = (jit(-0.2), jit(1.5))
        else:
            params = _sampled_profile(jit)
        cycle.append((kind, params, ys, xs, jit(a_bin(a_k))))
    return cycle


def field_stream(seed: int):
    """Endless field-solve request stream for `seed`, whole cycles at a time."""
    rng = random.Random(f"field-solve:{seed}")
    for index in itertools.count():
        yield from field_cycle(rng, index)


def build_field(pl, req: tuple):
    kind, params, ys, xs, a = req
    return pl.SolveRequest(problem="oscillator", data=make_datum(pl, kind, params),
                           y_levels=ys, spatial_points=xs, a=a)


# ---------------------------------------------------------------------------
# verify-gate


def gate_argv(suite: str = "all", prefactor_scale: float = 1.0) -> list:
    argv = ["verify", "--suite", suite]
    if prefactor_scale != 1.0:
        argv += ["--oscillator-prefactor-scale", repr(prefactor_scale)]
    return argv


# ---------------------------------------------------------------------------


def build_first(pl, workload: str, seed: int):
    """Objects of the workload's first request: what set-up time covers."""
    if workload == "point-queries":
        return build_point(pl, next(point_stream(seed)))
    if workload == "field-solve":
        return build_field(pl, next(field_stream(seed)))
    importlib.import_module(pl.__name__ + ".cli")
    return gate_argv()


def digest(workload: str, seed: int, gate: list) -> str:
    """sha256 prefix over the workload's first requests (1000, or a cycle)."""
    if workload == "point-queries":
        stream, count = point_stream(seed), 1000
    elif workload == "field-solve":
        stream, count = field_stream(seed), len(FIELD_DESIGN)
    else:
        stream, count = iter([gate]), 1
    h = hashlib.sha256()
    for _ in range(count):
        h.update(repr(next(stream)).encode())
    return h.hexdigest()[:16]
