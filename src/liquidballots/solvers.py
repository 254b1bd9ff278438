"""Fixed-point solvers for the best-response map.

Three ways to hunt for a point with small residual ``f(x) - x``:

* ``simple_iteration``: repeatedly replace the solution by its best
  response.  Cheap, but the map need not be a contraction, so it can
  cycle or drift.
* ``residual_descent``: treat the squared residual as a loss, follow its
  exact bundle-local gradient, and re-project onto the feasible set after
  every step.  Requires every notion to be continuous (no EP-T).
* ``grid_oracle``: exhaustively scan all feasible matrices whose bundle
  slices lie on a rational grid.  Exponential in the free dimensions but
  complete on the grid: it can rule out every grid point as a weak
  approximate fixed point, though not the matrices between them.  The
  scan factorises: each delegated slice's response is tabulated over its
  delegate scope (the delegate's slices that share a column with it),
  and a grid point's residual is the max over slices of the distance
  from the tabulated response to the slice's own cells.  The cost is the
  sum of the table sizes plus about one broadcast pass per slice over
  the grid, not one map evaluation per grid point.

The first two are step rules of one loop, ``_track``, which records the
``(l1, linf)`` residual of every iterate and the best iterate so far.  It
stops as ``"converged"`` at the first linf residual within the configured
tolerance, and as ``"max-iterations"`` (reporting the best iterate) after
``max_iterations`` steps or when the step rule gives up.  ``solve``
dispatches between the solvers; the l1 residual is tracked alongside
because distances between solutions are naturally l1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .model import (
    BUDGET_TOL,
    Notion,
    is_feasible,
    project_to_feasible,
)
from .response import _residual_gradient, best_response, residual_norms

#: First trial step of each descent line search, and the factor that
#: backtracking multiplies it by.
_FIRST_STEP = 0.5
_BACKTRACK = 0.5

#: Matrices evaluated per vectorized chunk of the grid scan.
_GRID_CHUNK = 100_000


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver knobs.

    ``tolerance`` is the linf residual below which a point counts as a
    (weak approximate) fixed point.  ``grid_resolution`` must divide 1
    exactly as a rational step, e.g. 0.01 or 0.05.
    """

    tolerance: float = 1e-6
    max_iterations: int = 10000
    grid_resolution: float = 0.01

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if not 0 < self.grid_resolution <= 1:
            raise ValueError("grid_resolution must lie in (0, 1]")
        step = Fraction(repr(self.grid_resolution))
        if step == 0 or (1 / step).denominator != 1:
            raise ValueError(
                f"grid_resolution {self.grid_resolution!r} does not divide 1 exactly"
            )


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of a solver run.

    ``solution`` is the best point found; when ``status`` is
    ``"converged"`` its linf residual is at most the configured
    tolerance.  ``trajectory`` records ``(l1, linf)`` residuals for every
    iterate visited, starting with the initial point.
    """

    status: str
    solution: np.ndarray
    residual_linf: float
    residual_l1: float
    trajectory: tuple[tuple[float, float], ...]
    iterations: int


def initial_point(instance, mode="defaults") -> np.ndarray:
    """A feasible starting matrix.

    ``"defaults"`` places each bundle's default vector (an even split
    where no default exists); ``"even-split"`` spreads every budget
    evenly over its bundle.  DIRECT bundles are always at their fixed
    value.
    """
    if mode not in ("defaults", "even-split"):
        raise ValueError(f"unknown initial point mode {mode!r}")
    plan = instance._plan
    x = np.zeros(instance.n * instance.m)
    x[plan.own] = plan.default if mode == "defaults" else plan.even
    return x.reshape(instance.n, instance.m)


def _track(instance, x, fx, cfg, step) -> SolveReport:
    """The loop of ``simple_iteration`` and ``residual_descent``.

    ``fx`` is ``best_response(x)``; ``step(x, fx)`` returns the next
    ``(x, fx)`` pair, or ``None`` when it can make no progress.  The stop
    rules and the report are those of the module docstring.
    """
    trajectory = []
    best, best_l1, best_linf = x, np.inf, np.inf
    iterations = 0
    while True:
        l1, linf = residual_norms(x, instance, fx=fx)
        trajectory.append((l1, linf))
        if linf < best_linf:
            best, best_l1, best_linf = x, l1, linf
        if linf <= cfg.tolerance:
            return SolveReport("converged", x, linf, l1, tuple(trajectory), iterations)
        following = None if iterations >= cfg.max_iterations else step(x, fx)
        if following is None:
            return SolveReport(
                "max-iterations", best, best_linf, best_l1, tuple(trajectory), iterations
            )
        x, fx = following
        iterations += 1


def simple_iteration(instance, x0, cfg=SolverConfig()) -> SolveReport:
    """Iterate ``x <- best_response(x)`` until the residual is small.

    Reports ``"converged"`` with the current iterate once its linf
    residual is at most ``cfg.tolerance``, else ``"max-iterations"`` with
    the lowest-residual iterate after ``cfg.max_iterations`` steps.
    """
    x = np.array(x0, dtype=float)
    return _track(
        instance, x, best_response(x, instance), cfg,
        lambda x, fx: (fx, best_response(fx, instance)),
    )


def residual_descent(instance, x0, cfg=SolverConfig()) -> SolveReport:
    """Minimize the squared residual by projected gradient descent.

    Each step takes the exact bundle-local gradient of
    ``||f(x) - x||_2^2`` (see ``_residual_gradient``), steps against it,
    and projects the result back onto the feasible set.  Backtracking
    halves the step until the loss decreases; if the step underflows
    before any decrease, the run stops early with status
    ``"max-iterations"``.  Each trial point costs one ``best_response``,
    and the accepted trial's response serves the residual norms, the
    loss and the next gradient.

    EP-T bundles are refused: the loss is discontinuous there and the
    gradient step would be meaningless.
    """
    if instance._plan.hard is not None:
        raise ValueError("discontinuous notion unsupported by descent (EP-T bundle present)")

    def line_search(x, fx):
        loss = ((fx - x) ** 2).sum()
        grad = _residual_gradient(x, instance, fx)
        step = _FIRST_STEP
        while step > 1e-14:
            y = project_to_feasible(instance, x - step * grad)
            fy = best_response(y, instance)
            if ((fy - y) ** 2).sum() < loss:
                return y, fy
            step *= _BACKTRACK
        return None  # the step underflowed without progress

    x = np.array(x0, dtype=float)
    return _track(instance, x, best_response(x, instance), cfg, line_search)


def _compositions(units, k) -> np.ndarray:
    """All length-``k`` tuples of non-negative ints summing to ``units``.

    Rows are emitted in lexicographically decreasing order of the first
    cell, a fixed order the whole grid scan inherits.
    """
    if k == 1:
        return np.array([[units]], dtype=np.int64)
    rows = []
    for first in range(units, -1, -1):
        rest = _compositions(units - first, k - 1)
        block = np.empty((len(rest), k), dtype=np.int64)
        block[:, 0] = first
        block[:, 1:] = rest
        rows.append(block)
    return np.concatenate(rows)


@dataclass(frozen=True, eq=False)
class GridSearchResult:
    """Outcome of an exhaustive grid scan.

    ``hits`` are all grid points whose linf residual is at most the
    tolerance, in scan order.  ``best`` is the global minimum-residual
    grid point (ties broken by lexicographic matrix order) whether or not
    it is a hit.
    """

    hits: tuple[tuple[np.ndarray, float], ...]
    best: np.ndarray
    best_residual: float
    points: int


def _matrices(base, slices, flat) -> np.ndarray:
    """The grid matrices at the mixed-radix indices ``flat``.

    ``slices`` holds ``(row, cols, values)`` triples, one digit each, the
    last varying fastest; every other cell keeps its value in ``base``.
    """
    digits = np.asarray(flat, dtype=np.int64)
    xs = np.broadcast_to(base, digits.shape + base.shape).copy()
    for row, cols, values in reversed(slices):
        digits, digit = np.divmod(digits, len(values))
        xs[:, row, cols] = values[digit]
    return xs


def _fold(cells, digits, folded, distances):
    """Write the max of ``|f - x|`` over ``cells`` at the leading ``digits`` to ``folded``.

    ``distances`` holds each later cell's; ``np.fmax`` skips NaN cells.
    """
    for i, cell in enumerate(cells):
        responses, values = (
            t[tuple(d if t.shape[a] > 1 else 0 for a, d in enumerate(digits))] for t in cell
        )
        diff = np.subtract(responses, values, out=distances if i else folded)
        np.abs(diff, out=diff)
        if i:
            np.fmax(folded, diff, out=folded)
    return folded


def _residuals(instance, base, enumerated, delegated):
    """Chunks ``(start, residuals)`` of the grid's linf residuals, in scan order.

    ``delegated`` holds each slice's ``(delegate row, bundle)``.  Slices
    with one delegate scope share one table of responses at the scope's
    grid points, evaluated in chunks of ``_GRID_CHUNK`` matrices; a
    one-matrix chunk is evaluated as a stack of two, because
    ``best_response`` sums a single matrix's slices pairwise but a
    stack's left to right.  Each cell's responses get one axis per grid
    digit, of length 1 outside the scope, and its own values one axis at
    its slice's digit.  A chunk fixes the leading digits and broadcasts
    over the trailing ones.  A slice's cells fold at the shape of its own
    and its scope's digits (once per scan if it reads no leading digit),
    in buffers that every slice and chunk reuse, then into the chunk with
    one ``np.fmax``.  The next chunk overwrites each yielded ``residuals``.
    """
    radices = [len(values) for *_, values in enumerated]
    scopes = {}  # delegate scope -> member slices
    for p, (delegate, _) in enumerate(delegated):
        cols = set(enumerated[p][1])
        scope = tuple(
            q for q, (row, other, _) in enumerate(enumerated)
            if row == delegate and not cols.isdisjoint(other)
        )
        scopes.setdefault(scope, []).append(p)
    lead = 0  # leading digits, fixed within a chunk
    while math.prod(radices[lead:]) > _GRID_CHUNK:
        lead += 1
    trail = tuple(radices[lead:])
    inner = math.prod(trail)
    outer = math.prod(radices[:lead])
    per_chunk = min(_GRID_CHUNK // inner, outer)
    scratch = np.empty(2 * per_chunk * inner)  # fold buffers of every slice and chunk
    fixed = np.zeros(())  # slices that read no leading digit, folded once
    chunked = []  # (cells, fold buffers) of the other slices
    for scope, members in scopes.items():
        slices = [enumerated[s] for s in scope]
        size = math.prod(radices[s] for s in scope)
        tables = {p: np.empty((size, len(enumerated[p][1]))) for p in members}
        for start in range(0, size, _GRID_CHUNK):
            xs = _matrices(base, slices, np.arange(start, min(start + _GRID_CHUNK, size)))
            fx = best_response(xs if len(xs) > 1 else np.concatenate((xs, xs)), instance)
            for p, table in tables.items():
                (row, cols, _), (delegate, bundle) = enumerated[p], delegated[p]
                response = fx[: len(xs), row, cols]
                if bundle.notion is Notion.EP:
                    # no delegate support: the slice keeps its own cells, so
                    # its residual is 0; NaN marks it for np.fmax to skip
                    supported = xs[:, delegate, cols].sum(axis=-1, keepdims=True) > 0.0
                    response = np.where(supported, response, np.nan)
                table[start : start + len(xs)] = response
        shape = [r if a in scope else 1 for a, r in enumerate(radices)]
        for p, table in tables.items():
            own = [r if a == p else 1 for a, r in enumerate(radices)]
            cells = list(zip(table.T.reshape([-1] + shape), enumerated[p][2].T.reshape([-1] + own)))
            reads = {a for a in scope + (p,) if radices[a] > 1}
            folded = tuple(radices[a] if a in reads else 1 for a in range(lead, len(radices)))
            if reads.isdisjoint(range(lead)):  # its leading axes have length 1
                buffers = scratch[: 2 * math.prod(folded)].reshape((2, 1) + folded)
                fixed = np.fmax(fixed, _fold(cells, (0,) * lead, *buffers))
            else:
                lanes = (2, per_chunk) + folded
                chunked.append((cells, scratch[: math.prod(lanes)].reshape(lanes)))
    buffer = np.empty((per_chunk,) + trail)  # reused by every chunk
    for first in range(0, outer, per_chunk):
        stop = min(first + per_chunk, outer)
        rest = np.arange(first, stop)
        digits = []
        for radix in reversed(radices[:lead]):
            rest, digit = np.divmod(rest, radix)
            digits.insert(0, digit)
        residuals = buffer[: stop - first]
        np.copyto(residuals, fixed)
        for cells, buffers in chunked:
            np.fmax(residuals, _fold(cells, digits, *buffers[:, : stop - first]), out=residuals)
        yield first * inner, residuals.reshape(-1)


def grid_oracle(instance, cfg=SolverConfig(tolerance=0.01)) -> GridSearchResult:
    """Scan every feasible matrix on the rational grid.

    Each bundle slice of size k is enumerated as a composition of
    ``budget / resolution`` grid units into k cells, so slice sums match
    budgets exactly.  The scan is complete on the grid: a grid point is a
    hit iff its linf residual is at most ``cfg.tolerance``.  It rules out
    grid points only, not the matrices between them.

    The scan factorises.  A slice's response depends only on its
    delegate's cells in its columns: fixed DIRECT cells and the
    delegate's enumerated slices that share a column with it (its
    delegate scope).  Slices with one delegate scope share one table of
    responses over that scope's grid points, and a grid point's residual
    is the max over slices of the distance from the tabulated response
    to the slice's own cells, folded over the slice's own digit and its
    scope's, then into the grid with one ``np.fmax``.  The cost is the
    tables' grid points plus about one pass per slice, not one map
    evaluation per grid point; one ``np.lexsort`` per chunk breaks ties.

    Cost still grows exponentially with the free dimensions, so
    instances with more than 8 of them (sum of bundle size minus one)
    are refused, as are resolutions finer than 0.01 and delegated
    bundles whose budget is not a whole number of grid units (within
    ``BUDGET_TOL``): no grid point would be feasible for them.
    """
    free = instance.free_dimensions
    if free > 8:
        raise ValueError(
            f"instance has {free} free dimensions, grid oracle supports at most 8"
        )
    if cfg.grid_resolution < 0.01 - 1e-12:
        raise ValueError("grid resolutions finer than 0.01 are not supported")

    res = cfg.grid_resolution
    enumerated = []  # (voter row, cols, value table), voter-then-bundle order
    delegated = []  # (delegate row, bundle) of each enumerated slice
    tables = {}  # (units, k) -> value table, shared by equal slices
    for row, (voter, bundles) in enumerate(zip(instance.voters, instance.delegations)):
        for position, bundle in enumerate(bundles):
            if bundle.notion is Notion.DIRECT:
                continue
            units = bundle.budget / res
            if abs(units - round(units)) > BUDGET_TOL:
                raise ValueError(
                    f"voter {voter!r} bundle {position}: budget {bundle.budget!r} "
                    f"is not a multiple of the grid resolution {res!r}"
                )
            cols = [instance.candidate_index[c] for c in bundle.members]
            if (key := (int(round(units)), len(cols))) not in tables:
                tables[key] = _compositions(*key).astype(float) * res
            enumerated.append((row, cols, tables[key]))
            delegated.append((instance.voter_index[bundle.delegate], bundle))
    base = initial_point(instance)  # DIRECT cells; the scan overwrites the rest

    hits = []
    best = None
    best_residual = np.inf
    for start, residuals in _residuals(instance, base, enumerated, delegated):
        found = np.nonzero(residuals <= cfg.tolerance)[0]
        hits.extend(zip(_matrices(base, enumerated, start + found), residuals[found].tolist()))

        chunk_min = residuals.min()
        if chunk_min > best_residual:
            continue
        ties = _matrices(base, enumerated, start + np.nonzero(residuals == chunk_min)[0])
        if chunk_min == best_residual:
            ties = np.concatenate((best[None], ties))
        best = ties[np.lexsort(ties.reshape(len(ties), -1).T[::-1])[0]].copy()
        best_residual = float(chunk_min)

    points = math.prod(len(values) for *_, values in enumerated)
    return GridSearchResult(tuple(hits), best, float(best_residual), points)


STRATEGIES = ("iterate", "descent", "iterate-then-descent", "grid")


def solve(instance, cfg=SolverConfig(), strategy="iterate-then-descent", start="defaults") -> SolveReport:
    """Front end dispatching to the individual solvers.

    ``iterate-then-descent`` runs simple iteration and, if it fails to
    converge and every notion is continuous, continues with residual
    descent from the best iterate.  ``grid`` wraps the grid oracle,
    reporting ``"oracle-exhausted-no-point"`` when the whole grid holds
    no point within tolerance.  Every reported solution is feasible; an
    infeasible one raises ``AssertionError``.
    """
    report = _dispatch(instance, cfg, strategy, start)
    if not is_feasible(instance, report.solution):
        raise AssertionError(f"strategy {strategy!r} reported an infeasible solution")
    return report


def _dispatch(instance, cfg, strategy, start) -> SolveReport:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")

    if strategy == "grid":
        result = grid_oracle(instance, cfg)
        l1, linf = residual_norms(result.best, instance)
        status = "converged" if linf <= cfg.tolerance else "oracle-exhausted-no-point"
        return SolveReport(status, result.best, linf, l1, (), result.points)

    x0 = initial_point(instance, start)
    if strategy == "iterate":
        return simple_iteration(instance, x0, cfg)
    if strategy == "descent":
        return residual_descent(instance, x0, cfg)

    report = simple_iteration(instance, x0, cfg)
    if report.status == "converged" or instance._plan.hard is not None:
        return report
    follow = residual_descent(instance, report.solution, cfg)
    return replace(
        follow,
        trajectory=report.trajectory + follow.trajectory,
        iterations=report.iterations + follow.iterations,
    )
