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
  approximate fixed point, though not the matrices between them.

``solve`` dispatches between them.  Convergence always means the linf
residual is at most the configured tolerance; the l1 residual is tracked
alongside because distances between solutions are naturally l1.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    x = np.zeros((instance.n, instance.m))
    for g in instance._groups:
        if g.notion is Notion.DIRECT:
            x[g.voter, g.cols] = g.budget
        elif mode == "defaults":
            x[g.voter, g.cols] = g.default
        else:
            x[g.voter, g.cols] = g.budget / g.cols.shape[-1]
    return x


def simple_iteration(instance, x0, cfg=SolverConfig()) -> SolveReport:
    """Iterate ``x <- best_response(x)`` until the residual is small.

    Stops as soon as the linf residual reaches ``cfg.tolerance``
    (status ``"converged"``, the reported solution being the current
    iterate) or after ``cfg.max_iterations`` replacement steps (status
    ``"max-iterations"``, reporting the lowest-residual iterate seen).
    """
    x = np.array(x0, dtype=float)
    trajectory = []
    best = x
    best_l1 = best_linf = np.inf
    iterations = 0
    while True:
        fx = best_response(x, instance)
        l1, linf = residual_norms(x, instance, fx=fx)
        trajectory.append((l1, linf))
        if linf < best_linf:
            best, best_l1, best_linf = x, l1, linf
        if linf <= cfg.tolerance:
            return SolveReport(
                "converged", x, linf, l1, tuple(trajectory), iterations
            )
        if iterations >= cfg.max_iterations:
            return SolveReport(
                "max-iterations", best, best_linf, best_l1, tuple(trajectory), iterations
            )
        x = fx
        iterations += 1


def residual_descent(instance, x0, cfg=SolverConfig()) -> SolveReport:
    """Minimize the squared residual by projected gradient descent.

    Each iteration takes the exact bundle-local gradient of
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
    for cell in instance._plan:
        if cell.notion is Notion.EP_T:
            raise ValueError("discontinuous notion unsupported by descent (EP-T bundle present)")

    x = np.array(x0, dtype=float)
    trajectory = []
    fx = best_response(x, instance)
    l1, linf = residual_norms(x, instance, fx=fx)
    trajectory.append((l1, linf))
    best, best_l1, best_linf = x, l1, linf
    iterations = 0
    if linf <= cfg.tolerance:
        return SolveReport("converged", x, linf, l1, tuple(trajectory), iterations)

    loss = ((fx - x) ** 2).sum()
    while iterations < cfg.max_iterations:
        grad = _residual_gradient(x, instance, fx)
        step = _FIRST_STEP
        candidate = None
        while step > 1e-14:
            y = project_to_feasible(instance, x - step * grad)
            fy = best_response(y, instance)
            y_loss = ((fy - y) ** 2).sum()
            if y_loss < loss:
                candidate = (y, fy, y_loss)
                break
            step *= _BACKTRACK
        if candidate is None:  # step underflowed without progress
            break
        x, fx, loss = candidate
        iterations += 1
        l1, linf = residual_norms(x, instance, fx=fx)
        trajectory.append((l1, linf))
        if linf < best_linf:
            best, best_l1, best_linf = x, l1, linf
        if linf <= cfg.tolerance:
            return SolveReport("converged", x, linf, l1, tuple(trajectory), iterations)

    return SolveReport(
        "max-iterations", best, best_linf, best_l1, tuple(trajectory), iterations
    )


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


def _lex_smaller(a, b) -> bool:
    """True iff flattened ``a`` precedes flattened ``b`` lexicographically."""
    af, bf = a.ravel(), b.ravel()
    idx = np.nonzero(af != bf)[0]
    if len(idx) == 0:
        return False
    return af[idx[0]] < bf[idx[0]]


def grid_oracle(instance, cfg=SolverConfig(tolerance=0.01)) -> GridSearchResult:
    """Scan every feasible matrix on the rational grid.

    Each bundle slice of size k is enumerated as a composition of
    ``budget / resolution`` grid units into k cells, so slice sums match
    budgets exactly.  The scan is complete: a grid point is a hit iff its
    linf residual is at most ``cfg.tolerance``.

    Cost grows exponentially with the free dimensions, so instances with
    more than 8 of them (sum of bundle size minus one) are refused, as
    are resolutions finer than 0.01 and delegated bundles whose budget is
    not a whole number of grid units (within ``BUDGET_TOL``): no grid
    point would be feasible for them.
    """
    free = instance.free_dimensions
    if free > 8:
        raise ValueError(
            f"instance has {free} free dimensions, grid oracle supports at most 8"
        )
    if cfg.grid_resolution < 0.01 - 1e-12:
        raise ValueError("grid resolutions finer than 0.01 are not supported")

    res = cfg.grid_resolution
    for voter, bundles in zip(instance.voters, instance.delegations):
        for position, bundle in enumerate(bundles):
            units = bundle.budget / res
            if bundle.notion is not Notion.DIRECT and abs(units - round(units)) > BUDGET_TOL:
                raise ValueError(
                    f"voter {voter!r} bundle {position}: budget {bundle.budget!r} "
                    f"is not a multiple of the grid resolution {res!r}"
                )
    base = np.zeros((instance.n, instance.m))
    enumerated = []  # (cell, value table (count rows scaled by resolution))
    for cell in instance._plan:
        if cell.notion is Notion.DIRECT:
            base[cell.voter, cell.cols] = cell.budget
        else:
            units = int(round(cell.budget / res))
            values = _compositions(units, len(cell.cols)).astype(float) * res
            enumerated.append((cell, values))

    radices = [len(values) for _, values in enumerated]
    total = 1
    for r in radices:
        total *= r

    hits = []
    best = None
    best_residual = np.inf
    for start in range(0, total, _GRID_CHUNK):
        stop = min(start + _GRID_CHUNK, total)
        flat = np.arange(start, stop, dtype=np.int64)
        xs = np.broadcast_to(base, (stop - start,) + base.shape).copy()
        digits = flat
        for (cell, values), radix in zip(reversed(enumerated), reversed(radices)):
            digits, digit = np.divmod(digits, radix)
            xs[:, cell.voter, cell.cols] = values[digit]
        diff = best_response(xs, instance)
        diff -= xs
        residuals = np.abs(diff, out=diff).max(axis=(1, 2))

        for i in np.nonzero(residuals <= cfg.tolerance)[0]:
            hits.append((xs[i].copy(), float(residuals[i])))

        chunk_argmin = int(residuals.argmin())
        chunk_min = residuals[chunk_argmin]
        if chunk_min < best_residual:
            best_residual = float(chunk_min)
            best = xs[chunk_argmin].copy()
            ties = np.nonzero(residuals == chunk_min)[0]
        else:
            ties = np.nonzero(residuals == best_residual)[0]
        for i in ties:
            if _lex_smaller(xs[i], best):
                best = xs[i].copy()

    return GridSearchResult(tuple(hits), best, float(best_residual), total)


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
    if report.status == "converged":
        return report
    if any(cell.notion is Notion.EP_T for cell in instance._plan):
        return report
    follow = residual_descent(instance, report.solution, cfg)
    return SolveReport(
        follow.status,
        follow.solution,
        follow.residual_linf,
        follow.residual_l1,
        report.trajectory + follow.trajectory,
        report.iterations + follow.iterations,
    )
