"""Fixed-point solvers: iteration, descent, grid scan, dispatching.

``reference_simple_iteration`` and ``reference_residual_descent`` are the
two solvers as they were written before they shared one loop, each with
its own residual bookkeeping; ``solve`` must match them bit for bit.
The descent reference projects bundle by bundle with
``test_grouped_plan.reference_project``, so the comparison pins the
projection's bits too.  ``reference_grid_oracle`` is the grid scan as it was before it
factorised, evaluating every grid point; ``grid_oracle`` must match it
bit for bit.
"""

import itertools
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from test_gradient import continuous
from test_grouped_plan import mixed_instance, reference_project

from liquidballots import (
    GridSearchResult,
    Notion,
    SolveReport,
    SolverConfig,
    best_response,
    fixtures,
    grid_oracle,
    initial_point,
    is_feasible,
    residual_descent,
    simple_iteration,
    solve,
    solvers,
)
from liquidballots.model import BUDGET_TOL, Bundle, ElectionInstance
from liquidballots.response import _residual_gradient, residual_norms

EPTI = fixtures.crossed_thresholds(Notion.EP_TI)
EPT = fixtures.crossed_thresholds(Notion.EP_T)

EPTI_SOLUTION = np.array(
    [
        [0.5, 0.0, 0.42299457, 0.07700543],
        [0.39154101, 0.0, 0.5, 0.10845899],
    ]
)


def test_config_validation():
    with pytest.raises(ValueError, match="tolerance"):
        SolverConfig(tolerance=0.0)
    with pytest.raises(ValueError, match="divide 1"):
        SolverConfig(grid_resolution=0.03)
    SolverConfig(grid_resolution=0.02)  # 50 steps, fine


def test_iteration_converges_on_tiny_ep():
    inst = fixtures.example_ep()
    rep = simple_iteration(inst, initial_point(inst, "defaults"))
    assert rep.status == "converged"
    assert rep.iterations == 1
    assert rep.trajectory == ((1.0, 0.5), (0.0, 0.0))
    assert_array_equal(rep.solution, [[1.0, 0.0, 0.0], [0.001, 0.0, 0.999]])


def test_iteration_zero_steps_when_started_at_fixed_point():
    inst = fixtures.example_ep()
    x = np.array([[1.0, 0.0, 0.0], [0.001, 0.0, 0.999]])
    rep = simple_iteration(inst, x)
    assert rep.status == "converged"
    assert rep.iterations == 0
    assert len(rep.trajectory) == 1


def test_iteration_cycles_on_hard_thresholds():
    rep = simple_iteration(
        EPT, initial_point(EPT, "defaults"), SolverConfig(tolerance=1e-3, max_iterations=200)
    )
    assert rep.status == "max-iterations"
    assert rep.iterations == 200
    assert rep.residual_linf == 0.25
    assert rep.residual_l1 == 0.5
    # the trajectory settles into a two-cycle
    assert set(rep.trajectory[-6:]) == {
        (0.5, 0.25),
        (0.6666666666666667, 0.33333333333333337),
    }


def test_iteration_solves_interpolated_thresholds_tightly():
    rep = simple_iteration(
        EPTI, initial_point(EPTI, "defaults"), SolverConfig(tolerance=1e-12, max_iterations=500)
    )
    assert rep.status == "converged"
    assert rep.iterations == 34
    assert rep.residual_linf <= 1e-12
    assert_allclose(rep.solution, EPTI_SOLUTION, atol=1e-8)


def test_descent_refuses_discontinuous_notions():
    with pytest.raises(ValueError, match="EP-T"):
        residual_descent(EPT, initial_point(EPT, "defaults"))


def test_descent_zero_steps_at_fixed_point():
    inst = fixtures.example_ep()
    x = np.array([[1.0, 0.0, 0.0], [0.001, 0.0, 0.999]])
    rep = residual_descent(inst, x)
    assert rep.status == "converged"
    assert rep.iterations == 0


def test_descent_from_corner_reaches_blended_point():
    inst = fixtures.high_confidence(Notion.WCC, 0.015)
    x0 = initial_point(inst, "defaults")
    x0[0] = [1.0, 0.0, 0.0]
    rep = residual_descent(inst, x0, SolverConfig(tolerance=1e-6, max_iterations=5000))
    assert rep.status == "converged"
    assert rep.residual_linf <= 1e-6
    assert_allclose(rep.solution[0], [0.6, 0.4, 0.0], atol=1e-5)


def test_descent_handles_interpolated_thresholds():
    rep = residual_descent(
        EPTI, initial_point(EPTI, "defaults"), SolverConfig(tolerance=1e-3, max_iterations=5000)
    )
    assert rep.status == "converged"
    assert rep.residual_linf <= 1e-3


def symmetric_ep_pair():
    """v and u delegate {c1, c2} to each other under EP."""
    def row(voter, other):
        return (
            Bundle(("c1", "c2"), 1.0, other, Notion.EP),
            Bundle(("c3",), 0.0, voter, Notion.DIRECT),
        )

    return ElectionInstance(
        ("c1", "c2", "c3"), ("v", "u"), (row("v", "u"), row("u", "v"))
    )


def test_grid_finds_all_fixed_points_in_scan_order():
    inst = symmetric_ep_pair()
    result = grid_oracle(inst, SolverConfig(tolerance=1e-9, grid_resolution=0.5))
    assert result.points == 9
    assert len(result.hits) == 3
    matrices = [hit[0] for hit in result.hits]
    assert_array_equal(matrices[0], [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert_array_equal(matrices[1], [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    assert_array_equal(matrices[2], [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    assert all(residual == 0.0 for _, residual in result.hits)
    # ties on the minimum residual resolve to the lexicographically
    # smallest flattened matrix
    assert result.best_residual == 0.0
    assert_array_equal(result.best, [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])


def test_grid_scan_is_complete_against_independent_enumeration():
    res = 0.05
    slices = []
    for vi, bundles in enumerate(EPT.delegations):
        for b in bundles:
            cols = [EPT.candidate_index[c] for c in b.members]
            units = round(b.budget / res)
            slices.append(
                (vi, cols, [np.array([a, units - a]) * res for a in range(units + 1)])
            )
    expected_hits = []
    expected_min = np.inf
    count = 0
    # reversed per-slice order: a genuinely different enumeration order
    for combo in itertools.product(*[values for _, _, values in slices]):
        x = np.zeros((2, 4))
        for (vi, cols, _), val in zip(slices, combo):
            x[vi, cols] = val
        r = float(np.abs(best_response(x, EPT) - x).max())
        count += 1
        if r <= 0.05:
            expected_hits.append((x.copy(), r))
        expected_min = min(expected_min, r)

    result = grid_oracle(EPT, SolverConfig(tolerance=0.05, grid_resolution=0.05))
    assert result.points == count == 14641
    assert result.best_residual == expected_min == 0.05
    assert len(result.hits) == len(expected_hits) == 1
    assert_array_equal(result.hits[0][0], expected_hits[0][0])
    assert_allclose(
        result.best, [[0.45, 0.05, 0.3, 0.2], [0.05, 0.0, 0.5, 0.45]], atol=1e-15
    )


def interleaved_groups():
    """Plan order WCC, EP (voter v) then EP, WCC (voter u): two groups interleave."""

    def wcc(members, delegate, default):
        return Bundle(members, 0.5, delegate, Notion.WCC, 2.0, default)

    def ep(members, delegate):
        return Bundle(members, 0.5, delegate, Notion.EP)

    return ElectionInstance(
        ("c1", "c2", "c3", "c4"),
        ("v", "u"),
        (
            (wcc(("c1", "c2"), "u", (0.5, 0.0)), ep(("c3", "c4"), "u")),
            (ep(("c1", "c2"), "v"), wcc(("c3", "c4"), "v", (0.0, 0.5))),
        ),
    )


def test_grid_scan_order_follows_the_plan_across_groups():
    inst = interleaved_groups()
    res, tol = 0.25, 0.25
    slices = [  # (voter, cols) in voter-then-bundle order
        (vi, [inst.candidate_index[c] for c in b.members])
        for vi, bundles in enumerate(inst.delegations)
        for b in bundles
    ]
    splits = [np.array([a, 2 - a]) * res for a in (2, 1, 0)]  # the scan's order
    expected = []
    for combo in itertools.product(splits, repeat=len(slices)):
        x = np.zeros((2, 4))
        for (vi, cols), values in zip(slices, combo):
            x[vi, cols] = values
        r = float(np.abs(best_response(x, inst) - x).max())
        if r <= tol:
            expected.append((x, r))

    result = grid_oracle(inst, SolverConfig(tolerance=tol, grid_resolution=res))
    assert result.points == 3 ** len(slices)
    assert 1 < len(expected) < result.points
    assert len(result.hits) == len(expected)
    for (got, got_r), (want, want_r) in zip(result.hits, expected):
        assert_array_equal(got, want)
        assert got_r == want_r


def test_grid_certifies_absence_at_tighter_tolerance():
    result = grid_oracle(EPT, SolverConfig(tolerance=0.01, grid_resolution=0.05))
    assert result.hits == ()
    assert result.best_residual == 0.05


def test_grid_refuses_large_or_fine_problems():
    wide = ElectionInstance(
        tuple(f"c{i}" for i in range(10)),
        ("v", "u"),
        (
            (
                Bundle(tuple(f"c{i}" for i in range(10)), 1.0, "u", Notion.EP),
            ),
            tuple(
                Bundle((f"c{i}",), 1.0 if i == 0 else 0.0, "u", Notion.DIRECT)
                for i in range(10)
            ),
        ),
    )
    with pytest.raises(ValueError, match="free dimensions"):
        grid_oracle(wide)
    with pytest.raises(ValueError, match="finer"):
        grid_oracle(EPT, SolverConfig(grid_resolution=0.005))


def test_solve_dispatch_and_unknown_strategy():
    with pytest.raises(ValueError, match="strategy"):
        solve(EPTI, strategy="newton")
    rep = solve(EPTI, SolverConfig(tolerance=1e-12, max_iterations=500), strategy="iterate")
    assert rep.status == "converged"
    assert_allclose(rep.solution, EPTI_SOLUTION, atol=1e-8)


def test_solve_grid_reports_oracle_exhaustion():
    rep = solve(
        EPT,
        SolverConfig(tolerance=0.01, grid_resolution=0.05),
        strategy="grid",
    )
    assert rep.status == "oracle-exhausted-no-point"
    assert rep.residual_linf == 0.05
    assert rep.iterations == 14641


def test_solve_chains_iteration_into_descent():
    cfg = SolverConfig(tolerance=1e-12, max_iterations=5)
    rep = solve(EPTI, cfg, strategy="iterate-then-descent")
    assert rep.status == "max-iterations"
    assert rep.iterations == 10  # five replacement steps, then five descent steps
    assert len(rep.trajectory) == 12

    # with EP-T present the descent leg is skipped entirely
    rep = solve(EPT, SolverConfig(tolerance=1e-3, max_iterations=5))
    assert rep.status == "max-iterations"
    assert rep.iterations == 5


def test_solve_runs_are_bit_reproducible():
    cfg = SolverConfig(tolerance=1e-12, max_iterations=500)
    a = solve(EPTI, cfg, strategy="iterate")
    b = solve(EPTI, cfg, strategy="iterate")
    assert a.status == b.status and a.iterations == b.iterations
    assert_array_equal(a.solution, b.solution)
    assert a.trajectory == b.trajectory


def off_grid_wcc():
    """v's WCC bundle has budget 0.333, which is not on a 0.01 grid."""
    v_row = (
        Bundle(("c1", "c2"), 0.333, "u", Notion.WCC, weight=10.0, default=(0.333, 0.0)),
        Bundle(("c3",), 0.667, "v", Notion.DIRECT),
    )
    u_row = tuple(
        Bundle((c,), b, "u", Notion.DIRECT) for c, b in zip(("c1", "c2", "c3"), (0.5, 0.5, 0.0))
    )
    return ElectionInstance(("c1", "c2", "c3"), ("v", "u"), (v_row, u_row))


def test_grid_refuses_budgets_off_the_grid():
    # scanned as slices summing to 0.33, the grid used to report an
    # infeasible "converged" point
    cfg = SolverConfig(tolerance=0.01, grid_resolution=0.01)
    with pytest.raises(ValueError, match="voter 'v' bundle 0: budget 0.333"):
        grid_oracle(off_grid_wcc(), cfg)
    with pytest.raises(ValueError, match="not a multiple of the grid resolution"):
        solve(off_grid_wcc(), cfg, strategy="grid")
    rep = solve(off_grid_wcc(), SolverConfig(tolerance=1e-9), strategy="iterate")
    assert rep.status == "converged"
    assert is_feasible(off_grid_wcc(), rep.solution)


def test_solve_refuses_to_report_an_infeasible_point(monkeypatch):
    def broken(instance, x0, cfg):
        return SolveReport("converged", np.zeros((instance.n, instance.m)), 0.0, 0.0, (), 0)

    monkeypatch.setattr(solvers, "simple_iteration", broken)
    with pytest.raises(AssertionError, match="infeasible"):
        solve(EPTI, strategy="iterate")


def reference_simple_iteration(instance, x0, cfg):
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
            return SolveReport("converged", x, linf, l1, tuple(trajectory), iterations)
        if iterations >= cfg.max_iterations:
            return SolveReport(
                "max-iterations", best, best_linf, best_l1, tuple(trajectory), iterations
            )
        x = fx
        iterations += 1


def reference_residual_descent(instance, x0, cfg):
    if instance._plan.hard is not None:
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
        step = 0.5
        candidate = None
        while step > 1e-14:
            y = reference_project(instance, x - step * grad)
            fy = best_response(y, instance)
            y_loss = ((fy - y) ** 2).sum()
            if y_loss < loss:
                candidate = (y, fy, y_loss)
                break
            step *= 0.5
        if candidate is None:
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


def reference_solve(instance, cfg, strategy):
    x0 = initial_point(instance)
    if strategy == "iterate":
        return reference_simple_iteration(instance, x0, cfg)
    if strategy == "descent":
        return reference_residual_descent(instance, x0, cfg)
    report = reference_simple_iteration(instance, x0, cfg)
    if report.status == "converged" or instance._plan.hard is not None:
        return report
    follow = reference_residual_descent(instance, report.solution, cfg)
    return SolveReport(
        follow.status,
        follow.solution,
        follow.residual_linf,
        follow.residual_l1,
        report.trajectory + follow.trajectory,
        report.iterations + follow.iterations,
    )


def reference_sample():
    """Mixed elections, continuous and with EP-T, plus the threshold fixtures."""
    rng = np.random.default_rng(8)
    mixed = [
        mixed_instance(rng, int(rng.integers(2, 7)), int(rng.integers(2, 6))) for _ in range(10)
    ]
    fixed = [EPTI, EPT, fixtures.high_confidence(Notion.WCC, 0.015)]
    return [continuous(instance) for instance in mixed] + mixed[:3] + fixed


def report_bits(report):
    return (
        report.status,
        report.solution.tobytes(),
        report.residual_linf,
        report.residual_l1,
        report.trajectory,
        report.iterations,
    )


@pytest.mark.parametrize("strategy", ["iterate", "descent", "iterate-then-descent"])
@pytest.mark.parametrize("max_iterations", [0, 3, 30])
def test_solve_matches_the_reference_loops(strategy, max_iterations):
    cfg = SolverConfig(tolerance=1e-6, max_iterations=max_iterations)
    for instance in reference_sample():
        try:
            want = reference_solve(instance, cfg, strategy)
        except ValueError:  # descent refuses EP-T
            with pytest.raises(ValueError, match="EP-T bundle present"):
                solve(instance, cfg, strategy=strategy)
            continue
        assert report_bits(solve(instance, cfg, strategy=strategy)) == report_bits(want)


def test_descent_stops_when_the_step_underflows(monkeypatch):
    # a zero gradient never lowers the loss: all 46 trials of the line
    # search (0.5 halved down to 1e-14) are rejected, and descent stops
    def zero(x, instance, fx):
        return np.zeros_like(x)

    calls = []

    def counted(x, instance):
        calls.append(x)
        return best_response(x, instance)

    monkeypatch.setattr(solvers, "_residual_gradient", zero)
    monkeypatch.setitem(globals(), "_residual_gradient", zero)
    monkeypatch.setattr(solvers, "best_response", counted)
    cfg = SolverConfig(max_iterations=5)
    x0 = initial_point(EPTI)
    rep = solvers.residual_descent(EPTI, x0, cfg)
    assert (rep.status, rep.iterations, len(rep.trajectory)) == ("max-iterations", 0, 1)
    assert len(calls) == 1 + 46
    assert report_bits(rep) == report_bits(reference_residual_descent(EPTI, x0, cfg))


#: Matrices per chunk of ``reference_grid_oracle``: every grid of the
#: differential tests fits in one stack, whatever ``solvers._GRID_CHUNK``.
REFERENCE_CHUNK = 100_000


def _lex_smaller(a, b) -> bool:
    """True iff flattened ``a`` precedes flattened ``b`` lexicographically."""
    af, bf = a.ravel(), b.ravel()
    idx = np.nonzero(af != bf)[0]
    if len(idx) == 0:
        return False
    return af[idx[0]] < bf[idx[0]]


def reference_grid_oracle(instance, cfg):
    """The grid scan before it factorised: every grid point is built and
    evaluated, in chunks of ``REFERENCE_CHUNK`` matrices."""
    free = instance.free_dimensions
    if free > 8:
        raise ValueError(
            f"instance has {free} free dimensions, grid oracle supports at most 8"
        )
    if cfg.grid_resolution < 0.01 - 1e-12:
        raise ValueError("grid resolutions finer than 0.01 are not supported")

    res = cfg.grid_resolution
    enumerated = []  # (voter row, cols, value table), voter-then-bundle order
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
            values = solvers._compositions(int(round(units)), len(cols)).astype(float) * res
            enumerated.append((row, cols, values))
    base = initial_point(instance)  # DIRECT cells; the scan overwrites the rest

    radices = [len(values) for *_, values in enumerated]
    total = 1
    for r in radices:
        total *= r

    hits = []
    best = None
    best_residual = np.inf
    for start in range(0, total, REFERENCE_CHUNK):
        stop = min(start + REFERENCE_CHUNK, total)
        flat = np.arange(start, stop, dtype=np.int64)
        xs = np.broadcast_to(base, (stop - start,) + base.shape).copy()
        digits = flat
        for (row, cols, values), radix in zip(reversed(enumerated), reversed(radices)):
            digits, digit = np.divmod(digits, radix)
            xs[:, row, cols] = values[digit]
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


def assert_same_scan(got, want):
    assert got.points == want.points
    assert len(got.hits) == len(want.hits)
    for (x, r), (y, s) in zip(got.hits, want.hits):
        assert x.tobytes() == y.tobytes()
        assert r == s
    assert got.best_residual == want.best_residual
    assert got.best.tobytes() == want.best.tobytes()


def fan_in(first, second):
    """v's two bundles both read u's three-member slice; u reads the guru g.

    u can put its whole budget on c3, which leaves v's first bundle with
    zero support.  At resolution 0.25 the support of either bundle of v
    lands exactly on 0.5, the threshold ``1 / weight`` of EP-T and EP-TI.
    """

    def bundle(members, budget, delegate, notion):
        if notion is Notion.EP:
            return Bundle(members, budget, delegate, notion)
        default = (budget,) + (0.0,) * (len(members) - 1)
        return Bundle(members, budget, delegate, notion, 2.0, default)

    def direct(voter, budgets):
        return tuple(
            Bundle((c,), b, voter, Notion.DIRECT) for c, b in zip(("c1", "c2", "c3", "c4"), budgets)
        )

    return ElectionInstance(
        ("c1", "c2", "c3", "c4"),
        ("v", "u", "g"),
        (
            (bundle(("c1", "c2"), 0.5, "u", first), bundle(("c3", "c4"), 0.5, "u", second)),
            (bundle(("c1", "c2", "c3"), 0.75, "g", Notion.EP_TI), Bundle(("c4",), 0.25, "u", Notion.DIRECT)),
            direct("g", (0.25, 0.0, 0.5, 0.25)),
        ),
    )


def zero_support(bundle=("c1", "c2")):
    """v delegates ``bundle`` ({c1, c2}) to u under EP, and u votes all of
    its budget on c3 directly: v's delegate never supports the bundle, so
    v keeps whatever split it holds and every grid point is a fixed point."""
    members = ("c1", "c2", "c3")
    return ElectionInstance(
        members,
        ("v", "u"),
        (
            (Bundle(bundle, 1.0, "u", Notion.EP), Bundle(members[2:], 0.0, "v", Notion.DIRECT)),
            tuple(Bundle((c,), b, "u", Notion.DIRECT) for c, b in zip(members, (0.0, 0.0, 1.0))),
        ),
    )


def two_pairs():
    """Voters v1, u1 delegate {c1, c2} to each other, v2, u2 {c3, c4}: each
    slice's delegate scope is the other slice of its pair."""

    def direct(voter, members, budgets):
        return tuple(Bundle((c,), b, voter, Notion.DIRECT) for c, b in zip(members, budgets))

    low, high = ("c1", "c2"), ("c3", "c4")
    return ElectionInstance(
        low + high,
        ("v1", "u1", "v2", "u2"),
        (
            (Bundle(low, 0.5, "u1", Notion.EP),) + direct("v1", high, (0.25, 0.25)),
            (Bundle(low, 0.5, "v1", Notion.EP_TI, 2.5, (0.0, 0.5)),) + direct("u1", high, (0.5, 0.0)),
            direct("v2", low, (0.5, 0.0)) + (Bundle(high, 0.5, "u2", Notion.EP_T, 1.25, (0.5, 0.0)),),
            direct("u2", low, (0.1, 0.4)) + (Bundle(high, 0.5, "v2", Notion.WCC, 2.0, (0.25, 0.25)),),
        ),
    )


def wide_bundle(k, pair=False):
    """v resolves one k-member WCC bundle against the guru g's direct votes.

    Sums of ``k >= 8`` members depend on their order: for k = 8 and 9 the
    residual of the last grid point at resolution 0.5 changes in its last
    bit when that matrix is evaluated alone.  With ``pair``, w adds a
    two-member EP slice of its own scope.
    """
    members = tuple(f"c{i}" for i in range(k))
    weights = np.arange(1.0, k + 1) ** 3
    guru = tuple(
        Bundle((c,), b, "g", Notion.DIRECT) for c, b in zip(members, weights / weights.sum())
    )
    default = (0.0,) * (k - 2) + (0.5, 0.5)
    rows = [(Bundle(members, 1.0, "g", Notion.WCC, 6.0, default),), guru]
    voters = ["v", "g"]
    if pair:
        rows.append(
            (Bundle(members[:2], 0.5, "g", Notion.EP), Bundle(members[2:3], 0.5, "w", Notion.DIRECT))
            + tuple(Bundle((c,), 0.0, "w", Notion.DIRECT) for c in members[3:])
        )
        voters.append("w")
    return ElectionInstance(members, tuple(voters), tuple(rows))


def one_member_slice():
    """v delegates {c1} and {c2, c3} to the guru g: the one-member slice
    has a single grid point and reads only DIRECT cells, so its cell is
    the same at every grid point."""
    members = ("c1", "c2", "c3")
    return ElectionInstance(
        members,
        ("v", "g"),
        (
            (Bundle(members[:1], 0.5, "g", Notion.EP), Bundle(members[1:], 0.5, "g", Notion.EP)),
            tuple(Bundle((c,), b, "g", Notion.DIRECT) for c, b in zip(members, (0.5, 0.25, 0.25))),
        ),
    )


def crossed_pair_and_triple():
    """v delegates {c1, c2} (EP-T) and {c3, c4} (EP-TI) to u, and u
    delegates {c1, c2, c3} (WCC) back to v.  At resolution 0.25 with 44
    matrices per chunk the scan fixes v's first digit: u's slice spans the
    chunk, v's first slice reads the leading digit but not v's second, and
    v's second reads no leading digit."""
    v = (
        Bundle(("c1", "c2"), 0.5, "u", Notion.EP_T, 2.0, (0.5, 0.0)),
        Bundle(("c3", "c4"), 0.5, "u", Notion.EP_TI, 2.0, (0.0, 0.5)),
    )
    u = (
        Bundle(("c1", "c2", "c3"), 0.75, "v", Notion.WCC, 2.0, (0.25, 0.25, 0.25)),
        Bundle(("c4",), 0.25, "u", Notion.DIRECT),
    )
    return ElectionInstance(("c1", "c2", "c3", "c4"), ("v", "u"), (v, u))


def symmetric_triples():
    """v and u delegate {c1, c2, c3} to each other under EP: a slice and
    its delegate scope together span the whole grid."""
    members = ("c1", "c2", "c3")
    return ElectionInstance(
        members,
        ("v", "u"),
        ((Bundle(members, 1.0, "u", Notion.EP),), (Bundle(members, 1.0, "v", Notion.EP),)),
    )


GRID_CASES = [
    pytest.param(EPT, 0.01, 0.05, id="crossed-ep-t-0.05"),
    pytest.param(EPT, 0.01, 0.02, id="crossed-ep-t-0.02"),
    pytest.param(EPTI, 0.01, 0.05, id="crossed-ep-ti-0.05"),
    pytest.param(EPTI, 0.01, 0.02, id="crossed-ep-ti-0.02"),
    pytest.param(symmetric_ep_pair(), 1e-9, 0.5, id="symmetric-ep-pair"),
    pytest.param(interleaved_groups(), 0.25, 0.25, id="interleaved-groups"),
    pytest.param(fan_in(Notion.EP, Notion.EP), 0.3, 0.25, id="ep-zero-support"),
    pytest.param(fan_in(Notion.EP_T, Notion.EP_TI), 0.3, 0.25, id="thresholds-met-exactly"),
    pytest.param(zero_support(), 1e-9, 0.25, id="ep-zero-support-alone"),
    pytest.param(two_pairs(), 0.05, 0.05, id="disjoint-scopes"),
    pytest.param(symmetric_triples(), 1e-9, 0.1, id="full-scope"),
    pytest.param(wide_bundle(9), 1.0, 0.5, id="nine-member-bundle"),
    pytest.param(wide_bundle(8, pair=True), 1.0, 0.5, id="eight-member-bundle-and-pair"),
]


@pytest.mark.parametrize("instance, tolerance, resolution", GRID_CASES)
def test_grid_scan_matches_the_reference(instance, tolerance, resolution):
    cfg = SolverConfig(tolerance=tolerance, grid_resolution=resolution)
    assert_same_scan(grid_oracle(instance, cfg), reference_grid_oracle(instance, cfg))


def test_grid_scan_matches_the_reference_on_mixed_elections():
    rng = np.random.default_rng(12)
    compared = refused = 0
    while compared < 40:
        instance = mixed_instance(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        if instance.free_dimensions > 5:
            continue
        cfg = SolverConfig(tolerance=0.05, grid_resolution=(0.25, 0.1)[compared % 2])
        try:
            want = reference_grid_oracle(instance, cfg)
        except ValueError as exc:  # a budget off the grid
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                grid_oracle(instance, cfg)
            refused += 1
            continue
        assert_same_scan(grid_oracle(instance, cfg), want)
        compared += 1
    assert refused


def counted_stacks(monkeypatch):
    """Record the stack length of every ``best_response`` call of the scan."""
    stacks = []

    def counted(xs, instance):
        stacks.append(len(xs))
        return best_response(xs, instance)

    monkeypatch.setattr(solvers, "best_response", counted)
    return stacks


def test_grid_scan_evaluates_only_the_response_tables(monkeypatch):
    stacks = counted_stacks(monkeypatch)
    result = grid_oracle(two_pairs(), SolverConfig(tolerance=0.05, grid_resolution=0.05))
    assert result.points == 11 ** 4
    assert stacks == [11] * 4  # each slice reads the other slice of its pair

    stacks.clear()
    grid_oracle(EPT, SolverConfig(tolerance=0.01, grid_resolution=0.02))
    assert stacks == [26 ** 2] * 2  # each voter's two slices read both of the other's

    stacks.clear()
    result = grid_oracle(symmetric_triples(), SolverConfig(tolerance=1e-9, grid_resolution=0.1))
    assert result.points == 66 ** 2
    assert stacks == [66, 66]  # one table per voter, not one map per grid point


@pytest.mark.parametrize("chunk", [2, 5, 44])
def test_grid_scan_does_not_depend_on_where_chunks_end(monkeypatch, chunk):
    # the wide bundles' tables hold one point each (their delegate votes
    # directly) and symmetric_ep_pair's three, so at chunk size 2 they
    # end in a chunk of one matrix; at chunk size 2 every digit of
    # one_member_slice's scan is a leading one.  Every chunk of
    # zero_support's scan ties at residual 0; with its bundle reversed the
    # scan runs in increasing lexicographic order, so the smallest tie is
    # the first point and every later chunk ties with it.  fan_in's EP
    # slices have NaN cells, and at chunk size 44 crossed_pair_and_triple's
    # three slices fold below the chunk shape, at it and once per scan.
    stacks = counted_stacks(monkeypatch)
    monkeypatch.setattr(solvers, "_GRID_CHUNK", chunk)
    for instance, resolution in (
        (wide_bundle(9), 0.5),
        (wide_bundle(8, pair=True), 0.5),
        (symmetric_ep_pair(), 0.5),
        (one_member_slice(), 0.25),
        (zero_support(), 0.25),
        (zero_support(("c2", "c1")), 0.25),
        (fan_in(Notion.EP, Notion.EP), 0.25),
        (crossed_pair_and_triple(), 0.25),
    ):
        cfg = SolverConfig(tolerance=1.0, grid_resolution=resolution)
        assert_same_scan(grid_oracle(instance, cfg), reference_grid_oracle(instance, cfg))
    assert min(stacks) >= 2


def test_full_scope_scan_peaks_no_higher_than_the_reference():
    instance = symmetric_triples()
    cfg = SolverConfig(tolerance=1e-9, grid_resolution=0.02)

    def traced(scan):
        tracemalloc.start()
        try:
            return scan(instance, cfg), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    got, peak = traced(grid_oracle)
    want, reference_peak = traced(reference_grid_oracle)
    assert got.points == 1326 ** 2 >= 10 ** 6
    assert_same_scan(got, want)
    assert peak <= 1.1 * reference_peak
