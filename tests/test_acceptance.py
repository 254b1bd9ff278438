"""Acceptance gate: the eleven behavioural criteria, one test each.

Each test name carries its criterion number, so ``pytest -v`` emits one
pass/fail line per criterion; a PASS line is also printed for ``-s`` runs.
The counterexample fixtures under ``tests/fixtures`` are byte-compared
against live regeneration (see ``tests/fixtures/README.md``).
"""

import json
import time

import numpy as np
from numpy.testing import assert_allclose

from liquidballots import (
    Bundle,
    ElectionInstance,
    Notion,
    SolverConfig,
    best_response,
    bundle_response,
    check_contraction_violation,
    check_nonuniqueness,
    check_pseudomono_violation,
    export_qcqp,
    fixtures,
    grid_oracle,
    initial_point,
    is_feasible,
    random_feasible_point,
    random_wcc_instance,
    regret,
    search_violation,
    simple_iteration,
    solve,
    validate_instance,
)
from liquidballots.counterexamples import finding_to_doc

EPTI_TABLE = fixtures.crossed_thresholds(Notion.EP_TI)
EPT_TABLE = fixtures.crossed_thresholds(Notion.EP_T)


def passed(n, label):
    print(f"PASS criterion {n}: {label}")


def test_criterion_01_ep_worked_delegation():
    v_bundles = (
        Bundle(("c1", "c2"), 0.3, "u", Notion.EP),
        Bundle(("c3",), 0.7, "v", Notion.DIRECT),
    )
    u_bundles = tuple(
        Bundle((c,), b, "u", Notion.DIRECT)
        for c, b in zip(("c1", "c2", "c3"), (0.2, 0.4, 0.4))
    )
    inst = ElectionInstance(("c1", "c2", "c3"), ("v", "u"), (v_bundles, u_bundles))
    x = initial_point(inst, "defaults")
    assert_allclose(bundle_response(x, inst, "v", 0), [0.1, 0.2], atol=1e-12)
    passed(1, "EP response to delegate slice [0.2, 0.4] at budget 0.3 is [0.1, 0.2]")


def test_criterion_02_ep_fixed_point():
    started = time.perf_counter()
    report = solve(fixtures.example_ep(), SolverConfig(tolerance=1e-6))
    elapsed = time.perf_counter() - started
    assert report.status == "converged"
    assert report.iterations <= 10000
    assert report.residual_linf <= 1e-6
    assert_allclose(report.solution[0], [1.0, 0.0, 0.0], atol=1e-6)
    assert elapsed < 1.0
    passed(2, "tiny EP instance solves to v = [1, 0, 0]")


def test_criterion_03_ept_nonexistence():
    started = time.perf_counter()
    result = grid_oracle(EPT_TABLE, SolverConfig(tolerance=0.01, grid_resolution=0.01))
    assert result.points == 6765201
    assert result.hits == ()
    assert result.best_residual > 0.01
    assert 0.029 < result.best_residual < 0.031  # frozen: the grid minimum is 0.03
    assert result.best_residual == 0.03
    # the lexicographically smallest of the 6 points at the minimum, in a scan of 69 chunks
    best = np.array([[0.47000000000000003, 0.03, 0.28, 0.22], [0.01, 0.0, 0.5, 0.49]])
    assert result.best.tobytes() == best.tobytes()
    report = simple_iteration(
        EPT_TABLE,
        initial_point(EPT_TABLE),
        SolverConfig(tolerance=1e-3, max_iterations=2000),
    )
    assert report.status == "max-iterations"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    passed(3, "hard thresholds rule out every grid point at resolution 0.01")


def test_criterion_04_epti_solution_verification():
    x = np.array(
        [
            [0.5, 0.0, 0.423, 0.077],
            [0.39154, 0.0, 0.5, 0.10846],
        ]
    )
    assert is_feasible(EPTI_TABLE, x, tol=1e-9)
    report = regret(x, EPTI_TABLE)
    assert report.per_voter.max() <= 1e-3

    # unnormalized blend vector of v's second bundle before rescaling
    bundle = EPTI_TABLE.bundles_of("v")[1]
    y = x[1, 2:4]
    z = y + (bundle.threshold - y.sum()) * np.array(bundle.default)
    assert_allclose(z, [0.59577, 0.10846], atol=1e-4)

    solved = solve(EPTI_TABLE, SolverConfig(tolerance=1e-3))
    assert solved.status == "converged"
    assert solved.residual_linf <= 1e-3
    passed(4, "published crossed-thresholds solution verifies at regret 1e-3")


def test_criterion_05_epti_sensitivity():
    for support, expected in ((0.01, (1.0, 0.0, 0.0)), (0.005, (0.5, 0.5, 0.0))):
        inst = fixtures.high_confidence(Notion.EP_TI, support)
        report = solve(inst, SolverConfig(tolerance=1e-9), strategy="iterate")
        assert report.status == "converged"
        assert_allclose(report.solution[0], expected, atol=1e-6)
    passed(5, "interpolated thresholds flip from [1, 0, 0] to [0.5, 0.5, 0]")


def test_criterion_06_wcc_walkthrough():
    expectations = {
        0.015: (0.6, 0.4, 0.0),
        0.01: (0.5, 0.5, 0.0),
        0.005: (1.0 / 3.0, 2.0 / 3.0, 0.0),
    }
    for support, expected in expectations.items():
        inst = fixtures.high_confidence(Notion.WCC, support)
        report = solve(inst, SolverConfig(tolerance=1e-12), strategy="iterate")
        assert report.status == "converged"
        assert_allclose(report.solution[0], expected, atol=1e-6)
    passed(6, "combined rescaling resolves the three delegate supports")


def remap_notion(instance, notion):
    """The same election with every delegated bundle under ``notion``."""
    rows = []
    for bundles in instance.delegations:
        row = []
        for b in bundles:
            if b.notion is Notion.DIRECT:
                row.append(b)
            elif notion is Notion.EP:
                row.append(Bundle(b.members, b.budget, b.delegate, Notion.EP))
            else:
                row.append(
                    Bundle(b.members, b.budget, b.delegate, notion, b.weight, b.default)
                )
        rows.append(tuple(row))
    return ElectionInstance(instance.candidates, instance.voters, tuple(rows))


def test_criterion_07_feasibility_preservation():
    rng = np.random.default_rng(2024)
    per_notion = 250
    for notion in (Notion.EP, Notion.EP_T, Notion.EP_TI, Notion.WCC):
        for _ in range(per_notion):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 6))
            inst = remap_notion(random_wcc_instance(rng, n, m), notion)
            assert validate_instance(inst).ok
            x = random_feasible_point(rng, inst)
            fx = best_response(x, inst)
            assert is_feasible(inst, fx, tol=1e-9)
    passed(7, "best response keeps 1000 random instances feasible per notion")


def test_criterion_08_epti_boundary_continuity():
    from test_grouped_plan import epti_record

    from liquidballots.response import _affine, _kernel

    rng = np.random.default_rng(8)
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        budget = float(rng.uniform(0.1, 1.0))
        threshold = float(rng.uniform(0.05, 0.95))
        y = rng.dirichlet(np.ones(k))[None] * threshold
        default = rng.dirichlet(np.ones(k)) * budget
        at_boundary = float(y.sum())  # delegate support exactly at threshold
        # one EP-TI bundle at the threshold (proportional branch) and one
        # ulp above it (interpolated branch)
        at, above = (epti_record(budget, t, default) for t in (at_boundary, np.nextafter(at_boundary, np.inf)))
        assert not _affine(at, y.copy())[1] and _affine(above, y.copy())[1]
        prop = _kernel(at, y)
        interp = _kernel(above, y)
        assert np.abs(prop - interp).max() <= 1e-12
    passed(8, "proportional and blended branches agree at the threshold")


def test_criterion_09_oracle_equivalence():
    rng = np.random.default_rng(99)
    cfg = SolverConfig(tolerance=0.01, grid_resolution=0.01)
    checked = 0
    while checked < 50:
        inst = random_wcc_instance(rng, 2, 3)
        if inst.free_dimensions > 4:
            continue
        fixed = simple_iteration(
            inst, initial_point(inst), SolverConfig(tolerance=1e-10, max_iterations=5000)
        )
        assert fixed.status == "converged"
        result = grid_oracle(inst, cfg)
        # symmetric instances tie several grid points at the minimum
        # residual; any of them is a minimizer, so measure the closest.
        # The bound is inclusive, with slack for the float representation
        # of grid coordinates (0.35 - 0.33 overshoots 0.02 by 2e-17).
        minimizers = [
            hit
            for hit, residual in result.hits
            if residual <= result.best_residual + 1e-12
        ] or [result.best]
        distance = min(np.abs(m - fixed.solution).max() for m in minimizers)
        assert distance <= 0.02 + 1e-12
        checked += 1
    passed(9, "grid minimizers track iteration fixed points on 50 tiny instances")


FIXTURE_RECIPES = {
    "contraction-violation": dict(
        n=10, m=5, weight=10.0, default_mode="even-split", seed=0, budget=200
    ),
    "pseudo-mono-violation": dict(
        n=4, m=5, weight=10.0, default_mode="even-split", seed=0, budget=200
    ),
    "non-uniqueness": dict(
        n=10, m=5, weight=10.0, default_mode="random", seed=1, budget=200
    ),
}


def test_criterion_10_counterexample_fixtures(fixture_path):
    regenerated = {}
    for kind, recipe in FIXTURE_RECIPES.items():
        committed = json.loads((fixture_path / f"{kind}.json").read_text())
        finding = search_violation(kind, **recipe)
        assert finding is not None
        assert finding_to_doc(finding) == committed
        regenerated[kind] = finding

    finding = regenerated["contraction-violation"]
    violated, lhs, rhs = check_contraction_violation(
        finding.instance, finding.witnesses["x"]
    )
    assert violated and lhs - rhs >= 1e-6
    assert (finding.instance.n, finding.instance.m) == (10, 5)

    finding = regenerated["pseudo-mono-violation"]
    value = check_pseudomono_violation(
        finding.instance, finding.witnesses["x"], finding.witnesses["y"]
    )
    assert value <= -1e-6

    finding = regenerated["non-uniqueness"]
    ok, distance = check_nonuniqueness(
        finding.instance,
        finding.witnesses["x1"],
        finding.witnesses["x2"],
        residual_tol=1e-6,
        separation=0.1,
    )
    assert ok and distance > 0.1
    assert (finding.instance.n, finding.instance.m) == (10, 5)

    # the larger published separations are not claimed; the search still
    # runs at that scale and finds witnesses for the remaining kind
    at_scale = search_violation(
        "pseudo-mono-violation", n=10, m=5, weight=10.0,
        default_mode="even-split", seed=0, budget=200,
    )
    assert at_scale is not None
    assert at_scale.certificate["value"] <= -1e-6
    passed(10, "committed findings regenerate byte-identically and certify")


def test_criterion_11_qcqp_export_consistency():
    instances = [
        fixtures.example_ep(),
        EPTI_TABLE,
        fixtures.high_confidence(Notion.EP_TI, 0.01),
        fixtures.high_confidence(Notion.EP_TI, 0.005),
        fixtures.high_confidence(Notion.WCC, 0.015),
        fixtures.high_confidence(Notion.WCC, 0.01),
        fixtures.high_confidence(Notion.WCC, 0.005),
    ]
    for inst in instances:
        report = solve(inst, SolverConfig(tolerance=1e-12, max_iterations=2000), strategy="iterate")
        assert report.status == "converged"
        export = export_qcqp(inst)
        assert export.satisfied_by(report.solution, tol=1e-6)
    passed(11, "every converged solution satisfies its exported constraints")
