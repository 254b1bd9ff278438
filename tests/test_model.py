"""Instance structure, validation, feasibility and projection."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from liquidballots import (
    Bundle,
    ElectionInstance,
    InvalidInstanceError,
    Notion,
    Violation,
    best_response,
    fixtures,
    initial_point,
    instance_from_doc,
    instance_to_doc,
    is_feasible,
    project_simplex,
    project_to_feasible,
    regret,
    validate_instance,
)

EP = fixtures.example_ep()
CROSSED = fixtures.crossed_thresholds(Notion.EP_TI)


def rules(report):
    return {v.rule for v in report.violations}


def test_notion_accepts_names():
    assert Notion("EP-TI") is Notion.EP_TI
    assert Notion(Notion.WCC) is Notion.WCC
    with pytest.raises(ValueError):
        Notion("EPTI")


def test_bundle_threshold_is_inverse_weight():
    b = Bundle(("c1", "c2"), 0.5, "u", Notion.EP_TI, weight=1.25, default=(0.5, 0.0))
    assert b.threshold == 0.8
    plain = Bundle(("c1",), 0.5, "v", Notion.DIRECT)
    assert plain.threshold is None


def test_instance_shape_and_indices():
    assert EP.n == 2 and EP.m == 3
    assert EP.candidate_index == {"c1": 0, "c2": 1, "c3": 2}
    assert EP.voter_index == {"v": 0, "u": 1}
    assert EP.bundles_of("u") == EP.delegations[1]
    assert EP.free_dimensions == 1
    assert CROSSED.free_dimensions == 4


def test_validate_clean_instances():
    assert validate_instance(EP).ok
    assert validate_instance(CROSSED).ok
    assert validate_instance(fixtures.crossed_thresholds(Notion.EP_T)).ok
    assert validate_instance(fixtures.high_confidence(Notion.WCC, 0.015)).ok


def test_validate_empty_voters():
    inst = ElectionInstance(("c1",), (), ())
    assert rules(validate_instance(inst)) == {"no-voters"}


@pytest.mark.parametrize("rows", [1, 3], ids=["too-few", "too-many"])
def test_one_delegation_row_per_voter(rows):
    """A ``delegations`` row count other than the voter count is reported,
    and every kernel refuses the instance instead of leaving a row unset
    or indexing past the matrix."""
    g_row = tuple(Bundle((c,), 0.5, "g", Notion.DIRECT) for c in ("a", "b"))
    v_row = (Bundle(("a", "b"), 1.0, "g", Notion.EP),)
    inst = ElectionInstance(("a", "b"), ("g", "v"), (g_row, v_row, v_row)[:rows])
    report = validate_instance(inst)
    assert report.violations == (
        Violation(None, None, "delegation-rows", f"{rows} delegation rows for 2 voters"),
    )
    x = np.full((2, 2), 0.5)
    for kernel in (
        lambda: is_feasible(inst, x),
        lambda: best_response(x, inst),
        lambda: project_to_feasible(inst, x),
        lambda: initial_point(inst),
    ):
        with pytest.raises(InvalidInstanceError) as caught:
            kernel()
        assert caught.value.report == report


def test_validate_zero_weight():
    bundles = (
        (
            Bundle(("c1", "c2"), 1.0, "u", Notion.WCC, weight=0.0, default=(0.5, 0.5)),
        ),
        (
            Bundle(("c1",), 0.4, "u", Notion.DIRECT),
            Bundle(("c2",), 0.6, "u", Notion.DIRECT),
        ),
    )
    report = validate_instance(ElectionInstance(("c1", "c2"), ("v", "u"), bundles))
    assert "weight-range" in rules(report)


def test_validate_partition_and_budget_rules():
    bundles = (
        (
            Bundle(("c1",), 0.7, "v", Notion.DIRECT),
            Bundle(("c1",), 0.7, "v", Notion.DIRECT),
        ),
    )
    report = validate_instance(ElectionInstance(("c1", "c2"), ("v",), bundles))
    assert {"bundles-overlap", "partition-incomplete", "budget-sum"} <= rules(report)


def test_validate_direct_and_self_delegation():
    bundles = (
        (
            Bundle(("c1", "c2"), 1.0, "v", Notion.EP),
        ),
    )
    report = validate_instance(ElectionInstance(("c1", "c2"), ("v",), bundles))
    assert "self-delegation" in rules(report)

    bundles = (
        (
            Bundle(("c1",), 1.0, "u", Notion.DIRECT),
            Bundle(("c2",), 0.0, "v", Notion.DIRECT),
        ),
        (
            Bundle(("c1",), 1.0, "u", Notion.DIRECT),
            Bundle(("c2",), 0.0, "u", Notion.DIRECT),
        ),
    )
    report = validate_instance(ElectionInstance(("c1", "c2"), ("v", "u"), bundles))
    assert "direct-bundle" in rules(report)


def test_validate_default_rules():
    bad_norm = Bundle(
        ("c1", "c2"), 0.5, "u", Notion.EP_TI, weight=2.0, default=(0.5, 0.5)
    )
    missing = Bundle(("c3", "c4"), 0.5, "u", Notion.EP_TI, weight=2.0)
    u_row = tuple(
        Bundle((c,), b, "u", Notion.DIRECT)
        for c, b in zip(("c1", "c2", "c3", "c4"), (0.25, 0.25, 0.25, 0.25))
    )
    inst = ElectionInstance(
        ("c1", "c2", "c3", "c4"), ("v", "u"), ((bad_norm, missing), u_row)
    )
    assert {"default-norm", "default-missing"} <= rules(validate_instance(inst))


def test_sum_verdicts_do_not_depend_on_order():
    """Six numbers that a left-to-right sum puts within 1e-9 of 1 in some
    orders only: correctly rounded, they total the double 1.000000001,
    1.0000000827e-9 above 1.  As the budgets of six DIRECT singletons,
    every order breaks the budget sum; as the default of a WCC bundle of
    budget 1, every order breaks the default norm.  Instances read back
    from their documents are checked column by column and must agree."""
    values = (
        0.24158292849034788, 0.13404884745412973, 0.08252457737342907,
        0.16295867399432906, 0.12906472261589194, 0.2498202510718723,
    )
    candidates = tuple(f"c{i}" for i in range(6))
    guru = tuple(Bundle((c,), 1 / 6, "u", Notion.DIRECT) for c in candidates)
    for order in itertools.permutations(range(6)):
        direct = tuple(Bundle((candidates[i],), values[i], "v", Notion.DIRECT) for i in order)
        combined = Bundle(
            tuple(candidates[i] for i in order), 1.0, "u", Notion.WCC, 10.0,
            tuple(values[i] for i in order),
        )
        for row, rule in ((direct, "budget-sum"), ((combined,), "default-norm")):
            inst = ElectionInstance(candidates, ("v", "u"), (row, guru))
            report = validate_instance(inst)
            assert [v.rule for v in report.violations] == [rule], order
            assert validate_instance(instance_from_doc(instance_to_doc(inst))) == report


def test_invalid_instance_error_carries_report():
    report = validate_instance(ElectionInstance(("c1",), (), ()))
    err = InvalidInstanceError(report)
    assert err.report is report
    assert "no-voters" in str(err)


def test_is_feasible_on_known_solution():
    x = np.array([[1.0, 0.0, 0.0], [0.001, 0.0, 0.999]])
    assert is_feasible(EP, x)


def test_is_feasible_rejects_moved_mass():
    # bundle sums break: v's {c1,c2} slice totals 0.923 instead of 0.5
    x = np.array(
        [
            [0.423, 0.5, 0.077, 0.0],
            [0.39154101, 0.0, 0.5, 0.10845899],
        ]
    )
    assert not is_feasible(CROSSED, x)


def test_is_feasible_rejects_negative_and_bad_rows():
    x = np.array([[1.2, -0.2, 0.0], [0.001, 0.0, 0.999]])
    assert not is_feasible(EP, x)
    x = np.array([[0.5, 0.5, 0.1], [0.001, 0.0, 0.999]])
    assert not is_feasible(EP, x)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
def test_is_feasible_refuses_a_tolerance_that_is_not_finite_and_non_negative(tol):
    # with tol=nan every comparison is False and any matrix would pass
    with pytest.raises(ValueError, match="tolerance"):
        is_feasible(CROSSED, np.full((2, 4), 5.0), tol=tol)


def test_project_simplex_known_values():
    assert_allclose(project_simplex(np.array([-0.1, 0.6]), 0.5), [0.0, 0.5])
    assert_allclose(project_simplex(np.array([0.4, 0.4]), 0.5), [0.25, 0.25])
    assert_allclose(project_simplex(np.array([2.0]), 0.3), [0.3])


@pytest.mark.parametrize(
    "values, total, message",
    [
        ([0.2, float("nan")], 1.0, "finite"),
        ([0.2, float("inf")], 1.0, "finite"),
        ([0.2, 0.3], float("nan"), "finite"),
        ([0.2, 0.3], float("inf"), "finite"),
        ([0.2, 0.3], float("-inf"), "finite"),
        ([], 1.0, "a non-empty 1-D"),
        ([[0.2, 0.3], [0.4, 0.1]], 1.0, "a non-empty 1-D"),
    ],
)
def test_project_simplex_refuses_what_it_cannot_project(values, total, message):
    with pytest.raises(ValueError, match=f"projection input must be {message}"):
        project_simplex(values, total)


def test_project_to_feasible_pins_direct_cells():
    y = np.ones((2, 3))
    x = project_to_feasible(EP, y)
    assert is_feasible(EP, x)
    assert_allclose(x[1], [0.001, 0.0, 0.999])
    assert x[0, 2] == 0.0


def test_project_to_feasible_fixes_feasible_points():
    x = np.array([[0.25, 0.75, 0.0], [0.001, 0.0, 0.999]])
    assert_allclose(project_to_feasible(EP, x), x, atol=1e-15)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=8, max_size=8))
def test_projection_feasible_and_idempotent(raw):
    y = np.array(raw).reshape(2, 4)
    x = project_to_feasible(CROSSED, y)
    assert is_feasible(CROSSED, x, tol=1e-12)
    assert_allclose(project_to_feasible(CROSSED, x), x, atol=1e-12)


def test_initial_point_defaults_and_even_split():
    x = initial_point(CROSSED, "defaults")
    assert_array_equal(x, [[0.5, 0.0, 0.5, 0.0], [0.0, 0.0, 0.5, 0.5]])
    x = initial_point(CROSSED, "even-split")
    assert_array_equal(x, np.full((2, 4), 0.25))
    with pytest.raises(ValueError):
        initial_point(CROSSED, "zeros")


def test_initial_point_without_defaults_splits_evenly():
    x = initial_point(EP, "defaults")
    assert_array_equal(x, [[0.5, 0.5, 0.0], [0.001, 0.0, 0.999]])


def test_regret_counts_moved_mass_both_ways():
    x = np.array([[0.0, 1.0, 0.0], [0.001, 0.0, 0.999]])
    report = regret(x, EP)
    assert_allclose(report.per_voter, [2.0, 0.0])
    assert report.total_l1 == pytest.approx(2.0)
    assert report.max_linf == pytest.approx(1.0)


def test_regret_zero_at_solution():
    x = np.array([[1.0, 0.0, 0.0], [0.001, 0.0, 0.999]])
    report = regret(x, EP)
    assert report.total_l1 == 0.0
    assert report.max_linf == 0.0
