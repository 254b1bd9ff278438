"""Per-notion best-response operators and the assembled response map."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from liquidballots import (
    Bundle,
    ElectionInstance,
    Notion,
    best_response,
    bundle_response,
    fixtures,
    initial_point,
    is_feasible,
    project_to_feasible,
    residual_norms,
)
from liquidballots.response import _preimage, _respond

CROSSED = fixtures.crossed_thresholds(Notion.EP_TI)


def two_voter_ep(u_row):
    """v delegates {c1, c2} (budget 0.3) to u, votes c3 directly."""
    v_bundles = (
        Bundle(("c1", "c2"), 0.3, "u", Notion.EP),
        Bundle(("c3",), 0.7, "v", Notion.DIRECT),
    )
    u_bundles = tuple(
        Bundle((c,), b, "u", Notion.DIRECT)
        for c, b in zip(("c1", "c2", "c3"), u_row)
    )
    return ElectionInstance(("c1", "c2", "c3"), ("v", "u"), (v_bundles, u_bundles))


def test_ep_copies_delegate_ratios():
    inst = two_voter_ep((0.2, 0.4, 0.4))
    x = np.array([[0.0, 0.3, 0.7], [0.2, 0.4, 0.4]])
    assert_allclose(bundle_response(x, inst, "v", 0), [0.1, 0.2])


def test_ep_zero_support_keeps_current_slice():
    inst = two_voter_ep((0.0, 0.0, 1.0))
    x = np.array([[0.25, 0.05, 0.7], [0.0, 0.0, 1.0]])
    assert_array_equal(bundle_response(x, inst, "v", 0), [0.25, 0.05])


def test_ep_tiny_support_forces_corner():
    inst = fixtures.example_ep()
    x = initial_point(inst, "defaults")
    assert_allclose(bundle_response(x, inst, "v", 0), [1.0, 0.0])
    fx = best_response(x, inst)
    assert_allclose(fx[0], [1.0, 0.0, 0.0])
    assert_allclose(fx[1], [0.001, 0.0, 0.999])


@pytest.mark.parametrize(
    "support,expected",
    [(0.015, (1.0, 0.0)), (0.01, (1.0, 0.0)), (0.005, (0.0, 1.0))],
)
def test_ept_threshold_is_inclusive(support, expected):
    inst = fixtures.high_confidence(Notion.EP_T, support)
    x = initial_point(inst, "defaults")
    assert_allclose(bundle_response(x, inst, "v", 0), expected, atol=1e-15)


@pytest.mark.parametrize(
    "support,expected",
    [(0.015, (1.0, 0.0)), (0.01, (1.0, 0.0)), (0.005, (0.5, 0.5))],
)
def test_epti_interpolates_below_threshold(support, expected):
    inst = fixtures.high_confidence(Notion.EP_TI, support)
    x = initial_point(inst, "defaults")
    assert_allclose(bundle_response(x, inst, "v", 0), expected, atol=1e-15)


def test_epti_on_crossed_solution_slice():
    x = np.array(
        [
            [0.5, 0.0, 0.42299457, 0.07700543],
            [0.39154101, 0.0, 0.5, 0.10845899],
        ]
    )
    # u's {c3, c4} slice sums to 0.60846 < 0.8, so v's second bundle blends
    assert_allclose(bundle_response(x, CROSSED, "v", 1), [0.423, 0.077], atol=1e-3)
    fx = best_response(x, CROSSED)
    assert np.abs(fx - x).max() < 1e-7


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.floats(0.001, 1.0), min_size=2, max_size=5),
    st.floats(0.05, 1.0),
    st.floats(0.1, 1.0),
)
def test_epti_branches_agree_at_threshold(raw, budget, scale):
    y = np.array(raw) * scale
    nu = float(y.sum())
    default = np.full(len(y), budget / len(y))
    at, above = (
        SimpleNamespace(notion=Notion.EP_TI, budget=budget, threshold=t, default=default)
        for t in (nu, np.nextafter(nu, np.inf))
    )
    assert not _preimage(at, y)[2] and _preimage(above, y)[2]
    prop = _respond(at, y, y)
    interp = _respond(above, y, y)
    assert_allclose(prop, interp, atol=1e-12)


@pytest.mark.parametrize(
    "support,expected",
    [
        (0.015, (0.6, 0.4)),
        (0.01, (0.5, 0.5)),
        (0.005, (1.0 / 3.0, 2.0 / 3.0)),
    ],
)
def test_wcc_blends_default_and_delegate(support, expected):
    inst = fixtures.high_confidence(Notion.WCC, support)
    x = initial_point(inst, "defaults")
    assert_allclose(bundle_response(x, inst, "v", 0), expected)


def test_wcc_zero_delegate_slice_returns_default():
    inst = fixtures.high_confidence(Notion.WCC, 0.0)
    x = initial_point(inst, "defaults")
    assert_allclose(bundle_response(x, inst, "v", 0), [0.0, 1.0])


def test_bundle_lookup_by_object_and_index():
    inst = fixtures.high_confidence(Notion.WCC, 0.015)
    x = initial_point(inst, "defaults")
    by_object = bundle_response(x, inst, "v", inst.bundles_of("v")[0])
    assert_array_equal(by_object, bundle_response(x, inst, "v", 0))
    for position in (7, -1):
        with pytest.raises(IndexError):
            bundle_response(x, inst, "v", position)
    foreign = inst.bundles_of("u")[0]
    with pytest.raises(ValueError, match="not a bundle of voter 'v'"):
        bundle_response(x, inst, "v", foreign)


def test_best_response_rejects_wrong_shape():
    with pytest.raises(ValueError, match="shape"):
        best_response(np.zeros((3, 3)), CROSSED)


def test_best_response_stack_matches_loop():
    rng = np.random.default_rng(11)
    stack = np.stack(
        [
            project_to_feasible(CROSSED, rng.uniform(0, 1, size=(2, 4)))
            for _ in range(7)
        ]
    )
    batched = best_response(stack, CROSSED)
    for i in range(7):
        assert_array_equal(batched[i], best_response(stack[i], CROSSED))


def test_best_response_preserves_feasibility():
    rng = np.random.default_rng(5)
    for instance in (
        CROSSED,
        fixtures.example_ep(),
        fixtures.high_confidence(Notion.WCC, 0.015),
    ):
        for _ in range(50):
            y = rng.uniform(-1, 2, size=(instance.n, instance.m))
            x = project_to_feasible(instance, y)
            assert is_feasible(instance, best_response(x, instance), tol=1e-9)


def test_residual_linf_is_at_most_l1():
    x = initial_point(CROSSED, "even-split")
    l1, linf = residual_norms(x, CROSSED)
    assert linf <= l1


def test_residuals_vanish_at_fixed_point():
    x = np.array([[1.0, 0.0, 0.0], [0.001, 0.0, 0.999]])
    inst = fixtures.example_ep()
    assert residual_norms(x, inst) == (0.0, 0.0)
