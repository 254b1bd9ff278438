"""The exact residual gradient against finite differences.

``response._residual_gradient`` computes the gradient of
``||f(x) - x||_2^2`` bundle by bundle.  ``fd_gradient`` below is the
slow reference: second-order finite differences, which evaluate a
``(4 n m + 1, n, m)`` stack per call.

Where the map has a kink the exact gradient follows the branch that
``best_response`` takes, so the reference differences from that side:
from below at the delegate cells of an EP bundle whose delegate gives
it nothing (the voter's own slice is kept until the support rises above
zero), from above at an EP-TI bundle exactly at its threshold (the
proportional branch is inclusive).  Points within 1e-4 of a kink, but
not on it, are skipped: there the differences straddle it.

``reference_grouped_gradient`` is the gradient as it was computed one
(notion, size) group at a time, before the gradient read the plan; the
plan's gradient must match it bit for bit.
"""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from test_grouped_plan import (
    assert_same_bits,
    edge_instance,
    edge_matrices,
    mixed_instance,
    probe_matrices,
    reference_groups,
    reference_plan,
    reference_preimage,
)

from liquidballots import (
    Bundle,
    ElectionInstance,
    Notion,
    best_response,
    parse_instance,
    project_to_feasible,
    serialize_instance,
    solvers,
)
from liquidballots.response import _residual_gradient

#: Finite-difference step of the reference: fine enough that the truncation
#: error on steep EP slopes (budget / support) stays well inside rtol 1e-6.
FD_STEP = 1e-7
#: Points this close to a kink, but not on it, are skipped.
KINK_MARGIN = 1e-4


def fd_gradient(x, instance, side, h=FD_STEP):
    """Gradient of the squared residual by second-order differences.

    ``side`` is an ``(n, m)`` array: 0 for a central difference, -1 for a
    one-sided difference from below, +1 from above.
    """
    n, m = x.shape
    basis = np.eye(n * m).reshape(n * m, n, m) * h
    xs = np.concatenate([x[None] + s * basis for s in (1.0, -1.0, 2.0, -2.0)] + [x[None]])
    fxs = best_response(xs, instance)
    values = ((fxs - xs) ** 2).sum(axis=(-2, -1))
    up, down, up2, down2, here = (
        values[: n * m], values[n * m : 2 * n * m], values[2 * n * m : 3 * n * m],
        values[3 * n * m : 4 * n * m], values[-1],
    )
    central = (up - down) / (2.0 * h)
    above = (-3.0 * here + 4.0 * up - up2) / (2.0 * h)
    below = (3.0 * here - 4.0 * down + down2) / (2.0 * h)
    side = side.ravel()
    return np.where(side > 0, above, np.where(side < 0, below, central)).reshape(n, m)


def reference_grouped_gradient(x, instance, fx):
    """``response._residual_gradient`` as it was: one gather, pull-back and
    ``np.add.at`` per (notion, size) group, in plan order."""
    r = fx - x
    pulled = np.zeros_like(x)
    for g in reference_groups(instance):
        if g.notion is Notion.DIRECT:
            continue
        if g.notion is Notion.EP_T:
            raise AssertionError("no gradient for notion EP-T")
        u = r[g.voter, g.cols]
        z, s, below = reference_preimage(g, x[g.delegate, g.cols])
        safe = np.where(s != 0.0, s, 1.0)
        w = g.budget / safe * (u - (z * u).sum(axis=-1, keepdims=True) / safe)
        if g.notion is Notion.WCC:
            w *= g.weight
        elif g.notion is Notion.EP_TI:
            w -= np.where(below, (g.default * w).sum(axis=-1, keepdims=True), 0.0)
        np.add.at(pulled, (g.delegate, g.cols), w)
    return 2.0 * (pulled - r)


def continuous(instance):
    """``instance`` with every EP-T bundle turned into EP-TI."""
    rows = tuple(
        tuple(
            dataclasses.replace(b, notion=Notion.EP_TI) if b.notion is Notion.EP_T else b
            for b in bundles
        )
        for bundles in instance.delegations
    )
    return ElectionInstance(instance.candidates, instance.voters, rows)


def kinks(x, instance):
    """The branch cases at ``x`` and the side array for ``fd_gradient``.

    Returns ``(cases, side)``, or ``None`` when a delegate slice lies
    within ``KINK_MARGIN`` of a kink without being on it, or when one
    cell would need differences from both sides.
    """
    cases = set()
    side = np.zeros(x.shape, dtype=int)
    for cell in reference_plan(instance):
        nu = x[cell.delegate, cell.cols].sum()
        if cell.notion is Notion.DIRECT:
            cases.add("DIRECT")
            continue
        if cell.notion is Notion.WCC:
            cases.add("WCC")
            continue
        kink = 0.0 if cell.notion is Notion.EP else cell.threshold
        if nu != kink and abs(nu - kink) < KINK_MARGIN:
            return None
        if cell.notion is Notion.EP:
            cases.add("EP zero support" if nu == 0.0 else "EP")
            want = -1
        else:
            cases.add("EP-TI proportional" if nu >= kink else "EP-TI interpolated")
            want = +1
        if nu == kink:
            cells = side[cell.delegate, cell.cols]
            if np.any(cells == -want):
                return None
            side[cell.delegate, cell.cols] = want
    return cases, side


def test_gradient_matches_finite_differences():
    covered = set()
    compared = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        instance = continuous(mixed_instance(rng, int(rng.integers(2, 7)), int(rng.integers(1, 9))))
        probes = probe_matrices(rng, instance, 4)
        feasible = [project_to_feasible(instance, y) for y in probes[:2]]
        for x in [*probes, *feasible]:
            found = kinks(x, instance)
            if found is None:
                continue
            cases, side = found
            got = _residual_gradient(x, instance, best_response(x, instance))
            assert_allclose(got, fd_gradient(x, instance, side), rtol=1e-6, atol=1e-6)
            covered |= cases
            compared += 1
    assert compared >= 150
    assert covered == {
        "DIRECT", "WCC", "EP", "EP zero support", "EP-TI proportional", "EP-TI interpolated",
    }


def test_gradient_at_a_kink_is_one_sided():
    # v's EP-TI bundle sits exactly at its threshold 1/4; u's EP bundle
    # {b} gets nothing from v
    v = (
        Bundle(("a", "b"), 0.5, "u", Notion.EP_TI, 4.0, (0.25, 0.25)),
        Bundle(("c",), 0.5, "v", Notion.DIRECT),
    )
    u = (
        Bundle(("a",), 0.3, "u", Notion.DIRECT),
        Bundle(("b",), 0.2, "v", Notion.EP),
        Bundle(("c",), 0.5, "u", Notion.DIRECT),
    )
    instance = ElectionInstance(("a", "b", "c"), ("v", "u"), (v, u))
    x = np.array([[0.3, 0.0, 0.5], [0.25, 0.0, 0.75]])
    cases, side = kinks(x, instance)
    assert {"EP-TI proportional", "EP zero support"} <= cases
    assert_array_equal(side, [[0, -1, 0], [1, 1, 0]])
    got = _residual_gradient(x, instance, best_response(x, instance))
    assert_allclose(got, fd_gradient(x, instance, side), rtol=1e-6, atol=1e-6)
    # differences from the other side of each kink disagree
    other = fd_gradient(x, instance, -side)
    assert np.all(np.abs(got - other)[side != 0] > 1e-3)


def test_gradient_memory_stays_linear():
    instance = continuous(mixed_instance(np.random.default_rng(0), 1000, 20))
    x = project_to_feasible(instance, np.random.default_rng(1).random((1000, 20)))
    fx = best_response(x, instance)
    _residual_gradient(x, instance, fx)  # build the cached plan first
    tracemalloc.start()
    try:
        _residual_gradient(x, instance, fx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # central differences would need a (40000, 1000, 20) stack: 6.4 GB
    assert peak < 16 * 2**20


def test_descent_evaluates_the_map_once_per_trial():
    instance = continuous(mixed_instance(np.random.default_rng(3), 6, 5))
    calls = {"map": 0, "project": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    with mock.patch.object(solvers, "best_response", counted("map", solvers.best_response)), \
            mock.patch.object(solvers, "project_to_feasible",
                              counted("project", solvers.project_to_feasible)):
        report = solvers.residual_descent(
            instance, solvers.initial_point(instance), solvers.SolverConfig(max_iterations=10)
        )
    assert report.iterations > 0
    assert calls["map"] == calls["project"] + 1


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
    m=st.integers(1, 13),
    signed_zeros=st.booleans(),
    columnar=st.booleans(),
)
def test_gradient_matches_the_grouped_loop(seed, n, m, signed_zeros, columnar):
    """Probes with EP delegates at zero support and EP-TI ones exactly at
    their thresholds, their projections, and bundles of up to 13 members."""
    rng = np.random.default_rng(seed)
    source = continuous(mixed_instance(rng, n, m))
    probes = probe_matrices(rng, source, 4)
    if signed_zeros:
        probes[(probes == 0.0) & (rng.random(probes.shape) < 0.5)] = -0.0
    instance = parse_instance(serialize_instance(source)) if columnar else source
    for x in (*probes, *(project_to_feasible(instance, y) for y in probes[:2])):
        fx = best_response(x, instance)
        # the referee reads the source's bundles, so that a parsed instance
        # never builds its Bundle view
        assert_same_bits(_residual_gradient(x, instance, fx), reference_grouped_gradient(x, source, fx))
    if columnar:
        assert "delegations" not in instance.__dict__


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_gradient_matches_the_grouped_loop_at_every_edge(zero):
    instance = continuous(edge_instance())
    rng = np.random.default_rng(6)
    for _ in range(20):
        for x in edge_matrices(rng, instance, zero):
            fx = best_response(x, instance)
            assert_same_bits(_residual_gradient(x, instance, fx), reference_grouped_gradient(x, instance, fx))


def test_gradient_sums_each_cell_in_plan_order():
    """Every delegated bundle goes to one guru, so each of the guru's
    cells sums contributions from bundles of every size, and the plan's
    groups interleave the sizes.  Float addition is not associative:
    only the plan order reproduces the grouped loop's sums."""
    for seed in range(10):
        source = continuous(mixed_instance(np.random.default_rng(seed), 16, 6))
        rows = tuple(
            tuple(b if b.notion is Notion.DIRECT else dataclasses.replace(b, delegate="v0") for b in bundles)
            for bundles in source.delegations
        )
        instance = ElectionInstance(source.candidates, source.voters, rows)
        for y in np.random.default_rng(seed).random((5, 16, 6)):
            x = project_to_feasible(instance, y)
            fx = best_response(x, instance)
            assert_same_bits(_residual_gradient(x, instance, fx), reference_grouped_gradient(x, instance, fx))
