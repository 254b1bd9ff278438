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
"""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
from numpy.testing import assert_allclose, assert_array_equal
from test_grouped_plan import mixed_instance, probe_matrices

from liquidballots import (
    Bundle,
    ElectionInstance,
    Notion,
    best_response,
    project_to_feasible,
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
    for cell in instance._plan:
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
