"""The grouped bundle plan against the per-bundle loops it replaced.

``best_response``, ``project_to_feasible``, ``is_feasible`` and
``initial_point`` run off ``ElectionInstance._groups``: one stacked
record per (notion, bundle size).  The loops below walk ``_plan`` one
bundle at a time, as these functions did before the grouping, and
``reference_project_simplex`` is the one-dimensional projection that
``project_simplex`` used to be; they are the references, and the grouped
code must match them bit for bit.  ``reference_respond`` writes each
notion's response as its own formula, as ``response`` did before the four
notions shared one pre-image, so the same comparison pins every notion's
bits too.  ``bundle_response`` reads one bundle's cells off the same map
and must match them too.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal, assert_array_max_ulp

from liquidballots import (
    Bundle,
    ElectionInstance,
    Notion,
    best_response,
    bundle_response,
    fixtures,
    initial_point,
    is_feasible,
    project_simplex,
    project_to_feasible,
    response,
    validate_instance,
)


def reference_proportional(y, budget):
    nu = y.sum(axis=-1, keepdims=True)
    safe = np.where(nu != 0.0, nu, 1.0)
    return y / safe * budget


def reference_interpolated(y, default, threshold, budget):
    nu = y.sum(axis=-1, keepdims=True)
    z = y + (threshold - nu) * default
    zn = z.sum(axis=-1, keepdims=True)
    safe = np.where(zn != 0.0, zn, 1.0)
    return z / safe * budget


def reference_combined(y, default, weight, budget):
    z = default + weight * y
    zn = z.sum(axis=-1, keepdims=True)
    safe = np.where(zn != 0.0, zn, 1.0)
    return z / safe * budget


def reference_respond(cell, y, current):
    """One bundle's response, each notion by its own formula."""
    nu = y.sum(axis=-1, keepdims=True)
    if cell.notion is Notion.EP:
        return np.where(nu > 0.0, reference_proportional(y, cell.budget), current)
    if cell.notion is Notion.EP_T:
        prop = reference_proportional(y, cell.budget)
        return np.where(nu >= cell.threshold, prop, cell.default)
    if cell.notion is Notion.EP_TI:
        prop = reference_proportional(y, cell.budget)
        interp = reference_interpolated(y, cell.default, cell.threshold, cell.budget)
        return np.where(nu >= cell.threshold, prop, interp)
    assert cell.notion is Notion.WCC
    return reference_combined(y, cell.default, cell.weight, cell.budget)


def reference_best_response(x, instance):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for cell in instance._plan:
        if cell.notion is Notion.DIRECT:
            out[..., cell.voter, cell.cols] = cell.budget
        else:
            out[..., cell.voter, cell.cols] = reference_respond(
                cell,
                x[..., cell.delegate, cell.cols],
                x[..., cell.voter, cell.cols],
            )
    return out


def reference_project_simplex(v, total):
    if total <= 0.0:
        return np.zeros_like(v)
    u = np.sort(v)[::-1]
    cssv = np.cumsum(u) - total
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > cssv)[0][-1]
    theta = cssv[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def reference_project(instance, y):
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    for cell in instance._plan:
        v = y[cell.voter, cell.cols]
        out[cell.voter, cell.cols] = reference_project_simplex(v, cell.budget)
    return out


def reference_is_feasible(instance, x, tol=1e-9):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        return False
    if np.any(x < -tol) or np.any(x > 1.0 + tol):
        return False
    if np.any(np.abs(x.sum(axis=1) - 1.0) > tol):
        return False
    for cell in instance._plan:
        if abs(x[cell.voter, cell.cols].sum() - cell.budget) > tol:
            return False
    return True


def reference_initial_point(instance, mode):
    x = np.zeros((instance.n, instance.m))
    for cell in instance._plan:
        if cell.notion is Notion.DIRECT:
            x[cell.voter, cell.cols] = cell.budget
        elif mode == "defaults" and cell.default is not None:
            x[cell.voter, cell.cols] = cell.default
        else:
            x[cell.voter, cell.cols] = cell.budget / len(cell.cols)
    return x


#: Weights whose threshold ``1 / weight`` is exact, plus a few that are not.
WEIGHTS = (1.0, 2.0, 4.0, 1.25, 10.0, 3.0, 100.0)
DELEGATED = (Notion.EP, Notion.EP_T, Notion.EP_TI, Notion.WCC)


def mixed_instance(rng, n, m):
    """A valid election with all five notions and bundles of mixed sizes.

    Every voter partitions the candidates at random.  A guru votes in
    DIRECT singletons only; other voters give each bundle a random
    delegated notion, or vote a singleton directly now and then.  Weighted
    bundles carry sparse random defaults.
    """
    candidates = tuple(f"c{i}" for i in range(m))
    voters = tuple(f"v{i}" for i in range(n))
    rows = []
    for vi, voter in enumerate(voters):
        guru = vi == 0 or rng.random() < 0.15
        cuts = sorted(rng.choice(np.arange(1, m), size=int(rng.integers(0, m)), replace=False))
        groups = [sorted(int(c) for c in g) for g in np.split(rng.permutation(m), cuts)]
        if guru:
            groups = [[c] for c in range(m)]
        edges = [0, *sorted(rng.choice(np.arange(1, 20), size=len(groups) - 1, replace=False)), 20]
        bundles = []
        for cols, lo, hi in zip(groups, edges, edges[1:]):
            members = tuple(candidates[c] for c in cols)
            budget = (hi - lo) / 20
            if guru or (len(cols) == 1 and rng.random() < 0.3):
                bundles.append(Bundle(members, budget, voter, Notion.DIRECT))
                continue
            notion = DELEGATED[int(rng.integers(len(DELEGATED)))]
            delegate = voters[int(rng.choice([i for i in range(n) if i != vi]))]
            if notion is Notion.EP:
                bundles.append(Bundle(members, budget, delegate, notion))
                continue
            default = np.zeros(len(cols))
            support = rng.choice(len(cols), size=int(rng.integers(1, len(cols) + 1)), replace=False)
            default[support] = rng.dirichlet(np.ones(len(support))) * budget
            weight = WEIGHTS[int(rng.integers(len(WEIGHTS)))]
            bundles.append(Bundle(members, budget, delegate, notion, weight, tuple(default)))
        rows.append(tuple(bundles))
    instance = ElectionInstance(candidates, voters, tuple(rows))
    assert validate_instance(instance, tol=1e-6).ok
    return instance


def probe_matrices(rng, instance, count):
    """Matrices with zero slices and slices exactly at their thresholds.

    Entries are sparse, so many EP delegates give their bundle nothing.
    In every other matrix one EP-T or EP-TI delegate slice is set to sum to
    exactly ``1 / weight``, in one cell or in two equal halves.
    """
    n, m = instance.n, instance.m
    xs = rng.random((count, n, m)) * (rng.random((count, n, m)) < 0.6)
    thresholded = [c for c in instance._plan if c.notion in (Notion.EP_T, Notion.EP_TI)]
    for i in range(0, count, 2):
        if not thresholded:
            break
        cell = thresholded[int(rng.integers(len(thresholded)))]
        xs[i, cell.delegate, cell.cols] = 0.0
        if len(cell.cols) > 1 and rng.random() < 0.5:
            xs[i, cell.delegate, cell.cols[:2]] = cell.threshold / 2
        else:
            xs[i, cell.delegate, cell.cols[0]] = cell.threshold
        assert xs[i, cell.delegate, cell.cols].sum() == cell.threshold
    return xs


LAYOUTS = ("c", "fortran", "strided")


def laid_out(x, layout):
    if layout == "fortran":
        return np.asfortranarray(x)
    if layout == "strided":
        wide = np.zeros(x.shape[:-1] + (2 * x.shape[-1],))
        wide[..., ::2] = x
        return wide[..., ::2]
    return x


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
    m=st.integers(1, 9),
    stack=st.sampled_from([(), (5,), (3, 4)]),
    layout=st.sampled_from(LAYOUTS),
    block=st.sampled_from([1, 7, response._BLOCK]),
)
def test_best_response_matches_per_bundle_loop(seed, n, m, stack, layout, block):
    rng = np.random.default_rng(seed)
    instance = mixed_instance(rng, n, m)
    count = int(np.prod(stack, dtype=int))
    xs = probe_matrices(rng, instance, count).reshape(stack + (n, m))
    x = laid_out(xs, layout)
    with mock.patch.object(response, "_BLOCK", block):
        got = best_response(x, instance)
    assert got.shape == x.shape
    assert got.flags.c_contiguous
    expected = reference_best_response(xs, instance)
    assert_array_equal(got, expected)
    for voter, bundles in zip(instance.voters, instance.delegations):
        row = instance.voter_index[voter]
        for position, bundle in enumerate(bundles):
            if bundle.notion is Notion.DIRECT:
                continue
            cols = [instance.candidate_index[c] for c in bundle.members]
            query = bundle if position % 2 else position
            assert_array_equal(bundle_response(x, instance, voter, query), expected[..., row, cols])


def test_best_response_walks_a_stack_of_several_blocks():
    instance = fixtures.crossed_thresholds(Notion.EP_T)
    group_elements = sum(g.cols.size for g in instance._groups if g.notion is not Notion.DIRECT)
    count = 3 * response._BLOCK // group_elements + 5
    rng = np.random.default_rng(3)
    xs = probe_matrices(rng, instance, count)
    assert_array_equal(best_response(xs, instance), reference_best_response(xs, instance))


def test_stacked_and_single_input_agree():
    """``best_response(xs)[i]`` against ``best_response(xs[i])``.

    Cells of bundles with fewer than 8 members agree bit for bit.  From 8
    members on, a stack's gathered slices are summed left to right and a
    single matrix's pairwise, so their last bits may differ by a few ulps.
    """
    rng = np.random.default_rng(1)
    for m in range(1, 14):
        for _ in range(20):
            instance = mixed_instance(rng, int(rng.integers(2, 6)), m)
            small = np.zeros((instance.n, m), dtype=bool)
            for cell in instance._plan:
                small[cell.voter, cell.cols] = len(cell.cols) < 8
            xs = probe_matrices(rng, instance, 5)
            stacked = best_response(xs, instance)
            for x, got in zip(xs, stacked):
                single = best_response(x, instance)
                assert_array_equal(got[small], single[small])
                assert_array_max_ulp(got, single, maxulp=4)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
    m=st.integers(1, 9),
    layout=st.sampled_from(LAYOUTS),
    ties=st.booleans(),
)
def test_projection_and_feasibility_match_per_bundle_loops(seed, n, m, layout, ties):
    rng = np.random.default_rng(seed)
    instance = mixed_instance(rng, n, m)
    y = rng.uniform(-1.0, 2.0, size=(n, m))
    if ties:  # repeated values and exact zeros inside slices
        y = np.round(y, 1) * (rng.random((n, m)) < 0.7)
    projected = project_to_feasible(instance, laid_out(y, layout))
    assert_array_equal(projected, reference_project(instance, y))
    for cell in instance._plan:
        v = y[cell.voter, cell.cols]
        expected = reference_project_simplex(v, cell.budget)
        assert_array_equal(project_simplex(v, cell.budget), expected)

    for x in (
        y,
        projected,
        projected + rng.choice([-2e-9, 0.0, 2e-9], size=(n, m)),
        projected + rng.choice([-5e-10, 0.0, 5e-10], size=(n, m)),
        reference_best_response(projected, instance),
    ):
        assert is_feasible(instance, laid_out(x, layout)) == reference_is_feasible(instance, x)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7), m=st.integers(1, 9))
def test_initial_point_matches_per_bundle_loop(seed, n, m):
    rng = np.random.default_rng(seed)
    instance = mixed_instance(rng, n, m)
    for mode in ("defaults", "even-split"):
        assert_array_equal(initial_point(instance, mode), reference_initial_point(instance, mode))


def test_groups_cover_every_bundle_once():
    rng = np.random.default_rng(8)
    instance = mixed_instance(rng, 12, 9)
    keys = [(g.notion, g.cols.shape[1]) for g in instance._groups]
    assert len(keys) == len(set(keys))
    assert sum(len(g.cols) for g in instance._groups) == len(instance._plan)
    cells = {
        (int(v), int(c))
        for g in instance._groups
        for v, cols in zip(g.voter[:, 0], g.cols)
        for c in cols
    }
    assert cells == {(v, c) for v in range(instance.n) for c in range(instance.m)}

