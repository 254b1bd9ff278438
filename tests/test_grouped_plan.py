"""The grouped bundle plan against the per-bundle loops it replaced.

``best_response``, ``project_to_feasible``, ``is_feasible`` and
``initial_point`` run off ``ElectionInstance._plan``: one flat record of
every bundle's cells, compiled from the instance's columns.
``reference_plan`` compiles the same delegations one record per bundle,
in voter-then-bundle order.  The loops
below walk it one bundle at a time, as these functions did before the
grouping, and ``reference_project_simplex`` is the one-dimensional
projection that ``project_simplex`` used to be; they are the references,
and the grouped code must match them bit for bit.  ``reference_respond``
writes each notion's response as its own formula, as ``response`` did
before the four notions shared one pre-image, so the same comparison
pins every notion's bits too.  ``bundle_response`` reads one bundle's
cells off the same map and must match them too.

The library once stacked the bundles per (notion, bundle size); then
``project_to_feasible`` and ``is_feasible`` regrouped them by bundle size
alone.  ``reference_groups`` stacks ``reference_plan`` per (notion, size)
as the library did, and ``reference_grouped_project`` and
``reference_grouped_is_feasible`` keep the (notion, size) loops over
those groups that the size records replaced, the projection's ``take_along_axis`` included; they cover
rows the one-dimensional reference cannot, such as a row in which no
prefix passes the threshold test.

``best_response``, ``initial_point`` and the exact gradient read the
same record with one notion-free kernel, as one notion-free kernel per
bundle size did before.  ``reference_grouped_best_response`` keeps the
per-(notion, size) loop that both replaced, with its ``reference_preimage``
and ``reference_respond_group``, and the kernel must match it bit for
bit, signed zeros included.  ``assert_records_match`` checks the record
itself against the bundles.
"""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    parse_instance,
    project_simplex,
    project_to_feasible,
    response,
    serialize_instance,
    validate_instance,
)
from liquidballots._columns import BundleColumns, compile_plan


def reference_plan(instance):
    """One record per bundle, identifiers resolved to indices, in voter order."""
    cells = []
    for vi, bundles in enumerate(instance.delegations):
        for bundle in bundles:
            cells.append(
                SimpleNamespace(
                    voter=vi,
                    cols=np.array([instance.candidate_index[c] for c in bundle.members], dtype=int),
                    delegate=instance.voter_index[bundle.delegate],
                    notion=bundle.notion,
                    budget=bundle.budget,
                    weight=math.nan if bundle.weight is None else bundle.weight,
                    threshold=math.nan if bundle.weight is None else bundle.threshold,
                    default=None if bundle.default is None else np.array(bundle.default, dtype=float),
                )
            )
    return tuple(cells)


def reference_groups(instance):
    """``reference_plan`` stacked per (notion, bundle size), as the library's
    plan once was: groups in order of first appearance, bundles in order
    inside each, the even split of the budget where a bundle has no
    default."""
    groups = {}
    for index, cell in enumerate(reference_plan(instance)):
        groups.setdefault((cell.notion, len(cell.cols)), []).append((index, cell))
    stacked = []
    for (notion, k), members in groups.items():
        index, cells = zip(*members)

        def column(field):
            return np.array([[getattr(cell, field)] for cell in cells])

        stacked.append(
            SimpleNamespace(
                notion=notion,
                index=np.array(index),
                voter=column("voter"),
                delegate=column("delegate"),
                cols=np.array([cell.cols for cell in cells], dtype=int).reshape(-1, k),
                budget=column("budget"),
                weight=column("weight"),
                threshold=column("threshold"),
                default=np.array(
                    [cell.default if cell.default is not None else [cell.budget / k] * k for cell in cells],
                    dtype=float,
                ).reshape(-1, k),
            )
        )
    return tuple(stacked)


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
    for cell in reference_plan(instance):
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
    for cell in reference_plan(instance):
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
    for cell in reference_plan(instance):
        if abs(x[cell.voter, cell.cols].sum() - cell.budget) > tol:
            return False
    return True


def reference_project_rows(values, totals):
    """``model._project_rows`` as it was, with ``np.take_along_axis``."""
    k = values.shape[-1]
    u = np.sort(values, axis=-1)[:, ::-1]
    cssv = np.cumsum(u, axis=-1) - totals
    above = u * np.arange(1, k + 1) > cssv
    rho = k - 1 - np.argmax(above[:, ::-1], axis=-1)[:, None]  # last True
    theta = np.take_along_axis(cssv, rho, axis=-1) / (rho + 1.0)
    return np.where(totals <= 0.0, 0.0, np.maximum(values - theta, 0.0))


def reference_grouped_project(instance, y):
    """``project_to_feasible`` as it was: one block per (notion, size) group."""
    y = np.ascontiguousarray(y, dtype=float)
    out = np.empty(y.shape)
    for g in reference_groups(instance):
        out[g.voter, g.cols] = reference_project_rows(y[g.voter, g.cols], g.budget)
    return out


def reference_grouped_is_feasible(instance, x, tol=1e-9):
    """``is_feasible`` as it was: slice sums one (notion, size) group at a time."""
    x = np.ascontiguousarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        return False
    if np.any(x < -tol) or np.any(x > 1.0 + tol):
        return False
    if np.any(np.abs(x.sum(axis=1) - 1.0) > tol):
        return False
    return not any(
        np.any(np.abs(x[g.voter, g.cols].sum(axis=-1, keepdims=True) - g.budget) > tol)
        for g in reference_groups(instance)
    )


def reference_initial_point(instance, mode):
    x = np.zeros((instance.n, instance.m))
    for cell in reference_plan(instance):
        if cell.notion is Notion.DIRECT:
            x[cell.voter, cell.cols] = cell.budget
        elif mode == "defaults" and cell.default is not None:
            x[cell.voter, cell.cols] = cell.default
        else:
            x[cell.voter, cell.cols] = cell.budget / len(cell.cols)
    return x


def reference_preimage(cell, y):
    """``response._preimage`` as it was: the vector each notion rescales,
    its sum, and the threshold mask, by a branch on the notion."""
    if cell.notion is Notion.WCC:
        z = cell.default + cell.weight * y
        return z, z.sum(axis=-1, keepdims=True), None
    nu = y.sum(axis=-1, keepdims=True)
    if cell.notion is Notion.EP:
        return y, nu, None
    below = nu < cell.threshold
    if cell.notion is Notion.EP_T:
        return y, nu, below
    if cell.notion is Notion.EP_TI:
        blend = y + (cell.threshold - nu) * cell.default
        s = np.where(below, blend.sum(axis=-1, keepdims=True), nu)
        return np.where(below, blend, y), s, below
    raise AssertionError(f"unexpected notion {cell.notion}")


def reference_respond_group(cell, delegate_slice, current_slice):
    """``response._respond`` as it was."""
    z, s, below = reference_preimage(cell, delegate_slice)
    response = z / np.where(s != 0.0, s, 1.0) * cell.budget
    if cell.notion is Notion.EP:
        return np.where(s > 0.0, response, current_slice)
    if cell.notion is Notion.EP_T:
        return np.where(below, cell.default, response)
    return response


def reference_grouped_best_response(x, instance):
    """``best_response`` as it was: one gather, ``_respond`` and scatter
    per (notion, size) group, the stack walked in ``_BLOCK`` blocks."""
    x = np.asarray(x, dtype=float)
    stack = x.reshape((-1,) + x.shape[-2:])
    out = np.empty(stack.shape)
    for g in reference_groups(instance):
        if g.notion is Notion.DIRECT:
            out[:, g.voter, g.cols] = g.budget
            continue
        blocks = max(1, len(stack) // max(2, response._BLOCK // g.cols.size))
        bounds = [len(stack) * i // blocks for i in range(blocks + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            block = stack[lo:hi]
            out[lo:hi, g.voter, g.cols] = reference_respond_group(
                g, block[:, g.delegate, g.cols], block[:, g.voter, g.cols]
            )
    return out.reshape(x.shape)


def epti_record(budget, threshold, default):
    """The plan of one EP-TI bundle over ``len(default)`` candidates,
    delegated to its own voter, with an arbitrary ``threshold``.

    ``compile_plan`` computes the threshold as ``1 / weight``, which not
    every threshold is, so the plan's copy is set afterwards."""
    k = len(default)
    columns = BundleColumns(
        voter=np.array([0]),
        delegate=np.array([0]),
        notion=np.array([list(Notion).index(Notion.EP_TI)]),
        size=np.array([k]),
        budget=np.array([budget], dtype=float),
        weight=np.array([1.0 / threshold]),
        has_weight=np.array([True]),
        default_size=np.array([k]),
        cols=np.arange(k),
        default=np.asarray(default, dtype=float),
        members=[f"c{i}" for i in range(k)],
        delegates=["v"],
    )
    record = compile_plan(columns, k)
    record.blend.limit[...] = threshold
    return record


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
    thresholded = [c for c in reference_plan(instance) if c.notion in (Notion.EP_T, Notion.EP_TI)]
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
    group_elements = sum(g.cols.size for g in reference_groups(instance) if g.notion is not Notion.DIRECT)
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
            for cell in reference_plan(instance):
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
@example(seed=0, n=2, m=8, layout="fortran", ties=True)  # a row sum at the 1e-9 bound
def test_projection_and_feasibility_match_per_bundle_loops(seed, n, m, layout, ties):
    rng = np.random.default_rng(seed)
    instance = mixed_instance(rng, n, m)
    y = rng.uniform(-1.0, 2.0, size=(n, m))
    if ties:  # repeated values and exact zeros inside slices
        y = np.round(y, 1) * (rng.random((n, m)) < 0.7)
    projected = project_to_feasible(instance, laid_out(y, layout))
    assert_array_equal(projected, reference_project(instance, y))
    for cell in reference_plan(instance):
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


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
    m=st.integers(1, 13),
    layout=st.sampled_from(LAYOUTS),
    ties=st.booleans(),
    outlier=st.booleans(),
    columnar=st.booleans(),
)
@example(seed=0, n=2, m=8, layout="c", ties=True, outlier=True, columnar=False)
def test_projection_and_feasibility_by_size_match_the_grouped_loops(
    seed, n, m, layout, ties, outlier, columnar
):
    """Up to 13 candidates give bundles of 8 or more members, whose slices
    numpy sums pairwise; a size block merges such bundles across notions,
    and DIRECT singletons share the size-1 block with delegated ones."""
    rng = np.random.default_rng(seed)
    source = mixed_instance(rng, n, m)
    # the referees read the source's bundles, so that a parsed instance
    # never builds its Bundle view
    instance = parse_instance(serialize_instance(source)) if columnar else source
    y = rng.uniform(-1.0, 2.0, size=(n, m))
    if ties:  # repeated values and exact zeros inside slices
        y = np.round(y, 1) * (rng.random((n, m)) < 0.7)
    if outlier:  # a slice in which no prefix passes: the last-True fallback
        y[int(rng.integers(n)), int(rng.integers(m))] = 1e20
    projected = project_to_feasible(instance, laid_out(y, layout))
    assert projected.flags.c_contiguous
    assert_array_equal(projected, reference_grouped_project(source, y))
    feasible = reference_grouped_project(source, np.clip(y, -1.0, 2.0))
    for x in (
        y,
        projected,
        feasible,
        feasible + rng.choice([-1e-9, 0.0, 1e-9], size=(n, m)),
        feasible + rng.choice([-2e-9, 0.0, 2e-9], size=(n, m)),
        feasible + rng.choice([-5e-10, 0.0, 5e-10], size=(n, m)),
    ):
        for tol in (1e-9, 0.0):
            assert is_feasible(instance, laid_out(x, layout), tol) == (
                reference_grouped_is_feasible(source, x, tol)
            )
    if columnar:
        assert "delegations" not in instance.__dict__


def test_projection_falls_back_to_the_last_prefix():
    """A slice in which no prefix passes the threshold test.

    ``1e20 - 1`` rounds to ``1e20``, so no prefix of ``[1e20, 0.3, 0.2]``
    with budget 1 stays above its mean excess; the argmax of an all-False
    row picks ``rho = k - 1``.  The one-dimensional reference has no such
    fallback and raises.
    """
    instance = ElectionInstance(
        ("a", "b", "c"),
        ("guru", "v"),
        (
            tuple(Bundle((c,), b, "guru", Notion.DIRECT) for c, b in zip("abc", (0.5, 0.25, 0.25))),
            (Bundle(("a", "b", "c"), 1.0, "guru", Notion.EP),),
        ),
    )
    y = np.array([[0.5, 0.25, 0.25], [1e20, 0.3, 0.2]])
    with pytest.raises(IndexError):
        reference_project_simplex(y[1], 1.0)
    assert_array_equal(project_to_feasible(instance, y), reference_grouped_project(instance, y))


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7), m=st.integers(1, 9))
def test_initial_point_matches_per_bundle_loop(seed, n, m):
    rng = np.random.default_rng(seed)
    instance = mixed_instance(rng, n, m)
    for mode in ("defaults", "even-split"):
        assert_array_equal(initial_point(instance, mode), reference_initial_point(instance, mode))


#: The kinds of the plan's cells, in order, and the notion of each.
KINDS = (
    ("keep", Notion.EP), ("hard", Notion.EP_T), ("shift", Notion.WCC), ("blend", Notion.EP_TI),
    ("fixed", Notion.DIRECT),
)


def slice_members(slices):
    """The members of each slice of a ``_columns.Slices``, in the order of its sums.

    The parts tile that order.  A one-member part gathers one real entry
    per slice; a padded part gathers a slice's members and then pads,
    which index the last entry (-1) and nothing else, and holds slices
    of one width class: 8j to 8j + 7 members, padded to the widest.
    """
    members, covered = [], 0
    for span, cells in slices.parts:
        assert span.start == covered and span.stop - span.start == len(cells)
        covered = span.stop
        if cells.ndim == 1:
            assert np.all(cells >= 0)
            members += [(c,) for c in cells.tolist()]
            continue
        sizes = (cells >= 0).sum(axis=1)
        for row, k in zip(cells, sizes):
            assert np.all(row[:k] >= 0) and np.all(row[k:] == -1)
            members.append(tuple(row[:k].tolist()))
        assert sizes.min() >= 2 and sizes.max() == cells.shape[1]
        assert len(set(np.where(sizes < 128, sizes // 8, sizes).tolist())) == 1
    assert covered == slices.count
    return members


def assert_records_match(plan, source):
    """``plan``, the one flat record, against the bundles of ``source``.

    ``own`` holds every bundle's cells once, in bundle order, beside its
    default and its even split.  The live cells are every delegated
    bundle's cells once, kind by kind and in bundle order inside each
    kind, each with its bundle's budget, default, threshold and weight;
    DIRECT cells are fixed at the budget.  The slices of the live cells,
    of the blend cells and of every bundle cover each bundle once, with
    its budget; each cell's ``row`` names its own slice.  ``rank`` lays
    the delegated cells out in the (notion, size) groups' plan order, the
    order in which the gradient sums them.
    """
    m = source.m
    reference = reference_plan(source)
    cells = [cell.voter * m + cell.cols for cell in reference]
    defaults = [
        np.full(len(cell.cols), cell.budget) if cell.notion is Notion.DIRECT
        else cell.default if cell.default is not None
        else np.full(len(cell.cols), cell.budget / len(cell.cols))
        for cell in reference
    ]
    none = np.zeros(0, dtype=int)  # for an election with no bundle of a kind

    def joined(parts):
        return np.concatenate([none, *parts])

    assert_array_equal(plan.own, joined(cells))
    assert_array_equal(plan.default, joined(defaults))
    assert_array_equal(plan.even, joined(np.full(len(c.cols), c.budget / len(c.cols)) for c in reference))

    notions = [notion for _, notion in KINDS]
    live = sorted(
        (i for i, cell in enumerate(reference) if cell.notion is not Notion.DIRECT),
        key=lambda i: notions.index(reference[i].notion),
    )
    sizes = [len(reference[i].cols) for i in live]
    assert_array_equal(plan.live, joined(cells[i] for i in live))
    assert_array_equal(plan.gather[:-1], joined(reference[i].delegate * m + reference[i].cols for i in live))
    assert_array_equal(plan.scale, joined(np.full(k, reference[i].budget) for i, k in zip(live, sizes)))
    bounds = np.cumsum([0, *sizes])
    for kind, notion in KINDS[:4]:
        mine = [j for j, i in enumerate(live) if reference[i].notion is notion]
        record = getattr(plan, kind)
        if not mine:
            assert record is None
            continue
        assert record.cells == slice(bounds[mine[0]], bounds[mine[-1] + 1])
        bundles = [reference[live[j]] for j in mine]
        own = [reference[live[j]].voter * m + reference[live[j]].cols for j in mine]
        if kind == "keep":
            assert_array_equal(record.own, joined(own))
        if kind == "hard":
            assert_array_equal(record.threshold, joined(np.full(len(b.cols), b.threshold) for b in bundles))
        if kind == "shift":
            assert_array_equal(record.c, joined(np.full(len(b.cols), b.weight) for b in bundles))
        if kind in ("hard", "shift", "blend"):
            got = record.offset if kind == "shift" else record.default
            assert_array_equal(got, joined(defaults[live[j]] for j in mine))
    fixed = [i for i, cell in enumerate(reference) if cell.notion is Notion.DIRECT]
    if fixed:
        assert_array_equal(plan.fixed.own, joined(cells[i] for i in fixed))
        assert_array_equal(plan.fixed.default, joined(defaults[i] for i in fixed))
    else:
        assert plan.fixed is None

    # the slices of the live cells, and each cell's row
    spans = [tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])]
    members = slice_members(plan.slices)
    assert sorted(members) == sorted(spans)
    for position, span in enumerate(members):
        cell = reference[live[spans.index(span)]]
        assert plan.slices.budget[position] == cell.budget and plan.slices.last[position] == len(cell.cols) - 1
    for c, row in enumerate(plan.row.tolist()):
        assert c in members[row]
    # the blend slices, and where each stands among the live ones
    if plan.blend is not None:
        a = plan.blend
        start = a.cells.start
        assert a.cells.stop == len(plan.live)
        local = slice_members(a.slices)
        assert sorted(local) == sorted(tuple(c - start for c in span) for span in spans if span[0] >= start)
        for j, span in enumerate(local):
            assert members[a.at[j]] == tuple(c + start for c in span)
            assert a.limit[j] == reference[live[spans.index(members[a.at[j]])]].threshold
        for c, row in enumerate(a.row.tolist()):
            assert c in local[row]
    # the slices of every bundle, with its budget and its last member
    bundles = slice_members(plan.bundles)
    assert sorted(bundles) == sorted(tuple(c.tolist()) for c in cells)
    for position, span in enumerate(bundles):
        cell = reference[[tuple(c.tolist()) for c in cells].index(span)]
        assert plan.bundles.budget[position] == cell.budget and plan.bundles.last[position] == len(cell.cols) - 1

    delegated = [g for g in reference_groups(source) if g.notion is not Notion.DIRECT]
    own_in_plan_order = joined((g.voter * m + g.cols).ravel() for g in delegated)
    delegate_in_plan_order = joined((g.delegate * m + g.cols).ravel() for g in delegated)
    assert sorted(plan.rank.tolist()) == list(range(len(own_in_plan_order)))
    assert_array_equal(own_in_plan_order[plan.rank], plan.live)
    assert_array_equal(delegate_in_plan_order[plan.rank], plan.gather[:-1])
    assert_array_equal(plan.scatter, delegate_in_plan_order)


def test_groups_cover_every_bundle_once():
    rng = np.random.default_rng(8)
    source = mixed_instance(rng, 12, 9)
    parsed = parse_instance(serialize_instance(source))
    for instance in (source, parsed):
        assert_records_match(instance._plan, source)
    assert "delegations" not in parsed.__dict__


def edge_instance(copies=1):
    """Every notion at its edges, over ten candidates.

    ``g`` votes DIRECT singletons.  ``a`` delegates one-member EP, EP-T,
    EP-TI and WCC bundles to ``g``, next to two DIRECT singletons of its
    own, so all of them share the size-1 block.  ``copies`` voters each
    delegate nine-member EP, EP-T, EP-TI and WCC bundles to ``g``.  Every
    weight is 2, so every threshold is exactly 0.5.
    """
    cs = tuple(f"c{i}" for i in range(10))
    d1, d9 = (0.1,), (0.1,) * 9
    a = (
        Bundle(cs[0:1], 0.1, "g", Notion.EP),
        Bundle(cs[1:2], 0.1, "g", Notion.EP_T, 2.0, d1),
        Bundle(cs[2:3], 0.1, "g", Notion.EP_TI, 2.0, d1),
        Bundle(cs[3:4], 0.1, "g", Notion.WCC, 2.0, d1),
        Bundle(cs[4:5], 0.1, "a", Notion.DIRECT),
        Bundle(cs[5:6], 0.1, "a", Notion.DIRECT),
        Bundle(cs[6:], 0.4, "g", Notion.EP_TI, 2.0, (0.1, 0.1, 0.1, 0.1)),
    )
    voters = [f"{notion.value}{i}" for i in range(copies) for notion in DELEGATED]
    nine = [
        (Bundle(cs[:9], 0.9, "g", notion, *(() if notion is Notion.EP else (2.0, d9))),
         Bundle(cs[9:], 0.1, voter, Notion.DIRECT))
        for voter, notion in zip(voters, DELEGATED * copies)
    ]
    g = tuple(Bundle((c,), 0.1, "g", Notion.DIRECT) for c in cs)
    instance = ElectionInstance(cs, ("g", "a", *voters), (g, a, *nine))
    assert validate_instance(instance).ok
    return instance


def edge_matrices(rng, instance, zero):
    """Random matrices whose delegate row ``g`` sits on every edge in turn.

    Row ``g`` holds, in order: zero support everywhere; exactly 0.5 in the
    one-member cells and in the nine-member slice; one ulp under that;
    random entries.  ``zero`` fills the empty cells: 0.0 or -0.0.
    """
    xs = rng.random((8, instance.n, instance.m)) * (rng.random((8, instance.n, instance.m)) < 0.6)
    xs[xs == 0.0] = zero
    under = np.nextafter(0.5, 0.0)
    xs[0, 0, :9] = zero
    xs[1, 0, :9] = (0.0, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0)  # one-member bundles at 0.5
    xs[2, 0, :9] = (0.25, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25, 0.0)  # nine-member slice at 0.5
    xs[3, 0, :9] = (0.0, under, under, under, 0.0, 0.0, 0.0, 0.0, under)
    xs[4, 0, :9] = (under / 2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, under / 2)
    xs[xs == 0.0] = zero
    return xs


def assert_same_bits(got, expected):
    assert_array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()  # signed zeros too


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
    m=st.integers(1, 13),
    stack=st.sampled_from([(), (1,), (2,), (5,), (3, 4)]),
    block=st.sampled_from([7, response._BLOCK]),
    signed_zeros=st.booleans(),
    columnar=st.booleans(),
)
def test_size_kernel_matches_the_grouped_loop(seed, n, m, stack, block, signed_zeros, columnar):
    """DIRECT singletons share the size-1 block with one-member delegated
    bundles, up to 13 candidates give bundles of 8 or more members, and
    the probes put EP delegates at zero support and thresholded ones
    exactly at their thresholds."""
    rng = np.random.default_rng(seed)
    source = mixed_instance(rng, n, m)
    count = int(np.prod(stack, dtype=int))
    xs = probe_matrices(rng, source, count)
    if signed_zeros:
        xs[(xs == 0.0) & (rng.random(xs.shape) < 0.5)] = -0.0
    instance = parse_instance(serialize_instance(source)) if columnar else source
    x = xs.reshape(stack + (n, m))
    # the referee reads the source's bundles, so that a parsed instance
    # never builds its Bundle view
    with mock.patch.object(response, "_BLOCK", block):
        assert_same_bits(best_response(x, instance), reference_grouped_best_response(x, source))
    for single in xs[:3]:
        assert_same_bits(best_response(single, instance), reference_grouped_best_response(single, source))
    if columnar:  # the plan is compiled from the columns alone
        assert "delegations" not in instance.__dict__


@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("copies", [1, 9])
def test_size_kernel_matches_the_grouped_loop_at_every_edge(zero, copies):
    """Nine copies put 36 rows in the nine-member block, so its slices are
    summed over stacks of two and three matrices as well as singly."""
    instance = edge_instance(copies)
    plan = instance._plan
    assert [cells.shape[1:] for _, cells in plan.slices.parts] == [(), (4,), (9,)]
    rng = np.random.default_rng(5)
    for _ in range(20):
        xs = edge_matrices(rng, instance, zero)
        assert_same_bits(best_response(xs, instance), reference_grouped_best_response(xs, instance))
        for x in (xs[:2], xs[:3], *xs[:5]):
            assert_same_bits(best_response(x, instance), reference_grouped_best_response(x, instance))
