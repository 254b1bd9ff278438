"""The plan's width classes at their edges, against the reference loops.

``_columns.Slices`` sums all slices of 8j to 8j + 7 members with one
padded gather, pads of ``-0.0`` up to the widest of them, and reads a
one-member slice's sum off its cell.  ``width_instance`` holds bundles of
1, 2, 7, 8, 9, 15, 16 and 17 members in every notion, so that each class
edge and a one-member part are present, and probes put delegate rows at
``0.0`` and ``-0.0``, at thresholds and at mixed magnitudes, where the
order of a sum shows in its bits.  Every function that reads the plan must
match the (notion, size) loops of ``test_grouped_plan`` and
``test_gradient`` bit for bit, and the slice sums must match the
per-slice sums of a per-bundle gather: pairwise for one matrix, left to
right for a stack, signed zeros included.
"""

import contextlib

import numpy as np
import pytest
from test_gradient import continuous, reference_grouped_gradient
from test_grouped_plan import (
    DELEGATED,
    assert_same_bits,
    reference_grouped_best_response,
    reference_grouped_is_feasible,
    reference_grouped_project,
    reference_initial_point,
    slice_members,
)

from liquidballots import (
    Bundle,
    ElectionInstance,
    Notion,
    best_response,
    initial_point,
    is_feasible,
    project_to_feasible,
    validate_instance,
)
from liquidballots.response import _residual_gradient

#: How each voter of a notion splits the 17 candidates into bundles.
PARTITIONS = ((17,), (16, 1), (15, 2), (9, 8), (7, 7, 2, 1))


def width_instance(subnormal):
    """Every notion in bundles of 1, 2, 7, 8, 9, 15, 16 and 17 members.

    ``g`` votes DIRECT singletons.  Each notion has one voter per
    partition; the first delegates to ``g``, the others to the voter
    before.  Weights are 2, so thresholds are exactly 0.5, and defaults
    leave the first member out.  With ``subnormal`` the first EP-TI
    bundle weighs 5e-324: its threshold is infinite.
    """
    cs = tuple(f"c{i}" for i in range(17))
    rows = [tuple(Bundle((c,), 0.5 if i == 0 else 0.5 / 16, "g", Notion.DIRECT) for i, c in enumerate(cs))]
    voters = ["g"]
    for notion in DELEGATED:
        for p, partition in enumerate(PARTITIONS):
            delegate = "g" if p == 0 else voters[-1]
            bundles, at = [], 0
            for k in partition:
                members, budget = cs[at:at + k], k / 17
                at += k
                if notion is Notion.EP:
                    bundles.append(Bundle(members, budget, delegate, notion))
                    continue
                default = (budget,) if k == 1 else (0.0, *(budget / (k - 1),) * (k - 1))
                weight = 5e-324 if subnormal and notion is Notion.EP_TI and p == 0 and at == k else 2.0
                bundles.append(Bundle(members, budget, delegate, notion, weight, default))
            voters.append(f"{notion.value}{p}")
            rows.append(tuple(bundles))
    instance = ElectionInstance(cs, tuple(voters), tuple(rows))
    assert validate_instance(instance).ok
    assert sorted({len(b.members) for bs in instance.delegations[1:] for b in bs}) == [1, 2, 7, 8, 9, 15, 16, 17]
    return instance


def width_matrices(rng, instance, count):
    """Probes: sparse entries of mixed magnitudes, whole rows of ``0.0`` or
    ``-0.0``, and rows whose first two cells make a support of exactly 0.5."""
    n, m = instance.n, instance.m
    xs = rng.random((count, n, m)) * (rng.random((count, n, m)) < 0.7)
    xs *= 10.0 ** rng.integers(-6, 7, size=xs.shape)
    for x in xs:
        x[rng.random(n) < 0.25] = 0.0
        at = rng.random(n) < 0.25
        x[at] = 0.0
        x[at, :2] = 0.25
    xs[(xs == 0.0) & (rng.random(xs.shape) < 0.5)] = -0.0
    return xs


def quiet(subnormal):
    """An infinite EP-TI threshold makes its blend infinite, and its response
    ``inf / inf``: NaN in the library and in the references alike."""
    return np.errstate(invalid="ignore") if subnormal else contextlib.nullcontext()


def reference_slice_sums(ext, slices, c_order=False):
    """Each slice's sum as a per-bundle gather makes it: pairwise along a
    single matrix's cells, left to right along a stack's, or pairwise along
    a stack's C-order gather."""
    sums = []
    for cells in slice_members(slices):
        cells = list(cells)
        if ext.ndim == 1:
            sums.append(np.add.reduce(ext[cells]))
        elif c_order:
            sums.append(np.add.reduce(np.ascontiguousarray(ext[:, cells]), axis=-1))
        else:
            sums.append(np.cumsum(ext[:, cells], axis=-1)[:, -1] + 0.0)  # numpy's sum starts from 0.0
    return np.stack(sums, axis=-1)


@pytest.mark.parametrize("subnormal", [False, True])
def test_every_kernel_matches_the_reference_loops_at_the_class_edges(subnormal):
    instance = width_instance(subnormal)
    rng = np.random.default_rng(24)
    for stack in ((), (1,), (2,), (3,), (25,), (257,)):
        xs = width_matrices(rng, instance, max(1, int(np.prod(stack, dtype=int))))
        x = xs.reshape(stack + xs.shape[1:])
        with quiet(subnormal):
            assert_same_bits(best_response(x, instance), reference_grouped_best_response(x, instance))
    for mode in ("defaults", "even-split"):
        assert_same_bits(initial_point(instance, mode), reference_initial_point(instance, mode))
    for y in width_matrices(rng, instance, 12):
        y -= 0.5 * rng.random(y.shape)  # negative entries, and some slices with none above 0
        projected = project_to_feasible(instance, y)
        assert_same_bits(projected, reference_grouped_project(instance, y))
        for x in (y, projected, projected + rng.choice([-2e-9, 0.0, 2e-9], size=y.shape)):
            for tol in (1e-9, 0.0):
                assert is_feasible(instance, x, tol) == reference_grouped_is_feasible(instance, x, tol)
    smooth = continuous(instance)
    for x in width_matrices(rng, smooth, 12):
        with quiet(subnormal):
            fx = best_response(x, smooth)
            assert_same_bits(_residual_gradient(x, smooth, fx), reference_grouped_gradient(x, smooth, fx))


def test_slice_sums_keep_every_bit_at_the_class_edges():
    """The plan's three sets of slices, over one matrix and over stacks of
    2 and 25, against per-slice sums, with ``g``'s row and those of the
    voters that the 16- and 8-member slices read at ``-0.0``.  numpy's sum
    starts from ``0.0``, so it is never ``-0.0``; a one-member slice's sum
    is its cell, and ``+ 0.0`` makes a ``-0.0`` cell ``0.0`` and leaves
    every other value's bits."""
    instance = width_instance(False)
    plan = instance._plan
    assert any(index.ndim == 2 and np.any(index[:, -1] == -1) for _, index in plan.slices.parts)
    rng = np.random.default_rng(25)
    zero_rows = [0, *(1 + 5 * q + p for q in range(len(DELEGATED)) for p in (0, 2))]
    for count in (1, 2, 25):
        xs = width_matrices(rng, instance, count)
        xs[:, zero_rows] = -0.0
        xs = xs.reshape(count, -1)
        cells = xs.T[plan.gather].T
        cells[:, -1] = -0.0
        matrix = np.concatenate((xs, np.full((count, 1), -0.0)), axis=1)
        if count == 1:
            cells, matrix = cells[0], matrix[0]
        blend = cells[..., plan.blend.cells.start:]
        for slices, ext in ((plan.slices, cells), (plan.blend.slices, blend), (plan.bundles, matrix)):
            assert_same_bits(slices.sum(ext) + 0.0, reference_slice_sums(ext, slices))
        assert_same_bits(
            plan.blend.slices.sum(blend, c_order=True) + 0.0,
            reference_slice_sums(blend, plan.blend.slices, c_order=True),
        )
