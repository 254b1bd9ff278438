"""The four proportionality operators, the full best-response map and
the exact gradient of its squared residual.

Each operator answers one question for a delegated bundle: given the
current solution matrix, how does voter ``v`` want her bundle budget split
among the bundle's members?  All four answer it the same way: build a
pre-image ``z`` from the delegate's slice ``y`` and rescale it to the
bundle budget, ``z / sum(z) * budget``.  Only ``z`` depends on the notion:

EP     exact proportionality: ``z = y``, the delegate's support ratios; if
       the delegate gives the bundle nothing, the voter is already
       satisfied and keeps her current slice.
EP-T   hard threshold: ``z = y`` while the delegate's support
       ``nu = sum(y)`` for the bundle reaches ``1 / weight``, the stored
       default below that.
EP-TI  thresholded with interpolation: ``z = y`` at or above the
       threshold, the continuous blend ``z = y + (threshold - nu) *
       default`` below it.
WCC    weighted convex combination: always ``z = default + weight * y``.

``_preimage`` builds ``z`` for every notion, ``_respond`` rescales it, and
``_residual_gradient`` differentiates the same rescaling and pulls it back
through the same ``z``, so each notion's formula is written once.

``best_response`` runs off the instance's grouped plan: all bundles that
share a notion and a size ``k`` are one group, holding ``(B, 1)`` voter
and delegate rows, a ``(B, k)`` column table and ``(B, 1)`` budgets,
weights and thresholds.  Each group costs one fancy-indexed gather, one
``_respond`` call and one scatter, whatever the number of bundles;
DIRECT singletons are one constant scatter.  Stacked input
``(..., n, m)`` is evaluated in one pass, and the grid oracle relies on
this.  The stack axis is walked in blocks of about ``_BLOCK`` gathered
elements per group, so the kernel's temporaries stay small when a
stack holds 100,000 matrices.  Every slice sum is a length-``k`` sum
along the last axis, as in a per-bundle loop, so the results do not
depend on the grouping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Bundle, Notion

#: Gathered elements per block of the stack axis, per group.
_BLOCK = 1 << 16


def _preimage(cell, y):
    """The vector each notion rescales, its sum, and the threshold mask.

    ``y`` is the delegate's slice, shape ``(..., k)``; ``cell`` is one
    ``_CompiledBundle`` (scalar parameters) or one ``_BundleGroup``
    (``(B, 1)`` parameters, slices ``(..., B, k)``).  Returns ``(z, s,
    below)``: the bundle response is ``z / s * budget``, ``s`` is ``z``'s
    sum over the last axis, and ``below`` flags an EP-T or EP-TI slice
    whose support ``nu = sum(y)`` is under the threshold (``None`` for the
    other notions).  Where ``z`` is ``y`` itself, ``s`` is ``nu``.
    """
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
        # the default's share grows as the support falls from the threshold
        blend = y + (cell.threshold - nu) * cell.default
        s = np.where(below, blend.sum(axis=-1, keepdims=True), nu)
        return np.where(below, blend, y), s, below
    raise AssertionError(f"unexpected notion {cell.notion}")


def _respond(cell, delegate_slice, current_slice):
    """Best response of a compiled bundle, or a group of them.

    Rescales the notion's pre-image to the bundle budget, then applies the
    two fallbacks: EP keeps ``current_slice`` where its delegate gives the
    bundle nothing, and EP-T takes the default below its threshold.
    """
    z, s, below = _preimage(cell, delegate_slice)
    response = z / np.where(s != 0.0, s, 1.0) * cell.budget
    if cell.notion is Notion.EP:
        # zero delegate support: any split is acceptable, keep the current
        # one so satisfied voters stay fixed under iteration
        return np.where(s > 0.0, response, current_slice)
    if cell.notion is Notion.EP_T:
        return np.where(below, cell.default, response)
    return response


def best_response(x, instance) -> np.ndarray:
    """Apply every voter's per-bundle operator to the whole matrix.

    Parameters
    ----------
    x : array of shape (..., n, m)
        One solution matrix, or any stack of them; stacked matrices are
        evaluated in one vectorized pass.
    instance : ElectionInstance

    Returns
    -------
    C-contiguous array of the same shape.  For feasible input the output
    is feasible: every bundle slice of the result has l1-norm equal to
    its budget.

    Notes
    -----
    ``best_response(xs)[i]`` equals ``best_response(xs[i])`` bit for bit
    in the cells of bundles with fewer than 8 members.  From 8 members
    on, numpy sums a stack's slices left to right and a single matrix's
    pairwise, so the last bits can differ: by at most 4 ulps in 18,000
    random matrices with up to 13 candidates.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-2:] != (instance.n, instance.m):
        raise ValueError(
            f"solution shape {x.shape} does not match instance "
            f"({instance.n} voters, {instance.m} candidates)"
        )
    stack = x.reshape((-1,) + x.shape[-2:])
    out = np.empty(stack.shape)
    for g in instance._groups:
        if g.notion is Notion.DIRECT:
            out[:, g.voter, g.cols] = g.budget
            continue
        # Blocks of at least two matrices keep the gathered slices laid out
        # as in a per-bundle gather, stack axis innermost, which fixes the
        # order of the slice sums (it matters from k = 8 on).
        blocks = max(1, len(stack) // max(2, _BLOCK // g.cols.size))
        bounds = [len(stack) * i // blocks for i in range(blocks + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            block = stack[lo:hi]
            out[lo:hi, g.voter, g.cols] = _respond(
                g, block[:, g.delegate, g.cols], block[:, g.voter, g.cols]
            )
    return out.reshape(x.shape)


def bundle_response(x, instance, voter, bundle) -> np.ndarray:
    """Best response of one of ``voter``'s bundles, by the bundle's notion.

    ``bundle`` is a ``Bundle`` of ``voter`` or its position in the voter's
    delegation list.  The result has shape ``(..., k)`` and holds the
    bundle's cells of ``best_response(x, instance)``: with zero delegate
    support an EP bundle keeps the voter's current slice, and the EP-T and
    EP-TI thresholds ``1 / weight`` are inclusive.

    Each call evaluates the whole map; to read many bundles, call
    ``best_response`` once and index its result.
    """
    bundles = instance.bundles_of(voter)
    if isinstance(bundle, Bundle):
        if bundle not in bundles:
            raise ValueError(f"{bundle!r} is not a bundle of voter {voter!r}")
    else:
        position = int(bundle)
        if not 0 <= position < len(bundles):
            raise IndexError(f"voter {voter!r} has no bundle {position}")
        bundle = bundles[position]
    cols = [instance.candidate_index[c] for c in bundle.members]
    return best_response(x, instance)[..., instance.voter_index[voter], cols]


def _residual_gradient(x, instance, fx) -> np.ndarray:
    """Exact gradient of ``||f(x) - x||_2^2`` at ``x``, bundle by bundle.

    ``fx`` is ``best_response(x, instance)``.  The gradient is
    ``2 (J_f^T r - r)`` with ``r = fx - x``.  Every bundle response is
    the rescaling ``z -> z / s * budget`` of the pre-image ``z`` that
    ``_preimage`` builds from the delegate's slice ``y`` alone, so
    ``J_f^T r`` is one gather and one scatter-add per group: the
    rescaling's vector-Jacobian product ``budget / s * (u - (z . u) / s)``,
    with ``u`` the bundle's cells of ``r``, pulled back through ``z(y)``.
    DIRECT cells are constant and contribute nothing.

    At the two kinks of the map the derivative is the one-sided one of
    the branch that ``best_response`` takes.  An EP bundle whose delegate
    gives it nothing keeps the voter's own slice, so its residual ``u`` is
    0 and it pulls nothing back onto the delegate's slice: the derivative
    from below, where the support stays zero.  An EP-TI bundle exactly at
    its threshold is on the proportional branch: the derivative from
    above.  EP-T has no gradient and is refused by the caller.
    """
    r = fx - x
    pulled = np.zeros_like(x)  # J_f^T r
    for g in instance._groups:
        if g.notion is Notion.DIRECT:
            continue
        if g.notion is Notion.EP_T:
            raise AssertionError("no gradient for notion EP-T")
        u = r[g.voter, g.cols]
        z, s, below = _preimage(g, x[g.delegate, g.cols])
        safe = np.where(s != 0.0, s, 1.0)
        w = g.budget / safe * (u - (z * u).sum(axis=-1, keepdims=True) / safe)
        # pull back through z(y): the identity for EP and for EP-TI at or
        # above its threshold
        if g.notion is Notion.WCC:
            w *= g.weight
        elif g.notion is Notion.EP_TI:
            w -= np.where(below, (g.default * w).sum(axis=-1, keepdims=True), 0.0)
        # delegates repeat inside a group, so the scatter must accumulate
        np.add.at(pulled, (g.delegate, g.cols), w)
    return 2.0 * (pulled - r)


def residual_norms(x, instance, fx=None) -> tuple[float, float]:
    """(l1, linf) norms of ``best_response(x) - x`` for a single matrix."""
    x = np.asarray(x, dtype=float)
    if fx is None:
        fx = best_response(x, instance)
    diff = fx - x
    return float(np.abs(diff).sum()), float(np.abs(diff).max())


@dataclass(frozen=True, eq=False)
class RegretReport:
    """Per-voter l1 regrets plus the two aggregate residual norms.

    ``max_linf`` is the largest entrywise deviation over the whole matrix,
    the quantity the weak approximate fixed-point criterion bounds.
    """

    per_voter: np.ndarray
    total_l1: float
    max_linf: float


def regret(x, instance) -> RegretReport:
    """Distance of each voter's ballot from her best response.

    A voter's regret is the l1 distance between her row and the
    best-response row; it is 0 exactly when every one of her bundle
    slices already is (for EP: is a member of) the bundle's best
    response.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("regret expects a single (n, m) matrix")
    fx = best_response(x, instance)
    diff = np.abs(fx - x)
    per_voter = diff.sum(axis=1)
    return RegretReport(
        per_voter=per_voter,
        total_l1=float(per_voter.sum()),
        max_linf=float(diff.max()),
    )
