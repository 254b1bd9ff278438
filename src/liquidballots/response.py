"""The four proportionality operators and the full best-response map.

Each operator answers one question for a delegated bundle: given the
current solution matrix, how does voter ``v`` want her bundle budget split
among the bundle's members?

EP     exact proportionality: copy the delegate's support ratios; if the
       delegate gives the bundle nothing, the voter is already satisfied
       and keeps her current slice.
EP-T   hard threshold: proportional while the delegate's support for the
       bundle reaches ``1 / weight``, the stored default below that.
EP-TI  thresholded with interpolation: as EP-T above the threshold, a
       continuous blend of delegate slice and default below it.
WCC    weighted convex combination: always ``default + weight * delegate
       slice``, rescaled to the bundle budget.

``best_response`` runs off the instance's grouped plan: all bundles that
share a notion and a size ``k`` are one group, holding ``(B, 1)`` voter
and delegate rows, a ``(B, k)`` column table and ``(B, 1)`` budgets,
weights and thresholds.  Each group costs one fancy-indexed gather, one
call of its notion kernel and one scatter, whatever the number of
bundles; DIRECT singletons are one constant scatter.  Stacked input
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


def _proportional(delegate_slice, budget):
    """Scale the delegate's slice to the bundle budget, keeping its ratios."""
    nu = delegate_slice.sum(axis=-1, keepdims=True)
    safe = np.where(nu != 0.0, nu, 1.0)
    return delegate_slice / safe * budget


def _interpolated(delegate_slice, default, threshold, budget):
    """Blend of delegate slice and default used below the threshold.

    The blend weight on the default grows linearly as the delegate's
    support falls from the threshold to zero; the result is rescaled to
    the bundle budget.
    """
    nu = delegate_slice.sum(axis=-1, keepdims=True)
    z = delegate_slice + (threshold - nu) * default
    zn = z.sum(axis=-1, keepdims=True)
    safe = np.where(zn != 0.0, zn, 1.0)
    return z / safe * budget


def _combined(delegate_slice, default, weight, budget):
    """Weighted convex combination of default and delegate slice."""
    z = default + weight * delegate_slice
    zn = z.sum(axis=-1, keepdims=True)
    safe = np.where(zn != 0.0, zn, 1.0)
    return z / safe * budget


def _respond(cell, delegate_slice, current_slice):
    """Dispatch a compiled bundle, or a group of them, to its notion kernel.

    Slices have shape ``(..., k)``; leading axes are evaluated together.
    ``cell`` is one ``_CompiledBundle`` (scalar parameters) or one
    ``_BundleGroup`` (``(B, 1)`` parameters, slices ``(..., B, k)``).
    """
    notion = cell.notion
    if notion is Notion.EP:
        nu = delegate_slice.sum(axis=-1, keepdims=True)
        prop = _proportional(delegate_slice, cell.budget)
        # zero delegate support: any split is acceptable, keep the current
        # one so satisfied voters stay fixed under iteration
        return np.where(nu > 0.0, prop, current_slice)
    if notion is Notion.EP_T:
        nu = delegate_slice.sum(axis=-1, keepdims=True)
        prop = _proportional(delegate_slice, cell.budget)
        return np.where(nu >= cell.threshold, prop, cell.default)
    if notion is Notion.EP_TI:
        nu = delegate_slice.sum(axis=-1, keepdims=True)
        prop = _proportional(delegate_slice, cell.budget)
        interp = _interpolated(delegate_slice, cell.default, cell.threshold, cell.budget)
        return np.where(nu >= cell.threshold, prop, interp)
    if notion is Notion.WCC:
        return _combined(delegate_slice, cell.default, cell.weight, cell.budget)
    raise AssertionError(f"unexpected notion {notion}")


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
