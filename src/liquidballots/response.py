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

from .model import ElectionInstance, Bundle, Notion

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


def _resolve_bundle(instance, voter, bundle):
    """Map (voter id, bundle or index) to the compiled bundle record."""
    vi = instance.voter_index[voter]
    bundles = instance.delegations[vi]
    if isinstance(bundle, Bundle):
        position = bundles.index(bundle)
    else:
        position = int(bundle)
        if not 0 <= position < len(bundles):
            raise IndexError(f"voter {voter!r} has no bundle {position}")
    offset = sum(len(instance.delegations[i]) for i in range(vi))
    return instance._plan[offset + position]


def _bundle_response(x, instance, voter, bundle, expected):
    cell = _resolve_bundle(instance, voter, bundle)
    if cell.notion is not expected:
        raise ValueError(f"bundle notion is {cell.notion.value}, expected {expected.value}")
    x = np.asarray(x, dtype=float)
    return _respond(cell, x[..., cell.delegate, cell.cols], x[..., cell.voter, cell.cols])


def br_ep(x, instance, voter, bundle) -> np.ndarray:
    """Best response of an EP bundle: the delegate's ratios at the budget.

    ``bundle`` is a ``Bundle`` of ``voter`` or its position in the voter's
    delegation list.  With zero delegate support, the voter's current
    slice is returned (a member of the correspondence, so regret is 0).
    """
    return _bundle_response(x, instance, voter, bundle, Notion.EP)


def br_ept(x, instance, voter, bundle) -> np.ndarray:
    """Best response of an EP-T bundle.

    Proportional when the delegate's support for the bundle reaches the
    threshold ``1 / weight`` (inclusive), the stored default otherwise.
    """
    return _bundle_response(x, instance, voter, bundle, Notion.EP_T)


def br_epti(x, instance, voter, bundle) -> np.ndarray:
    """Best response of an EP-TI bundle.

    Proportional at or above the threshold; below it, the delegate slice
    is topped up with ``(threshold - support) * default`` and rescaled to
    the budget.  Both branches agree exactly at the threshold.
    """
    return _bundle_response(x, instance, voter, bundle, Notion.EP_TI)


def br_wcc(x, instance, voter, bundle) -> np.ndarray:
    """Best response of a WCC bundle.

    ``default + weight * delegate_slice`` rescaled to the budget.  The
    rescaling denominator can only vanish for zero-budget bundles, where
    the zero vector is returned.
    """
    return _bundle_response(x, instance, voter, bundle, Notion.WCC)


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


def residual_norms(x, instance, fx=None) -> tuple[float, float]:
    """(l1, linf) norms of ``best_response(x) - x`` for a single matrix."""
    x = np.asarray(x, dtype=float)
    if fx is None:
        fx = best_response(x, instance)
    diff = fx - x
    return float(np.abs(diff).sum()), float(np.abs(diff).max())


def batch_linf_residuals(xs, instance) -> np.ndarray:
    """Per-matrix linf residuals for a stack of matrices ``(..., n, m)``."""
    xs = np.asarray(xs, dtype=float)
    diff = best_response(xs, instance) - xs
    return np.abs(diff).max(axis=(-2, -1))


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
