"""The four proportionality operators, the full best-response map and
the exact gradient of its squared residual.

Each operator answers one question for a delegated bundle: given the
current solution matrix, how does voter ``v`` want her bundle budget split
among the bundle's members?  All four answer it the same way: build a
pre-image ``z`` from the delegate's slice ``y`` and rescale it to the
bundle budget, ``z / sum(z) * budget``.  With ``nu = sum(y)`` the
delegate's support and ``d`` the default, every pre-image is
``z = c*y + (p + q*nu)*d``; only the coefficients depend on the notion
and on the side of the threshold ``1 / weight`` that ``nu`` is on:

EP     ``z = y``; if the delegate gives the bundle nothing, the voter is
       already satisfied and keeps her current slice.
EP-T   ``z = y`` while ``nu`` reaches the threshold; below it the
       response is the stored default itself.
EP-TI  ``z = y`` at or above the threshold, the continuous blend
       ``z = y + (threshold - nu)*d`` below it.
WCC    ``z = d + weight*y`` on both sides.

``ElectionInstance._plan`` holds coefficients and fallbacks as columns,
one flat record of every delegated bundle's cells, each kind of bundle in
one slice of them (``_columns.compile_plan``); no kernel here reads a
notion.  ``best_response`` is one gather, a fixed number of passes over
the cells and one scatter per call, whatever the bundle sizes: only the
slice sums gather the cells into rows, one gather per class of about
eight sizes, padded with ``-0.0`` (``_columns.Slices``).  It takes a
stack ``(..., n, m)`` in one pass, walked in blocks of about ``_BLOCK``
gathered cells so that temporaries stay small.  Every slice sum runs as
in a per-bundle loop: pairwise for one matrix, left to right for a stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Bundle

#: Gathered cells per block of the stack axis.
_BLOCK = 1 << 16


def _take(a, cells):
    """The ``cells`` of one matrix's flat ``a``, or of each matrix of a stack ``(S, ...)``.

    ``a.T`` puts the cell axis first, which numpy indexes fastest, and
    lays a stack's cells out stack axis innermost, as a per-bundle gather
    does; ``a.T[cells] = v.T`` writes them back the same way.
    """
    return a.T[cells].T


def _affine(plan, y):
    """Turn the delegates' cells ``y`` ``(..., C + 1)`` into pre-images, in place.

    ``y`` holds one matrix's cells or a stack's, ``(S, C + 1)``, and ends
    with the pad ``-0.0``.  ``shift`` cells become ``z = c*y + p*d``,
    ``blend`` cells ``z = y + (p + q*nu)*d`` where their slice's support
    ``nu`` is below its threshold; other cells keep ``z = y``, signed
    zeros included.  Returns ``s``, the slice sums of ``z`` in the order
    of ``plan.slices``, and the ``blend`` slices' flags of a support below
    the threshold, in the order of ``plan.blend.slices`` (or ``None``).
    """
    if plan.shift is not None:
        z = y[..., plan.shift.cells]
        z *= plan.shift.c
        z += plan.shift.offset
    s = plan.slices.sum(y)
    a, below = plan.blend, None
    if a is not None:
        nu = _take(s, a.at)
        below = nu < a.limit
        z = y[..., a.cells]
        np.copyto(z, z + _take(a.limit - nu, a.row) * a.default, where=_take(below, a.row))
        # the per-bundle formula summed a stack's blend in C order, so
        # pairwise from 8 members on
        s.T[a.at] = np.where(below, a.slices.sum(y[..., a.cells.start:], c_order=True), nu).T
    return s, below


def _kernel(plan, block):
    """Best response of the plan's live cells for one matrix or a stack.

    ``block`` is ``(n * m,)`` or ``(S, n * m)``; the result is ``(C,)`` or
    ``(S, C)``: each pre-image rescaled to the budget, ``keep`` cells' own
    values where the support is not positive, ``hard`` cells' defaults
    below the threshold.
    """
    y = _take(block, plan.gather)
    y[..., -1] = -0.0
    s, _ = _affine(plan, y)
    response = y[..., :-1] / _take(s + (s == 0.0), plan.row)  # divisor 1 at s == 0, with no select
    response *= plan.scale
    if plan.keep is not None:
        # zero delegate support: any split is acceptable, keep the current
        # one so satisfied voters stay fixed under iteration
        at = plan.keep.cells
        np.copyto(response[..., at], _take(block, plan.keep.own), where=~(_take(s, plan.row[at]) > 0.0))
    if plan.hard is not None:
        at = plan.hard.cells
        np.copyto(response[..., at], plan.hard.default, where=_take(s, plan.row[at]) < plan.hard.threshold)
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
    its budget.  Raises ``ValueError`` for a shape mismatch and for NaN
    or infinite entries.

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
    if not np.isfinite(x).all():
        raise ValueError("best-response input must be finite")
    plan = instance._plan
    stack = np.ascontiguousarray(x).reshape(-1, instance.n * instance.m)
    out = np.empty(stack.shape)
    if plan.fixed is not None:
        out.T[plan.fixed.own] = plan.fixed.default[:, None]
    # Blocks of at least two matrices sum their slices left to right, as a
    # per-bundle gather does (it matters from k = 8 on); a lone matrix is
    # resolved as a vector.
    blocks = max(1, len(stack) // max(2, _BLOCK // max(1, plan.live.size))) if plan.live.size else 0
    for i in range(blocks):
        lo, hi = len(stack) * i // blocks, len(stack) * (i + 1) // blocks
        at = lo if hi - lo == 1 else slice(lo, hi)
        out[at].T[plan.live] = _kernel(plan, stack[at]).T
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
    ``_affine`` builds from the delegate's slice ``y`` alone, so
    ``J_f^T r`` is one gather of the plan's cells and one scatter-add:
    the rescaling's vector-Jacobian product ``w = budget / s * (u - (z .
    u) / s)``, with ``u`` the bundle's cells of ``r``, pulled back through
    ``z(y) = c*y + (p + q*nu)*d`` as ``c*w + q*(d . w)``.  DIRECT cells
    are constant and pull nothing back.  Each cell sums its contributions
    in plan order, as the per-group loop did.

    At the two kinks of the map the derivative is the one-sided one of
    the branch that ``best_response`` takes.  An EP bundle whose delegate
    gives it nothing keeps the voter's own slice, so its residual ``u`` is
    0 and it pulls nothing back onto the delegate's slice: the derivative
    from below, where the support stays zero.  An EP-TI bundle exactly at
    its threshold is on the proportional branch: the derivative from
    above.  EP-T jumps at its threshold; the caller refuses it.
    """
    r = fx - x
    plan = instance._plan
    if plan.hard is not None:
        raise AssertionError("no gradient for notion EP-T")
    y = np.ravel(x)[plan.gather]
    y[-1] = -0.0
    s, below = _affine(plan, y)
    safe = s + (s == 0.0)
    u = r.ravel()[plan.live]
    y[:-1] *= u  # z * u, beside the pad
    w = (plan.slices.budget / safe)[plan.row] * (u - (plan.slices.sum(y) / safe)[plan.row])
    if plan.shift is not None:
        w[plan.shift.cells] *= plan.shift.c
    a = plan.blend
    if a is not None:
        # below the threshold v + q*(d . v), with q = -1; d * v goes beside the pad
        v = w[a.cells]
        np.multiply(a.default, v, out=y[a.cells])
        np.copyto(v, v - a.slices.sum(y[a.cells.start:])[a.row], where=below[a.row])
    pulled = np.empty(plan.live.size)  # J_f^T r, in plan order
    pulled[plan.rank] = w
    # delegates repeat, so the scatter must accumulate
    return 2.0 * (np.bincount(plan.scatter, pulled, minlength=x.size).reshape(x.shape) - r)


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
