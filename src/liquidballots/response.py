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
one record per bundle size with each kind of bundle in one slice of rows
(``_columns.compile_plan``); no kernel here reads a notion.  ``best_response``
costs one gather, ``_kernel`` call and scatter per bundle size, and takes
a stack ``(..., n, m)`` in one pass, walked in blocks of about ``_BLOCK``
gathered elements per size so that temporaries stay small.  Every slice
sum runs along the last axis, as in a per-bundle loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Bundle

#: Gathered elements per block of the stack axis, per bundle size.
_BLOCK = 1 << 16


def _sum(z):
    """``z.sum(axis=-1, keepdims=True)``, without the Python wrapper of ``ndarray.sum``."""
    return np.add.reduce(z, axis=-1, keepdims=True)


def _gather(block, cells):
    """The cells ``(B, k)`` of every matrix of ``block`` ``(S, n * m)``, ``(S, B, k)``.

    One matrix is gathered in C order, so its slice sums are pairwise from
    8 members on.  A stack's slices are laid out stack axis innermost, as a
    per-bundle gather lays them out, and summed left to right.
    """
    return block[:, cells]


def _affine(size, y):
    """Turn the delegates' slices ``y`` ``(..., L, k)`` into pre-images, in place.

    ``shift`` rows become ``z = c*y + p*d``, ``blend`` rows ``z = y + (p +
    q*nu)*d`` below their threshold; other rows keep ``z = y``, signed
    zeros included.  Returns ``s``, the sums of ``z``, and the ``blend``
    rows' flags of a support below the threshold (or ``None``).
    """
    if size.shift is not None:
        z = y[..., size.shift.rows, :]
        z *= size.shift.c
        z += size.shift.offset
    a, below = size.blend, None
    if a is not None:
        z = y[..., a.rows, :]
        nu = _sum(z)
        below = nu < a.threshold
        blend = z + (a.p + a.q * nu) * a.default
        np.copyto(z, blend, where=below)
    s = _sum(y)
    if below is not None and y.ndim > 2 and len(y) > 1 and y.shape[-1] >= 8:
        # the blend's (..., L, 1) support lays it out in C order, so a
        # stack sums it pairwise, as the per-bundle formula always has
        s[..., a.rows, :] = np.where(below, _sum(blend), s[..., a.rows, :])
    return s, below


def _kernel(size, block):
    """Best response of a size record's live rows for every matrix of ``block``.

    ``block`` is ``(S, n * m)``; the result is ``(S, L, k)``: each
    pre-image rescaled to the budget, ``keep`` rows' own slices where the
    support is not positive, ``hard`` rows' defaults below the threshold.
    """
    y = _gather(block, size.delegate)
    s, _ = _affine(size, y)
    response = y / (s + (s == 0.0)) * size.scale  # divisor 1 at s == 0, with no select
    if size.keep is not None:
        # zero delegate support: any split is acceptable, keep the current
        # one so satisfied voters stay fixed under iteration
        rows = size.keep.rows
        np.copyto(response[..., rows, :], _gather(block, size.keep.own), where=~(s[..., rows, :] > 0.0))
    if size.hard is not None:
        rows = size.hard.rows
        np.copyto(response[..., rows, :], size.hard.default, where=s[..., rows, :] < size.hard.threshold)
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
    stack = np.ascontiguousarray(x).reshape(-1, instance.n * instance.m)
    out = np.empty(stack.shape)
    for size in instance._plan:
        if size.fixed is not None:
            out[:, size.fixed.own] = size.fixed.default
        if not size.delegate.size:
            continue
        # Blocks of at least two matrices sum their slices left to right,
        # as a per-bundle gather does (it matters from k = 8 on).
        blocks = len(stack) // max(2, _BLOCK // size.delegate.size)
        if blocks <= 1:
            out[:, size.live] = _kernel(size, stack)
            continue
        bounds = [len(stack) * i // blocks for i in range(blocks + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            out[lo:hi, size.live] = _kernel(size, stack[lo:hi])
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
    ``J_f^T r`` is one gather per bundle size and one scatter-add: the
    rescaling's vector-Jacobian product ``w = budget / s * (u - (z . u) /
    s)``, with ``u`` the bundle's cells of ``r``, pulled back through
    ``z(y) = c*y + (p + q*nu)*d`` as ``c*w + q*(d . w)``.  DIRECT
    cells are constant and pull nothing back.  Each cell
    sums its contributions in plan order, as the per-group loop did.

    At the two kinks of the map the derivative is the one-sided one of
    the branch that ``best_response`` takes.  An EP bundle whose delegate
    gives it nothing keeps the voter's own slice, so its residual ``u`` is
    0 and it pulls nothing back onto the delegate's slice: the derivative
    from below, where the support stays zero.  An EP-TI bundle exactly at
    its threshold is on the proportional branch: the derivative from
    above.  EP-T jumps at its threshold; the caller refuses it.
    """
    r = fx - x
    flat, residual = np.ravel(x), r.ravel()
    plan = instance._plan
    pulled = np.empty(plan.scatter.size)  # J_f^T r, in plan order
    for size in plan:
        if size.hard is not None:
            raise AssertionError("no gradient for notion EP-T")
        y = flat[size.delegate]
        s, below = _affine(size, y)
        safe = s + (s == 0.0)
        u = residual[size.live]
        w = size.scale / safe * (u - _sum(y * u) / safe)
        if size.shift is not None:
            w[size.shift.rows] *= size.shift.c
        if size.blend is not None:
            a = size.blend
            v = w[a.rows]
            np.copyto(v, v + a.q * _sum(a.default * v), where=below)
        pulled[size.rank] = w
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
