"""Bundles as columns, and the plan compiled from them.

Every instance's bundles exist as a ``BundleColumns`` record, its
``ElectionInstance._columns``: ``io.instance_from_doc`` collects a
document's, and ``BundleColumns.of`` fills one from the ``Bundle``
objects of an instance built in code.  ``validate_instance`` checks the
record column by column, and the ``Bundle`` view of a parsed instance is
built from it on first use.  ``compile_plan`` turns it into the plan,
one flat record that ``response``, ``model``, ``solvers`` and
``counterexamples`` read (``ElectionInstance._plan``), the one compiled
form of an instance.
``io`` imports this module on its first parse and ``ElectionInstance``
on first use of either property, so importing the package does not
compile it.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .model import WEIGHTED_NOTIONS, Bundle, Notion, _exact_sum

#: Notions by code: ``BundleColumns.notion`` holds positions in this tuple.
NOTIONS = tuple(Notion)
NOTION_CODES = {notion.value: code for code, notion in enumerate(NOTIONS)}
DIRECT = NOTIONS.index(Notion.DIRECT)
WEIGHTED = [NOTIONS.index(notion) for notion in WEIGHTED_NOTIONS]


class BundleColumns(NamedTuple):
    """The bundles of an instance, one array per field.

    Entry ``b`` of each per-bundle array describes the ``b``-th bundle in
    voter-then-bundle order: ``voter`` is its voter's row, ``delegate``
    its delegate's row (-1 for a name that is no voter's), ``notion`` its
    position in ``NOTIONS``, ``size`` its member count, ``budget`` and
    ``weight`` its numbers (NaN weight where the record has none, as
    ``has_weight`` tells), ``default_size`` its default's length (-1
    where it has none).  ``cols`` holds the members' columns (-1 for a
    name that is no candidate's) and ``default`` the default entries,
    bundle after bundle.  ``members`` and ``delegates`` keep the names
    for the ``Bundle`` view.
    """

    voter: np.ndarray
    delegate: np.ndarray
    notion: np.ndarray
    size: np.ndarray
    budget: np.ndarray
    weight: np.ndarray
    has_weight: np.ndarray
    default_size: np.ndarray
    cols: np.ndarray
    default: np.ndarray
    members: list[str]
    delegates: list[str]

    @classmethod
    def of(cls, instance) -> BundleColumns:
        """The columns of ``instance.delegations``, filled in one pass over the bundles.

        A name outside the election gets -1, as in a parsed document.
        """
        candidate_index, voter_index = instance.candidate_index, instance.voter_index
        ints, floats, members, delegates, default = [], [], [], [], []
        for vi, bundles in enumerate(instance.delegations):
            for bundle in bundles:
                weighted, defaulted = bundle.weight is not None, bundle.default is not None
                ints += (
                    vi, voter_index.get(bundle.delegate, -1), NOTION_CODES[bundle.notion.value],
                    len(bundle.members), weighted, len(bundle.default) if defaulted else -1,
                )
                floats += (bundle.budget, bundle.weight if weighted else math.nan)
                members += bundle.members
                delegates.append(bundle.delegate)
                if defaulted:
                    default += bundle.default
        ints = np.array(ints, dtype=int).reshape(-1, 6).T.copy()  # one contiguous column per field
        budget, weight = np.array(floats, dtype=float).reshape(-1, 2).T.copy()
        voter, delegate, notion, size, has_weight, default_size = ints
        return cls(
            voter, delegate, notion, size, budget, weight, has_weight.astype(bool), default_size,
            np.array([candidate_index.get(c, -1) for c in members], dtype=int),
            np.array(default, dtype=float), members, delegates,
        )

    def bundles(self, n) -> tuple[tuple[Bundle, ...], ...]:
        """The bundles of each of the ``n`` voters, as ``Bundle`` objects.

        Every field already has the type ``Bundle.__post_init__`` gives it
        (a tuple of names, Python floats, a ``Notion``), so the objects
        are filled in directly rather than through the constructor.
        """
        members, default = self.members, self.default.tolist()
        flat = []
        at = default_at = 0
        for budget, delegate, code, weight, has_weight, k, dk in zip(
            self.budget.tolist(),
            self.delegates,
            self.notion.tolist(),
            self.weight.tolist(),
            self.has_weight.tolist(),
            self.size.tolist(),
            self.default_size.tolist(),
        ):
            bundle = object.__new__(Bundle)
            bundle.__dict__.update(
                members=tuple(members[at:at + k]),
                budget=budget,
                delegate=delegate,
                notion=NOTIONS[code],
                weight=weight if has_weight else None,
                default=tuple(default[default_at:default_at + dk]) if dk >= 0 else None,
            )
            flat.append(bundle)
            at += k
            default_at += max(dk, 0)
        ends = np.cumsum(np.bincount(self.voter, minlength=n)).tolist()
        return tuple(tuple(flat[lo:hi]) for lo, hi in zip([0, *ends], ends))

    def valid(self, n, m, tol) -> bool:
        """True iff ``validate_instance``'s walk would find no violation.

        Decided column by column; the instance-level rules (candidates and
        voters present and distinct) are checked before.  Budget totals
        and default norms get the walk's verdicts (``_sums_within``).
        """
        k, voter, delegate, budget = self.size, self.voter, self.delegate, self.budget
        if not (np.all(k > 0) and np.all(self.cols >= 0) and np.all(delegate >= 0)):
            return False
        # every voter's bundles partition the candidates
        cells = np.repeat(voter, k) * m + self.cols
        if cells.size != n * m or not np.all(np.bincount(cells, minlength=n * m) == 1):
            return False
        # DIRECT bundles are exactly the self-delegated ones, and singletons
        direct = self.notion == DIRECT
        if not (np.all(direct == (delegate == voter)) and np.all(k[direct] == 1)):
            return False
        if not (
            np.all(np.isfinite(budget))
            and np.all(budget >= -tol)
            and np.all(budget <= 1.0 + tol)
            and np.all(direct | (np.abs(budget) > tol))
        ):
            return False
        # weighted notions need both; any bundle carrying either needs it sound
        weighted = np.isin(self.notion, WEIGHTED)
        weight = self.weight[weighted | self.has_weight]
        defaulted = weighted | (self.default_size >= 0)
        if not (  # an absent weight is NaN, an absent default has size -1
            np.all(np.isfinite(weight))
            and np.all(weight > 0)
            and np.all(self.default_size[defaulted] == k[defaulted])
        ):
            return False
        # every bundle with a default is in ``defaulted``, so every entry is checked
        if not (np.all(np.isfinite(self.default)) and np.all(self.default >= -tol)):
            return False
        return _sums_within(budget, np.bincount(voter, minlength=n), 1.0, tol) and _sums_within(
            self.default, k[defaulted], budget[defaulted], tol
        )


def _sums_within(values, counts, targets, tol) -> bool:
    """True iff every run of ``counts[i]`` of ``values`` sums to ``targets[i]`` within ``tol``.

    Each run is summed in floats, whose rounding is at most ``counts[i] *
    eps * sum(|values|)``; a run whose distance from its target lies
    within a few times that of ``tol`` is summed again by ``_exact_sum``,
    so that every verdict is the walk's.  An empty run sums to 0.
    """
    targets = np.broadcast_to(targets, counts.shape)
    totals, scales = np.zeros(len(counts)), np.zeros(len(counts))
    starts = np.cumsum(counts) - counts
    full = counts > 0
    with np.errstate(over="ignore", invalid="ignore"):  # overflow leaves the run in doubt
        if full.any():
            totals[full] = np.add.reduceat(values, starts[full])
            scales[full] = np.add.reduceat(np.abs(values), starts[full])
        off = np.abs(totals - targets)
        doubt = np.abs(off - tol) <= 4 * (counts + 2) * np.finfo(float).eps * (scales + np.abs(targets))
    if np.any(off[~doubt] > tol):
        return False
    return not any(
        abs(_exact_sum(values[lo:lo + count].tolist()) - target) > tol
        for lo, count, target in zip(starts[doubt].tolist(), counts[doubt].tolist(), targets[doubt].tolist())
    )


#: Kind of bundle by notion code: the order of the plan's live cells.
_KIND = np.array([
    {Notion.EP: 0, Notion.EP_T: 1, Notion.WCC: 2, Notion.EP_TI: 3, Notion.DIRECT: 4}[notion]
    for notion in NOTIONS
])


class Slices(NamedTuple):
    """Slices of a flat array, summed together in one numpy call per width class.

    ``parts`` holds, for each run of sums, its span and the cells to
    gather: ``(R,)`` for one-member slices, whose sum is their cell, and
    ``(R, K)`` for a width class, the slices of ``8j`` to ``8j + 7``
    members padded to the widest of them with index -1.  numpy adds a row
    of fewer than 128 values one at a time, or with eight accumulators over
    its first ``8 * (K // 8)`` values and then one at a time, so a width
    class keeps every sum's bits as long as the last entry of the array is
    ``-0.0``, which adds nothing to any value.  Widths that cross a
    multiple of 8 would change them.  From 128 members on, where numpy
    splits the row at a point that depends on its length, each size is a
    class of its own.  (numpy's sum of a ``-0.0`` cell is ``0.0``; no
    kernel reads the sign of a zero sum.)  ``budget`` and ``last``, the
    member count less one, hold each slice's numbers in the order of the
    sums.
    """

    parts: tuple
    count: int
    budget: np.ndarray
    last: np.ndarray

    def sum(self, ext, c_order=False):
        """The sums ``(..., count)`` of the slices of ``ext`` ``(..., C + 1)``, whose last entry is ``-0.0``.

        ``ext`` is one matrix's entries, a vector, or a stack's, ``(S, C +
        1)``.  One matrix is summed in C order, so its slices of 8 or more
        members are summed pairwise.  A stack's slices are gathered stack
        axis innermost, as a per-bundle gather lays them out, and summed
        left to right, unless ``c_order`` asks for C order.
        """
        if len(self.parts) == 1 and not c_order:
            cells = self.parts[0][1]
            return (ext.T[cells] if cells.ndim == 1 else np.add.reduce(ext.T[cells], axis=1)).T
        out = np.empty((self.count, *ext.shape[:-1]))  # slice axis first, as the gathers
        for span, cells in self.parts:
            if cells.ndim == 1:
                out[span] = ext.T[cells]
            elif c_order and cells.shape[1] >= 8:
                out[span] = np.add.reduce(ext.take(cells, axis=-1), axis=-1).T
            else:
                out[span] = np.add.reduce(ext.T[cells], axis=1)
        return out.T

    def project(self, values):
        """Every slice of ``values`` projected onto ``{z >= 0, sum(z) = budget}``.

        ``values`` is one matrix's entries and a last entry of ``-inf``,
        which pads every row of a width class and sorts after its members;
        the result has the same shape, with its last entry undefined.  A
        one-member slice needs no sort: its threshold is ``v - budget``.
        """
        out = np.empty(values.shape)
        for span, cells in self.parts:
            v, total = values[cells], self.budget[span]
            if cells.ndim == 1:
                out[cells] = np.where(total <= 0.0, 0.0, np.maximum(v - (v - total), 0.0))
            else:
                out[cells] = project_rows(v, total[:, None], self.last[span])
        return out


def project_rows(values, totals, last) -> np.ndarray:
    """``model.project_simplex`` applied to every row of ``values`` ``(B, K)``.

    ``totals`` is ``(B, 1)``; ``last`` is each row's last member, and any
    later entry is a pad of ``-inf``.  Each row is sorted in decreasing
    order, pads last; the threshold ``theta`` comes from the last prefix
    whose mean excess stays below its smallest member, or from the whole
    row where none does.  A non-positive total admits only 0.
    """
    k = values.shape[-1]
    u = np.sort(values, axis=-1)[:, ::-1]
    cssv = np.cumsum(u, axis=-1) - totals
    above = u * np.arange(1, k + 1) > cssv  # never at a pad
    rho = np.minimum(k - 1 - np.argmax(above[:, ::-1], axis=-1), last)  # last True
    theta = (cssv[np.arange(len(rho)), rho] / (rho + 1.0))[:, None]
    return np.where(totals <= 0.0, 0.0, np.maximum(values - theta, 0.0))


def _slices(cells, first, k, budget):
    """The slices ``cells[first[i]:first[i] + k[i]]``, of budget ``budget[i]``, as ``Slices``.

    Returns them and the order of their sums: one-member slices first,
    then each width class, each in the order given.
    """
    width = np.where(k < 128, k // 8, k)
    width[k == 1] = -1
    order = np.argsort(width, kind="stable")
    width = width[order].tolist()
    starts = [i for i in range(len(width)) if i == 0 or width[i] != width[i - 1]]
    parts = []
    for lo, hi in zip(starts, [*starts[1:], len(width)]):
        rows = order[lo:hi]
        if width[lo] < 0:
            parts.append((slice(lo, hi), cells[first[rows]]))
            continue
        size = k[rows, None]
        j = np.arange(size.max())
        parts.append((slice(lo, hi), np.where(j < size, cells[first[rows, None] + np.minimum(j, size - 1)], -1)))
    return Slices(tuple(parts), len(width), budget[order], k[order] - 1), order


def _positions(order):
    """Where each entry of ``order`` stands in it."""
    position = np.empty(len(order), dtype=int)
    position[order] = np.arange(len(order))
    return position


class Plan(SimpleNamespace):
    """The compiled bundles of an instance, as ``compile_plan`` describes them."""


def compile_plan(columns, m) -> Plan | None:
    """The plan of the bundles in ``columns``, ``None`` where they cannot be compiled.

    The one place that turns notions into numbers.  A delegate's slice
    ``y``, with support ``nu = sum(y)``, has the pre-image ``z = c*y +
    (p + q*nu)*d``, ``d`` the default, with coefficients that may switch
    at the threshold ``1/w``:

    ======  ===  ==========  ==========  ================================
    notion  c    p, q below  p, q above  cells
    ======  ===  ==========  ==========  ================================
    EP      1    0, 0        0, 0        ``keep``: own slice at zero
                                         support
    EP-T    1    0, 0        0, 0        ``hard``: ``d`` below ``1/w``
    WCC     w    1, 0        1, 0        ``shift``
    EP-TI   1    1/w, -1     0, 0        ``blend``
    DIRECT                               ``fixed`` at ``d``, the budget
    ======  ===  ==========  ==========  ================================

    One flat record.  The live cells, the members of every bundle but the
    DIRECT ones, come in the table's order, each kind's bundles in bundle
    order.  ``live`` holds their flat indices ``voter * m + col`` in a
    raveled C-order matrix; ``gather`` their delegates' and one more
    index, whose value the kernels overwrite with the pad ``-0.0``;
    ``scale`` their budgets; ``slices`` the ``Slices`` of their bundles;
    ``row`` where each cell's slice stands in it; ``rank`` each cell's
    position in plan order (bundles grouped by (notion, size), groups in
    order of first appearance, bundle order inside each), in which
    ``scatter`` holds the delegates' cells.  Each kind is ``None`` or a
    record with ``cells``, its slice of the live cells: ``keep`` has
    ``own``; ``hard`` ``default`` and ``threshold`` per cell; ``shift``
    ``c`` and ``offset = p*d`` per cell; ``blend``, the last kind,
    ``default`` per cell, its own ``slices`` and ``row``, and per slice of
    those ``limit`` (the threshold) and ``at`` (where it stands in the
    live cells' ``slices``).  ``fixed`` (DIRECT) has ``own`` and ``default`` per cell.
    Every bundle's members, in bundle order: ``own``, ``default`` (the
    even split where a bundle has none) and ``even`` (the even split);
    ``bundles`` holds every bundle's ``Slices`` over the matrix.

    ``None`` where a bundle would index the wrong cells or divide by
    zero: an empty bundle, a name outside the election, a zero weight, or
    a default whose length is not the bundle's.
    """
    k, budget, has_default = columns.size, columns.budget, columns.default_size >= 0
    if (
        np.any(k == 0)
        or np.any(columns.delegate < 0)
        or np.any(columns.cols < 0)
        or np.any(columns.weight == 0.0)  # NaN where absent
        or np.any(columns.default_size[has_default] != k[has_default])
    ):
        return None
    kind = _KIND[columns.notion]
    live = kind < 4  # all but DIRECT
    first = np.cumsum(k) - k  # each bundle's first member
    own = np.repeat(columns.voter, k) * m + columns.cols
    delegate = np.repeat(columns.delegate, k) * m + columns.cols
    even = np.repeat(budget / k, k)
    default = even.copy()  # the even split, where there is no default
    default[np.repeat(has_default, k)] = columns.default
    fixed = np.repeat(~live, k)
    default[fixed] = np.repeat(budget[~live], k[~live])  # DIRECT is fixed at its budget
    with np.errstate(over="ignore"):  # 1.0 / w is inf for a subnormal w, as in Python
        threshold = 1.0 / columns.weight
    # plan order: the delegated bundles by the first bundle of their (notion, size) group
    key = columns.notion * (k.max(initial=0) + 1) + k
    _, head, group = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(head[group.ravel()], kind="stable")
    order = order[live[order]]
    lengths = k[order]
    # every delegated bundle's members, in plan order
    in_plan = np.repeat(first[order] - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
    rank = np.zeros(len(own), dtype=int)
    rank[in_plan] = np.arange(len(in_plan))

    # the live bundles kind by kind, and their members
    rows = np.argsort(kind, kind="stable")
    at = np.searchsorted(kind[rows], range(5)).tolist()
    rows = rows[:at[4]]
    lengths = k[rows]
    start = np.cumsum(lengths) - lengths
    cell = np.repeat(first[rows] - start, lengths) + np.arange(lengths.sum())
    slices, order = _slices(np.arange(len(cell)), start, lengths, budget[rows])
    position = _positions(order)
    row = position[np.repeat(np.arange(len(rows)), lengths)]
    ends = np.append(start, len(cell))[at].tolist()
    keep, hard, shift, blend = (slice(a, b) if b > a else None for a, b in zip(ends, ends[1:]))
    blended = rows[at[3]:]
    blend_slices, blend_order = _slices(
        np.arange(len(cell) - ends[3]), start[at[3]:] - ends[3], k[blended], budget[blended],
    )
    plan = Plan(
        live=own[cell], gather=np.append(delegate[cell], 0), scale=np.repeat(budget[rows], lengths),
        slices=slices, row=row, rank=rank[cell], scatter=delegate[in_plan],
        keep=keep and SimpleNamespace(cells=keep, own=own[cell[keep]]),
        hard=hard and SimpleNamespace(
            cells=hard, default=default[cell[hard]],
            threshold=np.repeat(threshold[rows], lengths)[hard],
        ),
        shift=shift and SimpleNamespace(
            cells=shift, c=np.repeat(columns.weight[rows], lengths)[shift], offset=default[cell[shift]],
        ),
        blend=blend and SimpleNamespace(
            cells=blend, default=default[cell[blend]], slices=blend_slices,
            row=_positions(blend_order)[np.repeat(np.arange(len(blended)), k[blended])],
            limit=threshold[blended[blend_order]], at=position[at[3] + blend_order],
        ),
        fixed=SimpleNamespace(own=own[fixed], default=default[fixed]) if fixed.any() else None,
        own=own, default=default, even=even, bundles=_slices(own, first, k, budget)[0],
    )
    return plan
