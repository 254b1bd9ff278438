"""Bundles as columns, and the size records compiled from them.

Every instance's bundles exist as a ``BundleColumns`` record, its
``ElectionInstance._columns``: ``io.instance_from_doc`` collects a
document's, and ``BundleColumns.of`` fills one from the ``Bundle``
objects of an instance built in code.  ``validate_instance`` checks the
record column by column, and the ``Bundle`` view of a parsed instance is
built from it on first use.  ``compile_plan`` turns it into the size
records that ``response``, ``model``, ``solvers`` and ``counterexamples``
read (``ElectionInstance._plan``), the one compiled form of an instance.
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
        and default norms are summed by ``_exact_sum``, as in the walk.
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
        budgets = budget.tolist()
        ends = np.cumsum(np.bincount(voter, minlength=n)).tolist()
        if any(abs(_exact_sum(budgets[lo:hi]) - 1.0) > tol for lo, hi in zip([0, *ends], ends)):
            return False
        default, at = self.default.tolist(), 0
        for size, b in zip(k[defaulted].tolist(), budget[defaulted].tolist()):
            if abs(_exact_sum(default[at:at + size]) - b) > tol:
                return False
            at += size
        return True


#: Kind of bundle by notion code: the order of a size record's rows.
_KIND = np.array([
    {Notion.EP: 0, Notion.EP_T: 1, Notion.WCC: 2, Notion.EP_TI: 3, Notion.DIRECT: 4}[notion]
    for notion in NOTIONS
])


class Plan(tuple):
    """The size records, one per bundle size, smallest first.

    ``scatter`` holds the delegate's cell of every delegated bundle's
    members in plan order, each record's ``rank`` the positions of its
    rows in it: ``_residual_gradient`` sums each cell's contributions in
    that order.
    """

    scatter: np.ndarray


def compile_plan(columns, m) -> Plan | None:
    """The size records of the bundles in ``columns``, ``None`` where they cannot be compiled.

    The one place that turns notions into numbers.  A delegate's slice
    ``y``, with support ``nu = sum(y)``, has the pre-image ``z = c*y +
    (p + q*nu)*d``, ``d`` the default, with coefficients that may switch
    at the threshold ``1/w``:

    ======  ===  ==========  ==========  ================================
    notion  c    p, q below  p, q above  rows
    ======  ===  ==========  ==========  ================================
    EP      1    0, 0        0, 0        ``keep``: own slice at zero
                                         support
    EP-T    1    0, 0        0, 0        ``hard``: ``d`` below ``1/w``
    WCC     w    1, 0        1, 0        ``shift``
    EP-TI   1    1/w, -1     0, 0        ``blend``
    DIRECT                               ``fixed`` at ``d``, the budget
    ======  ===  ==========  ==========  ================================

    Rows come in the table's order, each kind's bundles in bundle order.
    Every record has, for all its rows, ``own`` ``(B, k)`` (the flat
    indices ``voter * m + col`` of each bundle's slice in a raveled
    C-order matrix), ``budget`` ``(B, 1)`` and ``default`` ``(B, k)``
    (the even split where a bundle has none).  For the live rows, all
    but ``fixed``: ``live``, ``delegate`` and ``rank`` ``(L, k)`` (the
    cells of the own and of the delegate's slice, and each cell's
    position in plan order: bundles grouped by (notion, size), groups in
    order of first appearance, bundle order inside each) and ``scale``
    ``(L, 1)``, their budgets.  Each kind is ``None`` or a record of its
    rows: ``rows``, their slice of the live rows, except for ``fixed``;
    ``own`` (``keep``, ``fixed``); ``default`` (``hard``, ``blend``,
    ``fixed``); ``threshold`` (``hard``, ``blend``); ``c`` and ``offset =
    p*d`` (``shift``); ``p`` and ``q`` below (``blend``).

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
    default = np.repeat(budget / k, k)  # the even split, where there is no default
    default[np.repeat(has_default, k)] = columns.default
    default[np.repeat(~live, k)] = np.repeat(budget[~live], k[~live])  # DIRECT is fixed at its budget
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

    sizes = []
    for size in sorted(set(k.tolist())):
        rows = np.flatnonzero(k == size)
        rows = rows[np.argsort(kind[rows], kind="stable")]
        cells = first[rows, None] + np.arange(size)
        at = np.searchsorted(kind[rows], range(6)).tolist()
        keep, hard, shift, blend, fixed = (slice(a, b) if b > a else None for a, b in zip(at, at[1:]))
        o, b, d, t = own[cells], budget[rows, None], default[cells], threshold[rows, None]
        sizes.append(SimpleNamespace(
            own=o, budget=b, default=d,
            live=o[:at[4]], delegate=delegate[cells[:at[4]]], rank=rank[cells[:at[4]]], scale=b[:at[4]],
            keep=keep and SimpleNamespace(rows=keep, own=o[keep]),
            hard=hard and SimpleNamespace(rows=hard, default=d[hard], threshold=t[hard]),
            shift=shift and SimpleNamespace(rows=shift, c=columns.weight[rows[shift], None], offset=d[shift]),
            blend=blend and SimpleNamespace(
                rows=blend, default=d[blend], threshold=t[blend], p=t[blend], q=-np.ones_like(t[blend]),
            ),
            fixed=fixed and SimpleNamespace(own=o[fixed], default=d[fixed]),
        ))
    plan = Plan(sizes)
    plan.scatter = delegate[in_plan]
    return plan
