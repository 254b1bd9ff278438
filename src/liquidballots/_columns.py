"""Bundles as columns: those of an instance document, and the kernels' view.

``io.instance_from_doc`` collects a document's bundles into a
``BundleColumns`` record, and the instance it returns carries the
record: ``validate_instance`` checks it column by column, the grouped
plan is cut from it, and the ``Bundle`` view is built from it on first
use.  ``size_view`` regroups any instance's plan by bundle size into the
columns that ``response``, ``model`` and ``solvers`` read.  ``io``
imports this module on its first parse and ``ElectionInstance._by_size``
on its first use, so importing the package does not compile it.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .model import WEIGHTED_NOTIONS, Bundle, Notion, _BundleGroup, _exact_sum

#: Notions by code: ``BundleColumns.notion`` holds positions in this tuple.
NOTIONS = tuple(Notion)
NOTION_CODES = {notion.value: code for code, notion in enumerate(NOTIONS)}
DIRECT = NOTIONS.index(Notion.DIRECT)
WEIGHTED = [NOTIONS.index(notion) for notion in WEIGHTED_NOTIONS]


class BundleColumns(NamedTuple):
    """The bundles of an instance read from a document, one array per field.

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

    def plan(self) -> tuple[_BundleGroup, ...] | None:
        """``ElectionInstance._plan``, built from the columns.

        ``None`` where compiling the ``Bundle`` view would fail or misalign
        rows: an empty bundle, a name outside the election, a zero weight,
        or a default whose length is not the bundle's.
        """
        k = self.size
        has_default = self.default_size >= 0
        if (
            np.any(k == 0)
            or np.any(self.delegate < 0)
            or np.any(self.cols < 0)
            or np.any(self.weight == 0.0)  # NaN where absent
            or np.any(self.default_size[has_default] != k[has_default])
        ):
            return None
        if not len(k):
            return ()
        starts = np.cumsum(k) - k
        default = np.repeat(self.budget / k, k)  # the even split, where there is no default
        default[np.repeat(has_default, k)] = self.default
        with np.errstate(over="ignore"):  # 1.0 / w is inf for a subnormal w, as in Python
            threshold = 1.0 / self.weight
        key = self.notion * (k.max() + 1) + k  # one per (notion, k)
        order = np.argsort(key, kind="stable")
        groups = []
        # rows ascend within a group; groups come in order of first
        # appearance, as _plan compiles them
        for rows in sorted(
            np.split(order, np.flatnonzero(np.diff(key[order])) + 1), key=lambda rows: rows[0]
        ):
            cells = starts[rows, None] + np.arange(k[rows[0]])
            groups.append(
                _BundleGroup(
                    notion=NOTIONS[self.notion[rows[0]]],
                    index=rows,
                    voter=self.voter[rows, None],
                    delegate=self.delegate[rows, None],
                    cols=self.cols[cells],
                    budget=self.budget[rows, None],
                    weight=self.weight[rows, None],
                    threshold=threshold[rows, None],
                    default=default[cells],
                )
            )
        return tuple(groups)

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


#: Rows of a size record, in order: kinds of bundle by notion.
_KINDS = {Notion.EP: 0, Notion.EP_T: 1, Notion.WCC: 2, Notion.EP_TI: 3, Notion.DIRECT: 4}


def size_view(plan, m) -> tuple[SimpleNamespace, ...]:
    """The bundles of ``plan`` regrouped by size ``k`` alone, one record per size.

    The one place that turns notions into numbers, from the plan and never
    from ``delegations``.  A delegate's slice ``y``, with support ``nu =
    sum(y)``, has the pre-image ``z = c*y + (p + q*nu)*d``, ``d`` the
    default, with coefficients that may switch at the threshold ``1/w``:

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

    Rows come in the table's order, each kind's bundles in plan order.
    Every record has, for all its rows, ``own`` ``(B, k)`` (the flat
    indices ``voter * m + col`` of each bundle's slice in a raveled
    C-order matrix), ``budget`` ``(B, 1)`` and ``default`` ``(B, k)``
    (the even split where a bundle has none).  For the live rows, all
    but ``fixed``: ``live``, ``delegate`` and ``rank`` ``(L, k)`` (the
    cells of the own and of the delegate's slice, and each cell's
    position when the plan's delegated groups are walked in order) and
    ``scale`` ``(L, 1)``, their budgets.  Each kind is ``None`` or a
    record of its rows: ``rows``, their slice of the live rows, except
    for ``fixed``; ``own`` (``keep``, ``fixed``); ``default`` (``hard``,
    ``blend``, ``fixed``); ``threshold`` (``hard``, ``blend``); ``c`` and
    ``offset = p*d`` (``shift``); ``p`` and ``q`` below (``blend``).
    """
    by_size: dict[int, list[tuple]] = {}
    rank = 0
    for g in plan:
        b, k = g.cols.shape
        one, zero = np.ones((b, 1)), np.zeros((b, 1))
        c, p, q, default = one, zero, zero, g.default
        if g.notion is Notion.WCC:
            c, p = g.weight, one
        elif g.notion is Notion.EP_TI:
            p, q = g.threshold, -one
        elif g.notion is Notion.DIRECT:
            default = np.broadcast_to(g.budget, (b, k))
        by_size.setdefault(k, []).append((
            _KINDS[g.notion], g.voter * m + g.cols, g.budget, default, g.delegate * m + g.cols,
            rank + np.arange(b * k).reshape(b, k), g.threshold, c, p, q,
        ))
        rank += 0 if g.notion is Notion.DIRECT else b * k
    sizes = []
    for rows in by_size.values():
        rows.sort(key=lambda row: row[0])  # stable: plan order within a kind
        kinds, *columns = zip(*rows)
        own, budget, default, delegate, ranks, threshold, c, p, q = map(np.concatenate, columns)
        starts = np.searchsorted(np.repeat(kinds, [len(cells) for cells in columns[0]]), range(5)).tolist()
        keep, hard, shift, blend, fixed = (
            slice(a, b) if b > a else None for a, b in zip(starts, [*starts[1:], len(own)])
        )
        live = starts[4]
        sizes.append(SimpleNamespace(
            own=own, budget=budget, default=default,
            live=own[:live], delegate=delegate[:live], rank=ranks[:live], scale=budget[:live],
            keep=keep and SimpleNamespace(rows=keep, own=own[keep]),
            hard=hard and SimpleNamespace(rows=hard, default=default[hard], threshold=threshold[hard]),
            shift=shift and SimpleNamespace(rows=shift, c=c[shift], offset=p[shift] * default[shift]),
            blend=blend and SimpleNamespace(
                rows=blend, default=default[blend], threshold=threshold[blend], p=p[blend], q=q[blend],
            ),
            fixed=fixed and SimpleNamespace(own=own[fixed], default=default[fixed]),
        ))
    return tuple(sizes)
