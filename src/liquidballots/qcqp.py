"""Polynomial constraint export for external exact solvers.

``export_qcqp`` turns an instance into a self-documented s-expression
constraint system over one real variable per (voter, candidate) cell:
box bounds, row and bundle sums, and per bundle the bilinear (EP),
quadratic (WCC) or implied (EP-TI, emitted natively rather than through
0/1 indicators) equalities of its notion; the README has the grammar.
Every exact solution of the instance satisfies the system, so external
tools over real arithmetic (QCQP solvers, quantifier-free real-closed
decision procedures) can search for solutions or prove none exist.
EP-T is rejected: its discontinuous switch has no encoding that would
not overstate what the notion guarantees.

The system is compiled into arrays per family of constraints from the
instance's plan and columns, never its ``Bundle`` view; ``violations``
and ``satisfied_by`` evaluate each family in a fixed number of numpy
passes and render only what fails.  A verdict is that of the rendered
constraint: its numbers as printed, sums and products left to right, an
implication's antecedent at tolerance 0, so NaN breaks what it enters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from types import SimpleNamespace

import numpy as np

from .io import _format_number
from .model import Notion

#: Constraint kinds by family code, in the order the families are emitted.
_KINDS = ("bound", "row-sum", "bundle-sum", "ep", "wcc", "epti-prop", "epti-interp")
#: The family of a bundle's nonlinear constraints by notion code (a position in ``Notion``).
_FAMILY = np.array([{Notion.EP: 3, Notion.WCC: 4, Notion.EP_TI: 5}.get(notion, 0) for notion in Notion])
#: The columns of the compiled system that the assertions read as lists.
_WORDS = ("first", "size", "budget", "weight", "dsum", "default")


def _sum(names) -> str:
    return names[0] if len(names) == 1 else f"(+ {' '.join(names)})"


def _ratio(own, dlg, a, b) -> str:
    return f"(= (* {own[a]} {dlg[b]}) (* {dlg[a]} {own[b]}))"


def _read(text) -> tuple:
    """The s-expression ``text`` as nested tuples of strings."""
    stack = [[]]
    for token in text.replace("(", "( ").replace(")", " )").split():
        if token == ")":
            token = tuple(stack.pop())
        if token == "(":
            stack.append([])
        else:
            stack[-1].append(token)
    return stack[0][0]


@dataclass(frozen=True, eq=False)
class ConstraintExport:
    """A rendered constraint system plus its structured form.

    ``constraints`` pairs each assertion with a kind tag (``bound``,
    ``row-sum``, ``bundle-sum``, ``ep``, ``wcc``, ``epti-prop``,
    ``epti-interp``) so callers can count or filter; ``text`` is the
    canonical s-expression document.  Both are built on first use.
    """

    variables: tuple[str, ...]
    variable_cells: dict[str, tuple[int, int]]
    header: tuple[str, ...]
    _system: SimpleNamespace = field(repr=False)  # the compiled families, see ``export_qcqp``

    @cached_property
    def constraints(self) -> tuple[tuple[str, tuple], ...]:
        return tuple((kind, _read(text)) for kind, text in self._assertions())

    @property
    def text(self) -> str:
        lines = [f";; {line}" for line in self.header]
        lines += [f"(declare-const {name} Real)" for name in self.variables]
        lines += [f"(assert {text})" for _, text in self._assertions()]
        return "\n".join(lines) + "\n"

    @cached_property
    def _words(self) -> SimpleNamespace:
        """Each member's own and delegate variable, and the numbers the assertions print."""
        s, name = self._system, self.variables.__getitem__
        own, dlg = (list(map(name, cells.tolist())) for cells in (s.own, s.dlg))
        return SimpleNamespace(own=own, dlg=dlg, **{key: getattr(s, key).tolist() for key in _WORDS})

    def _assertions(self, at=slice(None)) -> list[tuple[str, str]]:
        """The kind and s-expression of the constraints at positions ``at``."""
        s = self._system
        found = zip(s.family[at].tolist(), s.owner[at].tolist(), s.slot[at].tolist())
        return [(_KINDS[family], self._assertion(family, owner, slot)) for family, owner, slot in found]

    def _assertion(self, family, owner, slot) -> str:
        """Constraint ``slot`` (pair or member) of family ``family`` of cell, voter or bundle ``owner``."""
        w = self._words
        if family == 0:
            name = self.variables[owner]
            return f"(and (>= {name} 0) (<= {name} 1))"
        if family == 1:
            m = self._system.shape[1]
            return f"(= {_sum(self.variables[owner * m:owner * m + m])} 1)"
        lo, k = w.first[owner], w.size[owner]
        own, dlg = w.own[lo:lo + k], w.dlg[lo:lo + k]
        if family == 3:
            a, r = divmod(slot, k - 1)
            return _ratio(own, dlg, a, r + (r >= a))
        budget = _format_number(w.budget[owner])
        if family == 2:
            return f"(= {_sum(own)} {budget})"
        support = f"(+ {' '.join(dlg)})"
        if family == 4:
            weight = _format_number(w.weight[owner])
            norm = f"(+ {_format_number(w.dsum[owner])} (* {weight} {support}))"
            scaled = f"(+ {_format_number(w.default[lo + slot])} (* {weight} {dlg[slot]}))"
            return f"(= (* {own[slot]} {norm}) (* {scaled} {budget}))"
        eps = f"(/ 1 {_format_number(w.weight[owner])})"
        if family == 5:
            pairs = " ".join([_ratio(own, dlg, a, b) for a in range(k) for b in range(k) if a != b])
            return f"(=> (>= {support} {eps}) (and {pairs}))"
        slack, ds = f"(- {eps} {support})", map(_format_number, w.default[lo:lo + k])
        norm = f"(+ {support} (* {slack} {budget}))"
        interp = [f"(= (* {x} {norm}) (* (+ {y} (* {slack} {d})) {budget}))" for x, y, d in zip(own, dlg, ds)]
        return f"(=> (< {support} {eps}) (and {' '.join(interp)}))"

    def _failing(self, x, tol) -> np.ndarray:
        """Positions of the constraints that ``x`` breaks at ``tol``, in order."""
        s, wcc, epti = self._system, self._system.wcc, self._system.epti
        x = np.asarray(x, dtype=float)
        if x.shape != s.shape:
            n, m = s.shape
            raise ValueError(f"solution shape {x.shape} does not match instance ({n} voters, {m} candidates)")
        values = np.append(x, 0.0)  # row-major cells, then the pad of every slice
        ok = np.empty(len(s.family), dtype=bool)
        with np.errstate(all="ignore"):  # inf and NaN entries get the verdicts of substitution
            sums = np.cumsum(values[s.slices], axis=1)[:, -1]  # left to right, as Python's sum
            ok[:x.size] = (values[:-1] >= 0.0 - tol) & (values[:-1] <= 1.0 + tol)
            ok[x.size:x.size + len(s.total)] = np.abs(sums[:len(s.total)] - s.total) <= tol
            a, b, c, d = values[s.pairs]
            paired = np.abs(a * b - c * d) <= tol
            ok[s.ep_at] = paired[:len(s.ep_at)]
            lhs = values[wcc.own] * (wcc.dsum + wcc.weight * sums[wcc.support])
            ok[wcc.at] = np.abs(lhs - (wcc.default + wcc.weight * values[wcc.dlg]) * wcc.budget) <= tol
            nu = sums[epti.support]
            broken = np.bincount(epti.pair_row[~paired[len(s.ep_at):]], minlength=len(nu))
            ok[epti.at] = ~(nu >= epti.eps) | (broken == 0)
            slack = epti.eps[epti.row] - nu[epti.row]
            lhs = values[epti.own] * (nu[epti.row] + slack * epti.budget)
            rhs = (values[epti.dlg] + slack * epti.default) * epti.budget
            broken = np.bincount(epti.row[~(np.abs(lhs - rhs) <= tol)], minlength=len(nu))
            ok[epti.at + 1] = ~(nu < epti.eps) | (broken == 0)
        return np.flatnonzero(~ok)

    def violations(self, x, tol=1e-6) -> list[str]:
        """Constraints the matrix ``x`` breaks at tolerance ``tol``."""
        return [f"{kind}: {text}" for kind, text in self._assertions(self._failing(x, tol))]

    def satisfied_by(self, x, tol=1e-6) -> bool:
        return not self._failing(x, tol).size


def _spread(count, start=0):
    """Of ``count[0]``, then ``count[1]``, ... items: each one's group ``g``, place in it + ``start[g]``."""
    group = np.repeat(np.arange(len(count)), count)
    return group, np.arange(len(group)) - (np.cumsum(count) - count - start)[group]


def export_qcqp(instance) -> ConstraintExport:
    """Emit the polynomial constraint system of an instance.

    Raises ``InvalidInstanceError`` where the bundles cannot be compiled
    (``ElectionInstance._plan``) and ``ValueError`` for an EP-T bundle.
    Constraint ``i`` is ``ConstraintExport._assertion(family[i], owner[i],
    slot[i])``.  ``slices`` pads rows, bundles and delegate slices with the
    cell after the last; ``pairs`` holds own a, delegate b, delegate a, own
    b of each ordered member pair ``(a, b)``, ``a != b``, ``a`` major.
    """
    plan, columns, n, m = instance._plan, instance._columns, instance.n, instance.m
    if plan.hard is not None:
        raise ValueError("EP-T bundles have no continuous encoding; export refused")
    from ._columns import _slices  # loaded with the plan

    k, weight, budget = columns.size, columns.weight, columns.budget + 0.0  # + 0.0: as printed, no -0
    own, default, first = plan.own, plan.default, np.cumsum(k) - k
    dlg = np.repeat(columns.delegate, k) * m + columns.cols
    fam = _FAMILY[columns.notion] * (k > 1)  # singleton slices are pinned by their bundle sum
    bundle, local = _spread(np.where(fam == 3, k * (k - 1), np.where(fam == 4, k, (fam == 5) * 2)))
    kinds = fam[bundle]
    family = np.concatenate([np.repeat([0, 1, 2], [n * m, n, len(k)]), kinds + (kinds == 5) * local])
    owner = np.concatenate([np.arange(n * m), np.arange(n), np.arange(len(k)), bundle])
    slot = np.concatenate([np.zeros(len(family) - len(local), dtype=int), local])
    ep_at, at = np.flatnonzero(family == 3), np.flatnonzero(family == 4)
    pb, wb, eb = (np.flatnonzero(fam == f) for f in (3, 4, 5))
    summed = np.concatenate([wb, eb])  # whose delegate slices are summed, after the rows and bundles
    starts = np.concatenate([np.arange(n) * m, n * m + first, n * m + len(own) + first[summed]])
    sizes = np.concatenate([np.full(n, m), k, k[summed]])
    cells = np.concatenate([np.arange(n * m), own, dlg, [n * m]])
    j = np.arange(max(m, k.max(initial=1)))
    dsum = np.full(len(k), np.nan)  # np.sum of each WCC default, pairwise from 8 members on
    sums, order = _slices(np.arange(len(own)), first[wb], k[wb], budget[wb])
    dsum[wb[order]] = sums.sum(np.append(default, -0.0)) + 0.0
    b, i = owner[at], first[owner[at]] + slot[at]
    wcc = SimpleNamespace(
        at=at, own=own[i], dlg=dlg[i], support=n + len(k) + np.searchsorted(wb, b), weight=weight[b],
        default=default[i] + 0.0, budget=budget[b], dsum=dsum[b],
    )
    paired = np.concatenate([pb, eb])
    pair_row, pair = _spread(k[paired] * (k[paired] - 1))
    a, r = np.divmod(pair, k[paired][pair_row] - 1)
    a, c = first[paired][pair_row] + a, first[paired][pair_row] + r + (r >= a)
    row, i = _spread(k[eb], first[eb])
    with np.errstate(over="ignore"):  # 1.0 / w is inf for a subnormal w, as in Python
        eps = 1.0 / weight[eb]
    epti = SimpleNamespace(
        at=np.flatnonzero(family == 5), support=n + len(k) + len(wb) + np.arange(len(eb)), eps=eps,
        pair_row=pair_row[len(ep_at):] - len(pb), row=row, own=own[i], dlg=dlg[i], default=default[i] + 0.0,
        budget=budget[eb][row],
    )
    system = SimpleNamespace(
        shape=(n, m), family=family, owner=owner, slot=slot, ep_at=ep_at, wcc=wcc, epti=epti,
        slices=np.where(j < sizes[:, None], cells[np.minimum(starts[:, None] + j, len(cells) - 1)], n * m),
        total=np.concatenate([np.ones(n), budget]), pairs=np.stack([own[a], dlg[c], dlg[a], own[c]]),
        own=own, dlg=dlg, first=first, size=k, budget=budget, weight=weight, dsum=dsum, default=default,
    )
    variables = tuple([p + q for p in [f"x_{vi}" for vi in range(n)] for q in [f"_{ci}" for ci in range(m)]])
    header = (
        "feasibility system for a cumulative-ballot delegation instance",
        "x_<voter>_<candidate> is the support the voter gives the candidate",
        *(f"voter {i}: {name}" for i, name in enumerate(instance.voters)),
        *(f"candidate {j}: {name}" for j, name in enumerate(instance.candidates)),
    )
    return ConstraintExport(variables, dict(zip(variables, product(range(n), range(m)))), header, system)
