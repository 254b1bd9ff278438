"""Domain model for elections with fine-grained cumulative delegations.

An election pairs an ordered candidate list with an ordered voter list.
Every voter partitions the candidate set into *bundles*, reserves a budget
for each bundle, and names a delegate who decides how that budget is split
among the bundle's members.  Candidate solutions are plain ``(n, m)`` float
arrays ("solution matrices"): row ``v`` is voter ``v``'s cumulative ballot,
column ``c`` the support given to candidate ``c``.

All model types are immutable after construction and every operation here
is a pure function, so instances can be shared freely across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

# Absolute tolerance for budget bookkeeping during validation.  Instances
# loaded from files carry double-precision rounding, so exact sums cannot
# be demanded.
BUDGET_TOL = 1e-9


class Notion(str, Enum):
    """Resolution rule applied to a delegated bundle.

    ``DIRECT`` marks self-delegated singletons: the voter fixes the value
    of the single member to the bundle budget herself.
    """

    EP = "EP"
    EP_T = "EP-T"
    EP_TI = "EP-TI"
    WCC = "WCC"
    DIRECT = "DIRECT"


#: Notions that require a confidence weight and a default vector.
WEIGHTED_NOTIONS = frozenset({Notion.EP_T, Notion.EP_TI, Notion.WCC})


def _exact_sum(values) -> float:
    """``math.fsum``: correctly rounded, so independent of the order of ``values``.

    Where ``fsum`` refuses (``inf - inf``, an intermediate overflow) this
    is the plain sum, NaN or infinite there.
    """
    try:
        return math.fsum(values)
    except (ValueError, OverflowError):
        return sum(values)


@dataclass(frozen=True)
class Bundle:
    """One entry of a voter's partition of the candidate set.

    Parameters
    ----------
    members : tuple of str
        Candidates the bundle covers.  Order is significant: ``default``
        entries and all bundle-local vectors align with it.
    budget : float
        Share of the voter's unit support reserved for this bundle.
    delegate : str
        Voter entrusted with splitting the budget inside the bundle.
    notion : Notion or str
        Resolution rule for the bundle.
    weight : float, optional
        Confidence in the delegate; must be positive.  Required for the
        EP-T, EP-TI and WCC notions.
    default : tuple of float, optional
        Fallback split over ``members`` with l1-norm equal to ``budget``.
        Required for the EP-T, EP-TI and WCC notions.
    """

    members: tuple[str, ...]
    budget: float
    delegate: str
    notion: Notion
    weight: float | None = None
    default: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "budget", float(self.budget))
        object.__setattr__(self, "notion", Notion(self.notion))
        if self.weight is not None:
            object.__setattr__(self, "weight", float(self.weight))
        if self.default is not None:
            object.__setattr__(
                self, "default", tuple(float(d) for d in self.default)
            )

    @property
    def threshold(self) -> float | None:
        """Delegate-support level below which confidence lapses.

        Always computed as ``1 / weight``; never stored independently.
        May exceed 1 when ``weight < 1``, in which case the low-confidence
        branch of the notion is permanently active.
        """
        if self.weight is None:
            return None
        return 1.0 / self.weight


@dataclass(frozen=True)
class ElectionInstance:
    """An election with per-voter fine-grained cumulative delegations.

    ``delegations[i]`` holds the bundles of ``voters[i]``.  Candidate and
    voter order is authoritative: all solution matrices use it for their
    column and row indices.

    Every instance also holds its bundles as columns, ``_columns``, and
    compiles them once into ``_plan``, the flat record that every kernel
    reads (see ``_columns``).  An instance built in code fills its
    columns from ``delegations`` on first use; one read from a document
    (``io.instance_from_doc``) carries the columns it was read from, and
    makes its ``delegations`` from them on first use.
    """

    candidates: tuple[str, ...]
    voters: tuple[str, ...]
    delegations: tuple[tuple[Bundle, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))
        object.__setattr__(self, "voters", tuple(self.voters))
        object.__setattr__(
            self,
            "delegations",
            tuple(tuple(bundles) for bundles in self.delegations),
        )

    @classmethod
    def _from_columns(cls, candidates, voters, columns):
        """An instance whose bundles are ``columns``, a ``_columns.BundleColumns``."""
        instance = object.__new__(cls)
        fields = instance.__dict__
        fields.update(candidates=tuple(candidates), voters=tuple(voters), _columns=columns)
        return instance

    def __getattr__(self, name):
        # reached only for attributes the instance lacks: the delegations
        # of an instance made by _from_columns, until first use
        columns = self.__dict__.get("_columns")
        if name != "delegations" or columns is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        delegations = columns.bundles(len(self.voters))
        object.__setattr__(self, "delegations", delegations)
        return delegations

    @property
    def n(self) -> int:
        """Number of voters."""
        return len(self.voters)

    @property
    def m(self) -> int:
        """Number of candidates."""
        return len(self.candidates)

    @cached_property
    def candidate_index(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(self.candidates)}

    @cached_property
    def voter_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.voters)}

    @property
    def _rows(self) -> int:
        """Rows of ``delegations``: one per voter in an instance read from a document."""
        return len(self.__dict__.get("delegations", self.voters))

    def bundles_of(self, voter: str) -> tuple[Bundle, ...]:
        return self.delegations[self.voter_index[voter]]

    @cached_property
    def _columns(self):
        """The bundles as columns, filled from ``delegations``: ``_columns.BundleColumns.of``."""
        from ._columns import BundleColumns  # compiled on first use, like the parse

        return BundleColumns.of(self)

    @cached_property
    def _plan(self):
        """The flat record every kernel reads: ``_columns.compile_plan``.

        Raises ``InvalidInstanceError``, with the report of
        ``validate_instance``, where the bundles cannot be compiled: not
        one row of ``delegations`` per voter, an empty bundle, a name
        outside the election, a zero weight or a default whose length is
        not the bundle's.
        """
        from ._columns import compile_plan

        plan = compile_plan(self._columns, self.m) if self._rows == self.n else None
        if plan is None:
            raise InvalidInstanceError(validate_instance(self))
        return plan

    @cached_property
    def free_dimensions(self) -> int:
        """Total degrees of freedom of the feasible set.

        Each bundle of size k contributes k - 1 (its slice lives on a
        scaled simplex); DIRECT singletons contribute 0.
        """
        return int((self._columns.size - 1).sum())


@dataclass(frozen=True)
class Violation:
    """A single broken instance rule.

    ``voter`` is ``None`` for instance-level rules, ``bundle`` is ``None``
    for voter-level rules, otherwise it is the bundle's position within
    the voter's delegation list.
    """

    voter: str | None
    bundle: int | None
    rule: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "ok"
        return "\n".join(
            f"voter={v.voter} bundle={v.bundle} rule={v.rule}: {v.message}"
            for v in self.violations
        )


class InvalidInstanceError(ValueError):
    """Raised when an operation requires a clean instance but got violations."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__(f"instance failed validation:\n{report}")


def validate_instance(instance, tol=BUDGET_TOL) -> ValidationReport:
    """Check every structural rule of an election instance.

    Violations are data, not failures: the report lists each broken rule
    with the offending voter and bundle.  Budget sums are compared with
    absolute tolerance ``tol``.  The check is deterministic and its
    outcome does not depend on the order of a voter's bundles or of a
    default's entries: budget totals and default norms are summed by
    ``math.fsum``, which rounds the exact sum once.

    Rules checked: one row of ``delegations`` per voter; per voter,
    bundles are non-empty, pairwise disjoint
    and cover the candidate set; budgets lie in [0, 1] and sum to 1;
    self-delegation happens exactly on DIRECT singleton bundles;
    zero-budget bundles are DIRECT; weighted notions carry a positive
    weight and a non-negative default of l1-norm equal to the budget.
    A weight or default on any other bundle obeys the same rules.

    The verdict is the column check of ``instance._columns``, with no
    ``Bundle`` objects; only when that check fails does the walk below
    run on ``delegations``, as the one source of located violations.
    """
    violations: list[Violation] = []

    def record(voter, bundle, rule, message):
        violations.append(Violation(voter, bundle, rule, message))

    if not instance.candidates:
        record(None, None, "no-candidates", "candidate list is empty")
    if not instance.voters:
        record(None, None, "no-voters", "voter list is empty")
    if len(set(instance.candidates)) != len(instance.candidates):
        record(None, None, "duplicate-candidate", "candidate identifiers repeat")
    if len(set(instance.voters)) != len(instance.voters):
        record(None, None, "duplicate-voter", "voter identifiers repeat")
    if instance._rows != len(instance.voters):
        record(
            None, None, "delegation-rows",
            f"{instance._rows} delegation rows for {len(instance.voters)} voters",
        )
    if violations:
        return ValidationReport(tuple(violations))
    if instance._columns.valid(instance.n, instance.m, tol):
        return ValidationReport(())

    candidate_set = set(instance.candidates)
    voter_set = set(instance.voters)

    for voter, bundles in zip(instance.voters, instance.delegations):
        seen: dict[str, int] = {}
        budgets = []
        for bi, bundle in enumerate(bundles):
            if not bundle.members:
                record(voter, bi, "empty-bundle", "bundle has no members")
            if len(set(bundle.members)) != len(bundle.members):
                record(voter, bi, "duplicate-member", "bundle repeats a candidate")
            for c in bundle.members:
                if c not in candidate_set:
                    record(voter, bi, "unknown-candidate", f"candidate {c!r} not in election")
                elif c in seen:
                    record(
                        voter, bi, "bundles-overlap",
                        f"candidate {c!r} already in bundle {seen[c]}",
                    )
                else:
                    seen[c] = bi
            if bundle.delegate not in voter_set:
                record(voter, bi, "unknown-delegate", f"delegate {bundle.delegate!r} not in election")

            b = bundle.budget
            if not math.isfinite(b) or b < -tol or b > 1.0 + tol:
                record(voter, bi, "budget-range", f"budget {b!r} outside [0, 1]")
            else:
                budgets.append(b)

            self_delegated = bundle.delegate == voter
            if self_delegated and (len(bundle.members) != 1 or bundle.notion is not Notion.DIRECT):
                record(
                    voter, bi, "self-delegation",
                    "self-delegation requires a DIRECT singleton bundle",
                )
            if bundle.notion is Notion.DIRECT and (not self_delegated or len(bundle.members) != 1):
                record(
                    voter, bi, "direct-bundle",
                    "DIRECT bundles must be self-delegated singletons",
                )
            if abs(b) <= tol and bundle.notion is not Notion.DIRECT:
                record(
                    voter, bi, "zero-budget",
                    "zero-budget bundles must be DIRECT self-delegations",
                )

            # the plan reads weight and default on every bundle, so a
            # notion that ignores them must still carry sound ones
            weighted = bundle.notion in WEIGHTED_NOTIONS
            if bundle.weight is None:
                if weighted:
                    record(voter, bi, "weight-missing", f"{bundle.notion.value} requires a weight")
            elif not math.isfinite(bundle.weight) or bundle.weight <= 0:
                record(voter, bi, "weight-range", f"weight {bundle.weight!r} must be positive")
            if bundle.default is None:
                if weighted:
                    record(voter, bi, "default-missing", f"{bundle.notion.value} requires a default vector")
            else:
                if len(bundle.default) != len(bundle.members):
                    record(
                        voter, bi, "default-length",
                        f"default has {len(bundle.default)} entries for {len(bundle.members)} members",
                    )
                if any(d < -tol or not math.isfinite(d) for d in bundle.default):
                    record(voter, bi, "default-negative", "default entries must be non-negative")
                norm = _exact_sum(bundle.default)
                if abs(norm - b) > tol:
                    record(
                        voter, bi, "default-norm",
                        f"default l1-norm {norm!r} differs from budget {b!r}",
                    )

        missing = candidate_set - set(seen)
        if missing and not any(
            v.rule in ("unknown-candidate", "empty-bundle") and v.voter == voter
            for v in violations
        ):
            record(
                voter, None, "partition-incomplete",
                "bundles do not cover candidates: " + ", ".join(sorted(missing)),
            )
        budget_total = _exact_sum(budgets)
        if abs(budget_total - 1.0) > tol:
            record(
                voter, None, "budget-sum",
                f"budgets sum to {budget_total!r}, expected 1",
            )

    return ValidationReport(tuple(violations))


def _as_matrix(instance, x) -> np.ndarray:
    # C order, so that row sums of 8 or more cells are summed pairwise
    # whatever the caller's layout, and verdicts at the bound agree
    x = np.ascontiguousarray(x, dtype=float)
    if x.shape != (instance.n, instance.m):
        raise ValueError(
            f"solution shape {x.shape} does not match instance "
            f"({instance.n} voters, {instance.m} candidates)"
        )
    return x


def is_feasible(instance, x, tol=1e-9) -> bool:
    """True iff ``x`` is a solution matrix for ``instance`` within ``tol``.

    Checks, all with absolute tolerance ``tol``: entries in [0, 1], every
    row sums to 1, and every bundle slice sums to the bundle budget.
    Raises ``ValueError`` on a dimension mismatch and on a tolerance that
    is negative or not finite (a NaN tolerance would pass any matrix).
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")
    x = _as_matrix(instance, x)
    if not np.all(np.isfinite(x)):
        return False
    if np.any(x < -tol) or np.any(x > 1.0 + tol):
        return False
    if np.any(np.abs(x.sum(axis=1) - 1.0) > tol):
        return False
    bundles = instance._plan.bundles
    sums = bundles.sum(np.append(x, -0.0))  # padded with -0.0, which adds nothing
    return not np.any(np.abs(sums - bundles.budget) > tol)


def project_simplex(values, total) -> np.ndarray:
    """Euclidean projection of ``values`` onto ``{z >= 0, sum(z) = total}``.

    Standard sort-and-threshold construction; exact for the scaled
    probability simplex.  Raises ``ValueError`` unless ``values`` is a
    non-empty 1-D vector and ``values`` and ``total`` are finite.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or not v.size:
        raise ValueError(f"projection input must be a non-empty 1-D vector, got shape {v.shape}")
    totals = np.array([[total]], dtype=float)
    if not (np.all(np.isfinite(v)) and np.isfinite(totals[0, 0])):
        raise ValueError("projection input must be finite")
    from ._columns import project_rows  # the plan's module, compiled on first use

    return project_rows(v[None], totals, v.size - 1)[0]


def project_to_feasible(instance, y) -> np.ndarray:
    """Project an arbitrary matrix onto the feasible set, bundle by bundle.

    Every bundle slice is projected in Euclidean distance onto the scaled
    simplex ``{z >= 0, sum(z) = budget}``.  Slices are independent of the
    bundle's notion, so all bundles of a width class of the plan are
    projected together, padded with ``-inf`` (``_columns.Slices.project``).
    The operation is idempotent up to floating-point noise.  Its output
    passes ``is_feasible`` at the default tolerance for entries up to
    about 1e6 in size; rounding grows with the input, so larger entries
    can leave a slice sum off its budget.
    """
    y = _as_matrix(instance, y)
    if not np.all(np.isfinite(y)):
        raise ValueError("projection input must be finite")
    return instance._plan.bundles.project(np.append(y, -np.inf))[:-1].reshape(y.shape)
