"""Checks and randomized searches for structural counterexamples.

The combined-ballot response map looks innocent but is neither a
contraction, nor the gradient field of a pseudo-monotone variational
inequality, nor single-valued in its fixed points.  This module holds
the certificates for all three phenomena:

* :func:`check_contraction_violation` - one step of the map expands the
  distance between successive iterates;
* :func:`check_pseudomono_violation` - the residual operator points the
  wrong way relative to a known solution;
* :func:`check_nonuniqueness` - two well separated exact solutions.

:func:`search_violation` hunts for instances witnessing each phenomenon
with a seeded random search, so that findings can be reproduced from
(kind, parameters, seed) alone and frozen as JSON fixtures via
:func:`save_finding` / :func:`load_finding`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .io import InstanceSyntaxError, _finite, _format_number, _matrix, _require
from .io import instance_from_doc, instance_to_doc
from .model import Bundle, ElectionInstance, Notion
from .response import best_response, residual_norms
from .solvers import initial_point

SEARCH_KINDS = ("contraction-violation", "pseudo-mono-violation", "non-uniqueness")

#: Probes evaluated per instance while searching.
_POINT_PROBES = 256
_STARTS = 24


def check_contraction_violation(instance, x):
    """Compare the residual before and after one application of the map.

    Returns ``(violated, lhs, rhs)`` where ``lhs = ||f(x) - f(f(x))||_1``
    and ``rhs = ||x - f(x)||_1``.  A contraction would force
    ``lhs < rhs`` whenever ``rhs > 0``; ``violated`` reports ``lhs > rhs``.
    ``x`` may be a stack ``(..., n, m)``; the three results are then
    arrays over the stack, and scalars for a single matrix.
    """
    x = np.asarray(x, dtype=float)
    fx = best_response(x, instance)
    ffx = best_response(fx, instance)
    rhs = np.abs(x - fx).sum(axis=(-2, -1))
    lhs = np.abs(fx - ffx).sum(axis=(-2, -1))
    return lhs > rhs, lhs, rhs


def check_pseudomono_violation(instance, x, y):
    """Inner product ``<y - f(y), y - x>`` for a solution ``x`` and probe ``y``.

    Pseudo-monotonicity of the residual operator relative to the solution
    set would make this non-negative for every feasible ``y``; a strictly
    negative value is a counterexample.  ``y`` may be a stack
    ``(..., n, m)`` of probes, giving an array of inner products.  Raises
    ``ValueError`` when ``x`` is not a solution to within 1e-6.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _, linf = residual_norms(x, instance)
    if linf > 1e-6:
        raise ValueError(f"x is not a fixed point: residual {linf!r} exceeds 1e-06")
    fy = best_response(y, instance)
    return ((y - fy) * (y - x)).sum(axis=(-2, -1))


def check_nonuniqueness(instance, x1, x2, residual_tol=1e-6, separation=0.1):
    """Whether ``x1`` and ``x2`` are distinct solutions of one instance.

    Returns ``(distinct, distance)``: both matrices must have best-response
    residual at most ``residual_tol`` and lie more than ``separation``
    apart in the entrywise l1 distance.  That distance never exceeds
    ``2 * n`` since each row difference has l1-norm at most 2.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    _, r1 = residual_norms(x1, instance)
    _, r2 = residual_norms(x2, instance)
    distance = float(np.abs(x1 - x2).sum())
    ok = r1 <= residual_tol and r2 <= residual_tol and distance > separation
    return ok, distance


def _rational_budgets(rng, parts, units=20):
    """Positive budgets on a denominator-``units`` grid summing to one."""
    cuts = rng.choice(np.arange(1, units), size=parts - 1, replace=False)
    edges = [0, *sorted(int(c) for c in cuts), units]
    return [Fraction(edges[i + 1] - edges[i], units) for i in range(parts)]


def _check_default_mode(default_mode):
    if default_mode not in ("even-split", "random"):
        raise ValueError(f"default_mode must be 'even-split' or 'random', got {default_mode!r}")


def random_wcc_instance(rng, n, m, weight=10.0, default_mode="even-split"):
    """Random instance where every bundle resolves by combined rescaling.

    Each voter partitions the candidates into a random number of bundles,
    assigns each bundle a positive rational budget (denominator 20) and
    delegates it to a uniformly random other voter.  ``default_mode``
    picks the fallback ballots: ``"even-split"`` spreads each budget
    evenly over the bundle, ``"random"`` puts a Dirichlet draw on a
    random nonempty subset of the members.  Random defaults may carry
    zeros on purpose: with every default entry strictly positive each
    bundle response is a positively shifted affine map followed by
    normalization, which contracts so strongly that multiple fixed
    points never showed up in any experiment.  All worked examples use
    sparse defaults, and only sparse defaults exhibit non-uniqueness.
    A single voter has nobody to delegate to and votes directly, one
    bundle per candidate; past 20 candidates the denominator grows to
    ``m`` so that every budget stays positive.
    """
    _check_default_mode(default_mode)
    candidates = tuple(f"c{i + 1}" for i in range(m))
    voters = tuple(f"v{i + 1}" for i in range(n))
    if n == 1:
        budgets = _rational_budgets(rng, m, units=max(20, m)) if m > 1 else [Fraction(1)]
        row = tuple(
            Bundle(members=(c,), budget=float(b), delegate=voters[0], notion=Notion.DIRECT)
            for c, b in zip(candidates, budgets)
        )
        return ElectionInstance(candidates, voters, (row,))
    delegations = []
    for vi, voter in enumerate(voters):
        parts = int(rng.integers(1, min(m, 19) + 1))
        cuts = []
        if parts > 1:
            cuts = sorted(rng.choice(np.arange(1, m), size=parts - 1, replace=False))
        order = rng.permutation(m)
        groups = np.split(order, [int(c) for c in cuts])
        budgets = _rational_budgets(rng, parts)
        bundles = []
        for group, b in zip(groups, budgets):
            members = tuple(candidates[ci] for ci in sorted(int(g) for g in group))
            j = int(rng.integers(n - 1))  # a uniform draw among the other voters
            delegate = voters[j + (j >= vi)]
            b = float(b)
            if default_mode == "even-split":
                default = tuple([b / len(members)] * len(members))
            else:
                k = len(members)
                support = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
                d = np.zeros(k)
                d[support] = rng.dirichlet(np.ones(len(support))) * b
                default = tuple(d)
            bundles.append(
                Bundle(
                    members=members,
                    budget=b,
                    delegate=delegate,
                    notion=Notion.WCC,
                    weight=weight,
                    default=default,
                )
            )
        delegations.append(tuple(bundles))
    return ElectionInstance(candidates, voters, tuple(delegations))


def _gamma_layout(instance):
    """Gamma columns per bundle in bundle order, as offsets.

    ``offsets[i]`` is the first gamma column of bundle ``i`` and
    ``offsets[-1]`` the width of one matrix's draw: a bundle of ``k >= 2``
    members and positive budget takes ``k`` columns, any other none.
    """
    instance._plan  # refuses an instance whose bundles cannot be compiled
    k, budget = instance._columns.size, instance._columns.budget
    return np.concatenate(([0], np.cumsum(k * ((k > 1) & (budget > 0.0)))))


def _fill_feasible(instance, offsets, gammas):
    """The ``(N, n, m)`` matrices of an ``(N, offsets[-1])`` gamma block.

    Each bundle's gammas are normalised as ``Generator.dirichlet`` does:
    summed left to right, scaled by the reciprocal of the sum, then by
    the budget.  Bundles without a positive budget keep ``+0.0``.  Rows
    are independent, so filling a block equals filling its rows one at a
    time, bit for bit.
    """
    columns = instance._columns
    k, budget = columns.size, columns.budget
    first = np.cumsum(k) - k  # each bundle's first member
    x = np.zeros((len(gammas), instance.n * instance.m))
    for size in sorted(set(k.tolist())):
        rows = np.flatnonzero((k == size) & (budget > 0.0))
        cells = columns.voter[rows, None] * instance.m + columns.cols[first[rows, None] + np.arange(size)]
        if size == 1:
            x[:, cells] = budget[rows, None]
            continue
        drawn = gammas[:, offsets[rows, None] + np.arange(size)]
        acc = np.cumsum(drawn, axis=-1)[..., -1:]  # left to right, as dirichlet sums
        x[:, cells] = budget[rows, None] * (drawn * (1.0 / acc))
    return x.reshape(len(gammas), instance.n, instance.m)


def random_feasible_point(rng, instance, size=None):
    """Uniform-ish feasible matrices: a flat Dirichlet draw per bundle.

    ``size=None`` returns one ``(n, m)`` matrix, ``size=N`` a stack of
    ``N`` of them, ``(N, n, m)``.  All draws come from one
    ``rng.standard_gamma(1.0, ...)`` call, matrix by matrix and bundle by
    bundle in voter-then-bundle order, normalised as
    ``Generator.dirichlet`` does.  The result and the generator's state
    afterwards equal those of one ``rng.dirichlet(np.ones(k))`` call per
    bundle of ``k >= 2`` members and positive budget, repeated ``N``
    times.
    """
    count = 1 if size is None else size
    offsets = _gamma_layout(instance)
    x = _fill_feasible(instance, offsets, rng.standard_gamma(1.0, size=(count, offsets[-1])))
    return x[0] if size is None else x


def _iterate_batch(instance, xs, tol=1e-9, iterations=3000):
    """Run fixed-point iteration on a stack of starts; returns (xs, residuals)."""
    for _ in range(iterations):
        fx = best_response(xs, instance)
        done = np.max(np.abs(fx - xs), axis=(-2, -1)) <= tol
        xs = fx
        if done.all():
            break
    fx = best_response(xs, instance)
    return xs, np.max(np.abs(fx - xs), axis=(-2, -1))


@dataclass(frozen=True, eq=False)
class SearchFinding:
    """A witnessed counterexample: the instance, matrices and margins."""

    kind: str
    instance: ElectionInstance
    witnesses: dict[str, np.ndarray]
    certificate: dict[str, float]
    seed: int
    attempt: int


def _search_contraction(rng, instance, attempt, seed):
    probes = random_feasible_point(rng, instance, _POINT_PROBES)
    xs = np.concatenate([initial_point(instance, "defaults")[None], probes])
    _, lhs, rhs = check_contraction_violation(instance, xs)
    margin = lhs - rhs
    best = int(np.argmax(margin))
    if margin[best] >= 1e-6:
        return SearchFinding(
            kind="contraction-violation",
            instance=instance,
            witnesses={"x": xs[best]},
            certificate={
                "lhs": float(lhs[best]),
                "rhs": float(rhs[best]),
                "margin": float(margin[best]),
            },
            seed=seed,
            attempt=attempt,
        )
    return None


def _distinct_fixed_points(rng, instance, tol=1e-6):
    """Multi-start iteration; returns every converged start, in start order.

    The defaults start comes first, then ``_STARTS`` random starts.
    Starts that converge to the same point are all returned: repeats are
    kept, not merged.
    """
    starts = random_feasible_point(rng, instance, _STARTS)
    starts = np.concatenate([initial_point(instance, "defaults")[None], starts])
    xs, res = _iterate_batch(instance, starts, tol=1e-10)
    return xs[res <= tol]


def _search_nonuniqueness(rng, instance, attempt, seed):
    points = _distinct_fixed_points(rng, instance)
    if len(points) < 2:
        return None
    diffs = np.max(np.abs(points[:, None] - points[None, :]), axis=(-2, -1))
    i, j = np.unravel_index(int(np.argmax(diffs)), diffs.shape)
    ok, distance = check_nonuniqueness(instance, points[i], points[j])
    if not ok:
        return None
    _, r1 = residual_norms(points[i], instance)
    _, r2 = residual_norms(points[j], instance)
    return SearchFinding(
        kind="non-uniqueness",
        instance=instance,
        witnesses={"x1": points[i], "x2": points[j]},
        certificate={
            "distance": distance,
            "residual_x1": float(r1),
            "residual_x2": float(r2),
        },
        seed=seed,
        attempt=attempt,
    )


def _pseudomono_probes(rng, instance, points):
    """The probes of a pseudo-monotonicity attempt around ``points[0]``.

    ``_POINT_PROBES`` random feasible matrices, then each other fixed
    point followed by 8 nudges towards a random feasible matrix: blends
    ``b * other + (1 - b) * draw`` with ``b`` uniform on [0.8, 1).  The
    generator is called in the order of drawing the probes one by one
    (each nudge's ``b``, then its gamma row), but all rows are
    normalised in one fill and blended in one broadcast.
    """
    others = points[1:]
    n, m = instance.n, instance.m
    offsets = _gamma_layout(instance)
    gammas = [rng.standard_gamma(1.0, size=(_POINT_PROBES, offsets[-1]))]
    blends = []
    for _ in range(8 * len(others)):
        blends.append(rng.uniform(0.8, 1.0))
        gammas.append(rng.standard_gamma(1.0, size=(1, offsets[-1])))
    draws = _fill_feasible(instance, offsets, np.concatenate(gammas))
    b = np.array(blends).reshape(len(others), 8, 1, 1)
    towards = draws[_POINT_PROBES:].reshape(len(others), 8, n, m)
    ys = np.empty((_POINT_PROBES + 9 * len(others), n, m))
    ys[:_POINT_PROBES] = draws[:_POINT_PROBES]
    tail = ys[_POINT_PROBES:].reshape(len(others), 9, n, m)  # each other point, then its nudges
    tail[:, 0] = others
    tail[:, 1:] = b * others[:, None] + (1.0 - b) * towards
    return ys


def _search_pseudomono(rng, instance, attempt, seed):
    points = _distinct_fixed_points(rng, instance)
    if len(points) == 0:
        return None
    x = points[0]
    ys = _pseudomono_probes(rng, instance, points)
    values = check_pseudomono_violation(instance, x, ys)
    best = int(np.argmin(values))
    if values[best] <= -1e-6:
        return SearchFinding(
            kind="pseudo-mono-violation",
            instance=instance,
            witnesses={"x": x, "y": ys[best]},
            certificate={"value": float(values[best])},
            seed=seed,
            attempt=attempt,
        )
    return None


def search_violation(
    kind,
    *,
    n=10,
    m=5,
    weight=10.0,
    default_mode="even-split",
    seed=0,
    budget=200,
):
    """Randomized search for one counterexample kind.

    Draws up to ``budget`` random instances from
    :func:`random_wcc_instance` and probes each; deterministic for fixed
    arguments.  Non-uniqueness witnesses lie more than 0.1 apart, the
    default separation of :func:`check_nonuniqueness`.  Returns a
    :class:`SearchFinding` or ``None``.  Raises ``ValueError`` naming the
    argument for an unknown ``kind`` or ``default_mode``, ``n`` or ``m``
    below 1, a negative ``seed`` or ``budget`` and a ``weight`` that is
    not finite and positive.
    """
    if kind not in SEARCH_KINDS:
        raise ValueError(f"unknown search kind {kind!r}; expected one of {SEARCH_KINDS}")
    for name, value in (("n", n), ("m", m)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value!r}")
    for name, value in (("seed", seed), ("budget", budget)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value!r}")
    if not (math.isfinite(weight) and weight > 0):
        raise ValueError(f"weight must be finite and positive, got {weight!r}")
    _check_default_mode(default_mode)
    rng = np.random.default_rng(seed)
    for attempt in range(budget):
        instance = random_wcc_instance(rng, n, m, weight=weight, default_mode=default_mode)
        if kind == "contraction-violation":
            finding = _search_contraction(rng, instance, attempt, seed)
        elif kind == "non-uniqueness":
            finding = _search_nonuniqueness(rng, instance, attempt, seed)
        else:
            finding = _search_pseudomono(rng, instance, attempt, seed)
        if finding is not None:
            return finding
    return None


def _matrix_doc(x):
    return [[_format_number(v) for v in row] for row in np.asarray(x, dtype=float)]


def finding_to_doc(finding) -> dict:
    return {
        "schema_version": 1,
        "kind": finding.kind,
        "seed": finding.seed,
        "attempt": finding.attempt,
        "instance": instance_to_doc(finding.instance),
        "witnesses": {k: _matrix_doc(v) for k, v in finding.witnesses.items()},
        "certificate": {k: _format_number(v) for k, v in finding.certificate.items()},
    }


def finding_from_doc(doc) -> SearchFinding:
    """Rebuild a finding; a malformed document raises ``InstanceSyntaxError``."""
    keys = ("schema_version", "kind", "seed", "attempt", "instance", "witnesses", "certificate")
    _require(doc, keys, (), "finding")
    if doc["schema_version"] != 1:
        raise InstanceSyntaxError(f"unsupported schema_version {doc['schema_version']!r}", "finding")
    if doc["kind"] not in SEARCH_KINDS:
        raise InstanceSyntaxError(f"unknown search kind {doc['kind']!r}", "kind")
    for key in ("seed", "attempt"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool):
            raise InstanceSyntaxError(f"expected an integer, got {doc[key]!r}", key)
    for key in ("witnesses", "certificate"):
        if not isinstance(doc[key], dict):
            raise InstanceSyntaxError("expected an object", key)
    instance = instance_from_doc(doc["instance"])
    shape = (instance.n, instance.m)
    return SearchFinding(
        kind=doc["kind"],
        instance=instance,
        witnesses={k: _matrix(v, shape, f"witnesses.{k}") for k, v in doc["witnesses"].items()},
        certificate={k: _finite(v, f"certificate.{k}") for k, v in doc["certificate"].items()},
        seed=doc["seed"],
        attempt=doc["attempt"],
    )


def save_finding(finding, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(finding_to_doc(finding), handle, indent=2)
        handle.write("\n")


def load_finding(path) -> SearchFinding:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    return finding_from_doc(doc)
