"""The benchmark's workloads: seeded inputs, one user-level op, its checks.

Every workload is a closed loop with one client.  ``setup(seed, workdir)``
builds the inputs from the workload seed alone (and writes the instance
file into ``workdir`` where the op reads one) and returns the input
sizes, ``op(i)`` runs the ``i``-th operation, and ``check(i, result)``
returns the list of correctness problems of that op, empty when it
passed.  Library functions are looked up as module attributes at call
time, so the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io as _stdio
import math
import os
import shutil
import tempfile

import numpy as np

from liquidballots import cli, counterexamples, fixtures, io, model, qcqp, response, solvers
from liquidballots.model import Bundle, ElectionInstance, Notion

#: Notions a generated bundle is relabelled with (besides WCC, the draw of
#: ``random_wcc_instance``).
_NOTIONS = (Notion.EP, Notion.EP_T, Notion.EP_TI, Notion.WCC)


def mixed_instance(rng, n, m, notion_share, *, default_mode, guru_share, layers=None):
    """A random election mixing notions, with DIRECT "guru" voters.

    Starts from ``random_wcc_instance`` and relabels every bundle's notion
    with a seeded draw from ``notion_share`` (shares of EP, EP-T, EP-TI,
    WCC).  A ``guru_share`` of the voters become DIRECT singleton rows
    with a Dirichlet ballot.  With ``layers``, the other voters are split
    into that many layers and every bundle is redirected to a random voter
    of the next layer, the last layer delegating to gurus: the delegation
    graph is then acyclic with depth ``layers``, so simple iteration
    settles exactly after ``layers`` steps whatever the notions.
    """
    base = counterexamples.random_wcc_instance(rng, n, m, default_mode=default_mode)
    order = rng.permutation(n)
    gurus = order[: max(1, round(guru_share * n))]
    rows = list(base.delegations)
    for vi in gurus:
        ballot = rng.dirichlet(np.ones(m))
        rows[vi] = tuple(
            Bundle(members=(c,), budget=float(b), delegate=base.voters[vi], notion=Notion.DIRECT)
            for c, b in zip(base.candidates, ballot)
        )
    followers = order[len(gurus):]
    if layers is None:
        groups, targets = [followers], [None]
    else:
        groups = np.array_split(followers, layers)
        targets = groups[1:] + [gurus]
    for group, target in zip(groups, targets):
        for vi in group:
            bundles = []
            for bundle in rows[vi]:
                notion = _NOTIONS[int(rng.choice(len(_NOTIONS), p=notion_share))]
                changes = {"notion": notion}
                if notion is Notion.EP:
                    changes.update(weight=None, default=None)
                if target is not None:
                    changes["delegate"] = base.voters[int(target[int(rng.integers(len(target)))])]
                bundles.append(dataclasses.replace(bundle, **changes))
            rows[vi] = tuple(bundles)
    instance = ElectionInstance(base.candidates, base.voters, tuple(rows))
    report = model.validate_instance(instance)
    if not report.ok:
        raise AssertionError(f"generated instance is invalid:\n{report}")
    return instance


def _compile(instance):
    """Do the first-call lazy work of an instance (plan and index caches)."""
    instance._plan, instance.candidate_index, instance.voter_index, instance.free_dimensions
    return instance


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


class ResolveLarge:
    """CLI ``solve`` then ``verify`` of a few-hundred-voter election file."""

    name = "resolve-large"
    VOTERS, CANDIDATES, LAYERS, GURU_SHARE = 300, 20, 6, 0.1
    NOTION_SHARE = (0.25, 0.15, 0.3, 0.3)
    TOLERANCE = 1e-6

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.instance = _compile(
            mixed_instance(
                rng, self.VOTERS, self.CANDIDATES, self.NOTION_SHARE,
                default_mode="even-split", guru_share=self.GURU_SHARE, layers=self.LAYERS,
            )
        )
        self.file = os.path.join(workdir, "instance.json")
        self.solution = os.path.join(workdir, "solution.json")
        with open(self.file, "w", encoding="utf-8") as handle:
            handle.write(io.serialize_instance(self.instance))
        return {"voters": self.VOTERS, "candidates": self.CANDIDATES,
                "bundles": sum(map(len, self.instance.delegations)),
                "instance_bytes": os.path.getsize(self.file)}

    def op(self, i):
        err = _stdio.StringIO()
        with contextlib.redirect_stdout(_stdio.StringIO()), contextlib.redirect_stderr(err):
            solved = cli.run_cli([
                "solve", self.file, "--strategy", "iterate", "--max-iters", "50",
                "--tol", repr(self.TOLERANCE), "--out", self.solution,
            ])
            verified = cli.run_cli(["verify", self.file, self.solution])
        return solved, verified, err.getvalue()

    def check(self, i, result):
        solved, verified, errors = result
        if solved != 0 or verified != 0:
            return [f"exit codes solve={solved} verify={verified}: {errors!r}"]
        with open(self.solution, encoding="utf-8") as handle:
            x = io.parse_solution(handle.read(), self.instance)
        problems = []
        if not model.is_feasible(self.instance, x):
            problems.append("written solution is infeasible")
        worst = response.regret(x, self.instance).max_linf
        if not worst <= self.TOLERANCE:
            problems.append(f"recomputed regret {worst!r} exceeds {self.TOLERANCE!r}")
        return problems


class GridCertify:
    """Exhaustive grid scans of the crossed-thresholds election.

    One op certifies both notions, so every op does the same work: the
    EP-T scan is about a third cheaper than the EP-TI one, and ops that
    alternated between them would give a two-peaked latency whose median
    jumps between the peaks.
    """

    name = "grid-certify"
    RESOLUTION, TOLERANCE = 0.02, 0.01
    #: (points, hits, best residual) of each scan; EP-T has no point
    #: within tolerance, which is the non-existence certificate.
    EXPECTED = {
        Notion.EP_T: (456976, 0, 0.04),
        Notion.EP_TI: (456976, 4, 0.0057142857142856995),
    }

    def setup(self, seed, workdir):
        # The instance is the paper's; the seed picks which notion goes first.
        kinds = (Notion.EP_T, Notion.EP_TI)
        self.order = kinds if seed % 2 == 0 else kinds[::-1]
        self.instances = {k: _compile(fixtures.crossed_thresholds(k)) for k in kinds}
        self.cfg = solvers.SolverConfig(tolerance=self.TOLERANCE, grid_resolution=self.RESOLUTION)
        return {"voters": 2, "candidates": 4, "bundles": 4, "resolution": self.RESOLUTION,
                "scans_per_op": 2, "points_per_scan": self.EXPECTED[Notion.EP_T][0]}

    def op(self, i):
        return [(k, solvers.grid_oracle(self.instances[k], self.cfg)) for k in self.order]

    def check(self, i, result):
        problems = []
        for notion, scan in result:
            points, hits, best = self.EXPECTED[notion]
            if (scan.points, len(scan.hits)) != (points, hits) or not _close(scan.best_residual, best):
                problems.append(
                    f"{notion.value}: points={scan.points} hits={len(scan.hits)} "
                    f"best={scan.best_residual!r}, expected {points} {hits} {best!r}"
                )
            instance = self.instances[notion]
            if not all(model.is_feasible(instance, x) for x, _ in scan.hits):
                problems.append(f"{notion.value}: an infeasible grid hit")
        return problems


class SearchMix:
    """Single-attempt counterexample searches, one of every kind per op.

    Attempt costs differ by kind (pseudo-monotonicity probes several
    times longer than non-uniqueness), so an op runs one attempt of each
    kind to keep the latency distribution single-peaked.
    """

    name = "search-mix"
    VOTERS, CANDIDATES = 10, 5

    def setup(self, seed, workdir):
        self.seed = seed
        return {"voters": self.VOTERS, "candidates": self.CANDIDATES,
                "attempts_per_op": len(counterexamples.SEARCH_KINDS)}

    def op(self, i):
        kinds = counterexamples.SEARCH_KINDS
        return [
            (kind, counterexamples.search_violation(
                kind, n=self.VOTERS, m=self.CANDIDATES,
                seed=self.seed * 1_000_003 + len(kinds) * i + k, budget=1,
            ))
            for k, kind in enumerate(kinds)
        ]

    def check(self, i, result):
        return [problem for kind, finding in result for problem in _recheck(kind, finding)]


def _recheck(kind, finding):
    """Re-verify a search finding's certificate with its ``check_*`` function."""
    if finding is None:
        return []
    if finding.kind != kind:
        return [f"asked for {kind}, got a {finding.kind} finding"]
    inst, w, cert = finding.instance, finding.witnesses, finding.certificate
    if kind == "contraction-violation":
        violated, lhs, rhs = counterexamples.check_contraction_violation(inst, w["x"])
        ok = violated and _close(lhs, cert["lhs"]) and _close(rhs, cert["rhs"])
    elif kind == "pseudo-mono-violation":
        value = counterexamples.check_pseudomono_violation(inst, w["x"], w["y"])
        ok = value <= -1e-6 and _close(value, cert["value"])
    else:
        distinct, distance = counterexamples.check_nonuniqueness(inst, w["x1"], w["x2"])
        ok = distinct and _close(distance, cert["distance"])
    return [] if ok else [f"{kind} certificate of seed {finding.seed} does not re-verify"]


class DescentSmall:
    """Projected residual descent on small continuous elections, then export."""

    name = "descent-small"
    VOTERS, CANDIDATES, GURU_SHARE, POOL = 30, 5, 0.1, 48
    NOTION_SHARE = (0.3, 0.0, 0.35, 0.35)

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.pool = [
            _compile(mixed_instance(
                rng, self.VOTERS, self.CANDIDATES, self.NOTION_SHARE,
                default_mode="random", guru_share=self.GURU_SHARE,
            ))
            for _ in range(self.POOL)
        ]
        self.cfg = solvers.SolverConfig(tolerance=1e-6, max_iterations=20)
        return {"voters": self.VOTERS, "candidates": self.CANDIDATES, "instances": self.POOL,
                "max_iterations": 20}

    def op(self, i):
        instance = self.pool[i % self.POOL]
        report = solvers.solve(instance, self.cfg, strategy="descent")
        export = qcqp.export_qcqp(instance)
        return report, len(export.violations(report.solution))

    def check(self, i, result):
        report, _ = result
        instance = self.pool[i % self.POOL]
        problems = []
        if not model.is_feasible(instance, report.solution):
            problems.append("descent returned an infeasible point")
        l1, linf = response.residual_norms(report.solution, instance)
        if not (_close(l1, report.residual_l1) and _close(linf, report.residual_linf)):
            problems.append(
                f"reported residuals ({report.residual_l1!r}, {report.residual_linf!r}) "
                f"recompute to ({l1!r}, {linf!r})"
            )
        return problems


WORKLOADS = {w.name: w for w in (ResolveLarge, GridCertify, SearchMix, DescentSmall)}


@contextlib.contextmanager
def workdir(parent):
    """A temporary directory for instance and solution files, removed on exit."""
    os.makedirs(parent, exist_ok=True)
    path = tempfile.mkdtemp(prefix="work-", dir=parent)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
