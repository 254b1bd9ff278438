"""Structural counterexamples: checks, seeded searches, saved findings."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal
from test_grouped_plan import mixed_instance, reference_plan

from liquidballots import (
    Notion,
    SEARCH_KINDS,
    check_contraction_violation,
    check_nonuniqueness,
    check_pseudomono_violation,
    fixtures,
    initial_point,
    is_feasible,
    load_finding,
    random_feasible_point,
    random_wcc_instance,
    save_finding,
    search_violation,
    validate_instance,
)
from liquidballots.counterexamples import (
    _POINT_PROBES,
    _distinct_fixed_points,
    _fill_feasible,
    _gamma_layout,
    _pseudomono_probes,
    finding_from_doc,
    finding_to_doc,
)
from liquidballots.io import InstanceSyntaxError


def test_search_kind_names():
    assert SEARCH_KINDS == (
        "contraction-violation",
        "pseudo-mono-violation",
        "non-uniqueness",
    )


def test_contraction_check_trivially_holds_on_one_way_delegation():
    # v's response depends only on u's fixed direct row, so a second
    # application changes nothing and the lhs collapses to zero
    inst = fixtures.high_confidence(Notion.WCC, 0.015)
    x = initial_point(inst, "even-split")
    violated, lhs, rhs = check_contraction_violation(inst, x)
    assert not violated
    assert lhs == 0.0
    assert rhs > 0.0


def test_pseudomono_check_requires_a_solution():
    inst = fixtures.crossed_thresholds(Notion.EP_TI)
    x = initial_point(inst, "even-split")
    with pytest.raises(ValueError, match="not a fixed point"):
        check_pseudomono_violation(inst, x, x)


def test_nonuniqueness_check_rejects_identical_points():
    inst = fixtures.high_confidence(Notion.WCC, 0.015)
    x = np.array([[0.6, 0.4, 0.0], [0.015, 0.0, 0.985]])
    ok, distance = check_nonuniqueness(inst, x, x)
    assert not ok
    assert distance == 0.0


def test_random_instances_are_valid_and_deterministic():
    for seed in range(8):
        for mode in ("even-split", "random"):
            inst = random_wcc_instance(np.random.default_rng(seed), 3, 4, default_mode=mode)
            assert validate_instance(inst).ok
            again = random_wcc_instance(np.random.default_rng(seed), 3, 4, default_mode=mode)
            assert inst == again
            point = random_feasible_point(np.random.default_rng(seed), inst)
            assert is_feasible(inst, point, tol=1e-9)


def reference_random_feasible_point(rng, instance):
    """One ``rng.dirichlet`` call per bundle: the draw the batched one must equal."""
    x = np.zeros((instance.n, instance.m))
    for cell in reference_plan(instance):
        k = len(cell.cols)
        if cell.budget <= 0.0:
            continue
        if k == 1:
            x[cell.voter, cell.cols[0]] = cell.budget
        else:
            x[cell.voter, list(cell.cols)] = cell.budget * rng.dirichlet(np.ones(k))
    return x


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 7),
    m=st.integers(1, 21),
    mixed=st.booleans(),
    size=st.sampled_from([None, 0, 1, 6]),
)
def test_random_feasible_point_matches_per_bundle_dirichlet(seed, n, m, mixed, size):
    rng = np.random.default_rng(seed)
    if mixed and n > 1:
        instance = mixed_instance(rng, n, min(m, 20))
    else:
        instance = random_wcc_instance(rng, n, m, default_mode="random")
    batched, looped = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    pieced = np.random.default_rng(seed + 1)
    got = random_feasible_point(batched, instance, size)
    count = 1 if size is None else size
    expected = np.array([reference_random_feasible_point(looped, instance) for _ in range(count)])
    assert_array_equal(got, expected[0] if size is None else expected.reshape(got.shape))
    assert batched.bit_generator.state == looped.bit_generator.state
    # single gamma rows drawn one after another, then filled as one block
    offsets = _gamma_layout(instance)
    rows = [pieced.standard_gamma(1.0, size=offsets[-1]) for _ in range(count)]
    pieces = _fill_feasible(instance, offsets, np.array(rows).reshape(count, offsets[-1]))
    assert_array_equal(pieces, expected.reshape(pieces.shape))
    assert pieced.bit_generator.state == looped.bit_generator.state


def reference_pseudomono_probes(rng, instance, points):
    """The per-probe loop that ``_pseudomono_probes`` replaced, verbatim."""
    probes = list(random_feasible_point(rng, instance, _POINT_PROBES))
    # other fixed points, nudged, are the most promising probes
    for other in points[1:]:
        probes.append(other)
        for _ in range(8):
            blend = rng.uniform(0.8, 1.0)
            probes.append(blend * other + (1.0 - blend) * random_feasible_point(rng, instance))
    return np.stack(probes)


def assert_probes_match_the_loop(rng, instance, points):
    looped = np.random.default_rng()
    looped.bit_generator.state = rng.bit_generator.state
    got = _pseudomono_probes(rng, instance, points)
    expected = reference_pseudomono_probes(looped, instance, points)
    assert got.shape == (_POINT_PROBES + 9 * max(len(points) - 1, 0), instance.n, instance.m)
    assert got.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == looped.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 4, 10])
def test_pseudomono_probes_equal_the_per_probe_loop(n):
    """The block-drawn probes equal the loop's, bit for bit, and leave the
    generator where it left it.  The converged points are stood in for by
    feasible matrices drawn from the same generator, 0 to 6 of them: with
    0 or 1 there are no nudged probes, and at ``n = 1`` every bundle is a
    DIRECT singleton, so the gamma rows have width 0."""
    for seed in range(100):
        for mode in ("even-split", "random"):
            rng = np.random.default_rng(seed)
            instance = random_wcc_instance(rng, n, 5, default_mode=mode)
            if n == 1:
                assert _gamma_layout(instance)[-1] == 0
            state = rng.bit_generator.state
            assert random_feasible_point(rng, instance, 0).shape == (0, n, 5)
            assert rng.bit_generator.state == state
            points = random_feasible_point(rng, instance, (0, 1, 2, 3, 6)[seed % 5])
            assert_probes_match_the_loop(rng, instance, points)


def test_pseudomono_probes_equal_the_per_probe_loop_in_real_attempts():
    for seed in range(3):
        for mode in ("even-split", "random"):
            rng = np.random.default_rng(seed)
            instance = random_wcc_instance(rng, 4, 5, default_mode=mode)
            points = _distinct_fixed_points(rng, instance)
            assert len(points) > 1
            assert_probes_match_the_loop(rng, instance, points)


def test_single_voter_instances_degenerate_to_direct_ballots():
    inst = random_wcc_instance(np.random.default_rng(0), 1, 3)
    assert validate_instance(inst).ok
    assert all(b.notion is Notion.DIRECT for b in inst.delegations[0])


def test_single_voter_instance_with_more_candidates_than_budget_units():
    inst = random_wcc_instance(np.random.default_rng(0), 1, 25)
    assert validate_instance(inst).ok
    budgets = [b.budget for b in inst.delegations[0]]
    assert len(budgets) == 25
    assert min(budgets) > 0.0
    assert abs(sum(budgets) - 1.0) < 1e-12


def test_contraction_search_finds_and_reproduces():
    finding = search_violation("contraction-violation", n=4, m=3, seed=7, budget=30)
    assert finding is not None
    assert finding.kind == "contraction-violation"
    assert finding.seed == 7
    violated, lhs, rhs = check_contraction_violation(finding.instance, finding.witnesses["x"])
    assert violated
    assert lhs == finding.certificate["lhs"]
    assert rhs == finding.certificate["rhs"]
    assert finding.certificate["margin"] >= 1e-6

    again = search_violation("contraction-violation", n=4, m=3, seed=7, budget=30)
    assert finding_to_doc(finding) == finding_to_doc(again)


def test_pseudomono_search_finds_strictly_negative_probe():
    finding = search_violation("pseudo-mono-violation", n=4, m=3, seed=2, budget=40)
    assert finding is not None
    value = check_pseudomono_violation(
        finding.instance, finding.witnesses["x"], finding.witnesses["y"]
    )
    assert value == finding.certificate["value"]
    assert value <= -1e-6


def test_stacked_checks_equal_the_per_matrix_checks(fixture_path):
    finding = load_finding(fixture_path / "pseudo-mono-violation.json")
    inst, x = finding.instance, finding.witnesses["x"]
    ys = random_feasible_point(np.random.default_rng(5), inst, 6)
    violated, lhs, rhs = check_contraction_violation(inst, ys)
    values = check_pseudomono_violation(inst, x, ys)
    assert violated.shape == lhs.shape == rhs.shape == values.shape == (6,)
    for i, y in enumerate(ys):
        assert (violated[i], lhs[i], rhs[i]) == check_contraction_violation(inst, y)
        assert values[i] == check_pseudomono_violation(inst, x, y)
    assert np.ndim(check_pseudomono_violation(inst, x, ys[0])) == 0


def test_nonuniqueness_search_degenerate_instance_returns_none():
    assert search_violation("non-uniqueness", n=1, m=1, seed=0, budget=10) is None


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError, match="kind"):
        search_violation("fixed-point-shortage", n=2, m=2)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: search_violation("non-uniqueness", n=0, budget=1), "n"),
        (lambda: search_violation("non-uniqueness", m=0, budget=1), "m"),
        (lambda: search_violation("non-uniqueness", budget=-3), "budget"),
        (lambda: search_violation("non-uniqueness", seed=-1, budget=1), "seed"),
        (lambda: search_violation("non-uniqueness", weight=float("nan"), budget=1), "weight"),
        (lambda: search_violation("non-uniqueness", weight=float("inf"), budget=1), "weight"),
        (lambda: search_violation("non-uniqueness", weight=0.0, budget=1), "weight"),
        (lambda: search_violation("non-uniqueness", default_mode="bogus", budget=0), "default_mode"),
        (lambda: random_wcc_instance(np.random.default_rng(0), 1, 3, default_mode="bogus"), "default_mode"),
    ],
)
def test_search_arguments_are_checked(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call()


def test_findings_round_trip_through_files(tmp_path):
    finding = search_violation("contraction-violation", n=4, m=3, seed=7, budget=30)
    path = tmp_path / "finding.json"
    save_finding(finding, path)
    loaded = load_finding(path)
    assert finding_to_doc(loaded) == finding_to_doc(finding)
    assert_array_equal(loaded.witnesses["x"], finding.witnesses["x"])
    save_finding(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == path.read_text()


def fixture_finding(fixture_path, kind):
    finding = load_finding(fixture_path / f"{kind}.json")
    assert finding.kind == kind
    assert validate_instance(finding.instance).ok
    for witness in finding.witnesses.values():
        assert is_feasible(finding.instance, witness, tol=1e-9)
    return finding


def test_contraction_fixture_certifies(fixture_path):
    finding = fixture_finding(fixture_path, "contraction-violation")
    violated, lhs, rhs = check_contraction_violation(finding.instance, finding.witnesses["x"])
    assert violated
    assert lhs == finding.certificate["lhs"]
    assert rhs == finding.certificate["rhs"]
    assert lhs - rhs >= 1e-6


def test_pseudomono_fixture_certifies(fixture_path):
    finding = fixture_finding(fixture_path, "pseudo-mono-violation")
    value = check_pseudomono_violation(
        finding.instance, finding.witnesses["x"], finding.witnesses["y"]
    )
    assert value == finding.certificate["value"]
    assert value <= -1e-6


def test_nonuniqueness_fixture_certifies(fixture_path):
    finding = fixture_finding(fixture_path, "non-uniqueness")
    x1, x2 = finding.witnesses["x1"], finding.witnesses["x2"]
    ok, distance = check_nonuniqueness(finding.instance, x1, x2)
    assert ok
    assert distance == finding.certificate["distance"]
    assert distance > 0.1
    assert distance <= 2 * finding.instance.n
    # both witnesses solve the instance, so the monotonicity inner
    # product between them is numerically zero
    cross = check_pseudomono_violation(finding.instance, x1, x2)
    assert abs(cross) < 1e-8


def nonuniqueness_doc(fixture_path):
    return json.loads((fixture_path / "non-uniqueness.json").read_text())


@pytest.mark.parametrize("change", ["missing row", "short row", "long row"])
def test_finding_witness_shape_is_checked(fixture_path, change):
    doc = nonuniqueness_doc(fixture_path)
    assert finding_from_doc(doc).witnesses["x1"].shape == (10, 5)
    x1 = doc["witnesses"]["x1"]
    if change == "missing row":
        x1.pop()
    elif change == "short row":
        x1[3].pop()
    else:
        x1[3].append("0")
    with pytest.raises(InstanceSyntaxError, match=r"witnesses\.x1: expected a 10 x 5"):
        finding_from_doc(doc)


@pytest.mark.parametrize(
    "value,message", [("nan", "non-finite"), ("inf", "non-finite"), ("abc", "invalid number")]
)
def test_finding_numbers_are_checked_where_they_stand(fixture_path, value, message):
    doc = nonuniqueness_doc(fixture_path)
    doc["witnesses"]["x1"][2][4] = value
    with pytest.raises(InstanceSyntaxError, match=rf"witnesses\.x1\[2\]\[4\]: {message}"):
        finding_from_doc(doc)
    doc = nonuniqueness_doc(fixture_path)
    doc["certificate"]["distance"] = value
    with pytest.raises(InstanceSyntaxError, match=rf"certificate\.distance: {message}"):
        finding_from_doc(doc)


def set_field(key, value):
    def change(doc):
        doc[key] = value
        return doc
    return change


MALFORMED_FINDINGS = {
    "witnesses-list": (set_field("witnesses", [1]), "witnesses: expected an object"),
    "certificate-string": (set_field("certificate", "x"), "certificate: expected an object"),
    "seed-string": (set_field("seed", "abc"), "seed: expected an integer, got 'abc'"),
    "attempt-null": (set_field("attempt", None), "attempt: expected an integer, got None"),
    "list-document": (lambda doc: [doc], "finding: expected an object"),
    "schema-99": (set_field("schema_version", 99), "finding: unsupported schema_version 99"),
    "kind-bogus": (set_field("kind", "bogus"), "kind: unknown search kind 'bogus'"),
    "extra-field": (set_field("note", "x"), "finding: unknown fields: note"),
}


@pytest.mark.parametrize("case", MALFORMED_FINDINGS)
def test_malformed_findings_are_refused_with_a_location(fixture_path, case):
    change, message = MALFORMED_FINDINGS[case]
    with pytest.raises(InstanceSyntaxError, match=f"^{message}$"):
        finding_from_doc(change(nonuniqueness_doc(fixture_path)))
