"""Instance and solution file formats."""

import copy
import json
import math
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal
from test_grouped_plan import assert_records_match, mixed_instance

from liquidballots import (
    BUDGET_TOL,
    Bundle,
    ElectionInstance,
    InstanceSyntaxError,
    InvalidInstanceError,
    Notion,
    best_response,
    export_qcqp,
    fixtures,
    initial_point,
    instance_from_doc,
    instance_to_doc,
    is_feasible,
    parse_instance,
    parse_solution,
    project_to_feasible,
    random_feasible_point,
    serialize_instance,
    serialize_solution,
    trace_csv,
    validate_instance,
)
from liquidballots._columns import Slices
from liquidballots.io import _format_number, _format_numbers, _number


def test_parse_crossed_fixture_files(fixture_path):
    for name, notion in (("crossed-ept.json", Notion.EP_T), ("crossed-epti.json", Notion.EP_TI)):
        inst = parse_instance((fixture_path / name).read_text())
        assert inst == fixtures.crossed_thresholds(notion)
        thresholds = [b.threshold for bundles in inst.delegations for b in bundles]
        assert thresholds == [0.8, 0.8, 0.7, 0.4]
        assert all(b.budget == 0.5 for bundles in inst.delegations for b in bundles)


def test_rational_and_decimal_numbers_parse_exactly():
    doc = instance_to_doc(fixtures.example_ep())
    doc["voters"][1]["bundles"][0]["budget"] = "1/1000"
    inst = parse_instance(json.dumps(doc))
    assert inst.bundles_of("u")[0].budget == 0.001


def test_round_trip_preserves_instances():
    for inst in (
        fixtures.example_ep(),
        fixtures.crossed_thresholds(Notion.EP_TI),
        fixtures.high_confidence(Notion.WCC, 0.015),
    ):
        assert parse_instance(serialize_instance(inst)) == inst


def test_serialization_is_stable_text():
    text = serialize_instance(fixtures.example_ep())
    assert text == serialize_instance(fixtures.example_ep())
    assert text.endswith("\n")
    assert '"10/7"' not in text  # doubles are written as decimals


def test_malformed_json_reports_position():
    with pytest.raises(InstanceSyntaxError, match="line 1"):
        parse_instance("{not json")


def test_unknown_fields_and_missing_fields_are_rejected():
    doc = instance_to_doc(fixtures.example_ep())
    doc["flavor"] = "salty"
    with pytest.raises(InstanceSyntaxError, match="unknown fields: flavor"):
        parse_instance(json.dumps(doc))
    doc = instance_to_doc(fixtures.example_ep())
    del doc["voters"][0]["bundles"][0]["budget"]
    with pytest.raises(InstanceSyntaxError, match="missing field 'budget'"):
        parse_instance(json.dumps(doc))


def test_bad_schema_version_and_numbers():
    doc = instance_to_doc(fixtures.example_ep())
    doc["schema_version"] = 2
    with pytest.raises(InstanceSyntaxError, match="schema_version"):
        parse_instance(json.dumps(doc))
    doc = instance_to_doc(fixtures.example_ep())
    doc["voters"][0]["bundles"][0]["budget"] = "one"
    with pytest.raises(InstanceSyntaxError, match="invalid number 'one'"):
        parse_instance(json.dumps(doc))
    doc["voters"][0]["bundles"][0]["budget"] = True
    with pytest.raises(InstanceSyntaxError, match="boolean"):
        parse_instance(json.dumps(doc))


def test_validation_failures_surface_as_invalid_instance():
    doc = instance_to_doc(fixtures.high_confidence(Notion.WCC, 0.015))
    doc["voters"][0]["bundles"][0]["weight"] = "0"
    with pytest.raises(InvalidInstanceError, match="weight-range"):
        parse_instance(json.dumps(doc))
    doc = instance_to_doc(fixtures.example_ep())
    doc["voters"] = []
    with pytest.raises(InvalidInstanceError, match="no-voters"):
        parse_instance(json.dumps(doc))


def test_solution_round_trip_is_exact():
    inst = fixtures.crossed_thresholds(Notion.EP_TI)
    x = np.array(
        [
            [0.5, 0.0, 0.42299457123, 0.07700542877],
            [0.39154101001, 0.0, 0.5, 0.10845898999],
        ]
    )
    assert_array_equal(parse_solution(serialize_solution(inst, x), inst), x)


def test_solution_orderings_are_checked():
    inst = fixtures.example_ep()
    text = serialize_solution(inst, np.zeros((2, 3)))
    other = fixtures.crossed_thresholds(Notion.EP_TI)
    with pytest.raises(InstanceSyntaxError, match="candidate ordering"):
        parse_solution(text, other)
    doc = json.loads(text)
    doc["voters"] = ["u", "v"]
    with pytest.raises(InstanceSyntaxError, match="voter ordering"):
        parse_solution(json.dumps(doc), inst)
    doc = json.loads(text)
    doc["values"] = [[0, 0, 0]]
    with pytest.raises(InstanceSyntaxError, match="2 x 3"):
        parse_solution(json.dumps(doc), inst)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", float("nan"), float("inf")])
def test_solution_refuses_non_finite_values(value):
    inst = fixtures.crossed_thresholds(Notion.EP_TI)
    doc = json.loads(serialize_solution(inst, np.zeros((2, 4))))
    doc["values"][1][2] = value
    with pytest.raises(InstanceSyntaxError, match=r"values\[1\]\[2\]: non-finite value"):
        parse_solution(json.dumps(doc), inst)


def test_trace_csv_layout():
    text = trace_csv(((1.0, 0.5), (0.25, 0.125)))
    assert text == (
        "iteration,l1_residual,linf_residual\n"
        "0,1.0,0.5\n"
        "1,0.25,0.125\n"
    )


@pytest.mark.parametrize(
    "value,text",
    [
        (float("nan"), "nan"),
        (float("inf"), "inf"),
        (-np.inf, "-inf"),
        (np.float64("nan"), "nan"),
        (3.0, "3"),
        (-0.0, "0"),
        (0.1, "0.1"),
        (1e16, "1e+16"),
        (np.float64(2.5), "2.5"),
    ],
)
def test_format_number_handles_non_finite_values(value, text):
    assert _format_number(value) == text


#: A valid document with every notion, a rational weight and a zero default entry.
BASE_DOC = {
    "schema_version": 1,
    "candidates": ["c1", "c2", "c3", "c4"],
    "voters": [
        {"name": "v", "bundles": [
            {"members": ["c1", "c2"], "budget": "0.5", "delegate": "u", "notion": "WCC",
             "weight": "10", "default": ["0.25", "0.25"]},
            {"members": ["c3"], "budget": "0.25", "delegate": "v", "notion": "DIRECT"},
            {"members": ["c4"], "budget": "0.25", "delegate": "w", "notion": "EP"},
        ]},
        {"name": "u", "bundles": [
            {"members": ["c1", "c2", "c3"], "budget": "0.75", "delegate": "w", "notion": "EP-TI",
             "weight": "10/7", "default": ["0.5", "0", "0.25"]},
            {"members": ["c4"], "budget": "0.25", "delegate": "u", "notion": "DIRECT"},
        ]},
        {"name": "w", "bundles": [
            {"members": ["c1", "c4"], "budget": "0.5", "delegate": "v", "notion": "EP-T",
             "weight": "4", "default": ["0.5", "0"]},
            {"members": ["c2"], "budget": "0.25", "delegate": "w", "notion": "DIRECT"},
            {"members": ["c3"], "budget": "0.25", "delegate": "w", "notion": "DIRECT"},
        ]},
    ],
}


def bundle_instance(doc):
    """The instance ``doc`` describes, built from ``Bundle`` objects."""

    def number(text):
        return float(Fraction(text))

    return ElectionInstance(
        doc["candidates"],
        [record["name"] for record in doc["voters"]],
        [
            tuple(
                Bundle(
                    b["members"], number(b["budget"]), b["delegate"], b["notion"],
                    number(b["weight"]) if "weight" in b else None,
                    tuple(map(number, b["default"])) if "default" in b else None,
                )
                for b in record["bundles"]
            )
            for record in doc["voters"]
        ],
    )


def _set(path, value):
    """A mutation setting the field at ``path`` (keys and list positions)."""

    def mutate(doc):
        *outer, last = path
        for key in outer:
            doc = doc[key]
        doc[last] = value

    return mutate


def _drop(*path):
    def mutate(doc):
        *outer, last = path
        for key in outer:
            doc = doc[key]
        del doc[last]

    return mutate


V, U, W = ("voters", 0, "bundles"), ("voters", 1, "bundles"), ("voters", 2, "bundles")

#: Mutations of ``BASE_DOC`` breaking each rule of ``validate_instance``.
RULE_MUTATIONS = [
    ("empty-bundle", [
        _set((*V, 2, "budget"), "0.125"),
        lambda doc: doc["voters"][0]["bundles"].append(
            {"members": [], "budget": "0.125", "delegate": "w", "notion": "EP"}
        ),
    ]),
    ("duplicate-member", [_set((*V, 0, "members"), ["c1", "c1"])]),
    ("unknown-candidate", [_set((*V, 2, "members"), ["c5"])]),
    ("bundles-overlap", [_set((*V, 2, "members"), ["c3"])]),
    ("unknown-delegate", [_set((*V, 0, "delegate"), "x")]),
    ("budget-range", [_set((*W, 1, "budget"), "1.5")]),
    ("budget-range", [  # the budgets still add up to 1
        _set((*W, 1, "budget"), "-0.25"), _set((*W, 2, "budget"), "0.75"),
    ]),
    ("budget-range", [
        _set((*W, 0, "budget"), "1.000000002"), _set((*W, 0, "default"), ["1.000000002", "0"]),
        _set((*W, 1, "budget"), "-0.000000001"), _set((*W, 2, "budget"), "-0.000000001"),
    ]),
    ("budget-sum", [_set((*W, 1, "budget"), "0.3")]),
    ("self-delegation", [_set((*V, 2, "delegate"), "v")]),
    ("direct-bundle", [_set((*V, 1, "delegate"), "u")]),
    ("direct-bundle", [
        _set((*V, 1), {"members": ["c3", "c4"], "budget": "0.5", "delegate": "v",
                       "notion": "DIRECT"}),
        _drop(*V, 2),
    ]),
    ("zero-budget", [_set((*V, 2, "budget"), "0"), _set((*V, 1, "budget"), "0.5")]),
    ("weight-missing", [_drop(*U, 0, "weight")]),
    ("weight-range", [_set((*V, 0, "weight"), "0")]),
    ("weight-range", [_set((*U, 0, "weight"), "-7/10")]),
    ("default-missing", [_drop(*W, 0, "default")]),
    ("default-length", [_set((*V, 0, "default"), ["0.25", "0.25", "0"])]),
    ("default-length", [_set((*W, 0, "default"), ["0.5", "0", "0"])]),
    ("default-negative", [_set((*U, 0, "default"), ["1", "-0.5", "0.25"])]),
    ("default-norm", [_set((*W, 0, "default"), ["0.25", "0"])]),
    # EP ignores weight and default, but a bundle that carries them is checked
    ("weight-range", [_set((*V, 2, "weight"), "0")]),
    ("weight-range", [_set((*V, 2, "weight"), "-2"), _set((*V, 2, "default"), ["0.5"])]),
    ("default-length", [_set((*V, 2, "default"), ["0.1", "0.15"])]),
    ("default-length", [_set((*V, 2, "default"), ["0.5", "-0.25"])]),
    ("partition-incomplete", [
        _set((*U, 0, "members"), ["c1", "c2"]), _set((*U, 0, "default"), ["0.5", "0.25"]),
    ]),
    ("duplicate-voter", [_set(("voters", 2, "name"), "u")]),
]


@pytest.mark.parametrize("rule,mutations", RULE_MUTATIONS, ids=[rule for rule, _ in RULE_MUTATIONS])
def test_parse_reports_the_violations_of_the_bundle_walk(rule, mutations):
    """``parse_instance`` checks the document's columns and, when they fail,
    reports what ``validate_instance`` reports for the same election built
    from ``Bundle`` objects: same violations, same order, same messages."""
    doc = copy.deepcopy(BASE_DOC)
    for mutate in mutations:
        mutate(doc)
    built = bundle_instance(doc)
    expected = validate_instance(built)
    assert rule in {v.rule for v in expected.violations}
    assert built._columns.valid(built.n, built.m, BUDGET_TOL) == expected.ok
    with pytest.raises(InvalidInstanceError) as caught:
        parse_instance(json.dumps(doc))
    assert caught.value.report.violations == expected.violations


#: Defects that leave bundles impossible to compile, and the rule each breaks.
UNCOMPILABLE = [
    ("unknown-candidate", [_set((*V, 2, "members"), ["c5"])]),
    ("unknown-delegate", [_set((*V, 0, "delegate"), "x")]),
    RULE_MUTATIONS[0],  # an empty bundle
    ("weight-range", [_set((*V, 0, "weight"), "0")]),
    ("default-length", [_set((*V, 0, "default"), ["0.25", "0.25", "0"])]),
]


@pytest.mark.parametrize("parsed", [False, True], ids=["built", "parsed"])
@pytest.mark.parametrize("rule,mutations", UNCOMPILABLE, ids=[rule for rule, _ in UNCOMPILABLE])
def test_instances_that_cannot_be_compiled_are_refused(rule, mutations, parsed):
    """Every kernel refuses such an instance with the walk's report, before
    any arithmetic: no stray error, no wrong cell, no numpy warning.  The
    constraint export reads the same plan, so it refuses it too, rather than
    failing on a name or printing a system with ``(* 0 ...)`` terms."""
    doc = copy.deepcopy(BASE_DOC)
    for mutate in mutations:
        mutate(doc)
    instance = instance_from_doc(doc) if parsed else bundle_instance(doc)
    x = np.full((instance.n, instance.m), 0.25)
    expected = validate_instance(bundle_instance(doc))
    assert rule in {v.rule for v in expected.violations}
    for kernel in (
        lambda: best_response(x, instance),
        lambda: project_to_feasible(instance, x),
        lambda: is_feasible(instance, x),
        lambda: initial_point(instance),
        lambda: random_feasible_point(np.random.default_rng(0), instance),
        lambda: export_qcqp(instance),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInstanceError) as caught:
                kernel()
        assert caught.value.report == expected


def test_base_document_is_valid():
    inst = parse_instance(json.dumps(BASE_DOC))
    assert inst == bundle_instance(BASE_DOC)
    assert inst.bundles_of("u")[0].weight == 10 / 7


def test_a_sound_weight_and_default_on_an_ep_bundle_are_valid():
    doc = copy.deepcopy(BASE_DOC)
    doc["voters"][0]["bundles"][2].update(weight="2", default=["0.25"])
    inst = parse_instance(json.dumps(doc))
    assert inst == bundle_instance(doc)
    assert validate_instance(bundle_instance(doc)).ok
    assert inst.bundles_of("v")[2].weight == 2.0


def record_arrays(record, prefix=""):
    """Every array, slice and number of the plan, by dotted name."""
    fields = {}
    for name, value in vars(record).items():
        if isinstance(value, SimpleNamespace):
            fields.update(record_arrays(value, f"{prefix}{name}."))
        elif isinstance(value, Slices):
            fields[f"{prefix}{name}.count"] = value.count
            fields[f"{prefix}{name}.budget"] = value.budget
            fields[f"{prefix}{name}.last"] = value.last
            for i, (span, cells) in enumerate(value.parts):
                fields[f"{prefix}{name}.parts[{i}]"] = (span, cells.shape)
                fields[f"{prefix}{name}.cells[{i}]"] = cells
        else:
            fields[prefix + name] = value
    return fields


def test_parsed_instances_equal_their_source_and_compile_the_same_plan():
    """Forty random elections through their documents: the parsed instance
    equals the source, and its plan, compiled from the document's columns,
    equals the one compiled from the source's bundles, field for field and
    bit for bit, the gradient's scatter list included, and both match the
    source's bundles."""
    rng = np.random.default_rng(12)
    for _ in range(40):
        inst = mixed_instance(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        parsed = parse_instance(serialize_instance(inst))
        plan = parsed._plan  # compiled before the Bundle view exists
        assert "delegations" not in parsed.__dict__
        assert parsed == inst
        assert_records_match(plan, inst)
        got, compiled = record_arrays(plan), record_arrays(inst._plan)
        assert got.keys() == compiled.keys()
        for field, value in got.items():
            if not isinstance(value, np.ndarray):  # a kind's slice, a count, a part's shape, or None
                assert value == compiled[field], field
                continue
            assert value.dtype == compiled[field].dtype and value.shape == compiled[field].shape
            assert value.tobytes() == compiled[field].tobytes(), field


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    field=st.sampled_from(["budget", "default"]),
    nudge=st.integers(-25, 25),
)
def test_column_check_agrees_with_the_walk_near_the_tolerance(seed, field, nudge):
    """A budget or default entry moved by a multiple of 1e-10 puts sums within
    a few 1e-10 of the 1e-9 tolerance; the column check must accept exactly
    the documents the walk accepts."""
    rng = np.random.default_rng(seed)
    doc = instance_to_doc(mixed_instance(rng, int(rng.integers(2, 6)), int(rng.integers(1, 7))))
    bundles = [b for record in doc["voters"] for b in record["bundles"] if field in b]
    if not bundles:
        return
    bundle = bundles[int(rng.integers(len(bundles)))]
    if field == "budget":
        bundle["budget"] = repr(float(bundle["budget"]) + nudge * 1e-10)
    else:
        k = int(rng.integers(len(bundle["default"])))
        bundle["default"][k] = repr(float(bundle["default"][k]) + nudge * 1e-10)
    parsed = instance_from_doc(doc)
    report = validate_instance(parsed)
    assert parsed._columns.valid(parsed.n, parsed.m, BUDGET_TOL) == report.ok
    assert bundle_instance(doc)._columns.valid(parsed.n, parsed.m, BUDGET_TOL) == report.ok
    assert report == validate_instance(bundle_instance(doc))


#: Shares whose numpy segment sum (``np.add.reduceat``) and ``math.fsum``
#: fall on opposite sides of 1: the segment sum reads 1.0000000000000002
#: where the exact sum rounds to 1.0, and 1.0 where it rounds to
#: 0.9999999999999999.
CROSSING_SHARES = {
    True: (0.084, 0.589, 0.308, 0.019000000000000128),
    False: (0.064, 0.196, 0.069, 0.214, 0.452, 0.004999999999999893),
}


@pytest.mark.parametrize("accepted", [True, False])
@pytest.mark.parametrize("field", ["budget", "default"])
def test_column_check_agrees_with_the_walk_where_rounding_crosses_the_tolerance(field, accepted):
    """At tolerance 0 the float sum of these shares decides against the
    walk's ``fsum``, as a voter's budgets and as a default; the column
    check sums them again exactly and agrees."""
    shares = CROSSING_SHARES[accepted]
    assert (np.add.reduceat(np.array(shares), [0])[0] == 1.0) is not (math.fsum(shares) == 1.0)
    cs = tuple(f"c{i}" for i in range(len(shares)))
    guru = tuple(Bundle((c,), 1.0 if i == 0 else 0.0, "g", Notion.DIRECT) for i, c in enumerate(cs))
    if field == "budget":
        v = tuple(Bundle((c,), share, "g", Notion.EP) for c, share in zip(cs, shares))
    else:
        v = (Bundle(cs, 1.0, "g", Notion.WCC, 2.0, shares),)
    inst = ElectionInstance(cs, ("g", "v"), (guru, v))
    assert validate_instance(inst, tol=0.0).ok is accepted
    assert inst._columns.valid(inst.n, inst.m, 0.0) is accepted
    parsed = parse_instance(serialize_instance(inst))
    assert parsed._columns.valid(parsed.n, parsed.m, 0.0) is accepted


@pytest.mark.parametrize(
    "cells",
    [
        ["1/8", "0.375"], [0.25, 1], [" 0.25", "2.5e-1"], ["2.5E-1", "+0.25"], ["0.5", "-0"],
        ["0.5", "1e-400"], ["0.5", "1e400"], ["0.5", "-0e5"],
    ],
)
def test_numbers_outside_plain_decimals_parse_as_before(cells):
    """Rationals, JSON numbers, whitespace and exponents past the float
    range parse to the doubles ``_number`` gives, cell by cell."""
    doc = copy.deepcopy(BASE_DOC)
    doc["voters"][1]["bundles"][0]["weight"] = "2"  # no rational in the other columns
    doc["voters"][0]["bundles"][0]["default"] = cells
    expected = tuple(_number(c, None) for c in cells)
    assert instance_from_doc(doc).bundles_of("v")[0].default == expected


def test_exponents_past_the_decimal_range_are_refused():
    doc = copy.deepcopy(BASE_DOC)
    doc["voters"][1]["bundles"][0]["weight"] = "2"
    doc["voters"][0]["bundles"][0]["default"] = ["0.5", "0e99999999999999999999999"]
    with pytest.raises(
        InstanceSyntaxError, match=r"^voters\[0\]\.bundles\[0\]\.default\[1\]: invalid number"
    ):
        instance_from_doc(doc)


def test_the_first_bad_field_in_document_order_is_reported():
    """A bad number in an earlier bundle is reported before a structural
    error in a later one, and the other way round."""
    doc = copy.deepcopy(BASE_DOC)
    doc["voters"][0]["bundles"][2]["budget"] = "half"
    doc["voters"][1]["bundles"][0]["delegate"] = 3
    with pytest.raises(
        InstanceSyntaxError, match=r"^voters\[0\]\.bundles\[2\]\.budget: invalid number 'half'$"
    ):
        instance_from_doc(doc)
    doc["voters"][0]["bundles"][2]["budget"] = "0.25"
    doc["voters"][2]["bundles"][1]["budget"] = True
    with pytest.raises(
        InstanceSyntaxError, match=r"^voters\[1\]\.bundles\[0\]: delegate must be a string$"
    ):
        instance_from_doc(doc)


@pytest.mark.parametrize("value", ["0", "-0", "1e-400"])
def test_zero_weights_reach_validation_without_arithmetic_errors(value):
    doc = copy.deepcopy(BASE_DOC)
    doc["voters"][2]["bundles"][0]["weight"] = value
    with pytest.raises(InvalidInstanceError, match="weight-range"):
        parse_instance(json.dumps(doc))


def test_solution_matrices_of_json_numbers_convert_at_once():
    inst = fixtures.crossed_thresholds(Notion.EP_TI)
    doc = json.loads(serialize_solution(inst, np.zeros((2, 4))))
    doc["values"] = [[0.5, 0, 0.25, 0.25], [1, 0.0, 0.0, 0]]
    x = parse_solution(json.dumps(doc), inst)
    assert x.dtype == float and x.flags.c_contiguous
    assert_array_equal(x, [[0.5, 0.0, 0.25, 0.25], [1.0, 0.0, 0.0, 0.0]])
    for cell, message in (
        (True, "expected a number, got a boolean"), ("0.5", None), ("x", "invalid number 'x'"),
    ):
        doc["values"][1][3] = cell
        if message is None:
            assert parse_solution(json.dumps(doc), inst)[1, 3] == 0.5
            continue
        with pytest.raises(InstanceSyntaxError, match=rf"^values\[1\]\[3\]: {message}$"):
            parse_solution(json.dumps(doc), inst)


def test_a_subnormal_weight_compiles_to_an_infinite_threshold():
    doc = copy.deepcopy(BASE_DOC)
    doc["voters"][2]["bundles"][0]["weight"] = "5e-324"
    inst = parse_instance(json.dumps(doc))
    assert inst._plan.hard.threshold[0] == np.inf == inst.bundles_of("w")[0].threshold


# Byte-identity referees: the writers through ``json.dumps(indent=2)``,
# with the document walked bundle by bundle, and the number formatter
# one value at a time.


def reference_format_number(value):
    value = float(value)
    if math.isfinite(value) and value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def reference_instance_to_doc(instance):
    voters = []
    for voter, bundles in zip(instance.voters, instance.delegations):
        records = []
        for bundle in bundles:
            record = {
                "members": list(bundle.members),
                "budget": reference_format_number(bundle.budget),
                "delegate": bundle.delegate,
                "notion": bundle.notion.value,
            }
            if bundle.weight is not None:
                record["weight"] = reference_format_number(bundle.weight)
            if bundle.default is not None:
                record["default"] = [reference_format_number(d) for d in bundle.default]
            records.append(record)
        voters.append({"name": voter, "bundles": records})
    return {
        "schema_version": 1,
        "candidates": list(instance.candidates),
        "voters": voters,
    }


def reference_serialize_instance(instance):
    return json.dumps(reference_instance_to_doc(instance), indent=2) + "\n"


def reference_serialize_solution(instance, x):
    doc = {
        "schema_version": 1,
        "candidates": list(instance.candidates),
        "voters": list(instance.voters),
        "values": [[float(v) for v in row] for row in np.asarray(x, dtype=float)],
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_print_matrix(instance, x, out):
    width = max(len(v) for v in instance.voters)
    for vi, voter in enumerate(instance.voters):
        cells = ", ".join(reference_format_number(c) for c in x[vi])
        print(f"  {voter:<{width}} [{cells}]", file=out)


#: Names that JSON has to escape, or that ``ensure_ascii`` writes as ``\u`` escapes.
names = st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00\x1f\x7fé€😀 '), max_size=4)
#: Doubles at the edges of the number rule, and any other double.
numbers = st.one_of(
    st.sampled_from([
        0.0, -0.0, 1.0, -3.0, 1e16, -1e16, 2.0**53, 9999999999999998.0, 1e15, 0.1, 5e-324,
        -5e-324, 2.2250738585072014e-308, 1e-5, 123456789.0, 1.5e300,
    ]),
    st.floats(),
)


@st.composite
def written_instances(draw):
    """Instances of any shape a writer may be handed, valid or not: names to
    escape, bundles without weight or default, empty lists, non-finite
    numbers, and as many ``delegations`` rows as voters or one fewer or more."""
    candidates = draw(st.lists(names, max_size=4))
    voters = draw(st.lists(names, min_size=1, max_size=4))
    bundle = st.builds(
        Bundle,
        members=st.lists(st.one_of(st.sampled_from(candidates or ["x"]), names), max_size=3),
        budget=numbers,
        delegate=st.one_of(st.sampled_from(voters), names),
        notion=st.sampled_from(list(Notion)),
        weight=st.none() | numbers,
        default=st.none() | st.lists(numbers, max_size=3),
    )
    rows = draw(st.integers(len(voters) - 1, len(voters) + 1))
    delegations = draw(st.lists(st.lists(bundle, max_size=3), min_size=rows, max_size=rows))
    return ElectionInstance(candidates, voters, delegations)


@settings(deadline=None, max_examples=200)
@given(instance=written_instances())
def test_instance_writer_is_json_dumps_byte_for_byte(instance):
    """The document and its text equal those of the walk over ``delegations``
    that ``json.dumps(indent=2)`` wrote; read back, the text is written
    again from the columns alone, without the ``Bundle`` view."""
    text = serialize_instance(instance)
    assert instance_to_doc(instance) == reference_instance_to_doc(instance)
    assert text == reference_serialize_instance(instance)
    parsed = instance_from_doc(json.loads(text))
    assert serialize_instance(parsed) == text
    assert "delegations" not in parsed.__dict__


@settings(deadline=None, max_examples=200)
@given(
    voters=st.lists(names, min_size=1, max_size=4),
    m=st.integers(0, 4),
    data=st.data(),
)
def test_solution_writer_and_printed_matrix_match_the_references(voters, m, data):
    """Solution text against ``json.dumps(indent=2)`` (``NaN`` and
    ``Infinity`` included) and the printed matrix against the old
    per-cell ``_format_number`` loop."""
    from io import StringIO

    from liquidballots.cli import _print_matrix

    instance = ElectionInstance([f"c{j}" for j in range(m)], voters, [()] * len(voters))
    x = np.array(
        data.draw(st.lists(numbers, min_size=len(voters) * m, max_size=len(voters) * m)),
        dtype=float,
    ).reshape(len(voters), m)
    assert serialize_solution(instance, x) == reference_serialize_solution(instance, x)
    printed, expected = StringIO(), StringIO()
    _print_matrix(instance, x, printed)
    reference_print_matrix(instance, x, expected)
    assert printed.getvalue() == expected.getvalue()


@settings(deadline=None, max_examples=300)
@given(values=st.lists(numbers, max_size=8))
def test_number_formatters_follow_one_rule(values):
    expected = [reference_format_number(v) for v in values]
    assert [_format_number(v) for v in values] == expected
    assert _format_numbers(np.array(values, dtype=float)) == expected


def test_writers_match_the_references_on_every_fixture():
    rng = np.random.default_rng(3)
    for instance in (
        fixtures.example_ep(),
        fixtures.crossed_thresholds(Notion.EP_T),
        fixtures.crossed_thresholds(Notion.EP_TI),
        fixtures.high_confidence(Notion.WCC, 0.015),
        bundle_instance(BASE_DOC),
        mixed_instance(rng, 40, 7),
        # names that are not strings, which json.dumps writes as numbers
        ElectionInstance((1, 2), (3,), [[Bundle((c,), 0.5, 3, Notion.DIRECT) for c in (1, 2)]]),
    ):
        assert serialize_instance(instance) == reference_serialize_instance(instance)
        x = random_feasible_point(rng, instance)
        assert serialize_solution(instance, x) == reference_serialize_solution(instance, x)


#: A document of 300 voters, and the last bundle of its last voter.
LARGE_DOC = instance_to_doc(mixed_instance(np.random.default_rng(5), 300, 6))
LAST = ("voters", 299, "bundles", len(LARGE_DOC["voters"][299]["bundles"]) - 1)


@pytest.mark.parametrize(
    "mutations,error",
    [
        ([_set((*LAST, "members"), ["c1", 7])], r"voters\[299\]\.bundles\[\d+\]\.members: expected a list of strings"),
        ([_set((*LAST, "delegate"), 7)], r"voters\[299\]\.bundles\[\d+\]: delegate must be a string"),
        ([_set((*LAST, "notion"), 7)], r"voters\[299\]\.bundles\[\d+\]: invalid notion 7"),
        ([_set((*LAST, "notion"), "EPT")], r"voters\[299\]\.bundles\[\d+\]: invalid notion 'EPT'"),
        ([_set((*LAST, "flavor"), "salty")], r"voters\[299\]\.bundles\[\d+\]: unknown fields: flavor"),
        ([_drop(*LAST, "budget")], r"voters\[299\]\.bundles\[\d+\]: missing field 'budget'"),
        ([_set((*LAST, "default"), "0.5")], r"voters\[299\]\.bundles\[\d+\]: default must be a list"),
        ([_set(LAST, ["members"])], r"voters\[299\]\.bundles\[\d+\]: expected an object"),
        ([_set(("voters", 299, "name"), 7)], r"voters\[299\]: voter name must be a string"),
        ([_set(("voters", 299, "flavor"), 7)], r"voters\[299\]: unknown fields: flavor"),
        ([_drop("voters", 299, "name")], r"voters\[299\]: missing field 'name'"),
        ([_set(("voters", 299), ["v299"])], r"voters\[299\]: expected an object"),
        ([_set(("voters", 299, "bundles"), {})], r"voters\[299\]: expected a list of bundles"),
        (  # a bad number earlier in the document comes first
            [_set((*LAST, "delegate"), 7), _set(("voters", 3, "bundles", 0, "budget"), "half")],
            r"voters\[3\]\.bundles\[0\]\.budget: invalid number 'half'",
        ),
        ([_set(("voters", 3, "bundles", 0, "budget"), "half")], r"voters\[3\]\.bundles\[0\]\.budget: invalid number 'half'"),
    ],
)
def test_a_fault_in_the_last_bundle_of_a_large_document_is_located(mutations, error):
    """The column checks doubt the document, and the walk names the same
    field with the same message as a walk over every record would."""
    doc = copy.deepcopy(LARGE_DOC)
    for mutate in mutations:
        mutate(doc)
    with pytest.raises(InstanceSyntaxError, match=f"^{error}$"):
        instance_from_doc(doc)


def test_records_of_other_mapping_and_string_types_are_read_alike():
    """Records that are not exactly ``dict``, ``list`` and ``str`` are walked,
    then read like the plain ones."""
    import collections

    class Name(str):
        pass

    doc = copy.deepcopy(BASE_DOC)
    doc["voters"][1]["bundles"][0] = collections.OrderedDict(doc["voters"][1]["bundles"][0])
    doc["voters"][0]["bundles"][2]["members"] = [Name("c4")]
    doc["voters"][2]["name"] = Name("w")
    assert instance_from_doc(doc) == parse_instance(json.dumps(BASE_DOC))


def test_a_plain_document_is_read_by_columns_without_the_walk():
    from liquidballots._documents import read_columns

    read = read_columns(LARGE_DOC["voters"], LARGE_DOC["candidates"])
    assert read is not None
    walked = read_columns(LARGE_DOC["voters"], LARGE_DOC["candidates"], checked=True)
    assert read[0] == walked[0]
    for got, expected in zip(read[1], walked[1], strict=True):
        assert_array_equal(got, expected)


def test_writing_a_parsed_instance_builds_no_bundle_view(fixture_path):
    for name, notion in (("crossed-ept.json", Notion.EP_T), ("crossed-epti.json", Notion.EP_TI)):
        parsed = parse_instance((fixture_path / name).read_text())
        text = serialize_instance(parsed)
        assert "delegations" not in parsed.__dict__
        assert text == reference_serialize_instance(fixtures.crossed_thresholds(notion))
        assert serialize_instance(parse_instance(text)) == text
