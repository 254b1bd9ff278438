"""Instance and solution file formats."""

import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from liquidballots import (
    InstanceSyntaxError,
    InvalidInstanceError,
    Notion,
    fixtures,
    instance_to_doc,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
    trace_csv,
)
from liquidballots.io import _format_number


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
