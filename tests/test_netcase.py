import copy
import math
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from uc_screen import (
    ParseError,
    ValidationError,
    load_case,
    load_case_file,
)
from uc_screen.netcase import serialize, validate_case, validate_load

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "case_schema.json")
    .read_text())


def minimal_doc():
    return {
        "buses": [{"id": 1}, {"id": 2}],
        "lines": [{"from": 1, "to": 2, "susceptance": 5.0, "flow_limit": 80.0}],
        "generators": [{"bus": 1, "cost": 20.0, "p_min": 0.0, "p_max": 300.0}],
        "nominal_load": [0.0, 50.0],
    }


def test_minimal_case_parses():
    case = load_case(json.dumps(minimal_doc()))
    assert case.n_buses == 2
    assert case.n_lines == 1
    assert case.n_gens == 1
    assert case.lines[0].susceptance == 5.0
    assert case.generators[0].p_max == 300.0
    np.testing.assert_array_equal(case.nominal_load, [0.0, 50.0])


def test_bus_ids_are_normalized_sorted_by_label():
    """File order and id values are arbitrary; indices follow sorted ids."""
    doc = {
        "buses": [{"id": 30}, {"id": 7}, {"id": 2}],
        "lines": [{"from": 30, "to": 7, "susceptance": 1.0, "flow_limit": 10.0},
                  {"from": 7, "to": 2, "susceptance": 1.0, "flow_limit": 10.0}],
        "generators": [{"bus": 2, "cost": 1.0, "p_min": 0.0, "p_max": 100.0}],
        "nominal_load": [3.0, 2.0, 1.0],  # aligned with the buses array
    }
    case = load_case(json.dumps(doc))
    assert [b.label for b in case.buses] == [2, 7, 30]
    assert [b.id for b in case.buses] == [0, 1, 2]
    # bus 30 carried load 3.0 and now sits at index 2
    np.testing.assert_array_equal(case.nominal_load, [1.0, 2.0, 3.0])
    assert case.lines[0].from_bus == 2 and case.lines[0].to_bus == 1
    assert case.generators[0].bus == 0


def test_serialize_round_trip():
    case = load_case(json.dumps(minimal_doc()))
    again = load_case(serialize(case))
    assert serialize(again) == serialize(case)
    assert [b.label for b in again.buses] == [b.label for b in case.buses]
    np.testing.assert_array_equal(again.nominal_load, case.nominal_load)


def test_load_case_file(tmp_path):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(minimal_doc()))
    case = load_case_file(path)
    assert case.n_buses == 2


def test_nominal_load_is_read_only():
    case = load_case(json.dumps(minimal_doc()))
    with pytest.raises(ValueError):
        case.nominal_load[0] = 99.0


@pytest.mark.parametrize("text", [
    "not json at all",
    "[1, 2, 3]",
    "42",
])
def test_non_object_documents_rejected(text):
    with pytest.raises(ParseError):
        load_case(text)


def test_missing_and_unknown_top_level_keys():
    doc = minimal_doc()
    del doc["lines"]
    with pytest.raises(ParseError, match="missing keys"):
        load_case(json.dumps(doc))
    doc = minimal_doc()
    doc["comment"] = "hi"
    with pytest.raises(ParseError, match="unknown keys"):
        load_case(json.dumps(doc))


@pytest.mark.parametrize("mutate", [
    lambda d: d["buses"].__setitem__(0, {"id": "one"}),
    lambda d: d["lines"][0].__setitem__("susceptance", "5"),
    lambda d: d["lines"][0].__setitem__("flow_limit", True),
    lambda d: d["generators"][0].__setitem__("cost", None),
    lambda d: d["nominal_load"].__setitem__(1, "50"),
    lambda d: d["lines"][0].pop("to"),
    lambda d: d["generators"][0].__setitem__("fuel", "coal"),
])
def test_structural_errors_are_parse_errors(mutate):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ParseError):
        load_case(json.dumps(doc))


def test_duplicate_bus_ids_rejected():
    doc = minimal_doc()
    doc["buses"] = [{"id": 1}, {"id": 1}]
    with pytest.raises(ValidationError, match="duplicate"):
        load_case(json.dumps(doc))


def test_unknown_bus_reference_rejected():
    doc = minimal_doc()
    doc["lines"][0]["to"] = 99
    with pytest.raises(ValidationError, match="unknown bus"):
        load_case(json.dumps(doc))


def test_load_length_mismatch_rejected():
    doc = minimal_doc()
    doc["nominal_load"] = [0.0]
    with pytest.raises(ValidationError, match="length"):
        load_case(json.dumps(doc))


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d["lines"][0].__setitem__("susceptance", -1.0), "susceptance"),
    (lambda d: d["lines"][0].__setitem__("flow_limit", 0.0), "flow limit"),
    (lambda d: d["lines"][0].__setitem__("to", 1), "self-loop"),
    (lambda d: d["generators"][0].__setitem__("p_min", 400.0), "p_min"),
    (lambda d: d["generators"][0].__setitem__("cost", -2.0), "negative cost"),
    (lambda d: d["nominal_load"].__setitem__(1, -5.0), "negative"),
    (lambda d: d["generators"][0].__setitem__("p_max", 10.0), "capacity"),
    (lambda d: d["lines"][0].__setitem__("susceptance", math.inf),
     "non-finite susceptance"),
    (lambda d: d["lines"][0].__setitem__("susceptance", math.nan),
     "non-finite susceptance"),
    (lambda d: d["lines"][0].__setitem__("flow_limit", math.inf),
     "non-finite flow_limit"),
    (lambda d: d["generators"][0].__setitem__("cost", math.nan),
     "non-finite cost"),
    (lambda d: d["generators"][0].__setitem__("cost", math.inf),
     "non-finite cost"),
    (lambda d: d["generators"][0].__setitem__("p_max", math.inf),
     "non-finite p_max"),
    (lambda d: d["generators"][0].update(p_min=math.inf, p_max=math.inf),
     "non-finite p_min"),
    (lambda d: d["nominal_load"].__setitem__(1, math.nan), "non-finite"),
    (lambda d: d["nominal_load"].__setitem__(1, -math.inf), "non-finite"),
])
def test_invariant_violations_rejected(mutate, needle):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ValidationError, match=needle):
        load_case(json.dumps(doc))


def test_disconnected_network_rejected():
    doc = {
        "buses": [{"id": 1}, {"id": 2}, {"id": 3}],
        "lines": [{"from": 1, "to": 2, "susceptance": 1.0, "flow_limit": 10.0}],
        "generators": [{"bus": 1, "cost": 1.0, "p_min": 0.0, "p_max": 100.0}],
        "nominal_load": [0.0, 1.0, 0.0],
    }
    with pytest.raises(ValidationError, match="disconnected"):
        load_case(json.dumps(doc))


def test_validate_case_lists_all_violations():
    case = load_case(json.dumps(minimal_doc()))
    assert validate_case(case) == []


def test_validate_load():
    out = validate_load([1.0, 2.0], 2)
    np.testing.assert_array_equal(out, [1.0, 2.0])
    with pytest.raises(ValidationError):
        validate_load([1.0], 2)
    with pytest.raises(ValidationError):
        validate_load([1.0, -2.0], 2)
    with pytest.raises(ValidationError, match="non-finite"):
        validate_load([1.0, math.inf], 2)


def test_shipped_fixture_cases_are_valid(case3, case14):
    assert validate_case(case3) == []
    assert validate_case(case14) == []
    assert case14.n_buses == 14 and case14.n_lines == 20 and case14.n_gens == 5
    assert float(case14.nominal_load.sum()) == pytest.approx(259.0)


# --- schema agreement ----------------------------------------------------
#
# docs/case_schema.json is advertised as the structural contract of the
# format, so schema acceptance and parser acceptance must agree on
# structure (the parser additionally enforces semantic rules, which the
# schema deliberately does not cover).

def _random_valid_doc(rng):
    n = int(rng.integers(2, 6))
    ids = rng.permutation(np.arange(1, 40))[:n].tolist()
    lines = []
    for a, b in zip(ids[:-1], ids[1:]):  # a path keeps it connected
        lines.append({"from": int(a), "to": int(b),
                      "susceptance": float(rng.uniform(0.5, 10.0)),
                      "flow_limit": float(rng.uniform(5.0, 100.0))})
    load = rng.uniform(0.0, 5.0, size=n)
    return {
        "buses": [{"id": int(i)} for i in ids],
        "lines": lines,
        "generators": [{"bus": int(ids[0]), "cost": float(rng.uniform(1, 50)),
                        "p_min": 0.0, "p_max": float(load.sum()) + 10.0}],
        "nominal_load": [float(v) for v in load],
    }


_BREAKERS = [
    lambda d, rng: d.pop("generators"),
    lambda d, rng: d.__setitem__("extra", 1),
    lambda d, rng: d.__setitem__("buses", {}),
    lambda d, rng: d["buses"].__setitem__(0, {"id": "a"}),
    lambda d, rng: d["lines"][0].__setitem__("susceptance", "x"),
    lambda d, rng: d["lines"][0].__setitem__("flow_limit", False),
    lambda d, rng: d["lines"][0].pop("from"),
    lambda d, rng: d["generators"][0].__setitem__("note", "?"),
    lambda d, rng: d["nominal_load"].append("NaN"),
]


def _schema_accepts(doc):
    try:
        jsonschema.validate(doc, SCHEMA)
        return True
    except jsonschema.ValidationError:
        return False


def _parser_accepts_structurally(doc):
    try:
        load_case(json.dumps(doc))
        return True
    except ParseError:
        return False
    except ValidationError:
        return True  # structurally fine, semantically bad


def test_schema_and_parser_agree_on_structure():
    rng = np.random.default_rng(20240814)
    for trial in range(100):
        doc = _random_valid_doc(rng)
        assert _schema_accepts(doc), f"trial {trial}: schema rejected a valid doc"
        assert _parser_accepts_structurally(doc), \
            f"trial {trial}: parser rejected a valid doc"

        broken = copy.deepcopy(doc)
        breaker = _BREAKERS[int(rng.integers(len(_BREAKERS)))]
        breaker(broken, rng)
        assert not _schema_accepts(broken), \
            f"trial {trial}: schema accepted a broken doc"
        assert not _parser_accepts_structurally(broken), \
            f"trial {trial}: parser accepted a broken doc"
