import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wonder import io
from wonder.errors import InputError
from wonder.fixtures import keel_2_oracle, oracle_fixture
from wonder.models import fm_power, keel_model, synthetic_gorenstein

from builders import point_blowup_p2_diagram


def test_diagram_round_trip(fm3_diagram):
    text = io.dump_diagram(fm3_diagram)
    reloaded = io.load_diagram(text)
    assert io.dump_diagram(reloaded) == text
    assert reloaded.validate().ok


def test_keel_round_trip(keel2_diagram):
    text = io.dump_diagram(keel2_diagram)
    reloaded = io.load_diagram(text)
    assert io.dump_diagram(reloaded) == text


def test_curve_round_trip(curve3_diagram):
    text = io.dump_diagram(curve3_diagram)
    reloaded = io.load_diagram(text)
    assert io.dump_diagram(reloaded) == text
    from wonder.engine import build_ring

    ring = build_ring(reloaded, validate=False)
    assert ring.dims == [1, 7, 7, 1]


def test_dump_writes_equal_data_once(keel2_diagram):
    """A file that lists an entry of the structures or the maps table twice
    loads, and dumps to the text that lists it once: the tables hold each
    distinct entry once, whatever objects carry it."""
    text = io.dump_diagram(keel2_diagram)
    payload = json.loads(text)
    burrow, edge = payload["burrows"][-1], payload["edges"][-1]
    payload["structures"].append(payload["structures"][burrow["structure"]])
    burrow["structure"] = len(payload["structures"]) - 1
    payload["maps"].append(payload["maps"][edge[2]])
    edge[2] = len(payload["maps"]) - 1
    assert io.dump_diagram(io.diagram_from_payload(payload)) == text


@pytest.mark.parametrize("n,edges,data", [(3, 379, 19), (4, 3816, 70)])
def test_edges_of_one_shape_are_one_datum_object(n, edges, data):
    """keel --n 3 and 4 hold one datum object per edge shape, built by the
    model and again by the loader, and the diagram stores that object for
    every edge of its shape: no edge has an object of its own."""
    model = keel_model(n)
    loaded = io.load_diagram(io.dump_diagram(model))
    for diagram in (model, loaded):
        assert len(diagram.edges) == edges
        assert len({id(datum) for datum in diagram.edges.values()}) == data
        assert len(set(diagram.edge_data().values())) == data


def test_ring_round_trip():
    alg = synthetic_gorenstein((1, 2, 1), 4)
    text = io.dump_ring(alg, 2)
    alg2, socle = io.load_ring(text)
    assert socle == 2
    assert io.dump_ring(alg2, socle) == text


def test_oracle_round_trip():
    payload = keel_2_oracle()
    text = io.dump_oracle(payload)
    assert io.load_oracle(text) == payload


def test_truncated_file_reports_parse_error():
    text = io.dump_diagram(fm_power("p1", 2))
    with pytest.raises(InputError, match="cannot parse"):
        io.load_diagram(text[: len(text) // 2])


def test_missing_kind():
    with pytest.raises(InputError, match="kind"):
        io.load_diagram("{}")


def test_wrong_kind():
    text = io.dump_ring(synthetic_gorenstein((1, 1, 1), 0), 2)
    with pytest.raises(InputError, match="expected a diagram"):
        io.load_diagram(text)


# -- the file writer against json.dumps ---------------------------------------


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


# strings with quotes, backslashes, control characters, "]", newlines and
# non-ASCII; ints past 64 bits; objects keyed by strings or by ints
_TEXT = st.text(st.sampled_from('ab"\\/]\n[\x00\x1f\x7f é€😀 ,:') | st.characters())
_SCALAR = (
    _TEXT
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.booleans()
    | st.none()
    | st.floats()
)
_PAYLOAD = st.recursive(
    _SCALAR,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_TEXT, inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=3)
    | st.lists(st.lists(_SCALAR, max_size=4), max_size=4),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(_TEXT, _PAYLOAD, max_size=5))
def test_writer_matches_json_dumps(payload):
    assert io._dump_json(payload) == _json_text(payload)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(_SCALAR, min_size=1, max_size=5), min_size=1, max_size=6))
def test_writer_matches_json_dumps_on_rows(rows):
    """Lists of nonempty flat lists, the shape of structure constant and
    map entries, at two depths."""
    payload = {"mult": rows, "maps": [{"pullback": rows, "chern": [rows, []]}]}
    assert io._dump_json(payload) == _json_text(payload)


@pytest.mark.parametrize("name, n", [("fm-p1", 3), ("keel", 2), ("keel", 3)])
def test_writer_matches_json_dumps_on_oracle_fixtures(name, n):
    payload = oracle_fixture(name, n)
    assert io.dump_oracle(payload) == _json_text(payload)


def _renamed(value, new):
    """The payload with every string that ``new`` holds replaced by its image."""
    if isinstance(value, str):
        return new.get(value, value)
    if isinstance(value, list):
        return [_renamed(v, new) for v in value]
    if isinstance(value, dict):
        return {_renamed(k, new): _renamed(v, new) for k, v in value.items()}
    return value


def test_diagram_writer_matches_json_dumps_on_odd_diagrams():
    """``io.dump_diagram`` writes elements, burrows, singles, relations and
    symmetry directly; it gives the text of ``json.dumps`` of the payload
    on element and burrow ids with quotes, backslashes, a newline and
    non-ASCII characters (which also reorder the sections), on a zero
    relation class, and on a diagram with explicit nests, an element
    without an index set and neither relations nor symmetry."""
    payload = io.diagram_payload(keel_model(2))
    ids = [e["id"] for e in payload["elements"]] + [b["id"] for b in payload["burrows"]]
    odd = {x: f'{x[::-1]}"\\\né€\U0001f600' for x in ids}
    payload = _renamed(payload, odd)
    payload["relations"].append([odd["D12"], "zero", []])
    for diagram in (io.load_diagram(json.dumps(payload)), point_blowup_p2_diagram()):
        assert io.dump_diagram(diagram) == _json_text(io.diagram_payload(diagram))
    assert "symmetry" in payload and "explicit" in io.diagram_payload(point_blowup_p2_diagram())["nests"]
