import json

import pytest

from wonder import io
from wonder.errors import InputError
from wonder.fixtures import keel_2_oracle
from wonder.models import fm_power, synthetic_gorenstein


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
