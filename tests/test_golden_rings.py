"""Byte-identical gate on the ring text of the shipped models.

Each digest is the sha256 of ``io.dump_ring`` of the built ring, the text
``wonder build`` writes. A change to the engine, the nest decomposition or
the ring writer that alters any structure constant, basis label or ordering
changes the digest."""

import hashlib

import pytest

from wonder import io
from wonder.engine import build_ring
from wonder.models import fm_power, keel_model

GOLDEN = {
    "fm-p1-3": (
        lambda: fm_power("p1", 3),
        "c338391ec3123ea5eb853bc41e596d129b9be061a63660956702d91d8511a69f",
    ),
    "fm-p1-4": (
        lambda: fm_power("p1", 4),
        "45db1076681031a2c6be127c35b6ffc1ac2fb712d44dd4e45eb72cd70028910f",
    ),
    "fm-p1-5": (
        lambda: fm_power("p1", 5),
        "5e567deadf8d1df7b51bf733d3a50c3adc73380cc84bed3fc5cb48663204c3c7",
    ),
    "fm-p2-3": (
        lambda: fm_power("p2", 3),
        "79d246150ea9c8f62d93d56501b1b52f16d90789a9d58246931e317bfb73e60c",
    ),
    "fm-p2-4-min3": (
        lambda: fm_power("p2", 4, min_size=3),
        "bca4ae096ea1efd8ad3abee54645d53b3a0b74f0c6b98256d0eb70aca958e834",
    ),
    "fm-curve-3-g2": (
        lambda: fm_power("curve", 3, genus=2),
        "762c7633c7be5568ab0fd23fd6435736909ccb37d8acc6c188c548a9d5dbf0e0",
    ),
    "keel-2": (
        lambda: keel_model(2),
        "c23881848eb7dd3e55630fc264a4e83d8d98203620243e8490dfe70588463017",
    ),
    "keel-3": (
        lambda: keel_model(3),
        "4405102a31c8c3e0a1cedab2d8d7cc911786a9f47a8f4b7197f9760653d86df1",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_ring_text_digest(name):
    make, digest = GOLDEN[name]
    diagram = make()
    ring = build_ring(diagram, validate=False)
    text = io.dump_ring(ring.as_algebra(), diagram.socle_degree)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
