"""Seeded one-field mutations of the keel --n 2 diagram file, of its ring
file and of its oracle fixture, run through the command line in process:
every mutant ends in exit 0, 1 or 2, never in an exception escaping
``main``.  The diagram mutants go through every subcommand that reads a
diagram file, the fixture mutants through ``oracle`` and through
``compare`` against the keel --n 2 diagram."""

import json
import random

import pytest

from wonder import io
from wonder.cli import main
from wonder.engine import build_ring
from wonder.fixtures import keel_2_oracle
from wonder.models import keel_model

DELETE = object()  # the mutation that removes the field
VALUES = (DELETE, 5, -1, 1.5, "x", "", None, True, [], {}, [5], ["x"], {"x": 5})


def _mutants(payload, count, seed):
    """``count`` copies of the payload, each with one field deleted or
    replaced, chosen by a seeded generator; with each, what was done.  The
    field is found by a walk from the root that goes one level deeper with
    probability 1/2, so top-level fields take about half of the mutations
    and are not drowned by the many entries of maps and classes."""
    rnd = random.Random(seed)
    text = json.dumps(payload)
    for _ in range(count):
        mutant = json.loads(text)
        parent, path = None, []
        node = mutant
        while isinstance(node, (dict, list)) and node and (parent is None or rnd.random() < 0.5):
            key = rnd.choice(list(node) if isinstance(node, dict) else range(len(node)))
            parent, node = node, node[key]
            path.append(key)
        value = rnd.choice(VALUES)
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        yield mutant, f"{path} -> {'deleted' if value is DELETE else repr(value)}"


def _crashes(tmp_path, capsys, payload, commands, count, seed):
    """(mutation, command, what went wrong) for every mutant and command
    that did not end in exit 0, 1 or 2.  A command is a subcommand name or
    a list of arguments; the mutant's file name goes last."""
    out = []
    f = tmp_path / "mutant.json"
    for mutant, what in _mutants(payload, count, seed):
        f.write_text(json.dumps(mutant))
        for command in commands:
            argv = [command] if isinstance(command, str) else list(command)
            try:
                code = main([*argv, str(f)])
            except Exception as e:  # noqa: BLE001 - any escape is the failure
                code = f"{type(e).__name__}: {e}"
            capsys.readouterr()
            if code not in (0, 1, 2):
                out.append((what, argv[0], code))
    return out


@pytest.fixture(scope="module")
def keel2_files():
    diagram = keel_model(2)
    ring = build_ring(diagram).as_algebra()
    return io.diagram_payload(diagram), json.loads(io.dump_ring(ring, diagram.socle_degree))


def test_diagram_mutants_exit_cleanly(tmp_path, capsys, keel2_files):
    diagram, _ = keel2_files
    assert _crashes(tmp_path, capsys, diagram, ("validate", "build", "decompose"), 90, 0) == []


def test_diagram_mutants_exit_cleanly_in_the_reports(tmp_path, capsys, keel2_files):
    diagram, _ = keel2_files
    commands = ("presentation", "discrepancy", "blocks")
    assert _crashes(tmp_path, capsys, diagram, commands, 60, 2) == []


def test_ring_mutants_exit_cleanly(tmp_path, capsys, keel2_files):
    _, ring = keel2_files
    assert _crashes(tmp_path, capsys, ring, ("pd", "betti"), 120, 0) == []


def test_oracle_fixture_mutants_exit_cleanly(tmp_path, capsys, keel2_files):
    diagram, _ = keel2_files
    d = tmp_path / "d.json"
    d.write_text(json.dumps(diagram))
    commands = ("oracle", ["compare", "--diagram", str(d), "--oracle"])
    assert _crashes(tmp_path, capsys, keel_2_oracle(), commands, 120, 0) == []
