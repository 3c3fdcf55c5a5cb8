import pytest

from wonder.diagram import BurrowDiagram, BurrowNode
from wonder.errors import InputError
from wonder.models import _PowerAlg, fm_power
from wonder.nests import (
    Nest,
    enumerate_nests,
    enumerate_standard,
    li_decomposition,
    standard_bound,
)


def empty_building_set(n=2):
    wrap = _PowerAlg([str(i) for i in range(1, n + 1)], 1)
    return BurrowDiagram(
        socle_degree=n,
        elements=[],
        burrows=[BurrowNode("Y", frozenset(), 0, wrap.alg)],
        edges=[],
        singles={},
        nests=[],
    )


def test_fm2_nests():
    diagram = fm_power("p1", 2)
    nests = enumerate_nests(diagram)
    assert [n.sorted_ids() for n in nests] == [(), ("D12",)]


def test_fm3_nests(fm3_diagram):
    nests = [n.sorted_ids() for n in enumerate_nests(fm3_diagram)]
    assert nests == [
        (),
        ("D12",),
        ("D123",),
        ("D13",),
        ("D23",),
        ("D12", "D123"),
        ("D123", "D13"),
        ("D123", "D23"),
    ]
    assert ("D12", "D13") not in nests


def test_empty_building_set_nests():
    diagram = empty_building_set()
    nests = enumerate_nests(diagram)
    assert [n.sorted_ids() for n in nests] == [()]


def test_enumeration_deterministic(fm3_diagram):
    first = enumerate_nests(fm3_diagram)
    second = enumerate_nests(fm3_diagram)
    assert first == second


def test_enumeration_exhaustive_vs_powerset(fm3_diagram, keel2_diagram):
    # independent oracle: filter the full powerset
    import itertools

    for diagram in (fm3_diagram, keel2_diagram):
        ids = sorted(diagram.elements)
        brute = set()
        for k in range(len(ids) + 1):
            for subset in itertools.combinations(ids, k):
                s = frozenset(subset)
                if diagram.is_nest(s) and (not s or diagram.burrow_of(s) is not None):
                    brute.add(s)
        fast = {n.elements for n in enumerate_nests(diagram)}
        assert fast == brute


def test_standard_bound(fm3_diagram):
    assert standard_bound(fm3_diagram, "D123", {"D123"}) == 2
    assert standard_bound(fm3_diagram, "D12", {"D12"}) == 1
    assert standard_bound(fm3_diagram, "D123", {"D12", "D123"}) == 1


def test_standard_functions(fm3_diagram):
    deep = Nest(frozenset(("D123",)))
    (mu,) = enumerate_standard(fm3_diagram, deep)
    assert mu.assignment == (("D123", 1),)
    assert mu.norm == 1

    divisor = Nest(frozenset(("D12",)))
    assert enumerate_standard(fm3_diagram, divisor) == []

    pair = Nest(frozenset(("D12", "D123")))
    assert enumerate_standard(fm3_diagram, pair) == []


def test_standard_functions_deeper(fm4_diagram):
    quad = Nest(frozenset(("D1234",)))
    mus = enumerate_standard(fm4_diagram, quad)
    assert [m.norm for m in mus] == [1, 2]


def test_empty_nest_single_standard(fm3_diagram):
    (mu,) = enumerate_standard(fm3_diagram, Nest(frozenset()))
    assert mu.assignment == tuple()
    assert mu.norm == 0


def test_li_decomposition_fm3(fm3_diagram):
    summands, poincare = li_decomposition(fm3_diagram)
    assert poincare == [1, 4, 4, 1]
    keys = [(s.nest.sorted_ids(), s.mu.assignment, s.burrow, s.shift) for s in summands]
    assert ((), (), "1|2|3", 0) in keys
    assert (("D123",), (("D123", 1),), "123", 1) in keys
    assert len(summands) == 2


def test_li_decomposition_fm2():
    _, poincare = li_decomposition(fm_power("p1", 2))
    assert poincare == [1, 2, 1]


def test_li_decomposition_empty():
    diagram = empty_building_set()
    summands, poincare = li_decomposition(diagram)
    assert poincare == [1, 2, 1]
    assert len(summands) == 1


def test_summand_shift_invariant():
    with pytest.raises(InputError):
        from wonder.nests import Summand, StandardFunction

        Summand(Nest(frozenset(("a", "b"))), StandardFunction((("a", 1),)), "B", 1)
