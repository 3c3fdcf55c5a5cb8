import itertools

import pytest

from wonder.diagram import BurrowDiagram, BurrowNode
from wonder.errors import InputError
from wonder.models import _PowerAlg, fm_power, keel_model
from wonder.nests import (
    Nest,
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


def carrying(diagram):
    """The nests with nonempty intersection, by size and then sorted ids."""
    found = [diagram.nest_members(m) for m, b in diagram.nests().items() if b is not None]
    return sorted(found, key=lambda ids: (len(ids), ids))


def test_fm2_nests():
    assert carrying(fm_power("p1", 2)) == [(), ("D12",)]


def test_fm3_nests(fm3_diagram):
    nests = carrying(fm3_diagram)
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
    assert empty_building_set().nests() == {0: "Y"}


def test_enumeration_deterministic(fm3_diagram):
    first = list(fm3_diagram.nests().items())
    second = list(fm_power("p1", 3).nests().items())
    assert first == second


def _pairwise_nest(diagram, subset) -> bool:
    if diagram.explicit_nests is not None:
        return not subset or frozenset(subset) in diagram.explicit_nests
    sets = [diagram.elements[x].index_set for x in subset]
    return all(a.isdisjoint(b) or a <= b or b <= a for a, b in itertools.combinations(sets, 2))


def _greatest_common_lower(diagram, subset):
    """The burrow below every member's burrow that holds all the others, by
    containment alone; None when no burrow is below them all."""
    ids = sorted(diagram.burrows)
    outer = [diagram.ambient_id] + [diagram.singles[x] for x in subset]
    common = [c for c in ids if all(diagram.burrow_contains(o, c) for o in outer)]
    tops = [c for c in common if all(diagram.burrow_contains(c, z) for z in common)]
    assert len(tops) == (1 if common else 0)
    return tops[0] if common else None


def explicit_with_empty_nest():
    """keel --n 1 with an explicit list that admits {D1@0, D1@1}, two
    points of the line, whose intersection is empty."""
    base = keel_model(1)
    return BurrowDiagram(
        socle_degree=base.socle_degree,
        elements=list(base.elements.values()),
        burrows=list(base.burrows.values()),
        edges=[(*key, e) for key, e in base.edges.items()],
        singles=dict(base.singles),
        nests=[["D1@0"], ["D1@1"], ["D1@inf"], ["D1@0", "D1@1"]],
    )


@pytest.mark.parametrize(
    "make,empty",
    [
        (lambda: fm_power("p1", 3), []),
        (lambda: keel_model(2), []),
        (explicit_with_empty_nest, [("D1@0", "D1@1")]),
    ],
    ids=["fm-p1-3", "keel-2", "explicit-empty"],
)
def test_nest_table_matches_powerset_fold(make, empty):
    """Every subset of the elements that passes the rule (tested pairwise on
    the index sets, or by list membership) is in the table, with the
    greatest burrow below all its members' burrows, found by containment
    alone, or None; nothing else is in the table."""
    diagram = make()
    ids = sorted(diagram.elements)
    brute = {}
    for k in range(len(ids) + 1):
        for subset in itertools.combinations(ids, k):
            if _pairwise_nest(diagram, subset):
                brute[diagram.nest_mask(subset)] = _greatest_common_lower(diagram, subset)
    assert diagram.nests() == brute
    assert [diagram.nest_members(m) for m, b in brute.items() if b is None] == empty


def test_enumeration_exhaustive_vs_powerset(fm3_diagram, keel2_diagram):
    # independent oracle: filter the full powerset
    for diagram in (fm3_diagram, keel2_diagram):
        ids = sorted(diagram.elements)
        brute = set()
        for k in range(len(ids) + 1):
            for subset in itertools.combinations(ids, k):
                s = frozenset(subset)
                if diagram.is_nest(s) and (not s or diagram.burrow_of(s) is not None):
                    brute.add(tuple(sorted(s)))
        assert set(carrying(diagram)) == brute


def test_standard_bound(fm3_diagram):
    assert standard_bound(fm3_diagram, "D123", {"D123"}) == 2
    assert standard_bound(fm3_diagram, "D12", {"D12"}) == 1
    assert standard_bound(fm3_diagram, "D123", {"D12", "D123"}) == 1


def test_standard_functions(fm3_diagram):
    (mu,) = enumerate_standard(fm3_diagram, ("D123",))
    assert mu.assignment == (("D123", 1),)
    assert mu.norm == 1

    assert enumerate_standard(fm3_diagram, ("D12",)) == []

    assert enumerate_standard(fm3_diagram, ("D12", "D123")) == []


def test_standard_functions_deeper(fm4_diagram):
    mus = enumerate_standard(fm4_diagram, ("D1234",))
    assert [m.norm for m in mus] == [1, 2]


def test_empty_nest_single_standard(fm3_diagram):
    (mu,) = enumerate_standard(fm3_diagram, ())
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
