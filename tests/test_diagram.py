import pytest

from wonder.algebra import GradedMap
from wonder.diagram import BurrowDiagram, BurrowEdge, ChernPolynomial
from wonder.errors import InputError
from wonder.models import point_blowup_p2_diagram


def test_plane_point_fixture_validates():
    report = point_blowup_p2_diagram().validate()
    assert report.ok, report.summary()


def _rebuilt(diagram, edge):
    """The diagram with edge in place of the one on its burrow pair."""
    by_pair = {**diagram.edges, (edge.small, edge.big): edge}
    nests = diagram.nest_rule
    if diagram.explicit_nests is not None:
        nests = [sorted(s) for s in diagram.explicit_nests]
    return BurrowDiagram(
        socle_degree=diagram.socle_degree,
        elements=list(diagram.elements.values()),
        burrows=list(diagram.burrows.values()),
        edges=list(by_pair.values()),
        singles=dict(diagram.singles),
        meets=dict(diagram.meets),
        nests=nests,
        relations=diagram.relations,
    )


def _perturbed(m, k):
    """A copy of the graded map m whose first nonzero degree-k entry is raised by 1."""
    mat = m.matrix(k)
    i, j = next((i, j) for i, row in enumerate(mat) for j, v in enumerate(row) if v)
    columns = [dict(col) for col in m.columns]
    g = m.source.offset(k) + j
    h = m.target.offset(k + m.shift) + i
    columns[g][h] += 1
    return GradedMap(m.source, m.target, m.shift, columns)


def _fails(diagram, check, subject):
    return any(
        e.check == check and e.subject == subject for e in diagram.validate().problems()
    )


def test_zeroed_pullback_reported():
    diagram = point_blowup_p2_diagram()
    edge = diagram.edges[("BP", "Y")]
    zeroed = GradedMap(edge.pullback.source, edge.pullback.target, 0, [{}] * 3)
    bad = _rebuilt(diagram, BurrowEdge("BP", "Y", zeroed, edge.pushforward, edge.chern))
    report = bad.validate()
    assert not report.ok
    assert any(
        e.check == "pullback-surjective" and "degree 0" in e.detail
        for e in report.problems()
    )


def test_zeroed_fundamental_class_reported():
    diagram = point_blowup_p2_diagram()
    edge = diagram.edges[("BP", "Y")]
    y = edge.pullback.source
    z = edge.pullback.target
    zero_push = GradedMap.from_images(z, y, 2, [y.zero()] * z.total_dim)
    chern = ChernPolynomial(2, (edge.chern.coefficient(1), y.zero()))
    bad = _rebuilt(diagram, BurrowEdge("BP", "Y", edge.pullback, zero_push, chern))
    report = bad.validate()
    assert not report.ok
    assert any("[Z] = 0" in e.detail for e in report.problems())


# Every pullback of keel n=2 lands in a burrow of top degree <= 1, where the
# ring-hom law and the composite of a chain see only degree 0; so the keel
# mutations of those two checks perturb the unit.
@pytest.mark.parametrize(
    "model,small,big,k",
    [("fm3_diagram", "12|3", "1|2|3", 1), ("keel2_diagram", "12", "1|2", 0)],
)
def test_perturbed_pullback_breaks_ring_hom(request, model, small, big, k):
    diagram = request.getfixturevalue(model)
    edge = diagram.edges[(small, big)]
    pull = _perturbed(edge.pullback, k)
    assert all(pull.surjective_degrees())
    bad = _rebuilt(diagram, BurrowEdge(small, big, pull, edge.pushforward, edge.chern))
    assert _fails(bad, "pullback-ring-hom", f"{small}<{big}")
    assert not _fails(bad, "pullback-surjective", f"{small}<{big}")


@pytest.mark.parametrize(
    "model,small,big", [("fm3_diagram", "12|3", "1|2|3"), ("keel2_diagram", "12", "1|2")]
)
def test_perturbed_pushforward_breaks_projection_formula(request, model, small, big):
    diagram = request.getfixturevalue(model)
    edge = diagram.edges[(small, big)]
    push = _perturbed(edge.pushforward, 0)
    bad = _rebuilt(diagram, BurrowEdge(small, big, edge.pullback, push, edge.chern))
    assert _fails(bad, "projection-formula", f"{small}<{big}")


@pytest.mark.parametrize(
    "model,small,big,k",
    [("fm3_diagram", "123", "12|3", 1), ("keel2_diagram", "1@0|2@1", "1@0|2", 0)],
)
def test_perturbed_chain_link_breaks_functoriality(request, model, small, big, k):
    diagram = request.getfixturevalue(model)
    # small < big < top is a chain whose composite the check compares
    assert any(
        (small, top) in diagram.edges and (big, top) in diagram.edges
        for top in diagram.burrows
    )
    edge = diagram.edges[(small, big)]
    pull = _perturbed(edge.pullback, k)
    bad = _rebuilt(diagram, BurrowEdge(small, big, pull, edge.pushforward, edge.chern))
    assert _fails(bad, "pullback-functorial", "chains")


def test_burrow_of_lookups(fm3_diagram):
    assert fm3_diagram.burrow_of([]) == "1|2|3"
    assert fm3_diagram.burrow_of(["D12"]) == "12|3"
    assert fm3_diagram.burrow_of(["D12", "D13"]) == "123"
    with pytest.raises(InputError):
        fm3_diagram.burrow_of(["nope"])


def test_element_poset(fm3_diagram):
    assert fm3_diagram.element_contains("D12", "D123")
    assert not fm3_diagram.element_contains("D123", "D12")
    assert not fm3_diagram.element_contains("D12", "D13")
    assert fm3_diagram.elements_below("D12") == ["D12", "D123"]
    assert fm3_diagram.elements_below("D123") == ["D123"]


def test_keel_meets_canonicalize(keel2_diagram):
    # freezing both coordinates at the same point forces them equal
    assert keel2_diagram.burrow_of(["D1@0", "D2@0"]) == "12@0"
    assert keel2_diagram.burrow_of(["D1@0", "D2@1"]) == "1@0|2@1"
    assert keel2_diagram.burrow_of(["D1@0", "D1@1"]) is None


def test_nest_predicate(fm3_diagram):
    assert fm3_diagram.is_nest(set())
    assert fm3_diagram.is_nest({"D12"})
    assert fm3_diagram.is_nest({"D12", "D123"})
    assert not fm3_diagram.is_nest({"D12", "D13"})
    # downward closure on a known nest
    assert fm3_diagram.is_nest({"D123"})


def test_nest_rule_needs_index_sets():
    diagram = point_blowup_p2_diagram()
    from wonder.diagram import NESTED_OR_DISJOINT, BuildingElement

    bad = BurrowDiagram(
        socle_degree=diagram.socle_degree,
        elements=[BuildingElement("P", 2)],
        burrows=list(diagram.burrows.values()),
        edges=list(diagram.edges.values()),
        singles=dict(diagram.singles),
        meets=dict(diagram.meets),
        nests=NESTED_OR_DISJOINT,
    )
    with pytest.raises(InputError):
        bad.is_nest({"P"})


def test_functoriality_check_runs(fm4_diagram):
    report = fm4_diagram.validate()
    assert report.ok
    entries = {e.check for e in report.entries}
    assert "pullback-functorial" in entries
    assert "projection-formula" in entries
    assert "chern-fundamental-class" in entries


def test_fundamental_class(fm3_diagram):
    amb = fm3_diagram.ambient.algebra
    fc = fm3_diagram.fundamental_class("12|3")
    assert fc == amb.from_labels({"h1": 1, "h2": 1})
