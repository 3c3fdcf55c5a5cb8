import random
from fractions import Fraction as F

import pytest

from wonder.algebra import GradedAlgebra, GradedMap
from wonder.diagram import BurrowDiagram, BurrowEdge, ChernPolynomial
from wonder.errors import InputError
from wonder.models import (
    fm_power,
    keel_model,
    point_blowup_p2_diagram,
    single_center_diagram,
)


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


def test_missing_meet_pair_reported(keel2_diagram):
    """The table holds the meet of every pair of burrows; a missing pair
    fails validation even where no lookup needs it."""
    singles = set(keel2_diagram.singles.values())
    pair = next(
        key for key in sorted(keel2_diagram.meets, key=sorted) if not key & singles
    )
    meets = {key: val for key, val in keel2_diagram.meets.items() if key != pair}
    bad = BurrowDiagram(
        socle_degree=keel2_diagram.socle_degree,
        elements=list(keel2_diagram.elements.values()),
        burrows=list(keel2_diagram.burrows.values()),
        edges=list(keel2_diagram.edges.values()),
        singles=dict(keel2_diagram.singles),
        meets=meets,
        nests=keel2_diagram.nest_rule,
        relations=keel2_diagram.relations,
    )
    [problem] = bad.validate().problems()
    assert (problem.check, problem.subject) == ("table-meets", "&".join(sorted(pair)))
    assert problem.detail == "pair missing from the table"


def test_repeated_meet_pair_keeps_the_last_value(fm3_diagram):
    """A pair given twice keeps its last meet, and containment follows it:
    an earlier entry claiming a containment the last one denies leaves no
    chain behind for the functoriality check to walk."""
    d = fm3_diagram
    small, big, mid = next(
        (small, big, mid)
        for small, big in sorted(d.edges)
        for mid in sorted(d.burrows)
        if mid not in (small, big)
        and d.burrow_contains(mid, small)
        and not d.burrow_contains(big, mid)
    )
    meets = {tuple(sorted(key)): val for key, val in d.meets.items()}
    last = meets.pop(tuple(sorted((big, mid))))
    meets[big, mid] = mid
    meets[mid, big] = last
    again = BurrowDiagram(
        socle_degree=d.socle_degree,
        elements=list(d.elements.values()),
        burrows=list(d.burrows.values()),
        edges=list(d.edges.values()),
        singles=dict(d.singles),
        meets=meets,
        nests=d.nest_rule,
        relations=d.relations,
    )
    assert again.meet(big, mid) == last and not again.burrow_contains(big, mid)
    assert again.meets == d.meets
    assert again.validate().summary() == d.validate().summary()


def test_non_associative_burrow_fails_validation():
    """The generator checks are exact on associative algebras, and validate
    checks that hypothesis on every burrow.  Here the ambient is commutative
    but not associative (a*a = c while x*(x*a) = 2c); the pullback and the
    pushforward keep their laws on generators but not on every basis pair,
    and the associativity row is the one failure, so the report fails as
    the full checks would make it."""
    labels = [["1"], ["x"], ["a"], ["e"], ["c"], ["s"]]
    # x*x = a, x*a = e, x*e = 2c, a*a = c, x*c = s, a*e = s
    mult = [(1, 1, 2, 1), (1, 2, 3, 1), (1, 3, 4, 2), (2, 2, 4, 1), (1, 4, 5, 1), (2, 3, 5, 1)]
    amb = GradedAlgebra([1] * 6, labels, mult)
    line = GradedAlgebra(
        [1] * 5,
        [["1"], ["t"], ["t2"], ["t3"], ["t4"]],
        [(i, j, i + j, 1) for i in range(1, 4) for j in range(i, 5 - i)],
    )
    pull = GradedMap(amb, line, 0, [{0: 1}, {1: 1}, {2: 1}, {3: 1}, {4: F(1, 2)}, {}])
    push = GradedMap(line, amb, 1, [{1: 1}, {2: 1}, {3: 1}, {4: 2}, {5: 2}])
    diagram = single_center_diagram(
        amb, line, pull, push, [push.apply_basis(0)], socle_degree=5
    )
    assert pull.is_ring_hom() and not _full_ring_hom(pull)
    assert not _full_projection_formula(pull, push)
    [problem] = diagram.validate().problems()
    assert (problem.check, problem.subject) == ("associativity", "Y")
    assert problem.detail == "(x*x)*a != x*(x*a)"


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


# Full basis x basis references for the three checks that validate runs on
# algebra generators only.


def _full_ring_hom(m) -> bool:
    src, tgt = m.source, m.target
    if m.shift != 0 or m.apply(src.unit()) != tgt.unit():
        return False
    for i in range(1, src.total_dim):
        for j in range(i, src.total_dim):
            if src.degree_of(i) + src.degree_of(j) > src.top_degree:
                continue
            left = m.apply(src.basis_element(i) * src.basis_element(j))
            if left != m.apply_basis(i) * m.apply_basis(j):
                return False
    return True


def _full_projection_formula(pull, push) -> bool:
    big, small = pull.source, pull.target
    return all(
        push.apply(pull.apply_basis(a) * small.basis_element(b))
        == big.basis_element(a) * push.apply_basis(b)
        for a in range(big.total_dim)
        for b in range(small.total_dim)
    )


def _full_functoriality(diagram) -> str | None:
    """Detail of the first chain whose composite differs from its edge map
    on some basis element, or None."""
    for small, big in diagram.edges:
        for mid in diagram.burrows:
            if mid in (small, big) or not (
                diagram.burrow_contains(big, mid) and diagram.burrow_contains(mid, small)
            ):
                continue
            direct = diagram.pullback(big, small)
            link, upper = diagram.pullback(mid, small), diagram.pullback(big, mid)
            if any(
                direct.apply_basis(g) != link.apply(upper.apply_basis(g))
                for g in range(direct.source.total_dim)
            ):
                return f"{big} -> {mid} -> {small}"
    return None


def _mutated(diagram, rnd):
    """The diagram with one seeded pullback or pushforward entry moved."""
    small, big = rnd.choice(sorted(diagram.edges))
    edge = diagram.edges[(small, big)]
    which = rnd.choice(["pullback", "pushforward"])
    m = getattr(edge, which)
    slots = [
        (g, h)
        for g in range(m.source.total_dim)
        for h in m.target.global_indices(m.source.degree_of(g) + m.shift)
    ]
    g, h = rnd.choice(slots)
    columns = [dict(col) for col in m.columns]
    columns[g][h] = columns[g].get(h, 0) + rnd.choice([-1, 1, 2])
    moved = GradedMap(m.source, m.target, m.shift, columns)
    maps = {"pullback": edge.pullback, "pushforward": edge.pushforward, which: moved}
    return _rebuilt(diagram, BurrowEdge(small, big, **maps, chern=edge.chern))


MUTATED_MODELS = {
    "fm-p1-3": lambda: fm_power("p1", 3),
    "fm-p2-3": lambda: fm_power("p2", 3),
    "keel-2": lambda: keel_model(2),
    "keel-3": lambda: keel_model(3),
}


@pytest.mark.parametrize("name", sorted(MUTATED_MODELS))
def test_generator_checks_agree_with_full_reference(name):
    """Seeded one-entry mutations: validate catches each one, and its
    generator checks give the verdicts of the full basis x basis checks.
    The ring-hom verdict and report.ok always agree; the projection formula
    and functoriality agree whenever every pullback is a ring map, the case
    their proofs cover."""
    diagram = MUTATED_MODELS[name]()
    rnd = random.Random(f"mutate {name}")
    for _ in range(12):
        bad = _mutated(diagram, rnd)
        report = bad.validate()
        verdicts = {(e.check, e.subject): e for e in report.entries}
        full = {}
        for (small, big), edge in bad.edges.items():
            subject = f"{small}<{big}"
            full[("pullback-ring-hom", subject)] = _full_ring_hom(edge.pullback)
            full[("projection-formula", subject)] = _full_projection_formula(
                edge.pullback, edge.pushforward
            )
        chain = _full_functoriality(bad)
        full[("pullback-functorial", "chains")] = chain is None
        ring_maps = all(v for (check, _), v in full.items() if check == "pullback-ring-hom")
        for key, ok in full.items():
            if key[0] == "pullback-ring-hom" or ring_maps:
                assert verdicts[key].ok == ok, key
        if ring_maps:
            assert verdicts[("pullback-functorial", "chains")].detail == (chain or "")
        others = all(e.ok for key, e in verdicts.items() if key not in full)
        assert report.ok == (others and all(full.values()))
        assert not report.ok
