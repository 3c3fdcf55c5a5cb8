import random
from fractions import Fraction as F

import pytest

from wonder import io
from wonder.algebra import GradedAlgebra, GradedMap
from wonder.diagram import BurrowDiagram, BurrowEdge, ChernPolynomial
from wonder.engine import build_ring
from wonder.errors import InputError
from wonder.models import fm_power, keel_model
from wonder.nests import standard_bound

from builders import (
    edge_entry,
    own_maps,
    own_structure,
    point_blowup_p2_diagram,
    single_center_diagram,
)


def test_plane_point_fixture_validates():
    report = point_blowup_p2_diagram().validate()
    assert report.ok, report.summary()


def _rebuilt(diagram, edge=None, symmetry=(), drop=()):
    """The diagram with edge in place of the one on its burrow pair (or
    added), without the edges on the burrow pairs in drop, and with the
    given declared symmetry."""
    by_pair = {key: e for key, e in diagram.edges.items() if key not in drop}
    if edge is not None:
        by_pair[edge.small, edge.big] = edge
    nests = diagram.nest_rule
    if diagram.explicit_nests is not None:
        nests = [sorted(s) for s in diagram.explicit_nests]
    return BurrowDiagram(
        socle_degree=diagram.socle_degree,
        elements=list(diagram.elements.values()),
        burrows=list(diagram.burrows.values()),
        edges=list(by_pair.values()),
        singles=dict(diagram.singles),
        nests=nests,
        relations=diagram.relations,
        symmetry=symmetry,
    )


def _perturbed(m, k):
    """A copy of the graded map m whose first nonzero degree-k entry is raised by 1."""
    i, j = next((i, j) for i, row in enumerate(m.rows(k)) for j in row)
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


def test_false_symmetry_fails_and_falls_back(fm3_diagram):
    """A pullback entry of a burrow that (1 2) moves is perturbed and the
    declaration kept: the generators that move it fail their row, the group
    falls back to the trivial one, and the broken law is still reported on
    the perturbed edge and on no other."""
    small, big = "13|2", "1|2|3"
    assert fm3_diagram.symmetry_generators[0].burrow(small) == "1|23"
    edge = fm3_diagram.edges[(small, big)]
    pull = _perturbed(edge.pullback, 1)
    bad = _rebuilt(
        fm3_diagram,
        BurrowEdge(small, big, pull, edge.pushforward, edge.chern),
        fm3_diagram.symmetry_generators,
    )
    report = bad.validate()
    assert bad.symmetry().generators == ()
    assert [e.subject for e in report.problems() if e.check == "symmetry"] == [
        "generator 1",
        "generator 2",
    ]
    assert _fails(bad, "pullback-ring-hom", f"{small}<{big}")
    hom = [e.subject for e in report.problems() if e.check == "pullback-ring-hom"]
    assert hom == [f"{small}<{big}"]


def _drop_edge(small, big):
    def mutate(payload):
        payload["edges"].remove(edge_entry(payload, small, big))

    return mutate


def _set_pushforward_entry(payload):
    own_maps(payload, edge_entry(payload, "13|2", "1|2|3"))["pushforward"][0][3] = "2"


def _set_structure_constant(payload):
    own_structure(payload, payload["burrows"][2])["mult"][0][3] = "2"


@pytest.mark.parametrize(
    "mutate,detail",
    [
        (lambda p: p["elements"][2].update(codim=2), "element D13 and its image differ in codim"),
        (lambda p: p["intersections"]["singles"].update(D13="123"), "singles of D13"),
        (lambda p: p["elements"][2].update(index_set=["1", "2"]), "differ in the nest relation"),
        (_drop_edge("123", "13|2"), "edge 123<1|23 has no image edge"),
        (lambda p: p["burrows"][2].update(defining_set=[]), "differ in codim or defining set"),
        (_set_structure_constant, "basis map of 13|2"),
        (_set_pushforward_entry, "maps of edge 13|2<1|2|3"),
    ],
    ids=["codim", "singles", "nest", "edge", "defining-set", "algebra", "pushforward"],
)
def test_symmetry_check_names_the_first_datum_it_does_not_keep(mutate, detail):
    """One datum of fm-p1 n=3 changed so that (1 2) no longer keeps it, the
    declaration kept: the check fails that generator, names the datum, and
    validate reports a failing symmetry row."""
    payload = io.diagram_payload(fm_power("p1", 3))
    assert payload["elements"][2]["id"] == "D13" and payload["burrows"][2]["id"] == "13|2"
    mutate(payload)
    diagram = io.diagram_from_payload(payload)
    problems = dict(diagram.symmetry().problems)
    assert detail in problems["generator 1"]
    assert not diagram.symmetry().generators
    assert any(e.check == "symmetry" for e in diagram.validate().problems())


def _unit_pullbacks_doubled(payload):
    for datum in payload["maps"]:
        datum["pullback"][0][3] = "2"


def _diagonal_edges_dropped(payload):
    for big in ("12|3", "13|2", "1|23"):
        _drop_edge("123", big)(payload)


@pytest.mark.parametrize(
    "model,fault,check",
    [
        (lambda: keel_model(2), _unit_pullbacks_doubled, "pullback-ring-hom"),
        (lambda: fm_power("p1", 3), _diagonal_edges_dropped, "defining-set"),
    ],
    ids=["keel-2-units", "fm-p1-3-meets"],
)
def test_orbit_verdicts_equal_computed_ones_on_a_symmetric_fault(
    strip_symmetry, model, fault, check
):
    """A fault the group keeps: every pullback of keel n=2 sends 1 to 2, or
    the point 123 of fm-p1 n=3 loses its edges into the three diagonals, so
    that they no longer meet.  The group passes, so
    validate decides laws once per orbit; the report is the one computed
    without the group, failing rows included."""
    payload = io.diagram_payload(model())
    fault(payload)
    bad = io.diagram_from_payload(payload)
    assert bad.symmetry().generators and not bad.symmetry().problems
    report = bad.validate()
    assert any(e.check == check for e in report.problems())
    assert report.summary() == strip_symmetry(bad).validate().summary()


def _with_chern(diagram, key, i, shift):
    """The diagram, its symmetry kept, with c_i of one edge plus shift."""
    edge = diagram.edges[key]
    coeffs = list(edge.chern.coeffs)
    coeffs[i - 1] = coeffs[i - 1] + shift
    chern = ChernPolynomial(edge.chern.deg, tuple(coeffs))
    return _rebuilt(
        diagram,
        BurrowEdge(*key, edge.pullback, edge.pushforward, chern),
        diagram.symmetry_generators,
    )


def test_symmetry_compares_lower_chern_coefficients_on_the_small_burrow():
    """c_1 of 12|3 < 1|2|3 on fm-p2 n=3 is the lift 3*h1, which (1 2) sends to
    3*h2: the lifts differ by a class restricting to zero on 12|3.  Adding
    h1 - h2, such a class, keeps the group and the ring; adding h1 does not
    keep the group, and a changed top coefficient fails it too."""
    diagram = fm_power("p2", 3)
    key = ("12|3", "1|2|3")
    amb = diagram.ambient.algebra
    h1, h2 = amb.from_labels({"h1": 1}), amb.from_labels({"h2": 1})
    assert diagram.edges[key].pullback.apply(h1 - h2).is_zero()
    shifted = _with_chern(diagram, key, 1, h1 - h2)
    report = shifted.validate()
    assert report.ok and shifted.symmetry().generators
    assert not any(e.check == "symmetry" for e in report.entries)
    assert build_ring(shifted).as_algebra().to_payload() == (
        build_ring(diagram).as_algebra().to_payload()
    )
    for i, shift in ((1, h1), (2, amb.from_labels({"h1^2": 1}))):
        moved = _with_chern(diagram, key, i, shift)
        problems = [e for e in moved.validate().problems() if e.check == "symmetry"]
        assert problems and not moved.symmetry().generators
    top = _with_chern(diagram, key, 2, amb.from_labels({"h1^2": 1}))
    assert "top Chern coefficient" in top.symmetry().problems[0][1]


def test_element_contains_names_an_element_missing_from_singles():
    """On an unvalidated diagram whose singles table lacks an element, the
    containment lookups raise InputError naming it."""
    payload = io.diagram_payload(keel_model(2))
    del payload["intersections"]["singles"]["D1@0"]
    diagram = io.diagram_from_payload(payload)
    with pytest.raises(InputError, match="'D1@0' has no burrow"):
        diagram.elements_below("D12@0")
    with pytest.raises(InputError, match="'D1@0' has no burrow"):
        standard_bound(diagram, "D12@0", {"D1@0", "D12@0"})


def test_missing_transitive_edge_fails_table_consistency(fm4_diagram):
    """The edges are the containment order, so they must be transitive:
    without 1234<12|3|4 the chains from 1234 up to 12|3|4 have no edge of
    their own, and the one failure names the first of them."""
    bad = _rebuilt(fm4_diagram, drop={("1234", "12|3|4")})
    [problem] = bad.validate().problems()
    assert (problem.check, problem.subject) == ("table-consistency", "elements")
    assert problem.detail == "1234<123|4<12|3|4 has no edge 1234<12|3|4"


def test_two_maximal_common_lower_burrows_fail_table_consistency(keel2_diagram):
    """An added edge putting the point 1@0|2@1 on the diagonal 12 gives
    1@0|2 and 12 two maximal common lower burrows, 12@0 and 1@0|2@1: the
    edges stay transitive, the one failure is the table-consistency row
    naming the pair and both burrows, and meet raises naming the pair."""
    d = keel2_diagram
    like = d.edges[("12@0", "12")]  # the same maps, onto the other point
    diag, point = d.burrows["12"].algebra, d.burrows["1@0|2@1"].algebra
    pull = GradedMap(diag, point, 0, like.pullback.columns)
    push = GradedMap(point, diag, like.pushforward.shift, like.pushforward.columns)
    bad = _rebuilt(d, BurrowEdge("1@0|2@1", "12", pull, push, like.chern))
    [problem] = bad.validate().problems()
    assert (problem.check, problem.subject) == ("table-consistency", "elements")
    assert problem.detail == (
        "12 and 1@0|2 have two maximal common lower burrows, 12@0 and 1@0|2@1"
    )
    with pytest.raises(InputError, match="'1@0\\|2' and '12' have no greatest"):
        bad.meet("1@0|2", "12")


def test_wrong_endpoint_edge_is_left_out_of_functoriality(keel2_diagram):
    """An edge whose maps live on another (equal) point algebra fails its
    edge-shape row; the functoriality check leaves it out, as a direct map
    and as a link, instead of applying its maps to the wrong algebra, so
    validate returns its report."""
    d = keel2_diagram
    like = d.edges[("12@0", "12")]
    diag, other = d.burrows["12"].algebra, d.burrows["1@0|2@1"].algebra
    pull = GradedMap(diag, other, 0, like.pullback.columns)
    push = GradedMap(other, diag, like.pushforward.shift, like.pushforward.columns)
    bad = _rebuilt(d, BurrowEdge("12@0", "12", pull, push, like.chern))
    report = bad.validate()
    assert [(e.check, e.subject) for e in report.problems()] == [("edge-shape", "12@0<12")]
    assert any(e.check == "pullback-functorial" for e in report.entries)


def test_short_chern_polynomial_skips_class_nonzero(keel2_diagram):
    """An edge to the ambient with one Chern coefficient too few fails
    chern-degree and has no top coefficient to read, so its class-nonzero
    row is left out instead of indexing past the coefficients."""
    d = keel2_diagram
    edge = d.edges[("1@0|2@1", "1|2")]
    short = ChernPolynomial(1, edge.chern.coeffs[:1])
    bad = _rebuilt(d, BurrowEdge(edge.small, edge.big, edge.pullback, edge.pushforward, short))
    report = bad.validate()
    assert ("chern-degree", "1@0|2@1<1|2") in {(e.check, e.subject) for e in report.problems()}
    assert not any(e.check == "class-nonzero" and e.subject == "1@0|2@1" for e in report.entries)
    assert any(e.check == "class-nonzero" and e.subject == "12@0" for e in report.entries)


@pytest.mark.parametrize("model", ["fm4_diagram", "keel2_diagram"])
def test_containment_and_meets_read_the_edge_set(request, model):
    """A burrow lies inside another exactly when they are equal or joined by
    an edge, and the meet of two burrows is the one common lower burrow
    that holds all the others, or None.  Dropping an edge drops the
    containment and the meet it gave."""
    d = request.getfixturevalue(model)
    ids = sorted(d.burrows)
    for a in ids:
        for b in ids:
            assert d.burrow_contains(a, b) == (a == b or (b, a) in d.edges)
            common = [c for c in ids if d.burrow_contains(a, c) and d.burrow_contains(b, c)]
            tops = [c for c in common if all(d.burrow_contains(c, x) for x in common)]
            assert d.meet(a, b) == (tops[0] if common else None)
    small, big = next(key for key in sorted(d.edges) if key[1] != d.ambient_id)
    cut = _rebuilt(d, drop={(small, big)})
    assert d.burrow_contains(big, small) and d.meet(big, small) == small
    assert not cut.burrow_contains(big, small) and cut.meet(big, small) != small


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


# Mutations of the shared tables of the keel n=3 file, as `wonder model keel
# --n 3` writes it: one entry of the structures or the maps table serves many
# burrows or edges, and every one of them must see the change.


def _most_shared(refs) -> int:
    """The table index that the most references name."""
    return max(set(refs), key=lambda r: (refs.count(r), -r))


def test_perturbed_shared_structure_fails_on_every_burrow_using_it(keel3_diagram):
    """One structure constant of the structures entry shared by the most
    burrows with a nonempty table (the twelve P1 x P1 burrows) is doubled:
    the ring-hom law fails on the pullbacks into those burrows and the
    projection formula on edges at them, every such burrow is named, and no
    row outside their edges fails."""
    payload = io.diagram_payload(keel3_diagram)
    refs = [b["structure"] for b in payload["burrows"] if payload["structures"][b["structure"]]["mult"]]
    ref = _most_shared(refs)
    assert refs.count(ref) == 12
    payload["structures"][ref]["mult"][0][3] = "2"
    bad = io.diagram_from_payload(payload)
    on = {b["id"] for b in payload["burrows"] if b["structure"] == ref}
    problems = bad.validate().problems()
    assert {e.check for e in problems} == {"pullback-ring-hom", "projection-formula"}
    touched = set()
    for e in problems:
        small, big = e.subject.split("<")
        assert {small, big} & on, e
        touched |= {small, big} & on
    assert touched == on
    hom = {e.subject for e in problems if e.check == "pullback-ring-hom"}
    assert hom == {f"{b}<{bad.ambient_id}" for b in on}


def test_perturbed_shared_maps_datum_fails_on_every_edge_reading_it(keel3_diagram):
    """The unit entry of the pullback in the maps entry shared by the most
    edges is doubled: exactly those edges fail the ring-hom law, every chain
    through them fails functoriality, and the declared symmetry still holds,
    since every edge of an orbit reads the same changed datum."""
    payload = io.diagram_payload(keel3_diagram)
    refs = [ref for _, _, ref in payload["edges"]]
    ref = _most_shared(refs)
    assert refs.count(ref) == 111
    payload["maps"][ref]["pullback"][0][3] = "2"
    bad = io.diagram_from_payload(payload)
    problems = bad.validate().problems()
    assert bad.symmetry().generators and not bad.symmetry().problems
    assert {e.check for e in problems} == {"pullback-ring-hom", "pullback-functorial"}
    hom = {e.subject for e in problems if e.check == "pullback-ring-hom"}
    assert hom == {f"{small}<{big}" for small, big, r in payload["edges"] if r == ref}


@pytest.mark.parametrize(
    "perm,detail",
    [
        ([0, 2, 1, 3], "maps of edge 12@inf|3<1@inf|2|3 are not carried to those of its image"),
        ([0, 3, 2, 1], "basis map of 1@inf|2|3 is not an algebra isomorphism"),
    ],
    ids=["automorphism", "not-an-automorphism"],
)
def test_false_basis_permutation_fails_where_other_burrows_share_its_data(
    keel3_diagram, perm, detail
):
    """The marker swap (0 1), the third generator, fixes 1@inf|2|3 and keeps
    each index of its basis.  Declaring the swap of h1 and h23 there, an
    automorphism of its algebra, breaks the maps of its edges; declaring a
    map that moves degrees breaks the algebra.  Earlier burrows share its
    structure and earlier edges its edge data, with the identity there and
    passing verdicts, so the check must key each verdict on the basis
    permutations as well as on the data."""
    payload = io.diagram_payload(keel3_diagram)
    assert "1@inf|2|3" not in payload["symmetry"][2]["bases"]
    payload["symmetry"][2]["bases"]["1@inf|2|3"] = perm
    bad = io.diagram_from_payload(payload)
    assert bad.symmetry().problems == [("generator 3", detail)]
    assert ("symmetry", "generator 3") in {(e.check, e.subject) for e in bad.validate().problems()}


def test_socle_degree_is_checked_per_codim_on_a_shared_structure():
    """The point 12@0 of keel n=2 given codim 1: its algebra shares the
    point structure with the other points, which keep codim 2, so the
    socle row fails on 12@0 alone."""
    payload = io.diagram_payload(keel_model(2))
    next(b for b in payload["burrows"] if b["id"] == "12@0")["codim"] = 1
    bad = io.diagram_from_payload(payload)
    socle = [(e.subject, e.detail) for e in bad.validate().problems() if e.check == "socle"]
    assert socle == [("12@0", "expected socle degree 1 outside stored range; socle dimension 0 at degree 1")]


def test_pushforward_on_another_algebra_of_its_structure_fails_edge_shape(keel2_diagram):
    """An edge whose pushforward starts at another point algebra, one of the
    same structure, shares its columns with the correct edges but not its
    algebras: it fails its edge-shape row, is left out of the laws, and
    validate returns its report instead of reusing their verdicts."""
    d = keel2_diagram
    edge = d.edges[("12@0", "12")]
    push = edge.pushforward.rebased(d.burrows["1@0|2@1"].algebra, d.burrows["12"].algebra)
    bad = _rebuilt(d, BurrowEdge("12@0", "12", edge.pullback, push, edge.chern))
    assert [(e.check, e.subject) for e in bad.validate().problems()] == [("edge-shape", "12@0<12")]


def test_edges_off_their_own_algebras_are_dumped_with_their_own_maps(keel2_diagram):
    """Two edges whose pushforwards start at other point algebras, with
    different columns, have no shared datum; each is written with its own
    maps entry, so loading the dump gives back both sets of columns."""
    d = keel2_diagram
    pushes = {}
    for small, other, k in (("12@0", "1@0|2@1", 1), ("12@1", "1@0|2@inf", 2)):
        push = d.edges[(small, "12")].pushforward
        pushes[small, "12"] = GradedMap(
            d.burrows[other].algebra,
            push.target,
            push.shift,
            [{h: k * v for h, v in col.items()} for col in push.columns],
        )
    bad = BurrowDiagram(
        socle_degree=d.socle_degree,
        elements=list(d.elements.values()),
        burrows=list(d.burrows.values()),
        edges=[
            BurrowEdge(*key, e.pullback, pushes[key], e.chern) if key in pushes else e
            for key, e in d.edges.items()
        ],
        singles=dict(d.singles),
        nests=d.nest_rule,
        relations=d.relations,
    )
    assert all(bad.edge_data()[key] is None for key in pushes)
    loaded = io.load_diagram(io.dump_diagram(bad))
    for key, push in pushes.items():
        assert loaded.edges[key].pushforward.columns == push.columns
