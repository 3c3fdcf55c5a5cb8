import json
import random
from fractions import Fraction as F

import pytest

from wonder import io
from wonder.algebra import GradedAlgebra, GradedMap
from wonder.diagram import (
    BuildingElement,
    BurrowDiagram,
    BurrowEdge,
    BurrowNode,
    ChernPolynomial,
    Permutation,
)
from wonder.engine import build_ring
from wonder.errors import InputError
from wonder.models import fm_power, keel_model
from wonder.nests import standard_bound

from builders import (
    checked_report,
    edge_entry,
    own_maps,
    own_structure,
    point_blowup_p2_diagram,
    single_center_diagram,
)


def test_plane_point_fixture_validates():
    report = checked_report(point_blowup_p2_diagram())
    assert report.ok, report.summary()


def _rebuilt(diagram, edge=None, symmetry=(), drop=(), reverse=False):
    """The diagram with edge, a (small, big, datum) triple, in place of the
    edge on its burrow pair (or added), without the edges on the burrow
    pairs in drop, with the given declared symmetry, and with its edges
    listed in reverse order if asked."""
    by_pair = {key: e for key, e in diagram.edges.items() if key not in drop}
    if edge is not None:
        by_pair[edge[:2]] = edge[2]
    nests = diagram.nest_rule
    if diagram.explicit_nests is not None:
        nests = [sorted(s) for s in diagram.explicit_nests]
    return BurrowDiagram(
        socle_degree=diagram.socle_degree,
        elements=list(diagram.elements.values()),
        burrows=list(diagram.burrows.values()),
        edges=[(*key, e) for key, e in by_pair.items()][:: -1 if reverse else 1],
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
        e.check == check and e.subject == subject for e in checked_report(diagram).problems()
    )


def test_zeroed_pullback_reported():
    diagram = point_blowup_p2_diagram()
    edge = diagram.edges[("BP", "Y")]
    zeroed = GradedMap(edge.pullback.source, edge.pullback.target, 0, [{}] * 3)
    bad = _rebuilt(diagram, ("BP", "Y", BurrowEdge(zeroed, edge.pushforward, edge.chern)))
    report = checked_report(bad)
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
    bad = _rebuilt(diagram, ("BP", "Y", BurrowEdge(edge.pullback, zero_push, chern)))
    report = checked_report(bad)
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
    bad = _rebuilt(diagram, (small, big, BurrowEdge(pull, edge.pushforward, edge.chern)))
    assert _fails(bad, "pullback-ring-hom", f"{small}<{big}")
    assert not _fails(bad, "pullback-surjective", f"{small}<{big}")


@pytest.mark.parametrize(
    "model,small,big", [("fm3_diagram", "12|3", "1|2|3"), ("keel2_diagram", "12", "1|2")]
)
def test_perturbed_pushforward_breaks_projection_formula(request, model, small, big):
    diagram = request.getfixturevalue(model)
    edge = diagram.edges[(small, big)]
    push = _perturbed(edge.pushforward, 0)
    bad = _rebuilt(diagram, (small, big, BurrowEdge(edge.pullback, push, edge.chern)))
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
    bad = _rebuilt(diagram, (small, big, BurrowEdge(pull, edge.pushforward, edge.chern)))
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
        (small, big, BurrowEdge(pull, edge.pushforward, edge.chern)),
        fm3_diagram.symmetry_generators,
    )
    report = checked_report(bad)
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
    assert any(e.check == "symmetry" for e in checked_report(diagram).problems())


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
    that they no longer meet.  The group passes, so validate tries the
    containment laws and the chains from one burrow per orbit (the laws of
    one burrow or edge still run once per distinct datum); the report is
    the one computed without the group, failing rows included."""
    payload = io.diagram_payload(model())
    fault(payload)
    bad = io.diagram_from_payload(payload)
    assert bad.symmetry().generators and not bad.symmetry().problems
    report = checked_report(bad)
    assert any(e.check == check for e in report.problems())
    assert report.summary() == checked_report(strip_symmetry(bad)).summary()


def _with_chern(diagram, key, i, shift):
    """The diagram, its symmetry kept, with c_i of one edge plus shift."""
    edge = diagram.edges[key]
    coeffs = list(edge.chern.coeffs)
    coeffs[i - 1] = coeffs[i - 1] + shift
    chern = ChernPolynomial(edge.chern.deg, tuple(coeffs))
    return _rebuilt(
        diagram,
        (*key, BurrowEdge(edge.pullback, edge.pushforward, chern)),
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
    report = checked_report(shifted)
    assert report.ok and shifted.symmetry().generators
    assert not any(e.check == "symmetry" for e in report.entries)
    assert build_ring(shifted).as_algebra().to_payload() == (
        build_ring(diagram).as_algebra().to_payload()
    )
    for i, shift in ((1, h1), (2, amb.from_labels({"h1^2": 1}))):
        moved = _with_chern(diagram, key, i, shift)
        problems = [e for e in checked_report(moved).problems() if e.check == "symmetry"]
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
    [problem] = checked_report(bad).problems()
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
    bad = _rebuilt(d, ("1@0|2@1", "12", BurrowEdge(pull, push, like.chern)))
    [problem] = checked_report(bad).problems()
    assert (problem.check, problem.subject) == ("table-consistency", "elements")
    assert problem.detail == (
        "12 and 1@0|2 have two maximal common lower burrows, 12@0 and 1@0|2@1"
    )
    with pytest.raises(InputError, match="'1@0\\|2' and '12' have no greatest"):
        bad.meet("1@0|2", "12")


def _orbit_of_edge(diagram, small, big):
    """The burrow pairs the declared generators carry the pair (small, big) to."""
    seen, stack = {(small, big)}, [(small, big)]
    while stack:
        pair = stack.pop()
        for gen in diagram.symmetry_generators:
            image = tuple(map(gen.burrow, pair))
            if image not in seen:
                seen.add(image)
                stack.append(image)
    return sorted(seen)


def _with_orbit_edges(diagram, small, big, make):
    """The diagram, its symmetry kept, with make(s, b) in place of (or added
    as) the edge on each pair of the orbit of (small, big)."""
    out = diagram
    for s, b in _orbit_of_edge(diagram, small, big):
        out = _rebuilt(out, make(s, b), diagram.symmetry_generators)
    return out


def _same_failure_without_the_group(bad, strip_symmetry, check) -> str:
    """The group passes, and the report has the failing rows of the report
    without it: in the diagram's own edge order, against the same diagram
    with no group declared; in the sorted order of its file, against the
    file with its declaration stripped.  Returns the detail of the one
    failing row of the check, in the diagram's own order."""
    assert bad.symmetry().generators and not bad.symmetry().problems
    loaded = io.diagram_from_payload(io.diagram_payload(bad))
    assert loaded.symmetry().generators
    for with_group, without in ((bad, _rebuilt(bad)), (loaded, strip_symmetry(loaded))):
        assert checked_report(with_group).problems() == checked_report(without).problems()
    [detail] = [e.detail for e in checked_report(bad).problems() if e.check == check]
    return detail


def test_two_maximal_lower_burrows_off_the_representatives_fail(keel2_diagram, strip_symmetry):
    """The point 1@1|2@inf, which is not the representative of its orbit,
    put on the diagonal 12 together with every image of that edge: the six
    off-diagonal points now lie on 12, the group still passes, and the
    meet law, tried only from one burrow per orbit, fails as it does
    without the group."""
    d = keel2_diagram
    assert "1@1|2@inf" not in d._representatives()
    like = d.edges[("12@0", "12")]  # the same maps, onto the other points
    bad = _with_orbit_edges(
        d,
        "1@1|2@inf",
        "12",
        lambda s, b: (s, b, like),
    )
    assert len(bad.edges) == len(d.edges) + 6
    assert [e.check for e in checked_report(bad).problems()] == ["table-consistency"]
    assert _same_failure_without_the_group(bad, strip_symmetry, "table-consistency") == (
        "12 and 1@0|2 have two maximal common lower burrows, 12@0 and 1@0|2@1"
    )


def test_meets_failing_on_no_pair_of_representatives_fail(fm4_diagram, strip_symmetry):
    """On fm-p1 n=4, 13|24 put inside 12|3|4, and each image of that edge
    added, all with maps the group keeps (the unit to the unit, all else to
    zero): then 12|34 lies in 13|2|4, so 12|3|4 and 13|2|4 have two
    maximal common lower burrows.  The two lie in one orbit, and every
    pair of representatives still meets, so only a pair of a
    representative and another burrow shows the failure."""
    d = fm4_diagram
    reps = sorted(d._representatives())

    def added(s, b):
        small, big = d.burrows[s].algebra, d.burrows[b].algebra
        pull = GradedMap(big, small, 0, [{0: 1}] + [{}] * (big.total_dim - 1))
        push = GradedMap(small, big, 1, [{}] * small.total_dim)
        return s, b, BurrowEdge(pull, push, ChernPolynomial(1, (big.zero(),)))

    bad = _with_orbit_edges(d, "13|24", "12|3|4", added)
    for i, a in enumerate(reps):
        for b in reps[i + 1 :]:
            bad.meet(a, b)
    assert _same_failure_without_the_group(bad, strip_symmetry, "table-consistency") == (
        "12|3|4 and 13|2|4 have two maximal common lower burrows, 123|4 and 12|34"
    )


def test_missing_transitive_edges_off_the_representatives_are_named(
    fm4_diagram, strip_symmetry
):
    """The point 1234 loses its edges into the six diagonals, with its
    edges listed in reverse order: the first edge whose transitivity fails
    starts at 1|234, not the representative of its orbit, and the report
    names it as it does without the group."""
    d = fm4_diagram
    drop = set(_orbit_of_edge(d, "1234", "12|3|4"))
    bad = _rebuilt(d, symmetry=d.symmetry_generators, drop=drop, reverse=True)
    assert "1|234" not in bad._representatives()
    assert _same_failure_without_the_group(bad, strip_symmetry, "table-consistency") == (
        "1234<1|234<1|2|34 has no edge 1234<1|2|34"
    )


def _graded_scaling(m, sign):
    """m followed (sign 1) or preceded (sign -1) by the automorphism
    x -> 2^(deg x) x of its target or source algebra: a graded ring
    automorphism of any graded algebra, kept by every basis permutation
    that keeps degrees."""

    def factor(g, h):
        return F(2) ** (m.target.degree_of(h) if sign > 0 else -m.source.degree_of(g))

    return GradedMap(
        m.source,
        m.target,
        m.shift,
        [{h: v * factor(g, h) for h, v in col.items()} for g, col in enumerate(m.columns)],
    )


def test_chain_broken_off_the_representatives_fails_functoriality(fm4_diagram, strip_symmetry):
    """On fm-p1 n=4 the pullback along 134|2 < 13|2|4 is followed by the
    grading automorphism of 134|2 and the pushforward preceded by its
    inverse, on that edge and on every image, and the edges are listed in
    reverse order.  Each map stays a surjective ring map with the
    projection formula and the same class, so every per-edge law passes
    and the chains are tried from one burrow per orbit; yet the chains
    through those edges no longer compose, and the first of them in edge
    order, from 1|234 (not the representative of its orbit), is named as
    it is without the group."""
    d = fm4_diagram

    def scaled(s, b):
        e = d.edges[s, b]
        return s, b, BurrowEdge(
            _graded_scaling(e.pullback, 1), _graded_scaling(e.pushforward, -1), e.chern
        )

    scaled_orbit = _with_orbit_edges(d, "134|2", "13|2|4", scaled)
    bad = _rebuilt(scaled_orbit, symmetry=d.symmetry_generators, reverse=True)
    assert "1|234" not in bad._representatives()
    assert [e.check for e in checked_report(bad).problems()] == ["pullback-functorial"]
    assert _same_failure_without_the_group(bad, strip_symmetry, "pullback-functorial") == (
        "1|2|3|4 -> 1|23|4 -> 1|234"
    )


def test_loop_edges_turn_off_the_representative_pairs(strip_symmetry):
    """Loop edges d1 < d1 and a2 < a2, swapped with v1 <-> v2 and c1 <-> c2,
    on point algebras and with no edge to the ambient.  A loop adds one to
    a burrow's lower count, so c and the burrow below it tie in ``_order``
    and names break the tie: c1 comes before d1 but a2 before c2.  So c2 and
    v2 fail the meet test while the pair of c1 and v1 and every pair from a
    representative pass it.  The loop at the representative a2 makes
    validate try every pair, and the report is the one without the group."""
    pt = GradedAlgebra([1], [["1"]], [])
    codim = {"Y": 0, "v1": 1, "v2": 1, "c1": 2, "c2": 2, "d1": 3, "a2": 3}
    pairs = [("c1", "v1"), ("d1", "c1"), ("d1", "v1"), ("d1", "d1")]
    pairs += [("c2", "v2"), ("a2", "c2"), ("a2", "v2"), ("a2", "a2")]
    edges = [
        (
            s,
            b,
            BurrowEdge(
                GradedMap(pt, pt, 0, [{0: 1}]),
                GradedMap(pt, pt, codim[s] - codim[b], [{}]),
                ChernPolynomial(1, (pt.zero(),)),
            ),
        )
        for s, b in pairs
    ]
    swap = dict(v1="v2", v2="v1", c1="c2", c2="c1", d1="a2", a2="d1")
    bad = BurrowDiagram(
        socle_degree=0,
        elements=[],
        burrows=[BurrowNode(b, frozenset(), c, pt) for b, c in codim.items()],
        edges=edges,
        singles={},
        nests=[],
        symmetry=[Permutation(burrows=swap)],
    )
    assert bad._order[:6] == ["v1", "v2", "a2", "c1", "c2", "d1"]
    assert bad._representatives() == {"Y", "v1", "a2", "c1"}
    assert _same_failure_without_the_group(bad, strip_symmetry, "table-consistency") == (
        "c2 and v2 have two maximal common lower burrows, a2 and c2"
    )


def test_non_associative_chains_are_tried_in_full(strip_symmetry):
    """A non-associative Y with an automorphism p swapping a1 <-> a2,
    e1 <-> e2 and c1 <-> c2: x*x = a1 + a2, so its generators are x, a1 and
    c1, and p does not keep them.  Y maps to Z1 and Z2, copies of the
    non-associative ambient of
    ``test_non_associative_burrow_fails_validation``, and on to the line P1
    and P2, with zero pushforwards and Chern classes; every map passes its
    checks on generators, so every per-edge law holds.  The chain through
    Z1 agrees on the generators, but its composite differs from the direct
    map on c2, where Z1's pullback breaks the ring law on a*a; so the image
    chain through Z2, from the burrow P2 that is not the representative,
    fails on c1.  With associativity failing, validate tries every chain,
    and the report is the one without the group."""
    q, h = F(1, 4), F(1, 8)
    # 1, x, a1, a2, e1, e2, c1, c2, d, s
    mult = [(1, 1, 2, 1), (1, 1, 3, 1), (1, 2, 4, 1), (1, 3, 5, 1), (1, 4, 8, 1), (1, 5, 8, 1)]
    mult += [(i, j, k, 1) for i, j in ((2, 2), (2, 3), (3, 3)) for k in (6, 7)]
    mult += [(1, 6, 9, h), (1, 7, 9, h), (1, 8, 9, 1)]
    mult += [(i, j, 9, q) for i in (2, 3) for j in (4, 5)]
    labels = [["1"], ["x"], ["a1", "a2"], ["e1", "e2"], ["c1", "c2", "d"], ["s"]]
    y = GradedAlgebra([1, 1, 2, 2, 3, 1], labels, mult)
    # x*x = a, x*a = e, x*e = 2c, a*a = c, x*c = s, a*e = s
    z_mult = [(1, 1, 2, 1), (1, 2, 3, 1), (1, 3, 4, 2), (2, 2, 4, 1), (1, 4, 5, 1), (2, 3, 5, 1)]
    z = GradedAlgebra([1] * 6, [["1"], ["x"], ["a"], ["e"], ["c"], ["s"]], z_mult)
    line = GradedAlgebra(
        [1] * 5,
        [["1"], ["t"], ["t2"], ["t3"], ["t4"]],
        [(i, j, i + j, 1) for i in range(1, 4) for j in range(i, 5 - i)],
    )
    p = [0, 1, 3, 2, 5, 4, 7, 6, 8, 9]
    half = [{0: 1}, {1: 1}, {2: F(1, 2)}, {2: F(1, 2)}, {3: F(1, 2)}, {3: F(1, 2)}]
    upper = half + [{4: h}, {4: h}, {4: 1}, {5: 1}]
    link = [{0: 1}, {1: 1}, {2: 1}, {3: 1}, {4: F(1, 2)}, {}]
    direct = half + [{4: F(1, 16)}, {4: F(3, 16)}, {4: F(1, 2)}, {}]
    algebra, codim = {"Y": y, "Z": z, "P": line}, {"Y": 0, "Z": 1, "P": 2}

    def edge(small, big, columns, k):
        s, b = algebra[small[0]], algebra[big[0]]
        c = codim[small[0]] - codim[big[0]]
        if k == 2 and big == "Y":
            columns = [columns[p.index(g)] for g in range(len(columns))]
        pull, push = GradedMap(b, s, 0, columns), GradedMap(s, b, c, [{}] * s.total_dim)
        return small, big, BurrowEdge(pull, push, ChernPolynomial(c, (b.zero(),) * c))

    edges = [
        edge(f"{small}{k}", big if big == "Y" else f"{big}{k}", columns, k)
        for k in (1, 2)
        for small, big, columns in (("Z", "Y", upper), ("P", "Z", link), ("P", "Y", direct))
    ]
    burrows = [BurrowNode("Y", frozenset(), 0, y)] + [
        BurrowNode(f"{b}{k}", frozenset({f"{x}{k}"}), codim[b], algebra[b])
        for b, x in (("Z", "D"), ("P", "E"))
        for k in (1, 2)
    ]
    elements = [BuildingElement(f"{x}{k}", c) for x, c in (("D", 1), ("E", 2)) for k in (1, 2)]
    swap = Permutation(
        elements=dict(D1="D2", D2="D1", E1="E2", E2="E1"),
        burrows=dict(Z1="Z2", Z2="Z1", P1="P2", P2="P1"),
        bases={"Y": p},
    )
    bad = BurrowDiagram(
        socle_degree=5,
        elements=elements,
        burrows=burrows,
        edges=edges,
        singles=dict(D1="Z1", D2="Z2", E1="P1", E2="P2"),
        nests=[["D1"], ["D2"], ["E1"], ["E2"], ["D1", "E1"], ["D2", "E2"]],
        symmetry=[swap],
    )
    assert y.generators() == (1, 2, 6) and bad._representatives() == {"Y", "Z1", "P1"}
    report = checked_report(bad)
    assert {e.check for e in report.problems()} >= {"associativity", "pullback-functorial"}
    assert all(e.ok for e in report.entries if "<" in e.subject)
    assert _same_failure_without_the_group(bad, strip_symmetry, "pullback-functorial") == (
        "Y -> Z2 -> P2"
    )


def _copied(alg):
    """An algebra equal to alg on a structure object of its own."""
    return GradedAlgebra.from_payload(alg.to_payload())


@pytest.mark.parametrize("part", ["pullback", "pushforward", "Chern classes"])
def test_datum_off_the_structures_of_its_edge_is_an_input_error(keel2_diagram, part):
    """The datum of 12@0 < 12 with its pullback, its pushforward or its
    Chern class moved to an equal algebra on another structure object: the
    constructor raises InputError naming the edge and the part."""
    d = keel2_diagram
    like = d.edges[("12@0", "12")]
    pull, push, chern = like.pullback, like.pushforward, like.chern
    point, line = _copied(pull.target), _copied(pull.source)
    if part == "pullback":
        pull = GradedMap(pull.source, point, 0, pull.columns)
    elif part == "pushforward":
        push = GradedMap(point, push.target, push.shift, push.columns)
    else:
        chern = ChernPolynomial(1, (line.element(chern.coefficient(1).coeffs),))
    with pytest.raises(InputError, match=f"^edge 12@0<12: its {part} (is|are) not on the struct"):
        _rebuilt(d, ("12@0", "12", BurrowEdge(pull, push, chern)))


def test_pushforward_on_another_algebra_of_its_structure_validates(keel2_diagram):
    """The datum of 12@0 < 12 with its pushforward starting at the algebra of
    the point 1@0|2@1, which has the same structure: labels never enter the
    laws or the maps table, so the diagram is accepted, validates with the
    rows of the original, and dumps to the original's text (both without
    the declared symmetry)."""
    d = keel2_diagram
    assert d.burrows["1@0|2@1"].algebra.structure is d.burrows["12@0"].algebra.structure
    edge = d.edges[("12@0", "12")]
    push = edge.pushforward.rebased(d.burrows["1@0|2@1"].algebra, d.burrows["12"].algebra)
    bad = _rebuilt(d, ("12@0", "12", BurrowEdge(edge.pullback, push, edge.chern)))
    same = _rebuilt(d)
    assert checked_report(bad).ok
    assert checked_report(bad).summary() == checked_report(same).summary()
    assert io.dump_diagram(bad) == io.dump_diagram(same)


def test_short_chern_polynomial_skips_class_nonzero(keel2_diagram):
    """An edge to the ambient with one Chern coefficient too few fails
    chern-degree and has no top coefficient to read, so its class-nonzero
    row is left out instead of indexing past the coefficients."""
    d = keel2_diagram
    edge = d.edges[("1@0|2@1", "1|2")]
    short = ChernPolynomial(1, edge.chern.coeffs[:1])
    bad = _rebuilt(d, ("1@0|2@1", "1|2", BurrowEdge(edge.pullback, edge.pushforward, short)))
    report = checked_report(bad)
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
    [problem] = checked_report(diagram).problems()
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
        edges=[(*key, e) for key, e in diagram.edges.items()],
        singles=dict(diagram.singles),
        nests=NESTED_OR_DISJOINT,
    )
    with pytest.raises(InputError):
        bad.is_nest({"P"})


def test_functoriality_check_runs(fm4_diagram):
    report = checked_report(fm4_diagram)
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
    return _rebuilt(diagram, (small, big, BurrowEdge(**maps, chern=edge.chern)))


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
        report = checked_report(bad)
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
    problems = checked_report(bad).problems()
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
    problems = checked_report(bad).problems()
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
    problems = checked_report(bad).problems()
    assert ("symmetry", "generator 3") in {(e.check, e.subject) for e in problems}


def test_socle_degree_is_checked_per_codim_on_a_shared_structure():
    """The point 12@0 of keel n=2 given codim 1: its algebra shares the
    point structure with the other points, which keep codim 2, so the
    socle row fails on 12@0 alone."""
    payload = io.diagram_payload(keel_model(2))
    next(b for b in payload["burrows"] if b["id"] == "12@0")["codim"] = 1
    bad = io.diagram_from_payload(payload)
    socle = [(e.subject, e.detail) for e in checked_report(bad).problems() if e.check == "socle"]
    assert socle == [("12@0", "expected socle degree 1 outside stored range; socle dimension 0 at degree 1")]


def test_edges_off_their_own_algebras_are_dumped_with_their_own_maps(keel2_diagram):
    """Two edges given data of their own, whose pushforwards start at other
    point algebras with different columns: each datum is written as its own
    maps entry, so loading the dump gives back both sets of columns."""
    d = keel2_diagram
    pushes = {}
    for small, other, k in (("12@0", "1@0|2@1", 2), ("12@1", "1@0|2@inf", 3)):
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
            (*key, BurrowEdge(e.pullback, pushes[key], e.chern) if key in pushes else e)
            for key, e in d.edges.items()
        ],
        singles=dict(d.singles),
        nests=d.nest_rule,
        relations=d.relations,
    )
    data = bad.edge_data()
    assert len({data[key] for key in pushes} | {data["12@inf", "12"]}) == 3
    text = io.dump_diagram(bad)
    assert len(json.loads(text)["maps"]) == len(io.diagram_payload(d)["maps"]) + 2
    loaded = io.load_diagram(text)
    for key, push in pushes.items():
        assert loaded.edges[key].pushforward.columns == push.columns
