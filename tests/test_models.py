import itertools
import math
from fractions import Fraction

import pytest

from wonder.algebra import pd_verdict, socle_check
from wonder.engine import build_ring
from wonder import models
from wonder.errors import InputError
from wonder.models import (
    _CurveAlg,
    _PowerAlg,
    fm_power,
    keel_model,
    synthetic_broken,
    synthetic_gorenstein,
)

from builders import (
    corrupt_burrow,
    point_blowup_p2_diagram,
    power_algebra_reference,
    random_blowup_input,
    typed_rows,
)

F = Fraction


def bell(n):
    # independent partition count via the triangle recurrence
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


@pytest.mark.parametrize(
    "builder",
    [
        lambda: fm_power("p1", 2),
        lambda: fm_power("p1", 3),
        lambda: fm_power("p1", 3, min_size=3),
        lambda: fm_power("p2", 2),
        lambda: fm_power("curve", 2),
        lambda: keel_model(1),
        lambda: keel_model(2),
        lambda: point_blowup_p2_diagram(),
    ],
)
def test_constructors_validate(builder):
    report = builder().validate()
    assert report.ok, report.summary()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fm_burrow_count_is_bell(n):
    diagram = fm_power("p1", n)
    assert len(diagram.burrows) == bell(n)


def _cfg_join(n, a, b):
    """Reference join of two configurations of 1..n by union-find: merge
    the blocks of both; None when a merged block carries two markers; then
    merge the blocks frozen at the same marker."""
    parent = list(range(n + 1))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for blk, _ in itertools.chain(a, b):
        idxs = sorted(blk)
        for other in idxs[1:]:
            ra, rb = find(idxs[0]), find(other)
            if ra != rb:
                parent[rb] = ra
    marker = {}
    for blk, mk in itertools.chain(a, b):
        if mk is None:
            continue
        root = find(min(blk))
        if root in marker and marker[root] != mk:
            return None
        marker[root] = mk
    by_marker = {}
    for root, mk in marker.items():
        by_marker.setdefault(mk, []).append(find(root))
    for roots in by_marker.values():
        for other in roots[1:]:
            ra, rb = find(roots[0]), find(other)
            if ra != rb:
                parent[rb] = ra
    marker = {find(root): mk for root, mk in marker.items()}
    blocks = {}
    for i in range(1, n + 1):
        blocks.setdefault(find(i), []).append(i)
    return frozenset(
        (frozenset(idxs), marker.get(root)) for root, idxs in blocks.items()
    )


def _element_id(idxs, mk):
    return "D" + "".join(map(str, idxs)) + ("" if mk is None else f"@{mk}")


@pytest.mark.parametrize(
    "n, markers, min_size, build",
    [
        (1, models.MARKERS, 2, lambda: keel_model(1)),
        (2, models.MARKERS, 2, lambda: keel_model(2)),
        (3, models.MARKERS, 2, lambda: keel_model(3)),
        (4, models.MARKERS, 2, lambda: keel_model(4)),
        (4, (), 2, lambda: fm_power("p1", 4)),
        (4, (), 3, lambda: fm_power("p2", 4, min_size=3)),
        (3, (), 9, lambda: fm_power("p1", 3, min_size=9)),
    ],
    ids=["keel-1", "keel-2", "keel-3", "keel-4", "fm-p1-4", "fm-p2-4-min3", "fm-p1-3-min9"],
)
def test_enumerated_strata_are_the_union_find_closure(n, markers, min_size, build):
    """The configurations the model enumerates as marked set partitions
    are the closure of the discrete one under union-find joins with the
    building elements, and each one's defining set holds exactly the
    elements whose join leaves it as it is; the built diagram has one
    burrow per configuration with that defining set.  fm-p1-3-min9 has no
    diagonal and one configuration."""
    loci, defining = models._strata(n, markers, min_size)
    discrete = frozenset((frozenset((i,)), None) for i in range(1, n + 1))
    joins = [_cfg_join(n, discrete, frozenset(((frozenset(idxs), mk),))) for idxs, mk in loci]
    closure, todo = {discrete}, [discrete]
    while todo:
        cfg = todo.pop()
        for j in (_cfg_join(n, cfg, e) for e in joins):
            if j is not None and j not in closure:
                closure.add(j)
                todo.append(j)
    assert set(defining) == closure
    diagram = build()
    assert sorted(diagram.elements) == sorted(_element_id(*locus) for locus in loci)
    assert len(diagram.burrows) == len(closure)
    for cfg in closure:
        kept = [k for k, e in enumerate(joins) if _cfg_join(n, cfg, e) == cfg]
        assert sorted(defining[cfg]) == kept
        burrow = diagram.burrows[models._cfg_id(cfg)]
        assert burrow.defining_set == {_element_id(*loci[k]) for k in kept}
    assert (len(closure) == 1) == (not loci)


def _configurations(n, diagram):
    """The built diagram read back as configurations: each building element
    as the discrete configuration with its indices merged (and frozen at its
    marker), each burrow by its id."""
    discrete = frozenset((frozenset((i,)), None) for i in range(1, n + 1))
    elements = {}
    for eid, e in diagram.elements.items():
        idxs = frozenset(int(t) for t in e.index_set if not t.startswith("@"))
        mk = next((t[1:] for t in e.index_set if t.startswith("@")), None)
        elements[eid] = _cfg_join(n, discrete, frozenset(((idxs, mk),)))
    burrows = {}
    for bid in diagram.burrows:
        burrows[bid] = frozenset(
            (frozenset(int(c) for c in blk), mk or None)
            for blk, _, mk in (part.partition("@") for part in bid.split("|"))
        )
        assert models._cfg_id(burrows[bid]) == bid
    return discrete, elements, {cfg: bid for bid, cfg in burrows.items()}


@pytest.mark.parametrize(
    "n, build, conflicts",
    [
        (3, lambda: keel_model(3), True),
        (4, lambda: fm_power("p1", 4), False),
        (4, lambda: fm_power("p2", 4, min_size=3), False),
    ],
)
def test_single_element_join_matches_union_find(n, build, conflicts):
    """The union-find join of a burrow's configuration with one building
    element is the largest burrow inside it whose defining set holds that
    element, as the diagram's defining sets and edges give it; it is None
    (two markers on one block) exactly when no burrow holds both, which
    happens only with markers."""
    diagram = build()
    _, elements, bid_of = _configurations(n, diagram)
    defining = {bid: b.defining_set for bid, b in diagram.burrows.items()}
    nones = 0
    for cfg, bid in bid_of.items():
        for eid, element in elements.items():
            joined = _cfg_join(n, cfg, element)
            below = [b for b, d in defining.items() if d >= defining[bid] | {eid}]
            if joined is None:
                nones += 1
                assert below == [], (bid, eid)
                continue
            top = bid_of[joined]
            assert top in below, (bid, eid)
            assert all(b == top or (b, top) in diagram.edges for b in below), (bid, eid)
            assert (top == bid) == (eid in defining[bid])
            assert top == bid or (top, bid) in diagram.edges
    assert (nones > 0) == conflicts


def test_keel3_joins_each_configuration_with_each_element_once():
    """Joining each of the 77 configurations of M0,6-bar once with each of
    its 25 building elements by union-find stays among the 77 (or meets two
    markers on one block), reaches every configuration but the discrete one,
    and returns a configuration unchanged once per member of its defining
    set: the enumeration is the join closure without joining any pair of
    configurations."""
    diagram = keel_model(3)
    assert (len(diagram.elements), len(diagram.burrows)) == (25, 77)
    discrete, elements, bid_of = _configurations(3, diagram)
    reached, kept = set(), 0
    for cfg in bid_of:
        for element in elements.values():
            joined = _cfg_join(3, cfg, element)
            if joined is None:
                continue
            assert joined in bid_of
            if joined == cfg:
                kept += 1
            else:
                reached.add(joined)
    assert reached == set(bid_of) - {discrete}
    assert kept == sum(len(b.defining_set) for b in diagram.burrows.values()) > 0


def _stirling2(n, k):
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_keel_burrow_count_is_the_closed_form(n):
    """M0,n+3-bar has one stratum per set partition of the n coordinates
    with j of its k blocks frozen at distinct ones of the three markers."""
    count = sum(
        _stirling2(n, k) * sum(math.comb(k, j) * math.perm(3, j) for j in range(min(k, 3) + 1))
        for k in range(1, n + 1)
    )
    assert count == [4, 17, 77, 372][n - 1]
    assert len(keel_model(n).burrows) == count


def _partitions_with_min_block(n, m):
    # partitions of n points whose non-singleton blocks have at least m
    # points, by the size s of the block holding the first point
    if n == 0:
        return 1
    return _partitions_with_min_block(n - 1, m) + sum(
        math.comb(n - 1, s - 1) * _partitions_with_min_block(n - s, m) for s in range(m, n + 1)
    )


@pytest.mark.parametrize(
    "fiber, n, m", [("p1", 4, 3), ("p2", 4, 3), ("p1", 5, 3), ("p1", 5, 4), ("p1", 5, 5), ("p1", 3, 9)]
)
def test_fm_burrow_count_with_min_size_is_the_closed_form(fiber, n, m):
    assert len(fm_power(fiber, n, min_size=m).burrows) == _partitions_with_min_block(n, m)


def test_keel1_all_divisors():
    diagram = keel_model(1)
    assert all(e.codim == 1 for e in diagram.elements.values())
    ring = build_ring(diagram, validate=False)
    assert ring.dims == [1, 1]


def test_keel2_matches_triple_point_blowup(keel2_ring):
    assert keel2_ring.dims == [1, 5, 1]


def test_fm_p2_model():
    diagram = fm_power("p2", 2)
    assert diagram.socle_degree == 4
    ring = build_ring(diagram, validate=False)
    assert ring.dims == [1, 3, 4, 3, 1]
    sp = socle_check(ring.as_algebra(), 4)
    assert pd_verdict(sp.pairing).is_pd


def test_fm_p2_matches_oracle():
    from wonder.blowup import blow_up

    diagram = fm_power("p2", 2)
    amb = diagram.ambient_id
    (diag_id,) = [b for b in diagram.burrows if diagram.burrows[b].codim == 2]
    edge = diagram.edges[(diag_id, amb)]
    y = diagram.burrows[amb].algebra
    z = diagram.burrows[diag_id].algebra
    res = blow_up(y, z, edge.pullback, edge.pushforward, list(edge.chern.coeffs))
    assert list(res.algebra.dims) == [1, 3, 4, 3, 1]


def test_curve_algebra_relations():
    c = _CurveAlg(["1", "2"], 2)
    d = c.diagonal_class("1", "2")
    k2 = c.canonical_class("2")
    d_squared = c.alg.multiply(d, d)
    assert d_squared == -c.alg.multiply(k2, d)
    assert c.alg.dims == (1, 3, 1)
    assert pd_verdict(socle_check(c.alg, 2).pairing).is_pd


def test_curve_model_chern_restricts_to_normal_class(curve3_diagram):
    # the pair-diagonal class restricts to minus the canonical class
    edge = curve3_diagram.edges[("12|3", "1|2|3")]
    c1 = edge.chern.coefficient(1)
    restricted = edge.pullback.apply(c1)
    burrow = curve3_diagram.burrows["12|3"].algebra
    minus_k = burrow.from_labels({"p12": -2})  # -(2g-2) p at genus 2
    assert restricted == minus_k


def test_curve_model_ring(curve3_ring):
    assert curve3_ring.dims == [1, 7, 7, 1]
    sp = socle_check(curve3_ring.as_algebra(), 3)
    assert pd_verdict(sp.pairing).is_pd


def test_declared_relations_restrict_to_zero(fm3_diagram, curve3_diagram, keel3_diagram):
    # E[x] annihilates a class that restricts to zero on the burrow of x;
    # this checks the model's generators on its own data, without a ring
    counts = {}
    for name, dia in (
        ("fm-p1", fm3_diagram),
        ("fm-p2", fm_power("p2", 3)),
        ("curve", curve3_diagram),
        ("keel", keel3_diagram),
    ):
        for x, rel, cls in dia.relations:
            restrict = dia.pullback(dia.ambient_id, dia.singles[x])
            assert restrict.apply(cls).is_zero(), (name, x, rel)
        counts[name] = len(dia.relations)
    assert counts == {"fm-p1": 15, "fm-p2": 3, "curve": 15, "keel": 60}


def test_corrupt_burrow_keeps_relations(fm3_diagram):
    bad = corrupt_burrow(fm3_diagram, "12|3", 1)
    assert [r[:2] for r in bad.relations] == [r[:2] for r in fm3_diagram.relations]
    for x, _, cls in bad.relations:
        assert cls.alg is bad.ambient.algebra
        assert bad.pullback(bad.ambient_id, bad.singles[x]).apply(cls).is_zero()


def test_genus_parameter():
    c3 = _CurveAlg(["1", "2"], 3)
    d = c3.diagonal_class("1", "2")
    sq = c3.alg.multiply(d, d)
    socle = c3.alg.basis_element(c3.alg.offset(2))
    assert sq == socle.scale(2 - 2 * 3)


def test_flag_variants_same_dims():
    for n in (3, 4):
        wide = build_ring(fm_power("p1", n), validate=False)
        narrow = build_ring(fm_power("p1", n, min_size=3), validate=False)
        assert wide.dims == narrow.dims


def test_synthetic_gorenstein_basic():
    alg = synthetic_gorenstein((1, 1, 1), 3)
    assert alg.dims == (1, 1, 1)
    assert alg.check_associativity() == []
    assert pd_verdict(socle_check(alg, 2).pairing).is_pd


@pytest.mark.parametrize("dims", [(1, 2, 1), (1, 2, 2, 1), (1, 3, 3, 1)])
def test_synthetic_gorenstein_shapes(dims):
    alg = synthetic_gorenstein(dims, 11)
    assert alg.dims == dims
    assert alg.check_associativity() == []
    assert pd_verdict(socle_check(alg, len(dims) - 1).pairing).is_pd


def test_synthetic_gorenstein_unreachable():
    with pytest.raises(InputError, match="retries exhausted"):
        synthetic_gorenstein((1, 5, 1, 1), 0, retries=3)


def test_synthetic_broken():
    alg = synthetic_broken((1, 2, 1), 1, 5)
    v = pd_verdict(socle_check(alg, 2).pairing)
    assert not v.is_pd
    assert v.discrepancies == (0, 1, 0)
    assert alg.check_associativity() == []


def test_corrupt_burrow_guards(fm3_diagram):
    with pytest.raises(InputError):
        corrupt_burrow(fm3_diagram, "123", 1)  # top-degree-1 burrow: no room
    with pytest.raises(InputError):
        corrupt_burrow(fm3_diagram, "12|3", 2)


def test_random_blowup_inputs_validate_as_diagrams():
    from builders import single_center_diagram

    inp = random_blowup_input(1)
    diagram = single_center_diagram(
        inp["y"],
        inp["z"],
        inp["pullback"],
        inp["pushforward"],
        inp["chern"],
        socle_degree=inp["socle"],
    )
    report = diagram.validate()
    assert report.ok, report.summary()


@pytest.mark.parametrize("tokens", range(1, 5))
@pytest.mark.parametrize("r", [1, 2, 3])
def test_power_algebra_matches_the_all_pairs_reference(r, tokens):
    """The products enumerated from the exponent vectors are the nonzero
    ones of the product on every basis pair: same rows, same scalars."""
    names = [str(i) for i in range(tokens)]
    got = _PowerAlg(names, r).alg
    want = power_algebra_reference(names, r)
    assert got.labels == want.labels
    assert typed_rows(got) == typed_rows(want)
