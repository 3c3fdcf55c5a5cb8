import random
from fractions import Fraction

import pytest

from wonder.algebra import (
    GradedAlgebra,
    GradedMap,
    Structure,
    adjoint_pushforward,
    pd_verdict,
    projection_formula_holds,
    section_of,
    socle_check,
    tensor_algebra,
)
from wonder import blowup, models, oracle
from wonder.engine import WonderRing, build_ring
from wonder.errors import InputError
from wonder.fixtures import fm_p1_3_oracle, keel_2_oracle, keel_3_oracle
from wonder.models import _PowerAlg, fm_power, keel_model, synthetic_broken

from builders import (
    adjoint_pushforward_reference,
    associativity_reference,
    filled_table,
    pair_table,
    pair_table_product,
    products_pair_by_pair,
    random_gorenstein,
    section_of_reference,
    tensor_algebra_reference,
    typed_rows,
)

F = Fraction


def poly_line():
    """The ring of a projective line: 1, h with h^2 = 0."""
    return _PowerAlg(["x"], 1).alg


def poly_plane():
    return _PowerAlg(["x"], 2).alg


def trivial():
    return GradedAlgebra([1], [["1"]], [])


def test_unit_multiplication():
    p = poly_plane()
    h = p.basis_element(1)
    assert p.multiply(p.unit(), h) == h


def test_plane_socle_product():
    p = poly_plane()
    h, h2 = p.basis_element(1), p.basis_element(2)
    assert p.multiply(h, h2).is_zero()  # above the top degree
    assert p.multiply(h, h) == h2


def test_top_degree_truncation():
    p = poly_plane()
    top = p.basis_element(2)
    h = p.basis_element(1)
    assert p.multiply(top, h).is_zero()


def test_socle_check_plane():
    rep = socle_check(poly_plane(), 2)
    assert rep.ok
    assert rep.pairing.gram(1) == [{0: 1}]
    assert rep.pairing.gram(0) == [{0: 1}]


def test_socle_check_trivial():
    rep = socle_check(trivial(), 0)
    assert rep.ok
    assert pd_verdict(rep.pairing).is_pd


def test_socle_check_failure_dimension():
    alg = GradedAlgebra([1, 2], [["1"], ["a", "b"]], [])
    rep = socle_check(alg, 1)
    assert not rep.ok
    assert any("socle dimension 2" in p for p in rep.problems)


def test_socle_check_failure_above():
    alg = GradedAlgebra([1, 1], [["1"], ["a"]], [])
    rep = socle_check(alg, 0)
    assert not rep.ok
    assert any("above the socle" in p for p in rep.problems)


def test_pd_verdict_plane():
    v = pd_verdict(socle_check(poly_plane(), 2).pairing)
    assert v.is_pd
    assert v.discrepancies == (0, 0, 0)


def test_pd_verdict_degenerate():
    broken = synthetic_broken((1, 2, 1), 1, 0)
    sp = socle_check(broken, 2).pairing
    assert sp.gram(1) == [{0: 1}, {}]
    v = pd_verdict(sp)
    assert not v.is_pd
    assert v.discrepancies[1] == 1


def test_gram_transpose_symmetry():
    alg, _ = tensor_algebra(poly_line(), _PowerAlg(["y"], 1).alg)
    sp = socle_check(alg, 2).pairing
    for k in range(3):
        g, gt = sp.gram(k), sp.gram(2 - k)
        assert len(g) == alg.dim(k) and len(gt) == alg.dim(2 - k)
        assert {(i, j): q for i, row in enumerate(g) for j, q in row.items()} == {
            (i, j): q for j, row in enumerate(gt) for i, q in row.items()
        }


def test_verdict_invariant_under_socle_rescaling():
    # same multiplication with the socle coordinate rescaled
    base = poly_plane()
    scaled = GradedAlgebra(
        base.dims, base.labels, [(1, 1, 2, F(3))]
    )
    v1 = pd_verdict(socle_check(base, 2).pairing)
    v2 = pd_verdict(socle_check(scaled, 2).pairing)
    assert v1.is_pd == v2.is_pd
    assert v1.discrepancies == v2.discrepancies


def test_mixed_degree_element_rejected():
    p = poly_plane()
    mixed = p.element({0: F(1), 1: F(1)})
    with pytest.raises(ValueError):
        mixed.degree()


def test_elements_from_different_algebras_do_not_mix():
    a, b = poly_plane(), poly_plane()
    with pytest.raises(InputError):
        a.unit()._same(b.unit())
    # x in degrees (1, 1) and y, y^2: read under b's structure, x * x
    # would be y^2
    a, b = _PowerAlg(["x"], 1).alg, _PowerAlg(["y"], 2).alg
    x = a.basis_element(1)
    mixes = (
        lambda: b.multiply(x, x),
        lambda: b.multiply(b.unit(), x),
        lambda: a.multiply(x, b.unit()),
    )
    for mix in mixes:
        with pytest.raises(InputError) as err:
            mix()
        assert err.value.exit_code == 1


def test_tensor_algebra_dims_and_products():
    alg, pair = tensor_algebra(poly_line(), _PowerAlg(["y"], 1).alg)
    assert alg.dims == (1, 2, 1)
    hx = alg.basis_element(pair[(1, 0)])
    hy = alg.basis_element(pair[(0, 1)])
    assert alg.multiply(hx, hy) == alg.basis_element(pair[(1, 1)])
    assert alg.multiply(hx, hx).is_zero()
    assert alg.check_associativity() == []


@pytest.mark.parametrize("seed", range(6))
def test_tensor_algebra_matches_the_all_pairs_reference(seed):
    """The tensor table built from the stored rows of both factors equals
    the product on every basis pair: same rows, same scalars."""
    a = random_gorenstein(seed)
    b = models._CurveAlg(["1", "2"], 2).alg if seed % 2 else _PowerAlg(["t", "u"], 2).alg
    for x, y in ((a, b), (b, a)):
        got = tensor_algebra(x, y)[0]
        want = tensor_algebra_reference(x, y)
        assert got.labels == want.labels
        assert typed_rows(got) == typed_rows(want)


def test_graded_map_ring_hom_and_kernel():
    plane = poly_plane()
    pt = trivial()
    images = [pt.unit()] + [pt.zero()] * (plane.total_dim - 1)
    f = GradedMap.from_images(plane, pt, 0, images)
    assert f.is_ring_hom()
    assert len(f.kernel_elements(1)) == 1
    assert len(f.kernel_elements(0)) == 0


def test_graded_map_rejects_image_of_wrong_degree():
    plane = poly_plane()
    images = [plane.basis_element(g) for g in range(plane.total_dim)]
    images[1] = plane.basis_element(2)  # h -> h^2
    with pytest.raises(InputError, match="wrong degree"):
        GradedMap.from_images(plane, plane, 0, images)
    with pytest.raises(InputError, match="columns"):
        GradedMap.from_images(plane, plane, 0, images[:2])


def test_graded_map_images_and_blocks():
    """Columns keep nonzero exact scalars only; rows(k) is the sparse block."""
    plane = poly_plane()
    f = GradedMap(plane, plane, 1, [{1: F(4, 2)}, {2: 0}, {}])
    assert f.columns == [{1: 2}, {}, {}] and type(f.columns[0][1]) is int
    assert f.rows(0) == [{0: 2}] and f.rows(1) == [{}] and f.rows(2) == []
    assert f.apply(plane.unit().scale(3)) == plane.basis_element(1).scale(6)


def test_section_and_adjoint_projection_formula():
    plane = poly_plane()
    pt = trivial()
    images = [pt.unit()] + [pt.zero()] * (plane.total_dim - 1)
    pull = GradedMap.from_images(plane, pt, 0, images)
    sec = section_of(pull)
    for g in range(pt.total_dim):
        assert pull.apply(sec.apply_basis(g)) == pt.basis_element(g)
    push = adjoint_pushforward(pull, socle_check(pt, 0).pairing, socle_check(plane, 2).pairing)
    assert push.shift == 2
    assert projection_formula_holds(pull, push)
    assert push.apply(pt.unit()) == plane.basis_element(2)  # the point class


def _same_map_or_error(build, reference, *args):
    """The map ``build(*args)`` has exactly the columns of ``reference``,
    scalar kinds and key order included, or both raise the same
    InputError."""
    try:
        want = [list(col.items()) for col in reference(*args).columns]
    except InputError as err:
        with pytest.raises(InputError, match=f"^{err}$"):
            build(*args)
        return False
    got = [list(col.items()) for col in build(*args).columns]
    assert got == want and [[type(q) for _, q in c] for c in got] == [
        [type(q) for _, q in c] for c in want
    ]
    return True


def _checked_pushforwards(monkeypatch, module) -> list:
    """Route ``module.adjoint_pushforward`` through a check against the
    dense reference, with ``section_of`` of each pullback; returns the list
    of checked pullbacks."""
    seen = []

    def checked(pull, sp_small, sp_big):
        assert _same_map_or_error(adjoint_pushforward, adjoint_pushforward_reference, pull, sp_small, sp_big)
        _same_map_or_error(section_of, section_of_reference, pull)
        seen.append(pull)
        return adjoint_pushforward(pull, sp_small, sp_big)

    monkeypatch.setattr(module, "adjoint_pushforward", checked)
    return seen


@pytest.mark.parametrize(
    "build",
    [lambda: fm_power("p2", 4, min_size=3), lambda: keel_model(3)],
    ids=["fm-p2-4-min3", "keel-3"],
)
def test_pushforwards_and_sections_match_the_dense_reference(monkeypatch, build):
    """Every distinct edge shape of the models: the model computes one
    adjoint pushforward per shape, and it and the section of its pullback
    equal the class-by-class dense Bareiss solves."""
    seen = _checked_pushforwards(monkeypatch, models)
    build()
    assert seen


@pytest.mark.parametrize("fixture", [fm_p1_3_oracle, keel_2_oracle, keel_3_oracle])
def test_oracle_steps_match_the_dense_reference(monkeypatch, fixture):
    """Every blow-up step of the three oracle fixtures: the adjoint
    pushforward, and the section that ``blow_up`` takes of the pullback."""
    seen = _checked_pushforwards(monkeypatch, oracle)
    sections = []

    def checked_section(pull):
        assert _same_map_or_error(section_of, section_of_reference, pull)
        sections.append(pull)
        return section_of(pull)

    monkeypatch.setattr(blowup, "section_of", checked_section)
    run = oracle.run_oracle(fixture())
    assert run.verdict.is_pd and seen and len(sections) == len(seen)


@pytest.mark.parametrize("seed", range(8))
def test_random_maps_match_the_dense_reference(seed):
    """Degree-0 maps with random small integer entries, zeros included, from
    a Gorenstein algebra times a projective space onto the algebra: the
    adjoint pushforward and the section (when there is one) equal the dense
    reference, so the right-hand sides weigh every map and Gram entry."""
    rnd = random.Random(f"adjoint:{seed}")
    small = random_gorenstein(seed)
    big = tensor_algebra(small, _PowerAlg(["t"], rnd.choice([1, 2])).alg)[0]
    columns = [
        {h: rnd.randint(-3, 3) for h in small.global_indices(big.degree_of(g))}
        for g in range(big.total_dim)
    ]
    pull = GradedMap(big, small, 0, columns)
    sp_small = socle_check(small, small.top_degree).pairing
    sp_big = socle_check(big, big.top_degree).pairing
    _same_map_or_error(adjoint_pushforward, adjoint_pushforward_reference, pull, sp_small, sp_big)
    _same_map_or_error(section_of, section_of_reference, pull)


def test_imperfect_pairing_has_no_adjoint_pushforward():
    """A degenerate big pairing with a right-hand side outside its image
    raises, as the dense reference does."""
    line = poly_line()
    big = GradedAlgebra([1, 2, 1], [["1"], ["a", "b"], ["s"]], [(1, 1, 3, F(1))])
    pull = GradedMap(big, line, 0, [{0: 1}, {1: 1}, {1: 1}, {}])
    sp_small, sp_big = socle_check(line, 1).pairing, socle_check(big, 2).pairing
    for push in (adjoint_pushforward, adjoint_pushforward_reference):
        with pytest.raises(InputError, match="pairing is not perfect; adjoint pushforward undefined"):
            push(pull, sp_small, sp_big)


def test_constructed_algebra_rejects_bad_grading():
    with pytest.raises(InputError):
        GradedAlgebra([1, 1], [["1"], ["a"]], [(1, 1, 1, F(1))])
    with pytest.raises(InputError):
        GradedAlgebra([2, 1], [["1", "u"], ["a"]], [])
    with pytest.raises(InputError):
        GradedAlgebra([1, 2], [["1"], ["a", "a"]], [])


def test_constructed_algebra_rejects_non_string_labels():
    with pytest.raises(InputError, match="basis label 5 is not a string"):
        GradedAlgebra([1, 1], [["1"], [5]], [])
    with pytest.raises(InputError, match="not one list per degree"):
        GradedAlgebra([1, 1], ["1", "a"], [])


def _full_associativity(alg) -> bool:
    """Reference: (a*b)*c == a*(b*c) on every basis triple."""
    b = [alg.basis_element(g) for g in range(alg.total_dim)]
    return all(
        alg.multiply(alg.multiply(x, y), z) == alg.multiply(x, alg.multiply(y, z))
        for x in b
        for y in b
        for z in b
    )


def _moved_constant(alg, rnd):
    """alg with one seeded structure constant moved, keeping the grading."""
    table = {(a, b, k): q for a, b, k, q in alg.to_payload()["mult"]}
    a, b = rnd.choice(
        [
            (a, b)
            for a in range(1, alg.total_dim)
            for b in range(a, alg.total_dim)
            if alg.dim(alg.degree_of(a) + alg.degree_of(b))
        ]
    )
    k = rnd.choice(alg.global_indices(alg.degree_of(a) + alg.degree_of(b)))
    table[a, b, k] = F(table.get((a, b, k), 0)) + rnd.choice([-1, 1, 2])
    return GradedAlgebra(alg.dims, alg.labels, [(*key, q) for key, q in table.items()])


@pytest.mark.parametrize(
    "make",
    [
        lambda: _PowerAlg(["x"], 4).alg,
        lambda: _PowerAlg(["x"], 6).alg,
        lambda: _PowerAlg(["x", "y"], 2).alg,
        lambda: _PowerAlg(["x", "y", "z"], 1).alg,
        lambda: tensor_algebra(poly_line(), _PowerAlg(["y"], 2).alg)[0],
    ],
    ids=["p4", "p6", "plane-squared", "line-cubed", "line-times-plane"],
)
def test_associativity_on_generators_agrees_with_all_triples(make):
    """check_associativity tries only generator x basis x basis; on seeded
    one-constant moves its verdict equals the all-triples reference, and
    every triple it reports fails."""
    import random

    alg = make()
    assert alg.check_associativity() == [] and _full_associativity(alg)
    rnd = random.Random(repr(alg.dims))
    broken = 0
    for _ in range(15):
        moved = _moved_constant(alg, rnd)
        bad = moved.check_associativity()
        assert (not bad) == _full_associativity(moved)
        for g, b, c in bad:
            x, y, z = (moved.basis_element(i) for i in (g, b, c))
            assert moved.multiply(moved.multiply(x, y), z) != moved.multiply(
                x, moved.multiply(y, z)
            )
        broken += bool(bad)
    assert broken


# -- row tables against the pair-keyed references ---------------------------

SHIPPED = {
    "fm-p1-3": lambda: fm_power("p1", 3),
    "fm-p2-3": lambda: fm_power("p2", 3),
    "fm-p2-4-min3": lambda: fm_power("p2", 4, min_size=3),
    "fm-curve-3": lambda: fm_power("curve", 3, genus=2),
    "keel-3": lambda: keel_model(3),
}


@pytest.fixture(scope="module")
def shipped():
    """Each shipped model's diagram and built ring, made once."""
    made = {}

    def get(name):
        if name not in made:
            diagram = SHIPPED[name]()
            made[name] = diagram, build_ring(diagram, validate=False)
        return made[name]

    return get


def _structures(diagram) -> list:
    """One burrow algebra per distinct structure of the diagram."""
    return list({b.algebra.structure: b.algebra for b in diagram.burrows.values()}.values())


def _entries(alg) -> list:
    return [(a, b, k, F(q)) for a, b, k, q in alg.to_payload()["mult"]]


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_associativity_matches_the_triple_loop_on_shipped_structures(shipped, name):
    for alg in _structures(shipped(name)[0]):
        assert alg.check_associativity() == associativity_reference(alg) == []


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_associativity_matches_the_triple_loop_on_moved_constants(shipped, name):
    """One structure constant g*b -> k moved by one, with g a generator,
    deg g + deg b below the top and k*c nonzero for some c other than g:
    (g*b)*c moves by k*c and g*(b*c) does not move, so the check fails,
    on the same triples as the triple loop."""
    import random

    rnd = random.Random(name)
    moved = 0
    for alg in _structures(shipped(name)[0]):
        slots = [
            (g, b)
            for g in alg.generators()
            for b in range(1, alg.total_dim)
            if alg.degree_of(g) + alg.degree_of(b) < alg.top_degree
        ]
        rnd.shuffle(slots)
        for g, b in slots[:4]:
            k = rnd.choice(
                [
                    k
                    for k in alg.global_indices(alg.degree_of(g) + alg.degree_of(b))
                    if any(alg.product_basis(k, c) for c in range(1, alg.total_dim) if c != g)
                ]
            )
            q = alg.product_basis(g, b).get(k, 0) + 1
            kept = [e for e in _entries(alg) if (e[0], e[1], e[2]) != (min(g, b), max(g, b), k)]
            bent = GradedAlgebra(alg.dims, alg.labels, [*kept, (b, g, k, q)])
            bad = bent.check_associativity()
            assert bad and bad == associativity_reference(bent)
            moved += 1
    assert moved


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_product_basis_matches_the_pair_table(shipped, name):
    """On every pair of indices, unit and above-socle pairs included, the
    ring's ``product_basis`` is the engine's product computed pair by pair
    and the pair-keyed lookup of the entries the fill made; a burrow
    algebra rebuilt from its entries, shuffled and with the pairs swapped,
    gives the same products."""
    import random

    diagram, ring = shipped(name)
    alg = ring.as_algebra()
    fill = filled_table(WonderRing(diagram))
    assert all(i for i, _ in fill)  # no unit pair
    entries = [(i, j, k, q) for (i, j), row in fill.items() for k, q in row.items()]
    table = pair_table(entries)
    n = alg.total_dim
    pairs = products_pair_by_pair(ring, [(i, j) for i in range(n) for j in range(i, n)])
    for gi in range(n):
        for gj in range(n):
            assert alg.product_basis(gi, gj) == pair_table_product(table, gi, gj)
            assert alg.product_basis(gi, gj) == pairs[min(gi, gj), max(gi, gj)]
    rnd = random.Random(name)
    for burrow in _structures(diagram):
        entries = [(b, a, k, q) for a, b, k, q in _entries(burrow)]
        rnd.shuffle(entries)
        rebuilt, table = GradedAlgebra(burrow.dims, burrow.labels, entries), pair_table(entries)
        for gi in range(burrow.total_dim):
            for gj in range(burrow.total_dim):
                got = rebuilt.product_basis(gi, gj)
                assert got == pair_table_product(table, gi, gj) == burrow.product_basis(gi, gj)


def test_structure_from_products_checks_each_row():
    """Structure.from_products keeps well-formed rows, stores an integral
    Fraction as an int, and rejects an index out of range, a > b, a unit
    product, a target outside the degree of the product, a product above
    the top degree and a zero constant."""
    dims = (1, 2, 1)  # 0 | 1 2 | 3
    s = Structure.from_products(dims, [((1, 2), {3: F(2, 1)}), ((1, 1), {}), ((2, 2), {3: F(1, 2)})])
    assert s.rows[2][1] is s.rows[1][2] and s.rows[1][2] == {3: 2}
    assert type(s.rows[1][2][3]) is int and 1 not in s.rows[1] and s.rows[2][2] == {3: F(1, 2)}
    assert Structure.from_payload(s.to_payload()).rows == s.rows
    for bad in [
        ((1, 4), {3: 1}),
        ((2, 1), {3: 1}),
        ((0, 1), {1: 1}),
        ((1, 2), {2: 1}),
        ((1, 3), {3: 1}),
        ((1, 2), {3: 0}),
        ((1.0, 2), {3: 1}),
    ]:
        with pytest.raises(InputError):
            Structure.from_products(dims, [bad])
