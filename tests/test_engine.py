import itertools
import random
from fractions import Fraction

import pytest

from wonder import io
from wonder.algebra import _NO_PRODUCT
from wonder.diagram import BurrowDiagram, BurrowNode
from wonder.engine import _EMPTY, WonderRing, build_ring, presentation_report
from wonder.errors import ComputationError, InputError
from wonder.models import _PowerAlg, fm_power, keel_model
from wonder.oracle import compare_with_oracle
from wonder.fixtures import fm_p1_3_oracle, keel_2_oracle, keel_3_oracle

from builders import filled_table, products_pair_by_pair

F = Fraction


def test_fm3_ring_dims(fm3_ring):
    assert fm3_ring.dims == [1, 4, 4, 1]
    assert fm3_ring.dims == list(fm3_ring.poincare)


def test_keel2_ring_dims(keel2_ring):
    assert keel2_ring.dims == [1, 5, 1]


def test_keel3_ring_associative(keel3_ring):
    assert keel3_ring.as_algebra().check_associativity() == []


def test_curve3_ring_associative(curve3_ring):
    assert curve3_ring.as_algebra().check_associativity() == []


def test_empty_building_set_ring():
    wrap = _PowerAlg(["1", "2"], 1)
    diagram = BurrowDiagram(
        socle_degree=2,
        elements=[],
        burrows=[BurrowNode("Y", frozenset(), 0, wrap.alg)],
        edges=[],
        singles={},
        nests=[],
    )
    ring = build_ring(diagram, validate=False)
    assert ring.dims == [1, 2, 1]
    alg = ring.as_algebra()
    assert alg.to_payload()["mult"] == wrap.alg.to_payload()["mult"]


def test_unit_multiplication(fm3_ring):
    alg = fm3_ring.as_algebra()
    one = alg.unit()
    assert fm3_ring.from_ambient(fm3_ring.diagram.ambient.algebra.unit()) == one
    for i in range(len(fm3_ring.basis)):
        x = alg.basis_element(i)
        assert one * x == x


def test_ring_classes_live_on_the_ring_algebra(fm3_diagram):
    """``monomial`` on an unfilled ring runs the fill, and every ring class
    is an element of ``as_algebra()``."""
    ring = WonderRing(fm3_diagram)
    assert ring._algebra is None
    e = ring.monomial({"D123": 2})
    assert ring._algebra is not None
    alg = ring.as_algebra()
    assert e.alg is alg
    assert ring.exceptional_class("D12").alg is alg
    assert ring.from_ambient(fm3_diagram.ambient.algebra.unit()).alg is alg
    assert e == ring.exceptional_class("D123") * ring.exceptional_class("D123")


@pytest.mark.parametrize("cap", [-1, 1.5, True, "3"])
def test_rewrite_cap_must_be_a_nonnegative_integer(fm3_diagram, cap):
    with pytest.raises(InputError, match="rewrite cap") as err:
        WonderRing(fm3_diagram, max_rewrites=cap)
    assert err.value.exit_code == 1


def test_non_nest_product_vanishes(fm3_ring):
    e12 = fm3_ring.exceptional_class("D12")
    e13 = fm3_ring.exceptional_class("D13")
    assert (e12 * e13).is_zero()


def test_non_nest_monomial_vanishes(fm3_ring):
    assert fm3_ring.monomial({"D12": 1, "D13": 2}).is_zero()


def test_divisor_class_rewrites(fm3_ring):
    # a divisor-type generator reduces to its ambient class minus the deeper
    # exceptional classes
    e12 = fm3_ring.exceptional_class("D12")
    amb = fm3_ring.diagram.ambient.algebra
    expected = fm3_ring.from_ambient(
        amb.from_labels({"h1": 1, "h2": 1})
    ) - fm3_ring.exceptional_class("D123")
    assert e12 == expected


def test_deep_exceptional_square(fm3_ring):
    # reduction of the squared deep generator: the linear Chern coefficient
    # restricted onto the exceptional summand minus the ambient class of the
    # center
    e = fm3_ring.exceptional_class("D123")
    square = e * e
    coords = {square.alg.label_of(i): q for i, q in square.coeffs.items()}
    assert coords == {
        "h123*E[D123]": F(4),
        "h1*h2": F(-1),
        "h1*h3": F(-1),
        "h2*h3": F(-1),
    }


def test_products_land_in_normal_form(fm4_ring):
    # every cached product has standard exponents by construction; check
    # associativity through the exported algebra
    alg = fm4_ring.as_algebra()
    assert alg.check_associativity() == []


def test_rewrite_trace_strictly_decreases(fm3_ring):
    import random

    rnd = random.Random(0)
    n = len(fm3_ring.basis)
    for _ in range(50):
        i, j = rnd.randrange(n), rnd.randrange(n)
        _, trace = fm3_ring.product_trace(i, j)
        for before, afters in trace:
            for after in afters:
                assert after < before


def test_rewrite_cap(fm3_diagram):
    ring = WonderRing(fm3_diagram, max_rewrites=0)
    with pytest.raises(ComputationError, match="rewrite cap"):
        ring.exceptional_class("D12")


def test_rewrite_cap_leaves_no_partial_memo(fm3_diagram):
    # a cap error must not leave incomplete normal forms in the ring's memo:
    # after raising the cap, the same ring agrees with a fresh one
    fresh = WonderRing(fm3_diagram)
    ring = WonderRing(fm3_diagram, max_rewrites=0)
    with pytest.raises(ComputationError, match="rewrite cap"):
        ring.exceptional_class("D12")
    ring.max_rewrites = fresh.max_rewrites
    assert ring.exceptional_class("D12").coeffs == fresh.exceptional_class("D12").coeffs

    # D12^3 needs a dozen rewrites; caps below that stop it part way
    exps = {"D12": 3}
    want = fresh.monomial(exps).coeffs
    assert want
    for cap in range(16):
        ring = WonderRing(fm3_diagram, max_rewrites=cap)
        try:
            got = ring.monomial(exps).coeffs
        except ComputationError:
            ring.max_rewrites = fresh.max_rewrites
            got = ring.monomial(exps).coeffs
        assert got == want


def test_product_trace_agrees_with_memo(fm3_ring, keel2_ring):
    # product_trace runs on a private memo; the shared one must agree, and
    # the trace must not shrink once the shared memo holds the product
    for ring in (fm3_ring, keel2_ring):
        alg = ring.as_algebra()
        n = len(ring.basis)
        steps = 0
        for i in range(n):
            for j in range(i, n):
                coords, trace = ring.product_trace(i, j)
                assert coords == dict(alg.product_basis(i, j)), (i, j)
                assert ring.product_trace(i, j)[1] == trace, (i, j)
                steps += len(trace)
        assert steps > 0


def test_basis_products_hold_no_zero_coefficients(fm3_ring, keel3_ring, fm5_ring):
    # on fm-p1 n=5, 105 products have coefficients that cancel to zero during
    # the reduction; they must be dropped, not stored
    for ring in (fm3_ring, keel3_ring, fm5_ring):
        alg = ring.as_algebra()
        n = len(ring.basis)
        for i in range(n):
            for j in range(i, n):
                assert all(alg.product_basis(i, j).values()), (i, j)


@pytest.mark.parametrize(
    "model",
    [lambda: fm_power("p2", 3), lambda: keel_model(3), lambda: fm_power("p1", 5)],
    ids=["fm-p2-3", "keel-3", "fm-p1-5"],
)
def test_product_table_does_not_depend_on_route_or_order(model, strip_symmetry):
    """Every basis product, zeros and unit products included, reads the same
    in the algebra of the fill by orbits, in that of the fill with the
    symmetry removed, and computed pair by pair, last pair first; each
    zero reads as the algebra's one shared empty mapping.  fm-p1 n=5 has
    products whose coefficients cancel to zero."""
    diagram = model()
    orbits = WonderRing(diagram).as_algebra()
    direct = WonderRing(strip_symmetry(diagram)).as_algebra()
    ring = WonderRing(diagram)
    n = len(ring.basis)
    pairs = products_pair_by_pair(
        ring, [(i, j) for i in reversed(range(n)) for j in reversed(range(i, n))]
    )
    zeros = 0
    for i in range(n):
        for j in range(n):
            row = pairs[min(i, j), max(i, j)]
            assert orbits.product_basis(i, j) == row == direct.product_basis(i, j), (i, j)
            if not row:
                zeros += 1
                assert row is _EMPTY
                assert orbits.product_basis(i, j) is direct.product_basis(i, j) is _NO_PRODUCT
    assert zeros


def test_fmp2_4_min3_builds_one_plan_per_pattern(monkeypatch, strip_symmetry):
    """The 2,568 normal forms of the fm-p2 n=4 (min size 3) product table
    share 117 exponent patterns.  The fill builds 129 plans, each once:
    those patterns' and the ones only the vanishing test of the skipped
    sub-blocks reads; the blocks whose support is not a nest need none.
    That is the direct fill, with no declared symmetry; the fill by orbits
    of the declared S_4 needs only some of those normal forms, again with
    one plan per pattern.  Both fills settle 5,767 of the 16,930 pairs
    0 < i <= j up to the socle: none in a zero block or a skipped
    sub-block, and no unit pair.  Both tables hold the 3,317 of them whose
    product is not zero, and only those."""
    calls = []
    make_plan = WonderRing._make_plan

    def counted(self, pattern):
        calls.append(pattern)
        return make_plan(self, pattern)

    monkeypatch.setattr(WonderRing, "_make_plan", counted)
    diagram = fm_power("p2", 4, min_size=3)
    ring = WonderRing(strip_symmetry(diagram))
    table = filled_table(ring)
    assert len(ring._memo) == 2568
    assert len({pattern for pattern, _ in ring._memo}) == 117
    assert len(set(calls)) == len(calls) == 129
    calls.clear()
    orbits = WonderRing(diagram)
    orbit_table = filled_table(orbits)
    assert set(orbits._memo) < set(ring._memo)
    assert len(set(calls)) == len(calls) <= 129
    assert len(orbit_table) == len(table) == 3317


@pytest.mark.parametrize(
    "model",
    [lambda: fm_power("p2", 4, min_size=3), lambda: keel_model(3)],
    ids=["fm-p2-4-min3", "keel-3"],
)
def test_orbit_fill_equals_direct_fill(model, strip_symmetry):
    """The table filled one pair per orbit of the declared group equals the
    one filled with no symmetry, entry for entry, and the direct table is
    equivariant: for every generator s, table[(s i, s j)] = s(table[(i, j)])."""
    diagram = model()
    assert diagram.symmetry().generators and not diagram.symmetry().problems
    orbits = WonderRing(diagram)
    orbit_table = filled_table(orbits)
    direct = WonderRing(strip_symmetry(diagram))
    table = filled_table(direct)
    assert orbit_table == table
    assert len(orbits._memo) < len(direct._memo)
    perms = orbits._basis_permutations()
    assert len(perms) == len(diagram.symmetry_generators)
    for p in perms:
        assert sorted(p) == list(range(len(direct.basis)))
        for (i, j), row in table.items():
            a, b = sorted((p[i], p[j]))
            assert table[a, b] == {p[k]: c for k, c in row.items()}


@pytest.mark.parametrize(
    "model, orbit_calls, direct_calls",
    [
        (lambda: fm_power("p2", 4, min_size=3), 832, 5767),
        (lambda: keel_model(3), 15, 83),
        (lambda: keel_model(4), 94, 1387),
    ],
    ids=["fm-p2-4-min3", "keel-3", "keel-4"],
)
def test_fill_computes_each_pair_once(monkeypatch, strip_symmetry, model, orbit_calls, direct_calls):
    """The number of basis products the fill computes: one per pair orbit
    of its non-skipped sub-blocks with the declared group, one per such pair
    with no symmetry, and never the same pair twice."""
    calls = []
    product = WonderRing._product

    def counted(self, a, b, *args, **kwargs):
        calls.append((a, b))
        return product(self, a, b, *args, **kwargs)

    monkeypatch.setattr(WonderRing, "_product", counted)
    diagram = model()
    for dia, want in ((diagram, orbit_calls), (strip_symmetry(diagram), direct_calls)):
        calls.clear()
        WonderRing(dia).build_all_products()
        assert len(calls) == len(set(calls)) == want


@pytest.mark.parametrize(
    "model", [lambda: fm_power("p2", 3), lambda: keel_model(3)], ids=["fm-p2-3", "keel-3"]
)
def test_normal_form_reads_the_coefficient_on_the_support_burrow(model, strip_symmetry):
    """The lemma behind the fill by orbits: NF(pattern, c + k) = NF(pattern, c)
    for every k in the kernel of the pullback from the ambient to the burrow
    of the pattern's support, on every pattern the product table reaches."""
    diagram = strip_symmetry(model())
    ring = WonderRing(diagram)
    ring.build_all_products()
    amb = diagram.ambient.algebra
    rnd = random.Random(0)
    checked = 0
    for pattern in sorted({pattern for pattern, _ in ring._memo}):
        support = [x for x, _ in pattern]
        burrow = diagram.burrow_of(support) if support else diagram.ambient_id
        pull = diagram.pullback(diagram.ambient_id, burrow)
        for k in range(amb.top_degree + 1):
            kernel = pull.kernel_elements(k)
            if not kernel:
                continue
            c = amb.element({g: rnd.randint(-3, 3) for g in amb.global_indices(k)})
            shifted = c
            for v in kernel:
                shifted = shifted + v.scale(rnd.randint(1, 3))
            assert ring._normalize(pattern, shifted.coeffs) == ring._normalize(pattern, c.coeffs)
            checked += 1
    assert checked > 10


@pytest.mark.parametrize(
    "model",
    [lambda: fm_power("p2", 3), lambda: fm_power("curve", 3, genus=2), lambda: keel_model(3)],
    ids=["fm-p2-3", "fm-curve-3-g2", "keel-3"],
)
def test_declared_symmetry_changes_no_output(model, strip_symmetry):
    """With the symmetry field and without it, the ring text and the
    validate report are byte-identical."""
    texts = []
    for diagram in (model(), strip_symmetry(model())):
        ring = build_ring(diagram, validate=False)
        texts.append(
            (io.dump_ring(ring.as_algebra(), diagram.socle_degree), diagram.validate().summary())
        )
    assert texts[0] == texts[1]


def test_presentation_fm3(fm3_ring):
    report = presentation_report(fm3_ring)
    assert report.ok, report.summary()
    names = [f.name for f in report.families]
    assert "non-nest products" in names
    assert "restriction kernels" in names
    assert "monic relations" in names
    assert "named ideal generators" in names


def test_presentation_fm2():
    diagram = fm_power("p1", 2)
    ring = build_ring(diagram, validate=False)
    report = presentation_report(ring)
    assert report.ok
    fam = {f.name: f for f in report.families}
    assert fam["non-nest products"].instances == []


def test_pair_diagonal_is_sum_of_exceptionals_above_it(fm3_ring, curve3_ring, keel3_ring):
    # [Delta_ij] = sum of E[x] over the x whose index set contains {i, j}:
    # the monic relation of the pair element, where p = 1
    for name, ring in (("fm3", fm3_ring), ("curve3", curve3_ring), ("keel3", keel3_ring)):
        dia = ring.diagram
        for i, j in itertools.combinations("123", 2):
            diagonal = ring.from_ambient(dia.fundamental_class(dia.singles[f"D{i}{j}"]))
            total = ring.as_algebra().zero()
            for x, e in sorted(dia.elements.items()):
                if {i, j} <= e.index_set:
                    total = total + ring.exceptional_class(x)
            assert diagonal == total, (name, i, j)


def test_compare_with_oracle(fm3_ring, keel2_ring):
    assert compare_with_oracle(fm3_ring, fm_p1_3_oracle(), samples=200).ok
    assert compare_with_oracle(keel2_ring, keel_2_oracle(), samples=200).ok


@pytest.mark.parametrize(
    "ring_name, fixture",
    [
        ("fm3_ring", fm_p1_3_oracle),
        ("keel2_ring", keel_2_oracle),
        ("keel3_ring", keel_3_oracle),
    ],
)
def test_compare_with_oracle_every_product(request, ring_name, fixture):
    ring = request.getfixturevalue(ring_name)
    n = len(ring.basis)
    pairs = n * (n + 1) // 2
    report = compare_with_oracle(ring, fixture(), samples=pairs)
    assert report.ok, report.summary()
    assert report.products_checked == pairs


def test_compare_detects_corruption(fm3_ring):
    payload = fm_p1_3_oracle()
    payload["steps"][0]["chern"][0] = [["h1", "3"], ["h2", "2"]]
    report = compare_with_oracle(fm3_ring, payload, samples=400)
    assert not report.ok
    assert report.first_mismatch


def test_ambient_grading_guard(fm3_ring):
    amb = fm3_ring.diagram.ambient.algebra
    socle = fm3_ring.from_ambient(amb.from_labels({"h1*h2*h3": 1}))
    deep = fm3_ring.exceptional_class("D123")
    assert (socle * deep).is_zero()


def test_unknown_element_rejected(fm3_ring):
    with pytest.raises(InputError):
        fm3_ring.monomial({"bogus": 1})


def test_ring_and_ambient_elements_do_not_mix(fm3_ring):
    unit = fm3_ring.diagram.ambient.algebra.unit()
    one = fm3_ring.as_algebra().unit()
    mixes = [
        lambda: one * unit,
        lambda: unit * one,
        lambda: one + unit,
        lambda: unit - one,
        lambda: fm3_ring.as_algebra().multiply(one, unit),
        lambda: fm3_ring.diagram.ambient.algebra.multiply(unit, one),
    ]
    for mix in mixes:
        with pytest.raises(InputError) as err:
            mix()
        assert err.value.exit_code == 1


def test_nest_with_empty_intersection_is_input_error():
    # a predicate that admits a support whose intersection is empty is an
    # inconsistency the engine must report, not swallow
    base = keel_model(1)
    diagram = BurrowDiagram(
        socle_degree=base.socle_degree,
        elements=list(base.elements.values()),
        burrows=list(base.burrows.values()),
        edges=[(*key, e) for key, e in base.edges.items()],
        singles=dict(base.singles),
        nests=[["D1@0"], ["D1@1"], ["D1@inf"], ["D1@0", "D1@1"]],
    )
    report = diagram.validate()
    assert any(e.check == "nest-nonempty-burrow" for e in report.problems())
    ring = WonderRing(diagram)
    with pytest.raises(InputError, match="empty intersection"):
        ring.monomial({"D1@0": 1, "D1@1": 1})


def test_presentation_before_the_fill_leaves_the_ring_unchanged():
    """Running ``presentation_report`` on an unfilled fm-p2 n=4 (min size 3)
    ring, whose first ring class runs the fill and shares the ring's memo
    with the reductions that follow, leaves the ring text unchanged."""

    def text(ring):
        return io.dump_ring(ring.as_algebra(), ring.diagram.socle_degree)

    diagram = fm_power("p2", 4, min_size=3)
    want = text(build_ring(diagram, validate=False))
    ring = WonderRing(diagram)
    assert presentation_report(ring).ok
    assert text(ring) == want
