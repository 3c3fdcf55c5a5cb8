import pytest

import wonder.algebra
import wonder.duality
import wonder.engine
from wonder.algebra import GradedAlgebra
from wonder.diagram import BurrowDiagram, BurrowNode
from wonder.duality import (
    block_structure_check,
    discrepancy_table,
    pd_equivalence_report,
)
from wonder.engine import build_ring
from wonder.errors import InputError
from wonder.models import _PowerAlg, synthetic_broken

from builders import corrupt_burrow


def test_equivalence_fm3(fm3_diagram, fm3_ring):
    report = pd_equivalence_report(fm3_diagram, fm3_ring)
    assert report.ok
    assert report.ring_verdict.is_pd
    assert report.failing_burrows == []


def test_blocks_fm3(fm3_diagram, fm3_ring):
    report = block_structure_check(fm3_diagram, fm3_ring)
    assert report.ok
    pairs = {(a, b) for (a, _), (b, _) in report.nonzero_blocks}
    empty = ((), ())
    deep = (("D123",), (("D123", 1),))
    assert pairs == {(empty, empty), (deep, deep)}


def test_blocks_empty_building_set():
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
    report = block_structure_check(diagram, ring)
    assert report.ok
    assert len(report.block_order) == 1


def test_discrepancy_all_pd(fm3_diagram, fm3_ring):
    report = discrepancy_table(fm3_diagram, fm3_ring)
    assert report.ring_discrepancies == (0, 0, 0, 0)
    assert report.sums_match and report.certified
    assert all(d == 0 for d in report.block_discrepancies.values())


def test_corrupted_burrow_equivalence(fm3_diagram):
    bad = corrupt_burrow(fm3_diagram, "12|3", 1)
    assert bad.validate().ok
    ring = build_ring(bad, validate=False)
    report = pd_equivalence_report(bad, ring)
    assert report.ok  # the equivalence itself holds
    assert not report.ring_verdict.is_pd
    assert "12|3" in report.failing_burrows
    assert "1|2|3" in report.failing_burrows


def test_corrupted_burrow_discrepancy_accounting(fm3_diagram):
    bad = corrupt_burrow(fm3_diagram, "12|3", 1)
    ring = build_ring(bad, validate=False)
    report = discrepancy_table(bad, ring)
    assert report.sums_match and report.certified
    assert report.ring_discrepancies[1] == 1


def test_two_corruptions_add(fm3_diagram):
    bad = corrupt_burrow(fm3_diagram, "12|3", 1)
    worse = corrupt_burrow(bad, "13|2", 1, label="dead2")
    assert worse.validate().ok
    ring = build_ring(worse, validate=False)
    report = discrepancy_table(worse, ring)
    assert report.ring_discrepancies[1] == 2
    assert report.sums_match


def test_empty_building_set_report():
    broken = synthetic_broken((1, 2, 1), 1, 9)
    diagram = BurrowDiagram(
        socle_degree=2,
        elements=[],
        burrows=[BurrowNode("Y", frozenset(), 0, broken)],
        edges=[],
        singles={},
        nests=[],
    )
    ring = build_ring(diagram, validate=False)
    report = pd_equivalence_report(diagram, ring)
    assert report.ok
    assert not report.ring_verdict.is_pd
    assert report.failing_burrows == ["Y"]


def test_equivalence_report_checks_each_structure_once(keel3_diagram, keel3_ring, monkeypatch):
    """The 77 burrows of keel3 share at most 4 (structure, socle degree)
    pairs; the socle check and the verdict run once for each, and every
    burrow still has its verdict."""
    wonder.duality._duality(keel3_ring)  # the ring's own verdict, taken before counting
    calls = {"socle_check": [], "pd_verdict": []}

    def counted(name, fn, key):
        def wrapper(*args):
            calls[name].append(key(*args))
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        wonder.duality,
        "socle_check",
        counted("socle_check", wonder.duality.socle_check, lambda alg, k: (alg.structure, k)),
    )
    monkeypatch.setattr(
        wonder.duality,
        "pd_verdict",
        counted("pd_verdict", wonder.duality.pd_verdict, lambda sp: (sp.algebra.structure, sp.degree)),
    )
    report = pd_equivalence_report(keel3_diagram, keel3_ring)
    d = keel3_diagram.socle_degree
    pairs = {(b.algebra.structure, d - b.codim) for b in keel3_diagram.burrows.values()}
    assert len(pairs) <= 4
    for seen in calls.values():
        assert len(seen) == len(set(seen)) and set(seen) == pairs
    assert sorted(report.burrow_verdicts) == sorted(keel3_diagram.burrows)
    assert report.ok and report.failing_burrows == []


def test_keel3_duality(keel3_diagram, keel3_ring):
    report = pd_equivalence_report(keel3_diagram, keel3_ring)
    assert report.ok and report.ring_verdict.is_pd
    blocks = block_structure_check(keel3_diagram, keel3_ring)
    assert blocks.ok
    table = discrepancy_table(keel3_diagram, keel3_ring)
    assert table.sums_match and table.certified


@pytest.fixture(scope="module")
def fm3_dead_ring(fm3_diagram):
    """fm3 with a dead class in burrow 12|3: dims 1 5 4 1, so the Grams of
    degrees 1 and 2 are not square and a missed transpose shows."""
    return build_ring(corrupt_burrow(fm3_diagram, "12|3", 1), validate=False)


@pytest.mark.parametrize("name", ["fm3_ring", "keel3_ring", "curve3_ring", "fm3_dead_ring"])
def test_ring_gram_matches_multiplication(request, name):
    """Every Gram entry, read off the sparse rows, is the socle coefficient
    of the product of the two basis classes, computed here through full
    multiplication; no zero is stored, every key is a position in the
    complementary degree, and gram(d-k) is exactly the transpose of gram(k)."""
    sp = request.getfixturevalue(name).pairing()
    alg, d = sp.algebra, sp.degree
    for k in range(d + 1):
        rows, cols = alg.global_indices(k), alg.global_indices(d - k)
        gram = sp.gram(k)
        assert len(gram) == len(rows)
        for row in gram:
            assert all(q != 0 for q in row.values())
            assert set(row) <= set(range(len(cols)))
        for i, gi in enumerate(rows):
            for j, gj in enumerate(cols):
                product = alg.multiply(alg.basis_element(gi), alg.basis_element(gj))
                assert gram[i].get(j, 0) == product.coefficient(sp.socle_index)
        entries = {(i, j): q for i, row in enumerate(gram) for j, q in row.items()}
        transpose = {(i, j): q for j, row in enumerate(sp.gram(d - k)) for i, q in row.items()}
        assert entries == transpose


def test_reports_share_one_socle_check(fm3_diagram, monkeypatch):
    ring = build_ring(fm3_diagram, validate=False)
    real = wonder.algebra.socle_check
    checked = []

    def counting(alg, degree):
        checked.append(alg)
        return real(alg, degree)

    for module in (wonder.algebra, wonder.duality, wonder.engine):
        monkeypatch.setattr(module, "socle_check", counting)
    pd_equivalence_report(fm3_diagram, ring)
    discrepancy_table(fm3_diagram, ring)
    block_structure_check(fm3_diagram, ring)
    assert sum(alg is ring.as_algebra() for alg in checked) == 1



def test_reports_share_one_rank_and_one_scan(fm3_diagram, monkeypatch):
    ring = build_ring(fm3_diagram, validate=False)
    sp = ring.pairing()
    d = sp.degree
    passes = [0] * (d + 1)  # passes over the rows of each gram(k)

    def counted(k, rows):
        class Gram(list):
            def __iter__(self):
                passes[k] += 1
                return super().__iter__()

        return Gram(rows)

    sp.grams = tuple(counted(k, rows) for k, rows in enumerate(sp.grams))
    real = wonder.algebra.pd_verdict
    ranked = []

    def counting(pairing):
        ranked.append(pairing)
        return real(pairing)

    for module in (wonder.algebra, wonder.duality):
        monkeypatch.setattr(module, "pd_verdict", counting)
    pd_equivalence_report(fm3_diagram, ring)
    discrepancy_table(fm3_diagram, ring)
    block_structure_check(fm3_diagram, ring)
    assert sum(p is sp for p in ranked) == 1
    # the one block scan passes over every gram(k); the one verdict ranks
    # gram(k) for 2k <= d
    assert passes == [2 if 2 * k <= d else 1 for k in range(d + 1)]

def test_ring_pairing_rejects_failed_socle_check():
    two_tops = GradedAlgebra([1, 2], [["1"], ["a", "b"]], [])
    diagram = BurrowDiagram(
        socle_degree=1,
        elements=[],
        burrows=[BurrowNode("Y", frozenset(), 0, two_tops)],
        edges=[],
        singles={},
        nests=[],
    )
    ring = build_ring(diagram, validate=False)
    with pytest.raises(InputError, match="ring fails its socle check"):
        ring.pairing()
