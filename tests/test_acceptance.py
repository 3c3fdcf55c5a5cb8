"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
verdict lines as they pass).
"""

import random
import time

from wonder.algebra import pd_verdict, socle_check
from wonder.blowup import (
    blow_up,
    bundle_result,
    check_blowup_propagation,
    check_bundle_propagation,
)
from wonder.duality import (
    block_structure_check,
    discrepancy_table,
    pd_equivalence_report,
)
from wonder.engine import build_ring, presentation_report
from wonder.fixtures import fm_p1_3_oracle, keel_3_oracle
from wonder.models import fm_power
from wonder.nests import li_decomposition
from wonder.oracle import compare_with_oracle, run_oracle

from builders import (
    corrupt_burrow,
    point_blowup_p2_diagram,
    random_blowup_input,
    random_bundle_input,
)


def report(n, text):
    print(f"ACCEPTANCE criterion {n}: PASS - {text}")


def test_criterion_1_plane_point_blowup():
    t0 = time.monotonic()
    diagram = point_blowup_p2_diagram()
    edge = diagram.edges[("BP", "Y")]
    y = diagram.burrows["Y"].algebra
    z = diagram.burrows["BP"].algebra
    res = blow_up(y, z, edge.pullback, edge.pushforward, list(edge.chern.coeffs))
    assert res.algebra.dims == (1, 2, 1)
    e2 = res.algebra.multiply(res.e_class, res.e_class)
    point = res.y_embed.apply(diagram.fundamental_class("BP"))
    assert e2 == -point
    verdict = pd_verdict(socle_check(res.algebra, 2).pairing)
    assert verdict.is_pd
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, f"plane blow-up (1,2,1), E^2 = -[pt], perfect pairing ({elapsed:.2f}s)")


def test_criterion_2_dimension_law():
    t0 = time.monotonic()
    for seed in range(50):
        inp = random_blowup_input(seed)
        res = blow_up(
            inp["y"], inp["z"], inp["pullback"], inp["pushforward"], inp["chern"]
        )
        c = len(inp["chern"])
        for i in range(len(res.algebra.dims)):
            expected = inp["y"].dim(i) + sum(inp["z"].dim(i - k) for k in range(1, c))
            assert res.algebra.dim(i) == expected, f"seed {seed}, degree {i}"
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report(2, f"dimension law on 50 randomized triples ({elapsed:.2f}s)")


def test_criterion_3_propagation_equivalence():
    t0 = time.monotonic()
    checked = 0
    for seed in range(25):
        inp = random_blowup_input(seed)
        res = blow_up(
            inp["y"], inp["z"], inp["pullback"], inp["pushforward"], inp["chern"]
        )
        rep = check_blowup_propagation(inp["y"], inp["z"], res, inp["socle"])
        assert rep.equivalence_ok and rep.block_ok
        checked += 1
    for seed in range(25):
        inp = random_bundle_input(seed)
        rep = check_bundle_propagation(
            inp["z"], bundle_result(inp["z"], inp["chern"]), inp["socle"]
        )
        assert rep.equivalence_ok
        checked += 1
    modes = ["ambient", "center", "both"]
    for seed in range(25):
        inp = random_blowup_input(seed, broken=modes[seed % 3])
        res = blow_up(
            inp["y"], inp["z"], inp["pullback"], inp["pushforward"], inp["chern"]
        )
        rep = check_blowup_propagation(inp["y"], inp["z"], res, inp["socle"])
        assert rep.equivalence_ok and not rep.output_verdict.is_pd
        checked += 1
    for seed in range(25):
        inp = random_bundle_input(seed, broken=True)
        rep = check_bundle_propagation(
            inp["z"], bundle_result(inp["z"], inp["chern"]), inp["socle"]
        )
        assert rep.equivalence_ok and not rep.output_verdict.is_pd
        checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 100
    report(3, f"equivalence held on {checked} synthetic inputs ({elapsed:.2f}s)")


def test_criterion_4_triple_agreement(fm3_diagram, fm3_ring, fm4_diagram, fm4_ring):
    t0 = time.monotonic()
    _, poincare3 = li_decomposition(fm3_diagram)
    assert poincare3 == [1, 4, 4, 1]
    assert fm3_ring.dims == [1, 4, 4, 1]
    oracle_run = run_oracle(fm_p1_3_oracle())
    assert oracle_run.dims == [1, 4, 4, 1]
    assert compare_with_oracle(fm3_ring, fm_p1_3_oracle(), samples=120).ok
    _, poincare4 = li_decomposition(fm4_diagram)
    assert poincare4 == fm4_ring.dims == [1, 9, 16, 9, 1]
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    report(4, f"decomposition, engine and oracle all agree ({elapsed:.2f}s)")


def test_criterion_5_keel_models(keel2_ring, keel3_diagram, keel3_ring):
    t0 = time.monotonic()
    assert keel2_ring.dims == [1, 5, 1]
    assert pd_verdict(socle_check(keel2_ring.as_algebra(), 2).pairing).is_pd
    assert keel3_ring.dims == [1, 16, 16, 1]
    assert pd_verdict(socle_check(keel3_ring.as_algebra(), 3).pairing).is_pd
    fixture = keel_3_oracle()
    run = run_oracle(fixture)
    assert run.dims == [1, 16, 16, 1]
    assert compare_with_oracle(keel3_ring, fixture, samples=60).ok
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    report(5, f"three-point models: (1,5,1) and (1,16,16,1), both perfect ({elapsed:.2f}s)")


def test_criterion_6_presentation(fm3_ring, curve3_ring):
    t0 = time.monotonic()
    for ring, label in ((fm3_ring, "p1"), (curve3_ring, "curve")):
        rep = presentation_report(ring)
        assert rep.ok, rep.summary()
        fam = {f.name: f for f in rep.families}
        assert fam["non-nest products"].instances, label
        assert fam["restriction kernels"].instances
        assert fam["monic relations"].instances
        assert fam["named ideal generators"].instances
        for inst in (
            fam["non-nest products"].instances
            + fam["restriction kernels"].instances
            + fam["monic relations"].instances
            + fam["named ideal generators"].instances
        ):
            assert inst.ok, inst.description
    elapsed = time.monotonic() - t0
    report(6, f"all required relation families vanish exactly ({elapsed:.2f}s)")


def test_criterion_7_blocks_and_discrepancies(
    fm3_diagram,
    fm3_ring,
    fm4_diagram,
    fm4_ring,
    keel2_diagram,
    keel2_ring,
    keel3_diagram,
    keel3_ring,
    curve3_diagram,
    curve3_ring,
):
    t0 = time.monotonic()
    fixtures = [
        (fm3_diagram, fm3_ring),
        (fm4_diagram, fm4_ring),
        (keel2_diagram, keel2_ring),
        (keel3_diagram, keel3_ring),
        (curve3_diagram, curve3_ring),
    ]
    for diagram, ring in fixtures:
        blocks = block_structure_check(diagram, ring)
        assert blocks.ok
        table = discrepancy_table(diagram, ring)
        assert table.certified and table.sums_match

    broken = corrupt_burrow(fm3_diagram, "12|3", 1)
    assert broken.validate().ok
    ring_b = build_ring(broken, validate=False)
    eq = pd_equivalence_report(broken, ring_b)
    assert eq.ok and not eq.ring_verdict.is_pd and eq.failing_burrows
    table_b = discrepancy_table(broken, ring_b)
    assert table_b.sums_match and table_b.ring_discrepancies[1] == 1
    elapsed = time.monotonic() - t0
    report(7, f"block structure and discrepancy sums exact on all fixtures ({elapsed:.2f}s)")


def test_criterion_8_flag_independence():
    t0 = time.monotonic()
    for n in (3, 4):
        wide = build_ring(fm_power("p1", n), validate=False)
        narrow = build_ring(fm_power("p1", n, min_size=3), validate=False)
        assert wide.dims == narrow.dims
        d = wide.diagram.socle_degree
        pd_wide = pd_verdict(socle_check(wide.as_algebra(), d).pairing).is_pd
        pd_narrow = pd_verdict(socle_check(narrow.as_algebra(), d).pairing).is_pd
        assert pd_wide == pd_narrow
    elapsed = time.monotonic() - t0
    report(8, f"diagonal-size flag does not change dims or duality ({elapsed:.2f}s)")


def test_criterion_9_rewrite_termination(
    fm3_ring, fm4_ring, keel2_ring, keel3_ring, curve3_ring
):
    t0 = time.monotonic()
    total_steps = 0
    for ring in (fm3_ring, fm4_ring, keel2_ring, keel3_ring, curve3_ring):
        rnd = random.Random(42)
        n = len(ring.basis)
        for _ in range(200):
            i, j = rnd.randrange(n), rnd.randrange(n)
            _, trace = ring.product_trace(i, j)
            total_steps += len(trace)
            assert len(trace) < ring.max_rewrites
            for before, afters in trace:
                for after in afters:
                    assert after < before
    elapsed = time.monotonic() - t0
    report(
        9,
        f"measure decreased at all {total_steps} rewrite steps, cap untouched "
        f"({elapsed:.2f}s)",
    )
