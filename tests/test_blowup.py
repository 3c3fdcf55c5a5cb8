from types import SimpleNamespace

import pytest

from wonder import blowup
from wonder.algebra import GradedAlgebra, GradedMap, socle_check
from wonder.blowup import (
    block_label,
    blow_up,
    bundle_result,
    check_blowup_propagation,
    check_bundle_propagation,
)
from wonder.errors import InputError
from wonder.fixtures import fm_p1_3_oracle, keel_3_oracle
from wonder.models import _PowerAlg
from wonder.oracle import run_oracle

from builders import (
    block_ring_reference,
    point_blowup_p2_diagram,
    random_blowup_input,
    random_bundle_input,
    typed_rows,
)


def plane_inputs():
    diagram = point_blowup_p2_diagram()
    edge = diagram.edges[("BP", "Y")]
    y = diagram.burrows["Y"].algebra
    z = diagram.burrows["BP"].algebra
    return diagram, y, z, edge


def test_plane_point_blowup():
    diagram, y, z, edge = plane_inputs()
    res = blow_up(y, z, edge.pullback, edge.pushforward, list(edge.chern.coeffs))
    assert res.algebra.dims == (1, 2, 1)
    e2 = res.algebra.multiply(res.e_class, res.e_class)
    point = res.y_embed.apply(diagram.fundamental_class("BP"))
    assert e2 == -point
    assert res.algebra.check_associativity() == []
    report = check_blowup_propagation(y, z, res, 2)
    assert report.ok and report.output_verdict.is_pd


def test_divisorial_center_is_identity():
    wrap = _PowerAlg(["x", "y"], 1)
    y = wrap.alg
    line = _PowerAlg(["d"], 1).alg
    pull = GradedMap.from_images(
        y,
        line,
        0,
        [
            line.unit(),
            line.basis_element(1),
            line.basis_element(1),
            line.zero(),
        ],
    )
    sp_s = socle_check(line, 1).pairing
    sp_b = socle_check(y, 2).pairing
    from wonder.algebra import adjoint_pushforward

    push = adjoint_pushforward(pull, sp_s, sp_b)
    res = blow_up(y, line, pull, push, [push.apply(line.unit())])
    assert res.algebra is y
    assert res.e_class == push.apply(line.unit())


def test_small_diagonal_blowup(fm3_diagram):
    edge = fm3_diagram.edges[("123", "1|2|3")]
    y = fm3_diagram.burrows["1|2|3"].algebra
    z = fm3_diagram.burrows["123"].algebra
    res = blow_up(y, z, edge.pullback, edge.pushforward, list(edge.chern.coeffs))
    assert list(res.algebra.dims) == [1, 4, 4, 1]
    report = check_blowup_propagation(y, z, res, 3)
    assert report.ok and report.output_verdict.is_pd


def test_dimension_law_small_sample():
    for seed in range(6):
        inp = random_blowup_input(seed)
        res = blow_up(
            inp["y"], inp["z"], inp["pullback"], inp["pushforward"], inp["chern"]
        )
        c = len(inp["chern"])
        for i, dim in enumerate(res.algebra.dims):
            expected = inp["y"].dim(i) + sum(
                inp["z"].dim(i - k) for k in range(1, c)
            )
            assert dim == expected


def test_blowup_output_associative():
    inp = random_blowup_input(11)
    res = blow_up(inp["y"], inp["z"], inp["pullback"], inp["pushforward"], inp["chern"])
    assert res.algebra.check_associativity() == []


def test_inconsistent_constant_term_rejected():
    diagram, y, z, edge = plane_inputs()
    chern = [edge.chern.coefficient(1), y.basis_element(y.offset(2)).scale(2)]
    with pytest.raises(InputError, match="constant Chern term"):
        blow_up(y, z, edge.pullback, edge.pushforward, chern)


def test_inconsistent_pushforward_rejected():
    inp = random_blowup_input(2)
    z, y, push = inp["z"], inp["y"], inp["pushforward"]
    tampered = None
    for g in range(1, z.total_dim):
        img = push.apply_basis(g)
        if not img.is_zero():
            images = [push.apply_basis(gg) for gg in range(z.total_dim)]
            images[g] = img.scale(2)
            tampered = GradedMap.from_images(z, y, push.shift, images)
            break
    assert tampered is not None
    with pytest.raises(InputError, match="disagree"):
        blow_up(y, z, inp["pullback"], tampered, inp["chern"])


def test_projective_bundle_rank_one():
    z = _PowerAlg(["x"], 1).alg
    out = bundle_result(z, [z.zero()]).algebra
    assert out is z


def test_projective_bundle_point_rank_two():
    pt = GradedAlgebra([1], [["1"]], [])
    res = bundle_result(pt, [pt.zero(), pt.zero()])
    assert res.algebra.dims == (1, 1)
    xi2 = res.algebra.multiply(res.xi_class, res.xi_class)
    assert xi2.is_zero()


def test_projective_bundle_line_rank_two():
    z = _PowerAlg(["x"], 1).alg
    res = bundle_result(z, [z.zero(), z.zero()])
    assert res.algebra.dims == (1, 2, 1)
    report = check_bundle_propagation(z, res, 1)
    assert report.ok and report.output_verdict.is_pd


def test_bundle_labels_come_from_block_label():
    """Every class of a bundle ring, block 0 included, carries the label
    ``block_label`` gives its block, so fixtures can name any block."""
    inp = random_bundle_input(3)
    z = inp["z"]
    res = bundle_result(z, inp["chern"], name="xi")
    assert block_label("xi", "hx", 0) == "hx"
    labels = [block_label("xi", z.label_of(g), k) for k, g in res.blocks]
    assert [res.algebra.label_of(h) for h in range(res.algebra.total_dim)] == labels
    assert any(k == 0 for k, _ in res.blocks)


def test_bundle_socle_shift():
    inp = random_bundle_input(5)
    res = bundle_result(inp["z"], inp["chern"])
    rep = socle_check(res.algebra, inp["socle"] + inp["rank"] - 1)
    assert rep.ok


def test_propagation_broken_ambient():
    inp = random_blowup_input(3, broken="ambient")
    res = blow_up(inp["y"], inp["z"], inp["pullback"], inp["pushforward"], inp["chern"])
    report = check_blowup_propagation(inp["y"], inp["z"], res, inp["socle"])
    assert report.ok
    assert not report.output_verdict.is_pd
    assert not report.input_verdicts["ambient"].is_pd


def test_propagation_broken_bundle_base():
    inp = random_bundle_input(4, broken=True)
    res = bundle_result(inp["z"], inp["chern"])
    report = check_bundle_propagation(inp["z"], res, inp["socle"])
    assert report.ok
    assert not report.output_verdict.is_pd


def test_block_pattern_on_plane():
    diagram, y, z, edge = plane_inputs()
    res = blow_up(y, z, edge.pullback, edge.pushforward, list(edge.chern.coeffs))
    sp = socle_check(res.algebra, 2).pairing
    # ambient block pairs only with itself; the exceptional block pairs with
    # itself through the reduction
    assert sp.gram(1) == [{0: 1}, {1: -1}]


def _checked_block_rings(monkeypatch) -> list:
    """Make every ``_block_ring`` call also build the all-pairs reference
    on the same arguments and assert the same rows and scalars; returns
    the list of the algebras checked."""
    real, seen = blowup._block_ring, []

    def checked(*args, **kwargs):
        out = real(*args, **kwargs)
        want = block_ring_reference(*args, **kwargs)
        assert out[0].labels == want.labels
        assert typed_rows(out[0]) == typed_rows(want)
        seen.append(out[0])
        return out

    monkeypatch.setattr(blowup, "_block_ring", checked)
    return seen


@pytest.mark.parametrize("seed", range(10))
def test_block_rings_match_the_all_pairs_reference(monkeypatch, seed):
    """The blow-up and bundle tables, built from the pairs that can be
    nonzero with each power of t reduced once per center class, equal the
    product on every basis pair."""
    seen = _checked_block_rings(monkeypatch)
    inp = random_blowup_input(seed)
    blow_up(inp["y"], inp["z"], inp["pullback"], inp["pushforward"], inp["chern"])
    inp = random_bundle_input(seed)
    bundle_result(inp["z"], inp["chern"])
    assert len(seen) == 2


@pytest.mark.parametrize("fixture", [fm_p1_3_oracle, keel_3_oracle])
def test_oracle_block_rings_match_the_all_pairs_reference(monkeypatch, fixture):
    """Every blow-up step of two oracle fixtures, where the ambient grows
    step by step, against the all-pairs reference."""
    seen = _checked_block_rings(monkeypatch)
    payload = fixture()
    run_oracle(payload)
    assert len(seen) == len(payload["steps"])


def test_pullback_not_surjective_in_one_degree():
    """A pullback that hits degree 0 but misses the degree-1 class of the
    center is refused before any ring is built."""
    _, y, _, _ = plane_inputs()
    line = _PowerAlg(["d"], 1).alg
    images = [line.unit()] + [line.zero()] * (y.total_dim - 1)
    pull = GradedMap.from_images(y, line, 0, images)
    push = GradedMap.from_images(line, y, 1, [y.basis_element(1), y.basis_element(2)])
    with pytest.raises(InputError, match="pullback is not surjective; no valid Chern lift exists"):
        blow_up(y, line, pull, push, [y.basis_element(1)])


def _perturbed_plane_blowup(monkeypatch, change):
    """Blow the plane up at its point with ``change`` applied to the
    product table ``_block_ring`` hands to ``Structure.from_products``.
    The result's basis is 1 | h0, E | h0^2 (indices 0 | 1, 2 | 3), with
    the nonzero products h0 * h0 = h0^2 and E * E = -h0^2."""
    real = blowup.Structure.from_products

    def perturbed(dims, products):
        table = dict(products)
        assert table == {(1, 1): {3: 1}, (2, 2): {3: -1}}
        change(table)
        return real(dims, sorted(table.items()))

    monkeypatch.setattr(blowup, "Structure", SimpleNamespace(from_products=perturbed))
    _, y, z, edge = plane_inputs()
    return blow_up(y, z, edge.pullback, edge.pushforward, list(edge.chern.coeffs))


def test_perturbed_exceptional_power_fails_the_monic_relation(monkeypatch):
    """E * E = -2 h0^2 breaks E^2 = -h0^2, the relation of a point of the
    plane; no other check reads that product."""

    def change(table):
        table[2, 2] = {3: -2}

    with pytest.raises(InputError, match="monic relation fails"):
        _perturbed_plane_blowup(monkeypatch, change)


def test_perturbed_ambient_times_exceptional_is_rejected(monkeypatch):
    """h0 * E = h0^2 breaks h0 * E = 0: h0 restricts to zero on the point.
    The relation E^2 = c_1 E - c_2 has c_1 = 0, so it does not read that
    product."""

    def change(table):
        table[1, 2] = {3: 1}

    with pytest.raises(InputError, match="exceptional class"):
        _perturbed_plane_blowup(monkeypatch, change)
