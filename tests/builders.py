"""Constructors that only the tests use: single-center diagrams, the plane
with one point center, a burrow corrupted by a dead class, seeded random
blow-up and bundle inputs, helpers that edit one burrow's or one edge's
data in a diagram file payload, a validation report whose read paths
are checked to agree, reference versions of the structure
constant table (keyed by index pairs) and of the associativity check
(triple by triple) that ``algebra`` replaced by its row tables, the
greedy generator choice (one rank per candidate) that one elimination per
degree replaced, the dense Bareiss echelon, solve, kernel, adjoint
pushforward and section that the sparse elimination of ``exact_linalg``
replaced, and the power-algebra, blow-up/bundle and tensor constructors
that called a product on every basis pair up to the top degree before
they enumerated the pairs that can be nonzero, the product table a
ring's fill hands to its structure, and a ring's products computed pair
by pair.  Import them as ``from builders import ...``; pytest puts this
directory on the import path."""

import copy
import random
from fractions import Fraction
from math import lcm

import pytest

from wonder.algebra import (
    Element,
    GradedAlgebra,
    GradedMap,
    Structure,
    _image,
    adjoint_pushforward,
    algebra_from_products,
    socle_check,
    tensor_algebra,
)
from wonder.blowup import block_label
from wonder.diagram import (
    NESTED_OR_DISJOINT,
    BuildingElement,
    BurrowDiagram,
    BurrowEdge,
    BurrowNode,
    ChernPolynomial,
)
from wonder.engine import _EMPTY, WonderRing, _merged
from wonder.errors import InputError
from wonder.exact_linalg import ONE, ZERO, rat, sparse_rank
from wonder.models import (
    _PowerAlg,
    synthetic_broken,
    synthetic_gorenstein,
    trivial_extension,
)


def single_center_diagram(
    y: GradedAlgebra,
    z: GradedAlgebra,
    pullback: GradedMap,
    pushforward: GradedMap,
    chern,
    *,
    socle_degree: int,
    element_id: str = "Z",
) -> BurrowDiagram:
    """Diagram with a single building element; useful for synthetic duality
    experiments and as the smallest validation fixture."""
    codim = pushforward.shift
    zb = f"B{element_id}"
    element = BuildingElement(element_id, codim)
    burrows = [
        BurrowNode("Y", frozenset(), 0, y),
        BurrowNode(zb, frozenset((element_id,)), codim, z),
    ]
    datum = BurrowEdge(pullback, pushforward, ChernPolynomial(codim, tuple(chern)))
    return BurrowDiagram(
        socle_degree=socle_degree,
        elements=[element],
        burrows=burrows,
        edges=[(zb, "Y", datum)],
        singles={element_id: zb},
        nests=[[element_id]],
    )


def point_blowup_p2_diagram() -> BurrowDiagram:
    """The plane with one point center; the classical first fixture."""
    plane = _PowerAlg(["0"], 2)
    pt = GradedAlgebra([1], [["1"]], [])
    images = [pt.unit()] + [pt.zero()] * (plane.alg.total_dim - 1)
    pull = GradedMap.from_images(plane.alg, pt, 0, images)
    sp_pt = socle_check(pt, 0).pairing
    sp_pl = socle_check(plane.alg, 2).pairing
    push = adjoint_pushforward(pull, sp_pt, sp_pl)
    chern = [plane.alg.zero(), push.apply(pt.unit())]
    return single_center_diagram(
        plane.alg, pt, pull, push, chern, socle_degree=2, element_id="P"
    )


def _remap_element(elem: Element, new_alg: GradedAlgebra, remap) -> Element:
    return new_alg.element({remap[g]: q for g, q in elem.coeffs.items()})


def corrupt_burrow(
    diagram: BurrowDiagram, burrow_id: str, degree: int, label: str = "dead"
) -> BurrowDiagram:
    """Insert a square-zero dead class into one burrow and, to keep all
    restriction maps surjective, into every burrow containing it; the dead
    classes map onto each other down the containment chains and to zero
    elsewhere.  The result validates but fails duality at the chosen degree.
    """
    target = diagram.burrows[burrow_id]
    if degree <= 0 or degree >= diagram.socle_degree - target.codim:
        raise InputError("degree must be strictly inside the burrow's range")
    affected = {
        b.id for b in diagram.burrows.values() if diagram.burrow_contains(b.id, burrow_id)
    }
    new_algs = {}
    remaps = {}
    deads = {}
    for b in diagram.burrows.values():
        if b.id in affected:
            alg, remap, dead = trivial_extension(b.algebra, degree, label)
            new_algs[b.id], remaps[b.id], deads[b.id] = alg, remap, dead
        else:
            new_algs[b.id] = b.algebra
            remaps[b.id] = {g: g for g in range(b.algebra.total_dim)}

    def rebuild_map(old: GradedMap, src_id: str, dst_id: str, dead_to_dead: bool):
        src, dst = new_algs[src_id], new_algs[dst_id]
        src_old = diagram.burrows[src_id].algebra
        images = [dst.zero()] * src.total_dim
        for g in range(src_old.total_dim):
            images[remaps[src_id][g]] = _remap_element(
                old.apply_basis(g), dst, remaps[dst_id]
            )
        if src_id in deads:
            if dead_to_dead and dst_id in deads:
                images[deads[src_id]] = dst.basis_element(deads[dst_id])
            else:
                images[deads[src_id]] = dst.zero()
        return GradedMap.from_images(src, dst, old.shift, images)

    burrows = [
        BurrowNode(b.id, b.defining_set, b.codim, new_algs[b.id])
        for b in diagram.burrows.values()
    ]
    edges = []
    for (small, big), e in diagram.edges.items():
        pull = rebuild_map(e.pullback, big, small, dead_to_dead=True)
        push = rebuild_map(e.pushforward, small, big, dead_to_dead=False)
        coeffs = tuple(
            _remap_element(c, new_algs[big], remaps[big]) for c in e.chern.coeffs
        )
        edges.append((small, big, BurrowEdge(pull, push, ChernPolynomial(e.chern.deg, coeffs))))
    amb = diagram.ambient_id
    relations = [
        (x, name, _remap_element(cls, new_algs[amb], remaps[amb]))
        for x, name, cls in diagram.relations
    ]
    nests = (
        NESTED_OR_DISJOINT
        if diagram.nest_rule == NESTED_OR_DISJOINT
        else [sorted(s) for s in diagram.explicit_nests]
    )
    return BurrowDiagram(
        socle_degree=diagram.socle_degree,
        elements=list(diagram.elements.values()),
        burrows=burrows,
        edges=edges,
        singles=dict(diagram.singles),
        nests=nests,
        relations=relations,
    )


_SHAPES = [
    (1, 1, 1),
    (1, 2, 1),
    (1, 1, 1, 1),
    (1, 2, 2, 1),
    (1, 3, 3, 1),
]


def random_gorenstein(seed: int) -> GradedAlgebra:
    rnd = random.Random(f"shape:{seed}")
    return synthetic_gorenstein(rnd.choice(_SHAPES), seed)


def random_blowup_input(seed: int, *, broken: str | None = None):
    """A consistent (ambient, center, pullback, pushforward, chern) tuple
    with both sides perfect (broken=None) or a dead class inserted into the
    ambient ("ambient"), the center ("center"), or both ("both").

    Returns a dict with keys y, z, pullback, pushforward, chern, socle.
    """
    rnd = random.Random(f"blowup:{seed}:{broken}")
    z0 = random_gorenstein(seed)
    c = rnd.choice([2, 3])
    taxis = _PowerAlg(["t"], c)
    break_amb = broken in ("ambient", "both")
    break_ctr = broken in ("center", "both")
    if break_ctr and z0.top_degree < 2:
        z0 = synthetic_gorenstein((1, 2, 2, 1), seed + 7)
    y0, pair_index = tensor_algebra(z0, taxis.alg)
    socle = z0.top_degree + c

    kz = None
    if break_ctr:
        kz = rnd.randint(1, z0.top_degree - 1)
        z, z_remap, z_dead = trivial_extension(z0, kz, "deadz")
    else:
        z, z_remap, z_dead = z0, {g: g for g in range(z0.total_dim)}, None

    # the ambient must surject onto the center, so a center dead class
    # forces a matching ambient one
    y = y0
    y_remap = {g: g for g in range(y0.total_dim)}
    y_deads = []
    if break_ctr:
        y, y_remap, ydead = trivial_extension(y0, kz, "deady0")
        y_deads.append((ydead, "to_center"))
    if break_amb:
        ka = rnd.randint(1, socle - 1)
        prev_total = y.total_dim
        y2, r2, ydead2 = trivial_extension(y, ka, "deady1")
        y_remap = {g: r2[y_remap[g]] for g in y_remap}
        y_deads = [(r2[dd], tag) for dd, tag in y_deads]
        y_deads.append((ydead2, "zero"))
        y = y2

    # pullback: kill the fiber variable, remap the center part
    rev = {g: key for key, g in pair_index.items()}
    images = [z.zero()] * y.total_dim
    for g0 in range(y0.total_dim):
        gz, gt = rev[g0]
        if gt == 0:
            images[y_remap[g0]] = z.basis_element(z_remap[gz])
        else:
            images[y_remap[g0]] = z.zero()
    for dd, tag in y_deads:
        images[dd] = z.basis_element(z_dead) if tag == "to_center" else z.zero()
    pull = GradedMap.from_images(y, z, 0, images)

    # pushforward: adjoint on the perfect core, dead classes to zero
    sp_z0 = socle_check(z0, z0.top_degree).pairing
    sp_y0 = socle_check(y0, y0.top_degree).pairing
    pull0 = GradedMap.from_images(
        y0,
        z0,
        0,
        [
            z0.basis_element(rev[g0][0]) if rev[g0][1] == 0 else z0.zero()
            for g0 in range(y0.total_dim)
        ],
    )
    push0 = adjoint_pushforward(pull0, sp_z0, sp_y0)
    push_images = [y.zero()] * z.total_dim
    for gz in range(z0.total_dim):
        push_images[z_remap[gz]] = _remap_element(push0.apply_basis(gz), y, y_remap)
    if z_dead is not None:
        push_images[z_dead] = y.zero()
    push = GradedMap.from_images(z, y, c, push_images)

    chern = []
    for i in range(1, c):
        coeffs = {}
        for g in y.global_indices(i):
            q = rnd.randint(-2, 2)
            if q:
                coeffs[g] = q
        chern.append(y.element(coeffs))
    chern.append(push.apply(z.unit()))
    return {
        "y": y,
        "z": z,
        "pullback": pull,
        "pushforward": push,
        "chern": chern,
        "socle": socle,
    }


def random_bundle_input(seed: int, *, broken: bool = False):
    """A base algebra with Chern classes of a random bundle; returns a dict
    with keys z, rank, chern, socle."""
    rnd = random.Random(f"bundle:{seed}:{broken}")
    if broken:
        shapes = [(1, 2, 1), (1, 2, 2, 1), (1, 3, 3, 1)]
        dims = rnd.choice(shapes)
        k = rnd.choice([i for i in range(1, len(dims) - 1)])
        z = synthetic_broken(dims, k, seed)
    else:
        z = random_gorenstein(seed)
    r = rnd.choice([2, 3])
    chern = []
    for i in range(1, r + 1):
        coeffs = {}
        if i <= z.top_degree:
            for g in z.global_indices(i):
                q = rnd.randint(-2, 2)
                if q:
                    coeffs[g] = q
        chern.append(z.element(coeffs))
    return {"z": z, "rank": r, "chern": chern, "socle": z.top_degree}


# -- diagram file payloads -----------------------------------------------------


def edge_entry(payload: dict, small: str, big: str) -> list:
    """The ``[small, big, maps]`` entry of one edge of a diagram payload."""
    return next(e for e in payload["edges"] if e[:2] == [small, big])


def own_maps(payload: dict, edge: list) -> dict:
    """A copy of the edge's ``maps`` datum that this edge alone refers to,
    so that changing it changes this edge only."""
    datum = copy.deepcopy(payload["maps"][edge[2]])
    edge[2] = len(payload["maps"])
    payload["maps"].append(datum)
    return datum


def own_structure(payload: dict, burrow: dict) -> dict:
    """A copy of the burrow's ``structures`` entry that this burrow alone
    refers to, so that changing it changes this burrow only."""
    structure = copy.deepcopy(payload["structures"][burrow["structure"]])
    burrow["structure"] = len(payload["structures"])
    payload["structures"].append(structure)
    return structure


# -- validation reports ---------------------------------------------------------


def checked_report(diagram: BurrowDiagram):
    """``diagram.validate()``, once its read paths are seen to agree: a
    report read first through ``problems()`` and another read through
    ``ok``, ``raise_if_failed`` and then ``entries`` give the same failing
    rows; ``ok`` is whether every row passes; and ``raise_if_failed``
    raises exactly when a row fails, naming the first eight failing rows
    as "check[subject]: detail"."""
    problems = diagram.validate().problems()
    report = diagram.validate()
    ok = report.ok
    try:
        report.raise_if_failed()
        message = None
    except InputError as e:
        message = str(e)
    failing = [e for e in report.entries if not e.ok]
    assert ok == (not failing)
    assert problems == failing == report.problems()
    named = "; ".join(f"{e.check}[{e.subject}]: {e.detail}" for e in failing[:8])
    assert message == (None if ok else f"diagram validation failed: {named}")
    return report


# -- reference structure constants --------------------------------------------


def pair_table(entries) -> dict:
    """``(a, b) -> {k: q}`` with a <= b from ``(gi, gj, gk, q)`` entries,
    zeros left out: the table ``Structure`` kept before its rows."""
    table = {}
    for gi, gj, gk, q in entries:
        if rat(q):
            table.setdefault((min(gi, gj), max(gi, gj)), {})[gk] = rat(q)
    return table


def pair_table_product(table: dict, gi: int, gj: int) -> dict:
    """The product of two basis indices looked up in a ``pair_table``."""
    if gi == 0:
        return {gj: 1}
    if gj == 0:
        return {gi: 1}
    return table.get((min(gi, gj), max(gi, gj)), {})


def associativity_reference(alg: GradedAlgebra) -> list:
    """The failing ``(g, b, c)`` of ``GradedAlgebra.check_associativity``,
    found triple by triple: (g*b)*c against g*(b*c) for each generator g
    and every b, c of positive degree below the top, zero triples
    included."""

    def times(vec, h):
        out = {}
        for k, q in vec.items():
            for gk, c in alg.product_basis(k, h).items():
                out[gk] = out.get(gk, 0) + q * c
        return {gk: q for gk, q in out.items() if q}

    bad = []
    for g in alg.generators():
        room = alg.top_degree - alg.degree_of(g)
        for b in range(1, alg.total_dim):
            db = alg.degree_of(b)
            if db >= room:
                break
            gb = alg.product_basis(g, b)
            for c in range(1, alg.offset(room - db) + alg.dim(room - db)):
                if times(gb, c) != times(alg.product_basis(b, c), g):
                    bad.append((g, b, c))
    return bad


def generators_reference(alg) -> tuple:
    """``GradedAlgebra.generators`` by the greedy choice it replaced: in
    each degree, one rank per candidate basis element, which becomes a
    generator when it raises the rank of the products g*b of the generators
    so far and the generators already taken in that degree."""
    gens = []
    for k in range(1, alg.top_degree + 1):
        cols = alg.global_indices(k)
        rows = []
        for g in gens:
            for b in alg.global_indices(k - alg.degree_of(g)):
                prod = alg.product_basis(g, b)
                if prod:
                    rows.append(dict(prod))
        rank = sparse_rank(rows)
        for h in cols:
            if rank == alg.dim(k):
                break
            rows.append({h: ONE})
            if sparse_rank(rows) > rank:
                gens.append(h)
                rank += 1
            else:
                rows.pop()
    return tuple(gens)


def bareiss_echelon(rows, ncols):
    """Fraction-free (Bareiss) row reduction of an integer matrix, the
    dense reference for the exact eliminations.

    ``rows`` is a sequence of equal-length integer rows; the input is not
    mutated.  Returns ``(rank, pivot_cols, echelon)`` where ``echelon`` holds
    the first ``rank`` rows of an integer row-echelon form with the same row
    space as the input, its pivots the leftmost nonzero columns."""
    m = [list(r) for r in rows]
    rank = 0
    prev = 1
    pivots = []
    for col in range(ncols):
        pr = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        top = m[rank]
        piv = top[col]
        for r in range(rank + 1, len(m)):
            f = m[r][col]
            m[r] = [(piv * a - f * b) // prev for a, b in zip(m[r], top)]
        prev = piv
        pivots.append(col)
        rank += 1
    return rank, pivots, m[:rank]


def _int_rows(dense) -> list:
    """Denominators cleared row by row, as integer rows."""
    out = []
    for row in dense:
        mult = lcm(*(Fraction(v).denominator for v in row)) if row else 1
        out.append([int(v * mult) for v in row])
    return out


def nullspace_rows_reference(dense, cols: int) -> list:
    """Kernel basis of dense rows by Bareiss echelon and back-substitution
    over the rationals: one vector per free column, ascending."""
    if cols == 0:
        return []
    if not dense:
        return [tuple(Fraction(int(c == f)) for c in range(cols)) for f in range(cols)]
    rank, pivots, ech = bareiss_echelon(_int_rows(dense), cols)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i in range(rank - 1, -1, -1):
            p, row = pivots[i], ech[i]
            s = sum((Fraction(row[c]) * v[c] for c in range(p + 1, cols)), Fraction(0))
            v[p] = -s / row[p]
        basis.append(tuple(v))
    return basis


def solve_rows_reference(dense, rhs, cols: int) -> tuple | None:
    """One solution of ``A x = rhs`` with the free variables 0, by Bareiss
    echelon of the augmented matrix; None when it is inconsistent."""
    if not dense:
        return (Fraction(0),) * cols
    aug = [list(row) + [b] for row, b in zip(dense, rhs)]
    rank, pivots, ech = bareiss_echelon(_int_rows(aug), cols + 1)
    if cols in pivots:
        return None
    v = [Fraction(0)] * cols + [Fraction(-1)]
    for i in range(rank - 1, -1, -1):
        p, row = pivots[i], ech[i]
        s = sum((Fraction(row[c]) * v[c] for c in range(p + 1, cols + 1)), Fraction(0))
        v[p] = -s / row[p]
    return tuple(v[:cols])


def _dense_gram(sp, k: int) -> list:
    cols = range(sp.algebra.dim(sp.degree - k))
    return [[row.get(j, 0) for j in cols] for row in sp.gram(k)]


def adjoint_pushforward_reference(pullback: GradedMap, sp_small, sp_big) -> GradedMap:
    """``adjoint_pushforward`` class by class: each right-hand side from
    products of Elements, one dense solve each.  The pairings may sit on
    other algebras of the maps' structures (the models share one per
    shape), so the classes are paired in the pairing's own algebra."""
    big, small = pullback.source, pullback.target
    c = sp_big.degree - sp_small.degree
    paired = sp_small.algebra
    images = []
    for g in range(small.total_dim):
        tk = small.degree_of(g) + c
        if tk > big.top_degree:
            images.append(big.zero())
            continue
        comp = sp_big.degree - tk
        z = paired.basis_element(g)
        rhs = [
            sp_small.pair(z, paired.element(pullback.columns[gy]))
            for gy in big.global_indices(comp)
        ]
        sol = solve_rows_reference(_dense_gram(sp_big, comp), rhs, big.dim(tk))
        if sol is None:
            raise InputError("pairing is not perfect; adjoint pushforward undefined")
        images.append(big.element({big.offset(tk) + i: q for i, q in enumerate(sol)}))
    return GradedMap.from_images(small, big, c, images)


def section_of_reference(pullback: GradedMap) -> GradedMap:
    """``section_of`` class by class, one dense solve per unit vector."""
    big, small = pullback.source, pullback.target
    images = []
    for g in range(small.total_dim):
        k = small.degree_of(g)
        rhs = [int(gg == g) for gg in small.global_indices(k)]
        dense = [[row.get(j, 0) for j in range(big.dim(k))] for row in pullback.rows(k)]
        sol = solve_rows_reference(dense, rhs, big.dim(k))
        if sol is None:
            raise InputError(f"map is not surjective at degree {k}; no section")
        images.append(big.element({big.offset(k) + i: q for i, q in enumerate(sol)}))
    return GradedMap.from_images(small, big, 0, images)


# -- all-pairs constructors ------------------------------------------------------


def typed_rows(alg: GradedAlgebra) -> list:
    """``Structure.rows`` of ``alg`` with each scalar next to its type, so
    that two equal results hold the same values as the same scalar types."""
    return [
        {b: {h: (type(q), q) for h, q in prod.items()} for b, prod in row.items()}
        for row in alg.structure.rows
    ]


def power_algebra_reference(tokens, r) -> GradedAlgebra:
    """``_PowerAlg(tokens, r).alg`` from a product on every basis pair up
    to the top degree."""
    power = _PowerAlg(tokens, r)
    exps, index = power.exps, power.index

    def products(gi, gj):
        s = tuple(x + y for x, y in zip(exps[gi], exps[gj]))
        if any(x > r for x in s):
            return {}
        return {index[s]: ONE}

    return algebra_from_products(power.alg.dims, power.alg.labels, products)


def tensor_algebra_reference(a: GradedAlgebra, b: GradedAlgebra) -> GradedAlgebra:
    """The algebra of ``tensor_algebra(a, b)`` from a product on every
    basis pair up to the top degree."""
    alg, pair_index = tensor_algebra(a, b)
    rev = {gg: pair for pair, gg in pair_index.items()}

    def products(gi, gj):
        ga1, gb1 = rev[gi]
        ga2, gb2 = rev[gj]
        out = {}
        for gka, qa in a.product_basis(ga1, ga2).items():
            for gkb, qb in b.product_basis(gb1, gb2).items():
                out[pair_index[(gka, gkb)]] = qa * qb
        return out

    return algebra_from_products(alg.dims, alg.labels, products)


def block_ring_reference(z, chern, name, *, y=None, pullback=None, to_y=None) -> GradedAlgebra:
    """The algebra of ``blowup._block_ring`` on the same arguments, from a
    product on every basis pair up to the top degree, each power of t
    reduced on the whole class it multiplies."""
    n = len(chern)
    tags = range(0 if y is None else 1, n)
    top = z.top_degree + n - 1 if y is None else y.top_degree
    blocks, dims, labels = [], [], []
    for i in range(top + 1):
        row = [("Y", g) for g in (() if y is None else y.global_indices(i))]
        row += [(k, g) for k in tags for g in z.global_indices(i - k)]
        blocks += row
        dims.append(len(row))
        labels.append(
            [
                y.label_of(g) if k == "Y" else block_label(name, z.label_of(g), k)
                for k, g in row
            ]
        )
    index = {block: g for g, block in enumerate(blocks)}

    def place(out: dict, tag, coeffs):
        for g, q in coeffs.items():
            h = index.get((tag, g))
            if h is None:
                what = "reduction" if y is not None else "bundle reduction"
                raise InputError(f"{what} left an out-of-range block")
            out[h] = out.get(h, ZERO) + q
        return out

    def reduce(m: int, u: Element) -> dict:
        out: dict = {}
        stack = [(m, u)]
        while stack:
            m, u = stack.pop()
            if u.is_zero():
                continue
            if m < n:
                place(out, m, u.coeffs)
                continue
            for i, ci in enumerate(chern, start=1):
                if i == m and to_y is not None:
                    place(out, "Y", _image(to_y, u.coeffs))
                else:
                    stack.append((m - i, z.multiply(u, ci)))
        return out

    def lift(block):
        tag, g = block
        if tag == "Y":
            return 0, pullback.apply_basis(g)
        return tag, z.basis_element(g)

    def products(a, b):
        if blocks[a][0] == blocks[b][0] == "Y":
            return place({}, "Y", y.product_basis(blocks[a][1], blocks[b][1]))
        (j, u), (k, w) = lift(blocks[a]), lift(blocks[b])
        return reduce(j + k, z.multiply(u, w))

    return algebra_from_products(dims, labels, products)


# -- product table of a ring ------------------------------------------------------


def filled_table(ring: WonderRing) -> dict:
    """Run the product fill of an unfilled ring and return the table it
    hands to ``Structure.from_products``: (i, j) -> row for each pair it
    stored, which is each pair 0 < i <= j whose product it found nonzero.
    The fill must build one structure."""
    tables = []
    from_products = Structure.from_products.__func__

    def capture(cls, dims, products):
        table = dict(products)
        tables.append(table)
        return from_products(cls, dims, table.items())

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Structure, "from_products", classmethod(capture))
        ring.build_all_products()
    (table,) = tables
    return table


def products_pair_by_pair(ring: WonderRing, pairs) -> dict:
    """The product of each basis pair (i, j) with i <= j, computed on its
    own in the given order: zero (``_EMPTY``) above the socle or when the
    merged pattern vanishes, else ``_product``.  No fill, no orbits and no
    skipped sub-blocks."""
    d = ring.diagram.socle_degree
    out = {}
    for i, j in pairs:
        if ring.basis[i][0] + ring.basis[j][0] > d:
            out[i, j] = _EMPTY
            continue
        pattern = _merged(ring.summand_of(i), ring.summand_of(j))
        out[i, j] = _EMPTY if ring._vanishes(pattern) else ring._product(i, j, pattern)
    return out
