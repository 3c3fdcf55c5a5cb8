"""Built-in diagram constructors (diagonal building sets on fiber powers,
the three-point variant on products of lines) and synthetic algebra
generators for property testing.

Burrow configurations, enumerated directly, are the set partitions of the
coordinates with some blocks frozen at distinct markers; algebras,
restriction maps, adjoint pushforwards and Chern data all derive from the
configuration combinatorics.  An inclusion's maps and Chern data
depend only on the shapes of the two burrow algebras and on where the
blocks go, so a build computes them once per such edge shape, as one
``BurrowEdge`` datum, and hands that one object to the diagram for every
edge of the shape; burrow algebras of one shape likewise share one
``Structure``.  A power algebra's structure is built from its nonzero
products only, enumerated from the exponent vectors.
"""

from __future__ import annotations

import itertools
import math
import random

from wonder.algebra import (
    Element,
    GradedAlgebra,
    GradedMap,
    Structure,
    adjoint_pushforward,
    algebra_from_products,
    socle_check,
)
from wonder.diagram import (
    NESTED_OR_DISJOINT,
    BuildingElement,
    BurrowDiagram,
    BurrowEdge,
    BurrowNode,
    ChernPolynomial,
    Permutation,
)
from wonder.errors import InputError
from wonder.exact_linalg import ONE, ZERO, sparse_kernel

FIBERS = {"p1": 1, "p2": 2}  # fiber name -> projective dimension
MARKERS = ("0", "1", "inf")


# -- truncated power algebras (products of projective lines / planes) ---------


def _on_structure(structures, shape, labels, build) -> GradedAlgebra:
    """The algebra with these labels on the structure of its shape: taken
    from ``structures`` (shape -> structure) when it holds the shape, else
    made by ``build()`` and kept there."""
    structure = structures.get(shape)
    if structure is None:
        structure = structures[shape] = build()
    return GradedAlgebra.on(structure, labels)


class _PowerAlg:
    """Algebra of a product of projective spaces, one factor per block
    token, with generator labels h<token>.  Its structure constants depend
    on its shape (r, number of tokens) only, so it takes its ``Structure``
    from ``structures`` (shape -> structure) when that holds its shape."""

    def __init__(self, tokens, r, structures=None):
        self.tokens = tuple(tokens)
        self.r = r
        self.shape = (r, len(self.tokens))
        exps = sorted(
            itertools.product(range(r + 1), repeat=len(self.tokens)),
            key=lambda e: (sum(e), e),
        )
        self.exps = exps
        self.index = {e: g for g, e in enumerate(exps)}
        top = r * len(self.tokens)
        dims = [0] * (top + 1)
        labels = [[] for _ in range(top + 1)]
        names = [f"h{t}" for t in self.tokens]
        for e in exps:
            dims[sum(e)] += 1
            labels[sum(e)].append(_monomial(names, e))

        def products():
            # the partners f of e with e + f <= r in every coordinate are
            # the only ones with a nonzero product; each pair once, a <= b
            index = self.index
            for a, e in enumerate(exps[1:], start=1):
                room = itertools.product(*(range(r - x + 1) for x in e))
                for b in sorted(g for g in map(index.__getitem__, room) if g >= a):
                    yield (a, b), {index[tuple(x + y for x, y in zip(e, exps[b]))]: ONE}

        self.alg = _on_structure(
            {} if structures is None else structures,
            self.shape,
            labels,
            lambda: Structure.from_products(dims, products()),
        )

    def gen(self, token) -> Element:
        e = tuple(1 if t == token else 0 for t in self.tokens)
        return self.alg.basis_element(self.index[e])

    def relabel(self, other: "_PowerAlg", token_map: dict) -> list[int]:
        """Index in ``other`` of each basis class with every token t renamed
        token_map[t]."""
        pos = [other.tokens.index(token_map[t]) for t in self.tokens]
        out = []
        for e in self.exps:
            image = [0] * len(pos)
            for k, p in zip(e, pos):
                image[p] = k
            out.append(other.index[tuple(image)])
        return out

    def map_to(self, other: "_PowerAlg", image) -> GradedMap:
        """Ring map sending the generator of token position p to that of
        position image[p] of ``other`` (or to zero on None); exponents
        aggregate per target position."""
        columns = []
        for e in self.exps:
            tgt = [0] * len(other.tokens)
            dead = False
            for p, k in enumerate(e):
                if not k:
                    continue
                if image[p] is None:
                    dead = True
                    break
                tgt[image[p]] += k
            dead = dead or any(v > other.r for v in tgt)
            columns.append({} if dead else {other.index[tuple(tgt)]: ONE})
        return GradedMap(self.alg, other.alg, 0, columns)


# -- curve-power algebras ------------------------------------------------------


class _CurveAlg:
    """Cohomological model of a power of a fixed smooth curve of genus g,
    generated by point classes p<b> and cross classes g<b>.<c>.

    Reduction rules: p^2 = 0, p*g (shared block) = 0, g^2 = -2g * p*p,
    and two cross classes sharing one block merge to a point class times
    the cross class of the other two blocks.  Basis classes and products
    are computed on token positions, so the structure constants depend on
    the shape (genus, basis over positions) only; tokens enter the labels,
    and so the basis order, and nothing else.  It takes its ``Structure``
    from ``structures`` (shape -> structure) when that holds its shape.
    """

    def __init__(self, tokens, genus, structures=None):
        self.tokens = tuple(tokens)
        self.genus = genus
        self.pos = {t: p for p, t in enumerate(self.tokens)}
        basis = []
        places = range(len(self.tokens))
        for pts in itertools.chain.from_iterable(
            itertools.combinations(places, k) for k in range(len(places) + 1)
        ):
            rest = [p for p in places if p not in pts]
            for match in _matchings(rest):
                basis.append((frozenset(pts), frozenset(match)))
        basis.sort(key=lambda b: (len(b[0]) + len(b[1]), self._label(b)))
        self.basis = basis
        self.shape = (genus, tuple(basis))
        self.index = {b: g for g, b in enumerate(basis)}
        top = len(places)
        dims = [0] * (top + 1)
        labels = [[] for _ in range(top + 1)]
        for b in basis:
            d = len(b[0]) + len(b[1])
            dims[d] += 1
            labels[d].append(self._label(b))

        def products(gi, gj):
            coeff, key = self._reduce(basis[gi], basis[gj])
            if key is None or not coeff:
                return {}
            return {self.index[key]: coeff}

        self.alg = _on_structure(
            {} if structures is None else structures,
            self.shape,
            labels,
            lambda: algebra_from_products(dims, labels, products).structure,
        )

    def _label(self, b):
        pts, match = b
        tok = self.tokens
        parts = [f"p{tok[t]}" for t in pts] + [f"g{tok[a]}.{tok[c]}" for a, c in match]
        return "*".join(sorted(parts)) if parts else "1"

    def _reduce(self, b1, b2):
        points = sorted(list(b1[0]) + list(b2[0]))
        gammas = sorted(list(b1[1]) + list(b2[1]))
        coeff = 1
        lam = -2 * self.genus
        while True:
            deg = {}
            for a, c in gammas:
                deg[a] = deg.get(a, 0) + 1
                deg[c] = deg.get(c, 0) + 1
            hot = sorted(v for v, k in deg.items() if k >= 2)
            if not hot:
                break
            v = hot[0]
            inc = [e for e in gammas if v in e]
            e1, e2 = inc[0], inc[1]
            gammas.remove(e1)
            gammas.remove(e2)
            if e1 == e2:
                coeff *= lam
                points.extend(e1)
            else:
                o1 = e1[0] if e1[1] == v else e1[1]
                o2 = e2[0] if e2[1] == v else e2[1]
                points.append(v)
                gammas.append((min(o1, o2), max(o1, o2)))
            gammas.sort()
        if len(set(points)) != len(points):
            return ZERO, None
        touched = {t for e in gammas for t in e}
        if touched & set(points):
            return ZERO, None
        return coeff, (frozenset(points), frozenset(gammas))

    def _point_at(self, p) -> Element:
        return self.alg.basis_element(self.index[(frozenset((p,)), frozenset())])

    def _cross_at(self, a, c) -> Element:
        key = (frozenset(), frozenset(((min(a, c), max(a, c)),)))
        return self.alg.basis_element(self.index[key])

    def point(self, token) -> Element:
        return self._point_at(self.pos[token])

    def diagonal_class(self, a, c) -> Element:
        pa, pc = self.pos[a], self.pos[c]
        return self._point_at(pa) + self._point_at(pc) + self._cross_at(pa, pc)

    def canonical_class(self, token) -> Element:
        return self.point(token).scale(2 * self.genus - 2)

    def relabel(self, other: "_CurveAlg", token_map: dict) -> list[int]:
        """Index in ``other`` of each basis class with every token t renamed
        token_map[t]."""
        to = [other.pos[token_map[t]] for t in self.tokens]
        return [
            other.index[
                (
                    frozenset(to[p] for p in pts),
                    frozenset(tuple(sorted((to[a], to[c]))) for a, c in match),
                )
            ]
            for pts, match in self.basis
        ]

    def map_to(self, other: "_CurveAlg", image) -> GradedMap:
        """Ring map sending the classes of token position p to those of
        position image[p] of ``other``."""
        lam = -2 * self.genus
        images = []
        for pts, match in self.basis:
            img = other.alg.unit()
            for p in sorted(pts):
                img = other.alg.multiply(img, other._point_at(image[p]))
            for a, c in sorted(match):
                ia, ic = image[a], image[c]
                if ia == ic:
                    part = other._point_at(ia).scale(lam)
                else:
                    part = other._cross_at(ia, ic)
                img = other.alg.multiply(img, part)
            images.append(img)
        return GradedMap.from_images(self.alg, other.alg, 0, images)


def _matchings(items):
    """All partial matchings (sets of disjoint pairs), each exactly once."""
    items = sorted(items)
    if not items:
        yield tuple()
        return
    first, rest = items[0], items[1:]
    yield from _matchings(rest)
    for j, other in enumerate(rest):
        for sub in _matchings(rest[:j] + rest[j + 1 :]):
            yield ((first, other), *sub)


# -- configurations -----------------------------------------------------------


def _partitions(items):
    """The set partitions of ``items``, each block a tuple in the order of
    ``items``."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        yield [(first,), *part]
        for i, blk in enumerate(part):
            yield [*part[:i], (first, *blk), *part[i + 1 :]]


def _strata(n, markers, diag_min):
    """The building elements as (idxs, marker or None), diagonals first,
    and every configuration with its defining set: the positions in that
    list of the elements whose indices lie in one of its blocks, with that
    block's marker if the element has one.  A configuration is a set
    partition of 1..n with some blocks frozen at distinct markers, each
    unfrozen block a singleton or of at least ``diag_min`` indices: Keel's
    strata of M0,n+3-bar with the three markers, Fulton and MacPherson's
    of X[n] without."""
    coords = range(1, n + 1)
    subsets = [idxs for size in coords for idxs in itertools.combinations(coords, size)]
    loci = [(idxs, None) for idxs in subsets if len(idxs) >= diag_min]
    loci += [(idxs, mk) for idxs in subsets for mk in markers]
    where = {locus: k for k, locus in enumerate(loci)}
    defining = {}
    for blocks in _partitions(tuple(coords)):
        for marks in itertools.product((None, *markers), repeat=len(blocks)):
            frozen = [mk for mk in marks if mk is not None]
            if len(set(frozen)) < len(frozen) or any(
                mk is None and 1 < len(blk) < diag_min for blk, mk in zip(blocks, marks)
            ):
                continue
            defining[frozenset((frozenset(blk), mk) for blk, mk in zip(blocks, marks))] = [
                where[idxs, m]
                for blk, mk in zip(blocks, marks)
                for size in range(1, len(blk) + 1)
                for idxs in itertools.combinations(blk, size)
                for m in ((None,) if mk is None else (None, mk))
                if (idxs, m) in where
            ]
    return loci, defining


def _cfg_id(cfg):
    parts = ["".join(map(str, sorted(blk))) + ("" if mk is None else f"@{mk}") for blk, mk in cfg]
    return "|".join(sorted(parts, key=lambda p: p.split("@")[0]))


def _cfg_codim(cfg, fiber_dim):
    return fiber_dim * sum(len(blk) - 1 + (mk is not None) for blk, mk in cfg)


class _Layout:
    """One configuration's blocks as its burrow algebra sees them: the
    tokens (digit strings) of the unfrozen blocks sorted by minimal index,
    the minimal index of each, and each index's position in that token
    list (None in a frozen block)."""

    def __init__(self, cfg):
        free = sorted((blk for blk, mk in cfg if mk is None), key=min)
        self.tokens = ["".join(str(i) for i in sorted(blk)) for blk in free]
        self.leads = [min(blk) for blk in free]
        self.slot = {i: None for blk, _ in cfg for i in blk}
        self.slot.update((i, p) for p, blk in enumerate(free) for i in blk)


class _ProductModel:
    def __init__(self, n, fiber, *, genus=2, markers=(), diag_min=2):
        if n < 1 or n > 9:
            raise InputError("supported coordinate counts are 1..9")
        if fiber not in ("p1", "p2", "curve"):
            raise InputError(f"unknown fiber model {fiber!r}")
        if fiber == "curve" and genus < 2:
            raise InputError(
                f"the curve model needs genus >= 2, not {genus}: at genus 1 the "
                "ambient ring of four or more coordinates has no perfect pairing"
            )
        self.n = n
        self.fiber = fiber
        self.genus = genus
        self.markers = tuple(markers)
        self.diag_min = diag_min
        self.fiber_dim = 1 if fiber == "curve" else FIBERS[fiber]

    # -- burrow algebras ------------------------------------------------------

    def _make_burrow(self, tokens, structures):
        if self.fiber == "curve":
            return _CurveAlg(tokens, self.genus, structures)
        return _PowerAlg(tokens, FIBERS[self.fiber], structures)

    def _tangent_factor(self, wrap, token) -> Element:
        """Total tangent class of one fiber factor, in the burrow algebra."""
        alg = wrap.alg
        if self.fiber == "p1":
            return alg.unit() + wrap.gen(token).scale(2)
        if self.fiber == "p2":
            h = wrap.gen(token)
            h2 = alg.multiply(h, h)
            return alg.unit() + h.scale(3) + h2.scale(3)
        return alg.unit() - wrap.point(token).scale(2 * self.genus - 2)

    def build(self) -> BurrowDiagram:
        n = self.n
        loci, defining = _strata(n, self.markers, self.diag_min)
        elements = []
        elem_cfg = {}
        for idxs, mk in loci:
            # the discrete configuration with idxs merged and frozen at mk
            rest = [(frozenset((i,)), None) for i in range(1, n + 1) if i not in idxs]
            cfg = frozenset([(frozenset(idxs), mk), *rest])
            index_set = [*map(str, idxs)] + ([] if mk is None else [f"@{mk}"])
            eid = "D" + "".join(index_set)
            codim = _cfg_codim(cfg, self.fiber_dim)
            elements.append(BuildingElement(eid, codim, frozenset(index_set)))
            elem_cfg[eid] = cfg

        cid = {c: _cfg_id(c) for c in defining}
        by_id = {bid: c for c, bid in cid.items()}
        layouts = {bid: _Layout(cfg) for bid, cfg in by_id.items()}
        # burrow algebras of one shape share one structure, so one socle
        # check and one pairing serve them all
        structures = {}
        wraps = {bid: self._make_burrow(layouts[bid].tokens, structures) for bid in by_id}
        pairings = {}
        for bid, w in wraps.items():
            if w.shape not in pairings:
                pairings[w.shape] = socle_check(w.alg, w.alg.top_degree).pairing
                if pairings[w.shape] is None:
                    raise InputError(f"burrow {bid} failed its socle check")

        ids = sorted(by_id)
        eids = list(elem_cfg)
        singles = {x: cid[cfg] for x, cfg in elem_cfg.items()}
        burrows = [
            BurrowNode(
                bid,
                frozenset(eids[k] for k in defining[by_id[bid]]),
                _cfg_codim(by_id[bid], self.fiber_dim),
                wraps[bid].alg,
            )
            for bid in ids
        ]
        # a burrow lies inside another exactly when its defining set holds
        # the other's; an inclusion's maps and Chern data depend only on the
        # two algebra shapes and the two token-position images, so they are
        # computed once per such edge shape, for this build only, and every
        # edge of that shape is given the one datum
        holders = [set() for _ in loci]  # per element, the positions in ids of the burrows inside it
        for p, bid in enumerate(ids):
            for k in defining[by_id[bid]]:
                holders[k].add(p)
        everyone = set(range(len(ids)))
        data = {}
        edges = []
        for b, big in enumerate(ids):
            inside = everyone.intersection(*(holders[k] for k in defining[by_id[big]]))
            for small in [ids[p] for p in sorted(inside) if p != b]:
                lb, ls, wb, ws = layouts[big], layouts[small], wraps[big], wraps[small]
                # each unfrozen big block goes to the small block holding it,
                # each unfrozen small block back to the big block of its lead
                image = tuple(ls.slot[i] for i in lb.leads)
                section = tuple(lb.slot[i] for i in ls.leads)
                key = (wb.shape, ws.shape, image, section)
                if key not in data:
                    data[key] = self._edge(wb, ws, image, section, pairings)
                edges.append((small, big, data[key]))
        relations = self._relations(wraps["|".join(map(str, range(1, n + 1)))], elements)
        return BurrowDiagram(
            socle_degree=self.fiber_dim * n,
            elements=elements,
            burrows=burrows,
            edges=edges,
            singles=singles,
            nests=NESTED_OR_DISJOINT,
            relations=relations,
            symmetry=self._symmetry(elem_cfg, cid, wraps),
        )

    def _symmetry(self, elem_cfg, cid, wraps) -> list[Permutation]:
        """Generators of the symmetric group on the coordinates, (1 2) and
        (1 2 ... n), and of the one on the markers, (0 1) and (0 1 inf),
        each as a relabelling of configurations; fixed ids and kept basis
        orders are left out."""
        n, m = self.n, self.markers
        moves = []
        if n >= 2:
            moves.append(({1: 2, 2: 1}, {}))
        if n >= 3:
            moves.append(({i: i % n + 1 for i in range(1, n + 1)}, {}))
        if len(m) >= 2:
            moves.append(({}, {m[0]: m[1], m[1]: m[0]}))
        if len(m) >= 3:
            moves.append(({}, {mk: m[(i + 1) % len(m)] for i, mk in enumerate(m)}))
        element_of = {cfg: eid for eid, cfg in elem_cfg.items()}
        blocks = {blk for cfg in cid for blk, _ in cfg}
        token = {blk: "".join(map(str, sorted(blk))) for blk in blocks}
        gens = []
        for coord, marker in moves:
            moved = {blk: frozenset(coord.get(i, i) for i in blk) for blk in blocks}
            image = {cfg: frozenset((moved[b], marker.get(mk, mk)) for b, mk in cfg) for cfg in cid}
            elements = {x: y for x, cfg in elem_cfg.items() if (y := element_of[image[cfg]]) != x}
            burrows, bases = {}, {}
            for cfg, bid in cid.items():
                target = cid[image[cfg]]
                if target != bid:
                    burrows[bid] = target
                # the same tokens come in the same order, so each index stays
                if any(moved[blk] != blk for blk, mk in cfg if mk is None):
                    token_map = {token[blk]: token[moved[blk]] for blk, mk in cfg if mk is None}
                    perm = wraps[bid].relabel(wraps[target], token_map)
                    if perm != sorted(perm):
                        bases[bid] = perm
            gens.append(Permutation(elements, burrows, bases))
        return gens

    def _edge(self, wb, ws, image, section, pairings) -> BurrowEdge:
        """The datum of an inclusion of the small burrow ws in the big
        burrow wb: pullback, pushforward and Chern data."""
        pull = wb.map_to(ws, image)
        push = adjoint_pushforward(pull, pairings[ws.shape], pairings[wb.shape])
        c = push.shift
        # each big block merged into a small block beyond the first adds one
        # tangent factor of that small block
        total = ws.alg.unit()
        merged = set()
        for p in image:
            if p in merged:
                total = ws.alg.multiply(total, self._tangent_factor(ws, ws.tokens[p]))
            elif p is not None:
                merged.add(p)
        lift = ws.map_to(wb, section)
        coeffs = [lift.apply(total.homogeneous_part(i)) for i in range(1, c)]
        coeffs.append(push.apply(ws.alg.unit()))
        return BurrowEdge(pull, push, ChernPolynomial(c, tuple(coeffs)))

    def _relations(self, ambient_wrap, elements):
        """Generators of the ideal that each exceptional class annihilates,
        as (element id, name, ambient class): elements by id; for each pair
        i < j of the element's coordinates D_ij + K_j and K_i - K_j (on the
        fibers with a canonical class K), then D_ik - D_jk for every
        coordinate k outside the element."""
        alg = ambient_wrap.alg
        coords = [str(i) for i in range(1, self.n + 1)]
        diag = {}
        for a, b in itertools.combinations(coords, 2):
            if self.fiber == "curve":
                diag[a + b] = ambient_wrap.diagonal_class(a, b)
            elif self.fiber == "p1":
                diag[a + b] = ambient_wrap.gen(a) + ambient_wrap.gen(b)
            else:
                ha, hb = ambient_wrap.gen(a), ambient_wrap.gen(b)
                diag[a + b] = (
                    alg.multiply(ha, ha) + alg.multiply(ha, hb) + alg.multiply(hb, hb)
                )
        canon = {}
        if self.fiber == "curve":
            canon = {a: ambient_wrap.canonical_class(a) for a in coords}
        elif self.fiber == "p1":
            canon = {a: ambient_wrap.gen(a).scale(-2) for a in coords}

        def pair(a, b):
            return min(a, b) + max(a, b)

        out = []
        for e in sorted(elements, key=lambda e: e.id):
            inside = [c for c in coords if c in e.index_set]
            outside = [c for c in coords if c not in e.index_set]
            for i, j in itertools.combinations(inside, 2):
                if canon:
                    out.append((e.id, f"D{i}{j}+K{j}", diag[i + j] + canon[j]))
                    out.append((e.id, f"K{i}-K{j}", canon[i] - canon[j]))
                for k in outside:
                    ik, jk = pair(i, k), pair(j, k)
                    out.append((e.id, f"D{ik}-D{jk}", diag[ik] - diag[jk]))
        return out


def fm_power(fiber: str, n: int, *, min_size: int = 2, genus: int = 2) -> BurrowDiagram:
    """Diagonal building set on the n-th fiber power: all multi-diagonals
    with at least ``min_size`` merged coordinates.

    Fibers: "p1", "p2", or "curve" (the fixed-curve cohomological model with
    point, cross and canonical classes; ``genus`` applies to it only and
    must be at least 2, as in the paper).
    """
    if n < 2:
        raise InputError("need at least two coordinates")
    if min_size < 2:
        raise InputError("diagonals merge at least two coordinates")
    return _ProductModel(n, fiber, genus=genus, diag_min=min_size).build()


def keel_model(n: int) -> BurrowDiagram:
    """Building set on a product of lines: all diagonals plus all loci
    freezing a coordinate set at one of three marked points."""
    if n < 1:
        raise InputError("need at least one coordinate")
    return _ProductModel(n, "p1", markers=MARKERS).build()


# -- dead-class extensions ---------------------------------------------------


def trivial_extension(alg: GradedAlgebra, degree: int, label: str = "dead"):
    """Square-zero one-dimensional extension in the given degree.

    Returns (new algebra, old-to-new global index map, dead index).
    """
    if degree <= 0 or degree > alg.top_degree:
        raise InputError("dead class must sit in an intermediate degree")
    dims = list(alg.dims)
    labels = [list(ls) for ls in alg.labels]
    dims[degree] += 1
    labels[degree].append(label)
    dead = alg.offset(degree) + alg.dim(degree)
    remap = {g: g if g < dead else g + 1 for g in range(alg.total_dim)}
    entries = [
        (remap[gi], remap[gj], remap[gk], q)
        for gi in range(1, alg.total_dim)
        for gj in range(gi, alg.total_dim)
        for gk, q in alg.product_basis(gi, gj).items()
    ]
    return GradedAlgebra(dims, labels, entries), remap, dead


# -- synthetic Gorenstein algebras via apolarity -------------------------------


def _monomials(r, d):
    """Exponent tuples of total degree d in r variables, lexicographic
    from the largest."""
    if r == 0:
        return [()] if d == 0 else []
    return [(k, *rest) for k in range(d, -1, -1) for rest in _monomials(r - 1, d - k)]


def _apolar_image(f_coeffs, r, d, alpha):
    """Action of the differential monomial x^alpha on the dual generator, as
    a vector over the monomials of degree d - |alpha|."""
    gammas = _monomials(r, d - sum(alpha))
    gamma_index = {g: i for i, g in enumerate(gammas)}
    vec = [0] * len(gammas)
    for beta, coeff in f_coeffs.items():
        if all(b >= x for b, x in zip(beta, alpha)):
            gamma = tuple(b - x for b, x in zip(beta, alpha))
            vec[gamma_index[gamma]] += coeff * math.prod(map(math.perm, beta, alpha))
    return vec


def _monomial(names, exps) -> str:
    """The label of a monomial: its factors, name or name^exponent, joined
    by "*", or "1"."""
    return "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, exps) if k) or "1"


def synthetic_gorenstein(dim_vector, seed: int, *, retries: int = 40) -> GradedAlgebra:
    """Random graded algebra with a perfect pairing, built as the quotient
    annihilating a random dual polynomial; retried until the requested
    dimension vector is achieved."""
    dim_vector = tuple(int(x) for x in dim_vector)
    if dim_vector[0] != 1 or dim_vector[-1] != 1:
        raise InputError("dimension vector must start and end at 1")
    if min(dim_vector) < 0:
        raise InputError(f"dimension vector {dim_vector} has a negative entry")
    d = len(dim_vector) - 1
    if d == 0:
        return GradedAlgebra([1], [["1"]], [])
    r = dim_vector[1]
    for attempt in range(retries):
        rnd = random.Random(f"apolar:{seed}:{attempt}")
        f_coeffs = {
            beta: rnd.randint(-9, 9) for beta in _monomials(r, d)
        }
        alg = _apolar_algebra(f_coeffs, r, d)
        if alg is not None and alg.dims == dim_vector:
            return alg
    raise InputError(
        f"retries exhausted: dimension vector {dim_vector} not achieved"
    )


def _apolar_algebra(f_coeffs, r, d) -> GradedAlgebra | None:
    chosen = []  # per degree: the basis monomials
    coords = {}  # every monomial -> its class over the basis of its degree
    for k in range(d + 1):
        alphas = _monomials(r, k)
        vectors = [_apolar_image(f_coeffs, r, d, a) for a in alphas]
        if not vectors or not vectors[0]:
            return None
        # one column per monomial; the leftmost pivots are the basis, and
        # the kernel vector of a free column f (its largest column) is 1 at
        # f and minus f's class at the pivots
        rows = [{j: v[i] for j, v in enumerate(vectors) if v[i]} for i in range(len(vectors[0]))]
        kernel = {max(v): v for v in sparse_kernel(rows, len(alphas))}
        pivots = [j for j in range(len(alphas)) if j not in kernel]
        if k == 0 and len(pivots) != 1:
            return None
        index = {p: i for i, p in enumerate(pivots)}
        for j, a in enumerate(alphas):
            v = kernel.get(j)
            if v is None:
                coords[a] = {index[j]: ONE}
            else:
                coords[a] = {index[p]: -q for p, q in v.items() if p != j}
        chosen.append([alphas[p] for p in pivots])
    if len(chosen[d]) != 1:
        return None

    dims = [len(sel) for sel in chosen]
    names = [f"x{i}" for i in range(1, r + 1)]
    labels = [[_monomial(names, a) for a in sel] for sel in chosen]
    flat = [(k, a) for k, sel in enumerate(chosen) for a in sel]  # (degree, exponents) by global index

    def products(gi, gj):
        (ka, a), (kb, b) = flat[gi], flat[gj]
        if ka + kb > d:
            return {}
        off = sum(dims[: ka + kb])
        return {off + i: q for i, q in coords[tuple(x + y for x, y in zip(a, b))].items()}

    return algebra_from_products(dims, labels, products)


def synthetic_broken(dim_vector, k: int, seed: int) -> GradedAlgebra:
    """Algebra with the requested dimensions whose pairing is rank-deficient
    at degree k (and its complement), built as a dead extension of a smaller
    perfect-pairing algebra."""
    dim_vector = tuple(int(x) for x in dim_vector)
    d = len(dim_vector) - 1
    if not (0 < k < d):
        raise InputError("break degree must be strictly between 0 and the top")
    inner = list(dim_vector)
    inner[k] -= 1
    if k != d - k:
        inner[d - k] -= 1
    if any(x < 1 for x in inner):
        raise InputError(f"dimension vector {dim_vector} too small to break at {k}")
    core = synthetic_gorenstein(inner, seed)
    out, _, _ = trivial_extension(core, k, "dead")
    if k != d - k:
        out, _, _ = trivial_extension(out, d - k, "dead2")
    return out
