"""Built-in diagram constructors (diagonal building sets on fiber powers,
the three-point variant on products of lines) and synthetic algebra
generators for property testing.

Burrow configurations are partitions of the coordinate set with optionally
frozen blocks, closed under joins with one building element at a time;
algebras, restriction maps, adjoint pushforwards and Chern data all derive
from the configuration combinatorics.  An inclusion's maps and Chern data
depend only on the shapes of the two burrow algebras and on where the
blocks go, so a build computes them once per such edge shape and gives
every edge its own maps, through the ``GradedMap`` constructor.
"""

from __future__ import annotations

import itertools
import random

from wonder.algebra import (
    Element,
    GradedAlgebra,
    GradedMap,
    adjoint_pushforward,
    algebra_from_products,
    socle_check,
    tensor_algebra,
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
from wonder.exact_linalg import ONE, ZERO, bareiss_echelon, solve_rows

FIBERS = {"p1": 1, "p2": 2}  # fiber name -> projective dimension
MARKERS = ("0", "1", "inf")


# -- truncated power algebras (products of projective lines / planes) ---------


class _PowerAlg:
    """Algebra of a product of projective spaces, one factor per block
    token, with generator labels h<token>.  Its structure constants depend
    on its shape (r, number of tokens) only."""

    def __init__(self, tokens, r):
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
        for e in exps:
            dims[sum(e)] += 1
            labels[sum(e)].append(self._label(e))

        def products(gi, gj):
            s = tuple(x + y for x, y in zip(exps[gi], exps[gj]))
            if any(x > r for x in s):
                return {}
            return {self.index[s]: ONE}

        self.alg = algebra_from_products(dims, labels, products)

    def _label(self, e):
        parts = []
        for tok, k in zip(self.tokens, e):
            if k == 1:
                parts.append(f"h{tok}")
            elif k > 1:
                parts.append(f"h{tok}^{k}")
        return "*".join(parts) if parts else "1"

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
        images = []
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
            if dead or any(v > other.r for v in tgt):
                images.append(other.alg.zero())
                continue
            images.append(other.alg.basis_element(other.index[tuple(tgt)]))
        return GradedMap.from_images(self.alg, other.alg, 0, images)


# -- curve-power algebras ------------------------------------------------------


class _CurveAlg:
    """Cohomological model of a power of a fixed smooth curve of genus g,
    generated by point classes p<b> and cross classes g<b>.<c>.

    Reduction rules: p^2 = 0, p*g (shared block) = 0, g^2 = -2g * p*p,
    and two cross classes sharing one block merge to a point class times
    the cross class of the other two blocks.  Basis classes and products
    are computed on token positions, so the structure constants depend on
    the shape (genus, basis over positions) only; tokens enter the labels,
    and so the basis order, and nothing else.
    """

    def __init__(self, tokens, genus):
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

        self.alg = algebra_from_products(dims, labels, products)

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
    first, rest_all = items[0], items[1:]
    for sub in _matchings(rest_all):
        yield tuple(sub)
    for j, other in enumerate(rest_all):
        rest = rest_all[:j] + rest_all[j + 1 :]
        for sub in _matchings(rest):
            yield ((first, other),) + tuple(sub)


# -- configurations -----------------------------------------------------------


def _cfg_discrete(n):
    return frozenset((frozenset((i,)), None) for i in range(1, n + 1))


def _cfg_with(cfg, idxs, mk):
    """Join of a configuration with the building element that merges
    ``idxs`` and, unless ``mk`` is None, freezes them at marker ``mk``: the
    blocks meeting ``idxs`` merge with it, None when the merged block would
    carry two markers; otherwise the other block frozen at its marker, if
    any, merges too."""
    merged, rest = set(idxs), []
    for blk, m in cfg:
        if blk.isdisjoint(idxs):
            rest.append((blk, m))
            continue
        merged |= blk
        if m is not None:
            if mk is not None and m != mk:
                return None
            mk = m
    if mk is not None:
        for blk, m in rest:
            if m == mk:
                merged |= blk
                rest.remove((blk, m))
                break
    rest.append((frozenset(merged), mk))
    return frozenset(rest)


def _cfg_id(cfg):
    parts = []
    for blk, mk in cfg:
        s = "".join(str(i) for i in sorted(blk))
        if mk is not None:
            s += f"@{mk}"
        parts.append(s)
    return "|".join(sorted(parts, key=lambda p: p.split("@")[0]))


def _cfg_codim(cfg, fiber_dim):
    out = 0
    for blk, mk in cfg:
        out += (len(blk) - 1) + (1 if mk is not None else 0)
    return out * fiber_dim


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

    def _make_burrow(self, tokens):
        if self.fiber == "curve":
            return _CurveAlg(tokens, self.genus)
        return _PowerAlg(tokens, FIBERS[self.fiber])

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
        coords = range(1, n + 1)
        discrete = _cfg_discrete(n)
        # diagonals, then the loci freezing an index set at a marked point
        loci = [
            (idxs, None)
            for size in range(self.diag_min, n + 1)
            for idxs in itertools.combinations(coords, size)
        ] + [
            (idxs, mk)
            for size in range(1, n + 1)
            for idxs in itertools.combinations(coords, size)
            for mk in self.markers
        ]
        elements = []
        elem_cfg = {}
        for idxs, mk in loci:
            cfg = _cfg_with(discrete, idxs, mk)
            eid = "D" + "".join(str(i) for i in idxs)
            index_set = frozenset(str(i) for i in idxs)
            if mk is not None:
                eid += f"@{mk}"
                index_set |= {f"@{mk}"}
            elements.append(BuildingElement(eid, _cfg_codim(cfg, self.fiber_dim), index_set))
            elem_cfg[eid] = cfg

        # close the configurations under joins with the elements, joining
        # each configuration once with each element; the elements whose join
        # leaves it as it is form its defining set, kept as a bitmask over
        # the element list
        defining = dict.fromkeys([discrete, *elem_cfg.values()], 0)
        cfgs = list(defining)
        for a in cfgs:  # the list grows while it is walked
            for k, (idxs, mk) in enumerate(loci):
                j = _cfg_with(a, idxs, mk)
                if j == a:
                    defining[a] |= 1 << k
                elif j is not None and j not in defining:
                    defining[j] = 0
                    cfgs.append(j)

        cid = {c: _cfg_id(c) for c in cfgs}
        by_id = {bid: c for c, bid in cid.items()}
        mask = {cid[c]: m for c, m in defining.items()}
        layouts = {bid: _Layout(cfg) for bid, cfg in by_id.items()}
        wraps = {bid: self._make_burrow(layouts[bid].tokens) for bid in by_id}

        # burrow algebras of one shape have the same structure constants, so
        # one socle check and one pairing serve them all
        pairings = {}
        for bid, w in wraps.items():
            if w.shape not in pairings:
                pairings[w.shape] = socle_check(w.alg, w.alg.top_degree).pairing
                if pairings[w.shape] is None:
                    raise InputError(f"burrow {bid} failed its socle check")

        ids = sorted(by_id)
        singles = {x: cid[cfg] for x, cfg in elem_cfg.items()}
        burrows = [
            BurrowNode(
                bid,
                frozenset(x for k, x in enumerate(elem_cfg) if mask[bid] >> k & 1),
                _cfg_codim(by_id[bid], self.fiber_dim),
                wraps[bid].alg,
            )
            for bid in ids
        ]
        # a burrow lies inside another exactly when its defining set holds
        # the other's; an inclusion's maps and Chern data depend only on the
        # two algebra shapes and the two token-position images, so they are
        # computed once per such edge shape, for this build only
        holders = [  # per element, the positions in ids of the burrows inside it
            {p for p, bid in enumerate(ids) if mask[bid] >> k & 1} for k in range(len(loci))
        ]
        everyone = set(range(len(ids)))
        edge_data = {}
        edges = []
        for b, big in enumerate(ids):
            inside = everyone.intersection(
                *(holders[k] for k in range(len(loci)) if mask[big] >> k & 1)
            )
            for small in [ids[p] for p in sorted(inside) if p != b]:
                lb, ls, wb, ws = layouts[big], layouts[small], wraps[big], wraps[small]
                # each unfrozen big block goes to the small block holding it,
                # each unfrozen small block back to the big block of its lead
                image = tuple(ls.slot[i] for i in lb.leads)
                section = tuple(lb.slot[i] for i in ls.leads)
                key = (wb.shape, ws.shape, image, section)
                if key not in edge_data:
                    edge_data[key] = self._edge_data(wb, ws, image, section, pairings)
                pull_cols, push_cols, c, coeffs = edge_data[key]
                pull = GradedMap(wb.alg, ws.alg, 0, pull_cols)
                push = GradedMap(ws.alg, wb.alg, c, push_cols)
                chern = ChernPolynomial(c, tuple(wb.alg.element(d) for d in coeffs))
                edges.append(BurrowEdge(small, big, pull, push, chern))
        relations = self._relations(wraps[cid[discrete]], elements)
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
        gens = []
        for coord, marker in moves:
            image = {
                cfg: frozenset(
                    (frozenset(coord.get(i, i) for i in blk), marker.get(mk, mk))
                    for blk, mk in cfg
                )
                for cfg in cid
            }
            elements = {eid: element_of[image[cfg]] for eid, cfg in elem_cfg.items()}
            elements = {x: y for x, y in elements.items() if x != y}
            burrows, bases = {}, {}
            for cfg, bid in cid.items():
                target = cid[image[cfg]]
                if target != bid:
                    burrows[bid] = target
                token_map = {
                    "".join(map(str, sorted(blk))): "".join(
                        map(str, sorted(coord.get(i, i) for i in blk))
                    )
                    for blk, mk in cfg
                    if mk is None
                }
                # the same tokens come in the same order, so each index stays
                if any(tok != new for tok, new in token_map.items()):
                    perm = wraps[bid].relabel(wraps[target], token_map)
                    if perm != sorted(perm):
                        bases[bid] = perm
            gens.append(Permutation(elements, burrows, bases))
        return gens

    def _edge_data(self, wb, ws, image, section, pairings):
        """Columns of the pullback and the pushforward, the codimension and
        the Chern coefficients (as coefficient dicts) of one inclusion."""
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
        return pull.columns, push.columns, c, [x.coeffs for x in coeffs]

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


# -- simple diagrams and corruption helpers -----------------------------------


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
    edge = BurrowEdge(zb, "Y", pullback, pushforward, ChernPolynomial(codim, tuple(chern)))
    return BurrowDiagram(
        socle_degree=socle_degree,
        elements=[element],
        burrows=burrows,
        edges=[edge],
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
    remap = {}
    shift_from = alg.offset(degree) + alg.dim(degree)
    for g in range(alg.total_dim):
        remap[g] = g if g < shift_from else g + 1
    dead = shift_from
    entries = []
    for gi in range(1, alg.total_dim):
        for gj in range(gi, alg.total_dim):
            for gk, q in alg.product_basis(gi, gj).items():
                if gi != 0 and gj != 0:
                    entries.append((remap[gi], remap[gj], remap[gk], q))
    return GradedAlgebra(dims, labels, entries), remap, dead


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
        edges.append(BurrowEdge(small, big, pull, push, ChernPolynomial(e.chern.deg, coeffs)))
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


# -- synthetic Gorenstein algebras via apolarity -------------------------------


def _monomials(r, d):
    """Exponent tuples of total degree d in r variables, lexicographic."""
    if r == 0:
        return [()] if d == 0 else []
    out = []

    def rec(prefix, rem, slots):
        if slots == 1:
            out.append(prefix + (rem,))
            return
        for k in range(rem, -1, -1):
            rec(prefix + (k,), rem - k, slots - 1)

    rec(tuple(), d, r)
    return out


def _falling(n, k):
    out = 1
    for i in range(k):
        out *= n - i
    return out


def _apolar_image(f_coeffs, r, d, alpha):
    """Action of the differential monomial x^alpha on the dual generator, as
    a vector over the monomials of degree d - |alpha|."""
    gammas = _monomials(r, d - sum(alpha))
    gamma_index = {g: i for i, g in enumerate(gammas)}
    vec = [0] * len(gammas)
    for beta, coeff in f_coeffs.items():
        if all(b >= x for b, x in zip(beta, alpha)):
            gamma = tuple(b - x for b, x in zip(beta, alpha))
            scale = 1
            for b, x in zip(beta, alpha):
                scale *= _falling(b, x)
            vec[gamma_index[gamma]] += coeff * scale
    return vec


def _monomial_label(alpha):
    parts = []
    for i, e in enumerate(alpha, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


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
    chosen = []  # per degree: (alpha list, image vectors)
    for k in range(d + 1):
        alphas = _monomials(r, k)
        vectors = [_apolar_image(f_coeffs, r, d, a) for a in alphas]
        cols = len(vectors)
        rows = len(vectors[0]) if vectors else 0
        mat = [[vectors[j][i] for j in range(cols)] for i in range(rows)]
        if rows == 0:
            return None
        rank, pivots, _ = bareiss_echelon(mat, cols)
        sel = [(alphas[j], vectors[j]) for j in pivots]
        if k == 0 and rank != 1:
            return None
        chosen.append(sel)
    if len(chosen[d]) != 1:
        return None

    dims = [len(sel) for sel in chosen]
    labels = [[_monomial_label(a) for a, _ in sel] for sel in chosen]
    index = {}
    g = 0
    for k, sel in enumerate(chosen):
        for a, _ in sel:
            index[a] = g
            g += 1

    def express(k, alpha):
        """Coefficients of the class of x^alpha over the chosen basis."""
        image = _apolar_image(f_coeffs, r, d, alpha)
        basis_vecs = [v for _, v in chosen[k]]
        rows = len(basis_vecs[0])
        mat = [[basis_vecs[j][i] for j in range(len(basis_vecs))] for i in range(rows)]
        sol = solve_rows(mat, image, cols=len(basis_vecs))
        return sol

    def products(gi, gj):
        ka = _deg_of(gi)
        kb = _deg_of(gj)
        if ka + kb > d:
            return {}
        alpha = tuple(
            x + y for x, y in zip(_alpha_of(gi), _alpha_of(gj))
        )
        sol = express(ka + kb, alpha)
        if sol is None:
            raise InputError("apolar product failed to express in the basis")
        out = {}
        off = sum(dims[: ka + kb])
        for i, q in enumerate(sol):
            if q:
                out[off + i] = q
        return out

    flat = []
    for k, sel in enumerate(chosen):
        for a, _ in sel:
            flat.append((k, a))

    def _deg_of(g2):
        return flat[g2][0]

    def _alpha_of(g2):
        return flat[g2][1]

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
