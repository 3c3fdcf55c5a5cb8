"""The input data model: building elements, the burrow lattice with its
algebras and maps, Chern data, the singles table and the nest rule,
plus validation of every hypothesis the engine relies on.

The edge set is the containment order of the burrows: Z sits inside W
exactly when Z = W or Z < W is an edge.  The intersection of a set of
elements is the greatest burrow below all of their burrows (the singles
table), read off the lower sets of the burrows; the ``table-consistency``
row checks that the edges are transitive and that any two burrows with a
common lower burrow have a greatest one, their meet.  The nests of the
rule, each with the burrow of its intersection, form one table
(``BurrowDiagram.nests``), computed once and read by validation, the
decomposition, the rewrite rules and the duality reports.

A diagram may declare generators of a permutation group acting on it
(``Permutation``).  ``BurrowDiagram.symmetry`` checks once that each is an
automorphism of everything the ring and the laws read; ``validate`` then
runs the costly laws once per orbit, and the engine computes one product
per orbit of basis pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from wonder.algebra import (
    Element,
    GradedAlgebra,
    GradedMap,
    projection_formula_holds,
    socle_check,
)
from wonder.errors import InputError


@dataclass(frozen=True)
class BuildingElement:
    id: str
    codim: int
    index_set: frozenset | None = None

    def __post_init__(self):
        if self.codim < 1:
            raise InputError(f"building element {self.id}: codim must be >= 1")


@dataclass
class BurrowNode:
    id: str
    defining_set: frozenset
    codim: int
    algebra: GradedAlgebra


@dataclass
class ChernPolynomial:
    """Monic polynomial attached to an inclusion of burrows; coefficient i
    lives in degree i of the big burrow's algebra and the top coefficient is
    the fundamental class of the small burrow."""

    deg: int
    coeffs: tuple  # c_1 .. c_deg as Elements of the big algebra

    def __post_init__(self):
        if self.deg < 1 or len(self.coeffs) != self.deg:
            raise InputError("Chern polynomial needs exactly deg coefficients")

    def coefficient(self, i: int) -> Element:
        """c_i for 1 <= i <= deg."""
        return self.coeffs[i - 1]


@dataclass
class BurrowEdge:
    small: str
    big: str
    pullback: GradedMap  # big -> small, shift 0
    pushforward: GradedMap  # small -> big, shift = codim difference
    chern: ChernPolynomial


NESTED_OR_DISJOINT = "nested-or-disjoint"


@dataclass(frozen=True)
class Permutation:
    """One declared symmetry of a diagram: a bijection of element ids, one
    of burrow ids and, for each burrow b, a bijection from the basis of b's
    algebra to the basis of the image burrow's algebra (``bases[b][g]`` is
    the image of global index g).  Ids left out of ``elements`` and
    ``burrows`` are fixed; a burrow left out of ``bases`` keeps each index."""

    elements: dict = field(default_factory=dict)
    burrows: dict = field(default_factory=dict)
    bases: dict = field(default_factory=dict)

    def element(self, x: str) -> str:
        return self.elements.get(x, x)

    def burrow(self, b: str) -> str:
        return self.burrows.get(b, b)

    def basis(self, b: str, dim: int):
        """The image index of each basis index of burrow b."""
        return self.bases.get(b) or range(dim)


@dataclass
class Symmetry:
    """Result of checking the declared generators.  ``generators`` holds
    them when every one is an automorphism, and is empty (the trivial
    group) otherwise; ``problems`` lists (generator, first failure)."""

    generators: tuple
    problems: list


def orbit_labels(items, moves) -> dict:
    """The orbit of each item under the group generated by the callables in
    ``moves`` (each maps an item to an item), labelled by the orbit's first
    item in the given order."""
    label = {}
    for it in items:
        if it in label:
            continue
        label[it] = it
        stack = [it]
        while stack:
            cur = stack.pop()
            for move in moves:
                nxt = move(cur)
                if nxt not in label:
                    label[nxt] = it
                    stack.append(nxt)
    return label


@dataclass
class CheckResult:
    check: str
    subject: str
    ok: bool
    detail: str = ""


@dataclass
class ValidationReport:
    entries: list[CheckResult] = field(default_factory=list)

    def add(self, check, subject, ok, detail=""):
        self.entries.append(CheckResult(check, subject, ok, detail))

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def problems(self) -> list[CheckResult]:
        return [e for e in self.entries if not e.ok]

    def raise_if_failed(self):
        bad = self.problems()
        if bad:
            lines = "; ".join(f"{e.check}[{e.subject}]: {e.detail}" for e in bad[:8])
            raise InputError(f"diagram validation failed: {lines}")

    def summary(self) -> str:
        lines = []
        for e in self.entries:
            mark = "ok" if e.ok else "FAIL"
            detail = f" - {e.detail}" if e.detail else ""
            lines.append(f"{mark:4} {e.check} [{e.subject}]{detail}")
        lines.append(f"result: {'pass' if self.ok else 'fail'}")
        return "\n".join(lines)


class BurrowDiagram:
    """Immutable diagram of a building set on an ambient burrow."""

    def __init__(
        self,
        *,
        socle_degree: int,
        elements: list[BuildingElement],
        burrows: list[BurrowNode],
        edges: list[BurrowEdge],
        singles: dict[str, str],
        nests,  # NESTED_OR_DISJOINT or an explicit collection of id-sets
        relations: list[tuple[str, str, Element]] = (),
        symmetry: list[Permutation] = (),
    ):
        self.socle_degree = int(socle_degree)
        self.elements = {e.id: e for e in elements}
        if len(self.elements) != len(elements):
            raise InputError("duplicate element ids")
        self.burrows = {b.id: b for b in burrows}
        if len(self.burrows) != len(burrows):
            raise InputError("duplicate burrow ids")
        ambient = [b.id for b in burrows if b.codim == 0]
        if len(ambient) != 1:
            raise InputError("need exactly one codim-0 burrow (the ambient)")
        self.ambient_id = ambient[0]
        self.edges = {}
        # _below[a]: the burrows with an edge into a
        self._below = {b: set() for b in self.burrows}
        for e in edges:
            key = (e.small, e.big)
            if key in self.edges:
                raise InputError(f"duplicate edge {key}")
            if e.small not in self.burrows or e.big not in self.burrows:
                raise InputError(f"edge {e.small}<{e.big} names an unknown burrow")
            self.edges[key] = e
            self._below[e.big].add(e.small)
        # _lower[a]: a and the burrows below it as a bitmask over _order,
        # which lists larger lower sets first, so that on transitive edges
        # the lowest bit of a nonempty intersection of lower sets is a
        # maximal burrow of it
        self._order = sorted(self.burrows, key=lambda b: (-len(self._below[b]), b))
        bit = {b: 1 << i for i, b in enumerate(self._order)}
        self._lower = {}
        for b, below in self._below.items():
            mask = bit[b]
            for s in below:
                mask |= bit[s]
            self._lower[b] = mask
        self.singles = dict(singles)
        if nests == NESTED_OR_DISJOINT:
            self.nest_rule = NESTED_OR_DISJOINT
            self.explicit_nests = None
        else:
            self.nest_rule = "explicit"
            self.explicit_nests = {frozenset(s) for s in nests}
        # (element id x, name, ambient class): E[x] annihilates the class
        self.relations = [tuple(r) for r in relations]
        for x, name, _ in self.relations:
            if x not in self.elements:
                raise InputError(f"relation {name!r} on unknown element id {x!r}")
        # nests are bitmasks over the sorted element ids (``nest_mask``)
        self._ids = sorted(self.elements)
        self._bit = {x: 1 << i for i, x in enumerate(self._ids)}
        self._compatible = self._above = self._nests = None
        self.symmetry_generators = tuple(symmetry)
        for k, gen in enumerate(self.symmetry_generators, start=1):
            self._check_permutation_shape(k, gen)
        self._symmetry: Symmetry | None = None

    def _check_permutation_shape(self, k: int, gen: Permutation):
        """Each map of a declared generator must be a bijection of known ids
        and each basis map a permutation of its burrow's basis indices."""
        for what, ids, mapping in (
            ("element", self.elements, gen.elements),
            ("burrow", self.burrows, gen.burrows),
        ):
            for x in (*mapping, *mapping.values()):
                if x not in ids:
                    raise InputError(f"symmetry generator {k}: unknown {what} id {x!r}")
            if set(mapping.values()) != set(mapping) or len(set(mapping.values())) != len(mapping):
                raise InputError(f"symmetry generator {k}: {what} map is not a bijection")
        for b, perm in gen.bases.items():
            if b not in self.burrows:
                raise InputError(f"symmetry generator {k}: unknown burrow id {b!r}")
            dim = self.burrows[b].algebra.total_dim
            if sorted(perm) != list(range(dim)):
                raise InputError(
                    f"symmetry generator {k}: basis map of {b} is not a permutation "
                    f"of 0..{dim - 1}"
                )

    # -- containment and meets -------------------------------------------------

    def _lower_set(self, b: str) -> int:
        try:
            return self._lower[b]
        except KeyError:
            raise InputError(f"unknown burrow id {b!r}") from None

    def _greatest(self, mask: int) -> str | None:
        """The burrow whose lower set is exactly the nonempty mask: the
        greatest burrow in it, or None when it has none."""
        b = self._order[(mask & -mask).bit_length() - 1]
        return b if self._lower[b] == mask else None

    def meet(self, b1: str, b2: str) -> str | None:
        """The greatest burrow inside both, or None when no burrow is."""
        common = self._lower_set(b1) & self._lower_set(b2)
        if not common:
            return None
        top = self._greatest(common)
        if top is None:
            raise InputError(
                f"burrows {b1!r} and {b2!r} have no greatest common lower burrow"
            )
        return top

    def _single(self, x: str) -> str:
        """The burrow of element x in the singles table."""
        if x not in self.singles:
            raise InputError(f"element {x!r} has no burrow in the singles table")
        return self.singles[x]

    def burrow_of(self, element_ids) -> str | None:
        """Burrow of the intersection of a set of elements; None if empty."""
        ids = sorted(element_ids)
        common = self._lower[self.ambient_id]
        for x in ids:
            if x not in self.elements:
                raise InputError(f"unknown element id {x!r}")
            common &= self._lower_set(self._single(x))
            if not common:
                return None
        top = self._greatest(common)
        if top is None:
            raise InputError(f"elements {ids} have no greatest common lower burrow")
        return top

    def burrow_contains(self, outer: str, inner: str) -> bool:
        """True when the inner burrow sits inside the outer one."""
        return outer == inner or (inner, outer) in self.edges

    def element_contains(self, outer: str, inner: str) -> bool:
        """Subvariety containment between building elements."""
        return self.burrow_contains(self._single(outer), self._single(inner))

    def elements_below(self, x: str) -> list[str]:
        """All building elements contained in x as subvarieties (x included)."""
        return sorted(s for s in self.elements if self.element_contains(x, s))

    # -- nests -----------------------------------------------------------------

    def nest_mask(self, element_ids) -> int:
        """A set of element ids as a bitmask: bit i for the i-th sorted id."""
        try:
            return sum({self._bit[x] for x in element_ids})
        except KeyError as e:
            raise InputError(f"unknown element id {e.args[0]!r}") from None

    def nest_members(self, mask: int) -> tuple[str, ...]:
        """The sorted element ids of a bitmask."""
        out = []
        while mask:
            low = mask & -mask
            out.append(self._ids[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def is_nest(self, element_ids) -> bool:
        """Whether a set of element ids is a nest of the rule."""
        if self.nest_rule == "explicit":
            key = frozenset(element_ids)
            return not key or key in self.explicit_nests
        compatible = self._compatibility()
        ids = set(element_ids)
        mask = self.nest_mask(ids)
        return all(compatible[x] & mask == mask for x in ids)

    def _compatibility(self) -> dict[str, int]:
        """Per element, the bitmask of the elements (itself included) whose
        index set is nested in or disjoint from its own.  The rule is
        pairwise, so a nest is a set whose members are all compatible."""
        if self._compatible is None:
            sets = {x: e.index_set for x, e in self.elements.items()}
            for x, s in sets.items():
                if s is None:
                    raise InputError(
                        f"element {x!r} has no index set; the nested-or-disjoint "
                        "rule needs one"
                    )
            self._compatible = {
                x: self.nest_mask(y for y, b in sets.items() if a.isdisjoint(b) or a <= b or b <= a)
                for x, a in sets.items()
            }
        return self._compatible

    def above_mask(self, x: str) -> int:
        """The elements strictly containing element x, as a bitmask."""
        if self._above is None:
            self._above = {
                y: self.nest_mask(z for z in self._ids if z != y and self.element_contains(z, y))
                for y in self._ids
            }
        return self._above[x]

    def nests(self) -> dict[int, str | None]:
        """Every nest of the rule as a bitmask (``nest_mask``), mapped to the
        burrow of its intersection or None when that is empty; computed once
        by a depth-first walk that extends each nest by later elements only
        (compatible with every member, or giving a listed nest), which
        downward closure makes exhaustive.  A nest's intersection is its
        parent's lower set ANDed with the new member's."""
        if self._nests is None:
            n = len(self._ids)
            lower = [self._lower_set(self._single(x)) for x in self._ids]
            if self.nest_rule == "explicit":
                listed = {self.nest_mask(s) for s in self.explicit_nests if s.issubset(self._bit)}
                compatible = [(1 << n) - 1] * n
            else:
                listed = None
                compatible = [self._compatibility()[x] for x in self._ids]
            table = {0: self.ambient_id}
            stack = [(0, self._lower[self.ambient_id], (1 << n) - 1)]
            while stack:
                nest, common, free = stack.pop()
                while free:
                    low = free & -free
                    free ^= low
                    child = nest | low
                    if listed is not None and child not in listed:
                        continue
                    i = low.bit_length() - 1
                    meet = common & lower[i]
                    top = self._greatest(meet) if meet else None
                    if meet and top is None:
                        raise InputError(
                            f"elements {list(self.nest_members(child))} have no greatest "
                            "common lower burrow"
                        )
                    table[child] = top
                    stack.append((child, meet, free & compatible[i]))
            self._nests = table
        return self._nests

    # -- maps --------------------------------------------------------------------

    def pullback(self, big: str, small: str) -> GradedMap:
        """Restriction map between comparable burrows (big contains small)."""
        if big == small:
            return GradedMap.identity(self.burrows[big].algebra)
        try:
            return self.edges[(small, big)].pullback
        except KeyError:
            raise InputError(f"no edge for burrow pair {small!r} inside {big!r}")

    @property
    def ambient(self) -> BurrowNode:
        return self.burrows[self.ambient_id]

    def fundamental_class(self, burrow_id: str) -> Element:
        """Class of a burrow in the ambient algebra."""
        if burrow_id == self.ambient_id:
            return self.ambient.algebra.unit()
        return self.edges[(burrow_id, self.ambient_id)].chern.coefficient(
            self.burrows[burrow_id].codim
        )

    # -- symmetry ------------------------------------------------------------------

    def symmetry(self) -> Symmetry:
        """Check once that every declared generator is an automorphism of
        what the ring and the laws read, and keep the verdict: shared by
        ``validate`` and the engine.

        A generator s passes when it keeps element codims, the nest relation
        (pairs of elements under the nested-or-disjoint rule, the explicit
        list otherwise), singles, burrow codims and defining sets; when each
        basis map is an isomorphism of the burrow algebras
        (``GradedAlgebra.relabels_onto``); and when every edge Z < W has an
        image edge sZ < sW whose pullback, pushforward and top Chern
        coefficient are the images of its own, exactly.  Then s is a
        bijection on burrows that maps the edge set into itself, so onto
        itself: it keeps the containment order and with it every meet.  A
        lower Chern coefficient c_i is compared only after pullback to the
        small burrow: the models store a lift of c_i from Z chosen by a
        section, which no symmetry need keep, and every consumer of c_i
        reads it only through its restriction to Z (the ``chern-shape`` row
        reads the lift itself, so it stays per edge).  With one failing
        generator the group is trivial, so nothing relies on a false
        declaration."""
        if self._symmetry is None:
            problems = []
            restricted = {}  # edge -> its lower Chern coefficients pulled back
            for k, gen in enumerate(self.symmetry_generators, start=1):
                detail = self._automorphism_failure(gen, restricted)
                if detail:
                    problems.append((f"generator {k}", detail))
            generators = () if problems else self.symmetry_generators
            self._symmetry = Symmetry(generators, problems)
        return self._symmetry

    def _automorphism_failure(self, gen: Permutation, restricted) -> str:
        """The first datum the generator does not carry to its image, or ''."""
        el, bu = gen.element, gen.burrow
        for x, e in self.elements.items():
            if self.elements[el(x)].codim != e.codim:
                return f"element {x} and its image differ in codim"
            single = self.singles.get(x)
            if self.singles.get(el(x)) != (single and bu(single)):
                return f"singles of {x} and its image do not correspond"
        if self.nest_rule == "explicit":
            image = {frozenset(map(el, s)) for s in self.explicit_nests}
            if image != self.explicit_nests:
                return "the explicit nests are not carried onto themselves"
        else:
            for x, y in itertools.combinations(self._ids, 2):
                if self.is_nest((x, y)) != self.is_nest((el(x), el(y))):
                    return f"{{{x}, {y}}} and its image differ in the nest relation"
        # per burrow, the basis permutation and the index each image index
        # comes from; None when each index stays
        perms, sources = {}, {}
        for bid, node in self.burrows.items():
            image = self.burrows[bu(bid)]
            perms[bid] = perm = gen.bases.get(bid)
            sources[bid] = perm and sorted(range(len(perm)), key=perm.__getitem__)
            if image.codim != node.codim or image.defining_set != frozenset(
                map(el, node.defining_set)
            ):
                return f"burrow {bid} and its image differ in codim or defining set"
            if not node.algebra.relabels_onto(image.algebra, gen.basis(bid, node.algebra.total_dim)):
                return f"basis map of {bid} is not an algebra isomorphism"

        def moved(vec: dict, p) -> dict:
            return vec if p is None else {p[h]: v for h, v in vec.items()}

        def carried(m: GradedMap, m2: GradedMap, a: str, b: str) -> bool:
            """Whether m, a map from burrow a to burrow b, goes to m2."""
            p = perms[b]
            cols = m.columns if p is None else [{p[h]: v for h, v in col.items()} for col in m.columns]
            if sources[a] is not None:
                cols = [cols[g] for g in sources[a]]
            return m.shift == m2.shift and cols == m2.columns

        def lower_chern(key, edge):
            if key not in restricted:
                restricted[key] = [
                    edge.pullback.apply(c).coeffs for c in edge.chern.coeffs[:-1]
                ]
            return restricted[key]

        for key, edge in self.edges.items():
            small, big = key
            ns, nb = self.burrows[small], self.burrows[big]
            if edge.pullback.source is not nb.algebra or edge.pullback.target is not ns.algebra:
                return f"edge {small}<{big} has the wrong endpoints"
            image_key = (bu(small), bu(big))
            image = self.edges.get(image_key)
            if image is None:
                return f"edge {small}<{big} has no image edge"
            if image is edge and perms[small] is None and perms[big] is None:
                continue
            if not (
                carried(edge.pullback, image.pullback, big, small)
                and carried(edge.pushforward, image.pushforward, small, big)
            ):
                return f"maps of edge {small}<{big} are not carried to those of its image"
            if edge.chern.deg != image.chern.deg or image.chern.coeffs[-1].coeffs != moved(
                edge.chern.coeffs[-1].coeffs, perms[big]
            ):
                return f"top Chern coefficient of edge {small}<{big} is not carried to its image's"
            lower = [moved(c, perms[small]) for c in lower_chern(key, edge)]
            if lower != lower_chern(image_key, image):
                return (
                    f"Chern coefficients of edge {small}<{big} restricted to {small} are "
                    "not carried to its image's"
                )
        return ""

    # -- validation ----------------------------------------------------------------

    def validate(self) -> ValidationReport:
        rep = ValidationReport()
        d = self.socle_degree
        group = self.symmetry()
        for subject, detail in group.problems:
            rep.add("symmetry", subject, False, detail)
        moves = [gen.burrow for gen in group.generators]

        # Every law below is kept by each checked generator, so one burrow
        # or edge per orbit decides it for the whole orbit; rows copied
        # from a passing first member read exactly as computed ones, and
        # the other members of an orbit whose first member fails are
        # computed one by one.
        passed = {}
        orbit = orbit_labels(self.burrows, moves)
        associative = True
        for b in self.burrows.values():
            if passed.get(orbit[b.id]):
                rep.add("socle", b.id, True)
                continue
            sr = socle_check(b.algebra, d - b.codim)
            rep.add(
                "socle",
                b.id,
                sr.ok,
                "" if sr.ok else "; ".join(sr.problems),
            )
            # the generator checks below are exact on associative algebras
            bad = b.algebra.check_associativity()
            if bad:
                associative = False
                g, x, y = (b.algebra.label_of(i) for i in bad[0])
                rep.add(
                    "associativity", b.id, False, f"({g}*{x})*{y} != {g}*({x}*{y})"
                )
            passed.setdefault(orbit[b.id], sr.ok and not bad)

        # elements with no known burrow fail here and are skipped below
        unplaced = set()
        for x, e in sorted(self.elements.items()):
            if x not in self.singles:
                rep.add("table-singles", x, False, "element missing from the table")
                unplaced.add(x)
                continue
            bid = self.singles[x]
            if bid not in self.burrows:
                rep.add("table-singles", x, False, f"unknown burrow {bid!r}")
                unplaced.add(x)
                continue
            node = self.burrows[bid]
            ok = node.codim == e.codim
            rep.add(
                "element-codim",
                x,
                ok,
                "" if ok else f"element codim {e.codim} != burrow codim {node.codim}",
            )

        # the containment laws of the edge set; the defining-set and
        # nest-nonempty-burrow rows fold element sets through meets, so they
        # run only when these hold (and the nest table only when every
        # element is placed)
        detail = self._order_failure()
        rep.add("table-consistency", "elements", not detail, detail)
        consistent = not detail

        if consistent:
            for b in self.burrows.values():
                lost = sorted(b.defining_set & unplaced)
                if lost:
                    rep.add("defining-set", b.id, False, f"{lost[0]} has no burrow")
                    continue
                folded = self.burrow_of(b.defining_set) if b.defining_set else (
                    self.ambient_id if b.codim == 0 else None
                )
                ok = folded == b.id
                rep.add(
                    "defining-set",
                    b.id,
                    ok,
                    "" if ok else f"defining set folds to {folded!r}",
                )

        # the ring-hom and projection-formula rows check generators only,
        # which decides the full laws (and so is kept by the group) when
        # every burrow algebra is associative
        edge_moves = [
            lambda e, s=gen.burrow: (s(e[0]), s(e[1])) for gen in group.generators
        ]
        orbit = orbit_labels(self.edges, edge_moves if associative else ())
        passed = {}
        ring_maps = True
        misshapen = set()  # edges whose maps have the wrong endpoints
        for (small, big), edge in sorted(self.edges.items()):
            nb, ns = self.burrows[big], self.burrows[small]
            c = ns.codim - nb.codim
            subject = f"{small}<{big}"
            if edge.pullback.source is not nb.algebra or edge.pullback.target is not ns.algebra:
                rep.add("edge-shape", subject, False, "pullback endpoints wrong")
                misshapen.add((small, big))
                continue
            shift_ok = edge.pushforward.shift == c
            if passed.get(orbit[small, big]):
                surj_bad, hom, formula = [], True, True
            else:
                surj = edge.pullback.surjective_degrees()
                surj_bad = [k for k, ok in enumerate(surj) if not ok]
                hom = edge.pullback.is_ring_hom()
                formula = shift_ok and projection_formula_holds(
                    edge.pullback, edge.pushforward
                )
                passed.setdefault(orbit[small, big], not surj_bad and hom and formula)
            ring_maps = ring_maps and hom
            rep.add(
                "pullback-surjective",
                subject,
                not surj_bad,
                "" if not surj_bad else f"surjectivity failed at degree {surj_bad[0]}",
            )
            rep.add("pullback-ring-hom", subject, hom)
            rep.add(
                "pushforward-shift",
                subject,
                shift_ok,
                "" if shift_ok else f"shift {edge.pushforward.shift} != codim diff {c}",
            )
            if shift_ok:
                rep.add("projection-formula", subject, formula)
            ok = edge.chern.deg == c
            rep.add(
                "chern-degree",
                subject,
                ok,
                "" if ok else f"chern degree {edge.chern.deg} != codim diff {c}",
            )
            if ok and c >= 1:
                shape_ok = True
                detail = ""
                for i in range(1, c + 1):
                    ci = edge.chern.coefficient(i)
                    if not ci.is_zero() and ci.degree() != i:
                        shape_ok = False
                        detail = f"coefficient {i} has degree {ci.degree()}"
                        break
                rep.add("chern-shape", subject, shape_ok, detail)
                fc = edge.pushforward.apply(ns.algebra.unit())
                ok = edge.chern.coefficient(c) == fc
                rep.add(
                    "chern-fundamental-class",
                    subject,
                    ok,
                    "" if ok else "top coefficient differs from the class of the "
                    "small burrow",
                )

        # nonvanishing of burrow classes in the ambient ring; the class is
        # the top Chern coefficient, so an edge failing chern-degree has none
        for b in self.burrows.values():
            if b.id == self.ambient_id:
                continue
            if (b.id, self.ambient_id) not in self.edges:
                rep.add("edge-to-ambient", b.id, False, "missing edge to the ambient")
                continue
            if self.edges[b.id, self.ambient_id].chern.deg != b.codim:
                continue
            fc = self.fundamental_class(b.id)
            rep.add(
                "class-nonzero",
                b.id,
                not fc.is_zero(),
                "" if not fc.is_zero() else "[Z] = 0 violates the nonvanishing "
                "hypothesis",
            )

        # functoriality: composite pullback along a chain equals the edge map.
        # Both sides are ring maps once the associativity and ring-hom
        # checks pass, so they agree everywhere when they agree on the unit
        # and the generators; then the verdict is kept by the group and one
        # edge per orbit decides it.  The first failing edge in this order
        # is the first of its orbit, so the detail is the one a scan of
        # every edge would give.  Edges failing edge-shape are left out,
        # as direct maps and as links.
        ok = True
        detail = ""
        order = {b: i for i, b in enumerate(self.burrows)}
        if not ring_maps:
            orbit = {e: e for e in self.edges}
        seen = set()
        for (small, big), edge in self.edges.items():
            if orbit[small, big] in seen or (small, big) in misshapen:
                continue
            seen.add(orbit[small, big])
            direct = edge.pullback
            for mid in sorted(self._below[big], key=order.__getitem__):
                if small not in self._below[mid] or misshapen & {(small, mid), (mid, big)}:
                    continue
                link, upper = self.pullback(mid, small), self.pullback(big, mid)
                if any(
                    direct.apply_basis(g) != link.apply(upper.apply_basis(g))
                    for g in (0, *direct.source.generators())
                ):
                    ok = False
                    detail = f"{big} -> {mid} -> {small}"
                    break
            if not ok:
                break
        rep.add("pullback-functorial", "chains", ok, detail)

        # nests: singletons, nonempty burrows, downward closure for explicit lists
        ok = all(self.is_nest({x}) for x in self.elements)
        rep.add("nest-singletons", "elements", ok)
        if self.nest_rule == "explicit":
            closed = True
            detail = ""
            for s in self.explicit_nests:
                for x in s:
                    if not self.is_nest(s - {x}):
                        closed = False
                        detail = f"{sorted(s)} minus {x}"
                        break
                if not closed:
                    break
            rep.add("nest-downward-closed", "explicit list", closed, detail)
        if consistent and not unplaced:
            bad = next((s for s, burrow in self.nests().items() if burrow is None), None)
            rep.add(
                "nest-nonempty-burrow",
                "nests",
                bad is None,
                "" if bad is None else f"nest {list(self.nest_members(bad))} has empty intersection",
            )
        return rep

    def _order_failure(self) -> str:
        """The first failure of the laws that make the edge set a
        containment order with meets, or '': every chain a < b < c has its
        edge a < c, and any two burrows with a common lower burrow have a
        greatest one.  On transitive edges the lowest bit of a common lower
        set is a maximal burrow of it (see ``_order``), so the set has a
        greatest burrow exactly when it is that burrow's lower set."""
        order, lower = self._order, self._lower
        for mid, big in self.edges:
            missing = lower[mid] & ~lower[big]
            if missing:
                small = order[(missing & -missing).bit_length() - 1]
                return f"{small}<{mid}<{big} has no edge {small}<{big}"
        masks = [lower[b] for b in order]
        for i, mask in enumerate(masks):
            for j in range(i + 1, len(masks)):
                common = mask & masks[j]
                if not common:
                    continue
                top = (common & -common).bit_length() - 1
                if masks[top] != common:
                    rest = common & ~masks[top]
                    other = order[(rest & -rest).bit_length() - 1]
                    a, b = sorted((order[i], order[j]))
                    return (
                        f"{a} and {b} have two maximal common lower burrows, "
                        f"{order[top]} and {other}"
                    )
        return ""
