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
automorphism of everything the ring and the laws read, and the engine then
computes one product per orbit of basis pairs.

Burrows of one shape share one ``Structure``, and ``edges[(small, big)]``
is the edge's datum (``BurrowEdge``: pullback, pushforward and Chern
polynomial), one object shared by every edge of its shape.  The
constructor checks that each datum lies on the structures of its edge's
burrow algebras; the datum may live on other algebras of those
structures, so every read that combines it with a burrow's own algebra,
or with another datum, goes through map columns and coefficient dicts.
``validate`` decides each law of one burrow or edge once per distinct
structure or datum (``edge_data``), exactly: equal data give equal
verdicts.  The symmetry check likewise compares each distinct (datum,
image datum, basis permutations) once.  With a checked group,
``validate`` tries the containment laws and the functoriality of the
pullbacks only on the pairs and chains that start at one burrow per
orbit, which is exact (see its docstring), and its report makes the
per-edge rows only when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from wonder.algebra import (
    Element,
    GradedAlgebra,
    GradedMap,
    Structure,
    _image,
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


@dataclass(eq=False)
class BurrowEdge:
    """The datum of one inclusion shape, stored by ``BurrowDiagram`` as
    ``edges[(small, big)]`` and shared by every edge of its shape, so
    compared by identity.  Its maps and Chern classes lie on algebras of
    the structures of the edge's two burrows, which need not be the
    burrows' own algebras."""

    pullback: GradedMap  # big -> small, shift 0
    pushforward: GradedMap  # small -> big, shift = codim difference
    chern: ChernPolynomial


def _misfit(datum: BurrowEdge, small: Structure, big: Structure) -> str:
    """The part of an edge datum that does not lie on the structures of the
    edge's small and big burrow algebras, or ''."""
    pull, push = datum.pullback, datum.pushforward
    if pull.source.structure is not big or pull.target.structure is not small:
        return "pullback is"
    if push.source.structure is not small or push.target.structure is not big:
        return "pushforward is"
    for c in datum.chern.coeffs:
        if c.alg.structure is not big:
            return "Chern classes are"
    return ""


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


@dataclass(slots=True)
class CheckResult:
    check: str
    subject: str
    ok: bool
    detail: str = ""


class ValidationReport:
    """The rows of one validation, in order.  A batch of rows (``validate``
    adds those of the per-edge laws so) can be held as its verdict and a
    function that makes the rows: ``ok`` and a passing ``raise_if_failed``
    read the verdicts alone, and the rows are made once, when ``entries``,
    ``problems`` or ``summary`` first reads them."""

    def __init__(self):
        self._parts = []  # (ok, rows): a list of CheckResult, or a function making them
        self._entries = None

    def add(self, check, subject, ok, detail=""):
        self._parts.append((ok, [CheckResult(check, subject, ok, detail)]))

    def add_rows(self, ok: bool, rows):
        """Rows that ``rows()`` makes on read, all passing exactly when ok."""
        self._parts.append((ok, rows))

    @property
    def entries(self) -> list[CheckResult]:
        if self._entries is None:
            self._entries = [
                e for _, rows in self._parts for e in (rows if isinstance(rows, list) else rows())
            ]
        return self._entries

    @property
    def ok(self) -> bool:
        return all(ok for ok, _ in self._parts)

    def problems(self) -> list[CheckResult]:
        return [e for e in self.entries if not e.ok]

    def raise_if_failed(self):
        if self.ok:
            return
        lines = "; ".join(f"{e.check}[{e.subject}]: {e.detail}" for e in self.problems()[:8])
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
        edges,  # (small id, big id, BurrowEdge) triples
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
        for small, big, datum in edges:
            key = (small, big)
            if key in self.edges:
                raise InputError(f"duplicate edge {key}")
            if small not in self.burrows or big not in self.burrows:
                raise InputError(f"edge {small}<{big} names an unknown burrow")
            misfit = _misfit(
                datum, self.burrows[small].algebra.structure, self.burrows[big].algebra.structure
            )
            if misfit:
                raise InputError(
                    f"edge {small}<{big}: its {misfit} not on the structures of its burrow algebras"
                )
            self.edges[key] = datum
            self._below[big].add(small)
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
        self._data = None

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
        """Restriction map between comparable burrows (big contains small),
        on their own algebras: a view of the shared datum's columns."""
        if big == small:
            return GradedMap.identity(self.burrows[big].algebra)
        try:
            datum = self.edges[(small, big)]
        except KeyError:
            raise InputError(f"no edge for burrow pair {small!r} inside {big!r}")
        return datum.pullback.rebased(self.burrows[big].algebra, self.burrows[small].algebra)

    @property
    def ambient(self) -> BurrowNode:
        return self.burrows[self.ambient_id]

    def fundamental_class(self, burrow_id: str) -> Element:
        """Class of a burrow in the ambient algebra."""
        amb = self.ambient.algebra
        if burrow_id == self.ambient_id:
            return amb.unit()
        chern = self.edges[(burrow_id, self.ambient_id)].chern
        return amb.element(chern.coefficient(self.burrows[burrow_id].codim).coeffs)

    def edge_data(self) -> dict:
        """Each edge's datum as an integer, numbered by the identity of the
        datum object in order of first use; computed once."""
        if self._data is None:
            number = {}
            self._data = {
                pair: number.setdefault(datum, len(number)) for pair, datum in self.edges.items()
            }
        return self._data

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
        reads the lift itself, so ``validate`` decides it once per distinct
        edge datum, not once per orbit of data).  With one failing
        generator the group is trivial, so nothing relies on a false
        declaration.  Each comparison reads shared data only (structures,
        map columns, coefficient dicts and basis permutations), so it runs
        once per distinct combination of them."""
        if self._symmetry is None:
            problems = []
            restricted = {}  # edge datum -> its lower Chern coefficients pulled back
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
            # per element x, the elements y where {x, y} and its image differ
            # in the nest relation; both relations are symmetric, so the
            # first x with such a y has none before it, and the first pair
            # in order is named
            compatible, bit = self._compatibility(), self._bit
            bits = [(bit[y], bit[el(y)]) for y in self._ids]
            for x in self._ids:
                image = compatible[el(x)]
                pulled = sum(b for b, image_bit in bits if image & image_bit)
                differ = pulled ^ compatible[x]
                if differ:
                    y = self._ids[(differ & -differ).bit_length() - 1]
                    return f"{{{x}, {y}}} and its image differ in the nest relation"
        # per burrow, the basis permutation, an id shared by equal ones (None
        # when each index stays) and the index each image index comes from
        perms, ids, sources, interned, isomorphic = {}, {}, {}, {}, {}
        for bid, node in self.burrows.items():
            image = self.burrows[bu(bid)]
            perms[bid] = perm = gen.bases.get(bid)
            ids[bid] = None if perm is None else interned.setdefault(tuple(perm), len(interned))
            sources[bid] = perm and sorted(range(len(perm)), key=perm.__getitem__)
            if image.codim != node.codim or image.defining_set != frozenset(
                map(el, node.defining_set)
            ):
                return f"burrow {bid} and its image differ in codim or defining set"
            key = (node.algebra.structure, image.algebra.structure, ids[bid])
            if key not in isomorphic:
                isomorphic[key] = node.algebra.relabels_onto(
                    image.algebra, gen.basis(bid, node.algebra.total_dim)
                )
            if not isomorphic[key]:
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

        def lower_chern(datum, edge):
            if datum not in restricted:
                columns = edge.pullback.columns
                restricted[datum] = [_image(columns, c.coeffs) for c in edge.chern.coeffs[:-1]]
            return restricted[datum]

        def failure(edge, image, datum, image_datum, small, big) -> str:
            """Which datum of the edge is not carried to its image's, or ''."""
            if not (
                carried(edge.pullback, image.pullback, big, small)
                and carried(edge.pushforward, image.pushforward, small, big)
            ):
                return "maps"
            if edge.chern.deg != image.chern.deg or image.chern.coeffs[-1].coeffs != moved(
                edge.chern.coeffs[-1].coeffs, perms[big]
            ):
                return "top"
            lower = [moved(c, perms[small]) for c in lower_chern(datum, edge)]
            return "" if lower == lower_chern(image_datum, image) else "lower"

        # one pass in edge order keeps the first edge of each distinct
        # (datum, image datum, permutation ids), whose verdict holds for all
        # its edges, and stops at the first edge with no image edge; the keys
        # are then decided in the order of their first edges, all before
        # that stop, so the first failure in edge order is named
        data, image_of = self.edge_data(), {b: bu(b) for b in self.burrows}
        first, stop = {}, ""
        for pair, datum in data.items():  # in edge order
            small, big = pair
            image_datum = data.get((image_of[small], image_of[big]))
            if image_datum is None:
                stop = f"edge {small}<{big} has no image edge"
                break
            key = (datum, image_datum, ids[small], ids[big])
            if key not in first:
                first[key] = pair
        for (datum, image_datum, *perm_ids), (small, big) in first.items():
            # equal data and no permutations compare equal objects
            if datum == image_datum and perm_ids == [None, None]:
                continue
            edge, image = self.edges[small, big], self.edges[image_of[small], image_of[big]]
            kind = failure(edge, image, datum, image_datum, small, big)
            if kind == "maps":
                return f"maps of edge {small}<{big} are not carried to those of its image"
            if kind == "top":
                return f"top Chern coefficient of edge {small}<{big} is not carried to its image's"
            if kind == "lower":
                return (
                    f"Chern coefficients of edge {small}<{big} restricted to {small} are "
                    "not carried to its image's"
                )
        return stop

    # -- validation ----------------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check every hypothesis the engine relies on.  The report holds
        the verdicts of the per-edge laws once per distinct datum and makes
        the per-edge rows when they are read (``ValidationReport``).

        Every law of one burrow or edge reads its data and the structures
        of its algebras only, so it is decided once per distinct key (the
        structure and codim of a burrow; the ``edge_data`` datum and codim
        difference of an edge) and read for every burrow or edge that
        shares it: equal data give equal verdicts.

        The containment laws (``_order_failure``) and functoriality
        (``_chain_failure``) are decided per orbit of the checked group
        (``symmetry``): only on the edges, pairs and chains whose first
        burrow is the representative of its orbit.  A passing generator s
        is a bijection of the burrows that carries the edge set onto
        itself, each pullback to the pullback of the image edge, and each
        burrow algebra isomorphically onto its image's.  So s carries lower
        sets to lower sets: an edge is transitive exactly when its image
        is, and two burrows have a greatest common lower burrow exactly
        when their images do.  A chain's composite pullback equals its
        edge's exactly when the image chain's does; the check compares
        them on generators, which decides that equality once the algebras
        are associative and the pullbacks ring maps, so chains go per orbit
        only when the per-burrow and per-edge laws all hold.  A failing
        edge, pair or chain then has a failing image whose first burrow is a
        representative, and on a failure the scan runs again over
        everything in order, so the detail names the same first failure as
        without the group.
        """
        rep = ValidationReport()
        d = self.socle_degree
        for subject, detail in self.symmetry().problems:
            rep.add("symmetry", subject, False, detail)

        socle, associative = {}, {}
        for b in self.burrows.values():
            structure = b.algebra.structure
            key = (structure, d - b.codim)
            if key not in socle:
                sr = socle_check(b.algebra, d - b.codim)
                socle[key] = sr.ok, "" if sr.ok else "; ".join(sr.problems)
            rep.add("socle", b.id, *socle[key])
            # the generator checks below are exact on associative algebras
            if structure not in associative:
                associative[structure] = b.algebra.check_associativity()
            bad = associative[structure]
            if bad:
                g, x, y = (b.algebra.label_of(i) for i in bad[0])
                rep.add(
                    "associativity", b.id, False, f"({g}*{x})*{y} != {g}*({x}*{y})"
                )
        burrows_ok = not any(associative.values()) and all(ok for ok, _ in socle.values())

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
        firsts = self._representatives()
        detail = _first_failure(self._order_failure, firsts)
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

        # the laws of the edges of one (datum, codim difference) give the
        # same rows; they are made when read
        data = self.edge_data()
        codim = {b.id: b.codim for b in self.burrows.values()}
        groups = {
            (datum, codim[small] - codim[big]): (small, big) for (small, big), datum in data.items()
        }
        rows_of = {(datum, c): _edge_rows(self.edges[key], c) for (datum, c), key in groups.items()}

        def edge_rows():
            for small, big in sorted(self.edges):
                subject = f"{small}<{big}"
                for check, ok, detail in rows_of[data[small, big], codim[small] - codim[big]]:
                    yield CheckResult(check, subject, ok, detail)

        edges_ok = all(ok for rows in rows_of.values() for _, ok, _ in rows)
        rep.add_rows(edges_ok, edge_rows)

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

        detail = _first_failure(self._chain_failure, firsts if burrows_ok and edges_ok else None)
        rep.add("pullback-functorial", "chains", not detail, detail)

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

    def _representatives(self) -> set | None:
        """The first burrow in ``_order`` of each orbit of the checked
        group, or None when the group is trivial."""
        generators = self.symmetry().generators
        if not generators:
            return None
        firsts, seen = set(), set()
        for b in self._order:
            if b in seen:
                continue
            firsts.add(b)
            seen.add(b)
            stack = [b]
            while stack:
                x = stack.pop()
                for gen in generators:
                    y = gen.burrow(x)
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
        return firsts

    def _order_failure(self, firsts=None) -> str:
        """The first failure of the laws that make the edge set a
        containment order with meets, or '': every chain a < b < c has its
        edge a < c, and any two burrows with a common lower burrow have a
        greatest one.  On transitive edges the lowest bit of a common lower
        set is a maximal burrow of it (see ``_order``), so the set has a
        greatest burrow exactly when it is that burrow's lower set.

        With ``firsts`` (see ``validate``), only the edges out of its
        burrows are tried, and the pairs (a, b) with a in it and b after a
        in ``_order``.  That covers every orbit of pairs: of all the
        burrows in the pairs of one orbit, the first in ``_order`` is the
        first of its own orbit, so in ``firsts``, and the pair holding it
        has the other burrow after it.  The meet test reads ``_order``,
        which breaks ties by name, so it is the same on a pair and its
        image only when no edge is a loop b < b; a loop at a burrow is one
        at its representative too, and then every pair is tried."""
        order, lower = self._order, self._lower
        if firsts is not None and any(b in self._below[b] for b in firsts):
            firsts = None
        for mid, big in self.edges:
            if firsts is not None and mid not in firsts:
                continue
            missing = lower[mid] & ~lower[big]
            if missing:
                small = order[(missing & -missing).bit_length() - 1]
                return f"{small}<{mid}<{big} has no edge {small}<{big}"
        masks = [lower[b] for b in order]
        for i, mask in enumerate(masks):
            if firsts is not None and order[i] not in firsts:
                continue
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

    def _chain_failure(self, firsts=None) -> str:
        """The first chain small < mid < big, in edge order and then burrow
        order of mid, whose composite pullback differs from the edge's, as
        'big -> mid -> small', or ''.  Both sides are ring maps once the
        associativity and ring-hom checks pass, so they agree everywhere
        when they agree on the unit and the generators.  The verdict of a
        chain reads the structure of the big algebra and the columns of the
        three maps, so it is decided once per distinct triple of data.
        With ``firsts``, only the chains whose small burrow is in it are
        tried (see ``validate``)."""
        data = self.edge_data()
        order = {b: i for i, b in enumerate(self.burrows)}
        above = {}  # the burrows with an edge out of each small burrow tried
        for small, big in self.edges:
            if firsts is None or small in firsts:
                above.setdefault(small, set()).add(big)
        chains = {}
        for (small, big), datum in data.items():
            if firsts is not None and small not in firsts:
                continue
            direct = self.edges[small, big].pullback
            for mid in sorted(self._below[big] & above[small], key=order.__getitem__):
                key = (datum, data[small, mid], data[mid, big])
                if key not in chains:
                    link = self.edges[small, mid].pullback.columns
                    upper = self.edges[mid, big].pullback.columns
                    chains[key] = all(
                        direct.columns[g] == _image(link, upper[g])
                        for g in (0, *direct.source.generators())
                    )
                if not chains[key]:
                    return f"{big} -> {mid} -> {small}"
        return ""


def _first_failure(scan, firsts) -> str:
    """``scan(firsts)`` when it passes; else, or without representatives,
    the ordered ``scan()`` of everything, which names the first failure."""
    return "" if firsts is not None and not scan(firsts) else scan()


def _edge_rows(edge: BurrowEdge, c: int) -> tuple:
    """The (check, ok, detail) rows of the laws that read one edge's data
    alone, for an edge with this edge's datum and codim difference c: the
    pullback is surjective in every degree and a ring map; the pushforward
    is shifted by c and, if so, the projection formula holds; the Chern
    polynomial has degree c and, if so, each coefficient c_i lies in degree
    i and the top one is the class of the small burrow."""
    pull, push, chern = edge.pullback, edge.pushforward, edge.chern
    surj_bad = [k for k, ok in enumerate(pull.surjective_degrees()) if not ok]
    hom, formula = pull.is_ring_hom(), projection_formula_holds(pull, push)
    shape = ""
    for i, ci in enumerate(chern.coeffs, start=1):
        degrees = {ci.alg.degree_of(g) for g in ci.coeffs}
        if degrees - {i}:
            shape = (
                f"coefficient {i} has degree {degrees.pop()}"
                if len(degrees) == 1
                else f"coefficient {i} is not homogeneous"
            )
            break
    fundamental = chern.coefficient(chern.deg).coeffs == push.columns[0]  # the image of 1
    rows = [
        (
            "pullback-surjective",
            not surj_bad,
            "" if not surj_bad else f"surjectivity failed at degree {surj_bad[0]}",
        ),
        ("pullback-ring-hom", hom, ""),
        (
            "pushforward-shift",
            push.shift == c,
            "" if push.shift == c else f"shift {push.shift} != codim diff {c}",
        ),
    ]
    if push.shift == c:
        rows.append(("projection-formula", formula, ""))
    rows.append(
        (
            "chern-degree",
            chern.deg == c,
            "" if chern.deg == c else f"chern degree {chern.deg} != codim diff {c}",
        )
    )
    if chern.deg == c:
        rows.append(("chern-shape", not shape, shape))
        rows.append(
            (
                "chern-fundamental-class",
                fundamental,
                "" if fundamental else "top coefficient differs from the class of the small burrow",
            )
        )
    return tuple(rows)
