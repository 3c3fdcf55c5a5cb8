"""The input data model: building elements, the burrow lattice with its
algebras and maps, Chern data, the intersection table and the nest rule,
plus validation of every hypothesis the engine relies on.

The intersection table is held as the singleton map plus the binary meet
closure on burrows; arbitrary subsets fold through meets, which the table
consistency law makes lossless.  Burrow containment is read off the meets:
the inner burrow is the meet of the pair.
"""

from __future__ import annotations

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
        meets: dict,  # unordered burrow pair (any 2-item iterable) -> meet or None
        nests,  # NESTED_OR_DISJOINT or an explicit collection of id-sets
        relations: list[tuple[str, str, Element]] = (),
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
        for e in edges:
            key = (e.small, e.big)
            if key in self.edges:
                raise InputError(f"duplicate edge {key}")
            self.edges[key] = e
        self.singles = dict(singles)
        # _meet[a][b] for each stored pair, both ways round; a later entry
        # for the same pair replaces an earlier one
        self._meet: dict[str, dict[str, str | None]] = {}
        for key, val in meets.items():
            key = frozenset(key)
            if len(key) != 2:
                raise InputError("meet keys must be unordered burrow pairs")
            a, b = key
            self._meet.setdefault(a, {})[b] = val
            self._meet.setdefault(b, {})[a] = val
        # _below[a]: the burrows b != a of the diagram with meet(a, b) == b
        self._below = {
            a: {
                b
                for b, val in self._meet.get(a, {}).items()
                if val == b and b in self.burrows
            }
            for a in self.burrows
        }
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
        self._nest_cache: dict[frozenset, bool] = {}

    # -- intersection table --------------------------------------------------

    @property
    def meets(self) -> dict[frozenset, str | None]:
        """The stored meets keyed by unordered pair, e.g. to rebuild a diagram."""
        return {
            frozenset((a, b)): val
            for a, row in self._meet.items()
            for b, val in row.items()
            if a < b
        }

    def meet(self, b1: str, b2: str) -> str | None:
        if b1 is None or b2 is None:
            return None
        if b1 == b2:
            return b1
        try:
            return self._meet[b1][b2]
        except KeyError:
            raise InputError(f"meet of burrows {b1!r}, {b2!r} not in the table")

    def burrow_of(self, element_ids) -> str | None:
        """Burrow of the intersection of a set of elements; None if empty."""
        acc = self.ambient_id
        for x in sorted(element_ids):
            if x not in self.elements:
                raise InputError(f"unknown element id {x!r}")
            if x not in self.singles:
                raise InputError(f"element {x!r} has no burrow in the singles table")
            acc = self.meet(acc, self.singles[x])
            if acc is None:
                return None
        return acc

    def burrow_contains(self, outer: str, inner: str) -> bool:
        """True when the inner burrow sits inside the outer one."""
        return self.meet(outer, inner) == inner

    def element_contains(self, outer: str, inner: str) -> bool:
        """Subvariety containment between building elements."""
        return self.meet(self.singles[outer], self.singles[inner]) == self.singles[inner]

    def elements_below(self, x: str) -> list[str]:
        """All building elements contained in x as subvarieties (x included)."""
        return sorted(s for s in self.elements if self.element_contains(x, s))

    # -- nests -----------------------------------------------------------------

    def is_nest(self, element_ids) -> bool:
        key = frozenset(element_ids)
        cached = self._nest_cache.get(key)
        if cached is not None:
            return cached
        if not key:
            ok = True
        elif self.nest_rule == "explicit":
            ok = key in self.explicit_nests
        else:
            ok = self._nested_or_disjoint(key)
        self._nest_cache[key] = ok
        return ok

    def _nested_or_disjoint(self, key) -> bool:
        sets = []
        for x in key:
            e = self.elements[x]
            if e.index_set is None:
                raise InputError(
                    f"element {x!r} has no index set; the nested-or-disjoint "
                    "rule needs one"
                )
            sets.append(e.index_set)
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                a, b = sets[i], sets[j]
                inter = a & b
                if inter and not (a <= b or b <= a):
                    return False
        return True

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

    # -- validation ----------------------------------------------------------------

    def validate(self) -> ValidationReport:
        rep = ValidationReport()
        d = self.socle_degree

        for b in self.burrows.values():
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
                g, x, y = (b.algebra.label_of(i) for i in bad[0])
                rep.add(
                    "associativity", b.id, False, f"({g}*{x})*{y} != {g}*({x}*{y})"
                )

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

        unknown = [
            (a, b)
            for a, row in self._meet.items()
            for b, val in row.items()
            if a < b
            and not (
                a in self.burrows
                and b in self.burrows
                and (val is None or val in self.burrows)
            )
        ]
        for a, b in sorted(unknown):
            rep.add("table-meets", f"{a}&{b}", False, "unknown burrow id")
        names = sorted(self.burrows)
        for i, a in enumerate(names):
            row = self._meet.get(a, {})
            for b in names[i + 1 :]:
                if b not in row:
                    rep.add("table-meets", f"{a}&{b}", False, "pair missing from the table")

        # meets must be associative on element triples (closure consistency)
        ids = sorted(set(self.elements) - unplaced)
        ok = True
        detail = ""
        for i, x in enumerate(ids):
            for y in ids[i:]:
                bxy = self.meet(self.singles[x], self.singles[y])
                for z in ids:
                    left = self.meet(bxy, self.singles[z]) if bxy else None
                    byz = self.meet(self.singles[y], self.singles[z])
                    right = self.meet(self.singles[x], byz) if byz else None
                    if left != right:
                        ok = False
                        detail = f"({x},{y},{z}): {left!r} != {right!r}"
                        break
                if not ok:
                    break
            if not ok:
                break
        rep.add("table-consistency", "elements", ok, detail)

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

        for (small, big), edge in sorted(self.edges.items()):
            nb, ns = self.burrows[big], self.burrows[small]
            c = ns.codim - nb.codim
            subject = f"{small}<{big}"
            if edge.pullback.source is not nb.algebra or edge.pullback.target is not ns.algebra:
                rep.add("edge-shape", subject, False, "pullback endpoints wrong")
                continue
            surj = edge.pullback.surjective_degrees()
            bad = [k for k, ok in enumerate(surj) if not ok]
            rep.add(
                "pullback-surjective",
                subject,
                not bad,
                "" if not bad else f"surjectivity failed at degree {bad[0]}",
            )
            rep.add(
                "pullback-ring-hom",
                subject,
                edge.pullback.is_ring_hom(),
            )
            ok = edge.pushforward.shift == c
            rep.add(
                "pushforward-shift",
                subject,
                ok,
                "" if ok else f"shift {edge.pushforward.shift} != codim diff {c}",
            )
            if ok:
                rep.add(
                    "projection-formula",
                    subject,
                    projection_formula_holds(edge.pullback, edge.pushforward),
                )
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

        # nonvanishing of burrow classes in the ambient ring
        for b in self.burrows.values():
            if b.id == self.ambient_id:
                continue
            if (b.id, self.ambient_id) not in self.edges:
                rep.add("edge-to-ambient", b.id, False, "missing edge to the ambient")
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
        # and the generators.
        ok = True
        detail = ""
        order = {b: i for i, b in enumerate(self.burrows)}
        for (small, big), edge in self.edges.items():
            direct = edge.pullback
            for mid in sorted(self._below[big], key=order.__getitem__):
                if small not in self._below[mid]:
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
        bad = None
        for s in self.iter_nests():
            if s and not s & unplaced and self.burrow_of(s) is None:
                bad = s
                break
        rep.add(
            "nest-nonempty-burrow",
            "nests",
            bad is None,
            "" if bad is None else f"nest {sorted(bad)} has empty intersection",
        )
        return rep

    def iter_nests(self):
        """All nests, the empty nest first, by depth-first extension
        (downward closure makes the sorted-prefix traversal exhaustive)."""
        ids = sorted(self.elements)
        yield frozenset()
        stack = [(frozenset(), 0)]
        while stack:
            base, start = stack.pop()
            for i in range(start, len(ids)):
                cand = base | {ids[i]}
                if self.is_nest(cand):
                    yield cand
                    stack.append((cand, i + 1))
