"""Nest enumeration, standard exponent functions, and the additive
decomposition of the output ring with its Poincare polynomial."""

from __future__ import annotations

from dataclasses import dataclass

from wonder.diagram import BurrowDiagram
from wonder.errors import InputError


@dataclass(frozen=True)
class Nest:
    elements: frozenset

    def sorted_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.elements))


@dataclass(frozen=True)
class StandardFunction:
    """Assignment of positive exponents to the members of a nest, strictly
    below the codimension bound of each member."""

    assignment: tuple  # sorted tuple of (element id, exponent >= 1)

    @property
    def norm(self) -> int:
        return sum(k for _, k in self.assignment)

    def value(self, x: str) -> int:
        for eid, k in self.assignment:
            if eid == x:
                return k
        return 0


@dataclass(frozen=True)
class Summand:
    nest: Nest
    mu: StandardFunction
    burrow: str
    shift: int

    def __post_init__(self):
        if self.shift < len(self.nest.elements):
            raise InputError("summand shift below nest size")


def enclosing_burrow(diagram: BurrowDiagram, x: str, support) -> str:
    """The burrow cut out by the members of the support strictly containing
    x; the ambient burrow when there are none."""
    bigger = [z for z in support if z != x and diagram.element_contains(z, x)]
    if not bigger:
        return diagram.ambient_id
    w = diagram.burrow_of(bigger)
    if w is None:
        raise InputError(f"support {sorted(support)} has empty sub-intersection")
    return w


def standard_bound(diagram: BurrowDiagram, x: str, support) -> int:
    """Exclusive upper bound for the exponent of x inside the given support:
    codim(x) minus the codim of its enclosing burrow."""
    w = enclosing_burrow(diagram, x, support)
    return diagram.elements[x].codim - diagram.burrows[w].codim


def enumerate_nests(diagram: BurrowDiagram) -> list[Nest]:
    """All nests with nonempty intersection, the empty nest included,
    sorted by size then lexicographically."""
    found = [s for s in diagram.iter_nests() if diagram.burrow_of(s) is not None]
    found.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return [Nest(s) for s in found]


def enumerate_standard(diagram: BurrowDiagram, nest: Nest) -> list[StandardFunction]:
    """All standard functions on a nest; the empty nest carries exactly the
    empty assignment."""
    ids = sorted(nest.elements)
    if not ids:
        return [StandardFunction(tuple())]
    bounds = [standard_bound(diagram, x, nest.elements) for x in ids]
    if any(b <= 1 for b in bounds):
        return []
    out = []
    exps = [1] * len(ids)

    def rec(i):
        if i == len(ids):
            out.append(StandardFunction(tuple(zip(ids, exps))))
            return
        for k in range(1, bounds[i]):
            exps[i] = k
            rec(i + 1)

    rec(0)
    return out


def li_decomposition(diagram: BurrowDiagram):
    """The full additive decomposition and its Poincare polynomial
    (dimension vector of the output ring, degree by degree)."""
    summands = []
    for nest in enumerate_nests(diagram):
        burrow = diagram.burrow_of(nest.elements)
        for mu in enumerate_standard(diagram, nest):
            summands.append(Summand(nest, mu, burrow, mu.norm))
    top = diagram.socle_degree
    poincare = [0] * (top + 1)
    truncated = False
    for s in summands:
        alg = diagram.burrows[s.burrow].algebra
        for k, dim in enumerate(alg.dims):
            deg = k + s.shift
            if deg <= top:
                poincare[deg] += dim
            elif dim:
                truncated = True
    if truncated:
        raise InputError(
            "decomposition exceeds the socle degree; diagram data inconsistent"
        )
    return summands, poincare


def summand_dims(diagram: BurrowDiagram, s: Summand) -> list[int]:
    """Dimension vector contributed by one summand, padded to the ring top."""
    top = diagram.socle_degree
    alg = diagram.burrows[s.burrow].algebra
    out = [0] * (top + 1)
    for k, dim in enumerate(alg.dims):
        if k + s.shift <= top:
            out[k + s.shift] = dim
    return out
