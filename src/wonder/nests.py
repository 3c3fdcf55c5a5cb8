"""Nests, standard exponent functions, and the additive
decomposition of the output ring with its Poincare polynomial."""

from __future__ import annotations

import itertools
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
    x; the ambient burrow when there are none.  In a nest they are a nest
    themselves, so this is one lookup in the nest table."""
    w = diagram.nests().get(diagram.nest_mask(support) & diagram.above_mask(x))
    if w is None:
        raise InputError(f"support {sorted(support)} has empty sub-intersection")
    return w


def standard_bound(diagram: BurrowDiagram, x: str, support) -> int:
    """Exclusive upper bound for the exponent of x inside the given support:
    codim(x) minus the codim of its enclosing burrow."""
    w = enclosing_burrow(diagram, x, support)
    return diagram.elements[x].codim - diagram.burrows[w].codim


def enumerate_standard(diagram: BurrowDiagram, ids: tuple) -> list[StandardFunction]:
    """All standard functions on the nest with these sorted ids; the empty
    nest carries exactly the empty assignment.  The bounds stop at the first
    one that leaves no exponent."""
    bounds = []
    for x in ids:
        bounds.append(standard_bound(diagram, x, ids))
        if bounds[-1] <= 1:
            return []
    return [
        StandardFunction(tuple(zip(ids, exps)))
        for exps in itertools.product(*(range(1, b) for b in bounds))
    ]


def li_decomposition(diagram: BurrowDiagram):
    """The full additive decomposition and its Poincare polynomial
    (dimension vector of the output ring, degree by degree): one summand per
    nest with nonempty intersection and standard function on it, nests by
    size and then sorted ids."""
    found = []
    for mask, burrow in diagram.nests().items():
        if burrow is None:
            continue
        ids = diagram.nest_members(mask)
        mus = enumerate_standard(diagram, ids)
        if mus:
            found.append((len(ids), ids, burrow, mus))
    found.sort(key=lambda t: t[:2])
    summands = []
    for _, ids, burrow, mus in found:
        nest = Nest(frozenset(ids))
        summands.extend(Summand(nest, mu, burrow, mu.norm) for mu in mus)
    top = diagram.socle_degree
    if any(
        dim and k + s.shift > top
        for s in summands
        for k, dim in enumerate(diagram.burrows[s.burrow].algebra.dims)
    ):
        raise InputError(
            "decomposition exceeds the socle degree; diagram data inconsistent"
        )
    dims = [summand_dims(diagram, s) for s in summands]
    return summands, [sum(column) for column in zip([0] * (top + 1), *dims)]


def summand_dims(diagram: BurrowDiagram, s: Summand) -> list[int]:
    """Dimension vector contributed by one summand, padded to the ring top."""
    top = diagram.socle_degree
    alg = diagram.burrows[s.burrow].algebra
    out = [0] * (top + 1)
    for k, dim in enumerate(alg.dims):
        if k + s.shift <= top:
            out[k + s.shift] = dim
    return out
