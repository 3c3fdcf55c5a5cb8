"""Finite-dimensional graded commutative rational algebras.

An algebra is given by per-degree ordered bases (degree 0 is spanned by the
unit) and a sparse table of structure constants; everything above the top
degree is zero.  Graded maps, socle pairings, Poincare-duality verdicts and
kernel extraction live here as well.

Structure constants, map entries and the scalars given to ``from_labels``
and ``scale`` are stored as ``exact_linalg.rat`` gives them: an ``int`` when
integral, otherwise a ``Fraction``, never a float.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from wonder.errors import InputError
from wonder.exact_linalg import (
    ONE,
    ZERO,
    format_rat,
    parse_rat,
    rat,
    sparse_kernel,
    sparse_pivots,
    sparse_rank,
    sparse_solve,
)

_NO_PRODUCT: Mapping = MappingProxyType({})  # the product of a pair with none stored


class Element:
    """Element of a GradedAlgebra, stored as a sparse coefficient vector
    over the global basis.  Treated as immutable."""

    __slots__ = ("alg", "coeffs")

    def __init__(self, alg: "GradedAlgebra", coeffs: dict[int, Fraction]):
        self.alg = alg
        self.coeffs = {g: q for g, q in coeffs.items() if q}

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int | None:
        """Degree of a homogeneous element; None for zero; raises on mixed."""
        degs = {self.alg.degree_of(g) for g in self.coeffs}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"element is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()

    def homogeneous_part(self, k: int) -> "Element":
        return Element(
            self.alg,
            {g: q for g, q in self.coeffs.items() if self.alg.degree_of(g) == k},
        )

    def coefficient(self, g: int) -> Fraction:
        return self.coeffs.get(g, ZERO)

    def __add__(self, other: "Element") -> "Element":
        self._same(other)
        out = dict(self.coeffs)
        for g, q in other.coeffs.items():
            out[g] = out.get(g, ZERO) + q
        return Element(self.alg, out)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element(self.alg, {g: -q for g, q in self.coeffs.items()})

    def scale(self, q) -> "Element":
        q = rat(q)
        return Element(self.alg, {g: v * q for g, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            self._same(other)
            return self.alg.multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and other.alg is self.alg
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((id(self.alg), tuple(sorted(self.coeffs.items()))))

    def _same(self, other: "Element"):
        if other.alg is not self.alg:
            raise InputError("elements belong to different algebras")

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for g in sorted(self.coeffs):
            q = self.coeffs[g]
            lbl = self.alg.label_of(g)
            parts.append(lbl if q == 1 else f"{format_rat(q)}*{lbl}")
        return " + ".join(parts)


class Structure:
    """The dimensions and structure constants of a graded commutative
    algebra with unit, without basis labels.  Checked once on
    construction; every ``GradedAlgebra`` built on it shares its rows and
    the verdicts that read the rows alone, such as its generators.
    ``rows[a][b]`` is the product of basis indices a and b (its nonzero
    coordinates; unit products included, zero products absent), one dict
    shared with ``rows[b][a]``.  Associativity is not enforced here;
    ``check_associativity`` tests it."""

    def __init__(self, dims, mult_entries):
        self.dims = tuple(int(d) for d in dims)
        if not self.dims or self.dims[0] != 1:
            raise InputError("degree 0 must be one-dimensional (the unit)")
        if any(d < 0 for d in self.dims):
            raise InputError("negative dimension")
        self.top_degree = len(self.dims) - 1
        self.offsets = []
        off = 0
        for d in self.dims:
            self.offsets.append(off)
            off += d
        self.total_dim = off
        self.degree_of = []
        for k, d in enumerate(self.dims):
            self.degree_of.extend([k] * d)

        n, deg = self.total_dim, self.degree_of
        # the unit products: rows[g][0] and rows[0][g] are {g: 1}
        rows = self.rows = [{0: {g: ONE}} for g in range(n)]
        rows[0] = {g: row[0] for g, row in enumerate(rows)}
        for gi, gj, gk, q in mult_entries:
            if not (
                type(gi) is type(gj) is type(gk) is int
                and 0 <= gi < n
                and 0 <= gj < n
                and 0 <= gk < n
            ):
                raise InputError(
                    f"structure constant index outside 0..{n - 1}: "
                    f"({gi!r},{gj!r},{gk!r})"
                )
            if type(q) is not int:
                q = rat(q)
            if not q:
                continue
            if gi == 0 or gj == 0:
                raise InputError("unit products are implicit; do not store them")
            if deg[gi] + deg[gj] != deg[gk]:
                raise InputError(
                    f"structure constant violates grading: deg {deg[gi]}+{deg[gj]} -> {deg[gk]}"
                )
            row = rows[gi].get(gj)
            if row is None:
                row = rows[gi][gj] = rows[gj][gi] = {}
            elif gk in row and row[gk] != q:
                raise InputError(f"conflicting structure constants at ({gi},{gj})")
            row[gk] = q
        self.generators = None  # filled by GradedAlgebra.generators

    @classmethod
    def from_products(cls, dims, products) -> "Structure":
        """A structure from ``((a, b), row)`` pairs with 0 < a <= b, each
        row the nonzero coordinates of the product of a and b, checked row
        by row; the rows are kept, not copied, when their values are ints."""
        out = cls(dims, ())
        n, deg, rows = out.total_dim, out.degree_of, out.rows
        # the index range of each degree; none above the top
        span = [(o, o + d) for o, d in zip(out.offsets, out.dims)] + [(n, 0)] * len(out.dims)
        for (a, b), row in products:
            if not row:
                continue
            if not (type(a) is type(b) is int and 0 < a <= b < n):
                if a == 0:
                    raise InputError("unit products are implicit; do not store them")
                raise InputError(f"structure constant index outside 0..{n - 1}: ({a!r},{b!r})")
            lo, hi = span[deg[a] + deg[b]]
            for h, q in row.items():
                if not (lo <= h < hi and q):
                    raise InputError(
                        f"structure constant ({a},{b}) -> {h!r} is 0 or violates grading"
                    )
                if type(q) is not int:  # kept as ``rat`` gives it
                    row = {h: rat(q) for h, q in row.items()}
            rows[a][b] = rows[b][a] = row
        return out

    def to_payload(self) -> dict:
        triples = []
        for a in range(1, self.total_dim):
            row = self.rows[a]
            for b in sorted(row):
                if b >= a:
                    prod = row[b]
                    for k in sorted(prod):
                        triples.append([a, b, k, str(prod[k])])  # str(q) is format_rat(q)
        return {"degrees": list(self.dims), "mult": triples}

    @classmethod
    def from_payload(cls, payload: dict) -> "Structure":
        try:
            dims = payload["degrees"]
            mult = payload["mult"]
        except KeyError as e:
            raise InputError(f"algebra payload missing section {e}") from None
        if not (isinstance(dims, list) and all(type(d) is int for d in dims)):
            raise InputError(f"degrees {dims!r} is not a list of integers")
        if not isinstance(mult, list):
            raise InputError(f"mult {mult!r} is not a list of structure constants")
        values: dict = {}  # each distinct value string, parsed once

        def entries():
            for entry in mult:
                if not (isinstance(entry, list) and len(entry) == 4):
                    raise InputError(f"malformed structure constant {entry!r}")
                a, b, k, q = entry
                v = values.get(q) if type(q) is str else None
                if v is None:
                    v = parse_rat(q, "structure constant")
                    if type(q) is str:
                        values[q] = v
                yield a, b, k, v

        return cls(dims, entries())


class GradedAlgebra:
    """Graded commutative rational algebra with unit: a ``Structure`` and
    per-degree ordered basis labels.  Immutable after construction.
    Algebras on one structure object differ only in their labels, so every
    verdict that reads indices alone holds for all of them."""

    def __init__(self, dims, labels, mult_entries):
        self._bind(Structure(dims, mult_entries), labels)

    @classmethod
    def on(cls, structure: Structure, labels) -> "GradedAlgebra":
        """An algebra on an already checked structure; only the labels are
        checked."""
        alg = cls.__new__(cls)
        alg._bind(structure, labels)
        return alg

    def _bind(self, structure: Structure, labels):
        self.structure = structure
        self.dims = structure.dims
        self.top_degree = structure.top_degree
        self.total_dim = structure.total_dim
        self._offsets = structure.offsets
        self._degree_of = structure.degree_of
        self._rows = structure.rows
        if not (
            isinstance(labels, (list, tuple))
            and all(isinstance(ls, (list, tuple)) for ls in labels)
        ):
            raise InputError(f"basis labels {labels!r} are not one list per degree")
        self.labels = tuple(tuple(ls) for ls in labels)
        if len(self.labels) != len(self.dims) or any(
            len(ls) != d for ls, d in zip(self.labels, self.dims)
        ):
            raise InputError("labels do not match dimensions")
        flat = [l for ls in self.labels for l in ls]
        for l in flat:
            if type(l) is not str:
                raise InputError(f"basis label {l!r} is not a string")
        if len(set(flat)) != len(flat):
            raise InputError("basis labels must be globally unique")
        self._label_to_g = {l: g for g, l in enumerate(flat)}
        self._flat_labels = flat

    # -- basic lookups ----------------------------------------------------

    def dim(self, k: int) -> int:
        return self.dims[k] if 0 <= k <= self.top_degree else 0

    def offset(self, k: int) -> int:
        return self._offsets[k]

    def degree_of(self, g: int) -> int:
        return self._degree_of[g]

    def label_of(self, g: int) -> str:
        return self._flat_labels[g]

    def global_index(self, label: str) -> int:
        try:
            return self._label_to_g[label]
        except KeyError:
            raise InputError(f"unknown basis label {label!r}") from None

    def global_indices(self, k: int):
        if not 0 <= k <= self.top_degree:
            return range(0)
        lo = self._offsets[k]
        return range(lo, lo + self.dims[k])

    # -- element constructors ---------------------------------------------

    def zero(self) -> Element:
        return Element(self, {})

    def unit(self) -> Element:
        return Element(self, {0: ONE})

    def basis_element(self, g: int) -> Element:
        return Element(self, {g: ONE})

    def element(self, coeffs: dict[int, Fraction]) -> Element:
        return Element(self, coeffs)

    def from_labels(self, data: dict[str, object]) -> Element:
        return Element(
            self, {self.global_index(l): rat(q) for l, q in data.items()}
        )

    # -- multiplication ----------------------------------------------------

    def product_basis(self, gi: int, gj: int) -> Mapping[int, Fraction]:
        """The nonzero coordinates of the product of two basis indices;
        read-only."""
        return self._rows[gi].get(gj, _NO_PRODUCT)

    def multiply(self, x: Element, y: Element) -> Element:
        if x.alg is not self or y.alg is not self:
            raise InputError("element not in this algebra")
        return Element(self, _product(self, x.coeffs, y.coeffs))

    def generators(self) -> tuple[int, ...]:
        """A minimal set of basis indices that generates the algebra.

        Chosen degree by degree: in degree k, a basis element becomes a
        generator when it is not in the span of the products g*b of the
        generators g found so far with the basis b of degree k - deg g, nor
        of the basis elements before it in degree k (the same span as of
        the generators already taken there); one elimination per degree
        finds them, as the pivots among the unit columns.  So every class x
        of positive degree is a sum of products g*m of a generator g and a
        class m with deg m < deg x (m = 1 allowed), whatever the structure
        constants.  When the algebra is associative, that span is every
        product of two positive-degree classes of total degree k, since
        those lower classes are polynomials in the lower generators; so
        monomials in the generators span each degree, and leaving out any
        one generator of degree k loses it from the span.  Computed once
        per structure; it reads the structure constants only.
        """
        if self.structure.generators is None:
            gens = []
            for k in range(1, self.top_degree + 1):
                # one column per product g*b, then the unit column of each
                # basis element of degree k; a generator is a unit column
                # that is a pivot, not in the span of the columns before it
                off = self.offset(k)
                rows = [{} for _ in range(self.dims[k])]
                j = 0
                for g in gens:
                    for b in self.global_indices(k - self._degree_of[g]):
                        for h, v in self.product_basis(g, b).items():
                            rows[h - off][j] = v
                        j += 1
                for i, row in enumerate(rows):
                    row[j + i] = ONE
                gens.extend(off + p - j for p in sparse_pivots(rows) if p >= j)
            self.structure.generators = tuple(gens)
        return self.structure.generators

    # -- invariant checks ---------------------------------------------------

    def check_associativity(self) -> list[tuple[int, int, int]]:
        """Exact associativity check; returns the failing (g, b, c).

        It compares (g*b)*c with g*(b*c) for each generator g and basis
        elements b, c of positive degree with deg g + deg b + deg c at
        most the top degree (above it both sides are zero).  The result is
        empty exactly when the algebra is associative.  The product is
        commutative and the unit exact by construction, and every class x
        of positive degree is a sum of products g*m of a generator g and a
        class m with deg m < deg x (see ``generators``).  Induct on deg x
        to show (x*y)*z = x*(y*z); by linearity take x = g*m.  The checked
        law, extended bilinearly, gives ((g*m)*y)*z = (g*(m*y))*z
        = g*((m*y)*z), which the induction hypothesis for m turns into
        g*(m*(y*z)); and the checked law gives (g*m)*(y*z) = g*(m*(y*z)).
        Both sides are read off ``Structure.rows`` for all c at once; a c
        is compared only where one side has a nonzero product to sum.
        """
        rows, deg, bad = self._rows, self._degree_of, []
        for g in self.generators():
            row_g, room = rows[g], self.top_degree - deg[g]
            for b in range(1, self.total_dim):
                if deg[b] >= room:
                    break
                end = self._offsets[room - deg[b]] + self.dims[room - deg[b]]
                # (g*b)*c - g*(b*c) by c; a c in neither sum has both sides zero
                diff: dict[int, dict] = {}
                for k, q in row_g.get(b, _NO_PRODUCT).items():
                    for c, kc in rows[k].items():
                        out = diff.setdefault(c, {})
                        for h, v in kc.items():
                            out[h] = out.get(h, ZERO) + q * v
                for c, bc in rows[b].items():
                    if 0 < c < end:
                        out = diff.setdefault(c, {})
                        for k, q in bc.items():
                            for h, v in rows[k].get(g, _NO_PRODUCT).items():
                                out[h] = out.get(h, ZERO) - q * v
                bad.extend((g, b, c) for c in sorted(diff) if c and any(diff[c].values()))
        return bad

    def relabels_onto(self, other: "GradedAlgebra", perm) -> bool:
        """Whether the basis permutation ``perm`` (global index g to
        ``perm[g]`` in ``other``) keeps degrees and carries every structure
        constant of this algebra to one of ``other``, and ``other`` has no
        others: an isomorphism of graded algebras."""
        if other.dims != self.dims or sum(map(len, other._rows)) != sum(map(len, self._rows)):
            return False
        if any(other._degree_of[perm[g]] != k for g, k in enumerate(self._degree_of)):
            return False
        return all(
            other.product_basis(perm[a], perm[b]) == {perm[k]: q for k, q in prod.items()}
            for a, row in enumerate(self._rows)
            for b, prod in row.items()
            if a <= b
        )

    # -- serialization -------------------------------------------------------

    def to_payload(self) -> dict:
        payload = self.structure.to_payload()
        payload["basis_labels"] = [list(ls) for ls in self.labels]
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "GradedAlgebra":
        if "basis_labels" not in payload:
            raise InputError("algebra payload missing section 'basis_labels'")
        return cls.on(Structure.from_payload(payload), payload["basis_labels"])

    def __repr__(self):
        return f"GradedAlgebra(dims={list(self.dims)})"


def _product(alg: GradedAlgebra, x: dict, y: dict) -> dict:
    """The product of two coefficient dicts of ``alg``, zeros left out:
    ``GradedAlgebra.multiply`` without the ``Element``s, which the law
    checks run on every generator and basis pair."""
    out: dict[int, Fraction] = {}
    for gi, qi in x.items():
        for gj, qj in y.items():
            q = qi * qj
            for gk, c in alg.product_basis(gi, gj).items():
                out[gk] = out.get(gk, ZERO) + q * c
    return {gk: q for gk, q in out.items() if q}


def _image(columns: list, x: dict) -> dict:
    """The image of a coefficient dict under a map with these columns,
    zeros left out: ``GradedMap.apply`` without the ``Element``s."""
    out: dict[int, Fraction] = {}
    for g, q in x.items():
        for h, v in columns[g].items():
            out[h] = out.get(h, ZERO) + q * v
    return {h: v for h, v in out.items() if v}


def algebra_from_products(dims, labels, products) -> GradedAlgebra:
    """Build an algebra from a callable ``products(gi, gj) -> dict`` defined
    on non-unit basis pairs gi <= gj up to the top degree; zero
    coefficients are left out."""
    deg = [k for k, d in enumerate(dims) for _ in range(d)]
    n, top = len(deg), len(dims) - 1
    rows = (
        ((gi, gj), {gk: q for gk, q in products(gi, gj).items() if q})
        for gi in range(1, n)
        for gj in range(gi, n)
        if deg[gi] + deg[gj] <= top
    )
    return GradedAlgebra.on(Structure.from_products(dims, rows), labels)


class GradedMap:
    """Degree-shifting linear map between graded algebras, stored as the
    images of the source basis: ``columns[g]`` maps target global indices
    to the nonzero scalars of the image of source basis index g.

    Shift 0 for pullbacks (ring maps), positive codimension shift for
    pushforwards, negative for integration along fibers.
    """

    def __init__(self, source: GradedAlgebra, target: GradedAlgebra, shift: int, columns):
        self.source = source
        self.target = target
        self.shift = int(shift)
        if len(columns) != source.total_dim:
            raise InputError(
                f"map has {len(columns)} columns, want {source.total_dim}"
            )
        self.columns = []
        for g, col in enumerate(columns):
            tk = source.degree_of(g) + self.shift
            rows = target.global_indices(tk)
            out = {}
            for h, v in col.items():
                if not (type(h) is int and h in rows):
                    raise InputError(
                        f"image of basis index {g} has wrong degree: "
                        f"target index {h!r} is not in degree {tk}"
                    )
                v = rat(v)
                if v:
                    out[h] = v
            self.columns.append(out)

    @classmethod
    def from_images(cls, source, target, shift, images) -> "GradedMap":
        """Build from a list of target Elements, one per global source index."""
        return cls(source, target, shift, [img.coeffs for img in images])

    def rebased(self, source: GradedAlgebra, target: GradedAlgebra) -> "GradedMap":
        """This map between two other algebras on the structures of its
        own; the two share the columns, which were checked once
        (``BurrowDiagram.pullback`` views a shared datum so)."""
        if source.structure is not self.source.structure or (
            target.structure is not self.target.structure
        ):
            raise InputError("a map moves only between algebras on its own structures")
        out = GradedMap.__new__(GradedMap)
        out.source, out.target, out.shift, out.columns = source, target, self.shift, self.columns
        return out

    @classmethod
    def identity(cls, alg: GradedAlgebra) -> "GradedMap":
        return cls(alg, alg, 0, [{g: ONE} for g in range(alg.total_dim)])

    def rows(self, k: int) -> list[dict]:
        """Degree-k block as sparse rows for the exact kernels: one dict per
        target basis index of degree k + shift, from the position of a
        source one of degree k to its nonzero entry."""
        tk = k + self.shift
        out = [{} for _ in range(self.target.dim(tk))]
        if out:
            lo = self.target.offset(tk)
            for j, g in enumerate(self.source.global_indices(k)):
                for h, v in self.columns[g].items():
                    out[h - lo][j] = v
        return out

    def apply_basis(self, g: int) -> Element:
        return Element(self.target, self.columns[g])

    def apply(self, x: Element) -> Element:
        if x.alg is not self.source:
            raise InputError("element not in the source algebra")
        return Element(self.target, _image(self.columns, x.coeffs))

    def surjective_degrees(self) -> list[bool]:
        out = []
        for k in range(self.source.top_degree + 1):
            tdim = self.target.dim(k + self.shift)
            out.append(tdim == 0 or sparse_rank(self.rows(k)) == tdim)
        return out

    def kernel_elements(self, k: int) -> list[Element]:
        """Exact basis of the degree-k kernel, as ``sparse_kernel`` gives it."""
        src = self.source
        lo = src.offset(k) if src.dim(k) else 0
        basis = sparse_kernel(self.rows(k), src.dim(k))
        return [Element(src, {lo + i: q for i, q in v.items()}) for v in basis]

    def is_ring_hom(self) -> bool:
        """True for a degree-0 map f with f(1) = 1 and f(a*b) = f(a)*f(b)
        for all basis a, b of total degree at most the source's top degree
        (above it the source product is zero).  It is checked only on the
        pairs of a generator of the source and a basis element, and only
        in the degrees where the target has classes, since both sides lie
        there.

        That suffices: induct on deg x to show f(x*y) = f(x)*f(y) for
        homogeneous x, y with deg x + deg y at most the top degree.  In
        degree 0, x is a multiple of 1.  Otherwise x is a sum of products
        g*m of a generator g and a class m of lower degree, and
        f(g*m*y) = f(g)*f(m*y) = f(g)*f(m)*f(y) = f(g*m)*f(y) by the checked
        law for g (extended linearly to m*y and to m), the induction
        hypothesis for m, and associativity in both algebras.  Without
        associativity the shortcut can pass a map that breaks the law, so
        ``BurrowDiagram.validate`` checks every burrow algebra with
        ``check_associativity``.
        """
        if self.shift != 0:
            return False
        if self.apply_basis(0) != self.target.unit():
            return False
        src, tgt, cols = self.source, self.target, self.columns
        for gi in src.generators():
            di = src.degree_of(gi)
            for k in range(1, src.top_degree - di + 1):
                if not tgt.dim(di + k):
                    continue
                for gj in src.global_indices(k):
                    left = _image(cols, src.product_basis(gi, gj))
                    if left != _product(tgt, cols[gi], cols[gj]):
                        return False
        return True


def projection_formula_holds(pullback: GradedMap, pushforward: GradedMap) -> bool:
    """Check ``push(pull(a) * b) == a * push(b)`` for every generator a of
    the pullback's source and every basis element b of its target, where
    the source has classes in the degree of both sides.

    When the pullback is a ring map (``is_ring_hom``) and both algebras
    are associative, this is the formula on all basis pairs.  The classes
    a for which it holds against every b form a linear space.  It holds 1,
    since pull(1) = 1.  It holds a*a' whenever it holds a and a': if
    a*a' = 0 both sides vanish, and otherwise push(pull(a*a') * b)
    = push(pull(a) * (pull(a') * b)) = a * push(pull(a') * b)
    = a * a' * push(b).  So it holds every monomial in the generators, and
    these span the source.  The two maps need only pair up to structure:
    the check reads indices, never labels.
    """
    big, small = pullback.source, pullback.target
    if pushforward.source.structure is not small.structure or (
        pushforward.target.structure is not big.structure
    ):
        raise InputError("pushforward does not pair with the pullback")
    pushed = pushforward.columns
    for ga in big.generators():
        a, pa = {ga: ONE}, pullback.columns[ga]
        shift = big.degree_of(ga) + pushforward.shift
        for gb in range(small.total_dim):
            if not big.dim(small.degree_of(gb) + shift):
                continue
            left = _image(pushed, _product(small, pa, {gb: ONE}))
            if left != _product(big, a, pushed[gb]):
                return False
    return True


# -- socle pairings and duality verdicts -------------------------------------


@dataclass
class SoclePairing:
    """Pairing data of an algebra whose top nonzero degree is 1-dimensional.

    gram(k) is the matrix of A^k x A^(d-k) -> A^d in the socle coordinate,
    stored sparse: row i, for the i-th basis class of degree k, is a dict
    from the position j of a class in degree d-k to their nonzero pairing,
    keys ascending.  gram(d-k) is its transpose by commutativity.
    """

    algebra: GradedAlgebra
    degree: int
    socle_index: int
    grams: tuple

    def gram(self, k: int) -> list[dict]:
        return self.grams[k]

    def pair(self, x: Element, y: Element) -> Fraction:
        return self.algebra.multiply(x, y).coefficient(self.socle_index)


@dataclass
class SocleReport:
    ok: bool
    pairing: SoclePairing | None
    problems: list[str]


def socle_check(alg: GradedAlgebra, expected_degree: int) -> SocleReport:
    """Verify a 1-dimensional socle at the expected degree and vanishing
    above it, then read the Gram matrices off the structure constants:
    gram(k) for k <= d-k, and gram(d-k) as its transpose."""
    problems = []
    if expected_degree < 0 or expected_degree > alg.top_degree:
        if expected_degree != 0 or alg.top_degree != 0:
            problems.append(
                f"expected socle degree {expected_degree} outside stored range"
            )
    d = expected_degree
    if alg.dim(d) != 1:
        problems.append(f"socle dimension {alg.dim(d)} at degree {d}")
    for k in range(d + 1, alg.top_degree + 1):
        if alg.dim(k):
            problems.append(f"nonzero classes above the socle at degree {k}")
    if problems:
        return SocleReport(False, None, problems)
    socle_index = alg.offset(d)
    rows = alg.structure.rows
    grams = [None] * (d + 1)
    for k in range(d // 2 + 1):
        # a product reaches the socle only from complementary degrees
        lo = alg.offset(d - k)
        gram = []
        for gi in alg.global_indices(k):
            row = {}
            for gj, prod in rows[gi].items():
                q = prod.get(socle_index)
                if q:
                    row[gj - lo] = q
            gram.append(dict(sorted(row.items())))
        grams[k] = gram
        if d - k != k:
            transpose = grams[d - k] = [{} for _ in range(alg.dim(d - k))]
            for i, row in enumerate(gram):
                for j, q in row.items():
                    transpose[j][i] = q
    return SocleReport(True, SoclePairing(alg, d, socle_index, tuple(grams)), [])


@dataclass
class PdVerdict:
    is_pd: bool
    kernels: tuple  # per degree k: (dim left kernel, dim right kernel)
    discrepancies: tuple  # per degree k: dim A^k - rank gram(k)


def pd_verdict(sp: SoclePairing) -> PdVerdict:
    """Perfect-pairing verdict and per-degree Gorenstein discrepancies."""
    alg, d = sp.algebra, sp.degree
    kernels = []
    discrepancies = []
    ranks = {}
    for k in range(d + 1):
        kc = min(k, d - k)
        if kc not in ranks:
            ranks[kc] = sparse_rank(sp.gram(kc))
        r = ranks[kc]
        kernels.append((alg.dim(k) - r, alg.dim(d - k) - r))
        discrepancies.append(alg.dim(k) - r)
    is_pd = all(l == 0 and r == 0 for l, r in kernels)
    return PdVerdict(is_pd, tuple(kernels), tuple(discrepancies))


def adjoint_pushforward(
    pullback: GradedMap, sp_small: SoclePairing, sp_big: SoclePairing
) -> GradedMap:
    """The pushforward determined against a pullback by the two perfect
    pairings; satisfies the projection formula by construction.

    The image of a small class z of degree k is the big class x of degree
    k + c, c the difference of the socle degrees, with <x, y> = <z, pull(y)>
    for every big class y of the complementary degree.  One elimination of
    that big Gram serves every z of degree k; the right-hand sides are read
    off the small Gram rows of the classes in each pull(y)."""
    big, small = pullback.source, pullback.target
    c = sp_big.degree - sp_small.degree
    columns = [{} for _ in range(small.total_dim)]
    for k in range(small.top_degree + 1):
        tk = k + c
        if not small.dim(k) or tk > sp_big.degree:
            continue  # a class pushed past the big socle has image 0
        comp = sp_big.degree - tk  # the small complementary degree as well
        gram, lo = sp_small.gram(comp), small.offset(comp)
        rhs = [{} for _ in range(small.dim(k))]  # rhs[i][j] = <z_i, pull(y_j)>
        for j, gy in enumerate(big.global_indices(comp)):
            for h, v in pullback.columns[gy].items():
                for i, w in gram[h - lo].items():
                    rhs[i][j] = rhs[i].get(j, ZERO) + v * w
        sols = sparse_solve(sp_big.gram(comp), rhs)
        if None in sols:
            raise InputError("pairing is not perfect; adjoint pushforward undefined")
        off = big.offset(tk)
        for g, sol in zip(small.global_indices(k), sols):
            columns[g] = {off + i: q for i, q in sol.items()}
    return GradedMap(small, big, c, columns)


def section_of(pullback: GradedMap) -> GradedMap:
    """A right inverse of a surjective degree-0 map (free choices set to 0),
    from one elimination per degree for all its unit right-hand sides."""
    big, small = pullback.source, pullback.target
    columns = []
    for k in range(small.top_degree + 1):
        units = [{i: ONE} for i in range(small.dim(k))]
        sols = sparse_solve(pullback.rows(k), units)
        if None in sols:
            raise InputError(f"map is not surjective at degree {k}; no section")
        off = big.offset(k) if sols else 0
        columns.extend({off + i: q for i, q in sol.items()} for sol in sols)
    return GradedMap(small, big, 0, columns)


def tensor_algebra(a: GradedAlgebra, b: GradedAlgebra):
    """Tensor product algebra; returns (algebra, pair_index) where
    pair_index maps (ga, gb) to the global index of the product basis
    element.  Labels multiply with '*' and the unit label elides."""

    def combine(la: str, lb: str) -> str:
        if la == "1":
            return lb
        if lb == "1":
            return la
        return f"{la}*{lb}"

    top = a.top_degree + b.top_degree
    dims = [0] * (top + 1)
    labels = [[] for _ in range(top + 1)]
    pair_index = {}
    g = 0
    for k in range(top + 1):
        for ka in range(min(k, a.top_degree) + 1):
            kb = k - ka
            if kb > b.top_degree:
                continue
            for ga in a.global_indices(ka):
                for gb in b.global_indices(kb):
                    pair_index[(ga, gb)] = g
                    labels[k].append(combine(a.label_of(ga), b.label_of(gb)))
                    dims[k] += 1
                    g += 1

    def products():
        # (ga1*gb1) * (ga2*gb2) = (ga1*ga2) * (gb1*gb2): a pair is nonzero
        # only when both factors' rows hold it; each pair once, gi <= gj
        for (ga1, gb1), gi in pair_index.items():
            if not gi:
                continue
            row = {}
            for ga2, prod_a in a._rows[ga1].items():
                for gb2, prod_b in b._rows[gb1].items():
                    gj = pair_index[(ga2, gb2)]
                    if gj >= gi:
                        row[gj] = {
                            pair_index[(gka, gkb)]: qa * qb
                            for gka, qa in prod_a.items()
                            for gkb, qb in prod_b.items()
                        }
            for gj in sorted(row):
                yield (gi, gj), row[gj]

    alg = GradedAlgebra.on(Structure.from_products(dims, products()), labels)
    return alg, pair_index
