"""The main construction: the graded ring of the compactified space on the
additive basis (nest, standard exponents, burrow class), with products
computed by nest merging, restriction to the common burrow, and exponent
reduction through the monic rewrite rules.

Coefficients are carried as ambient classes during rewriting (restriction
maps are ring maps, so restricting once at the end agrees with restricting
eagerly) and land in the burrow of the final support.

Every step of the reduction is linear in the ambient coefficient, and what
it does to coeff * E^e depends only on the exponent pattern e. So each ring
builds one checked plan per pattern (zero, standard, or one rewrite) and a
memo from (exponent pattern, ambient basis index) to sparse ring
coordinates, filled children first along the termination measure. The
product table is sparse and goes by summand pairs: their basis vectors
share one merged pattern, and a pair whose support is not a nest is zero
with no entry and no per-pair work. Within the other pairs, a sub-block of
burrow degrees (ka, kb) whose pattern the plans alone show to vanish on
ambient degree ka + kb (memoised per pattern and degree) is skipped the same
way. Any other basis product is one ambient product of two cached lifts
followed by memo lookups. Under a declared symmetry group the fill visits
one block per block orbit, reached from the blocks whose first summand is
the least of its orbit, and relabels each computed product along its orbit;
its table holds the nonzero products only. The fill is the only writer of
products: it hands its table to the ring's ``GradedAlgebra``
(``as_algebra``), and every product is read there, a pair with no row being
zero. The rewrite cap
(``max_rewrites``) counts the rewrite steps one normal-form call actually
performs, that is its memo misses."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from wonder.algebra import (
    Element,
    GradedAlgebra,
    GradedMap,
    SoclePairing,
    Structure,
    _image,
    section_of,
    socle_check,
)
from wonder.diagram import BurrowDiagram
from wonder.errors import ComputationError, InputError, InvariantViolation
from wonder.exact_linalg import ONE, ZERO
from wonder.nests import Summand, enclosing_burrow, li_decomposition, standard_bound

DEFAULT_MAX_REWRITES = 10_000
_EMPTY: Mapping = MappingProxyType({})
# per-pattern plan kinds (``WonderRing._make_plan``)
_ZERO_PLAN = ("zero",)
_STANDARD = "standard"
_REWRITE = "rewrite"


def _merged(sa: Summand, sb: Summand) -> tuple:
    """Exponent pattern of the product of two summands' basis vectors."""
    exps = dict(sa.mu.assignment)
    for x, k in sb.mu.assignment:
        exps[x] = exps.get(x, 0) + k
    return tuple(sorted(exps.items()))


class WonderRing:
    """Graded ring of the compactification, built on the additive basis.
    Its classes are ``algebra.Element`` instances of ``as_algebra()``."""

    def __init__(self, diagram: BurrowDiagram, *, max_rewrites: int | None = None):
        cap = DEFAULT_MAX_REWRITES if max_rewrites is None else max_rewrites
        if type(cap) is not int or cap < 0:
            raise InputError(f"rewrite cap {cap!r} is not a nonnegative integer")
        self.diagram = diagram
        self.max_rewrites = cap
        self.summands, self.poincare = li_decomposition(diagram)
        d = diagram.socle_degree
        amb = diagram.ambient.algebra

        # deterministic element order for the termination measure: shallow
        # (small codimension) elements first
        self._element_order = sorted(
            diagram.elements, key=lambda x: (diagram.elements[x].codim, x)
        )
        self._element_pos = {x: i for i, x in enumerate(self._element_order)}

        entries = []  # (degree, summand index, burrow global idx, key, label)
        for si, s in enumerate(self.summands):
            balg = diagram.burrows[s.burrow].algebra
            for g in range(balg.total_dim):
                deg = s.shift + balg.degree_of(g)
                if deg > d:
                    continue
                key = (s.nest.sorted_ids(), s.mu.assignment, g)
                entries.append((deg, si, g, key, self._label(s, balg, g)))
        entries.sort(key=lambda t: (t[0], t[1], t[2]))
        self.basis = entries
        self.index = {e[3]: i for i, e in enumerate(entries)}
        self.dims = [0] * (d + 1)
        for e in entries:
            self.dims[e[0]] += 1
        if self.dims != list(self.poincare):
            raise InvariantViolation("basis dimensions disagree with the decomposition")

        self._sections: dict[str, GradedMap] = {}
        self._rules: dict[tuple, tuple] = {}
        self._lifts: dict[int, dict] = {}
        # exponent pattern -> plan; (exponent pattern, ambient basis index)
        # -> sparse ring coordinates
        self._plans: dict[tuple, tuple] = {}
        self._memo: dict[tuple, dict] = {}
        # (exponent pattern, ambient degree) -> ``_vanishes_in``
        self._zero_in: dict[tuple, bool] = {}
        self._algebra: GradedAlgebra | None = None
        self._pairing: SoclePairing | None = None
        self._duality = None  # the duality reports' record of the pairing
        self._amb = amb

    @staticmethod
    def _label(s: Summand, balg: GradedAlgebra, g: int) -> str:
        parts = []
        blabel = balg.label_of(g)
        if blabel != "1":
            parts.append(blabel)
        for x, k in s.mu.assignment:
            parts.append(f"E[{x}]" if k == 1 else f"E[{x}]^{k}")
        return "*".join(parts) if parts else "1"

    # -- bookkeeping -------------------------------------------------------

    def summand_of(self, i: int) -> Summand:
        return self.summands[self.basis[i][1]]

    def section(self, burrow_id: str) -> GradedMap:
        """Ambient lift of burrow classes (a right inverse of restriction)."""
        sec = self._sections.get(burrow_id)
        if sec is None:
            if burrow_id == self.diagram.ambient_id:
                sec = GradedMap.identity(self._amb)
            else:
                sec = section_of(self.diagram.pullback(self.diagram.ambient_id, burrow_id))
            self._sections[burrow_id] = sec
        return sec

    def _measure(self, exps: dict) -> tuple:
        m = [0] * len(self._element_order)
        for x, k in exps.items():
            m[self._element_pos[x]] = k
        return tuple(m)

    # -- rewrite machinery ---------------------------------------------------

    def rewrite_rule(self, support: frozenset, x: str) -> tuple:
        """The monic reduction rule for element x inside the given support:
        its degree p (x^p is the lead monomial) and its other terms as
        (exponent pattern, ambient coefficient) pairs."""
        key = (tuple(sorted(support)), x)
        rule = self._rules.get(key)
        if rule is None:
            rule = self._rules[key] = self._make_rule(support, x)
        return rule

    def _make_rule(self, support: frozenset, x: str) -> tuple:
        dia = self.diagram
        w = enclosing_burrow(dia, x, support)
        p = dia.elements[x].codim - dia.burrows[w].codim
        if p <= 0:
            return 0, ()
        chern = dia.edges[(dia.singles[x], w)].chern
        # the datum may live on another algebra of w's structure: lift its dicts
        lift, amb = self.section(w).columns, self._amb
        c_amb = [amb.element(_image(lift, chern.coefficient(i).coeffs)) for i in range(1, p + 1)]
        below = dia.elements_below(x)
        # expand sum_j c_j * (-(sum of E_S))^(p-j); monomial keys are sorted
        # exponent patterns over elements below x
        pows = [{(): ONE}]
        for _ in range(p):
            nxt: dict = {}
            for ek, q in pows[-1].items():
                base = dict(ek)
                for s in below:
                    e2 = dict(base)
                    e2[s] = e2.get(s, 0) + 1
                    k2 = tuple(sorted(e2.items()))
                    nxt[k2] = nxt.get(k2, ZERO) - q
            pows.append(nxt)
        acc: dict = {}
        for j in range(p + 1):
            cj = amb.unit() if j == 0 else c_amb[j - 1]
            for ek, q in pows[p - j].items():
                cur = acc.get(ek)
                add = cj.scale(q)
                acc[ek] = add if cur is None else cur + add
        lead = ((x, p),)
        lead_coeff = acc.pop(lead, None)
        expected = amb.unit().scale(ONE if p % 2 == 0 else -ONE)
        if lead_coeff != expected:
            raise InvariantViolation("lead coefficient of the rewrite rule is wrong")
        sign = ONE if (p + 1) % 2 == 0 else -ONE  # (-1)^(p+1)
        return p, tuple((ek, cf.scale(sign)) for ek, cf in acc.items() if not cf.is_zero())

    def _plan(self, pattern: tuple) -> tuple:
        plan = self._plans.get(pattern)
        if plan is None:  # a plan that raises is not stored
            plan = self._plans[pattern] = self._make_plan(pattern)
        return plan

    def _make_plan(self, pattern: tuple) -> tuple:
        """What one step does to E^pattern * (ambient basis class g), any g:
        ``_ZERO_PLAN`` off the nests; (_STANDARD, restriction columns to the
        support's burrow, ring index of each burrow class) when every
        exponent is standard; else (_REWRITE, measure, ((child pattern,
        ambient coefficients, measure), ...)), zero children left out."""
        if self._vanishes(pattern):
            return _ZERO_PLAN
        dia = self.diagram
        exps = dict(pattern)
        support = frozenset(exps)
        burrow = dia.nests().get(dia.nest_mask(support))
        if burrow is None:
            raise InputError(
                f"support {sorted(support)} passes the nest rule but has an "
                "empty intersection; inconsistent input"
            )
        violations = [x for x in support if exps[x] >= standard_bound(dia, x, support)]
        if not violations:
            nest_ids = tuple(x for x, _ in pattern)
            dim = dia.burrows[burrow].algebra.total_dim
            keys = [(nest_ids, pattern, h) for h in range(dim)]
            idx = [self.index.get(key) for key in keys]
            if None in idx:
                raise InvariantViolation(
                    f"normal form produced an unknown basis key {keys[idx.index(None)]}"
                )
            return _STANDARD, dia.pullback(dia.ambient_id, burrow).columns, idx
        x = max(violations, key=lambda e: (dia.elements[e].codim, e))
        before = self._measure(exps)
        p, terms = self.rewrite_rule(support, x)
        children = []
        for ek, cf in terms:
            e2 = dict(exps)
            e2[x] -= p
            for s, k in ek:
                e2[s] = e2.get(s, 0) + k
            e2 = {s: k for s, k in e2.items() if k}
            m = self._measure(e2)
            if not m < before:
                raise InvariantViolation(
                    "termination measure failed to decrease at a rewrite"
                )
            if dia.is_nest(e2):
                children.append((tuple(sorted(e2.items())), cf.coeffs, m))
        return _REWRITE, before, tuple(children)

    def _normalize(
        self, pattern: tuple, coeffs: dict, trace=None, memo=None
    ) -> dict[int, Fraction]:
        """Sparse ring coordinates of coeff * E^pattern, with coeff the
        ambient class of the given coefficients and pattern a sorted tuple
        of (element id, exponent) pairs.

        The normal form is linear in the ambient coefficient, so it is the
        sum of the coefficients times the memoized normal forms
        NF(exponent pattern, ambient basis index); ``memo`` defaults to the
        ring's own. Rewrite steps performed by this call (memo misses) count
        against the rewrite cap."""
        memo = self._memo if memo is None else memo
        coords: dict[int, Fraction] = {}
        steps = [0]
        for g, q in coeffs.items():
            if not q:
                continue
            key = (pattern, g)
            nf = memo.get(key)
            if nf is None:
                nf = self._fill(key, memo, trace, steps)
            for k, c in nf.items():
                coords[k] = coords.get(k, ZERO) + q * c
        return {k: c for k, c in coords.items() if c}

    def _fill(self, root: tuple, memo: dict, trace, steps: list) -> dict:
        """Compute NF(root) and every entry it depends on, children first
        (the termination measure orders them). An entry is stored only once
        its normal form is complete, so an error leaves no partial entry."""
        pending: dict[tuple, dict] = {}
        stack = [root]
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            children = pending.get(key)
            if children is None:
                pattern, g = key
                plan = self._plan(pattern)
                if plan[0] is not _REWRITE:
                    if plan is _ZERO_PLAN:
                        memo[key] = {}
                    else:
                        _, columns, idx = plan
                        memo[key] = {idx[h]: q for h, q in columns[g].items()}
                    stack.pop()
                    continue
                children = pending[key] = self._rewrite(key, plan, trace, steps)
            missing = [c for c in children if c not in memo]
            if missing:
                stack.extend(missing)
                continue
            out: dict = {}
            for child, q in children.items():
                for k, c in memo[child].items():
                    out[k] = out.get(k, ZERO) + q * c
            memo[key] = {k: c for k, c in out.items() if c}
            stack.pop()
        return memo[root]

    def _rewrite(self, key: tuple, plan: tuple, trace, steps: list) -> dict:
        """One rewrite step on E^pattern * (ambient basis class g) by its
        pattern's plan: the child keys with their coefficients."""
        steps[0] += 1
        if steps[0] > self.max_rewrites:
            raise ComputationError(
                f"rewrite cap {self.max_rewrites} exceeded on monomial {list(key[0])}"
            )
        _, before, spec = plan
        g = key[1]
        product = self._amb.product_basis
        children: dict = {}
        after = []
        for child, cf, m in spec:
            coeff: dict = {}
            for h, q in cf.items():
                for k, c in product(g, h).items():
                    coeff[k] = coeff.get(k, ZERO) + q * c
            nonzero = {(child, k): c for k, c in coeff.items() if c}
            if nonzero:
                children.update(nonzero)
                after.append(m)
        if trace is not None:
            trace.append((before, tuple(after)))
        return children

    # -- products ----------------------------------------------------------------

    def _lift(self, i: int) -> dict:
        """Ambient lift of the burrow class of basis index i (cached)."""
        lift = self._lifts.get(i)
        if lift is None:
            g = self.basis[i][2]
            lift = self._lifts[i] = self.section(self.summand_of(i).burrow).columns[g]
        return lift

    def _vanishes(self, pattern: tuple) -> bool:
        """Whether the pattern's support is not a nest (its monomials are 0)."""
        return not self.diagram.is_nest(x for x, _ in pattern)

    def _vanishes_in(self, pattern: tuple, k: int) -> bool:
        """Whether the plans alone show NF(pattern, c) = 0 for every ambient
        class c of degree k: a zero plan; a standard plan whose restriction
        columns of degree k are all zero; a rewrite whose children all
        vanish in degree k + (degree of their coefficient).  Sufficient, not
        necessary: cancellation between children goes unseen."""
        key = (pattern, k)
        zero = self._zero_in.get(key)
        if zero is None:
            plan = self._plan(pattern)
            amb = self._amb
            if plan is _ZERO_PLAN:
                zero = True
            elif plan[0] is _STANDARD:
                columns = plan[1]
                zero = not any(columns[g] for g in amb.global_indices(k))
            else:
                zero = all(
                    self._vanishes_in(child, k + amb.degree_of(h))
                    for child, cf, _ in plan[2]
                    for h in cf
                )
            self._zero_in[key] = zero
        return zero

    def _product(self, a: int, b: int, pattern: tuple, trace=None, memo=None) -> Mapping:
        """Normal form of the product of basis vectors a and b with the given
        merged exponent pattern: the ambient product of their lifts, reduced
        under that pattern. Zero is ``_EMPTY``."""
        product = self._amb.product_basis
        coeffs: dict = {}
        for g, p in self._lift(a).items():
            for h, q in self._lift(b).items():
                pq = p * q
                for k, c in product(g, h).items():
                    coeffs[k] = coeffs.get(k, ZERO) + pq * c
        return self._normalize(pattern, coeffs, trace, memo) or _EMPTY

    def product_trace(self, i: int, j: int):
        """Recompute one basis product with a rewrite trace. It uses a fresh
        memo, so the trace lists every rewrite the product needs."""
        trace: list = []
        if self.basis[i][0] + self.basis[j][0] > self.diagram.socle_degree:
            return {}, trace
        pattern = _merged(self.summand_of(i), self.summand_of(j))
        return self._product(i, j, pattern, trace, {}), trace

    # -- element constructors ------------------------------------------------------

    def from_ambient(self, elem: Element) -> Element:
        """The ambient class as a ring class of ``as_algebra()``; runs the
        fill if it has not run."""
        if elem.alg is not self._amb:
            raise InputError("not an ambient class")
        coords = {}
        for g, q in elem.coeffs.items():
            coords[self.index[(tuple(), tuple(), g)]] = q
        return Element(self.as_algebra(), coords)

    def monomial(self, exps: dict, coeff: Element | None = None) -> Element:
        """Normal form of coeff * prod E_x^k for an arbitrary exponent map,
        as a ring class of ``as_algebra()``; runs the fill if it has not
        run."""
        coeff = coeff if coeff is not None else self._amb.unit()
        exps = {x: int(k) for x, k in exps.items() if k}
        for x in exps:
            if x not in self.diagram.elements:
                raise InputError(f"unknown element id {x!r}")
        pattern = tuple(sorted(exps.items()))
        return Element(self.as_algebra(), self._normalize(pattern, coeff.coeffs))

    def exceptional_class(self, x: str) -> Element:
        """E_x as a ring class of ``as_algebra()``; runs the fill if it has
        not run."""
        return self.monomial({x: 1})

    # -- export -----------------------------------------------------------------------

    def _basis_permutations(self) -> list[list[int]]:
        """For each checked symmetry generator s (``BurrowDiagram.symmetry``),
        the permutation of the ring basis it induces: the basis vector of
        (nest N, exponents mu, class g of the burrow Z_N) goes to that of
        (sN, s mu, s g).  sN is a nest with burrow sZ_N and s mu is standard
        on it, since s keeps the nest relation, the edge set (and so the
        containment order and its meets) and the codims that the standard
        bounds read."""
        dia = self.diagram
        perms = []
        for gen in dia.symmetry().generators:
            el = gen.element
            bases = {}
            perm = []
            for _, si, g, (nest_ids, assignment, _), _ in self.basis:
                b = self.summands[si].burrow
                if b not in bases:
                    bases[b] = gen.basis(b, dia.burrows[b].algebra.total_dim)
                key = (
                    tuple(sorted(map(el, nest_ids))),
                    tuple(sorted((el(x), k) for x, k in assignment)),
                    bases[b][g],
                )
                if key not in self.index:
                    raise InvariantViolation(f"symmetry maps a basis vector to {key}")
                perm.append(self.index[key])
            perms.append(perm)
        return perms

    def build_all_products(self):
        """Fill the product table, one summand pair (block) at a time: the
        block's merged exponent pattern and its nest test are taken once.
        A block whose support is not a nest is zero: it gets no per-pair
        loop and no entries.  Any other block splits into sub-blocks by the
        burrow degrees (ka, kb) of its two basis vectors; the lifts of such a
        pair multiply to an ambient class of degree ka + kb, and a sub-block
        where ``_vanishes_in`` clears the pattern in that degree is zero and
        gets no entries either.  Each remaining pair goes through
        ``_product``, and the table stores its row when it is not zero; the
        unit pairs (basis index 0) are implicit in the structure, and the
        fill neither computes nor stores them.  The fill ends by building the
        ring's algebra on its table (``as_algebra``), the only place that
        products are read.

        With a checked symmetry group (``BurrowDiagram.symmetry``), one pair
        per orbit goes through ``_product`` and the rest of its orbit is
        filled by relabelling: table[(s i, s j)] = s(table[(i, j)]) under
        the basis permutations of ``_basis_permutations``.  The group also
        permutes the summands (``moves``) and so the blocks, and only the
        least block (sa, sb), sa <= sb, of each block orbit is visited.  Its
        sa is the least summand of its summand orbit: were s sa smaller, the
        block s (sa, sb) would be.  So the loop runs over the blocks (r, b),
        r <= b, with r such a least summand, in ascending order, and the
        first block it meets of an orbit is the least one.  A block whose
        nest test fails is left at once, with no walk: s keeps the nest
        relation, so every block of its orbit fails the test too.  For any
        other block the loop walks its orbit once, in a set dropped after
        it, and marks the blocks (r, b) of the orbit, which the loop skips
        when it reaches them: at most one mark per least summand and
        summand.  The pairs whose product is known, computed or relabelled,
        are marked in a set local to the block orbit.  With no group every
        summand is the least of its orbit and every orbit one block, so
        each block (r, b), r <= b, is visited once.

        Proof.  Write R for the ring, generated by the ambient algebra A(Y)
        and the classes E_x subject to the relations the rewriting uses:
        E^S = 0 off the nests, k * E_x = 0 for k restricting to zero on
        Z_x, and the monic relations built from the Chern coefficients.
        NF(mu, c) (``_normalize``) is the coordinate vector of the class
        E^mu * c of R on the additive basis, whatever route the rewriting
        takes, and the basis vector of (N, mu, g) is E^mu * lift(g), with
        lift the section of the pullback to Z_N (``section``), a map of
        degree 0.
        Skipped sub-blocks.  Let c have degree k.  If the plan of mu is
        zero, E^mu = 0; if it is standard, NF(mu, c) reads the restriction
        of c to the support's burrow, whose degree-k columns are all zero
        when the test clears; if it is a rewrite, NF(mu, c) is a sum of
        terms NF(child, q * c * h), one per basis class h of degree e of a
        child's coefficient, so by induction on the termination measure
        each term is zero when its child clears degree k + e.  So a cleared
        sub-block holds only zero products.
        Lemma: E^mu * k = 0 when k restricts to zero on the burrow Z_S of
        the support S of mu.  E^mu is carried by the exceptional locus
        over Z_S, which maps to Z_S, so E^mu * k only sees k restricted to
        Z_S.  It follows that no choice of lift changes a product: two
        lifts of a class of Z_N, or of a lower Chern coefficient of an
        edge Z_x < W (a class of W read through its restriction to Z_x,
        and multiplied in a monic relation only by monomials in classes
        E_s with Z_s inside Z_x), differ by such a k.
        Now a checked s keeps the nest relation, the edge set and with it
        the containment order and its meets, the codims, the burrow
        algebras, the pullbacks, the pushforwards, the top Chern
        coefficients and the lower ones restricted to the small burrow.
        So it carries each relation of R to a relation, up to the choice
        of lifts, and extends to a ring automorphism of R with
        s(E_x) = E_(s x) that agrees with s on A(Y).  It carries the basis
        vector E^mu * lift(g) to E^(s mu) * s(lift(g)); s(lift(g)) restricts
        to s g on s Z_N, so by the lemma that is the basis vector of
        (s N, s mu, s g): the induced permutation.  Hence s carries the
        product of basis vectors i and j, whose coordinates table[(i, j)]
        holds, to the product of s i and s j; a zero product to zero.
        Absent means zero: a pair 0 < i <= j up to the socle with no row in
        the structure is zero.  It lies in a block g B, for B the least
        block of its orbit and g in the group, and B is visited.  If B
        fails its nest test, B and g B are zero.  Otherwise g^-1 (i, j) lies
        in B, in a skipped sub-block (a zero product, carried to zero by g)
        or in a pair that the fill computed or reached by relabelling, so
        that the orbit of the pair was settled, each nonzero product stored
        and each zero one left out.  One visit per block orbit: the visited
        block is the least of its orbit, and the marks of its walk skip
        every other block (r, b) of the orbit.  One computation per pair
        orbit: a pair is computed only when unmarked, and the walk from it
        marks its whole orbit, which lies in the same block orbit.
        The tests compare the tables of the fills by orbits and with no
        symmetry, and the products of both against each pair computed on
        its own; they compute every skipped pair, pin the number of pairs
        each fill computes, and check the lemma on the engine's normal
        forms."""
        if self._algebra is not None:
            return
        perms = self._basis_permutations()
        d = self.diagram.socle_degree
        shifts = [s.shift for s in self.summands]
        # per block: (burrow degree, basis indices of that degree), ascending
        runs: list[list] = [[] for _ in self.summands]
        for i, (deg, si, *_) in enumerate(self.basis):
            k, run = deg - shifts[si], runs[si]
            if run and run[-1][0] == k:
                run[-1][1].append(i)
            else:
                run.append((k, [i]))
        moves = [[self.basis[p[run[0][1][0]]][1] for run in runs] for p in perms]
        # the least summand of each summand orbit
        least = list(range(len(runs)))
        for s in range(len(runs)):
            if least[s] == s:
                stack = [s]
                while stack:
                    x = stack.pop()
                    for q in moves:
                        if least[q[x]] != s:
                            least[q[x]] = s
                            stack.append(q[x])
        table: dict = {}
        # blocks (r, b) of the walked orbits, r the least of its summand orbit
        marked: set = set()
        for sa in [s for s, r in enumerate(least) if r == s]:
            for sb in range(sa, len(runs)):
                shift = shifts[sa] + shifts[sb]
                if shift > d or (sa, sb) in marked:
                    continue
                pattern = _merged(self.summands[sa], self.summands[sb])
                if self._vanishes(pattern):
                    continue
                orbit, stack = {(sa, sb)}, [(sa, sb)]
                while stack:
                    x, y = stack.pop()
                    for q in moves:
                        image = (q[x], q[y]) if q[x] <= q[y] else (q[y], q[x])
                        if image not in orbit:
                            orbit.add(image)
                            stack.append(image)
                            if least[image[0]] == image[0]:
                                marked.add(image)
                del orbit
                # pairs of the block orbit whose product is known
                done: set = set()
                for ka, run_a in runs[sa]:
                    for kb, run_b in runs[sb]:
                        if shift + ka + kb > d:
                            break
                        if (sa == sb and kb < ka) or self._vanishes_in(pattern, ka + kb):
                            continue
                        same = sa == sb and ka == kb
                        for pos, i in enumerate(run_a):
                            if not i:
                                continue  # the unit pairs
                            for j in run_b[pos:] if same else run_b:
                                key = (i, j) if i <= j else (j, i)
                                if key in done:
                                    continue
                                done.add(key)
                                stack = [(key, self._product(*key, pattern))]
                                while stack:
                                    (a, b), row = stack.pop()
                                    if row:
                                        table[a, b] = row
                                    for p in perms:
                                        x, y = p[a], p[b]
                                        image = (x, y) if x <= y else (y, x)
                                        if image not in done:
                                            done.add(image)
                                            stack.append((image, {p[k]: c for k, c in row.items()}))
        labels = [[] for _ in self.dims]
        for deg, _, _, _, lbl in self.basis:
            labels[deg].append(lbl)
        self._algebra = GradedAlgebra.on(Structure.from_products(self.dims, table.items()), labels)

    def as_algebra(self) -> GradedAlgebra:
        """The ring as a ``GradedAlgebra`` on the product table; runs the
        fill if it has not run."""
        if self._algebra is None:
            self.build_all_products()
        return self._algebra

    def pairing(self) -> SoclePairing:
        """Socle pairing of ``as_algebra()``, shared by every duality report."""
        if self._pairing is None:
            rep = socle_check(self.as_algebra(), self.diagram.socle_degree)
            if not rep.ok:
                raise InputError(f"ring fails its socle check: {rep.problems}")
            self._pairing = rep.pairing
        return self._pairing


def build_ring(
    diagram: BurrowDiagram,
    *,
    max_rewrites: int | None = None,
    validate: bool = True,
) -> WonderRing:
    """Construct the full ring of a diagram; the dimension vector always
    matches the additive decomposition, and all basis products are reduced
    to normal form."""
    if validate:
        diagram.validate().raise_if_failed()
    ring = WonderRing(diagram, max_rewrites=max_rewrites)
    ring.build_all_products()
    return ring


# -- presentation verification ------------------------------------------------------


@dataclass
class RelationInstance:
    description: str
    ok: bool
    detail: str = ""


@dataclass
class RelationFamily:
    name: str
    instances: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(i.ok for i in self.instances)

    def check(self, description: str, val: Element):
        """Record one relation instance; it holds when val is zero."""
        zero = val.is_zero()
        self.instances.append(
            RelationInstance(description, zero, "" if zero else repr(val))
        )


@dataclass
class PresentationReport:
    families: list

    @property
    def ok(self) -> bool:
        return all(f.ok for f in self.families)

    def summary(self) -> str:
        lines = []
        for f in self.families:
            status = "ok" if f.ok else "FAIL"
            lines.append(f"[{status}] {f.name}: {len(f.instances)} instances")
            for inst in f.instances:
                if not inst.ok:
                    detail = f" ({inst.detail})" if inst.detail else ""
                    lines.append(f"    FAIL {inst.description}{detail}")
        lines.append(f"result: {'pass' if self.ok else 'fail'}")
        return "\n".join(lines)


def presentation_report(ring: WonderRing) -> PresentationReport:
    """Instantiate and evaluate the defining relation families in the built
    ring, then the relations the diagram declares; every instance must
    reduce to exactly zero."""
    dia = ring.diagram
    amb = dia.ambient.algebra
    alg = ring.as_algebra()
    ids = sorted(dia.elements)
    e_class = {x: ring.exceptional_class(x) for x in ids}

    fam_nonnest = RelationFamily("non-nest products")
    nests = dia.nests()
    for i, s in enumerate(ids):
        for t in ids[i + 1 :]:
            if nests.get(dia.nest_mask((s, t))) is not None:
                continue
            fam_nonnest.check(f"E[{s}]*E[{t}]", e_class[s] * e_class[t])

    fam_kernel = RelationFamily("restriction kernels")
    # elements whose edges to the ambient share a datum share the kernel
    kernels = {}  # edge datum (None on the ambient) -> (degree, kernel class in the ring)
    for x in ids:
        key = dia.edges.get((dia.singles[x], dia.ambient_id))
        if key not in kernels:
            pull = dia.pullback(dia.ambient_id, dia.singles[x])
            kernels[key] = [
                (k, ring.from_ambient(ker))
                for k in range(amb.top_degree + 1)
                for ker in pull.kernel_elements(k)
            ]
        for k, ker in kernels[key]:
            fam_kernel.check(f"(deg-{k} kernel class)*E[{x}]", ker * e_class[x])

    fam_monic = RelationFamily("monic relations")
    for x in ids:
        bx = dia.singles[x]
        chern = dia.edges[(bx, dia.ambient_id)].chern
        p = chern.deg
        t_elem = alg.zero()
        for s in dia.elements_below(x):
            t_elem = t_elem - e_class[s]
        power = alg.unit()
        powers = [power]
        for _ in range(p):
            power = power * t_elem
            powers.append(power)
        val = powers[p]
        for i in range(1, p + 1):
            c_i = amb.element(chern.coefficient(i).coeffs)  # on the ambient's own algebra
            val = val + ring.from_ambient(c_i) * powers[p - i]
        fam_monic.check(f"P[{x}](-sum E) over the ambient", val)

    families = [fam_nonnest, fam_kernel, fam_monic]
    if dia.relations:
        fam_gen = RelationFamily("named ideal generators")
        for x, name, cls in dia.relations:
            fam_gen.check(f"({name})*E[{x}]", ring.from_ambient(cls) * e_class[x])
        families.append(fam_gen)
    return PresentationReport(families)
