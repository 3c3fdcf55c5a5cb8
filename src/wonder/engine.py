"""The main construction: the graded ring of the compactified space on the
additive basis (nest, standard exponents, burrow class), with products
computed by nest merging, restriction to the common burrow, and exponent
reduction through the monic rewrite rules.

Coefficients are carried as ambient classes during rewriting (restriction
maps are ring maps, so restricting once at the end agrees with restricting
eagerly) and land in the burrow of the final support.

Every step of the reduction is linear in the ambient coefficient: the
rewrite chosen for coeff * E^e depends only on the exponent pattern e. So
each ring keeps a memo from (exponent pattern, ambient basis index) to
sparse ring coordinates, filled children first along the termination
measure, and a basis product is one ambient product of two cached lifts
followed by memo lookups. The rewrite cap (``max_rewrites``,
``WONDER_MAX_REWRITES``) counts the rewrite steps one normal-form call
actually performs, that is its memo misses."""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from wonder.algebra import (
    Element,
    GradedAlgebra,
    GradedMap,
    SoclePairing,
    section_of,
    socle_check,
)
from wonder.diagram import BurrowDiagram
from wonder.errors import ComputationError, InputError, InvariantViolation
from wonder.exact_linalg import ONE, ZERO
from wonder.nests import Summand, enclosing_burrow, li_decomposition, standard_bound

DEFAULT_MAX_REWRITES = 10_000
_EMPTY: Mapping = MappingProxyType({})


def _default_cap() -> int:
    env = os.environ.get("WONDER_MAX_REWRITES")
    if env:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"WONDER_MAX_REWRITES is not an integer: {env!r}")
    return DEFAULT_MAX_REWRITES


@dataclass(frozen=True)
class RewriteRule:
    """One instance of the monic exponent-reduction rule: inside the given
    support, the element x with its enclosing burrow w and the expansion of
    the rule as (exponent pattern, ambient coefficient) pairs, lead term
    excluded."""

    support: tuple
    element: str
    w_burrow: str
    degree: int
    terms: tuple  # ((exponent pattern), ambient Element) pairs


class WonderRing:
    """Graded ring of the compactification, built on the additive basis.
    Its elements are ``algebra.Element`` instances whose algebra is the
    ring."""

    def __init__(self, diagram: BurrowDiagram, *, max_rewrites: int | None = None):
        self.diagram = diagram
        self.max_rewrites = max_rewrites if max_rewrites is not None else _default_cap()
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
        self.labels_flat = [e[4] for e in entries]
        self.dims = [0] * (d + 1)
        for e in entries:
            self.dims[e[0]] += 1
        if self.dims != list(self.poincare):
            raise InvariantViolation("basis dimensions disagree with the decomposition")

        self._sections: dict[str, GradedMap] = {}
        self._chern_amb: dict[tuple, list] = {}
        self._rules: dict[tuple, RewriteRule] = {}
        self._lifts: dict[int, Element] = {}
        # (exponent pattern, ambient basis index) -> sparse ring coordinates
        self._memo: dict[tuple, dict] = {}
        self._cache: dict[tuple, Mapping] = {}
        self._algebra: GradedAlgebra | None = None
        self._pairing: SoclePairing | None = None
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

    def degree_of(self, i: int) -> int:
        return self.basis[i][0]

    def label_of(self, i: int) -> str:
        return self.labels_flat[i]

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

    def _chern_ambient(self, x: str, w: str) -> list[Element]:
        key = (x, w)
        out = self._chern_amb.get(key)
        if out is None:
            dia = self.diagram
            bx = dia.singles[x]
            chern = dia.edges[(bx, w)].chern
            lift = self.section(w)
            out = [lift.apply(chern.coefficient(i)) for i in range(1, chern.deg + 1)]
            self._chern_amb[key] = out
        return out

    def rewrite_rule(self, support: frozenset, x: str) -> RewriteRule:
        """The reduction rule for element x inside the given support; the
        expansion terms exclude the lead monomial."""
        key = (tuple(sorted(support)), x)
        rule = self._rules.get(key)
        if rule is not None:
            return rule
        dia = self.diagram
        w = enclosing_burrow(dia, x, support)
        p = dia.elements[x].codim - dia.burrows[w].codim
        if p <= 0:
            rule = RewriteRule(key[0], x, w, 0, tuple())
            self._rules[key] = rule
            return rule
        c_amb = self._chern_ambient(x, w)
        below = dia.elements_below(x)
        amb = self._amb
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
        terms = tuple(
            (ek, cf.scale(sign)) for ek, cf in acc.items() if not cf.is_zero()
        )
        rule = RewriteRule(key[0], x, w, p, terms)
        self._rules[key] = rule
        return rule

    def _normalize(
        self, exps: dict, coeff: Element, trace=None, memo=None
    ) -> dict[int, Fraction]:
        """Sparse ring coordinates of coeff * prod E_x^k, coeff ambient.

        The normal form is linear in the ambient coefficient, so it is the
        sum of the coefficients of coeff times the memoized normal forms
        NF(exponent pattern, ambient basis index); ``memo`` defaults to the
        ring's own. Rewrite steps performed by this call (memo misses) count
        against the rewrite cap."""
        memo = self._memo if memo is None else memo
        pattern = tuple(sorted(exps.items()))
        coords: dict[int, Fraction] = {}
        steps = [0]
        for g, q in coeff.coeffs.items():
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
        plans: dict[tuple, tuple] = {}
        stack = [root]
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            plan = plans.get(key)
            if plan is None:
                plan = plans[key] = self._expand(key, trace, steps)
            base, children = plan
            missing = [c for c, _ in children if c not in memo]
            if missing:
                stack.extend(missing)
                continue
            out = dict(base)
            for child, q in children:
                for k, c in memo[child].items():
                    out[k] = out.get(k, ZERO) + q * c
            memo[key] = {k: c for k, c in out.items() if c}
            stack.pop()
        return memo[root]

    def _expand(self, key: tuple, trace, steps: list) -> tuple:
        """One step on E^pattern * (ambient basis class g): either its
        coordinates when the pattern is standard (or not a nest), or one
        rewrite as ((child key, coefficient), ...)."""
        pattern, g = key
        dia = self.diagram
        exps = dict(pattern)
        support = frozenset(exps)
        if support and not dia.is_nest(support):
            return {}, ()
        burrow = dia.burrow_of(support) if support else dia.ambient_id
        if burrow is None:
            raise InputError(
                f"support {sorted(support)} passes the nest rule but has an "
                "empty intersection; inconsistent input"
            )
        violations = [x for x in support if exps[x] >= standard_bound(dia, x, support)]
        if not violations:
            return self._coordinates(pattern, g, burrow), ()
        steps[0] += 1
        if steps[0] > self.max_rewrites:
            raise ComputationError(
                f"rewrite cap {self.max_rewrites} exceeded on monomial {list(pattern)}"
            )
        x = max(violations, key=lambda e: (dia.elements[e].codim, e))
        before = self._measure(exps)
        rule = self.rewrite_rule(support, x)
        p = rule.degree
        amb = self._amb
        cls = amb.basis_element(g)
        children = []
        after = []
        for ek, cf in rule.terms:
            coeff = amb.multiply(cls, cf)
            if coeff.is_zero():
                continue
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
            after.append(m)
            child = tuple(sorted(e2.items()))
            children.extend(((child, h), q) for h, q in coeff.coeffs.items())
        if trace is not None:
            trace.append((before, tuple(after)))
        return {}, tuple(children)

    def _coordinates(self, pattern: tuple, g: int, burrow: str) -> dict[int, Fraction]:
        """Ring coordinates of a standard monomial with ambient coefficient
        the basis class g, restricted to the burrow of its support."""
        dia = self.diagram
        if burrow == dia.ambient_id:
            restricted = self._amb.basis_element(g)
        else:
            restricted = dia.pullback(dia.ambient_id, burrow).apply_basis(g)
        nest_ids = tuple(x for x, _ in pattern)
        coords = {}
        for h, q in restricted.coeffs.items():
            basis_key = (nest_ids, pattern, h)
            idx = self.index.get(basis_key)
            if idx is None:
                raise InvariantViolation(
                    f"normal form produced an unknown basis key {basis_key}"
                )
            coords[idx] = q
        return coords

    # -- products ----------------------------------------------------------------

    def _lift(self, i: int) -> Element:
        """Ambient lift of the burrow class of basis index i (cached)."""
        lift = self._lifts.get(i)
        if lift is None:
            g = self.basis[i][2]
            lift = self.section(self.summand_of(i).burrow).apply_basis(g)
            self._lifts[i] = lift
        return lift

    def _pair_term(self, i: int, j: int) -> tuple[dict, Element]:
        """Exponents and ambient coefficient of the product of two basis
        vectors before reduction."""
        sa, sb = self.summand_of(i), self.summand_of(j)
        exps: dict = dict(sa.mu.assignment)
        for x, k in sb.mu.assignment:
            exps[x] = exps.get(x, 0) + k
        return exps, self._amb.multiply(self._lift(i), self._lift(j))

    def basis_product(self, i: int, j: int) -> Mapping[int, Fraction]:
        """Coordinates of the product of two basis vectors; nonzero
        coefficients only. Zero products are one shared read-only mapping."""
        a, b = (i, j) if i <= j else (j, i)
        cached = self._cache.get((a, b))
        if cached is None:
            if self.degree_of(a) + self.degree_of(b) > self.diagram.socle_degree:
                return _EMPTY
            cached = self._normalize(*self._pair_term(a, b)) or _EMPTY
            self._cache[(a, b)] = cached
        return cached

    def product_trace(self, i: int, j: int):
        """Recompute one basis product with a rewrite trace. It uses a fresh
        memo, so the trace lists every rewrite the product needs."""
        trace: list = []
        if self.degree_of(i) + self.degree_of(j) > self.diagram.socle_degree:
            return {}, trace
        coords = self._normalize(*self._pair_term(i, j), trace=trace, memo={})
        return coords, trace

    def multiply(self, x: Element, y: Element) -> Element:
        if x.alg is not self or y.alg is not self:
            raise InputError("elements belong to a different ring")
        out: dict[int, Fraction] = {}
        for i, qi in x.coeffs.items():
            for j, qj in y.coeffs.items():
                q = qi * qj
                for k, c in self.basis_product(i, j).items():
                    out[k] = out.get(k, ZERO) + q * c
        return Element(self, out)

    # -- element constructors ------------------------------------------------------

    def zero(self) -> Element:
        return Element(self, {})

    def one(self) -> Element:
        return self.from_ambient(self._amb.unit())

    def basis_vector(self, i: int) -> Element:
        return Element(self, {i: ONE})

    def from_ambient(self, elem: Element) -> Element:
        if elem.alg is not self._amb:
            raise InputError("not an ambient class")
        coords = {}
        for g, q in elem.coeffs.items():
            coords[self.index[(tuple(), tuple(), g)]] = q
        return Element(self, coords)

    def monomial(self, exps: dict, coeff: Element | None = None) -> Element:
        """Normal form of coeff * prod E_x^k for an arbitrary exponent map."""
        coeff = coeff if coeff is not None else self._amb.unit()
        exps = {x: int(k) for x, k in exps.items() if k}
        for x in exps:
            if x not in self.diagram.elements:
                raise InputError(f"unknown element id {x!r}")
        return Element(self, self._normalize(exps, coeff))

    def exceptional_class(self, x: str) -> Element:
        return self.monomial({x: 1})

    # -- export -----------------------------------------------------------------------

    def build_all_products(self):
        n = len(self.basis)
        for i in range(n):
            for j in range(i, n):
                self.basis_product(i, j)

    def as_algebra(self) -> GradedAlgebra:
        if self._algebra is None:
            self.build_all_products()
            labels = [[] for _ in range(len(self.dims))]
            for deg, _, _, _, lbl in self.basis:
                labels[deg].append(lbl)
            # the cache holds every pair i <= j; unit products are implicit
            entries = [
                (i, j, k, q)
                for (i, j), row in self._cache.items()
                if i
                for k, q in row.items()
            ]
            self._algebra = GradedAlgebra(self.dims, labels, entries)
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
    ids = sorted(dia.elements)
    e_class = {x: ring.exceptional_class(x) for x in ids}

    fam_nonnest = RelationFamily("non-nest products")
    for i, s in enumerate(ids):
        for t in ids[i + 1 :]:
            if dia.is_nest({s, t}) and dia.burrow_of({s, t}) is not None:
                continue
            fam_nonnest.check(f"E[{s}]*E[{t}]", e_class[s] * e_class[t])

    fam_kernel = RelationFamily("restriction kernels")
    for x in ids:
        pull = dia.pullback(dia.ambient_id, dia.singles[x])
        for k in range(amb.top_degree + 1):
            for ker in pull.kernel_elements(k):
                fam_kernel.check(
                    f"(deg-{k} kernel class)*E[{x}]", ring.from_ambient(ker) * e_class[x]
                )

    fam_monic = RelationFamily("monic relations")
    for x in ids:
        bx = dia.singles[x]
        chern = dia.edges[(bx, dia.ambient_id)].chern
        p = chern.deg
        t_elem = ring.zero()
        for s in dia.elements_below(x):
            t_elem = t_elem - e_class[s]
        power = ring.one()
        powers = [power]
        for _ in range(p):
            power = power * t_elem
            powers.append(power)
        val = powers[p]
        for i in range(1, p + 1):
            val = val + ring.from_ambient(chern.coefficient(i)) * powers[p - i]
        fam_monic.check(f"P[{x}](-sum E) over the ambient", val)

    families = [fam_nonnest, fam_kernel, fam_monic]
    if dia.relations:
        fam_gen = RelationFamily("named ideal generators")
        for x, name, cls in dia.relations:
            fam_gen.check(f"({name})*E[{x}]", ring.from_ambient(cls) * e_class[x])
        families.append(fam_gen)
    return PresentationReport(families)
