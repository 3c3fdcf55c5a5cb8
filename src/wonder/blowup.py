"""Single-step constructions: the ring of a blow-up along one center and of
a projective bundle, plus duality-propagation checks.

The blow-up ring is built directly on the additive decomposition

    ambient part  +  (center part) * E^k,   k = 1 .. c-1,

with the monic relation in -E normative for all signs.  Both defining
relations of the quotient presentation are verified to hold in the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from wonder.algebra import (
    Element,
    GradedAlgebra,
    GradedMap,
    PdVerdict,
    algebra_from_products,
    pd_verdict,
    section_of,
    socle_check,
)
from wonder.errors import InputError, InvariantViolation
from wonder.exact_linalg import ONE, ZERO


def block_label(name: str, zlabel: str, k: int) -> str:
    power = name if k == 1 else f"{name}^{k}"
    return power if zlabel == "1" else f"{zlabel}*{power}"


@dataclass
class BlowupResult:
    """Ring of a blow-up, with the basis partitioned into the ambient block
    and the center blocks tagged by exceptional powers."""

    algebra: GradedAlgebra
    e_class: Element
    codim: int
    blocks: tuple  # per global index: ("Y", gy) or (k, gz)
    y_embed: GradedMap
    z_embeds: dict  # k -> GradedMap (center -> result, shift k)
    name: str


def blow_up(
    y: GradedAlgebra,
    z: GradedAlgebra,
    pullback: GradedMap,
    pushforward: GradedMap,
    chern,
    *,
    name: str = "E",
) -> BlowupResult:
    """Construct the blow-up ring of ``y`` along a center ``z``.

    ``chern`` is the list [c_1 .. c_c] of ambient classes (c_c the class of
    the center).  A divisorial center (c = 1) returns ``y`` itself.
    """
    c = len(chern)
    if c < 1:
        raise InputError("Chern data must have degree >= 1")
    if pullback.source is not y or pullback.target is not z:
        raise InputError("pullback must map the ambient onto the center")
    if not pullback.is_surjective():
        raise InputError("pullback is not surjective; no valid Chern lift exists")
    if pushforward.source is not z or pushforward.target is not y:
        raise InputError("pushforward endpoints wrong")
    if pushforward.shift != c:
        raise InputError("pushforward shift must equal the codimension")
    for i, ci in enumerate(chern, start=1):
        if not ci.is_zero() and (ci.alg is not y or ci.degree() != i):
            raise InputError(f"Chern coefficient {i} malformed")

    fc = pushforward.apply(z.unit())
    if chern[-1] != fc:
        raise InputError(
            "constant Chern term differs from the pushforward of the unit: "
            f"{chern[-1]!r} vs {fc!r}"
        )
    # the reduction built from the pushforward must agree with the one
    # obtained by lifting and multiplying with the constant term
    section = section_of(pullback)
    for gz in range(z.total_dim):
        u = z.basis_element(gz)
        via_push = pushforward.apply(u)
        via_lift = y.multiply(section.apply(u), chern[-1])
        if via_push != via_lift:
            raise InputError(
                "inconsistent center data: pushforward and lifted "
                f"reduction disagree on {z.label_of(gz)!r} "
                f"({via_push!r} vs {via_lift!r})"
            )

    if c == 1:
        return BlowupResult(
            algebra=y,
            e_class=chern[0],
            codim=1,
            blocks=tuple(("Y", g) for g in range(y.total_dim)),
            y_embed=GradedMap.identity(y),
            z_embeds={},
            name=name,
        )

    top = y.top_degree
    dims = []
    labels = []
    blocks = []
    y_to_res = {}
    ze_to_res = {}
    g = 0
    for i in range(top + 1):
        lab = []
        n = 0
        for gy in y.global_indices(i):
            y_to_res[gy] = g
            lab.append(y.label_of(gy))
            blocks.append(("Y", gy))
            n += 1
            g += 1
        for k in range(1, c):
            zdeg = i - k
            if 0 <= zdeg <= z.top_degree:
                for gz in z.global_indices(zdeg):
                    ze_to_res[(k, gz)] = g
                    lab.append(block_label(name, z.label_of(gz), k))
                    blocks.append((k, gz))
                    n += 1
                    g += 1
        dims.append(n)
        labels.append(lab)

    restricted_chern = [pullback.apply(ci) for ci in chern[:-1]]  # c_1 .. c_{c-1}

    def reduce_epower(m: int, u: Element):
        """u * E^m as (ambient element, {(k, gz): coeff}) with k < c."""
        amb = y.zero()
        ep: dict = {}
        stack = [(m, u)]
        while stack:
            mm, uu = stack.pop()
            if uu.is_zero():
                continue
            if mm < c:
                for gz, q in uu.coeffs.items():
                    key = (mm, gz)
                    ep[key] = ep.get(key, ZERO) + q
                continue
            for i, ci in enumerate(restricted_chern, start=1):
                term = z.multiply(uu, ci)
                if not term.is_zero():
                    sign = ONE if i % 2 else -ONE
                    stack.append((mm - i, term.scale(sign)))
            pu = pushforward.apply(uu)
            sign = ONE if c % 2 else -ONE  # (-1)^(c+1)
            if mm - c == 0:
                amb = amb + pu.scale(sign)
            else:
                stack.append((mm - c, pullback.apply(pu).scale(sign)))
        return amb, ep

    def emit(amb: Element, ep: dict) -> dict:
        out = {}
        for gy, q in amb.coeffs.items():
            out[y_to_res[gy]] = out.get(y_to_res[gy], ZERO) + q
        for key, q in ep.items():
            if key in ze_to_res:
                out[ze_to_res[key]] = out.get(ze_to_res[key], ZERO) + q
            elif q:
                raise InputError("reduction left an out-of-range block")
        return out

    def products(gi, gj):
        bi, bj = blocks[gi], blocks[gj]
        if bi[0] == "Y" and bj[0] == "Y":
            return {y_to_res[gk]: q for gk, q in y.product_basis(bi[1], bj[1]).items()}
        if bi[0] == "Y" or bj[0] == "Y":
            (_, gy), (k, gz) = (bi, bj) if bi[0] == "Y" else (bj, bi)
            res = z.multiply(pullback.apply_basis(gy), z.basis_element(gz))
            return emit(y.zero(), {(k, g2): q for g2, q in res.coeffs.items()})
        j, gz = bi
        k, gw = bj
        u = z.multiply(z.basis_element(gz), z.basis_element(gw))
        amb, ep = reduce_epower(j + k, u)
        return emit(amb, ep)

    algebra = algebra_from_products(dims, labels, products)
    e_class = algebra.basis_element(ze_to_res[(1, 0)])
    y_embed = GradedMap.from_images(
        y, algebra, 0, [algebra.basis_element(y_to_res[g2]) for g2 in range(y.total_dim)]
    )
    z_embeds = {
        k: GradedMap.from_images(
            z,
            algebra,
            k,
            [
                algebra.basis_element(ze_to_res[(k, g2)])
                if (k, g2) in ze_to_res
                else algebra.zero()
                for g2 in range(z.total_dim)
            ],
        )
        for k in range(1, c)
    }
    result = BlowupResult(algebra, e_class, c, tuple(blocks), y_embed, z_embeds, name)
    _verify_blowup_relations(result, y, z, pullback, chern)
    return result


def _verify_blowup_relations(result, y, z, pullback, chern):
    """Assert the monic relation in -E and the annihilation of the
    restriction kernel by E; failure signals inconsistent input data."""
    alg = result.algebra
    c = result.codim
    neg_e = -result.e_class
    acc = alg.unit()
    powers = [acc]
    for _ in range(c):
        acc = alg.multiply(acc, neg_e)
        powers.append(acc)
    rel = powers[c]
    for i, ci in enumerate(chern, start=1):
        rel = rel + alg.multiply(result.y_embed.apply(ci), powers[c - i])
    if not rel.is_zero():
        raise InputError(f"monic relation fails in the blow-up ring: {rel!r}")
    for k in range(y.top_degree + 1):
        for ker in pullback.kernel_elements(k):
            prod = alg.multiply(result.y_embed.apply(ker), result.e_class)
            if not prod.is_zero():
                raise InputError(
                    f"kernel class {ker!r} does not annihilate the exceptional class"
                )


@dataclass
class ProjectiveBundle:
    algebra: GradedAlgebra
    xi_class: Element
    rank: int
    blocks: tuple  # per global index: (k, gz)
    z_embeds: dict


def bundle_result(z: GradedAlgebra, chern, *, name: str = "xi") -> ProjectiveBundle:
    """Ring of the projectivization of a rank-r bundle on ``z`` with Chern
    classes ``chern`` = [c_1 .. c_r] (Elements of z)."""
    r = len(chern)
    if r < 1:
        raise InputError("bundle rank must be >= 1")
    for i, ci in enumerate(chern, start=1):
        if not ci.is_zero() and (ci.alg is not z or ci.degree() != i):
            raise InputError(f"Chern class {i} malformed")
    if r == 1:
        return ProjectiveBundle(
            algebra=z,
            xi_class=-chern[0],
            rank=1,
            blocks=tuple((0, g) for g in range(z.total_dim)),
            z_embeds={0: GradedMap.identity(z)},
        )
    top = z.top_degree + r - 1
    dims, labels, blocks = [], [], []
    ze_to_res = {}
    g = 0
    for i in range(top + 1):
        lab = []
        n = 0
        for k in range(r):
            zdeg = i - k
            if 0 <= zdeg <= z.top_degree:
                for gz in z.global_indices(zdeg):
                    ze_to_res[(k, gz)] = g
                    lab.append(
                        z.label_of(gz) if k == 0 else block_label(name, z.label_of(gz), k)
                    )
                    blocks.append((k, gz))
                    n += 1
                    g += 1
        dims.append(n)
        labels.append(lab)

    def reduce_xipower(m: int, u: Element) -> dict:
        out: dict = {}
        stack = [(m, u)]
        while stack:
            mm, uu = stack.pop()
            if uu.is_zero():
                continue
            if mm < r:
                for gz, q in uu.coeffs.items():
                    key = (mm, gz)
                    out[key] = out.get(key, ZERO) + q
                continue
            for i, ci in enumerate(chern, start=1):
                term = z.multiply(uu, ci)
                if not term.is_zero():
                    stack.append((mm - i, -term))
        return out

    def products(gi, gj):
        j, gz = blocks[gi]
        k, gw = blocks[gj]
        u = z.multiply(z.basis_element(gz), z.basis_element(gw))
        ep = reduce_xipower(j + k, u)
        out = {}
        for key, q in ep.items():
            if key in ze_to_res:
                out[ze_to_res[key]] = out.get(ze_to_res[key], ZERO) + q
            elif q:
                raise InputError("bundle reduction left an out-of-range block")
        return out

    algebra = algebra_from_products(dims, labels, products)
    xi = algebra.basis_element(ze_to_res[(1, 0)])
    z_embeds = {
        k: GradedMap.from_images(
            z,
            algebra,
            k,
            [
                algebra.basis_element(ze_to_res[(k, g2)])
                if (k, g2) in ze_to_res
                else algebra.zero()
                for g2 in range(z.total_dim)
            ],
        )
        for k in range(r)
    }
    return ProjectiveBundle(algebra, xi, r, tuple(blocks), z_embeds)


def projective_bundle(z: GradedAlgebra, chern, *, name: str = "xi") -> GradedAlgebra:
    """Projective-bundle ring; socle shifts up by rank - 1."""
    return bundle_result(z, chern, name=name).algebra


@dataclass
class PropagationReport:
    kind: str
    input_verdicts: dict
    output_verdict: PdVerdict | None
    equivalence_ok: bool
    block_ok: bool
    hypothesis_problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.equivalence_ok and self.block_ok and not self.hypothesis_problems


def _block_pattern_ok(result: BlowupResult, sp) -> bool:
    """Pairing blocks between exceptional powers j and k must vanish when
    j + k < c, except the ambient-ambient block; this is the triangular
    shape of the pairing matrix under the canonical block order."""
    alg = result.algebra
    d = sp.degree
    c = result.codim

    def tag(bl):
        return 0 if bl[0] == "Y" else bl[0]

    for i in range(d + 1):
        gram = sp.gram(i)
        rows = list(alg.global_indices(i))
        cols = list(alg.global_indices(d - i))
        for ri, gr in enumerate(rows):
            j = tag(result.blocks[gr])
            for ci, gc in enumerate(cols):
                k = tag(result.blocks[gc])
                if j + k < c and (j, k) != (0, 0) and gram[ri][ci] != 0:
                    return False
    return True


def check_blowup_propagation(
    y: GradedAlgebra,
    z: GradedAlgebra,
    result: BlowupResult,
    socle_degree: int,
) -> PropagationReport:
    """Duality transfers along a blow-up: the output has a perfect pairing
    exactly when both inputs do (given a nonzero center class).  A violation
    raises, because it can only be a bug or data that slipped validation."""
    problems = []
    c = result.codim
    sy = socle_check(y, socle_degree)
    sz = socle_check(z, socle_degree - c)
    so = socle_check(result.algebra, socle_degree)
    for tag2, rep in (("ambient", sy), ("center", sz), ("output", so)):
        if not rep.ok:
            problems.append(f"{tag2}: " + "; ".join(rep.problems))
    if problems:
        return PropagationReport("blow_up", {}, None, True, True, problems)
    verdicts = {"ambient": pd_verdict(sy.pairing), "center": pd_verdict(sz.pairing)}
    out = pd_verdict(so.pairing)
    expected = verdicts["ambient"].is_pd and verdicts["center"].is_pd
    equiv = out.is_pd == expected
    block_ok = c == 1 or _block_pattern_ok(result, so.pairing)
    report = PropagationReport("blow_up", verdicts, out, equiv, block_ok, [])
    if not equiv:
        raise InvariantViolation(
            f"duality equivalence violated for a blow-up: inputs "
            f"(ambient={verdicts['ambient'].is_pd}, center={verdicts['center'].is_pd}) "
            f"vs output={out.is_pd}"
        )
    if not block_ok:
        raise InvariantViolation("pairing blocks violate the triangular pattern")
    return report


def check_bundle_propagation(
    z: GradedAlgebra, bundle: ProjectiveBundle, socle_degree: int
) -> PropagationReport:
    """Duality transfers along a projective bundle (socle shifted by r-1)."""
    problems = []
    sz = socle_check(z, socle_degree)
    so = socle_check(bundle.algebra, socle_degree + bundle.rank - 1)
    for tag2, rep in (("base", sz), ("output", so)):
        if not rep.ok:
            problems.append(f"{tag2}: " + "; ".join(rep.problems))
    if problems:
        return PropagationReport("projective_bundle", {}, None, True, True, problems)
    verdicts = {"base": pd_verdict(sz.pairing)}
    out = pd_verdict(so.pairing)
    equiv = out.is_pd == verdicts["base"].is_pd
    report = PropagationReport("projective_bundle", verdicts, out, equiv, True, [])
    if not equiv:
        raise InvariantViolation(
            f"duality equivalence violated for a projective bundle: base="
            f"{verdicts['base'].is_pd} vs output={out.is_pd}"
        )
    return report
