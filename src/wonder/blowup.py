"""Single-step constructions: the ring of a blow-up along one center and of
a projective bundle, plus duality-propagation checks.

One builder makes both rings on the additive decomposition

    ambient part  +  (center part) * t^k,   k < n,

and reduces the powers of t over the center by one monic relation.  A
blow-up along a center of codimension c has t = E, n = c, k >= 1 and the
relation of Keel's formula, whose last term goes into the ambient part
through the pushforward.  Both defining relations of its quotient
presentation are verified on the output: the monic relation, and the
annihilation of the restriction kernel by E through E * a = i_1(a|_Z) on
each ambient basis class a, which implies it with no kernel basis; the
only elimination of the pullback is ``section_of``'s.  A projective
bundle of rank r has t = xi, n = r, k >= 0 and no ambient part.

The builder hands ``Structure.from_products`` only the pairs whose product
can be nonzero, and reduces each power of t times a center basis class
once, since the reduction is linear in the class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from wonder.algebra import (
    Element,
    GradedAlgebra,
    GradedMap,
    PdVerdict,
    Structure,
    _image,
    _product,
    pd_verdict,
    section_of,
    socle_check,
)
from wonder.errors import InputError, InvariantViolation
from wonder.exact_linalg import ONE, ZERO


def block_label(name: str, zlabel: str, k: int) -> str:
    """Label of the center class ``zlabel`` times t^k, t the class ``name``;
    block 0 (a bundle's) keeps the bare center labels."""
    if k == 0:
        return zlabel
    power = name if k == 1 else f"{name}^{k}"
    return power if zlabel == "1" else f"{zlabel}*{power}"


def _check_chern(chern, alg: GradedAlgebra, what: str):
    """Each chern[i - 1] is zero or a class of ``alg`` of degree i."""
    for i, ci in enumerate(chern, start=1):
        if ci.coeffs and (ci.alg is not alg or any(alg.degree_of(g) != i for g in ci.coeffs)):
            raise InputError(f"{what} {i} malformed")


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
    try:
        section = section_of(pullback)
    except InputError:
        raise InputError("pullback is not surjective; no valid Chern lift exists") from None
    if pushforward.source is not z or pushforward.target is not y:
        raise InputError("pushforward endpoints wrong")
    if pushforward.shift != c:
        raise InputError("pushforward shift must equal the codimension")
    _check_chern(chern, y, "Chern coefficient")

    pushed, top = pushforward.columns, chern[-1].coeffs
    if top != pushed[0]:
        raise InputError(
            "constant Chern term differs from the pushforward of the unit: "
            f"{chern[-1]!r} vs {y.element(pushed[0])!r}"
        )
    # the reduction built from the pushforward must agree with the one
    # obtained by lifting and multiplying with the constant term
    for gz, lift in enumerate(section.columns):
        via_lift = _product(y, lift, top)
        if pushed[gz] != via_lift:
            raise InputError(
                "inconsistent center data: pushforward and lifted "
                f"reduction disagree on {z.label_of(gz)!r} "
                f"({y.element(pushed[gz])!r} vs {y.element(via_lift)!r})"
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

    # E^c = sum_i (-1)^(i+1) c_i E^(c-i); the last term, at E^0, is the
    # pushforward of the center class it multiplies
    signs = [ONE if i % 2 else -ONE for i in range(1, c + 1)]
    algebra, e_class, blocks, y_embed, z_embeds = _block_ring(
        z,
        [pullback.apply(ci).scale(s) for ci, s in zip(chern, signs)],
        name,
        y=y,
        pullback=pullback,
        to_y=[{h: signs[-1] * v for h, v in col.items()} for col in pushed],
    )
    result = BlowupResult(algebra, e_class, c, blocks, y_embed, z_embeds, name)
    _verify_blowup_relations(result, y, pullback, chern)
    return result


def _block_ring(z, chern, name, *, y=None, pullback=None, to_y=None):
    """The ring spanned by the blocks z * t^k, k < n = len(chern), after a
    block of ``y`` when one is given (a blow-up: then k >= 1 and t = E),
    with powers of t reduced over ``z`` by

        t^n = chern[0] t^(n-1) + ... + chern[n-1],   chern[i] classes of z.

    The last term of t^n * u, which reaches exponent 0, is ``to_y[g]`` in
    ``y`` for a blow-up and u = g a basis class of ``z``, and lands in
    block 0 for a bundle.  A class of ``y`` multiplies the blocks through
    ``pullback``.

    The product table holds only the pairs whose product can be nonzero:
    the products of ``y`` read off its rows, a class of ``y`` times a block
    only when its pullback is nonzero, and block pairs up to the top
    degree.  Reducing u * t^m is linear in u, so each (m, basis class of
    z) is reduced once and kept.  Returns the algebra, the class t, the
    block of each index, the embedding of ``y`` (None for a bundle) and the
    embeddings of ``z`` by block."""
    n = len(chern)
    tags = range(0 if y is None else 1, n)
    top = z.top_degree + n - 1 if y is None else y.top_degree
    blocks, dims, labels = [], [], []
    for i in range(top + 1):
        row = [("Y", g) for g in (() if y is None else y.global_indices(i))]
        row += [(k, g) for k in tags for g in z.global_indices(i - k)]
        blocks += row
        dims.append(len(row))
        labels.append(
            [
                y.label_of(g) if k == "Y" else block_label(name, z.label_of(g), k)
                for k, g in row
            ]
        )
    index = {block: g for g, block in enumerate(blocks)}
    deg = [i for i, d in enumerate(dims) for _ in range(d)]

    def place(out: dict, tag, coeffs):
        """Add the coefficients of a class of block ``tag`` to ``out``."""
        for g, q in coeffs.items():
            h = index.get((tag, g))
            if h is None:
                what = "reduction" if y is not None else "bundle reduction"
                raise InputError(f"{what} left an out-of-range block")
            out[h] = out.get(h, ZERO) + q
        return out

    powers: dict = {}

    def power(m: int, g: int) -> dict:
        """t^m times the basis class g of z, in result indices."""
        out = powers.get((m, g))
        if out is None:
            out = {}
            if m < n:
                place(out, m, {g: ONE})
            else:
                for i, ci in enumerate(chern, start=1):
                    if i == m and to_y is not None:
                        place(out, "Y", to_y[g])
                        continue
                    for h, q in _product(z, {g: ONE}, ci.coeffs).items():
                        for k, v in power(m - i, h).items():
                            out[k] = out.get(k, ZERO) + q * v
            out = powers[(m, g)] = {k: v for k, v in out.items() if v}
        return out

    def reduce(m: int, coeffs: dict) -> dict:
        """u * t^m, u the class of z with these coefficients."""
        out: dict = {}
        for g, q in coeffs.items():
            for k, v in power(m, g).items():
                out[k] = out.get(k, ZERO) + q * v
        return {k: v for k, v in out.items() if v}

    # the nonzero products by (a, b), a <= b; cells are the block classes
    # but a bundle's unit, whose products are implicit
    table = {}
    cells = [(b, k, g) for b, (k, g) in enumerate(blocks) if k != "Y" and b]
    if y is not None:
        for ga, row in enumerate(y.structure.rows[1:], start=1):
            a = index[("Y", ga)]
            for gb, prod in row.items():
                if gb >= ga:
                    table[a, index[("Y", gb)]] = {index[("Y", h)]: q for h, q in prod.items()}
            lifted = pullback.columns[ga]
            if lifted:
                for b, k, gw in cells:
                    if deg[a] + deg[b] > top:
                        break
                    table[min(a, b), max(a, b)] = reduce(k, _product(z, lifted, {gw: ONE}))
    for i, (a, j, gu) in enumerate(cells):
        for b, k, gw in cells[i:]:
            if deg[a] + deg[b] > top:
                break
            prod = z.product_basis(gu, gw)
            if prod:
                table[a, b] = reduce(j + k, prod)
    # rows in ascending (a, b) order, so each row dict keeps its key order
    algebra = GradedAlgebra.on(Structure.from_products(dims, sorted(table.items())), labels)

    def embed(source, tag, shift):
        cols = [{index[tag, g]: ONE} if (tag, g) in index else {} for g in range(source.total_dim)]
        return GradedMap(source, algebra, shift, cols)

    y_embed = None if y is None else embed(y, "Y", 0)
    z_embeds = {k: embed(z, k, k) for k in tags}
    return algebra, algebra.basis_element(index[(1, 0)]), tuple(blocks), y_embed, z_embeds


def _verify_blowup_relations(result, y, pullback, chern):
    """Assert the monic relation in -E and, for every basis class a of
    ``y``, E * a = i_1(a|_Z), where i_1 places a center class in the block
    of E^1 (zero above the top degree); failure signals inconsistent input
    data.

    The second identity implies that E annihilates the restriction kernel
    with no kernel basis, so with no elimination: both sides are linear in
    a, so k|_Z = 0 gives E * k = i_1(k|_Z) = 0.  It is at least as strict
    as checking E * k = 0 on a kernel basis."""
    alg, c, e = result.algebra, result.codim, result.e_class.coeffs
    powers = [{0: ONE}]  # the powers of -E
    for _ in range(c):
        powers.append(_product(alg, powers[-1], {g: -q for g, q in e.items()}))
    rel, y_cols = dict(powers[c]), result.y_embed.columns
    for i, ci in enumerate(chern, start=1):
        for h, q in _product(alg, _image(y_cols, ci.coeffs), powers[c - i]).items():
            rel[h] = rel.get(h, ZERO) + q
    if any(rel.values()):
        raise InputError(f"monic relation fails in the blow-up ring: {alg.element(rel)!r}")
    for ga, col in enumerate(y_cols):
        times_e = _product(alg, col, e)
        restricted = _image(result.z_embeds[1].columns, pullback.columns[ga])
        if times_e != restricted:
            raise InputError(
                f"ambient class {y.label_of(ga)!r} times the exceptional class is "
                f"{alg.element(times_e)!r}, not its restriction {alg.element(restricted)!r}"
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
    _check_chern(chern, z, "Chern class")
    if r == 1:
        return ProjectiveBundle(
            algebra=z,
            xi_class=-chern[0],
            rank=1,
            blocks=tuple((0, g) for g in range(z.total_dim)),
            z_embeds={0: GradedMap.identity(z)},
        )
    algebra, xi, blocks, _, z_embeds = _block_ring(z, [-ci for ci in chern], name)
    return ProjectiveBundle(algebra, xi, r, blocks, z_embeds)


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
        cols = alg.global_indices(d - i)
        for gr, row in zip(alg.global_indices(i), gram):
            j = tag(result.blocks[gr])
            for ci in row:
                k = tag(result.blocks[cols[ci]])
                if j + k < c and (j, k) != (0, 0):
                    return False
    return True


def _propagation(kind, what, inputs, output, block_check=None) -> PropagationReport:
    """Socle checks of the ``inputs`` ({tag: (algebra, socle degree)}) and
    of the output, then their duality verdicts: the output has a perfect
    pairing exactly when every input does.  A violation raises, because it
    can only be a bug or data that slipped validation."""
    reports = {tag: socle_check(*arg) for tag, arg in {**inputs, "output": output}.items()}
    problems = [f"{tag}: " + "; ".join(rep.problems) for tag, rep in reports.items() if not rep.ok]
    if problems:
        return PropagationReport(kind, {}, None, True, True, problems)
    pairing = reports.pop("output").pairing
    verdicts = {tag: pd_verdict(rep.pairing) for tag, rep in reports.items()}
    out = pd_verdict(pairing)
    equiv = out.is_pd == all(v.is_pd for v in verdicts.values())
    block_ok = block_check is None or block_check(pairing)
    if not equiv:
        inputs_pd = ", ".join(f"{tag}={v.is_pd}" for tag, v in verdicts.items())
        raise InvariantViolation(
            f"duality equivalence violated for {what}: inputs ({inputs_pd}) vs output={out.is_pd}"
        )
    if not block_ok:
        raise InvariantViolation("pairing blocks violate the triangular pattern")
    return PropagationReport(kind, verdicts, out, equiv, block_ok, [])


def check_blowup_propagation(
    y: GradedAlgebra,
    z: GradedAlgebra,
    result: BlowupResult,
    socle_degree: int,
) -> PropagationReport:
    """Duality transfers along a blow-up: the output has a perfect pairing
    exactly when both inputs do (given a nonzero center class)."""
    return _propagation(
        "blow_up",
        "a blow-up",
        {"ambient": (y, socle_degree), "center": (z, socle_degree - result.codim)},
        (result.algebra, socle_degree),
        None if result.codim == 1 else lambda sp: _block_pattern_ok(result, sp),
    )


def check_bundle_propagation(
    z: GradedAlgebra, bundle: ProjectiveBundle, socle_degree: int
) -> PropagationReport:
    """Duality transfers along a projective bundle (socle shifted by r-1)."""
    return _propagation(
        "projective_bundle",
        "a projective bundle",
        {"base": (z, socle_degree)},
        (bundle.algebra, socle_degree + bundle.rank - 1),
    )
