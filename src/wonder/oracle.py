"""Scripted oracle fixtures: replay a sequence of blow-up / bundle steps
from a fixture payload and compare the outcome against a built ring.

Step vectors reference the current ambient by basis label, so fixtures stay
valid as earlier steps extend the ring.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from wonder.algebra import (
    GradedAlgebra,
    GradedMap,
    adjoint_pushforward,
    pd_verdict,
    socle_check,
)
from wonder.blowup import block_label, blow_up, bundle_result
from wonder.engine import WonderRing
from wonder.errors import InputError
from wonder.exact_linalg import parse_rat
from wonder.io import ring_from_payload


@dataclass
class OracleRun:
    algebra: GradedAlgebra
    socle_degree: int
    steps: list  # (name, op, result object or algebra)
    verdict: object  # PdVerdict or None
    socle_problems: list = field(default_factory=list)

    @property
    def dims(self):
        return list(self.algebra.dims)


_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _field(obj: dict, key: str, kind: type, where: str, default=None):
    """``obj[key]`` (``default`` when absent and given), which must be a
    ``kind``, a bool not an int; anything else raises InputError naming the
    field."""
    if key not in obj and default is None:
        raise InputError(f"{where} lacks field {key!r}")
    value = obj.get(key, default)
    if type(value) is not kind:
        raise InputError(f"{where} field {key!r} is not {_KINDS[kind]}: {value!r}")
    return value


def _labelled(entries, width: int, what: str) -> list:
    """A list of ``width``-item lists whose items but the last are labels."""
    if not isinstance(entries, list):
        raise InputError(f"{what} {entries!r} is not a list")
    for entry in entries:
        if not (
            isinstance(entry, list)
            and len(entry) == width
            and all(type(x) is str for x in entry[:-1])
        ):
            raise InputError(f"malformed {what} entry {entry!r}")
    return entries


def _decode_map(payload_entries, source, target, where: str):
    """[target_label, source_label, coeff] triples into the columns of a
    degree-0 map; a (target, source) pair may appear once."""
    columns: list[dict] = [{} for _ in range(source.total_dim)]
    for tgt_label, src_label, q in _labelled(payload_entries, 3, "pullback"):
        column = columns[source.global_index(src_label)]
        h = target.global_index(tgt_label)
        if h in column:
            raise InputError(
                f"{where} field 'pullback' repeats the pair ({tgt_label!r}, {src_label!r})"
            )
        column[h] = parse_rat(q)
    return GradedMap(source, target, 0, columns)


def _chern(step: dict, alg: GradedAlgebra, where: str) -> list:
    """The Chern classes of a step, each a list of [label, coeff] pairs
    over the basis of ``alg`` that names a label once."""
    classes = []
    for i, vec in enumerate(_field(step, "chern", list, where), start=1):
        coeffs = {}
        for lbl, q in _labelled(vec, 2, "chern"):
            g = alg.global_index(lbl)
            if g in coeffs:
                raise InputError(f"{where} field 'chern' repeats basis label {lbl!r} in c{i}")
            coeffs[g] = parse_rat(q)
        classes.append(alg.element(coeffs))
    return classes


def run_oracle(payload: dict) -> OracleRun:
    """Apply the scripted steps to the base ring and report the final
    dimension vector and duality verdict."""
    base = _field(payload, "base", dict, "oracle fixture")
    current, socle = ring_from_payload({**base, "kind": "ring"})
    steps = []
    for n, step in enumerate(_field(payload, "steps", list, "oracle fixture")):
        where = f"oracle step {n}"
        if not isinstance(step, dict):
            raise InputError(f"{where} is not an object: {step!r}")
        op = step.get("op")
        if op not in ("blow_up", "projective_bundle"):
            raise InputError(f"unknown oracle step op {op!r}")
        name = _field(step, "name", str, where, "E")
        chern = _chern(step, current, where)
        if op == "projective_bundle":
            rank = _field(step, "rank", int, where, len(chern))
            if rank != len(chern):
                raise InputError(
                    f"{where} field 'rank' is {rank}, but field 'chern' has {len(chern)} classes"
                )
            result = bundle_result(current, chern, name=name)
            socle += result.rank - 1
        else:
            center_payload = _field(step, "center", dict, where)
            center, center_socle = ring_from_payload({**center_payload, "kind": "ring"})
            pull = _decode_map(_field(step, "pullback", list, where), current, center, where)
            if step.get("pushforward", "adjoint") != "adjoint":
                raise InputError("explicit pushforward payloads are not supported")
            sp_small = socle_check(center, center_socle).pairing
            sp_big = socle_check(current, socle).pairing
            if sp_small is None or sp_big is None:
                raise InputError("adjoint pushforward needs perfect pairings")
            push = adjoint_pushforward(pull, sp_small, sp_big)
            result = blow_up(current, center, pull, push, chern, name=name)
        current = result.algebra
        steps.append((name, op, result))
    rep = socle_check(current, socle)
    verdict = pd_verdict(rep.pairing) if rep.ok else None
    return OracleRun(current, socle, steps, verdict, rep.problems)


@dataclass
class CompareReport:
    dims_ok: bool
    ring_dims: list
    oracle_dims: list
    products_checked: int | None  # None: no correspondence, or the dims differ
    products_ok: bool
    first_mismatch: str = ""

    @property
    def ok(self) -> bool:
        return self.dims_ok and self.products_ok

    def summary(self) -> str:
        lines = [
            f"ring dims:   {' '.join(str(x) for x in self.ring_dims)}",
            f"oracle dims: {' '.join(str(x) for x in self.oracle_dims)}",
        ]
        if self.products_checked is not None:
            verdict = "agree" if self.products_ok else "DISAGREE"
            lines.append(
                f"{self.products_checked} sampled products "
                f"{verdict if self.products_checked else 'checked'}"
            )
        if self.first_mismatch:
            lines.append(f"first mismatch: {self.first_mismatch}")
        lines.append(f"result: {'pass' if self.ok else 'fail'}")
        return "\n".join(lines)


def _correspondence_images(ring: WonderRing, run: OracleRun, entries):
    """Linear map from the ring basis into the oracle ring, declared by the
    fixture: ambient classes map by label, each listed summand maps onto one
    exceptional block."""
    alg = run.algebra
    images = {}
    block_of = {name: result for name, op, result in run.steps}
    for i, (deg, si, g, key, lbl) in enumerate(ring.basis):
        nest_ids, mu, _ = key
        if not nest_ids:
            amb_label = ring.diagram.ambient.algebra.label_of(g)
            images[i] = alg.from_labels({amb_label: 1})
    if not isinstance(entries, list):
        raise InputError(f"correspondence {entries!r} is not a list")
    for n, entry in enumerate(entries):
        where = f"correspondence entry {n}"
        if not isinstance(entry, dict):
            raise InputError(f"{where} {entry!r} is not an object")
        nest = _field(entry, "nest", list, where)
        if not all(type(x) is str for x in nest):
            raise InputError(f"{where} field 'nest' is not a list of labels: {nest!r}")
        mu = _labelled(_field(entry, "mu", list, where), 2, "correspondence mu")
        if not all(type(k) is int for _, k in mu):
            raise InputError(f"{where} field 'mu' has a non-integer exponent: {mu!r}")
        nest_ids = tuple(sorted(nest))
        mu = tuple(sorted(map(tuple, mu)))
        name = _field(entry, "step", str, where)
        if name not in block_of:
            raise InputError(f"{where} names no oracle step: {name!r}")
        power = _field(entry, "power", int, where)
        if power not in block_of[name].z_embeds:
            raise InputError(f"oracle step {name!r} has no block of power {power}")
        scale = parse_rat(entry.get("scale", "1"))
        basis_map = _field(entry, "basis_map", dict, where, {})
        for i, (deg, si, g, key, lbl) in enumerate(ring.basis):
            if key[0] != nest_ids or key[1] != mu:
                continue
            burrow_alg = ring.diagram.burrows[ring.summands[si].burrow].algebra
            blabel = burrow_alg.label_of(g)
            zlabel = basis_map.get(blabel, blabel)
            target_label = block_label(name, zlabel, power)
            images[i] = alg.from_labels({target_label: 1}).scale(scale)
    return images


def compare_with_oracle(
    ring: WonderRing, payload: dict, *, samples: int = 30, seed: int = 0
) -> CompareReport:
    """Dimension vectors must agree degree by degree; when the fixture
    declares a basis correspondence, it must carry sampled basis products to
    products."""
    if type(samples) is not int or samples < 0:
        raise InputError(f"sample count {samples!r} is not a nonnegative integer")
    run = run_oracle(payload)
    ring_dims = list(ring.dims)
    oracle_dims = run.dims
    dims_ok = ring_dims == oracle_dims
    first = ""
    if not dims_ok:
        for k, (a, b) in enumerate(zip(ring_dims, oracle_dims)):
            if a != b:
                first = f"dimension differs at degree {k}: {a} vs {b}"
                break
        else:
            first = "dimension vectors have different lengths"
    checked = None
    products_ok = True
    entries = payload.get("correspondence")
    if dims_ok and entries:
        checked = 0
        images = _correspondence_images(ring, run, entries)
        alg, ring_alg = run.algebra, ring.as_algebra()
        if len(images) != len(ring.basis):
            missing = [ring_alg.label_of(i) for i in range(len(ring.basis)) if i not in images]
            raise InputError(
                f"correspondence does not cover the basis: missing {missing[:4]}"
            )
        rnd = random.Random(seed)
        n = len(ring.basis)
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        rnd.shuffle(pairs)
        for i, j in pairs[:samples]:
            checked += 1
            lhs = alg.multiply(images[i], images[j])
            prod = ring_alg.product_basis(i, j)
            rhs = alg.zero()
            for k, q in prod.items():
                rhs = rhs + images[k].scale(q)
            if lhs != rhs:
                products_ok = False
                first = (
                    f"product {ring_alg.label_of(i)} * {ring_alg.label_of(j)} "
                    f"maps to {lhs!r}, ring gives {rhs!r}"
                )
                break
    return CompareReport(dims_ok, ring_dims, oracle_dims, checked, products_ok, first)
