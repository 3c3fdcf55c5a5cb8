"""Duality verdicts, discrepancy accounting across burrows and pairing-block
structure for any diagram with a built ring."""

from __future__ import annotations

from dataclasses import dataclass, field

from wonder.algebra import PdVerdict, pd_verdict, socle_check
from wonder.diagram import BurrowDiagram
from wonder.engine import WonderRing
from wonder.errors import InputError, InvariantViolation
from wonder.exact_linalg import rank_rows
from wonder.nests import standard_bound


@dataclass
class EquivalenceReport:
    ring_verdict: PdVerdict
    burrow_verdicts: dict
    equivalence_ok: bool
    failing_burrows: list

    @property
    def ok(self) -> bool:
        return self.equivalence_ok

    def summary(self) -> str:
        lines = [
            f"ring: {'PD' if self.ring_verdict.is_pd else 'not PD'} "
            f"(discrepancies {' '.join(str(x) for x in self.ring_verdict.discrepancies)})"
        ]
        for b, v in sorted(self.burrow_verdicts.items()):
            lines.append(f"burrow {b}: {'PD' if v.is_pd else 'not PD'}")
        if self.failing_burrows:
            lines.append("failing burrows: " + ", ".join(self.failing_burrows))
        lines.append(f"equivalence: {'holds' if self.equivalence_ok else 'VIOLATED'}")
        return "\n".join(lines)


def pd_equivalence_report(diagram: BurrowDiagram, ring: WonderRing) -> EquivalenceReport:
    """Verdicts for every burrow and for the ring, asserting that the ring
    has a perfect pairing exactly when every burrow does."""
    d = diagram.socle_degree
    burrow_verdicts = {}
    for b in diagram.burrows.values():
        rep = socle_check(b.algebra, d - b.codim)
        if not rep.ok:
            raise InputError(f"burrow {b.id} fails its socle check: {rep.problems}")
        burrow_verdicts[b.id] = pd_verdict(rep.pairing)
    ring_v = pd_verdict(ring.pairing())
    all_burrows_pd = all(v.is_pd for v in burrow_verdicts.values())
    ok = ring_v.is_pd == all_burrows_pd
    failing = sorted(b for b, v in burrow_verdicts.items() if not v.is_pd)
    report = EquivalenceReport(ring_v, burrow_verdicts, ok, failing)
    if not ok:
        raise InvariantViolation(
            "duality equivalence violated on a validated diagram: ring "
            f"{'PD' if ring_v.is_pd else 'non-PD'} vs burrows "
            f"{'all PD' if all_burrows_pd else 'failing: ' + ', '.join(failing)}"
        )
    return report


@dataclass
class BlockReport:
    ok: bool
    block_order: list  # summand keys in the triangularizing order
    nonzero_blocks: list  # ((summand a, degree), (summand b, degree))
    violations: list = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"{len(self.nonzero_blocks)} nonzero pairing blocks"]
        for (sa, ka), (sb, kb) in self.nonzero_blocks:
            lines.append(f"  deg {ka} {sa} x deg {kb} {sb}")
        for v in self.violations:
            lines.append(f"  VIOLATION: {v}")
        lines.append(f"result: {'pass' if self.ok else 'fail'}")
        return "\n".join(lines)


def _summand_key(ring: WonderRing, si: int):
    s = ring.summands[si]
    return (s.nest.sorted_ids(), s.mu.assignment)


def block_structure_check(diagram: BurrowDiagram, ring: WonderRing) -> BlockReport:
    """Every nonzero pairing block must join two summands over the same nest
    with exponents summing to at least the codimension bound; reports the
    triangularizing order (nest, then norm descending on the far side)."""
    sp = ring.pairing()
    alg = sp.algebra
    d = diagram.socle_degree
    nonzero = []
    violations = []
    for k in range(d + 1):
        cols = alg.global_indices(d - k)
        seen = set()
        for gi, row in zip(alg.global_indices(k), sp.gram(k)):
            si = ring.basis[gi][1]
            for gj, q in zip(cols, row):
                if q == 0:
                    continue
                sj = ring.basis[gj][1]
                pair = (si, sj)
                sa, sb = ring.summands[si], ring.summands[sj]
                if pair not in seen:
                    seen.add(pair)
                    nonzero.append(
                        ((_summand_key(ring, si), k), (_summand_key(ring, sj), d - k))
                    )
                if sa.nest.elements != sb.nest.elements:
                    violations.append(
                        f"distinct nests pair at degree {k}: "
                        f"{sa.nest.sorted_ids()} vs {sb.nest.sorted_ids()}"
                    )
                    continue
                for x in sa.nest.elements:
                    bound = standard_bound(diagram, x, sa.nest.elements)
                    if sa.mu.value(x) + sb.mu.value(x) < bound:
                        violations.append(
                            f"exponent bound fails at degree {k} for {x}: "
                            f"{sa.mu.value(x)}+{sb.mu.value(x)} < {bound}"
                        )
    order = sorted(
        range(len(ring.summands)),
        key=lambda si: (
            ring.summands[si].nest.sorted_ids(),
            -ring.summands[si].mu.norm,
        ),
    )
    report = BlockReport(
        not violations,
        [_summand_key(ring, si) for si in order],
        nonzero,
        violations,
    )
    if violations:
        raise InvariantViolation(
            "pairing block structure violated: " + "; ".join(violations[:4])
        )
    return report


@dataclass
class DiscrepancyReport:
    ring_discrepancies: tuple
    block_discrepancies: dict  # (summand key, ring degree) -> discrepancy
    sums_match: bool
    certified: bool
    details: list = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            "ring discrepancies: "
            + " ".join(str(x) for x in self.ring_discrepancies)
        ]
        for (key, deg), disc in sorted(self.block_discrepancies.items()):
            if disc:
                lines.append(f"  block {key} at degree {deg}: {disc}")
        lines.append(
            f"block accounting: {'matches' if self.sums_match else 'MISMATCH'}"
            f" ({'certified' if self.certified else 'not certified'})"
        )
        return "\n".join(lines)


def discrepancy_table(diagram: BurrowDiagram, ring: WonderRing) -> DiscrepancyReport:
    """Per-degree discrepancies of the ring and of the diagonal pairing
    blocks; under a certified block-triangular structure the ring numbers
    must equal the block sums degree by degree."""
    sp = ring.pairing()
    alg = sp.algebra
    d = diagram.socle_degree
    ring_v = pd_verdict(sp)

    try:
        block_structure_check(diagram, ring)
        certified = True
    except InvariantViolation:
        certified = False

    # partner of (N, mu) is (N, bound - mu); diagonal blocks pair them
    by_key = {
        (s.nest.elements, s.mu.assignment): si for si, s in enumerate(ring.summands)
    }
    partner = {}
    for si, s in enumerate(ring.summands):
        comp = tuple(
            sorted(
                (x, standard_bound(diagram, x, s.nest.elements) - k)
                for x, k in s.mu.assignment
            )
        )
        partner[si] = by_key.get((s.nest.elements, comp))

    block_disc = {}
    sums = [0] * (d + 1)
    details = []
    for k in range(d + 1):
        gram = sp.gram(k)
        rows = alg.global_indices(k)
        cols = alg.global_indices(d - k)
        for si in set(ring.basis[g][1] for g in rows):
            sj = partner[si]
            sub_rows = [g for g in rows if ring.basis[g][1] == si]
            if sj is None:
                sums[k] += len(sub_rows)
                details.append(
                    f"summand {_summand_key(ring, si)} has no complementary partner"
                )
                continue
            sub_cols = [g for g in cols if ring.basis[g][1] == sj]
            sub = [
                [gram[g - rows.start][h - cols.start] for h in sub_cols]
                for g in sub_rows
            ]
            disc = len(sub_rows) - rank_rows(sub)
            block_disc[(_summand_key(ring, si), k)] = disc
            sums[k] += disc
    sums_match = list(ring_v.discrepancies) == sums
    return DiscrepancyReport(
        ring_v.discrepancies, block_disc, sums_match, certified, details
    )
