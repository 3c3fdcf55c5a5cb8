"""Duality verdicts, discrepancy accounting across burrows and pairing-block
structure for any diagram with a built ring.

The three reports read one record per ring, built on first use from
``ring.pairing()`` and kept on the ring: the ring's verdict (one rank per
degree pair), the nonzero summand pairs and block-structure violations of
one scan of the nonzero Gram entries, and each summand's rows in each
degree."""

from __future__ import annotations

from dataclasses import dataclass, field

from wonder.algebra import PdVerdict, pd_verdict, socle_check
from wonder.diagram import BurrowDiagram
from wonder.engine import WonderRing
from wonder.errors import InputError, InvariantViolation
from wonder.exact_linalg import sparse_rank
from wonder.nests import Summand, standard_bound


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
    has a perfect pairing exactly when every burrow does.  A burrow's
    verdict reads its structure and its socle degree only, so it is taken
    once per such pair and shared by the burrows that have it."""
    d = diagram.socle_degree
    burrow_verdicts, verdicts = {}, {}
    for b in diagram.burrows.values():
        key = (b.algebra.structure, d - b.codim)
        if key not in verdicts:
            rep = socle_check(b.algebra, d - b.codim)
            if not rep.ok:
                raise InputError(f"burrow {b.id} fails its socle check: {rep.problems}")
            verdicts[key] = pd_verdict(rep.pairing)
        burrow_verdicts[b.id] = verdicts[key]
    ring_v = _duality(ring).verdict
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


def _summand_key(s: Summand):
    return (s.nest.sorted_ids(), s.mu.assignment)


@dataclass
class _Duality:
    """What the reports read off ``ring.pairing()``, built once per ring."""

    verdict: PdVerdict
    nonzero: list  # BlockReport.nonzero_blocks, in scan order
    violations: list  # for each nonzero Gram entry in scan order, its pair's violations
    rows: list  # rows[k][summand index]: the summand's row positions in gram(k)


def _pair_violations(diagram: BurrowDiagram, sa: Summand, sb: Summand, k: int) -> list:
    if sa.nest.elements != sb.nest.elements:
        return [
            f"distinct nests pair at degree {k}: "
            f"{sa.nest.sorted_ids()} vs {sb.nest.sorted_ids()}"
        ]
    out = []
    for x in sa.nest.elements:
        bound = standard_bound(diagram, x, sa.nest.elements)
        if sa.mu.value(x) + sb.mu.value(x) < bound:
            out.append(
                f"exponent bound fails at degree {k} for {x}: "
                f"{sa.mu.value(x)}+{sb.mu.value(x)} < {bound}"
            )
    return out


def _duality(ring: WonderRing) -> _Duality:
    """The ring's duality record, built by the first report that asks."""
    if ring._duality is None:
        sp = ring.pairing()
        d = sp.degree
        owners = [[] for _ in range(d + 1)]  # owners[k][i]: summand of row i of gram(k)
        rows = [{} for _ in range(d + 1)]
        for k, si, *_ in ring.basis:
            rows[k].setdefault(si, []).append(len(owners[k]))
            owners[k].append(si)
        nonzero, violations = [], []
        for k in range(d + 1):
            pairs = {}  # summand pair -> its violations at degree k
            cols = owners[d - k]
            for si, row in zip(owners[k], sp.gram(k)):
                for j in row:
                    sj = cols[j]
                    if (si, sj) not in pairs:
                        sa, sb = ring.summands[si], ring.summands[sj]
                        pairs[si, sj] = _pair_violations(ring.diagram, sa, sb, k)
                        nonzero.append(((_summand_key(sa), k), (_summand_key(sb), d - k)))
                    violations.extend(pairs[si, sj])
        ring._duality = _Duality(pd_verdict(sp), nonzero, violations, rows)
    return ring._duality


def block_structure_check(diagram: BurrowDiagram, ring: WonderRing) -> BlockReport:
    """Every nonzero pairing block must join two summands over the same nest
    with exponents summing to at least the codimension bound; reports the
    triangularizing order (nest, then norm descending on the far side)."""
    data = _duality(ring)
    if data.violations:
        raise InvariantViolation(
            "pairing block structure violated: " + "; ".join(data.violations[:4])
        )
    order = sorted(ring.summands, key=lambda s: (s.nest.sorted_ids(), -s.mu.norm))
    return BlockReport(True, [_summand_key(s) for s in order], list(data.nonzero))


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
    data = _duality(ring)
    d = diagram.socle_degree

    # partner of (N, mu) is (N, bound - mu); diagonal blocks pair them
    by_key = {(s.nest.elements, s.mu.assignment): si for si, s in enumerate(ring.summands)}
    partner = {}
    for si, s in enumerate(ring.summands):
        comp = tuple(  # in element order, as every assignment is
            (x, standard_bound(diagram, x, s.nest.elements) - k) for x, k in s.mu.assignment
        )
        partner[si] = by_key.get((s.nest.elements, comp))

    block_disc = {}
    sums = [0] * (d + 1)
    details = []
    for k in range(d + 1):
        gram, cols = ring.pairing().gram(k), data.rows[d - k]
        for si, sub_rows in data.rows[k].items():
            sj = partner[si]
            if sj is None:
                sums[k] += len(sub_rows)
                details.append(
                    f"summand {_summand_key(ring.summands[si])} has no complementary partner"
                )
                continue
            block = set(cols.get(sj, ()))
            disc = len(sub_rows) - sparse_rank(
                {j: q for j, q in gram[i].items() if j in block} for i in sub_rows
            )
            block_disc[(_summand_key(ring.summands[si]), k)] = disc
            sums[k] += disc
    discs = data.verdict.discrepancies
    return DiscrepancyReport(
        discs, block_disc, list(discs) == sums, not data.violations, details
    )
