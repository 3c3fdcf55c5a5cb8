"""The benchmark's workloads: one pass of each runs the burrow-diagram
pipeline through the library's public calls and gates every output.

An operation is one listed public call.  It fails when it raises or when
its output check fails; a failed operation is counted, never fatal.  Each
pass has three timed stages: model (construction and its file), build (the
work of ``wonder build``) and verdict (everything after the ring text
exists).  The expected values come from outside the engine: closed-form
Poincare polynomials (``closed_forms``), the requested synthetic dimensions,
and the ring-file digests and model sizes in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import process_time

from wonder import algebra, duality, engine, fixtures, io, models, nests, oracle

from closed_forms import fm_poincare, keel_poincare

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

STAGES = ("model", "build", "verdict")
LAYERS = ("models", "io", "diagram", "nests", "engine", "algebra", "duality", "oracle")


class Ledger:
    """Outcome of every distinct operation of a run.  Repeating an operation
    in another pass does not add to the count; it counts as failed if any
    repetition failed."""

    def __init__(self):
        self.layer: dict[str, str] = {}  # operation -> layer
        self.failed: dict[str, str] = {}  # operation -> why it failed
        self.gate_failures: dict[str, str] = {}  # output checks that did not pass

    def record(self, what, layer, problem, gated):
        self.layer[what] = layer
        if problem and what not in self.failed:
            self.failed[what] = problem
            if gated:
                self.gate_failures[what] = problem

    def failed_in(self, layer):
        return sum(self.layer[what] == layer for what in self.failed)


class Pass:
    """One pass of a workload: the CPU seconds of each operation, by stage,
    and the pass's work counters.  Every pass builds its own objects."""

    def __init__(self, ledger: Ledger, tracer=None):
        self.ledger = ledger
        self.tracer = tracer
        self.times: dict[str, dict[str, float]] = {s: {} for s in STAGES}
        self.counters = Counter()
        self.spans = None  # summary of the pass's spans, in a traced run
        self._stage = STAGES[0]

    def stage(self, name: str, body):
        """Run ``body`` as stage ``name``; returns its result."""
        self._stage = name
        with self.tracer.span(f"bench.{name}") if self.tracer else nullcontext():
            return body()

    def op(self, layer: str, what: str, fn, check=None):
        """Run one operation; only the call itself is timed.  ``check``
        returns None when the output is right, else why not."""
        t0 = process_time()
        try:
            result = fn()
        except Exception as e:  # a failing operation is counted, not fatal
            self.times[self._stage][what] = process_time() - t0
            self.ledger.record(what, layer, f"{type(e).__name__}: {e}", check is not None)
            return None
        self.times[self._stage][what] = process_time() - t0
        problem = None
        if check is not None:
            try:
                problem = check(result)
            except Exception as e:  # a check that cannot run has not passed
                problem = f"check raised {type(e).__name__}: {e}"
        self.ledger.record(what, layer, problem, True)
        return result

    def count_products(self, alg):
        """Nonzero pair products (i <= j, unit included) and structure
        constants of a built ring; run outside the timed stages."""
        n = alg.total_dim
        for i in range(n):
            for j in range(i, n):
                p = alg.product_basis(i, j)
                if p:
                    self.counters["engine.nonzero_products"] += 1
                    self.counters["engine.structure_constants"] += len(p)


# -- output checks --------------------------------------------------------------


def _expect(label, got, want):
    got, want = list(got), list(want)
    return None if got == want else f"{label} {got} != {want}"


def _sha_check(name):
    want = EXPECTED["ring_sha256"][name]

    def check(text):
        got = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return None if got == want else f"ring text sha256 {got} != {want}"

    return check


def _size_check(name):
    want = EXPECTED["model_size"][name]

    def check(diagram):
        got = {"burrows": len(diagram.burrows), "edges": len(diagram.edges)}
        return None if got == want else f"model size {got} != {want}"

    return check


def _pd_check(verdict, dims):
    if not verdict.is_pd:
        return f"not PD, discrepancies {list(verdict.discrepancies)}"
    return _expect("discrepancies", verdict.discrepancies, [0] * len(dims))


def _broken_check(verdict, dims, k):
    d = len(dims) - 1
    want = [1 if i in (k, d - k) else 0 for i in range(d + 1)]
    if verdict.is_pd:
        return "broken algebra reported PD"
    return _expect("discrepancies", verdict.discrepancies, want)


def _ok(report, label):
    return None if report.ok else f"{label} failed"


# -- diagram workloads ----------------------------------------------------------


def _diagram_pass(p: Pass, name: str, make_model, dims, extra_verdict=None):
    top = len(dims) - 1

    def model_stage():
        model = p.op("models", "model", make_model, _size_check(name))
        return model, p.op("io", "dump_diagram", lambda: io.dump_diagram(model))

    def build_stage():
        dia = p.op("io", "load_diagram", lambda: io.load_diagram(text), _size_check(name))
        report = p.op("diagram", "validate", lambda: dia.validate(), lambda r: _ok(r, "validate"))
        p.op(
            "nests",
            "li_decomposition",
            lambda: nests.li_decomposition(dia),
            lambda r: _expect("poincare", r[1], dims),
        )
        ring = p.op("engine", "WonderRing", lambda: engine.WonderRing(dia), lambda r: _expect("ring dims", r.dims, dims))
        p.op("engine", "build_all_products", lambda: ring.build_all_products())
        alg = p.op("engine", "as_algebra", lambda: ring.as_algebra(), lambda a: _expect("algebra dims", a.dims, dims))
        ring_text = p.op("io", "dump_ring", lambda: io.dump_ring(alg, dia.socle_degree), _sha_check(name))
        return dia, report, ring, alg, ring_text

    def verdict_stage():
        loaded = p.op(
            "io",
            "load_ring",
            lambda: io.load_ring(ring_text),
            lambda r: _expect("loaded dims", r[0].dims, dims) or _expect("socle", [r[1]], [top]),
        )
        socle = p.op("algebra", "socle_check", lambda: algebra.socle_check(*loaded), lambda r: _ok(r, "socle check"))
        p.op("algebra", "pd_verdict", lambda: algebra.pd_verdict(socle.pairing), lambda v: _pd_check(v, dims))
        p.op(
            "duality",
            "pd_equivalence_report",
            lambda: duality.pd_equivalence_report(dia, ring),
            lambda r: _ok(r, "equivalence") or _pd_check(r.ring_verdict, dims),
        )
        p.op(
            "duality",
            "discrepancy_table",
            lambda: duality.discrepancy_table(dia, ring),
            lambda r: _expect("ring discrepancies", r.ring_discrepancies, [0] * len(dims))
            or (None if r.sums_match else "block sums do not match the ring"),
        )
        p.op("duality", "block_structure_check", lambda: duality.block_structure_check(dia, ring))
        p.op(
            "engine",
            "presentation_report",
            lambda: engine.presentation_report(ring),
            lambda r: _ok(r, "presentation report"),
        )
        if extra_verdict is not None:
            extra_verdict(p, ring)

    model, text = p.stage("model", model_stage)
    dia, report, ring, alg, ring_text = p.stage("build", build_stage)
    p.stage("verdict", verdict_stage)

    if report is not None:
        p.counters["diagram.checks"] += len(report.entries)
        p.counters["diagram.checks_failed"] += sum(not e.ok for e in report.entries)
    if model is not None:
        p.counters["models.burrows"] += len(model.burrows)
        p.counters["models.edges"] += len(model.edges)
    p.counters["io.bytes"] += sum(len(t.encode("utf-8")) for t in (text, ring_text) if t)
    if ring is not None:
        p.counters["nests.summands"] += len(ring.summands)
        p.counters["engine.basis"] += len(ring.basis)
    if alg is not None and p.tracer is not None:
        p.count_products(alg)


def _oracle_cross_check(p: Pass, ring):
    """The scripted keel --n 3 fixture against the ring the engine built."""
    dims = keel_poincare(6)
    fixture = p.op("oracle", "oracle_fixture", lambda: fixtures.oracle_fixture("keel", 3))
    p.op(
        "oracle",
        "run_oracle",
        lambda: oracle.run_oracle(fixture),
        lambda r: _expect("oracle dims", r.dims, dims)
        or (None if r.verdict is not None and r.verdict.is_pd else "oracle verdict not PD"),
    )
    p.op(
        "oracle",
        "compare_with_oracle",
        lambda: oracle.compare_with_oracle(ring, fixture),
        lambda r: _ok(r, "oracle compare"),
    )


def keel3(p: Pass, seed: int):
    _diagram_pass(p, "keel3", lambda: models.keel_model(3), keel_poincare(6), _oracle_cross_check)


def fmp2_4_min3(p: Pass, seed: int):
    _diagram_pass(
        p, "fmp2-4-min3", lambda: models.fm_power("p2", 4, min_size=3), fm_poincare(2, 4, min_size=3)
    )


# -- synthetic algebras -------------------------------------------------------------

SYNTH = (
    ((1, 6, 21, 6, 1), None),
    ((1, 5, 15, 15, 5, 1), None),
    ((1, 6, 22, 6, 1), 2),
    ((1, 5, 16, 16, 5, 1), 2),
)


def synth(p: Pass, seed: int):
    """Three seeds drawn from the benchmark seed; each makes two Gorenstein
    and two broken algebras, which go through the ring-file round trip and
    the duality verdict."""
    rnd = random.Random(seed)
    cases = [
        (f"{','.join(map(str, dims))}@{s}", dims, k, s)
        for s in [rnd.randrange(10**6) for _ in range(3)]
        for dims, k in SYNTH
    ]

    def make(dims, k, s):
        if k is None:
            return models.synthetic_gorenstein(dims, s)
        return models.synthetic_broken(dims, k, s)

    def model_stage():
        return [
            p.op("models", f"synth {tag}", lambda: make(dims, k, s), lambda a: _expect("dims", a.dims, dims))
            for tag, dims, k, s in cases
        ]

    def build_stage():
        return [
            p.op("io", f"dump_ring {tag}", lambda: io.dump_ring(alg, alg.top_degree))
            for (tag, *_), alg in zip(cases, algs)
        ]

    def verdict_stage():
        for (tag, dims, k, _), text in zip(cases, texts):
            loaded = p.op(
                "io",
                f"load_ring {tag}",
                lambda: io.load_ring(text),
                lambda r: _expect("loaded dims", r[0].dims, dims),
            )
            socle = p.op(
                "algebra",
                f"socle_check {tag}",
                lambda: algebra.socle_check(*loaded),
                lambda r: _ok(r, "socle check"),
            )
            p.op(
                "algebra",
                f"pd_verdict {tag}",
                lambda: algebra.pd_verdict(socle.pairing),
                lambda v: _pd_check(v, dims) if k is None else _broken_check(v, dims, k),
            )

    algs = p.stage("model", model_stage)
    texts = p.stage("build", build_stage)
    p.stage("verdict", verdict_stage)
    p.counters["io.bytes"] += sum(len(t.encode("utf-8")) for t in texts if t)


WORKLOADS = {"keel3": keel3, "fmp2-4-min3": fmp2_4_min3, "synth": synth}
