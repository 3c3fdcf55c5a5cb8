#!/usr/bin/env python3
"""End-to-end benchmark of the burrow-diagram pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload keel3|fmp2-4-min3|synth --seed N \\
        --seconds S --trace 0|1

The workload runs in this process, single-threaded, against the library in
``src/``.  It repeats whole passes of the pipeline until ``--seconds`` have
been spent (at least two passes).  A stage's time is the sum over its
operations of each one's fastest pass, in CPU seconds scaled to a fixed
machine speed: every time is multiplied by ``REFERENCE_S`` over the fastest
time of ``reference()`` in the same run.  Every operation's output is
checked on every pass.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
library's public calls in spans (see ``spans.py``), reports the per-layer
metrics and writes the spans to ``perfbench/out/``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 15
MIN_PASSES = 2
# Fastest time of ``reference()`` on the machine the benchmark was built on
# (Intel Xeon vCPU, Python 3.11.7); times are reported at that speed.
REFERENCE_S = 0.125
REFERENCE_EVERY_S = 2.5  # one reference sample per this many seconds of run
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import wonder.cli\n"
    "print(repr(time.process_time()))\n"
)

# per-layer metric -> (unit, span names whose outermost calls it sums, field)
SPAN_METRICS = {
    "io.dump_s": ("s", ["io.dump_diagram", "io.dump_ring"], "s"),
    "io.load_s": ("s", ["io.load_diagram", "io.load_ring"], "s"),
    "diagram.validate_s": ("s", ["diagram.validate"], "s"),
    "algebra.ring_hom_s": ("s", ["algebra.is_ring_hom"], "s"),
    "algebra.ring_hom_calls": ("count", ["algebra.is_ring_hom"], "calls"),
    "algebra.projection_formula_s": ("s", ["algebra.projection_formula_holds"], "s"),
    "algebra.projection_formula_calls": ("count", ["algebra.projection_formula_holds"], "calls"),
    "algebra.compose_s": ("s", ["algebra.compose"], "s"),
    "algebra.compose_calls": ("count", ["algebra.compose"], "calls"),
    "nests.decompose_s": ("s", ["nests.li_decomposition"], "s"),
    "engine.init_s": ("s", ["engine.init"], "s"),
    "engine.products_s": ("s", ["engine.build_all_products"], "s"),
    "engine.as_algebra_s": ("s", ["engine.as_algebra"], "s"),
    "engine.presentation_s": ("s", ["engine.presentation_report"], "s"),
    "engine.basis_product_calls": ("count", ["engine.basis_product"], "calls"),
    "engine.rewrite_rule_calls": ("count", ["engine.rewrite_rule"], "calls"),
    "algebra.socle_s": ("s", ["algebra.socle_check"], "s"),
    "algebra.pd_verdict_s": ("s", ["algebra.pd_verdict"], "s"),
    "algebra.multiply_calls": ("count", ["algebra.multiply"], "calls"),
    "duality.equivalence_s": ("s", ["duality.pd_equivalence_report"], "s"),
    "duality.discrepancy_s": ("s", ["duality.discrepancy_table"], "s"),
    "duality.blocks_s": ("s", ["duality.block_structure_check"], "s"),
    "exact_linalg.calls": (
        "count",
        ["exact_linalg.rank_rows", "exact_linalg.nullspace_rows", "exact_linalg.solve_rows"],
        "calls",
    ),
    "kernels.bareiss_s": ("s", ["kernels.bareiss_echelon"], "s"),
    "kernels.bareiss_calls": ("count", ["kernels.bareiss_echelon"], "calls"),
    "oracle.run_s": ("s", ["oracle.run_oracle"], "s"),
    "oracle.compare_s": ("s", ["oracle.compare_with_oracle"], "s"),
}
# per-layer metric -> layer whose outermost spans it sums
LAYER_METRICS = {"models.s": "models", "exact_linalg.s": "exact_linalg"}
SELF_LAYERS = (
    "models", "io", "diagram", "nests", "engine", "algebra", "duality",
    "exact_linalg", "kernels", "oracle", "bench",
)
COUNTER_METRICS = {
    "models.burrows": "count",
    "models.edges": "count",
    "io.bytes": "B",
    "diagram.checks": "count",
    "diagram.checks_failed": "count",
    "nests.summands": "count",
    "engine.basis": "count",
    "engine.nonzero_products": "count",
    "engine.structure_constants": "count",
    "engine.rewrite_rule_distinct": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["keel3", "fmp2-4-min3", "synth"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def load_library():
    """Import the library from this checkout's ``src``; never an installed copy."""
    if not (SRC / "wonder" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import wonder.cli  # noqa: F401  (loads every module the CLI uses)
    import wonder

    if Path(wonder.__file__).resolve().parent != SRC / "wonder":
        raise SystemExit(f"error: imported wonder from {wonder.__file__}, not {SRC}")
    import workloads

    return workloads


def measure_setup() -> list[float]:
    """CPU seconds from the start of a fresh interpreter until ``wonder.cli``
    (and with it the package) is imported, as the interpreter reports them;
    one sample per probe, the first probe is a warm-up."""
    samples = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        if i:
            samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def reference() -> float:
    """CPU seconds of fixed pure-Python work that does not touch the library:
    the Betti numbers of P^2[8] from ``closed_forms``."""
    from closed_forms import fm_poincare

    gc.collect()
    gc.disable()
    try:
        t0 = time.process_time()
        fm_poincare(2, 8)
        return time.process_time() - t0
    finally:
        gc.enable()


def run_passes(workloads, name, seed, seconds, tracer, distinct):
    """Whole passes until ``seconds`` have gone by, at least ``MIN_PASSES``.
    Between passes ``reference()`` runs on a schedule, a number of times
    that depends only on ``seconds``, so that a faster library does not
    change how often the machine's speed is sampled.  Returns the ledger,
    the passes and the reference times."""
    n_refs = max(1, round(seconds / REFERENCE_EVERY_S))
    ledger = workloads.Ledger()
    passes, refs = [], []
    t_start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t_start < seconds:
        gc.collect()
        p = workloads.Pass(ledger, tracer)
        if tracer is None:
            workloads.WORKLOADS[name](p, seed)
        else:
            # only the last pass's spans are kept; earlier ones live on as summaries
            tracer.clear()
            with tracer.span("bench.pass"):
                workloads.WORKLOADS[name](p, seed)
            p.spans = tracer.summary()
        p.counters["engine.rewrite_rule_distinct"] = len(distinct)
        distinct.clear()
        passes.append(p)
        while len(refs) < min(n_refs, n_refs * (time.perf_counter() - t_start) / seconds):
            refs.append(reference())
    while len(refs) < n_refs:
        refs.append(reference())
    return ledger, passes, refs


def stage_times(workloads, passes):
    """Per stage, the sum over its operations of each one's fastest pass.
    Other load on a shared machine only ever adds time, so the fastest
    repetition is the steadiest estimate (the reasoning of ``timeit``)."""
    out = {}
    for stage in workloads.STAGES:
        ops = {op for p in passes for op in p.times[stage]}
        out[stage] = sum(min(p.times[stage][op] for p in passes if op in p.times[stage]) for op in ops)
    return out


def end_to_end(workloads, passes, setup, scale):
    best = stage_times(workloads, passes)
    setup_s = statistics.median(setup)
    return {
        "setup_s": (setup_s * scale, "s"),
        "model_s": (best["model"] * scale, "s"),
        "build_s": (best["build"] * scale, "s"),
        "verdict_s": (best["verdict"] * scale, "s"),
        "total_s": ((setup_s + sum(best.values())) * scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(workloads, ledger, passes, setup, scale):
    from spans import merge_summaries

    n = len(passes)
    summary = merge_summaries(p.spans for p in passes)
    names, layers = summary["names"], summary["layers"]
    out = {}
    for metric, (unit, spans, field) in SPAN_METRICS.items():
        out[metric] = (sum(names.get(s, {field: 0})[field] for s in spans) / n, unit)
    for metric, layer in LAYER_METRICS.items():
        out[metric] = (layers.get(layer, {"s": 0.0})["s"] / n, "s")
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = (layers.get(layer, {"self_s": 0.0})["self_s"] / n, "s")
    counters = sum((p.counters for p in passes), start=Counter())
    for metric, unit in COUNTER_METRICS.items():
        out[metric] = (counters[metric] / n, unit)
    for layer in workloads.LAYERS:
        out[f"{layer}.ops_failed"] = (ledger.failed_in(layer), "count")
    out["ops_failed_frac"] = (len(ledger.failed) / len(ledger.layer), "frac")
    traced = sum(stage_times(workloads, passes).values())
    out["trace.total_s"] = ((statistics.median(setup) + traced) * scale, "s")
    out["trace.spans"] = (summary["spans"] / n, "count")
    return out, summary


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = load_library()
    setup = measure_setup()

    tracer = restore = None
    distinct = set()
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        # distinct (ring, support, element) keys asked of rewrite_rule
        tracer.on_call["engine.rewrite_rule"] = lambda a: distinct.add((id(a[0]), a[1], a[2]))
        restore = tracer.install()
    try:
        ledger, passes, refs = run_passes(workloads, args.workload, args.seed, args.seconds, tracer, distinct)
    finally:
        if restore is not None:
            restore()

    scale = REFERENCE_S / min(refs)
    if args.trace:
        metrics, summary = per_layer(workloads, ledger, passes, setup, scale)
        metrics["bench.reference_s"] = (min(refs), "s")
    else:
        metrics = end_to_end(workloads, passes, setup, scale)

    attempted, failed = len(ledger.layer), len(ledger.failed)

    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} pass(es), trace {args.trace}")
    print(f"setup_s: median of {len(setup)} interpreter starts; stage times: sum over "
          f"operations of each one's fastest of {len(passes)} passes")
    raw = stage_times(workloads, passes)
    print(f"unscaled CPU seconds: setup {statistics.median(setup):.6f}, "
          + ", ".join(f"{k} {v:.6f}" for k, v in raw.items())
          + f"; reference fastest of {len(refs)} {min(refs):.6f} -> times scaled by {scale:.4f}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:34s} {value:16.6f} {unit}")
    for what, why in ledger.failed.items():
        print(f"  failed operation: {what}: {why}")
    print(f"output gate: {'pass' if not ledger.gate_failures else 'FAIL'}; "
          f"{failed} of {attempted} operations failed")

    if args.trace:
        OUT.mkdir(exist_ok=True)
        total = summary["layers"].get("bench", {"s": 0.0})["s"] or 1.0
        summary["self_share"] = {
            layer: entry["self_s"] / total for layer, entry in summary["layers"].items()
        }
        stem = OUT / f"trace-{args.workload}"
        tracer.write(
            stem.with_suffix(".json"),
            stem.with_suffix(".spans"),
            {"workload": args.workload, "seed": args.seed, "passes": len(passes),
             "summary": summary, "metrics": {k: v for k, (v, _) in metrics.items()}},
        )

    result = {
        "correct": not ledger.gate_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
