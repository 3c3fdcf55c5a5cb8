"""Command-line front door.

Subcommands compose through files or pipes carrying the structured-text
dialect; no hidden state.  Exit codes: 0 success, 1 validation/input
failure, 2 computation failure, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from wonder import duality, fixtures, io, models, oracle
from wonder.engine import build_ring, presentation_report
from wonder.errors import InputError, WonderError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise WonderError(f"cannot read {path}: {e}")


def _write(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_diagram(path: str):
    return io.load_diagram(_read(path))


def _build(args):
    diagram = _load_diagram(args.file)
    return diagram, build_ring(diagram, max_rewrites=args.max_rewrites)


def _add_common(p, *, rewrites: bool = False, out: bool = False, as_json: bool = False):
    p.add_argument("file", nargs="?", default="-", help="input file or - for stdin")
    if rewrites:
        p.add_argument(
            "--max-rewrites",
            type=int,
            default=None,
            help="cap on the rewrite steps of one normal-form call",
        )
    if out:
        p.add_argument("--out", default="-", help="output file or - for stdout")
    if as_json:
        p.add_argument("--json", action="store_true", help="machine-readable output")


def make_parser() -> _Parser:
    parser = _Parser(prog="wonder", description=__doc__)
    parser.add_argument("--version", action="store_true", help="print version")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("validate", help="check every hypothesis of a diagram")
    _add_common(p)

    p = sub.add_parser("model", help="emit a built-in diagram, algebra or fixture")
    p.add_argument(
        "name",
        choices=[
            "fm-p1",
            "fm-p2",
            "fm-curve",
            "keel",
            "synth",
            "fm-p1-oracle",
            "keel-oracle",
        ],
    )
    # no defaults here: a flag the model does not read is refused (_MODEL_FLAGS)
    p.add_argument("--n", type=int, help="number of coordinates (default 2)")
    p.add_argument("--min-size", type=int, help="fm-*: smallest diagonal size (default 2)")
    p.add_argument("--genus", type=int, help="fm-curve: genus, at least 2 (default 2)")
    p.add_argument("--dims", help="synth: dimension vector, e.g. 1,2,1")
    p.add_argument("--break", dest="break_at", type=int, help="synth: degree of the broken pairing")
    p.add_argument("--seed", type=int, help="synth: random seed (default 0)")
    p.add_argument("--out", default="-")

    p = sub.add_parser("build", help="construct the ring of a diagram")
    _add_common(p, rewrites=True, out=True)

    p = sub.add_parser("betti", help="dimension vector of a ring file")
    _add_common(p)

    p = sub.add_parser("decompose", help="additive decomposition of a diagram")
    _add_common(p)

    p = sub.add_parser("pd", help="duality verdict of a ring file")
    _add_common(p, as_json=True)

    p = sub.add_parser("discrepancy", help="discrepancy table of a diagram's ring")
    _add_common(p, rewrites=True, as_json=True)

    p = sub.add_parser("blocks", help="pairing block structure of a diagram's ring")
    _add_common(p, rewrites=True, as_json=True)

    p = sub.add_parser("presentation", help="verify the relation families")
    _add_common(p, rewrites=True)

    p = sub.add_parser("oracle", help="run a scripted construction fixture")
    _add_common(p)

    p = sub.add_parser("compare", help="built ring vs scripted oracle")
    p.add_argument("--diagram", required=True)
    p.add_argument("--oracle", required=True)
    p.add_argument("--samples", type=int, default=30)
    p.add_argument("--max-rewrites", type=int, default=None)
    return parser


def _cmd_validate(args) -> int:
    diagram = _load_diagram(args.file)
    report = diagram.validate()
    print(report.summary())
    return 0 if report.ok else 1


# the flags each model reads, besides --out
_MODEL_FLAGS = {
    **dict.fromkeys(["fm-p1", "fm-p2"], "--n --min-size"),
    "fm-curve": "--n --min-size --genus",
    **dict.fromkeys(["keel", "fm-p1-oracle", "keel-oracle"], "--n"),
    "synth": "--dims --break --seed",
}


def _cmd_model(args) -> int:
    name = args.name
    given = {"--n": args.n, "--min-size": args.min_size, "--genus": args.genus, "--dims": args.dims}
    given.update({"--break": args.break_at, "--seed": args.seed})
    reads = _MODEL_FLAGS[name].split()
    unread = [flag for flag, v in given.items() if v is not None and flag not in reads]
    if unread:
        raise InputError(f"model {name} does not read {', '.join(unread)}")
    n = 2 if args.n is None else args.n
    if name == "synth":
        if not args.dims:
            raise WonderError("synth needs --dims")
        try:
            dims = [int(x) for x in args.dims.split(",")]
        except ValueError:
            raise InputError(f"--dims is not a comma-separated list of integers: {args.dims!r}")
        if args.break_at is not None:
            alg = models.synthetic_broken(dims, args.break_at, args.seed or 0)
        else:
            alg = models.synthetic_gorenstein(dims, args.seed or 0)
        _write(args.out, io.dump_ring(alg, alg.top_degree))
        return 0
    if name.endswith("-oracle"):
        payload = fixtures.oracle_fixture(name[: -len("-oracle")], n)
        _write(args.out, io.dump_oracle(payload))
        return 0
    if name == "keel":
        diagram = models.keel_model(n)
    else:
        fiber = name.split("-", 1)[1]
        options = {"min_size": args.min_size, "genus": args.genus}
        diagram = models.fm_power(fiber, n, **{k: v for k, v in options.items() if v is not None})
    _write(args.out, io.dump_diagram(diagram))
    return 0


def _cmd_build(args) -> int:
    diagram, ring = _build(args)
    alg = ring.as_algebra()
    _write(args.out, io.dump_ring(alg, diagram.socle_degree))
    return 0


def _cmd_betti(args) -> int:
    alg, _ = io.load_ring(_read(args.file))
    print(" ".join(str(d) for d in alg.dims))
    return 0


def _cmd_decompose(args) -> int:
    from wonder.nests import li_decomposition, summand_dims

    diagram = _load_diagram(args.file)
    diagram.validate().raise_if_failed()
    summands, poincare = li_decomposition(diagram)
    for s in summands:
        nest = ",".join(s.nest.sorted_ids())
        mu = ",".join(f"{x}:{k}" for x, k in s.mu.assignment)
        dims = " ".join(str(d) for d in summand_dims(diagram, s))
        print(
            f"nest={{{nest}}} mu={{{mu}}} burrow={s.burrow} shift={s.shift} dims={dims}"
        )
    print("poincare: " + " ".join(str(x) for x in poincare))
    return 0


def _pd_text(verdict) -> str:
    flag = "yes" if verdict.is_pd else "no"
    discs = " ".join(str(x) for x in verdict.discrepancies)
    return f"PD: {flag}; discrepancies: {discs}"


def _cmd_pd(args) -> int:
    from wonder.algebra import pd_verdict, socle_check

    alg, socle = io.load_ring(_read(args.file))
    rep = socle_check(alg, socle)
    if not rep.ok:
        print("socle check failed: " + "; ".join(rep.problems))
        return 1
    verdict = pd_verdict(rep.pairing)
    if args.json:
        print(
            json.dumps(
                {
                    "is_pd": verdict.is_pd,
                    "discrepancies": list(verdict.discrepancies),
                    "kernels": [list(k) for k in verdict.kernels],
                },
                sort_keys=True,
            )
        )
    else:
        print(_pd_text(verdict))
    return 0


def _cmd_discrepancy(args) -> int:
    diagram, ring = _build(args)
    report = duality.discrepancy_table(diagram, ring)
    if args.json:
        print(
            json.dumps(
                {
                    "ring": list(report.ring_discrepancies),
                    "blocks": [
                        {
                            "nest": list(key[0]),
                            "mu": [list(x) for x in key[1]],
                            "degree": deg,
                            "discrepancy": disc,
                        }
                        for (key, deg), disc in sorted(report.block_discrepancies.items())
                    ],
                    "sums_match": report.sums_match,
                    "certified": report.certified,
                },
                sort_keys=True,
            )
        )
    else:
        print(report.summary())
    return 0


def _cmd_blocks(args) -> int:
    diagram, ring = _build(args)
    report = duality.block_structure_check(diagram, ring)
    if args.json:
        print(
            json.dumps(
                {
                    "ok": report.ok,
                    "order": [
                        {"nest": list(n), "mu": [list(x) for x in m]}
                        for n, m in report.block_order
                    ],
                    "nonzero_blocks": len(report.nonzero_blocks),
                    "violations": report.violations,
                },
                sort_keys=True,
            )
        )
    else:
        print(report.summary())
    return 0


def _cmd_presentation(args) -> int:
    _, ring = _build(args)
    report = presentation_report(ring)
    print(report.summary())
    if not report.ok:
        from wonder.errors import InvariantViolation

        raise InvariantViolation("a required relation family failed to vanish")
    return 0


def _cmd_oracle(args) -> int:
    payload = io.load_oracle(_read(args.file))
    run = oracle.run_oracle(payload)
    print("dims: " + " ".join(str(d) for d in run.dims))
    if run.verdict is None:
        print("PD: socle check failed: " + "; ".join(run.socle_problems))
        return 1
    print(_pd_text(run.verdict))
    return 0


def _cmd_compare(args) -> int:
    diagram = _load_diagram(args.diagram)
    ring = build_ring(diagram, max_rewrites=args.max_rewrites)
    payload = io.load_oracle(_read(args.oracle))
    report = oracle.compare_with_oracle(ring, payload, samples=args.samples)
    print(report.summary())
    return 0 if report.ok else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "model": _cmd_model,
    "build": _cmd_build,
    "betti": _cmd_betti,
    "decompose": _cmd_decompose,
    "pd": _cmd_pd,
    "discrepancy": _cmd_discrepancy,
    "blocks": _cmd_blocks,
    "presentation": _cmd_presentation,
    "oracle": _cmd_oracle,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if args.version:
        from wonder import __version__

        print(f"wonder {__version__}")
        return 0
    if not args.command:
        parser.print_help()
        return 1
    try:
        return _COMMANDS[args.command](args)
    except WonderError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
