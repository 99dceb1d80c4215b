"""Command line entry point.

Subcommands: gen (emit a named family as graph text), expect (exact factor
statistics of a graph file), verify (benchmark certificate), formula and
table1 (closed forms for the crossing gadget), suite (exhaustive checks),
search (seeded local search), report (full reproduction of the headline
values).  Output is JSON; exact rationals serialize as "p/q" strings with
a float convenience field alongside.

Exit codes: 0 success (including verdicts "ties" and "below"), 2 bad input
or failed precondition, 3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import families
from .enumeration import cycle_factor_stats, two_factor_stats
from .errors import GenerationError, InternalCheckError
from .exact import gadget_closed_form, harmonic, scaled_excess
from .graphs import DiGraph, from_text, to_text, ugraph_to_digraph
from .search import DEFAULT_SEED, SearchConfig, run_search
from .verify import (
    Certificate,
    certify,
    gadget_cross_validation,
    looped_cycle_suite,
    two_regular_suite,
)

# each suite and the one size bound it takes
SUITES = {"two-regular": "n_max", "gadget-cross": "d_max", "looped-cycle": "n_max"}


def _rat(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _emit(doc, stream=None) -> None:
    json.dump(doc, stream or sys.stdout, indent=2, sort_keys=True)
    (stream or sys.stdout).write("\n")


def _read_graph(path: str) -> tuple[DiGraph, int]:
    if path == "-":
        return from_text(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return from_text(fh.read())


def _write_text(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _regular_degree(g: DiGraph) -> int | None:
    degs = {len(row) for row in g.out} | {len(row) for row in g.in_adj}
    if len(degs) == 1:
        return degs.pop()
    return None


def cmd_gen(args) -> int:
    fam = args.family
    if fam == "complete-looped":
        text = to_text(families.complete_looped(args.m), args.m)
    elif fam == "looped-cycle":
        text = to_text(families.looped_bidirected_cycle(args.n), 3)
    elif fam == "gadget":
        g, _ = families.crossing_gadget(args.d)
        text = to_text(g, args.d)
    elif fam == "padded-gadget":
        text = to_text(families.padded_gadget(args.k, args.d), args.d)
    elif fam in ("cycle", "clique", "k222"):
        size = args.n if fam == "cycle" else args.m
        u = families.undirected_family(fam, size, args.copies)
        text = to_text(ugraph_to_digraph(u))
    elif fam == "splice":
        text = to_text(ugraph_to_digraph(families.three_block_splice(args.m)))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown family {fam!r}")
    _write_text(text, args.out)
    return 0


def cmd_expect(args) -> int:
    g, d_hint = _read_graph(args.graph)
    stats = cycle_factor_stats(g, want_edge_usage=args.edge_usage)
    mean = stats.mean()
    doc = {
        "n": g.n,
        "d": d_hint if d_hint > 0 else _regular_degree(g),
        "count": stats.count,
        "cycle_sum": stats.cycle_sum,
        "expectation": _rat(mean),
        "expectation_float": float(mean),
    }
    if args.histogram:
        doc["histogram"] = {str(k): v for k, v in stats.histogram.items()}
    if args.edge_usage:
        doc["edge_usage"] = {
            f"{u}->{v}": c for (u, v), c in sorted((stats.edge_usage or {}).items())
        }
    _emit(doc)
    return 0


def _certificate_doc(cert: Certificate) -> dict:
    return {
        "graph": cert.graph_text,
        "n": cert.n,
        "d": cert.d,
        "count": cert.count,
        "cycle_sum": cert.cycle_sum,
        "expectation": _rat(cert.expectation),
        "expectation_float": float(cert.expectation),
        "benchmark": _rat(cert.benchmark),
        "benchmark_float": float(cert.benchmark),
        "excess": _rat(cert.excess),
        "excess_float": float(cert.excess),
        "verdict": cert.verdict,
        "provenance": cert.provenance,
    }


def cmd_verify(args) -> int:
    g, _ = _read_graph(args.graph)
    cert = certify(g, args.d, provenance=args.graph)
    _emit(_certificate_doc(cert))
    return 0


def cmd_formula(args) -> int:
    form = gadget_closed_form(args.d)
    benchmark = 2 * harmonic(args.d)
    scaled = scaled_excess(args.d)
    _emit(
        {
            "d": args.d,
            "count": form.count,
            "cycle_sum": form.cycle_sum,
            "expectation": _rat(form.expectation),
            "expectation_float": float(form.expectation),
            "benchmark": _rat(benchmark),
            "benchmark_float": float(benchmark),
            "excess": _rat(form.excess),
            "excess_float": float(form.excess),
            "scaled_excess": _rat(scaled),
            "scaled_excess_float": float(scaled),
        }
    )
    return 0


def cmd_table1(args) -> int:
    form = gadget_closed_form(args.d)
    _emit(
        {
            "d": args.d,
            "rows": [
                {
                    "patterns": list(row.patterns),
                    "count": row.count,
                    "mean": _rat(row.mean),
                    "mean_float": float(row.mean),
                }
                for row in form.rows
            ],
        }
    )
    return 0


def cmd_suite(args) -> int:
    # a bound goes to the suite only when given, so the defaults live in verify
    bounds = {k: getattr(args, k) for k in ("n_max", "d_max") if getattr(args, k) is not None}
    extra = bounds.keys() - {SUITES[args.name]}
    if extra:
        raise ValueError(f"suite {args.name} takes no --{extra.pop().replace('_', '-')}")
    suite = {
        "two-regular": two_regular_suite,
        "gadget-cross": gadget_cross_validation,
        "looped-cycle": looped_cycle_suite,
    }[args.name]
    report = suite(**bounds)
    _emit(
        {
            "name": report.name,
            "checked": report.checked,
            "failures": list(report.failures),
            "ok": report.ok,
        }
    )
    return 0 if report.ok else 3


def cmd_search(args) -> int:
    config = SearchConfig(
        n=args.n,
        d=args.d,
        seed=args.seed,
        population=args.pop,
        iterations=args.iters,
    )
    out = sys.stdout if args.out in (None, "-") else open(args.out, "w", encoding="utf-8")
    try:

        def sink(rec):
            json.dump(
                {
                    "iteration": rec.iteration,
                    "fingerprint": f"{rec.fingerprint:016x}",
                    "lineage": rec.lineage,
                    "certificate": _certificate_doc(rec.certificate),
                },
                out,
            )
            out.write("\n")
            out.flush()

        run_search(config, sink=sink)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _report_checks(max_d: int) -> list[dict]:
    checks = []

    def add(name, expected, got):
        checks.append(
            {"name": name, "expected": str(expected), "got": str(got), "pass": expected == got}
        )

    g6 = families.looped_bidirected_cycle(6)
    st = cycle_factor_stats(g6)
    add("looped 6-cycle mean cycles", Fraction(4), st.mean())
    add("looped 6-cycle histogram", {1: 2, 3: 2, 4: 9, 5: 6, 6: 1}, st.histogram)

    cross = gadget_cross_validation(max_d)
    add("gadget enumeration matches closed forms", (), cross.failures)
    for d in range(3, max_d + 1):
        add(f"gadget excess positive at degree {d}", True, gadget_closed_form(d).excess > 0)

    pad = certify(families.padded_gadget(3, 3), 3)
    add("padding keeps the degree-3 excess", Fraction(1, 3), pad.excess)

    c6 = two_factor_stats(families.cycle_graph(6), allow_edge_as_2cycle=True)
    add("6-cycle mean parts, edges allowed", Fraction(7, 3), c6.mean())
    octa = two_factor_stats(families.complete_tripartite_222())
    add("octahedron mean cycles, strict", Fraction(6, 5), octa.mean())
    k5 = two_factor_stats(families.complete_graph(5))
    add("5-clique mean cycles, strict", Fraction(1), k5.mean())
    two_k3 = two_factor_stats(families.undirected_family("clique", 3, copies=2))
    add("two 3-cliques mean cycles", Fraction(2), two_k3.mean())
    six_k5 = two_factor_stats(families.undirected_family("clique", 5, copies=6))
    add("six 5-cliques mean cycles", Fraction(6), six_k5.mean())
    five_oct = two_factor_stats(families.undirected_family("k222", copies=5))
    add("five octahedra mean cycles", Fraction(6), five_oct.mean())
    return checks


def cmd_report(args) -> int:
    checks = _report_checks(args.max_d)
    ok = all(c["pass"] for c in checks)
    _emit({"max_d": args.max_d, "checks": checks, "ok": ok})
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclefactor",
        description="Exact cycle-factor statistics of regular digraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a graph family in text format")
    p.add_argument(
        "--family",
        required=True,
        choices=[
            "complete-looped",
            "looped-cycle",
            "gadget",
            "padded-gadget",
            "cycle",
            "clique",
            "k222",
            "splice",
        ],
    )
    p.add_argument("--n", type=int, default=6, help="vertex count where applicable")
    p.add_argument("--m", type=int, default=5, help="clique or block size")
    p.add_argument("--d", type=int, default=3, help="degree of the gadget")
    p.add_argument("--k", type=int, default=2, help="total blocks for padded-gadget")
    p.add_argument("--copies", type=int, default=1, help="disjoint copies (undirected)")
    p.add_argument("--out", default=None, help="output path, default stdout")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("expect", help="exact cycle-factor statistics of a graph file")
    p.add_argument("--graph", required=True, help="graph text file, - for stdin")
    p.add_argument("--histogram", action="store_true")
    p.add_argument("--edge-usage", dest="edge_usage", action="store_true")
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("verify", help="certificate against the clique benchmark")
    p.add_argument("--graph", required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("formula", help="closed forms for the crossing gadget")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("table1", help="per-crossing-pattern count and mean table")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("suite", help="exhaustive verification suites")
    p.add_argument("--name", required=True, choices=list(SUITES))
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--d-max", dest="d_max", type=int, default=None)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("search", help="seeded local search for positive excess")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--pop", type=int, default=32)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--out", default=None, help="JSON-lines path, default stdout")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("report", help="reproduce the headline values end to end")
    p.add_argument("--max-d", dest="max_d", type=int, default=6, choices=(3, 4, 5, 6, 7))
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, GenerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
