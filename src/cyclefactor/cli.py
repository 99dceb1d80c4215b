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
import contextlib
import functools
import inspect
import json
import sys
from fractions import Fraction

from . import families
from .enumeration import cycle_factor_stats, two_factor_stats
from .errors import GenerationError, InternalCheckError
from .exact import excess_positive_for_every_degree, gadget_closed_form, harmonic, scaled_excess
from .graphs import DiGraph, UGraph, from_text, to_text, u_disjoint_union, ugraph_to_digraph
from .search import DEFAULT_SEED, SearchConfig, run_search
from .verify import (
    Certificate,
    certify,
    gadget_cross_validation,
    looped_cycle_suite,
    two_regular_suite,
)

# each suite and the one size bound it takes
SUITES = {
    "two-regular": (two_regular_suite, "n_max"),
    "gadget-cross": (gadget_cross_validation, "d_max"),
    "looped-cycle": (looped_cycle_suite, "n_max"),
}


def _undirected(u: UGraph, copies: int = 1) -> str:
    """The text of copies disjoint copies of u, as a symmetric digraph."""
    if copies < 1:
        raise ValueError("copies must be >= 1")
    return to_text(ugraph_to_digraph(u_disjoint_union([u] * copies)))


# each gen family's builder; its keyword parameters are the flags it reads
FAMILIES = {
    "complete-looped": lambda m=5: to_text(families.complete_looped(m), m),
    "looped-cycle": lambda n=6: to_text(families.looped_bidirected_cycle(n), 3),
    "gadget": lambda d=3: to_text(families.crossing_gadget(d)[0], d),
    "padded-gadget": lambda k=2, d=3: to_text(families.padded_gadget(k, d), d),
    "cycle": lambda n=6, copies=1: _undirected(families.cycle_graph(n), copies),
    "clique": lambda m=5, copies=1: _undirected(families.complete_graph(m), copies),
    "k222": lambda copies=1: _undirected(families.complete_tripartite_222(), copies),
    "splice": lambda m=5: _undirected(families.three_block_splice(m)),
}


def _flag_readers() -> dict[str, list[str]]:
    readers: dict[str, list[str]] = {}
    for name, build in FAMILIES.items():
        for flag in inspect.signature(build).parameters:
            readers.setdefault(flag, []).append(name)
    return readers


# each gen flag and the families that read it
GEN_FLAGS = _flag_readers()


@contextlib.contextmanager
def _all_digits():
    """Lift the interpreter's cap on the digits of an int turned into text.

    The cap (4300 digits by default, where the interpreter has one) would
    refuse the gadget's exact count and cycle sum from d = 860; it is
    restored on exit, since main also runs inside longer-lived processes.
    """
    set_cap = getattr(sys, "set_int_max_str_digits", None)
    if set_cap is None:
        yield
        return
    cap = sys.get_int_max_str_digits()
    set_cap(0)
    try:
        yield
    finally:
        set_cap(cap)


def _exact(name: str, x) -> dict:
    """An exact rational as a "p/q" string under name, its float under name_float."""
    f = Fraction(x)
    with _all_digits():
        text = f"{f.numerator}/{f.denominator}"
    return {name: text, f"{name}_float": float(f)}


def _emit(doc) -> None:
    # the text is built whole before any of it is written, so a value
    # that cannot be converted leaves stdout empty
    with _all_digits():
        text = json.dumps(doc, indent=2, sort_keys=True)
    sys.stdout.write(text + "\n")


def _read_graph(path: str) -> DiGraph:
    # the file's degree hint is dropped: expect reports the degree the
    # graph has, and verify takes it from --d
    if path == "-":
        return from_text(sys.stdin.read())[0]
    with open(path, "r", encoding="utf-8") as fh:
        return from_text(fh.read())[0]


def _output(path: str | None):
    """Context manager for the output stream: stdout for None or "-", else the file."""
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _given(args, flags, takes, owner: str) -> dict:
    """The given (non-None) values among flags; exit 2 for one that takes lacks."""
    given = {f: v for f, v in vars(args).items() if f in flags and v is not None}
    foreign = sorted(given.keys() - set(takes))
    if foreign:
        raise ValueError(f"{owner} takes no --{foreign[0].replace('_', '-')}")
    return given


def _regular_degree(g: DiGraph) -> int | None:
    degs = {len(row) for row in g.out} | {len(row) for row in g.in_adj}
    if len(degs) == 1:
        return degs.pop()
    return None


def cmd_gen(args) -> int:
    # a flag goes to the builder only when given, so the defaults live in FAMILIES
    build = FAMILIES[args.family]
    takes = inspect.signature(build).parameters
    text = build(**_given(args, GEN_FLAGS, takes, f"family {args.family}"))
    # the text is built before --out is opened, so a bad value leaves no file
    with _output(args.out) as out:
        out.write(text)
    return 0


def cmd_expect(args) -> int:
    g = _read_graph(args.graph)
    stats = cycle_factor_stats(g, want_edge_usage=args.edge_usage)
    doc = {
        "n": g.n,
        "d": _regular_degree(g),
        "count": stats.count,
        "cycle_sum": stats.cycle_sum,
        **_exact("expectation", stats.mean()),
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
        **_exact("expectation", cert.expectation),
        **_exact("benchmark", cert.benchmark),
        **_exact("excess", cert.excess),
        "verdict": cert.verdict,
        "provenance": cert.provenance,
    }


def cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    cert = certify(g, args.d, provenance=args.graph)
    _emit(_certificate_doc(cert))
    return 0


def cmd_formula(args) -> int:
    form = gadget_closed_form(args.d)
    _emit(
        {
            "d": args.d,
            "count": form.count,
            "cycle_sum": form.cycle_sum,
            **_exact("expectation", form.expectation),
            **_exact("benchmark", 2 * harmonic(args.d)),
            **_exact("excess", form.excess),
            **_exact("scaled_excess", scaled_excess(args.d)),
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
                    **_exact("mean", row.mean),
                }
                for row in form.rows
            ],
        }
    )
    return 0


def cmd_suite(args) -> int:
    # a bound goes to the suite only when given, so the defaults live in verify
    suite, bound = SUITES[args.name]
    report = suite(**_given(args, ("n_max", "d_max"), {bound}, f"suite {args.name}"))
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
    # --out is opened at the first record, so a search that fails before
    # any leaves no file behind
    with contextlib.ExitStack() as stack:
        out = None

        def sink(rec):
            nonlocal out
            if out is None:
                out = stack.enter_context(_output(args.out))
            doc = {
                "iteration": rec.iteration,
                "fingerprint": f"{rec.fingerprint:016x}",
                "lineage": rec.lineage,
                "certificate": _certificate_doc(rec.certificate),
            }
            out.write(json.dumps(doc) + "\n")
            out.flush()

        run_search(config, sink=sink)
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
    add("gadget excess positive for every d >= 3", True, excess_positive_for_every_degree())

    pad = certify(families.padded_gadget(3, 3), 3)
    add("padding keeps the degree-3 excess", Fraction(1, 3), pad.excess)

    c6 = two_factor_stats(families.cycle_graph(6), allow_edge_as_2cycle=True)
    add("6-cycle mean parts, edges allowed", Fraction(7, 3), c6.mean())
    octa = two_factor_stats(families.complete_tripartite_222())
    add("octahedron mean cycles, strict", Fraction(6, 5), octa.mean())
    k5 = two_factor_stats(families.complete_graph(5))
    add("5-clique mean cycles, strict", Fraction(1), k5.mean())
    two_k3 = two_factor_stats(u_disjoint_union([families.complete_graph(3)] * 2))
    add("two 3-cliques mean cycles", Fraction(2), two_k3.mean())
    six_k5 = two_factor_stats(u_disjoint_union([families.complete_graph(5)] * 6))
    add("six 5-cliques mean cycles", Fraction(6), six_k5.mean())
    five_oct = two_factor_stats(u_disjoint_union([families.complete_tripartite_222()] * 5))
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
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    for flag, readers in GEN_FLAGS.items():
        p.add_argument(f"--{flag}", type=int, default=None, help="read by " + ", ".join(readers))
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
    p.add_argument("--max-d", dest="max_d", type=int, default=6)
    p.set_defaults(func=cmd_report)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call to main, not at import, and kept: building
    # the tree costs about thirty parses, and parsing leaves it unchanged
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
