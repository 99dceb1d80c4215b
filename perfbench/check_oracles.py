"""Show that every workload oracle accepts a true output and fires on a tampered one.

    PYTHONPATH=src python3 perfbench/check_oracles.py

Exits 0 when each oracle passes the untouched output and reports at least
one problem for every tampered copy; prints one line per case.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from cyclefactor import cli, families, graphs, search, verify

import oracles


def cases():
    """Yield (label, problems, should_fire) for each oracle and tampering."""
    report = verify.SuiteReport("gadget-cross", oracles.GADGET_D_MAX - 2, ())
    yield "gadget report as computed", oracles.check_gadget_report(report), False
    yield "gadget report with a failure", oracles.check_gadget_report(
        dataclasses.replace(report, failures=("d=5: factor count 1 != 2",))), True
    yield "gadget report missing a degree", oracles.check_gadget_report(
        dataclasses.replace(report, checked=report.checked - 1)), True

    degrees = range(3, oracles.GADGET_D_MAX + 1)
    forms = {d: verify.gadget_closed_form(d) for d in degrees}
    gadgets = {d: families.crossing_gadget(d)[0] for d in degrees}
    yield "gadget closed forms as computed", oracles.check_gadget_forms(forms, gadgets), False
    for field, delta in (("count", 1), ("cycle_sum", 1), ("excess", Fraction(1, 10**6))):
        bad = dict(forms)
        bad[5] = dataclasses.replace(forms[5], **{field: getattr(forms[5], field) + delta})
        yield f"gadget closed form, d=5 {field} off", oracles.check_gadget_forms(bad, gadgets), True

    two = verify.SuiteReport("two-regular", sum(oracles.two_regular_count(n) for n in range(2, 7)), ())
    yield "two-regular report as computed", oracles.check_two_regular_report(two), False
    yield "two-regular report one graph short", oracles.check_two_regular_report(
        dataclasses.replace(two, checked=two.checked - 1)), True
    yield "two-regular report with a failure", oracles.check_two_regular_report(
        dataclasses.replace(two, failures=("some arc marginal differs from 1/2",))), True

    config = search.SearchConfig(n=8, d=4, population=6, seed=7, iterations=3)
    records = search.run_search(config)

    def search_problems(recs):
        return [p for _, p in oracles.check_search_records(recs, 8, 4, config.population)]

    yield "search leaderboard as computed", search_problems(records), False
    cert = records[0].certificate
    tampered = {
        "count": dataclasses.replace(cert, count=cert.count + 1),
        "cycle_sum": dataclasses.replace(cert, cycle_sum=cert.cycle_sum + 1),
        "excess": dataclasses.replace(cert, excess=cert.excess + Fraction(1, 7)),
        "verdict": dataclasses.replace(cert, verdict="ties"),
        "graph": dataclasses.replace(cert, graph_text=cert.graph_text.replace("0: ", "0: 0 ", 1)),
    }
    for field, bad in tampered.items():
        recs = [dataclasses.replace(records[0], certificate=bad)] + records[1:]
        yield f"search record, {field} altered", search_problems(recs), True
    yield "search leaderboard out of order", search_problems(records[::-1]), True

    rng = random.Random(3)
    g = search.random_regular_digraph(16, 4, rng)
    text = graphs.to_text(g, 4)
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        path = Path(tmp) / "g.txt"
        path.write_text(text, encoding="utf-8")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(["verify", "--graph", str(path), "--d", "4"])
    doc = json.loads(buf.getvalue())
    yield "certify document as computed", oracles.check_certify_doc(doc, text, 4, 11), False
    for field, value in (
        ("count", doc["count"] + 1),
        ("cycle_sum", doc["cycle_sum"] + 1),
        ("excess", "1/2"),
        ("verdict", "ties"),
    ):
        yield f"certify document, {field} altered", oracles.check_certify_doc(
            {**doc, field: value}, text, 4, 11), True


def main() -> int:
    ok = True
    for label, problems, should_fire in cases():
        fired = bool(problems)
        good = fired == should_fire
        ok = ok and good
        status = "ok  " if good else "FAIL"
        detail = problems[0] if problems else "no problem found"
        print(f"{status} {label}: {detail}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
