"""End-to-end CLI checks: exit codes, JSON shapes, schema conformance."""

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from math import factorial
from pathlib import Path

import jsonschema
import pytest

import cyclefactor
from cyclefactor import cli, search
from cyclefactor.enumeration import MAX_FAST_VERTICES
from cyclefactor.errors import GenerationError


def schema(name):
    ref = resources.files("cyclefactor") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text(encoding="utf-8"))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv, expect_code=0, schema_name=None):
    code, out, err = run_cli(capsys, *argv)
    assert code == expect_code, err
    doc = json.loads(out)
    if schema_name:
        jsonschema.validate(doc, schema(schema_name))
    return doc


def test_gen_then_expect_round_trip(tmp_path, capsys):
    path = tmp_path / "g6.txt"
    code, out, err = run_cli(capsys, "gen", "--family", "looped-cycle", "--n", "6", "--out", str(path))
    assert code == 0 and out == ""
    doc = run_json(
        capsys, "expect", "--graph", str(path), "--histogram", schema_name="expect"
    )
    assert doc["n"] == 6 and doc["d"] == 3
    assert doc["count"] == 20 and doc["cycle_sum"] == 80
    assert doc["expectation"] == "4/1" and doc["expectation_float"] == 4.0
    assert doc["histogram"] == {"1": 2, "3": 2, "4": 9, "5": 6, "6": 1}


def test_gen_writes_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "complete-looped", "--m", "3")
    assert code == 0
    assert out == "3 3\n0: 0 1 2\n1: 0 1 2\n2: 0 1 2\n"


# every gen family at its defaults and with one non-default setting:
# flags -> (header line, SHA-256 of the output text)
GEN_GOLDEN = {
    "complete-looped": ("5 5", "aeb00d5ab47d05cfaf6b1aac35deaa8d2f6058ca06fa89c4d81c346f3b14d6a0"),
    "complete-looped --m 3": ("3 3", "58f90afacf669121687985e38c03400f5929b91622f25624379f24fc2accdbaf"),
    "looped-cycle": ("6 3", "eb1b087cc11d33141c050229acc4036dd5dae22f8c6f4f48b83402a476f1d4bc"),
    "looped-cycle --n 8": ("8 3", "8b272b451107a1861ac06acb5ac3d2caa26698d757f2cd107e51629a56ff6a7b"),
    "gadget": ("6 3", "eb1b087cc11d33141c050229acc4036dd5dae22f8c6f4f48b83402a476f1d4bc"),
    "gadget --d 4": ("8 4", "c00bb6b5692d144624979ead548d56680295af5783ff698aef0835c97abbf5eb"),
    "padded-gadget": ("6 3", "eb1b087cc11d33141c050229acc4036dd5dae22f8c6f4f48b83402a476f1d4bc"),
    "padded-gadget --k 3 --d 4": ("12 4", "1f3a03a62a01714ba534646b2145467606490a480bd8232974960e8e17879bd0"),
    "cycle": ("6 -1", "649c7fc3e503ab2b07b030261b325e932d9f5c6268ef53fa4a664f8b0a00a258"),
    "cycle --n 5 --copies 3": ("15 -1", "81a71fccf0b9722fa1875f2666d4dbe5e0b565411099e72217f5b784e614e229"),
    "clique": ("5 -1", "94e6bf8cffc9c333bf4428d9f1be2232ec642313f5613260b751a3f2d932d69e"),
    "clique --m 4 --copies 2": ("8 -1", "0eae4259a86fac5630f15648658cf2f4e3392278ec2add9fe6b0fe026c323f73"),
    "k222": ("6 -1", "4d7c66e8f68e3d14f7becf799d356a4948b7d4e3609fa98de9d5762c4a233e90"),
    "k222 --copies 2": ("12 -1", "9d07d916ce43a9d115736db2523dda59a6ccc5bfec219ab5bac3cd5a1989a0c1"),
    "splice": ("15 -1", "7e4b26822ced843fb919b358893b5bd67a6a46b7eca05ef317cd59c0d33e1bcf"),
    "splice --m 4": ("12 -1", "8488bded47de15d574fa9e3d4037783ef2224adff3b749308a002030db3cd12b"),
}


@pytest.mark.parametrize("flags", GEN_GOLDEN)
def test_gen_matches_golden_output(capsys, flags):
    header, digest = GEN_GOLDEN[flags]
    code, out, err = run_cli(capsys, "gen", "--family", *flags.split())
    assert code == 0, err
    assert out.splitlines()[0] == header
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "family,flag,value",
    [
        ("gadget", "--n", "10"),
        ("complete-looped", "--d", "4"),
        ("k222", "--m", "4"),
        ("splice", "--copies", "2"),
    ],
)
def test_gen_rejects_foreign_flag(tmp_path, capsys, family, flag, value):
    path = tmp_path / "g.txt"
    code, out, err = run_cli(capsys, "gen", "--family", family, flag, value, "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    assert not path.exists()


@pytest.mark.parametrize("copies", ("0", "-1"))
@pytest.mark.parametrize("family", ("cycle", "clique", "k222"))
def test_gen_rejects_fewer_than_one_copy(tmp_path, capsys, family, copies):
    path = tmp_path / "g.txt"
    code, out, err = run_cli(
        capsys, "gen", "--family", family, "--copies", copies, "--out", str(path)
    )
    assert code == 2 and out == ""
    assert err == "error: copies must be >= 1\n"
    assert not path.exists()


def test_expect_reads_stdin(capsys, monkeypatch):
    text = "3 1\n0: 1\n1: 2\n2: 0\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    doc = run_json(capsys, "expect", "--graph", "-", schema_name="expect")
    assert doc["count"] == 1 and doc["expectation"] == "1/1"


@pytest.mark.parametrize(
    "text, d",
    [
        ("2 5\n0: 0 1\n1: 0 1\n", 2),  # 2-regular, hint 5
        ("3 2\n0: 0 1\n1: 1 2\n2: 0 1 2\n", None),  # not regular, hint 2
    ],
)
def test_expect_reports_the_degree_the_graph_has(capsys, monkeypatch, text, d):
    # the file's degree hint is a hint: "d" is the graph's own degree
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    doc = run_json(capsys, "expect", "--graph", "-", schema_name="expect")
    assert doc["d"] == d


def test_expect_edge_usage_row_sums(tmp_path, capsys):
    path = tmp_path / "x3.txt"
    run_cli(capsys, "gen", "--family", "gadget", "--d", "3", "--out", str(path))
    doc = run_json(
        capsys, "expect", "--graph", str(path), "--edge-usage", schema_name="expect"
    )
    usage = doc["edge_usage"]
    for v in range(6):
        row = sum(c for arc, c in usage.items() if arc.startswith(f"{v}->"))
        assert row == doc["count"]


def test_verify_certificate(tmp_path, capsys):
    path = tmp_path / "x4.txt"
    run_cli(capsys, "gen", "--family", "gadget", "--d", "4", "--out", str(path))
    doc = run_json(
        capsys, "verify", "--graph", str(path), "--d", "4", schema_name="certificate"
    )
    assert doc["count"] == 304 and doc["cycle_sum"] == 1344
    assert doc["excess"] == "29/114"
    assert doc["verdict"] == "beats_benchmark"
    assert doc["provenance"] == str(path)
    assert doc["graph"].startswith("8 4\n")


def test_verify_ties_on_clique_union(tmp_path, capsys):
    path = tmp_path / "pad.txt"
    run_cli(capsys, "gen", "--family", "padded-gadget", "--k", "3", "--d", "3", "--out", str(path))
    doc = run_json(capsys, "verify", "--graph", str(path), "--d", "3", schema_name="certificate")
    assert doc["expectation"] == "35/6" and doc["excess"] == "1/3"


def test_verify_refuses_a_graph_with_no_vertex(tmp_path, capsys):
    # the certificate schema needs n >= 1, so there is nothing to certify
    path = tmp_path / "empty.txt"
    path.write_text("0 -1\n")
    code, out, err = run_cli(capsys, "verify", "--graph", str(path), "--d", "3")
    assert (code, out) == (2, "")
    assert err == "error: graph has no vertex\n"


def test_verify_smallest_certificate_fits_the_schema(tmp_path, capsys):
    path = tmp_path / "loop.txt"
    path.write_text("1 1\n0: 0\n")
    doc = run_json(capsys, "verify", "--graph", str(path), "--d", "1", schema_name="certificate")
    assert (doc["n"], doc["count"], doc["cycle_sum"]) == (1, 1, 1)


def test_formula_values(capsys):
    doc = run_json(capsys, "formula", "--d", "3", schema_name="formula")
    assert doc["count"] == 20
    assert doc["excess"] == "1/3"
    assert doc["scaled_excess"] == "3/1"
    assert doc["benchmark"] == "11/3"


@pytest.mark.parametrize("command", ["formula", "table1"])
def test_closed_forms_print_exactly_at_degree_1000(capsys, command):
    # the count has about 5100 digits, more than the interpreter turns
    # into text by default; the command lifts that cap only while it
    # writes, and parsing the document here needs it lifted too
    d = 1000
    set_cap = getattr(sys, "set_int_max_str_digits", None)
    cap = sys.get_int_max_str_digits() if set_cap else None
    code, out, err = run_cli(capsys, command, "--d", str(d))
    assert (code, err) == (0, "")
    if set_cap:
        assert sys.get_int_max_str_digits() == cap
        set_cap(0)
    try:
        doc = json.loads(out)
    finally:
        if set_cap:
            set_cap(cap)
    counts = [doc["count"]] if command == "formula" else [row["count"] for row in doc["rows"]]
    assert sum(counts) == factorial(d - 2) ** 2 * (d**4 - 6 * d**3 + 19 * d**2 - 30 * d + 20)


def test_table_rows(capsys):
    doc = run_json(capsys, "table1", "--d", "4", schema_name="table")
    assert [r["count"] for r in doc["rows"]] == [196, 72, 4, 32]
    assert doc["rows"][0]["patterns"] == ["none"]
    assert doc["rows"][3]["mean"] == "2/1"


def test_suite_command(capsys):
    doc = run_json(
        capsys, "suite", "--name", "looped-cycle", "--n-max", "8", schema_name="suite"
    )
    assert doc["ok"] is True and doc["checked"] == 5 and doc["failures"] == []
    doc = run_json(
        capsys, "suite", "--name", "looped-cycle", "--n-max", "64", schema_name="suite"
    )
    assert doc["ok"] is True and doc["checked"] == 61
    doc = run_json(
        capsys, "suite", "--name", "two-regular", "--n-max", "4", schema_name="suite"
    )
    assert doc["ok"] is True and doc["checked"] == 97


def test_suite_failure_exits_three(capsys, monkeypatch):
    from cyclefactor.verify import SuiteReport

    report = SuiteReport("looped-cycle", 1, ("boom",))
    monkeypatch.setitem(cli.SUITES, "looped-cycle", (lambda n_max=12: report, "n_max"))
    code, out, _ = run_cli(capsys, "suite", "--name", "looped-cycle")
    assert code == 3
    assert json.loads(out)["failures"] == ["boom"]


@pytest.mark.parametrize(
    "name,flag,value",
    [
        ("two-regular", "--n-max", "0"),  # below the library's n_max >= 2
        ("two-regular", "--n-max", "9"),  # above MAX_TWO_REGULAR_N
        ("gadget-cross", "--d-max", "0"),  # below the library's d_max >= 3
        ("gadget-cross", "--d-max", "33"),  # a 66-vertex gadget, past MAX_FAST_VERTICES
        ("looped-cycle", "--d-max", "9"),  # looped-cycle takes no degree bound
        ("looped-cycle", "--n-max", "65"),  # above MAX_FAST_VERTICES
        ("gadget-cross", "--n-max", "5"),  # gadget-cross takes no order bound
    ],
)
def test_suite_bad_bound_is_exit_two(capsys, name, flag, value):
    code, out, err = run_cli(capsys, "suite", "--name", name, flag, value)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_search_streams_records(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    code, out, err = run_cli(
        capsys,
        "search", "--n", "6", "--d", "3",
        "--seed", "5", "--pop", "4", "--iters", "6",
        "--out", str(path),
    )
    assert code == 0, err
    lines = path.read_text().splitlines()
    assert lines
    rec_schema = schema("search_record")
    fps = []
    for line in lines:
        rec = json.loads(line)
        jsonschema.validate(rec, rec_schema)
        assert rec["certificate"]["n"] == 6 and rec["certificate"]["d"] == 3
        fps.append(rec["fingerprint"])
    # leaderboard stream: each isomorphism class is emitted once
    assert len(set(fps)) == len(fps)


@pytest.mark.parametrize("draw", ("failing", "too large"))
def test_failed_search_leaves_no_out_file(tmp_path, capsys, monkeypatch, draw):
    # both searches fail before their first record: no graph is drawn, or
    # certify refuses the first one past the fast-path limit
    if draw == "failing":
        def fail(n, d, rng):
            raise GenerationError("no permutation disjoint from the placed layers")

        monkeypatch.setattr(search, "random_regular_digraph", fail)
    n = "300" if draw == "too large" else "6"
    path = tmp_path / "records.jsonl"
    code, out, err = run_cli(
        capsys,
        "search", "--n", n, "--d", "3", "--pop", "1", "--iters", "0",
        "--out", str(path),
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    assert not path.exists()


GOLDEN = Path(__file__).with_name("golden")

# each command and the file holding its stdout, recorded from the H_k and
# Fraction evaluation of the closed forms; CI diffs the installed console
# script's table1 --d 6 and report --max-d 8 against the same files
GOLDEN_RUNS = {
    **{f"formula --d {d}": f"formula_d{d}.json" for d in range(3, 13)},
    **{f"table1 --d {d}": f"table1_d{d}.json" for d in range(3, 13)},
    "report --max-d 8": "report_max_d8.json",
    "suite --name gadget-cross --d-max 12": "suite_gadget_cross_d12.json",
}


@pytest.mark.parametrize("command", GOLDEN_RUNS)
def test_gadget_output_matches_its_golden_file(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0, err
    assert out.encode("utf-8") == (GOLDEN / GOLDEN_RUNS[command]).read_bytes()


def gen_piped_to_expect(capsys, monkeypatch, *family):
    # gen ... | expect --graph - --histogram --edge-usage, in process
    code, text, err = run_cli(capsys, "gen", "--family", *family)
    assert code == 0, err
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "expect", "--graph", "-", "--histogram", "--edge-usage")
    assert code == 0, err
    return out.encode("utf-8")


def test_expect_output_matches_its_golden_file(capsys, monkeypatch):
    # gen --family gadget --d 4 | expect --graph - --histogram --edge-usage,
    # the usage path end to end; CI diffs the installed console script
    # against the same file
    out = gen_piped_to_expect(capsys, monkeypatch, "gadget", "--d", "4")
    assert out == (GOLDEN / "expect_gadget_d4.json").read_bytes()


def test_merged_expect_output_matches_its_golden_file(capsys, monkeypatch):
    # K_7 looped, whose bound 7! exceeds 7^4, so its usage pass runs with
    # the seven heads merged into one token; CI diffs the installed console
    # script against the same file
    out = gen_piped_to_expect(capsys, monkeypatch, "complete-looped", "--m", "7")
    assert out == (GOLDEN / "expect_complete_looped_m7.json").read_bytes()


def test_search_output_matches_its_golden_file(capsys):
    # every record the search streams, in order; CI diffs the installed
    # console script against the same file
    code, out, err = run_cli(
        capsys, "search", "--n", "6", "--d", "3", "--pop", "4", "--iters", "6", "--seed", "5"
    )
    assert code == 0, err
    assert out.encode("utf-8") == (GOLDEN / "search_n6_d3.jsonl").read_bytes()


def test_suite_gadget_cross_reaches_degree_eight(capsys):
    doc = run_json(
        capsys, "suite", "--name", "gadget-cross", "--d-max", "8", schema_name="suite"
    )
    assert doc["ok"] is True and doc["checked"] == 6 and doc["failures"] == []


def test_report_at_the_largest_gadget_degree(capsys):
    # the gadget has 2d vertices, so 32 is the largest degree the engine runs
    top = MAX_FAST_VERTICES // 2
    doc = run_json(capsys, "report", "--max-d", str(top), schema_name="report")
    assert doc["ok"] is True and doc["max_d"] == top
    names = [c["name"] for c in doc["checks"]]
    assert f"gadget excess positive at degree {top}" in names
    code, out, err = run_cli(capsys, "report", "--max-d", str(top + 1))
    assert code == 2 and out == ""
    assert err == f"error: need 3 <= d_max <= {top}\n"


def test_report_small(capsys):
    doc = run_json(capsys, "report", "--max-d", "3", schema_name="report")
    assert doc["ok"] is True
    assert all(c["pass"] for c in doc["checks"])
    names = [c["name"] for c in doc["checks"]]
    assert {"looped 6-cycle mean cycles", "gadget excess positive for every d >= 3"} <= set(names)


def test_missing_file_is_exit_two(capsys, tmp_path):
    code, _, err = run_cli(capsys, "expect", "--graph", str(tmp_path / "nope.txt"))
    assert code == 2 and "error:" in err


def test_no_factor_is_exit_two(tmp_path, capsys):
    path = tmp_path / "dead.txt"
    path.write_text("2 -1\n0: 0\n1:\n")
    code, _, err = run_cli(capsys, "expect", "--graph", str(path))
    assert code == 2 and "no cycle-factor" in err


def test_bad_parameters_are_exit_two(capsys):
    code, _, err = run_cli(capsys, "gen", "--family", "looped-cycle", "--n", "3")
    assert code == 2
    code, _, err = run_cli(capsys, "search", "--n", "7", "--d", "3")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--graph", "/dev/null", "--d", "3")
    assert code == 2


def test_search_past_the_fast_path_limit_is_exit_two(capsys):
    # the search's dict keys hold any graph order; certify is what refuses it
    code, out, err = run_cli(
        capsys, "search", "--n", "300", "--d", "3", "--pop", "1", "--iters", "0"
    )
    assert code == 2 and out == ""
    assert "exceeds the fast-path limit" in err


def test_search_with_no_graph_generated_is_exit_two(capsys, monkeypatch):
    # every draw fails, so the leaderboard is empty: no record, and no
    # silent exit 0
    def fail(n, d, rng):
        raise GenerationError("no permutation disjoint from the placed layers")

    monkeypatch.setattr(search, "random_regular_digraph", fail)
    code, out, err = run_cli(
        capsys, "search", "--n", "8", "--d", "4", "--pop", "4", "--iters", "3"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_main_builds_its_parser_once_across_calls(tmp_path, capsys, monkeypatch):
    good = tmp_path / "x4.txt"
    run_cli(capsys, "gen", "--family", "gadget", "--d", "4", "--out", str(good))
    bad = tmp_path / "bad.txt"
    bad.write_text("3 -1\n0: 1\n")
    built = []
    real = cli.build_parser

    def build():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", build)
    cli._parser.cache_clear()
    first = run_cli(capsys, "verify", "--graph", str(good), "--d", "4")
    malformed = run_cli(capsys, "verify", "--graph", str(bad), "--d", "4")
    second = run_cli(capsys, "verify", "--graph", str(good), "--d", "4")
    cli._parser.cache_clear()
    assert [first[0], malformed[0], second[0]] == [0, 2, 0]
    assert "error:" in malformed[2]
    assert first[1] == second[1] and json.loads(first[1])["excess"] == "29/114"
    assert built == [1]


def test_wrong_degree_is_exit_two(tmp_path, capsys):
    path = tmp_path / "k3.txt"
    run_cli(capsys, "gen", "--family", "complete-looped", "--m", "3", "--out", str(path))
    code, _, err = run_cli(capsys, "verify", "--graph", str(path), "--d", "2")
    assert code == 2 and "regular" in err


def test_internal_check_is_exit_three(capsys, monkeypatch):
    from cyclefactor.errors import InternalCheckError

    def boom(d):
        raise InternalCheckError("synthetic")

    monkeypatch.setattr(cli, "gadget_closed_form", boom)
    code, _, err = run_cli(capsys, "formula", "--d", "3")
    assert code == 3 and "synthetic" in err


def run_subprocesses(*argv):
    """Run the CLI in child processes; yield (launcher, completed process).

    `python -m cyclefactor` always runs, from the source this test imported;
    the installed `cyclefactor` console script runs too where it is on PATH.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    launchers = [[sys.executable, "-m", "cyclefactor"]]
    script = shutil.which("cyclefactor")
    if script:
        launchers.append([script])
    for launcher in launchers:
        yield launcher, subprocess.run(
            [*launcher, *argv], capture_output=True, text=True, timeout=60, env=env
        )


def test_console_script_help():
    for launcher, proc in run_subprocesses("--help"):
        assert proc.returncode == 0, (launcher, proc.stderr)
        for name in ("gen", "expect", "verify", "formula", "table1", "suite", "search", "report"):
            assert name in proc.stdout, launcher


def test_unknown_subcommand_exits_two():
    for launcher, proc in run_subprocesses("frobnicate"):
        assert proc.returncode == 2, (launcher, proc.stderr)


def test_readme_library_example_runs_on_the_public_surface():
    # the README's library example states its values in comments; it runs
    # against the package as a reader would, and every exported name resolves
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(example, scope)
    stats, cert = scope["stats"], scope["cert"]
    assert "count=304, mean=84/19" in example
    assert (stats.count, stats.mean()) == (304, Fraction(84, 19))
    assert "excess 29/114, beats_benchmark" in example
    assert (cert.excess, cert.verdict) == (Fraction(29, 114), "beats_benchmark")
    assert [name for name in cyclefactor.__all__ if not hasattr(cyclefactor, name)] == []
