"""End-to-end CLI checks: exit codes, JSON shapes, schema conformance."""

import io
import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from cyclefactor import cli


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


def test_expect_reads_stdin(capsys, monkeypatch):
    text = "3 1\n0: 1\n1: 2\n2: 0\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    doc = run_json(capsys, "expect", "--graph", "-", schema_name="expect")
    assert doc["count"] == 1 and doc["expectation"] == "1/1"


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


def test_formula_values(capsys):
    doc = run_json(capsys, "formula", "--d", "3", schema_name="formula")
    assert doc["count"] == 20
    assert doc["excess"] == "1/3"
    assert doc["scaled_excess"] == "3/1"
    assert doc["benchmark"] == "11/3"


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
        capsys, "suite", "--name", "two-regular", "--n-max", "4", schema_name="suite"
    )
    assert doc["ok"] is True and doc["checked"] == 97


def test_suite_failure_exits_three(capsys, monkeypatch):
    from cyclefactor.verify import SuiteReport

    monkeypatch.setattr(
        cli, "looped_cycle_suite", lambda n_max=12: SuiteReport("looped-cycle", 1, ("boom",))
    )
    code, out, _ = run_cli(capsys, "suite", "--name", "looped-cycle")
    assert code == 3
    assert json.loads(out)["failures"] == ["boom"]


@pytest.mark.parametrize(
    "name,flag,value",
    [
        ("two-regular", "--n-max", "0"),  # below the library's n_max >= 2
        ("gadget-cross", "--d-max", "0"),  # below the library's d_max >= 3
        ("looped-cycle", "--d-max", "9"),  # looped-cycle takes no degree bound
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
    best_by_fp = {}
    for line in lines:
        rec = json.loads(line)
        jsonschema.validate(rec, rec_schema)
        assert rec["certificate"]["n"] == 6 and rec["certificate"]["d"] == 3
        fp = rec["fingerprint"]
        # leaderboard stream: re-emitting a fingerprint means strict improvement
        if fp in best_by_fp:
            assert rec["certificate"]["excess_float"] > best_by_fp[fp]
        best_by_fp[fp] = rec["certificate"]["excess_float"]


def test_report_small(capsys):
    doc = run_json(capsys, "report", "--max-d", "3", schema_name="report")
    assert doc["ok"] is True
    assert all(c["pass"] for c in doc["checks"])
    names = [c["name"] for c in doc["checks"]]
    assert "looped 6-cycle mean cycles" in names


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
