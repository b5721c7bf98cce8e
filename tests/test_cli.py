"""Command-line surface: exit codes, report schemas, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from scatterpoly import cli, gf, scattered as sc, suites

GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_field_info(capsys):
    code, out, _ = run(capsys, "field-info", "--field", "2^1^3")
    assert code == 0
    rep = json.loads(out)
    assert rep["modulus"] == "1,1,0,1"
    assert rep["order"] == 8 and rep["q"] == 2
    assert rep["seed"] == 0


def test_field_info_explicit_modulus(capsys):
    code, out, _ = run(capsys, "field-info", "--field", "2^1^3:1,1,0,1")
    assert code == 0
    assert json.loads(out)["order"] == 8
    code, _, err = run(capsys, "field-info", "--field", "2^1^3:1,0,0,1")
    assert code == 1 and "reducible" in err


def test_scatter_test_exit_codes(capsys):
    code, out, _ = run(capsys, "scatter-test", "--field", "2^1^3", "--f", "0;1", "--t", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["scattered"] is True and rep["witness"] is None
    assert rep["size"] == 7 and rep["weight_spectrum"] == {"1": 7}

    code, out, _ = run(capsys, "scatter-test", "--field", "2^1^4", "--f", "0;0;1", "--t", "0")
    assert code == 2
    rep = json.loads(out)
    assert rep["scattered"] is False and rep["witness"] is not None

    code, _, err = run(capsys, "scatter-test", "--field", "2^1^3", "--f", "0;;x", "--t", "0")
    assert code == 1 and err.startswith("error:")

    # p = 131 does not fit int8 digits
    code, out, err = run(capsys, "scatter-test", "--field", "131^1^2", "--f", "0;1")
    assert code == 0 and err == ""
    assert json.loads(out)["scattered"] is True


def test_scatter_test_rejects_zero_poly(capsys):
    code, _, err = run(capsys, "scatter-test", "--field", "2^1^3", "--f", "0;0", "--t", "0")
    assert code == 1 and "nonzero" in err


def test_linear_set_report(capsys):
    code, out, _ = run(capsys, "linear-set", "--field", "2^1^4", "--f", "0;0;1", "--t", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["max_weight"] == 2 and rep["weight_spectrum"] == {"2": 5}


def test_scan_reports(capsys):
    code, out, _ = run(capsys, "scan", "--field", "2^1^3", "--f", "1", "--t", "1", "--m-max", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["summary"] == "scattered up to horizon 3"
    assert [e["m"] for e in rep["entries"]] == [1, 2, 3]

    code, out, _ = run(capsys, "scan", "--field", "2^1^4", "--f", "0;0;1", "--t", "0", "--m-max", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["summary"] == "non-exceptional (failed at m=1)"

    code, _, err = run(capsys, "scan", "--field", "2^1^3", "--f", "1", "--t", "1", "--m-max", "0")
    assert code == 1 and "m-max" in err

    # the shifted two-term instance at q=2 degenerates to a monomial and
    # stays scattered across the horizon
    code, out, _ = run(capsys, "scan", "--field", "2^1^3", "--f", "0;0;1", "--t", "1", "--m-max", "2")
    assert code == 0
    assert json.loads(out)["summary"] == "scattered up to horizon 2"


def test_mrd_check_schema(capsys):
    code, out, _ = run(capsys, "mrd-check", "--field", "2^1^3", "--f", "0;1", "--t", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["n"] == 3 and rep["q"] == 2 and rep["d"] == 2 and rep["mrd"] is True
    assert rep["kernel_histogram"] == {"0": 14, "1": 49}

    code, out, _ = run(capsys, "mrd-check", "--field", "13^1^2", "--f", "0;1", "--t", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["d"] == 1 and rep["mrd"] is True
    assert rep["kernel_histogram"] == {"0": 26208, "1": 2352}


def test_curve_subcommands(capsys):
    code, out, _ = run(capsys, "curve-build", "--field", "2^1^4", "--f", "0;0;1", "--t", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["degree"] == 2 and rep["terms"] == "0,2:1;1,1:1;2,0:1"

    code, out, _ = run(
        capsys, "curve-points", "--field", "2^1^4", "--f", "0;0;1", "--t", "0",
        "--predicate", "ratio",
    )
    rep = json.loads(out)
    assert code == 0 and rep["count"] == 30 and rep["witness"] == ["1", "0,1,1"]

    code, out, _ = run(capsys, "curve-infinity", "--field", "2^1^4", "--f", "0;0;1", "--t", "0")
    rep = json.loads(out)
    assert code == 0 and rep["count"] == 2

    code, out, _ = run(
        capsys, "curve-multiplicity", "--field", "2^1^4", "--f", "0;0;1", "--t", "0",
        "--point", "0;0",
    )
    rep = json.loads(out)
    assert rep["multiplicity"] == 2 and rep["ordinary"] is True

    code, out, _ = run(
        capsys, "curve-transform", "--field", "2^1^4", "--curve", "2,0:1;1,1:1;0,2:1",
    )
    rep = json.loads(out)
    assert code == 0 and rep["terms"] == "0,0:1;0,1:1;0,2:1"

    code, out, _ = run(
        capsys, "curve-branch", "--field", "3^1^1", "--curve", "0,1:1;2,0:2", "--terms", "4",
    )
    rep = json.loads(out)
    assert code == 0 and rep["coefficients"] == ["0", "1", "0", "0"]


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "remark32")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True and rep["checks"] == 196

    code, _, err = run(capsys, "verify", "nosuch")
    assert code == 1 and "unknown suite" in err


def test_reports_are_deterministic(capsys):
    args = ("scatter-test", "--field", "2^1^4", "--f", "0;0;1", "--t", "0", "--seed", "7")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert json.loads(out1)["seed"] == 7
    _, v1, _ = run(capsys, "verify", "factorization", "--seed", "3")
    _, v2, _ = run(capsys, "verify", "factorization", "--seed", "3")
    assert v1 == v2


def test_csv_output(capsys):
    code, out, _ = run(
        capsys, "scan", "--field", "2^1^3", "--f", "1", "--t", "1", "--m-max", "2",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,scattered,witness_x,witness_y,skipped"
    assert len(lines) == 3

    code, out, _ = run(capsys, "field-info", "--field", "2^1^3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "p,e,d,q,order,modulus,subfield_gen"


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "scatter-test", "--field", "2^1^3", "--f", "0;1", "--t", "0", "--out", str(path)
    )
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["scattered"] is True


def test_bad_field_specs(capsys):
    for spec in ("2^1", "a^b^c", "4^1^2"):
        code, _, err = run(capsys, "field-info", "--field", spec)
        assert code == 1 and err.startswith("error:")


def test_field_over_table_cap_is_an_error(capsys):
    # F_(3^24) is reached through subfield_gen; its log tables would take terabytes
    code, out, err = run(capsys, "field-info", "--field", "3^2^12")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_module_entry_point_runs_quietly():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "scatterpoly.cli", "field-info", "--field", "2^1^3"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["order"] == 8


def test_one_parser_serves_every_call(capsys):
    # main builds its parser once per process: after a usage error, verify
    # and scatter-test in one process print what a fresh process prints
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    calls = [("scatter-test", "--field", "2^1^3"), ("verify", "alpha-image"),
             ("scatter-test", "--field", "2^1^4", "--f", "0;0;1", "--t", "0")]
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "scatterpoly.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert run(capsys, *argv) == (proc.returncode, proc.stdout, proc.stderr)
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_reports_match_golden_bytes(case, capsys):
    # JSON and CSV reports, error lines and exit codes, pinned byte for byte
    assert run(capsys, *case["argv"]) == (case["code"], case["stdout"], case["stderr"])


@pytest.mark.parametrize("argv", [
    ("field-info", "--field", "2^1^3", "--ceiling", "0"),
    ("verify", "remark32", "--ceiling", "-5"),
    ("field-info", "--field", "2^1^3", "--out", "{missing}/r.json"),
    ("curve-build", "--field", "2^1^4", "--f", "0;0;1", "--t", "-1"),
    ("curve-points", "--field", "2^1^4", "--f", "0;0;1", "--t", "4"),
    ("curve-points", "--field", "2^1^4", "--f", "0;0;1", "--ext", "40"),
    # no shift makes Y^2 + X + X^3 linear in x on a line: the grid's 2^40 cells
    ("curve-points", "--field", "2^1^20", "--curve", "1,0:1;0,2:1;3,0:1", "--predicate", "all"),
    ("curve-branch", "--field", "3^1^1", "--curve", "0,1:1;2,0:2", "--terms", "100000"),
    ("curve-transform", "--field", "2^1^2", "--curve", "0,1:1", "--repeat", "100000000"),
    ("curve-transform", "--field", "2^1^2", "--curve", "0,1:1", "--repeat", "-3"),
    ("curve-transform", "--field", "3^1^2", "--curve", "0,1:1;0,1:1"),
    # usage errors from the argument parser
    ("scatter-test", "--field", "2^1^3"),
    ("scatter-test", "--field", "2^1^3", "--f", "0;1", "--t", "x"),
    ("field-info", "--field", "2^1^3", "--format", "xml"),
    ("field-info", "--field", "2^1^3", "--bogus"),
    ("curve-multiplicity", "--field", "3^1^2", "--curve", "0,1:1;2,0:2", "--point", "--f", "1"),
    ("nosuch",),
    (),
], ids=lambda argv: " ".join(argv) or "no arguments")
def test_bad_input_is_one_error_line(argv, tmp_path, capsys):
    argv = [a.replace("{missing}", str(tmp_path / "missing")) for a in argv]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    # the extension-field, grid, branch-series and transform ceilings are checked before the work
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_ceiling_is_checked_before_the_modulus_search(capsys):
    # the canonical modulus of F_(2^512) would take seconds to find: the
    # commands refuse the field at the ceiling, and scan skips every entry,
    # before anything reads it; a field under the ceiling still gets it
    def search(p, n):
        raise AssertionError(f"modulus of degree {n} searched")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf, "canonical_modulus", search)
        mp.setattr(gf, "_FIELD_CACHE", {})
        for command in ("scatter-test", "linear-set", "mrd-check"):
            code, out, err = run(capsys, command, "--field", "2^1^512", "--f", "0;1")
            assert code == 1 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1
        code, out, err = run(capsys, "scan", "--field", "2^1^512", "--f", "0;1", "--t", "0", "--m-max", "2")
        entries = json.loads(out)["entries"]
        assert code == 0 and err == "" and [e["m"] for e in entries] == [1, 2]
        assert all(e["skipped"] and e["scattered"] is None for e in entries)
    code, out, _ = run(capsys, "field-info", "--field", "2^1^64")
    assert code == 0 and json.loads(out)["modulus"] == "1,1,0,1,1" + ",0" * 59 + ",1"


@pytest.mark.parametrize("argv", [
    ("curve-multiplicity", "--field", "3^1^2", "--curve", "0,1:1;2,0:2", "--point", "-1;0"),
    ("scatter-test", "--field", "3^1^3", "--f", "-1;1"),
    ("scan", "--field", "3^1^2", "--f", "-1,1;1", "--m-max", "-1"),
], ids=" ".join)
def test_values_that_begin_with_a_dash(argv, capsys):
    # "--opt -1;0" reads as "--opt=-1;0"
    joined = [*argv[:-2], f"{argv[-2]}={argv[-1]}"]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == run(capsys, *joined)
    assert out or err.count("\n") == 1


def test_failing_campaign_reports_every_failure(monkeypatch, capsys):
    table = sc.inequality_case_table
    monkeypatch.setattr(suites, "_MEMO", {})
    monkeypatch.setattr(sc, "inequality_case_table", lambda q, k, i: not table(q, k, i))
    code, out, _ = run(capsys, "verify", "remark32")
    rep = json.loads(out)
    assert code == 1 and rep["passed"] is False
    assert rep["checks"] == 196 and len(rep["failures"]) == 196
    assert all(f.startswith("q=") and " k=" in f and " i=" in f for f in rep["failures"])


def test_help_prints_usage(capsys):
    for argv in (["--help"], ["scan", "--help"]):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out.startswith("usage: scatterpoly")


@pytest.mark.parametrize("argv", [
    ["scatter-test", "--field", "2^1^3", "--f", "0;1"],
    ["scatter-test", "--field", "2^1^4", "--f", "0;0;1"],
    ["field-info", "--field", "2^1"],
    ["field-info"],
], ids=" ".join)
def test_console_exit_code_is_mains(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["scatterpoly", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.console()
    assert exc.value.code == cli.main(argv)


@pytest.mark.parametrize(
    "case", [c for c in GOLDEN if "csv" in c["argv"] and c["code"] != 1],
    ids=lambda c: " ".join(c["argv"]),
)
def test_csv_tables_match_json_reports(case, capsys):
    argv = case["argv"]
    _, out, _ = run(capsys, *argv)
    header, *rows = csv.reader(io.StringIO(out))
    assert rows and all(len(row) == len(header) for row in rows)
    _, out, _ = run(capsys, *[("json" if a == "csv" else a) for a in argv])
    rep = json.loads(out)
    command = argv[0]
    if command in ("field-info", "scatter-test", "curve-points", "curve-multiplicity", "scan"):
        records = rep["entries"] if command == "scan" else [rep]
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            rec = dict(rec)
            rec["witness_x"], rec["witness_y"] = rec.get("witness") or (None, None)
            assert row == ["" if rec[k] is None else str(rec[k]) for k in header]
    elif command in ("linear-set", "mrd-check"):
        counts = rep["weight_spectrum" if command == "linear-set" else "kernel_histogram"]
        assert rows == [[k, str(v)] for k, v in counts.items()]
    elif command == "curve-infinity":
        assert [":".join(row) for row in rows] == rep["points"]
    elif command == "curve-branch":
        assert rows == [[str(k), c] for k, c in enumerate(rep["coefficients"], 1)]
    elif command in ("curve-build", "curve-transform"):
        assert ";".join(f"{i},{j}:{c}" for i, j, c in rows) == rep["terms"]
    else:
        assert command == "verify"
        assert rows == [[rep["suite"], str(rep["passed"]), str(rep["checks"]),
                         str(len(rep["failures"]))]]


def test_scan_far_horizon_reports_skips(capsys):
    # skipped sizes past the interpreter's int-to-str limit are written as a bound 2^k
    start = time.perf_counter()
    code, out, _ = run(capsys, "scan", "--field", "2^1^64", "--f", "0;1", "--t", "0", "--m-max", "300")
    assert time.perf_counter() - start < 5
    assert code == 0
    entries = json.loads(out)["entries"]
    assert len(entries) == 300 and all(e["skipped"] for e in entries)
    assert entries[0]["skipped"] == "operation needs 18446744073709551616 elements, ceiling is 4194304"
    assert entries[-1]["skipped"] == "operation needs at least 2^19200 elements, ceiling is 4194304"


def test_field_info_beyond_int64(capsys):
    code, out, _ = run(capsys, "field-info", "--field", "2^1^64")
    assert code == 0
    assert json.loads(out)["order"] == 18446744073709551616
