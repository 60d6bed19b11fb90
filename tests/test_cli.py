import csv
import io
import json
import math

import pytest

from koenigs import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_example(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--family", "trig", "--rho", "0.5",
        "--xi", "-2", "--E", "0", "--L", "1",
    )
    assert code == 0
    record = json.loads(out)
    assert record["tag"] == "e0_full"
    assert record["theta"] == pytest.approx(math.asinh(1.0), abs=1e-12)
    assert list(record) == sorted(record)


def test_spectrum_example_single_row(capsys):
    code, out, err = run_cli(
        capsys, "spectrum", "--family", "hplus", "--rho", "2", "--xi", "3.75",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,j_tilde,energy"
    assert len(lines) == 2
    energy = float(lines[1].split(",")[-1])
    assert energy == pytest.approx(math.sqrt(6.0) - 1.5, abs=1e-9)


def test_verify_subcommand_exit_zero(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "specfun", "--tol", "default")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL", "XFAIL"))]
    assert len(lines) == 4
    assert all(l.startswith("PASS") for l in lines)


def test_verify_payload_carries_value_and_gate(tmp_path, capsys):
    target = tmp_path / "verify.json"
    code, _, _ = run_cli(capsys, "verify", "--suite", "specfun", "--out", str(target))
    assert code == 0
    first = target.read_bytes()
    row = json.loads(first)["specfun.off_diagonal_vanish"]
    assert row["status"] == "PASS"
    assert row["gate"] == 1e-9
    assert 0.0 < row["value"] < row["gate"]
    run_cli(capsys, "verify", "--suite", "specfun", "--out", str(target))
    assert target.read_bytes() == first

    table = tmp_path / "verify.csv"
    code, _, _ = run_cli(capsys, "verify", "--suite", "specfun", "--format", "csv", "--out", str(table))
    assert code == 0
    header, *rows = table.read_text().splitlines()
    assert header == "name,status,value,gate,detail"
    cells = next(r.split(",") for r in rows if r.startswith("specfun.off_diagonal_vanish,"))
    assert float(cells[2]) == pytest.approx(row["value"], rel=1e-11)
    assert float(cells[3]) == 1e-9


def test_verify_format_without_out_prints_payload(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "specfun", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["checks_total"] == 4
    assert record["specfun.off_diagonal_vanish"]["status"] == "PASS"

    code, out, _ = run_cli(capsys, "verify", "--suite", "specfun", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {r["name"] for r in rows} == {n for n in record if n.startswith("specfun.")}
    assert all(r["status"] == "PASS" for r in rows)


def test_verify_rejects_unknown_suite(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "nonexistent")
    assert code == 2
    assert "suite" in err


def test_missing_argument_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "classify", "--family", "trig", "--rho", "0.5", "--xi", "-2", "--E", "0")
    assert code == 2
    assert "--L" in err


def test_domain_error_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--family", "h0", "--rho", "0", "--xi", "1", "--E", "1", "--L", "1",
    )
    assert code == 2
    assert "rho" in err


@pytest.mark.parametrize("flag, value", [("--E", "nan"), ("--E", "inf"), ("--L", "nan"), ("--L", "-inf")])
def test_non_finite_energy_or_momentum_is_a_domain_error(capsys, flag, value):
    # --L=-inf: argparse reads a bare -inf as a flag
    values = {"--E": "0.5", "--L": "0.5", flag: value}
    code, out, err = run_cli(capsys, "classify", "--family", "h0", "--rho", "0.8", "--xi", "1.1",
                             *(f"{name}={text}" for name, text in values.items()))
    assert code == 2
    assert out == ""
    assert err.startswith("error: DomainError: classification needs finite E and L")


def test_flow_tolerance_below_the_floor_is_a_step_failure(capsys):
    # 1e-300 used to end in an OverflowError traceback
    code, out, err = run_cli(capsys, "flow", "--family", "hplus", "--rho", "2.0", "--xi", "8.0",
                             "--E", "1.8", "--L", "1.0", "--tol", "1e-300")
    assert code == 2
    assert out == ""
    assert err.startswith("error: StepFailure: tolerance 1e-300 is below 100 eps")


@pytest.mark.parametrize("tol", ["fast", "nan", "inf", "0", "-1"])
def test_bad_tol_is_usage_error(capsys, tol):
    code, out, err = run_cli(
        capsys, "actions", "--family", "h0", "--rho", "0.8", "--xi", "1.1",
        "--E", "0.5", "--L", "0.5", "--tol", tol,
    )
    assert code == 2
    assert "--tol" in err


def test_negative_seed_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "specfun", "--seed", "-3")
    assert code == 2
    assert "--seed" in err
    assert out == ""


@pytest.mark.parametrize("command", ["flow", "geodesic"])
def test_hminus_trajectory_has_no_global_structure(capsys, command):
    # the local family is refused by the classifier before any span is read
    code, out, err = run_cli(
        capsys, command, "--family", "hminus", "--rho", "0.6", "--xi", "0.9", "--E", "1", "--L", "1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: NoGlobalStructure: no geodesic classification")


def test_actions_csv_row(capsys):
    code, out, err = run_cli(
        capsys, "actions", "--family", "h0", "--rho", "0.8", "--xi", "1.1",
        "--E", "0.5", "--L", "0.5",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split(",")[:2] == ["family", "rho"]
    cells = row.split(",")
    i_angle = float(cells[5])
    j = float(cells[7])
    assert i_angle == 0.5
    assert j > i_angle


def test_geodesic_csv_and_svg(capsys):
    code, out, err = run_cli(
        capsys, "geodesic", "--family", "h0", "--rho", "0.8", "--xi", "1.1",
        "--E", "0.5", "--L", "0.5",
    )
    assert code == 0
    assert out.splitlines()[0] == "t,q1,q2,p1,p2"
    code, out, err = run_cli(
        capsys, "geodesic", "--family", "h0", "--rho", "0.8", "--xi", "1.1",
        "--E", "0.5", "--L", "0.5", "--format", "svg",
    )
    assert code == 0
    assert out.startswith("<svg")
    assert "polyline" in out


def test_format_rejected_when_unsupported(capsys):
    code, out, err = run_cli(
        capsys, "classify", "--family", "trig", "--rho", "0.5",
        "--xi", "-2", "--E", "0", "--L", "1", "--format", "svg",
    )
    assert code == 2
    assert "classify" in err


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "row.csv"
    code, out, err = run_cli(
        capsys, "actions", "--family", "h0", "--rho", "0.8", "--xi", "1.1",
        "--E", "0.5", "--L", "0.5", "--out", str(target),
    )
    assert code == 0
    assert target.read_bytes().startswith(b"family,rho")


def test_figures_written_and_deterministic(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    code, out, err = run_cli(capsys, "figures", "--out", str(out_dir))
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["fig1.svg", "fig2.svg", "fig3.svg", "fig4.svg"]
    first = (out_dir / "fig1.svg").read_bytes()
    assert first.startswith(b"<svg")
    code, _, _ = run_cli(capsys, "figures", "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "fig1.svg").read_bytes() == first


def test_render_is_byte_deterministic():
    assert cli.render_for_determinism_check() == cli.render_for_determinism_check()


def test_usage_error_for_unknown_subcommand():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 2
