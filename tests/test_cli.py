"""Command line interface: output formats, round trips and exit codes."""

import json
import math
import sys

import pytest

from orliczseq import (ExpSquare, Power, SeqVector, SpaceParams,
                       WeightSequence, luxemburg_norm, modular,
                       uniform_tail_index)
from orliczseq.cli import main, run

W1 = WeightSequence.constant(1.0)


@pytest.fixture
def spike_csv(tmp_path):
    f = tmp_path / "spike.csv"
    f.write_text("0,1,0\n")
    return str(f)


@pytest.fixture
def vec_csv(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text("0,0.4,0\n1,0,-0.3\n-2,0.25,0.1\n5,0.05,0\n")
    return str(f)


def _json_out(capsys, argv, expect=0):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == expect, out
    return json.loads(out)


def test_norm_spike_json(capsys, spike_csv):
    rec = _json_out(capsys, ["norm", "--phi", "power:2", "--in", spike_csv])
    assert rec["value"] == 1.0
    assert rec["iterations"] == 0
    assert rec["modular_at_value"] == 1.0
    assert rec["rho_low"] == rec["rho_high"] == 1.0


def test_norm_matches_library(capsys, vec_csv):
    rec = _json_out(capsys, [
        "norm", "--phi", "expsq", "--k", "1.5", "--weights", "const:0.7",
        "--in", vec_csv])
    params = SpaceParams(1.5, ExpSquare(), WeightSequence.constant(0.7))
    want = luxemburg_norm(params, SeqVector.from_csv(vec_csv)).value
    assert rec["value"] == want  # printed at 17 significant digits


def test_norm_modular_round_trip(capsys, vec_csv):
    rec = _json_out(capsys, ["norm", "--phi", "explin", "--in", vec_csv])
    rec2 = _json_out(capsys, [
        "modular", "--phi", "explin", "--in", vec_csv,
        "--rho", repr(rec["value"])])
    assert rec2["modular"] <= 1.0 + 1e-9


def test_output_byte_identical_across_runs(capsys, vec_csv):
    argv = ["norm", "--phi", "expsq", "--k", "2", "--in", vec_csv]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second and first.endswith("\n")


def test_delta2_command(capsys):
    rec = _json_out(capsys, ["delta2", "--phi", "power:3"])
    assert rec["holds"] is True
    assert abs(rec["limsup_estimate"] - 8.0) <= 1e-12
    rec2 = _json_out(capsys, ["delta2", "--phi", "expsq", "--depth", "40"])
    assert abs(rec2["limsup_estimate"] - 4.0) <= 1e-3


def test_dominate_command_and_exit_on_failure(capsys):
    rec = _json_out(capsys, [
        "dominate", "--phi", "power:2", "--psi", "expsq", "--gamma", "1"])
    assert rec["holds"] is True and math.isinf(rec["t0"])
    code = run(["dominate", "--phi", "power:1", "--psi", "power:2",
                "--gamma", "1"])
    out = capsys.readouterr().out
    assert code == 1
    rec2 = json.loads(out)
    assert rec2["holds"] is False and rec2["first_violation"] < 1.0


def test_embed_mode_a(capsys, vec_csv):
    rec = _json_out(capsys, [
        "embed", "--mode", "a", "--phi", "power:2", "--psi", "expsq",
        "--gamma", "1", "--kprime", "1", "--k", "0", "--in", vec_csv])
    assert rec["mode"] == "a" and rec["c"] == 1.0
    assert rec["ok"] is True
    assert rec["target_norm"] <= rec["c"] * rec["source_norm"] + 1e-9


def test_embed_mode_b_constant(capsys):
    rec = _json_out(capsys, [
        "embed", "--mode", "b", "--phi", "power:3", "--psi", "power:2",
        "--gamma", "1", "--t0", "1", "--k", "1", "--weights", "const:0.25"])
    assert rec["mode"] == "b"
    assert rec["c"] == pytest.approx(2.0, rel=1e-12)  # sqrt(1/0.25)/1


def test_embed_failed_witness_exits_one(capsys):
    code = run(["embed", "--mode", "a", "--phi", "power:1", "--psi",
                "power:2", "--gamma", "1", "--kprime", "1", "--k", "0"])
    capsys.readouterr()
    assert code == 1


def test_tail_index_matches_library(capsys):
    rec = _json_out(capsys, [
        "tail-index", "--phi", "expsq", "--kprime", "1", "--k", "0",
        "--kappa", "1", "--epsilon", "0.1"])
    cert = uniform_tail_index(SpaceParams(1.0, ExpSquare(), W1), 0.0, 1.0, 0.1)
    assert rec["m_eps_kappa"] == cert.m_eps_kappa == 20
    assert rec["covering_dim"] == 41
    assert rec["m1"] == cert.m1 and rec["m2"] == cert.m2


def test_tail_index_of_a_tiny_ball(capsys):
    # theta = 2e-320: theta**2 underflows, and c_theta rounds up to 2**-1074
    rec = _json_out(capsys, [
        "tail-index", "--phi", "power:2", "--kprime", "1", "--k", "0",
        "--kappa", "1e-320", "--epsilon", "1"])
    assert rec["m_eps_kappa"] == 0 and rec["covering_dim"] == 1
    assert rec["c_theta"] == math.ulp(0.0)


def test_covering_command_json_and_determinism(capsys):
    argv = ["covering", "--phi", "power:2", "--kprime", "1", "--k", "0",
            "--kappa", "1", "--epsilon", "0.5", "--samples", "20",
            "--seed", "11", "--max-support", "8"]
    rec = _json_out(capsys, argv)
    assert rec["samples"] == 20
    assert rec["max_residual"] <= 0.25 * (1 + 1e-9)
    run(argv)
    again = capsys.readouterr().out
    run(argv)
    assert capsys.readouterr().out == again


def test_covering_csv_rows(capsys):
    code = run(["covering", "--phi", "power:2", "--kprime", "1", "--k", "0",
                "--kappa", "1", "--epsilon", "0.5", "--samples", "5",
                "--seed", "3", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "sample,tail_modular,residual"
    assert len(lines) == 6
    assert all(len(line.split(",")) == 3 for line in lines[1:])


def test_schauder_curve_csv(capsys, tmp_path):
    f = tmp_path / "q.csv"
    f.write_text("5,2,0\n")
    code = run(["schauder-curve", "--phi", "power:2", "--in", str(f),
                "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,residual"
    assert len(lines) == 7
    assert lines[1].split(",") == ["0", "2"]
    assert lines[-1].split(",") == ["5", "0"]


def test_classify_command(capsys, vec_csv):
    rec = _json_out(capsys, [
        "classify", "--phi", "power:2", "--in", vec_csv,
        "--env-c", "2", "--env-r", "0.7"])
    assert rec["in_class"] is True and rec["in_small"] is True
    # vector entry at m = 1 exceeds the envelope c*r^|m|: must refuse
    code = run(["classify", "--phi", "power:2", "--in", vec_csv,
                "--env-c", "0.4", "--env-r", "0.3"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("flags, message", [
    (["--env-c", "2"], "an envelope needs both --env-c and --env-r"),
    (["--env-r", "0.5"], "an envelope needs both --env-c and --env-r"),
    ([], "classify needs --in and/or an envelope (--env-c/--env-r)"),
])
def test_classify_usage_errors_exit_two(capsys, flags, message):
    assert run(["classify", "--phi", "power:2", *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv", [["delta2", "--phi", "power:2"], ["nonsense"],
                                  ["tail-index", "--phi", "power:2", "--kprime", "1", "--k", "0",
                                   "--kappa", "1e200", "--epsilon", "1"]],
                         ids=["ok", "usage", "numeric"])
def test_main_exits_with_the_code_and_output_of_run(capsys, monkeypatch, argv):
    code = run(argv)
    want = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["orliczseq", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == code
    assert capsys.readouterr() == want


def test_chain_command_form_b(capsys):
    rec = _json_out(capsys, [
        "chain", "--form", "b", "--phi", "power:3", "--psi", "power:2",
        "--gamma", "1", "--t0", "1", "--kprime", "1", "--k", "0.5",
        "--kappa", "1", "--epsilon", "0.5"])
    assert rec["form"] == "compact+local"
    assert rec["compact"] is True
    assert rec["constant"] == 1.0


def test_usage_errors_exit_two(capsys):
    assert run(["norm", "--phi", "power:2"]) == 2  # no input vector
    capsys.readouterr()
    assert run(["nonsense"]) == 2
    capsys.readouterr()
    assert run(["norm", "--phi", "power:0.5", "--in", "x.csv"]) == 2
    capsys.readouterr()
    assert run([]) == 2
    capsys.readouterr()


def test_numeric_failure_exits_three(capsys, tmp_path):
    f = tmp_path / "far.csv"
    f.write_text("1000,1,0\n")
    code = run(["norm", "--phi", "expsq", "--k", "1", "--in", str(f)])
    err = capsys.readouterr().err
    assert code == 3
    assert "1000" in err


def test_float_formatting_survives_round_trip(capsys, vec_csv):
    rec = _json_out(capsys, ["norm", "--phi", "power:3", "--k", "0.7",
                             "--in", vec_csv])
    params = SpaceParams(0.7, Power(3.0), W1)
    want = luxemburg_norm(params, SeqVector.from_csv(vec_csv)).value
    assert rec["value"] == want
    assert math.isclose(
        modular(params, SeqVector.from_csv(vec_csv), rec["value"]),
        rec["modular_at_value"], rel_tol=1e-15)
