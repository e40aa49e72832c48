import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

import qhaar
from qhaar import cli, ncpoly, rapid_decay


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dim_csv(capsys):
    code, out, _ = run(["dim", "--N", "3", "--kmax", "4"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,dim"
    assert lines[1:] == ["0,1", "1,3", "2,8", "3,21", "4,55"]


def test_moment_rational(capsys):
    code, out, _ = run(["moment", "x[1,1]^4", "--N", "3"], capsys)
    assert code == 0
    assert out.strip() == "1/6"


def test_moment_unitary(capsys):
    code, out, _ = run(["moment", "v[1,1]*v*[1,1]", "--N", "5"], capsys)
    assert code == 0
    assert out.strip() == "1/5"


def test_wg_k4(capsys):
    code, out, _ = run(["wg", "--k", "4", "--N", "3"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "0,1/8 -1/24"
    assert lines[2] == "1,-1/24 1/8"


def test_gram_pattern(capsys):
    code, out, _ = run(["gram", "--k", "2", "--N", "6", "--pattern", "1*"], capsys)
    assert code == 0
    assert out.strip().split("\n")[1] == "0,6"


def test_lp_closed_form(capsys):
    code, out, _ = run(["lp", "x[1,1]", "--N", "5", "--p", "4", "--scale"], capsys)
    assert code == 0
    # (2N/(N+1))^(1/4) at N = 5
    assert abs(float(out.strip()) - (10 / 6) ** 0.25) < 1e-12


def test_selectp(capsys):
    code, out, _ = run(["selectp", "--degree", "2", "--epsilon", "0.5"], capsys)
    assert code == 0
    assert out.startswith("m=")
    achieved = float(out.strip().split("achieved=")[1])
    assert achieved <= 1.5


def test_selectp_prints_achieved_at_working_precision(capsys):
    # At 53 bits the printed value was 1.000000001000000082740371, above 1 + epsilon.
    code, out, _ = run(["selectp", "--degree", "2", "--epsilon", "1e-9"], capsys)
    assert code == 0
    achieved = Fraction(out.strip().split("achieved=")[1])
    assert achieved <= 1 + Fraction(1, 10 ** 9)


def test_dn_sweep(capsys):
    code, out, _ = run(["dn", "--N-list", "3,10", "--rmax", "16", "--nkmax", "8"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,scanned_max,rigorous_upper,tail_error,argmax"
    assert len(lines) == 3
    for line in lines[1:]:
        parts = line.split(",")
        assert 1.0 < float(parts[1]) <= float(parts[2])


def test_converge_csv_shape_and_gaps(capsys):
    code, out, _ = run(["converge", "--poly", "x[1,1]^2", "--N-list", "4,8,16",
                        "--p-list", "4"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,p,lp_finite,lp_limit,gap,rd_bound"
    body = [l.split(",") for l in lines[1:]]
    finite = [r for r in body if r[0] != "inf"]
    assert [r[0] for r in finite] == ["4", "8", "16"]
    gaps = [float(r[4]) for r in finite]
    assert gaps[0] > gaps[1] > gaps[2]
    # every finite value obeys its RD bound column
    for r in finite:
        assert float(r[2]) <= float(r[5])
    limit_rows = [r for r in body if r[0] == "inf"]
    assert len(limit_rows) == 1


def test_converge_json_schema(tmp_path, capsys):
    out_path = tmp_path / "sweep.json"
    code, _, _ = run(["converge", "--poly", "x[1,1]", "--N-list", "4",
                      "--p-list", "2", "--format", "json",
                      "--out", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert set(doc) == {"config", "rows", "meta"}
    assert set(doc["meta"]) == {"precision_bits", "kmax", "version"}
    assert doc["config"]["polynomial"] == "x[1,1]"
    assert all(set(row) == {"N", "p", "lp_finite", "lp_limit", "gap", "rd_bound"}
               for row in doc["rows"])


def test_converge_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(["converge", "--poly", "x[1,1]+x[1,2]", "--N-list", "3,5",
                          "--p-list", "2,4", "--out", str(path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("rd", [[], ["--no-rd"]])
def test_converge_rows_match_the_word_route(rd, capsys, monkeypatch):
    # A linear polynomial takes ncpoly.linear_state up to k = 12; p = 14 is
    # refused as the word route refuses it, in the same error row.
    argv = ["converge", "--poly", "x[1,1]+2*x[2,1]", "--N-list", "3,4", "--p-list", "2,4,14",
            *rd]
    route = run(argv, capsys)
    assert route[0] == 0 and '\n3,14,"error(k=14,N=3)",3.44' in route[1]
    monkeypatch.setattr(ncpoly, "linear_state", lambda *args: None)
    assert run(argv, capsys) == route


def test_converge_without_rd_bounds_takes_no_l2(capsys, monkeypatch):
    ps = []
    real = ncpoly.lp_norm
    monkeypatch.setattr(ncpoly, "lp_norm", lambda a, p, N, **kw: ps.append((p, N)) or
                        real(a, p, N, **kw))
    code, _, _ = run(["converge", "--poly", "x[1,1]", "--N-list", "2,3", "--p-list", "4",
                      "--no-rd"], capsys)
    assert code == 0 and ps == [(4, None), (4, 2), (4, 3)]
    ps.clear()
    run(["converge", "--poly", "x[1,1]", "--N-list", "3", "--p-list", "4"], capsys)
    assert ps == [(4, None), (2, 3), (4, 3)]


def test_exact_output_past_the_int_str_digit_limit(capsys, monkeypatch):
    # Each literal parses (3000 digits), but the printed values run to 6000
    # and 9000 digits, past the 4300 that str(int) converts by default.
    big = "7" * 3000
    monkeypatch.setattr(sys, "set_int_max_str_digits", None)  # the library must not call it
    code, out, err = run(["moment", f"{big}^2", "--N", "3"], capsys)
    assert code == 0 and err == ""
    code, dims, err = run(["dim", "--N", big, "--kmax", "3"], capsys)
    assert code == 0 and err == ""
    limit = sys.get_int_max_str_digits()
    monkeypatch.undo()
    sys.set_int_max_str_digits(0)
    try:
        N = int(big)
        assert out == f"{N ** 2}\n"
        assert dims.split() == ["k,dim", "0,1", f"1,{N}", f"2,{N ** 2 - 1}",
                                f"3,{N ** 3 - 2 * N}"]
    finally:
        sys.set_int_max_str_digits(limit)


def test_exit_code_parse_error(capsys):
    code, _, err = run(["moment", "x[1]", "--N", "3"], capsys)
    assert code == 2
    assert "error" in err


def test_exit_code_config_error(capsys):
    for argv in (
        ["converge", "--poly", "x[1,1]", "--N-list", "2,4", "--p-list", "2"],
        ["converge", "--poly", "x[1,1]", "--N-list", "4", "--p-list", "3"],
        ["gram", "--k", "3", "--N", "3"],
        ["lp", "x[1,1]", "--N", "3", "--p", "3"],
        ["gram", "--k", "2", "--N", "3", "--pattern", "1x"],
        ["gram", "--k", "4", "--N", "3", "--pattern", "1*1*1*"],
        ["wg", "--k", "2", "--N", "3", "--pattern", "11"],
        ["wg", "--k", "3", "--N", "3"],
        ["selectp", "--degree", "-1", "--epsilon", "0.5"],
        ["selectp", "--degree", "2", "--epsilon", "nan"],
        ["selectp", "--degree", "2", "--epsilon", "1e-40"],
        ["moment", "x[1,1]x[1,1]", "--N", "3"],
        ["moment", "x[1,4]*x[1,4]", "--N", "3"],
        ["dn", "--N-list", "3,x"],
        ["converge", "--poly", "x[1,1]", "--N-list", "4,y"],
        ["dn", "--N-list", "3", "--rmax", "-1"],
        ["lp", "x[0,0]", "--p", "2"],
        ["lp", "v[1,0]", "--p", "2"],
        ["moment", "1/" + "7" * 5000, "--N", "3"],  # longer than int() accepts
    ):
        code, out, err = run(argv, capsys)
        assert code == 2, argv
        assert out == "" and err.startswith("error: "), argv


@pytest.mark.parametrize("argv", [
    ["moment", "x[1,1]", "--N", "3", "--format", "json"],
    ["moment", "x[1,1]", "--N", "3", "--out", "f.json"],
    ["lp", "x[1,1]", "--p", "2", "--model", "limit"],
    ["selectp", "--degree", "2", "--epsilon", "0.5", "--kmax", "14"],
    ["check", "--precision-bits", "64"],
    ["lp", "x[1,1]", "--N", "3", "--p", "4", "--precision-bits", "64"],
    ["dn", "--N-list", "3", "--precision-bits", "64"],
    ["dn", "--N-list", "3", "--kmax", "14"],
])
def test_unread_option_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_format_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["converge", "--poly", "x[1,1]", "--N-list", "4", "--p-list", "2",
                  "--format", "xml"])
    assert exc.value.code == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err


def test_exit_code_resource_limit(capsys):
    for argv in (
        ["moment", "x[1,1]^14", "--N", "3", "--kmax", "12"],
        ["wg", "--k", "14", "--N", "3"],
        ["gram", "--k", "20", "--N", "3"],
        ["dn", "--N-list", "3", "--nkmax", "1000", "--rmax", "1000"],
    ):
        code, out, err = run(argv, capsys)
        assert code == 3, argv
        assert out == "" and "resource limit" in err, argv


def test_dn_refuses_a_huge_grid_before_the_scan(capsys, monkeypatch):
    # About 10^9 declared points; the refusal builds no factor table.
    def no_scan(*args):
        raise AssertionError("factor_table called")

    monkeypatch.setattr(rapid_decay, "factor_table", no_scan)
    code, out, err = run(["dn", "--N-list", "3", "--nkmax", "1000", "--rmax", "1000"], capsys)
    assert code == 3
    assert out == "" and "1005008004 points" in err


def test_check_passes(capsys):
    code, out, _ = run(["check"], capsys)
    assert code == 0
    assert "all invariant checks passed" in out


def test_check_compares_the_d_n_bracket_at_working_precision(capsys, monkeypatch):
    # At 53 bits the upper end 1 + 2^-60 + 2^-100 rounds to 1, below the value.
    with mpmath.workprec(cli.qnum.PRECISION_BITS):
        value = 1 + mpmath.mpf(2) ** -60
    upper = 1 + Fraction(1, 2 ** 60) + Fraction(1, 2 ** 100)
    bound = rapid_decay.RDBound(N=3, value=value, argmax=(0, 0, 0),
                                truncation=rapid_decay.TruncationLimits(),
                                tail_error=Fraction(0), rigorous_upper=upper)
    monkeypatch.setattr(rapid_decay, "dn_constant", lambda N, truncation: bound)
    code, out, _ = run(["check"], capsys)
    assert code == 0, out


def test_check_exit_4_on_failure(capsys, monkeypatch):
    # sabotage one invariant to exercise the failure path
    monkeypatch.setattr(cli.qnum, "q_int", lambda a, N, **kw: 0)
    code, out, err = run(["check"], capsys)
    assert code == 4
    assert "FAIL" in out


def test_large_moment_writes_nothing_to_stderr():
    # A separate process, so no test harness handler hides a logged warning.
    word = "*".join(["x[1,1]", "x[1,2]", "x[2,2]", "x[2,1]"] * 3 + ["x[1,1]", "x[1,1]"])
    src = str(pathlib.Path(qhaar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-m", "qhaar.cli", "moment", word, "--N", "3",
                           "--kmax", "14"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.strip()
    assert proc.stderr == ""
