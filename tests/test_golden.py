"""Golden CLI outputs: every case must reproduce its recorded bytes exactly.

The expected files under golden/ were recorded from the CLI before the
pairing core, the Weingarten cache and the RD-bound formula were merged, so
they pin that refactors leave every printed byte unchanged.  The two order-16
cases were recorded from the int64 modular elimination, before the float64
kernel replaced it, and the two order-18 cases from the rotation-block solve
on a whole loop matrix, before the solves read only its representatives'
rows.  A case whose argv contains OUT writes through --out; its file is
compared instead of stdout.
"""

import pathlib

import pytest

from qhaar import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
OUT = "{out}"
K14_X = "*".join(["x[1,1]", "x[1,2]", "x[2,2]", "x[2,1]"] * 3 + ["x[1,1]", "x[1,1]"])
K14_V = ("v[2,2]*v*[1,2]*v[1,1]*v*[2,2]*v*[2,1]*v[1,2]*v*[1,1]"
         "*v[1,1]*v*[1,2]*v[2,1]*v[2,2]*v*[1,1]*v[1,2]*v*[2,2]")
# Criterion 7's order-16 word (x22 x11 x11 x22)^4: (P* P)^4 for P = x11 x22, at p = 8.
K16_X = "*".join(["x[2,2]", "x[1,1]", "x[1,1]", "x[2,2]"] * 4)
# Criterion 7's word followed by x[1,2]^2: an order-18 word, past loop_matrix(18).
K18_X = K16_X + "*x[1,2]*x[1,2]"

CASES = {
    "dim_csv": ["dim", "--N", "3", "--kmax", "6"],
    "dim_json": ["dim", "--N", "5", "--kmax", "4", "--format", "json"],
    "gram_csv": ["gram", "--k", "6", "--N", "3"],
    "gram_json": ["gram", "--k", "4", "--N", "4", "--format", "json"],
    "gram_pattern_csv": ["gram", "--k", "6", "--N", "3", "--pattern", "1*1**1"],
    "gram_pattern_json": ["gram", "--k", "4", "--N", "3", "--pattern", "11**",
                          "--format", "json"],
    "wg_csv": ["wg", "--k", "6", "--N", "3"],
    "wg_json_out": ["wg", "--k", "4", "--N", "5", "--format", "json", "--out", OUT],
    "wg_pattern_csv": ["wg", "--k", "6", "--N", "4", "--pattern", "1*1*1*"],
    "wg_pattern_json": ["wg", "--k", "4", "--N", "3", "--pattern", "1**1", "--format", "json"],
    "moment_x4": ["moment", "x[1,1]^4", "--N", "3"],
    "moment_x_rows_equal": ["moment", "x[1,1]*x[1,2]*x[1,2]*x[1,1]*x[1,1]*x[1,1]", "--N", "4"],
    "moment_x_cols_equal": ["moment", "x[1,1]*x[2,1]*x[2,1]*x[1,1]", "--N", "3"],
    "moment_x_mixed": ["moment", "x[1,1]*x[1,2]*x[1,2]*x[1,1]*x[2,1]*x[2,1]", "--N", "5"],
    "moment_x_complex": ["moment", "x[1,1]^2+3/2i*x[1,2]^2*x[2,1]^2", "--N", "3"],
    "moment_x_odd": ["moment", "x[1,1]^3", "--N", "3"],
    "moment_v": ["moment", "v[1,1]*v*[1,1]*v[1,2]*v*[1,2]", "--N", "4"],
    "moment_v_rows_equal": ["moment", "v[1,1]*v[1,2]*v*[1,2]*v*[1,1]", "--N", "3"],
    "moment_v_zero": ["moment", "v[1,1]*v*[1,2]*v[2,1]*v*[2,2]", "--N", "4"],
    "moment_v_unbalanced": ["moment", "v[1,1]*v[1,1]*v[1,1]*v*[1,1]", "--N", "3"],
    "moment_x_k14": ["moment", K14_X, "--N", "3", "--kmax", "14"],
    "moment_v_k14": ["moment", K14_V, "--N", "3", "--kmax", "14"],
    "moment_x_k16_N3": ["moment", K16_X, "--N", "3", "--kmax", "16"],
    "moment_x_k16_N8": ["moment", K16_X, "--N", "8", "--kmax", "16"],
    "moment_x_k18_N3": ["moment", K18_X, "--N", "3", "--kmax", "18"],
    "moment_x_k18_N8": ["moment", K18_X, "--N", "8", "--kmax", "18"],
    "lp_finite": ["lp", "x[1,1]+x[1,2]", "--N", "3", "--p", "4", "--scale"],
    "lp_unscaled": ["lp", "x[1,1]*x[1,2]", "--N", "4", "--p", "6"],
    "lp_limit": ["lp", "x[1,1]+x[1,2]", "--p", "6"],
    "lp_limit_v": ["lp", "v[1,1]+v*[1,2]", "--p", "4"],
    "selectp": ["selectp", "--degree", "2", "--epsilon", "0.5"],
    "dn_csv": ["dn", "--N-list", "3,10", "--rmax", "16", "--nkmax", "8"],
    "dn_finite_argmax": ["dn", "--N-list", "3,20,50", "--rmax", "2", "--nkmax", "16"],
    "dn_json": ["dn", "--N-list", "4", "--rmax", "16", "--nkmax", "8", "--format", "json"],
    "converge_csv": ["converge", "--poly", "x[1,1]+x[1,2]", "--N-list", "3,4",
                     "--p-list", "2,4"],
    "converge_json": ["converge", "--poly", "x[1,1]^2", "--N-list", "4", "--p-list", "2,6",
                      "--format", "json"],
    "converge_v_out": ["converge", "--poly", "v[1,1]+v*[2,1]", "--N-list", "3",
                       "--p-list", "4", "--out", OUT],
    "converge_no_rd": ["converge", "--poly", "x[1,2]", "--N-list", "2", "--p-list", "4",
                       "--no-rd"],
}


def run_case(argv, out_path) -> tuple[int, str | None]:
    """Run one case through cli.main; return (exit code, stdout or --out text)."""
    code = cli.main([str(out_path) if a == OUT else a for a in argv])
    return code, out_path.read_text() if OUT in argv else None


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, capsys):
    code, written = run_case(CASES[name], tmp_path / "out")
    stdout = capsys.readouterr().out
    assert code == 0
    got = written if written is not None else stdout
    assert got == (GOLDEN / f"{name}.out").read_text()
