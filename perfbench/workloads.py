"""Seeded workload commands for the qhaar benchmark, and checks on their output.

Each workload is a fixed list of `qhaar` CLI argument vectors drawn from a
seed.  The seed chooses labels, term order and dimensions inside a fixed
input shape, so every seed asks the program for the same amount of work
while the inputs themselves differ.  Why each workload exists, and which
layer it loads, is written down in NOTES.md next to this file.

Checks come in two kinds.  For DEFAULT_SEED the stdout of every command
must equal the bytes recorded in expected/<workload>.json.  For every seed,
reference-free checks apply: moments lie in (0, 1], free-limit rows equal
sqrt(t) * Catalan(m)^(1/2m), finite rows stay below their RD bound, and
D_N rows satisfy 1 <= scanned_max <= rigorous_upper.
"""

from __future__ import annotations

import csv
import io
import json
import math
import pathlib
import random
from fractions import Fraction

import mpmath

WORKLOADS = ("moment_modular", "lp_table", "lp_words", "dn_scan")
DEFAULT_SEED = 0
EXPECTED_DIR = pathlib.Path(__file__).resolve().parent / "expected"

# Order of the moment words: past the table route (k <= 12), so every word
# takes the modular route; order 16 costs ~40 s per word and is left out.
MOMENT_K = 14
MOMENT_DIMS = (3, 8)
LP_TABLE_P = (2, 4, 8, 12)
LP_TABLE_N = (3, 4)
LP_WORDS_P = 10
LP_WORDS_N = 3
# dn_scan draws its N from this range; the scan cost is flat in N.
DN_RANGE = (3, 60)

# How strongly the cold and the warm pass of each workload slow down with
# the speed probe (speed.py), as measured by calibrate.py; see NOTES.md.
SENSITIVITY = {"moment_modular": (0.45, 0.35), "lp_table": (0.7, 1.0),
               "lp_words": (1.0, 1.0), "dn_scan": (1.0, 1.0)}


def _x_word(letters) -> str:
    return "*".join(f"x[{i},{j}]" for i, j, _ in letters)


def _v_word(letters) -> str:
    return "*".join(f"v*[{i},{j}]" if eps == "*" else f"v[{i},{j}]" for i, j, eps in letters)


def _adjoint_square(w, rotation: int):
    """Letters of w* w rotated left by `rotation` places.

    Row labels and column labels of w* w are each constant on the pairs of
    the rainbow pairing (and of its rotations), so no word short-circuits
    to 0, and h(w* w) = ||w||_2^2 lies in (0, 1]; rotation keeps the value
    because the Haar state of O_N^+ and U_N^+ is a trace.
    """
    flip = {"1": "*", "*": "1"}
    word = [(i, j, flip[e]) for i, j, e in reversed(w)] + list(w)
    return word[rotation:] + word[:rotation]


def _half_word(rng: random.Random, N: int, stars: bool):
    half = MOMENT_K // 2
    if N > half:
        # Distinct labels: w* w is compatible with one pairing only, so the
        # reduced moment has the same size for every seed.
        rows, cols = rng.sample(range(1, N + 1), half), rng.sample(range(1, N + 1), half)
    else:
        rows = [rng.randint(1, N) for _ in range(half)]
        cols = [rng.randint(1, N) for _ in range(half)]
    eps = ["1" if a % 2 == 0 else "*" for a in range(half)] if stars else ["1"] * half
    return list(zip(rows, cols, eps))


def moment_modular(seed: int) -> list[list[str]]:
    """Order-14 moments of w* w, O_N^+ and U_N^+, at N = 3 and N = 8.

    The U_N^+ words alternate v and v*, so their colour pattern admits all
    429 pairings; both U_N^+ words share one rotation, hence one pattern.
    """
    rng = random.Random(seed)
    rot_o, rot_u = rng.randrange(MOMENT_K), rng.randrange(MOMENT_K)
    cmds = []
    for N in MOMENT_DIMS:
        x = _adjoint_square(_half_word(rng, N, stars=False), rot_o)
        v = _adjoint_square(_half_word(rng, N, stars=True), rot_u)
        for word in (_x_word(x), _v_word(v)):
            cmds.append(["moment", word, "--N", str(N), "--kmax", str(MOMENT_K)])
    return cmds


def _shuffled_poly(rng: random.Random, gens) -> str:
    gens = list(gens)
    rng.shuffle(gens)
    return "+".join(f"x[{i},{j}]" for i, j in gens)


def lp_table(seed: int) -> list[list[str]]:
    """`converge` on x[a,b] + x[c,d] with a != c and b != d."""
    rng = random.Random(seed)
    a, c = rng.sample(range(1, 4), 2)
    b, d = rng.sample(range(1, 4), 2)
    poly = _shuffled_poly(rng, [(a, b), (c, d)])
    return [["converge", "--poly", poly,
             "--N-list", ",".join(map(str, LP_TABLE_N)),
             "--p-list", ",".join(map(str, LP_TABLE_P))]]


def lp_words(seed: int) -> list[list[str]]:
    """`converge` on x[a,b] + x[a,c] + x[d,b]: two share a row, two a column."""
    rng = random.Random(seed)
    a, d = rng.sample(range(1, 4), 2)
    b, c = rng.sample(range(1, 4), 2)
    poly = _shuffled_poly(rng, [(a, b), (a, c), (d, b)])
    return [["converge", "--poly", poly, "--N-list", str(LP_WORDS_N),
             "--p-list", str(LP_WORDS_P)]]


def dn_scan(seed: int) -> list[list[str]]:
    """`dn` at the default truncation for one seeded N."""
    rng = random.Random(seed)
    return [["dn", "--N-list", str(rng.randint(*DN_RANGE))]]


_GENERATORS = {"moment_modular": moment_modular, "lp_table": lp_table,
               "lp_words": lp_words, "dn_scan": dn_scan}


def commands(workload: str, seed: int) -> list[list[str]]:
    """The CLI argument vectors of one pass of `workload` at `seed`."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](seed)


# -- output checks ----------------------------------------------------------

def expected_path(workload: str) -> pathlib.Path:
    return EXPECTED_DIR / f"{workload}.json"


def _csv_rows(out: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out)))


def _option(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _check_moment(argv, out) -> list[str]:
    text = out.strip()
    try:
        value = Fraction(text)
    except ValueError:
        return [f"moment output {text!r} is not a real rational"]
    if not 0 < value <= 1:
        return [f"moment {text} outside (0, 1]"]
    return []


def _limit_norm(t: int, p: int) -> mpmath.mpf:
    """||s_1 + ... + s_t||_p for t free standard semicirculars (criterion 8)."""
    m = p // 2
    return mpmath.sqrt(t) * mpmath.root(math.comb(2 * m, m) // (m + 1), 2 * m)


def _check_converge(argv, out) -> list[str]:
    t = _option(argv, "--poly").count("x[")
    Ns = _option(argv, "--N-list").split(",")
    ps = [int(p) for p in _option(argv, "--p-list").split(",")]
    rows = _csv_rows(out)
    problems = []
    want = [(N, str(p)) for N in Ns + ["inf"] for p in ps]
    got = [(r.get("N"), r.get("p")) for r in rows]
    if got != want:
        return [f"converge rows {got} != expected {want}"]
    with mpmath.workprec(128):
        for r in rows:
            limit = _limit_norm(t, int(r["p"]))
            if abs(mpmath.mpf(r["lp_limit"]) - limit) > limit * mpmath.mpf("1e-23"):
                problems.append(f"N={r['N']} p={r['p']}: lp_limit {r['lp_limit']} "
                                f"!= sqrt({t})*Catalan^(1/2m) = {mpmath.nstr(limit, 25)}")
            if r["N"] != "inf":
                try:
                    fin, bound = mpmath.mpf(r["lp_finite"]), mpmath.mpf(r["rd_bound"])
                except ValueError:
                    problems.append(f"N={r['N']} p={r['p']}: non-numeric row {r}")
                    continue
                if not fin <= bound:
                    problems.append(f"N={r['N']} p={r['p']}: lp_finite {fin} > rd_bound {bound}")
    return problems


def _check_dn(argv, out) -> list[str]:
    Ns = _option(argv, "--N-list").split(",")
    rows = _csv_rows(out)
    if [r.get("N") for r in rows] != Ns:
        return [f"dn rows for N={[r.get('N') for r in rows]}, expected {Ns}"]
    problems = []
    for r in rows:
        try:
            lo, hi = mpmath.mpf(r["scanned_max"]), mpmath.mpf(r["rigorous_upper"])
        except ValueError:
            problems.append(f"N={r['N']}: non-numeric row {r}")
            continue
        if not 1 <= lo <= hi:
            problems.append(f"N={r['N']}: need 1 <= scanned_max {lo} <= rigorous_upper {hi}")
    return problems


_CHECKS = {"moment": _check_moment, "converge": _check_converge, "dn": _check_dn}


def check_output(argv: list[str], rc: int, out: str, expected: str | None = None) -> list[str]:
    """Problems found in one command's result; empty when it passes.

    `expected`, when given, is the stdout recorded for the default seed and
    must match byte for byte.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    problems = []
    if expected is not None and out != expected:
        problems.append("stdout differs from the recorded default-seed output")
    try:
        problems += _CHECKS[argv[0]](argv, out)
    except (KeyError, ValueError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def expected_outputs(workload: str, seed: int, cmds: list[list[str]]) -> list[str | None]:
    """Recorded stdout per command for the default seed, None otherwise."""
    if seed != DEFAULT_SEED:
        return [None] * len(cmds)
    with open(expected_path(workload)) as f:
        recorded = json.load(f)
    if [r["argv"] for r in recorded] != cmds:
        raise RuntimeError(f"{expected_path(workload)} was recorded for other commands")
    return [r["stdout"] for r in recorded]
