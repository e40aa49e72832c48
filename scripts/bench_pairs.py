"""Alternating parent/change benchmark pairs, written to one BENCH JSON file.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --seeds 501,502 \
        --out BENCH.json

DIR is the root of a qhaar checkout.  For each seed and each of the four
workloads, `perfbench/run.py` runs in both checkouts, one after the other,
and the one that goes first alternates from seed to seed.  Then each
checkout gets one `--trace 1` run per workload.  Last come three pairs of
the timings outside perfbench, again alternating which checkout goes
first: criterion 7's order-16 moment at N = 3 and N = 8 in a fresh process
after building `loop_matrix(16)`; the modular kernel `_solve_mod_prime` on
the k = 14 and k = 16 Gram matrices at N = 3 with one right-hand column,
each the median over the first five primes, in a fresh process; the whole
certified build of the k = 12 table as `weingarten` runs it,
`weingarten_table(12, N)` at N = 3 and N = 4 (kernel, CRT, certificate
and the table's tuples, with the loop matrix and the rotation orbits built
before the clock starts), in a fresh process; a cold
coloured `loop_matrix(16, pattern)` for each of COLOURED_PATTERNS, each
in a fresh process; `rapid_decay.dn_constant(N)` with the default
truncation for each N in DN_NS, each in a fresh process (the `D_N` scan
layer, timed directly); for each k in WALK_KS, a cold `loop_matrix(k)` and
then `cycle_types(k)`, in one fresh process per k with the pairing list
built before the clock starts; the first 14 primes p = 1 (mod 14) and
then the first MAX_PRIMES primes p = 1 (mod 16) from an empty
`prime_stream` cache, in that order, in one fresh process; and criterion 5 (the `D_N` bracket at five N),
criterion 7 and criterion 9 (the k <= 12 Weingarten tables at N = 2..10)
each run alone under pytest; `bilinear_solve` inside `haar_moment` for
one order-14 word and for criterion 7's order-16 word, at N = 3 and N = 8,
each in a fresh process with the loop matrix built before the clock
starts (the call is timed by a wrapper on `exactla.bilinear_solve`, so the
row reads the same in trees whose solve takes other arguments); and
`qhaar moment` of `x[1,1]` repeated 18 times at N = 3 with `--kmax 18`, in
a fresh process: its wall time, the child's own peak RSS (VmHWM, read by
the child itself at exit) and its stdout, which must be byte-identical
across both checkouts and all pairs (`order18_stdout_identical`); and the
free-limit norm `lp_norm(parse_poly(FREE_POLY), 10, None)` in a fresh
process: the call's time and the process's wall time, the child's VmHWM
and the value, which must be identical likewise
(`free_lp10_value_identical`); and `qhaar lp 'x[1,1]+x[1,2]' --N 3 --p 14
--kmax 14` in a fresh process: its wall time, the child's VmHWM and its
stdout, which must be identical likewise (`lp14_stdout_identical`).  In
the change checkout only, each timing pair also times one prime of the
rotation-block solve (`exactla._block_solve`, residues and transforms
included) against the dense kernel on the same Gram matrix at k = 14 and
k = 16, N = 3, one right-hand column, the median over the first five
primes p = 1 (mod k), and checks that their residues are equal; and runs
the same `lp` at p = 16 with `--kmax 16`, timed and measured likewise
(`change_only`; a tree that takes such a form word by word needs minutes
for it).  After the traced runs, each checkout reports what its cached
k = 12 table at N = 3 holds (`k12_table`: rows, ints and their bytes).
After the timing pairs, `perfbench/report.py` runs once on the change
(default seed) and its table is kept as `report_table`.
Nothing runs concurrently.  The JSON holds `nproc`, every run's metrics
and `correct` flag, every timing run, and one table line per workload and
metric: the parent's median and quartiles, the change's median, and the
number of pairs in which the change read lower; the timings outside
perfbench get the median and range of each side and the same count.  The
file is rewritten after every seed and every timing pair, so an
interrupted run keeps its finished pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

WORKLOADS = ("moment_modular", "lp_table", "lp_words", "dn_scan")

ORDER16 = """
import json, time
from qhaar import pairings, weingarten
t = time.perf_counter()
pairings.loop_matrix(16, None)  # the cache key haar_moment uses in older trees
out = {"loop_matrix_s": time.perf_counter() - t}
w = weingarten.GeneratorWord(tuple([(2, 2, "1"), (1, 1, "1"), (1, 1, "1"), (2, 2, "1")] * 4), "o+")
for N in (3, 8):
    t = time.perf_counter(); h = weingarten.haar_moment(w, N, kmax=16)
    out[f"N{N}_s"] = time.perf_counter() - t
    out[f"N{N}_value"] = str(h)
print(json.dumps(out))
"""

KERNEL = """
import itertools, json, statistics, time
import numpy as np
from qhaar import exactla, pairings
out = {}
for name, k in (("kernel_k14_s", 14), ("kernel_k16_s", 16)):
    loop_mat = pairings.loop_matrix(k)
    n = loop_mat.shape[0]
    V = (np.arange(n) % 3 == 0).astype(np.float64)[:, None]
    times = []
    for p in itertools.islice(exactla.prime_stream(), 5):
        pows = np.array([pow(3, l, p) for l in range(int(loop_mat.max()) + 1)], dtype=np.float64)
        A = pows[loop_mat]
        t = time.perf_counter()
        exactla._solve_mod_prime(A, V, p)
        times.append(time.perf_counter() - t)
    out[name] = statistics.median(times)
print(json.dumps(out))
"""

CERTIFIED = """
import json, time
from qhaar import pairings, weingarten
pairings.loop_matrix(12)
pairings.rotation_orbits(12)
out = {}
for N in (3, 4):
    t = time.perf_counter()
    weingarten.weingarten_table(12, N)
    out[f"table_k12_N{N}_s"] = time.perf_counter() - t
print(json.dumps(out))
"""

# One order-14 O_N^+ word, w* w for w = x11 x12 x21 x22 x11 x21 x12, and
# criterion 7's order-16 word.
HALF14 = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 1), (2, 1), (1, 2)]
SOLVE_WORDS = {"k14": HALF14[::-1] + HALF14,
               "k16": [(2, 2), (1, 1), (1, 1), (2, 2)] * 4}

SOLVE = """
import json, sys, time
from qhaar import exactla, pairings, weingarten
letters = tuple((i, j, "1") for i, j in json.loads(sys.argv[1]))
N = int(sys.argv[2])
pairings.loop_matrix(len(letters))
real, spent = exactla.bilinear_solve, []
def timed_solve(*args, **kwargs):
    t = time.perf_counter()
    try:
        return real(*args, **kwargs)
    finally:
        spent.append(time.perf_counter() - t)
exactla.bilinear_solve = timed_solve
h = weingarten.haar_moment(weingarten.GeneratorWord(letters, "o+"), N, kmax=len(letters))
print(json.dumps({"s": sum(spent), "value": str(h)}))
"""

ORDER18 = """
import sys
from qhaar import cli
rc = cli.main(["moment", "*".join(["x[1,1]"] * 18), "--N", "3", "--kmax", "18"])
sys.stdout.flush()
hwm = next(line for line in open("/proc/self/status") if line.startswith("VmHWM:"))
print(int(hwm.split()[1]) / 1024, file=sys.stderr)
sys.exit(rc)
"""

# A linear form past order 12: `lp` at p = k with --kmax k.
LP_FORM = """
import sys
from qhaar import cli
rc = cli.main(["lp", "x[1,1]+x[1,2]", "--N", "3", "--p", sys.argv[1], "--kmax", sys.argv[1]])
sys.stdout.flush()
hwm = next(line for line in open("/proc/self/status") if line.startswith("VmHWM:"))
print(int(hwm.split()[1]) / 1024, file=sys.stderr)
sys.exit(rc)
"""

# The ints the cached k = 12 table at N = 3 holds: its representative columns, or the
# n x n numerators of trees that keep the whole table, and their bytes as Python objects.
TABLE_INTS = """
import json, sys
from qhaar import weingarten
t = weingarten.weingarten_table(12, 3)
rows = t.cols if hasattr(t, "cols") else t.wg_num
ints = [x for row in rows for x in row]
print(json.dumps({"rows": len(rows), "ints": len(ints), "bytes": sys.getsizeof(rows)
                  + sum(map(sys.getsizeof, rows)) + sum(map(sys.getsizeof, ints))}))
"""

# lp_words' free-limit side: (P* P)^5 has 59,049 words for these three letters.
FREE_POLY = "x[2,1]+x[2,2]+x[3,1]"

FREE_LIMIT = """
import json, sys, time
from qhaar import ncpoly
t = time.perf_counter()
value = ncpoly.lp_norm(ncpoly.parse_poly(sys.argv[1]), 10, None)
s = time.perf_counter() - t
hwm = next(line for line in open("/proc/self/status") if line.startswith("VmHWM:"))
print(json.dumps({"s": s, "vmhwm_mb": int(hwm.split()[1]) / 1024, "value": str(value)}))
"""

BLOCK_PRIME = """
import itertools, json, statistics, time
import numpy as np
from qhaar import exactla, pairings
out = {}
for k in (14, 16):
    loop_mat, orbits = pairings.loop_matrix(k), pairings.rotation_orbits(k)
    n, r = loop_mat.shape[0], orbits.shape[1]
    V = (np.arange(n) % 3 == 0).astype(np.float64)[:, None]
    L, Vs = loop_mat[orbits[:, :1], orbits.T[:, None, :]], V[orbits.T]
    block, dense, equal = [], [], True
    for p in itertools.islice(exactla.prime_stream(r), 5):
        pows = np.array([pow(3, l, p) for l in range(int(loop_mat.max()) + 1)])
        t = time.perf_counter()
        T = exactla._block_solve(pows[L], Vs, orbits, p)
        block.append(time.perf_counter() - t)
        t = time.perf_counter()
        D = exactla._solve_mod_prime(pows[loop_mat], V, p)
        dense.append(time.perf_counter() - t)
        equal = equal and bool(np.array_equal(np.mod(T, p), np.mod(D, p)))
    out[f"block_prime_k{k}_s"] = statistics.median(block)
    out[f"dense_prime_k{k}_s"] = statistics.median(dense)
    out[f"block_prime_k{k}_equal"] = equal
print(json.dumps(out))
"""

# The largest coloured list at k = 16 (429 pairings), and a periodic one (55).
COLOURED_PATTERNS = ("11*1*1*1*1*1*1**", "11**11**11**11**")

COLOURED = """
import json, sys, time
from qhaar import pairings
t = time.perf_counter()
pairings.loop_matrix(16, tuple(sys.argv[1]))
print(json.dumps(time.perf_counter() - t))
"""

# The D_N scan at the default truncation: the smallest N, N = 4, 10 and 31
# (saturation index e0 = 39, 22 and 15, where the scan's cuts start to pay),
# the N that perfbench's dn_scan draws at its default seed, and a large N.
DN_NS = (3, 4, 10, 31, 57, 1000)

DN = """
import json, sys, time
from qhaar import rapid_decay
t = time.perf_counter()
rapid_decay.dn_constant(int(sys.argv[1]))
print(json.dumps(time.perf_counter() - t))
"""

# The pair walks of the pairings module: the k = 12 table, order-14 and order-16 moments.
WALK_KS = (12, 14, 16)

WALKS = """
import json, sys, time
from qhaar import pairings
k = int(sys.argv[1])
pairings.enumerate_nc_pairings(k)
t = time.perf_counter()
pairings.loop_matrix(k)
out = {"loop_matrix_s": time.perf_counter() - t}
t = time.perf_counter()
pairings.cycle_types(k)
out["cycle_types_s"] = time.perf_counter() - t
print(json.dumps(out))
"""

COLD_PRIMES = """
import itertools, json, time
from qhaar import exactla
out = {}
for r, count in ((14, 14), (16, exactla.MAX_PRIMES)):
    t = time.perf_counter()
    list(itertools.islice(exactla.prime_stream(r), count))
    out[f"cold_primes_r{r}_{count}_s"] = time.perf_counter() - t
print(json.dumps(out))
"""


def env_for(tree: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(tree, "src")
    return env


def run(tree: str, workload: str, seed: int, trace: int) -> dict:
    """Run perfbench/run.py in `tree`; return its last-line JSON record."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--trace", str(trace)], cwd=tree,
                          capture_output=True, text=True, timeout=600, check=True)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {m: v["value"] for m, v in record["metrics"].items()}
    metrics["fail_ratio"] = record["failed"] / record["attempted"]
    return {"correct": record["correct"], "metrics": metrics}


def timed(argv: list[str], tree: str) -> tuple[float, str]:
    t = time.perf_counter()
    proc = subprocess.run(argv, cwd=tree, env=env_for(tree), capture_output=True, text=True,
                          timeout=3600, check=True)
    return time.perf_counter() - t, proc.stdout


def median_table(pairs: list[dict], timing_pairs: list[dict],
                 change_only: list[dict]) -> list[str]:
    lines = [f"{'workload':15s} {'metric':12s} {'parent q1':>10s} {'parent':>10s} "
             f"{'parent q3':>10s} {'change':>10s} lower"]
    for workload in WORKLOADS:
        mine = [p for p in pairs if p["workload"] == workload]
        for metric in mine[0]["parent"]["metrics"]:
            par = [p["parent"]["metrics"][metric] for p in mine]
            chg = [p["change"]["metrics"][metric] for p in mine]
            q1, q3 = (statistics.quantiles(par, n=4)[::2] if len(par) > 1 else (par[0],) * 2)
            lower = sum(c < a for a, c in zip(par, chg))
            lines.append(f"{workload:15s} {metric:12s} {q1:>10.5g} {statistics.median(par):>10.5g} "
                         f"{q3:>10.5g} {statistics.median(chg):>10.5g} {lower}/{len(mine)}")
    if timing_pairs:
        lines.append(f"{'timing':15s} {'parent':>10s} {'parent range':>17s} "
                     f"{'change':>10s} {'change range':>17s} lower")
        for metric in (m for m in timing_pairs[0]["parent"] if m.endswith(("_s", "_mb"))):
            par = [p["parent"][metric] for p in timing_pairs]
            chg = [p["change"][metric] for p in timing_pairs]
            lower = sum(c < a for a, c in zip(par, chg))
            par_range, chg_range = (f"{min(xs):.4g}-{max(xs):.4g}" for xs in (par, chg))
            lines.append(f"{metric:15s} {statistics.median(par):>10.4g} {par_range:>17s} "
                         f"{statistics.median(chg):>10.4g} {chg_range:>17s} "
                         f"{lower}/{len(timing_pairs)}")
    for k in (14, 16):
        block = [run[f"block_prime_k{k}_s"] for run in change_only]
        dense = [run[f"dense_prime_k{k}_s"] for run in change_only]
        if block:
            equal = all(run[f"block_prime_k{k}_equal"] for run in change_only)
            lines.append(f"one prime k={k}: block {statistics.median(block):.4g} s, dense "
                         f"{statistics.median(dense):.4g} s, dense/block "
                         f"{statistics.median(dense) / statistics.median(block):.3g}, "
                         f"equal residues {equal} ({len(block)} runs)")
    if change_only:
        cold = statistics.median(run["lp16_cold_s"] for run in change_only)
        hwm = statistics.median(run["lp16_vmhwm_mb"] for run in change_only)
        outs = sorted({run["lp16_stdout"] for run in change_only})
        lines.append(f"lp p=16 (change only): {cold:.4g} s cold, VmHWM {hwm:.4g} MB, "
                     f"stdout {outs} ({len(change_only)} runs)")
    return lines


def timing_run(tree: str) -> dict:
    """Every timing outside perfbench, once in `tree`."""
    out = json.loads(timed([sys.executable, "-c", ORDER16], tree)[1])
    out.update(json.loads(timed([sys.executable, "-c", KERNEL], tree)[1]))
    out.update(json.loads(timed([sys.executable, "-c", CERTIFIED], tree)[1]))
    for pattern in COLOURED_PATTERNS:
        out[f"loop16_{pattern}_s"] = json.loads(
            timed([sys.executable, "-c", COLOURED, pattern], tree)[1])
    for N in DN_NS:
        out[f"dn_constant_N{N}_s"] = json.loads(timed([sys.executable, "-c", DN, str(N)], tree)[1])
    for k in WALK_KS:
        walks = json.loads(timed([sys.executable, "-c", WALKS, str(k)], tree)[1])
        out[f"loop_matrix_k{k}_s"] = walks["loop_matrix_s"]
        out[f"cycle_types_k{k}_s"] = walks["cycle_types_s"]
    out.update(json.loads(timed([sys.executable, "-c", COLD_PRIMES], tree)[1]))
    for num in (5, 7, 9):
        out[f"criterion{num}_s"] = timed(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "tests/test_acceptance.py", "-k", f"criterion_{num}"], tree)[0]
    for name, half in SOLVE_WORDS.items():
        for N in (3, 8):
            solve = json.loads(timed([sys.executable, "-c", SOLVE, json.dumps(half), str(N)],
                                     tree)[1])
            out[f"bilinear_{name}_N{N}_s"] = solve["s"]
            out[f"bilinear_{name}_N{N}_value"] = solve["value"]
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", ORDER18], cwd=tree, env=env_for(tree),
                          capture_output=True, text=True, timeout=3600, check=True)
    out["order18_cold_s"] = time.perf_counter() - t
    out["order18_vmhwm_mb"] = float(proc.stderr.split()[-1])
    out["order18_stdout"] = proc.stdout
    out.update(lp_form_run(tree, 14))
    t = time.perf_counter()
    free = json.loads(timed([sys.executable, "-c", FREE_LIMIT, FREE_POLY], tree)[1])
    out["free_lp10_cold_s"] = time.perf_counter() - t
    out["free_lp10_s"] = free["s"]
    out["free_lp10_vmhwm_mb"] = free["vmhwm_mb"]
    out["free_lp10_value"] = free["value"]
    return out


def lp_form_run(tree: str, p: int) -> dict:
    """`lp` of LP_FORM at this p in a fresh process: wall time, the child's VmHWM, stdout."""
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", LP_FORM, str(p)], cwd=tree, env=env_for(tree),
                          capture_output=True, text=True, timeout=3600, check=True)
    return {f"lp{p}_cold_s": time.perf_counter() - t,
            f"lp{p}_vmhwm_mb": float(proc.stderr.split()[-1]), f"lp{p}_stdout": proc.stdout}


def save(result: dict, path: str):
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated perfbench seeds")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    import numpy
    result: dict = {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "pairs": [], "timing_pairs": [],
                    "change_only": []}
    for i, seed in enumerate(int(s) for s in args.seeds.split(",")):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in WORKLOADS:
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(trees[side], workload, seed, 0)
            result["pairs"].append(pair)
        result["median_table"] = median_table(result["pairs"], result["timing_pairs"],
                                              result["change_only"])
        save(result, args.out)
    result["traced"] = {side: {w: run(tree, w, 0, 1)["metrics"] for w in WORKLOADS}
                        for side, tree in trees.items()}
    result["k12_table"] = {side: json.loads(timed([sys.executable, "-c", TABLE_INTS], tree)[1])
                           for side, tree in trees.items()}
    for i in range(3):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = timing_run(trees[side])
        result["timing_pairs"].append(pair)
        change_only = json.loads(timed([sys.executable, "-c", BLOCK_PRIME], trees["change"])[1])
        change_only.update(lp_form_run(trees["change"], 16))
        result["change_only"].append(change_only)
        result["order18_stdout_identical"] = len(
            {p[side]["order18_stdout"] for p in result["timing_pairs"] for side in trees}) == 1
        result["free_lp10_value_identical"] = len(
            {p[side]["free_lp10_value"] for p in result["timing_pairs"] for side in trees}) == 1
        result["lp14_stdout_identical"] = len(
            {p[side]["lp14_stdout"] for p in result["timing_pairs"] for side in trees}) == 1
        result["median_table"] = median_table(result["pairs"], result["timing_pairs"],
                                              result["change_only"])
        save(result, args.out)
    result["report_table"] = subprocess.run(
        [sys.executable, "perfbench/report.py"], cwd=trees["change"], capture_output=True,
        text=True, timeout=1800, check=True).stdout.splitlines()
    save(result, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
