"""Alternating parent/change benchmark pairs, written to one BENCH JSON file.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --seeds 501,502 \
        --out BENCH.json

DIR is the root of a qhaar checkout.  For each seed and each of the four
workloads, `perfbench/run.py` runs in both checkouts, one after the other,
and the one that goes first alternates from seed to seed.  Then each
checkout gets one `--trace 1` run per workload, one timing of criterion 7's
order-16 moment at N = 3 and N = 8 in a fresh process after building
`loop_matrix(16)`, and one timing each of criterion 7 and criterion 9 (the
k <= 12 Weingarten tables at N = 2..10) run alone under pytest.
Nothing runs concurrently.  The JSON holds `nproc`, every run's metrics
and `correct` flag, and one table line per workload and metric: the
parent's median and quartiles, the change's median, and the number of
pairs in which the change read lower.  The file is rewritten after every
seed, so an interrupted run keeps its finished pairs.
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


def median_table(pairs: list[dict]) -> list[str]:
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
    return lines


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
                    "numpy": numpy.__version__, "pairs": []}
    for i, seed in enumerate(int(s) for s in args.seeds.split(",")):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in WORKLOADS:
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(trees[side], workload, seed, 0)
            result["pairs"].append(pair)
        result["median_table"] = median_table(result["pairs"])
        save(result, args.out)
    result["traced"] = {side: {w: run(tree, w, 0, 1)["metrics"] for w in WORKLOADS}
                        for side, tree in trees.items()}
    result["order16"] = {side: json.loads(timed([sys.executable, "-c", ORDER16], tree)[1])
                         for side, tree in trees.items()}
    for num in (7, 9):
        result[f"criterion{num}_s"] = {
            side: timed([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                         "tests/test_acceptance.py", "-k", f"criterion_{num}"], tree)[0]
            for side, tree in trees.items()}
    save(result, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
