"""Run every workload once, one after another, and print one table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs as its own `perfbench/run.py` process, never two at
once.  The table gives every metric by name with its unit, and fail_ratio
(failed commands / attempted commands) for each workload.
"""

import argparse
import json
import pathlib
import subprocess
import sys

import workloads

RUN = pathlib.Path(__file__).resolve().parent / "run.py"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    table, code = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(RUN), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(f"{name}: run.py exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            code = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        row = {m: (v["value"], v["unit"]) for m, v in result["metrics"].items()}
        row["fail_ratio"] = (result["failed"] / result["attempted"], "ratio")
        table[name] = row
    if not table:
        return code
    names = list(table)
    metrics = list(next(iter(table.values())))
    print(f"{'metric':42s} {'unit':6s}" + "".join(f" {n:>15s}" for n in names))
    for m in metrics:
        unit = table[names[0]][m][1]
        print(f"{m:42s} {unit:6s}" + "".join(f" {table[n][m][0]:>15.6g}" for n in names))
    return code


if __name__ == "__main__":
    sys.exit(main())
