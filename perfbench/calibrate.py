"""Measure how strongly a workload's pass times follow the speed probe.

    python3 perfbench/calibrate.py --workload moment_modular --seconds 300

Runs probed samples (a cold and a warm pass each) back to back for about
`--seconds`, and fits, per pass, the least-squares slope of log(work time)
on log(mean probe time).  That slope is the pass's entry in
workloads.SENSITIVITY: 1 when the pass slows exactly as much as the probe,
0 when the machine's speed changes do not touch it.  Run it alone on the
machine, from the root of a checkout.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import workloads

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")


def slope(xs, ys):
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=300)
    args = ap.parse_args()
    env = dict(os.environ, PYTHONPATH="src")
    job = json.dumps({"commands": workloads.commands(args.workload, args.seed),
                      "passes": 2, "trace": False, "probe": True})
    points = ([], [])  # per pass: (log mean probe, log work time)
    end = time.monotonic() + args.seconds
    while time.monotonic() < end:
        out = subprocess.run([sys.executable, CHILD], input=job, env=env, capture_output=True,
                             text=True, check=True, timeout=600).stdout
        for i, p in enumerate(json.loads(out.splitlines()[-1])["passes"]):
            points[i].append((math.log(statistics.fmean(p["probes"])), math.log(p["work_s"])))
            print(f"pass {i}: probe {statistics.fmean(p['probes']):.4f} s, "
                  f"work {p['work_s']:.3f} s", flush=True)
    for i, name in enumerate(("cold", "warm")):
        xs, ys = zip(*points[i])
        print(f"{name}: slope {slope(xs, ys):.2f}, correlation "
              f"{statistics.correlation(xs, ys):.2f}, {len(xs)} passes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
