"""qhaar benchmark: time whole cold-process CLI runs, and each layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lp_table --seed 3 --seconds 30 --trace 0

Workloads are listed in workloads.py and explained in NOTES.md.  A sample
is one fresh interpreter (child.py) that imports `qhaar.cli` and runs the
workload's commands through `qhaar.cli.main` one after another: a closed
loop with one client, one process at a time.

With `--trace 0` the run measures end-to-end metrics: import-only spawns
for `setup_s`, then full samples (a cold pass and an identical warm pass in
the same process) until `--seconds` would be exceeded, and reports medians.
Those times are rescaled to a reference machine speed by the speed probe
that each child times alongside its work (speed.py, NOTES.md).
With `--trace 1` it runs one untraced cold pass and one traced cold pass and
reports the per-layer figures, the child's CPU time and the tracing
overhead.  Spans go to .perfbench/spans-<workload>-<seed>.jsonl.

Every command's output is checked (see workloads.py).  The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it are a readable summary and the machine record.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import math
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time

import speed
import workloads

HERE = pathlib.Path(__file__).resolve().parent
OUT_DIR = ".perfbench"
SETUP_SPAWNS = 6  # import-only children at the start of a run
MAX_SETUPS = 30
DEADLINE_S = 170  # every child is killed past this, so a run ends within 180 s
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def machine_record(root: pathlib.Path) -> dict:
    import mpmath
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qhaar").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,  # None outside a git checkout; src_sha256 still names the code
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "platform": platform.platform(),
    }


def spawn(root: pathlib.Path, env: dict, job: dict, started: float) -> dict:
    """Run one child to completion; adds its setup time to the result."""
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - started))
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py")], cwd=root, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child exceeded {timeout:.0f} s")
    finally:  # also on a signal or any error: never leave a child running
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["imported_at"] - t_spawn
    result["child_s"] = time.monotonic() - t_spawn
    return result


def spread(values: list[float]) -> dict:
    """Median, count, and the highest percentile with >= 10 samples beyond it."""
    s = sorted(values)
    out = {"median": statistics.median(s), "n": len(s)}
    for pct in (99.9, 99, 95, 90, 75, 50):
        if len(s) * (1 - pct / 100) >= 10:
            out[f"p{pct:g}"] = s[min(len(s) - 1, math.ceil(pct / 100 * len(s)) - 1)]
            break
    return out


def check_commands(samples, cmds, expected):
    """Check every command of every pass; returns (attempted, failures)."""
    attempted, failures = 0, []
    for sample in samples:
        cold = sample["passes"][0]["commands"]
        for p in sample["passes"]:
            for i, (argv, res) in enumerate(zip(cmds, p["commands"])):
                attempted += 1
                problems = workloads.check_output(argv, res["rc"], res["stdout"], expected[i])
                if res["stdout"] != cold[i]["stdout"]:
                    problems.append("warm-pass stdout differs from the cold pass")
                if problems:
                    failures.append((argv, problems, res["stderr_tail"]))
    return attempted, failures


def measure(root, env, cmds, started, seconds, sensitivity):
    """Import-only spawns and full samples; times rescaled by the speed probe."""
    def spawn_probed(commands, passes):
        return spawn(root, env, {"commands": commands, "passes": passes, "trace": False,
                                 "probe": True}, started)

    # Import-only spawns before and between samples, and in the time the
    # samples leave, so that setup_s spans the whole run.
    spawns = [spawn_probed([], 0) for _ in range(SETUP_SPAWNS)]
    samples = []
    while True:
        sample = spawn_probed(cmds, 2)
        samples.append(sample)
        spawns += [sample] + [spawn_probed([], 0) for _ in range(2)]
        if time.monotonic() - started + sample["child_s"] > seconds:
            break
    while len(spawns) < MAX_SETUPS and time.monotonic() - started < seconds - 0.5:
        spawns.append(spawn_probed([], 0))
    # CPU time, not wall time: the import's wall time also depends on whether
    # numpy's OpenBLAS thread finds the other vCPU free (NOTES.md).  One
    # import is too short to time the probe over, so setup_s is rescaled by
    # every probe of the run.
    setups = [s["import_cpu_s"] for s in spawns]
    run_probes = [s["setup_probe_s"] for s in spawns] + [
        x for s in samples for p in s["passes"] for x in p["probes"]]
    passes = [[speed.rescale(p["work_s"], p["probes"], beta)
               for p, beta in zip(s["passes"], sensitivity)] for s in samples]
    stats = {
        "setup_s": (spread([speed.rescale(x, run_probes) for x in setups]), "s"),
        "solve_s": (spread([cold for cold, _ in passes]), "s"),
        "warm_s": (spread([warm for _, warm in passes]), "s"),
        "peak_rss_mb": (spread([s["peak_rss_mb"] for s in samples]), "MB"),
    }
    raw = {
        "setup_s": statistics.median(s["setup_s"] for s in spawns),
        "setup_cpu_s": statistics.median(setups),
        "solve_s": statistics.median(s["passes"][0]["wall_s"] for s in samples),
        "warm_s": statistics.median(s["passes"][1]["wall_s"] for s in samples),
        "probe_s": statistics.fmean(run_probes),
    }
    return samples, stats, raw


def measure_traced(root, env, cmds, started, spans_path, run_id):
    ref = spawn(root, env, {"commands": cmds, "passes": 1, "trace": False}, started)
    traced = spawn(root, env, {"commands": cmds, "passes": 1, "trace": True,
                               "run_id": run_id, "spans_path": str(spans_path)}, started)
    layers = dict(traced["layers"])
    layers["proc.cpu_s"] = (ref["passes"][0]["cpu_s"], "s")
    layers["trace.overhead_s"] = (traced["passes"][0]["wall_s"] - ref["passes"][0]["wall_s"],
                                  "s")
    return [ref, traced], layers, traced["self_s"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind through spawn(), which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    started = time.monotonic()
    root = pathlib.Path.cwd()
    if not (root / "src" / "qhaar" / "cli.py").is_file():
        print(f"error: no src/qhaar/cli.py under {root}; run from a qhaar checkout",
              file=sys.stderr)
        return 2
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    lock = open(out_dir / "run.lock", "w")
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        print("error: another benchmark run holds .perfbench/run.lock", file=sys.stderr)
        return 2

    cmds = workloads.commands(args.workload, args.seed)
    expected = workloads.expected_outputs(args.workload, args.seed, cmds)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(["src"] + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # time imports from cached bytecode, as installed
    try:
        machine = machine_record(root)
        # Untimed: compiles bytecode in a fresh checkout so no sample pays for it.
        spawn(root, env, {"commands": [], "passes": 0, "trace": False}, started)
        if args.trace:
            run_id = f"{args.workload}-{args.seed}"
            samples, layers, self_s = measure_traced(
                root, env, cmds, started, out_dir / f"spans-{run_id}.jsonl", run_id)
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        else:
            samples, stats, raw = measure(root, env, cmds, started, args.seconds,
                                           workloads.SENSITIVITY[args.workload])
            metrics = {name: {"value": s["median"], "unit": u} for name, (s, u) in stats.items()}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        lock.close()

    attempted, failures = check_commands(samples, cmds, expected)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"samples={len(samples)} elapsed_s={time.monotonic() - started:.1f}")
    print("machine " + json.dumps(machine))
    for argv_, problems, err in failures:
        print(f"FAILED {' '.join(argv_)}: {'; '.join(problems)} {err.strip()[-300:]}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
        top = sorted(self_s.items(), key=lambda kv: -kv[1])[:6]
        print("  top self time: " + ", ".join(f"{n} {s:.3f} s" for n, s in top))
    else:
        for name, (s, unit) in stats.items():
            tail = "".join(f" {k}={v:.4f}" for k, v in s.items() if k.startswith("p"))
            print(f"  {name:12s} median {s['median']:.4f} {unit}  n={s['n']}{tail}")
        print("  unscaled medians: " + ", ".join(f"{k} {v:.4f} s" for k, v in raw.items()))
    print(f"  {'fail_ratio':12s} {len(failures) / attempted:.4f} ratio  "
          f"({len(failures)} failed of {attempted} commands)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
