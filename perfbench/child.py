"""One benchmark sample: a fresh interpreter that imports qhaar.cli and runs
a workload's commands through `qhaar.cli.main`, one after another.

Started by run.py from the root of a checkout, with `src` on PYTHONPATH.
It reads a JSON job from stdin:

    {"commands": [[argv...], ...], "passes": n, "trace": bool,
     "probe": bool, "run_id": str, "spans_path": str}

and writes one JSON result line to stdout: the monotonic time at which the
import returned and the process's CPU time by then, per-pass wall and CPU
time, per-command wall time, exit code and stdout, the peak RSS and, when
traced, the per-layer figures.
A traced job runs every pass traced; run.py asks for one pass.  A probed
job times the speed probe (speed.py) right after the import and during
every pass; a pass's `work_s` is its wall time less the probes run inside
it.  Command output never reaches the real stdout.
"""

import time

from qhaar import cli

IMPORTED_AT = time.monotonic()
IMPORT_CPU_S = time.process_time()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import speed  # noqa: E402  benchmark module beside this file


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(commands, probe):
    if probe:
        with speed.Sampler() as sampler:
            result = run_pass(commands, probe=False)
        inside = sampler.probes[1:-1]
        result.update(probes=sampler.probes, work_s=result["wall_s"] - sum(inside))
        return result
    results = []
    t0, c0 = time.perf_counter(), _cpu_s()
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        s0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, not a failed benchmark
            rc = 1
            err.write(traceback.format_exc())
        results.append({"s": time.perf_counter() - s0, "rc": rc,
                        "stdout": out.getvalue(), "stderr_tail": err.getvalue()[-2000:]})
    return {"wall_s": time.perf_counter() - t0, "cpu_s": _cpu_s() - c0, "commands": results}


def main() -> int:
    job = json.load(sys.stdin)
    src = os.path.realpath("src")
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"qhaar was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        import tracing  # benchmark module beside this file
        tracer = tracing.Tracer(job["run_id"])
        tracing.install(tracer)
    result = {"imported_at": IMPORTED_AT, "import_cpu_s": IMPORT_CPU_S}
    if job.get("probe"):
        result["setup_probe_s"] = speed.setup_probe_s()
    result["passes"] = [run_pass(job["commands"], job.get("probe", False))
                        for _ in range(job["passes"])]
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["self_s"] = dict(tracer.self_s)
        tracer.dump(job["spans_path"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
