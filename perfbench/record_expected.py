"""Record the default-seed stdout of every workload command.

Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/record_expected.py [workload ...]

Writes expected/<workload>.json: a list of {"argv", "stdout"} in command
order.  run.py compares the default-seed output with these bytes.
"""

import contextlib
import io
import json
import sys

import workloads

sys.path.insert(0, "src")

from qhaar import cli  # noqa: E402


def main(names) -> int:
    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        recorded = []
        for argv in workloads.commands(name, workloads.DEFAULT_SEED):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(list(argv))
            if rc != 0:
                print(f"{name}: {argv} exited {rc}", file=sys.stderr)
                return 1
            recorded.append({"argv": argv, "stdout": out.getvalue()})
        with open(workloads.expected_path(name), "w") as f:
            json.dump(recorded, f, indent=1)
            f.write("\n")
        print(f"wrote {workloads.expected_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
