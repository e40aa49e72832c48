"""Tests of the benchmark's own input generation, output checks and tracing.

Run from the root of the repository:  python3 -m pytest -q perfbench
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

import run
import speed
import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _sample(cmds, stdouts):
    cold = [{"rc": 0, "stdout": s, "stderr_tail": "", "s": 0.1} for s in stdouts]
    return {"passes": [{"commands": cold}, {"commands": [dict(c) for c in cold]}]}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_commands_are_seeded(name):
    assert workloads.commands(name, 7) == workloads.commands(name, 7)
    assert any(workloads.commands(name, 7) != workloads.commands(name, s) for s in range(3))


@pytest.mark.parametrize("seed", range(20))
def test_moment_words_are_rotated_adjoint_squares(seed):
    for argv in workloads.commands("moment_modular", seed):
        labels = re.findall(r"\[(\d+),(\d+)\]", argv[1])
        k = len(labels)
        assert k == workloads.MOMENT_K
        # Some rotation makes the labels a palindrome: the word is w* w.
        assert any(all(labels[(r + i) % k] == labels[(r - 1 - i) % k] for i in range(k))
                   for r in range(k))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_recorded_outputs_pass_reference_free_checks(name):
    cmds = workloads.commands(name, workloads.DEFAULT_SEED)
    expected = workloads.expected_outputs(name, workloads.DEFAULT_SEED, cmds)
    for argv, out in zip(cmds, expected):
        assert workloads.check_output(argv, 0, out, out) == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_wrong_expected_value_counts_as_failure(name):
    cmds = workloads.commands(name, workloads.DEFAULT_SEED)
    expected = workloads.expected_outputs(name, workloads.DEFAULT_SEED, cmds)
    good = _sample(cmds, expected)
    assert run.check_commands([good], cmds, expected) == (2 * len(cmds), [])
    wrong = list(expected)
    wrong[0] = wrong[0].replace("1", "2", 1)
    attempted, failures = run.check_commands([good], cmds, wrong)
    assert attempted == 2 * len(cmds)
    assert len(failures) == 2  # command 0, in the cold and in the warm pass
    assert "recorded default-seed output" in failures[0][1][0]


def test_warm_pass_must_repeat_cold_output():
    cmds = workloads.commands("moment_modular", 5)
    sample = _sample(cmds, ["1/6\n"] * len(cmds))
    sample["passes"][1]["commands"][2]["stdout"] = "1/7\n"
    attempted, failures = run.check_commands([sample], cmds, [None] * len(cmds))
    assert (attempted, len(failures)) == (8, 1)


@pytest.mark.parametrize("out, ok", [("1/6\n", True), ("1\n", True), ("0\n", False),
                                     ("-1/6\n", False), ("3/2\n", False), ("1/6+1/2i\n", False)])
def test_moment_range_check(out, ok):
    argv = workloads.commands("moment_modular", 1)[0]
    assert (workloads.check_output(argv, 0, out) == []) is ok


def test_nonzero_exit_fails():
    argv = workloads.commands("moment_modular", 1)[0]
    assert workloads.check_output(argv, 3, "") == ["exit code 3"]


def _converge_out(rows):
    return "N,p,lp_finite,lp_limit,gap,rd_bound\n" + "".join(",".join(r) + "\n" for r in rows)


def test_converge_checks():
    argv = ["converge", "--poly", "x[1,2]+x[2,1]", "--N-list", "3", "--p-list", "2,4"]
    limit2, limit4 = "1.414213562373095048801689", "1.681792830507429086062251"
    good = [["3", "2", "1.4", limit2, "0.0", "8.1"], ["3", "4", "1.6", limit4, "0.1", "8.1"],
            ["inf", "2", "", limit2, "", ""], ["inf", "4", "", limit4, "", ""]]
    assert workloads.check_output(argv, 0, _converge_out(good)) == []
    above_bound = [list(r) for r in good]
    above_bound[1][2] = "9.0"
    assert workloads.check_output(argv, 0, _converge_out(above_bound))
    bad_limit = [list(r) for r in good]
    bad_limit[3][3] = "1.681792830507429086062351"
    assert workloads.check_output(argv, 0, _converge_out(bad_limit))
    assert workloads.check_output(argv, 0, _converge_out(good[:3]))


@pytest.mark.parametrize("lo, hi, ok", [("1.03", "1.09", True), ("0.99", "1.09", False),
                                        ("1.10", "1.09", False), ("1.0", "1.0", True)])
def test_dn_checks(lo, hi, ok):
    argv = ["dn", "--N-list", "7"]
    out = f"N,scanned_max,rigorous_upper,tail_error,argmax\n7,{lo},{hi},1e-13,52/52/52\n"
    assert (workloads.check_output(argv, 0, out) == []) is ok


def test_traced_child_reports_layers_and_spans(tmp_path):
    spans = tmp_path / "spans.jsonl"
    job = {"commands": [["converge", "--poly", "x[1,1]+x[1,2]", "--N-list", "3",
                         "--p-list", "4"]],
           "passes": 1, "trace": True, "run_id": "t", "spans_path": str(spans)}
    env = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"}
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py")], cwd=ROOT,
                          env=env, input=json.dumps(job), capture_output=True, text=True,
                          timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    layers = {k: v for k, (v, _) in result["layers"].items()}
    assert result["passes"][0]["commands"][0]["rc"] == 0
    # freelimit calls enumerate_nc_pairings through a name it imported.
    assert layers["freelimit.semicircular_moment.calls"] == 16
    assert layers["pairings.enumerate_nc_pairings.calls"] >= (
        layers["freelimit.semicircular_moment.calls"] + layers["weingarten.haar_moment.calls"])
    assert layers["exactla.fraction_free_inverse.calls"] == 2  # k = 2 and k = 4 tables
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    ids = {r["id"] for r in records}
    assert all(r["parent"] == 0 or r["parent"] in ids for r in records)
    assert all(r["start"] <= r["end"] and r["run"] == "t" for r in records)
    # Cache hits are counted but get no span.
    spanned = sum(r["name"] == "pairings.enumerate_nc_pairings" for r in records)
    assert spanned < layers["pairings.enumerate_nc_pairings.calls"]
    for name, self_s in result["self_s"].items():
        assert -1e-6 <= self_s <= sum(r["end"] - r["start"] for r in records
                                      if r["name"] == name) + 1e-6


def test_rescale_follows_sensitivity():
    slow = [2 * speed.REFERENCE_S] * 3
    assert speed.rescale(4.0, slow, 0.0) == 4.0
    assert speed.rescale(4.0, slow, 1.0) == pytest.approx(2.0)
    assert speed.rescale(4.0, slow, 0.5) == pytest.approx(4.0 / 2 ** 0.5)
    assert set(workloads.SENSITIVITY) == set(workloads.WORKLOADS)


def test_probed_child_takes_probes_out_of_work_time():
    job = {"commands": [["converge", "--poly", "x[1,1]+x[1,2]", "--N-list", "3",
                         "--p-list", "8"]], "passes": 2, "trace": False, "probe": True}
    env = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"}
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py")], cwd=ROOT,
                          env=env, input=json.dumps(job), capture_output=True, text=True,
                          timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["setup_probe_s"] > 0
    for p in result["passes"]:
        assert p["commands"][0]["rc"] == 0
        assert len(p["probes"]) >= 2  # one before and one after the pass
        inside = sum(p["probes"][1:-1])
        assert p["work_s"] == pytest.approx(p["wall_s"] - inside)
        assert 0 < p["work_s"] <= p["wall_s"]
