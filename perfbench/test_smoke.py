"""Smoke test of the benchmark itself, at a tiny size (L=8, six queries).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args,
         "--seed", "3", "--seconds", "1", "--size", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=300)


def result_line(proc) -> dict:
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return last


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(trace):
    proc = bench("--workload", "all", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = result_line(proc)
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    group = SPEC["per_layer" if trace else "end_to_end"]
    want = {f"{w}.{m['name']}": m["unit"] for w in workloads.WORKLOADS for m in group}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    for w in workloads.WORKLOADS:
        for m in group:
            assert f"\n{w} {m['name']} " in proc.stdout
        summary = [line for line in proc.stdout.splitlines()
                   if line.startswith(f"# {w}: query_tail_s")]
        assert len(summary) == 1 and "failed_ratio = 0/" in summary[0]


def _corrupt_sweep_row(expected):
    expected["sweep_cold"]["8"]["payloads"][3]["row"]["value"] += 1


def _corrupt_doubler_steps(expected):
    expected["interp_long"]["doubler_steps"]["8"] += 1


def _corrupt_digest(expected):
    expected["digest"] = "0" * 64


@pytest.mark.parametrize("workload,corrupt", [
    ("sweep-cold", _corrupt_sweep_row),
    ("interp-long", _corrupt_doubler_steps),
    ("ledger-warm", _corrupt_digest),
])
def test_corrupted_expected_value_fails_the_gate(tmp_path, workload, corrupt):
    expected = json.loads((HERE / "expected.json").read_text())
    corrupt(expected)
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    proc = bench("--workload", workload, "--trace", "0", "--expected", str(path))
    assert proc.returncode != 0
    last = result_line(proc)
    assert not last["correct"] and last["failed"] >= 1


def test_second_seed_changes_only_generated_inputs():
    size = workloads.SIZES["full"]
    one = {w: workloads.program_inputs(w, 1, size) for w in workloads.WORKLOADS}
    again = {w: workloads.program_inputs(w, 1, size) for w in workloads.WORKLOADS}
    two = {w: workloads.program_inputs(w, 2, size) for w in workloads.WORKLOADS}
    assert one == again
    assert one["sweep-cold"] == two["sweep-cold"]

    a, b = one["ledger-warm"], two["ledger-warm"]
    assert a["fill"] == b["fill"] and a["queries"] != b["queries"]

    def mix(queries):  # the (length, kind) pairs and the budget are fixed
        return sorted((len(q[2]), q[1] if q[1] == "k" else q[6], q[-6:]) for q in queries)
    assert mix(a["queries"]) == mix(b["queries"])

    a, b = one["interp-long"], two["interp-long"]
    assert a["universal_run"] == b["universal_run"]
    assert a["roundtrips"][0] == b["roundtrips"][0] == ("ones_doubler", "1" * 40)
    assert [(n, len(w)) for n, w in a["roundtrips"]] == [(n, len(w)) for n, w in b["roundtrips"]]
    assert a["roundtrips"][1:] != b["roundtrips"][1:]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "sweep-cold", "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
