"""Schema smoke test for the benchmark: tiny sizes, no timing checks.

Runs every workload through ``bench/run.py --smoke`` untraced and traced,
and checks only the output schema, the metric names and units against
``BENCHMARK.json``, the results-file stamp, and that no operation failed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
def test_benchmark_schema(tmp_path, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "all",
         "--smoke", "--seed", "1", "--seconds", "0", "--trace", str(trace),
         "--results", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= len(WORKLOADS)

    expected = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    for workload in WORKLOADS:
        got = {name.split("/", 1)[1]: m for name, m in result["metrics"].items()
               if name.startswith(workload + "/")}
        assert {name: m["unit"] for name, m in got.items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in got.values())

        record = json.loads((tmp_path / f"{workload}-seed1-trace{trace}.json").read_text())
        assert record["summary"]["ops_failed_frac"] == 0
        assert len(record["digest"]) == 64
        env = record["environment"]
        for key in ("python", "numpy", "nproc", "cpu_model", "git_sha",
                    "git_dirty", "thread_pins"):
            assert key in env
        assert set(env["thread_pins"].values()) == {"1"}
