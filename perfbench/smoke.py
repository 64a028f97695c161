#!/usr/bin/env python3
"""Smoke check of the benchmark harness itself.

  python3 perfbench/smoke.py

From the root of a corrqec checkout: runs every workload at the smallest
size run.py accepts (--seconds 1), untraced and traced, and asserts that

  * the last stdout line is the result object with correct = true and
    failed = 0 (fail_frac 0) on the checkout's code;
  * every end-to-end metric (trace 0) or per-layer metric (trace 1) of
    BENCHMARK.json is present, with its unit, and nothing else;
  * run.py refuses, with a non-zero exit and no result, to run in a
    directory that has no src/corrqec.
Takes three to four minutes on one core.
"""
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("curve", "oracle", "verdict", "cli")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(spec: dict, workload: str, trace: int) -> None:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    got = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    assert got.returncode == 0, f"{workload} trace={trace} exited {got.returncode}: {got.stderr}"
    result = json.loads(got.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        f"{workload} trace={trace}: {got.stdout[-3000:]}"
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    have = {k: v["unit"] for k, v in result["metrics"].items()}
    assert have == want, f"{workload} trace={trace}: metrics {sorted(have)} != {sorted(want)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{name} is not a number"
        if not trace:
            assert m["value"] > 0, f"{name} reads {m['value']}"
    print(f"ok  {workload:<8} trace={trace}  attempted={result['attempted']}")


def check_refuses_without_source() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_smoke_") as empty:
        got = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                              "curve", "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=empty, capture_output=True, text=True, timeout=180, check=False)
    assert got.returncode != 0 and not got.stdout.strip(), "run.py ran without a checkout"
    print("ok  refuses to run without src/corrqec")


def main() -> int:
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    check_refuses_without_source()
    for workload in WORKLOADS:
        for trace in (0, 1):
            run_once(spec, workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
