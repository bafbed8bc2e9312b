"""Smoke test of the benchmark itself, on the toy preset.

    python3 perfbench/smoke.py

Runs every workload named in BENCHMARK.json with ``--toy``, untraced and
traced.  Each result must carry exactly the declared metrics with their
units, the report must give every end-to-end figure the workload reports,
and every correctness check must pass.  Finally the benchmark must exit
non-zero without a result in a directory that holds only the benchmark.
Exits 0 when all of this holds and prints each problem otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(cwd: str, workload: str, trace: int, toy: bool = True) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", str(trace)] + (["--toy"] if toy else [])
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(workload: str, trace: int, declared: list[dict], reports: tuple) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = bench(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        failures = [line for line in lines if line.startswith("FAILED")]
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')} {failures}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != want:
        problems.append(f"{where}: metrics {sorted(set(got) ^ set(want))} or units differ from BENCHMARK.json")
    for name, m in result.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{where}: {name} has no numeric value")
    for name in reports:
        if not any(line.startswith(name + " ") and " median " in line for line in lines):
            problems.append(f"{where}: report has no median for {name}")
    return problems


def check_bare_directory() -> list[str]:
    """Without the program's sources the benchmark must fail without a result."""
    bare = os.path.join(ROOT, ".perfbench", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "pipeline_small", 0, toy=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import workloads

    problems = []
    for w in spec["workloads"]:
        reports = workloads.WORKLOADS[w["name"]].reports
        problems += check_result(w["name"], 0, spec["end_to_end"], reports)
        problems += check_result(w["name"], 1, spec["per_layer"], reports)
    problems += check_bare_directory()
    for p in problems:
        print("PROBLEM " + p)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
