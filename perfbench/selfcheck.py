"""Harness self-check: every workload on a tiny grid, tracing off and on.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py

For each workload and each tracing mode it runs ``run.py --tiny`` for one
second and checks the last output line: exactly the metrics that
``BENCHMARK.json`` declares for that mode, each with its declared unit and a
finite value, and whole ``attempted`` / ``failed`` counts.  It checks no
timings and does not require the program's outputs to be correct on the tiny
grid.  Last, it checks that ``run.py`` refuses to run, printing no result,
when the checkout has no program source.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 300


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT,
    )


def _check_result(stdout: str, declared: list[dict]) -> list[str]:
    problems = []
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        return [f"last line is not JSON: {exc}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number: {result[key]!r}")
    if isinstance(result["attempted"], int) and isinstance(result["failed"], int):
        if result["attempted"] < 1 or not 0 <= result["failed"] <= result["attempted"]:
            problems.append(f"counts out of range: {result['attempted']}, {result['failed']}")
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(expected):
        problems.append(
            f"metrics differ from the declared ones: missing "
            f"{sorted(set(expected) - set(metrics))}, extra {sorted(set(metrics) - set(expected))}"
        )
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if set(entry) != {"value", "unit"}:
            problems.append(f"{name}: keys {sorted(entry)}")
            continue
        if entry["unit"] != unit:
            problems.append(f"{name}: unit {entry['unit']!r}, declared {unit!r}")
        value = entry["value"]
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not numeric or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def _check_refuses_without_source() -> list[str]:
    bare = ROOT / ".perfbench_scratch" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        proc = _run(
            ["--workload", spec["workloads"][0]["name"], "--seed", "0", "--seconds", "1"], bare
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    problems = []
    if proc.returncode == 0:
        problems.append("run.py exited 0 without program source")
    if proc.stdout.strip():
        problems.append(f"run.py printed output without program source: {proc.stdout.strip()!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = _run(
                ["--workload", workload["name"], "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--tiny"],
                ROOT,
            )
            problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
            problems += _check_result(proc.stdout, declared)
            label = f"{workload['name']} trace={trace}"
            if problems:
                failures += 1
                print(f"FAIL {label}: " + "; ".join(problems))
                print(proc.stderr[-2000:], file=sys.stderr)
            else:
                print(f"ok   {label}")
    problems = _check_refuses_without_source()
    if problems:
        failures += 1
        print("FAIL without source: " + "; ".join(problems))
    else:
        print("ok   refuses to run without program source")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
