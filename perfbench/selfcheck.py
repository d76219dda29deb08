"""Quick self-check of the benchmark, at toy input sizes (about a minute).

    python3 perfbench/selfcheck.py

For every workload, with tracing off and on, it runs ``run.py --toy`` and
confirms that the last output line is one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, that ``metrics`` names
every ``end_to_end`` (or ``per_layer``) metric of ``BENCHMARK.json`` with its
unit, and that the counts are whole numbers. It also copies ``BENCHMARK.json``
and this directory, without the program source, into a scratch directory and
confirms that a run there fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline-96", "paper-288", "cloud-64")


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(proc: subprocess.CompletedProcess, wanted: list[dict]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1
            and isinstance(result.get("failed"), int)
            and 0 <= result["failed"] <= result["attempted"]):
        problems.append(f"attempted {result.get('attempted')} failed {result.get('failed')}")
    if result.get("correct") is not True:
        problems.append(f"correct is {result.get('correct')}: {proc.stderr[-2000:]}")
    metrics = result.get("metrics", {})
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        problems.append(f"metric names differ: missing {set(names) - set(metrics)}, "
                        f"extra {set(metrics) - set(names)}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: {got}")
    return problems


def check_bare_directory() -> list[str]:
    bare = ROOT / ".perfbench_runs" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(bare.parent.iterdir()):
            bare.parent.rmdir()
    problems = []
    if proc.returncode == 0:
        problems.append("a run without the program source exited 0")
    if proc.stdout.strip():
        problems.append(f"a run without the program source printed {proc.stdout[-200:]!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            problems = check_result(_run(ROOT, workload, trace), wanted)
            print(f"{workload} trace={trace}: {'ok' if not problems else problems}")
            failures += bool(problems)
    problems = check_bare_directory()
    print(f"without source: {'ok' if not problems else problems}")
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
