"""Benchmark of the sarunet CLI: train, evaluate, predict and explain.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pipeline-96 --seed 1 --seconds 30 --trace 0

Each run sets up its inputs several times, each time in a fresh interpreter
(``setup_s`` is the median), then runs the workload's phases, each in a fresh
interpreter, and prints one JSON line as the last line of its output:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the ``end_to_end`` metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its ``per_layer`` metrics, from the wrappers in
``tracing.py``. ``--workload all`` runs every workload in turn and prints one
line per workload. ``--toy`` shrinks every input (used by ``selfcheck.py``).

Inputs are made from ``--seed``; ``--seconds`` scales the number of repeated
calls, so the work of a run is fixed for a given value and times measure
speed. Run files go to ``.perfbench_runs/`` and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workload import WORKLOADS, phase_count

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
THREADS = "2"              # NOWCAST_THREADS for every workload; nproc is 2
DEADLINE_S = 170.0         # a run must end within 180 s
P90_MIN_SAMPLES = 40


class BenchError(Exception):
    """The benchmark could not run (missing source, a child that failed)."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["NOWCAST_THREADS"] = THREADS
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    return env


def _spawn(args: list[str], log: Path, deadline: float) -> float:
    """Run ``workload.py`` with ``args`` in a fresh interpreter; returns its
    wall time. Output goes to ``log``."""
    cmd = [sys.executable, str(HERE / "workload.py")] + args
    with open(log, "ab") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                env=_child_env(), cwd=ROOT)
        # A blocking wait returns when the child exits; wait(timeout=...)
        # polls with sleeps of up to 50 ms and would round the wall time.
        expired = threading.Event()

        def expire():
            expired.set()
            proc.kill()
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), expire)
        watchdog.start()
        try:
            rc = proc.wait()
            dt = time.perf_counter() - t0
        finally:
            watchdog.cancel()
    if expired.is_set():
        raise BenchError(f"{' '.join(args[:3])} ran past the deadline")
    if rc != 0:
        raise BenchError(f"{' '.join(args[:3])} exited {rc}:\n{log.read_text()[-3000:]}")
    return dt


def _median(xs):
    return statistics.median(xs) if xs else None


def run_workload(name: str, seed: int, seconds: int, trace: bool, toy: bool,
                 spec: dict, deadline: float) -> dict:
    runs = ROOT / ".perfbench_runs"
    work = runs / f"{name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    log = work / "log.txt"
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    common += ["--toy"] if toy else []
    try:
        setups = []
        for r in range(SETUP_REPEATS):
            last = r == SETUP_REPEATS - 1
            d = work if last else work / f"setup{r}"
            d.mkdir(parents=True, exist_ok=True)
            flags = ["--trace"] if trace and last else []
            wall = _spawn(["setup", "--dir", str(d)] + common + flags, log, deadline)
            setups.append((wall, json.loads((d / "setup.json").read_text())))
            if not last:
                shutil.rmtree(d)
        phases = []
        for k in range(phase_count(WORKLOADS[name])):
            _spawn(["phase", "--index", str(k), "--dir", str(work)] + common
                   + (["--trace"] if trace else []), log, deadline)
            phases.append(json.loads((work / f"phase{k}.json").read_text()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if runs.exists() and not any(runs.iterdir()):
            runs.rmdir()
    for _, s in setups:
        if s["failed"]:
            raise BenchError(f"{name} set-up failed: {s['problems']}")
    return _result(name, setups, phases, trace, spec)


def _result(name: str, setups, phases, trace: bool, spec: dict) -> dict:
    problems = [p for _, s in setups for p in s["problems"]]
    problems += [p for ph in phases for p in ph["problems"]]
    samples: dict[str, list[float]] = {}
    extra: dict = {}
    for ph in phases:
        for k, v in ph["samples"].items():
            samples.setdefault(k, []).extend(v)
        extra.update({k: v for k, v in ph.items()
                      if k in ("train_samples_per_s", "eval_windows")})
    total_s = sum(ph["total_s"] for ph in phases)
    metrics: dict[str, float | None] = {}
    if trace:
        merged: dict[str, float] = {}
        for t in [setups[-1][1]["trace"]] + [ph["trace"] for ph in phases]:
            for k, v in t.items():
                merged[k] = max(merged.get(k, 0.0), v) if k in _MAXIMA else \
                    merged.get(k, 0.0) + v
        merged["trace.total_s"] = total_s
        for m in spec["per_layer"]:
            metrics[m["name"]] = merged.get(m["name"], 0.0)
    else:
        # the cloud checkpoint trains in set-up: the median of its set-ups
        train_rate = extra.get("train_samples_per_s") or _median(
            [s["train_samples_per_s"] for _, s in setups if "train_samples_per_s" in s])
        evals = _median(samples.get("evaluate", []))
        predicts = samples.get("predict", [])
        metrics = {
            "setup_s": _median([wall for wall, _ in setups]),
            "total_s": total_s,
            "train_samples_per_s": train_rate,
            "eval_samples_per_s": extra["eval_windows"] / evals
            if evals and "eval_windows" in extra else None,
            "predict_p50_s": _median(predicts),
            "predict_p90_s": statistics.quantiles(predicts, n=10)[-1]
            if len(predicts) >= P90_MIN_SAMPLES else None,
            "explain_s": _median(samples.get("explain", [])),
            "peak_rss_mib": max(ph["peak_rss_mib"] for ph in phases),
        }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
    if missing:
        raise BenchError(f"{name}: no value for {missing}; problems: {problems}")
    for p in problems:
        print(f"{name}: check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(ph["attempted"] for ph in phases),
        "failed": sum(ph["failed"] for ph in phases),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": units[m["name"]]}
                    for m in wanted},
    }


_MAXIMA = {"tensor.tape_ops", "tensor.tape_mib", "tensor.tapes_alive_max"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="sarunet CLI benchmark")
    p.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        if not (ROOT / "src" / "sarunet" / "cli.py").is_file():
            raise BenchError(f"no sarunet source under {ROOT / 'src'}; run from a "
                             "source checkout")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  args.toy, spec, deadline)
            if args.workload == "all":
                result = {"workload": name, **result}
            print(json.dumps(result), flush=True)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
