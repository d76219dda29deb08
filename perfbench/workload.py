"""One process of a benchmark run: a workload's set-up, or one of its phases.

``run.py`` starts this file in a fresh interpreter, with the thread cap
already in the environment so numpy sees it when it loads:

    python3 perfbench/workload.py setup --workload W --seed S --dir D
    python3 perfbench/workload.py phase --workload W --seed S --dir D --index K

It drives the CLI in-process through ``sarunet.cli.main(argv)``, times every
call, checks the outputs (``checks.py``) and writes ``setup.json`` or
``phase<K>.json`` into ``--dir``. An operation is one CLI call or one output
check; the check of a call that failed fails too, so every run of a workload
attempts the same operations. With ``--trace`` the per-layer wrappers of
``tracing.py`` are installed first.

After training, a workload runs whole rounds of the same calls (evaluate,
predict, explain), so the samples of every command are spread over the
whole run rather than bunched in one stretch of it. The first call of each
command is an untimed warm-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402  (path set above)

NOMINAL_SECONDS = 30          # run length the round counts below are set for
CLOUD_SHORT_SEED = 1_000_003  # fixed: the failing cloud predict calls must not depend on --seed
CLOUD_SHORT_FRAMES = 40
THRESHOLD_MM_PER_H = 0.5      # the CLI default of evaluate and explain


@dataclass(frozen=True)
class Shape:
    size: int
    frames: int
    base: int


@dataclass(frozen=True)
class Workload:
    full: Shape
    toy: Shape
    cloud: bool
    in_frames: int
    lead_minutes: int | None      # None for cloud: the next six frames
    interval: int
    batch: int
    epochs: int
    select_fraction: float | None
    rounds: int                   # at NOMINAL_SECONDS; never fewer
    per_round: tuple[int, int, int]   # evaluate, predict, explain calls
    train_apart: bool = False     # train in its own process, before the rounds

    @property
    def offsets(self) -> tuple[int, ...]:
        if self.cloud:
            return tuple(range(1, 7))
        return (self.lead_minutes // self.interval,)


WORKLOADS = {
    # Every frame passes the gate (fraction 0), so the window count, and with
    # it the work, is the same for every seed: 132/28/29 windows.
    "pipeline-96": Workload(
        full=Shape(96, 200, 4), toy=Shape(32, 60, 4), cloud=False, in_frames=6,
        lead_minutes=30, interval=5, batch=6, epochs=2, select_fraction=0.0,
        rounds=6, per_round=(2, 7, 2)),
    # 24 frames give 7 windows, split 4/1/2: four training steps, which keeps
    # the leaked tapes (about 1 GiB a step) well inside memory.
    "paper-288": Workload(
        full=Shape(288, 24, 16), toy=Shape(32, 24, 4), cloud=False, in_frames=12,
        lead_minutes=30, interval=5, batch=1, epochs=1, select_fraction=0.0,
        rounds=5, per_round=(1, 9, 1), train_apart=True),
    # Set-up trains the checkpoint on a short series; the rounds evaluate a
    # long one. Every predict call fails (binary output unit), see README.
    "cloud-64": Workload(
        full=Shape(64, 2000, 4), toy=Shape(32, 300, 4), cloud=True, in_frames=4,
        lead_minutes=None, interval=15, batch=6, epochs=2, select_fraction=None,
        rounds=5, per_round=(1, 10, 2)),
}


def phase_count(w: Workload) -> int:
    return 2 if w.train_apart else 1


class Ledger:
    """Operations attempted and failed, call timings, and check problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s = 0.0

    def call(self, argv: list[str]) -> bool:
        """Run one CLI command; every call but the first of its command is
        timed, failed calls too."""
        from sarunet import cli
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a traceback out of the CLI is a failed operation
            traceback.print_exc()
            rc = -1
        dt = time.perf_counter() - t0
        self.attempted += 1
        self.total_s += dt
        if self.calls[argv[0]]:
            self.samples[argv[0]].append(dt)
        self.calls[argv[0]] += 1
        if rc != 0:
            self.failed += 1
            print(f"{argv[0]} exited {rc}", file=sys.stderr)
        return rc == 0

    def check(self, call_ok: bool, fn, *args) -> None:
        self.attempted += 1
        if not call_ok:
            self.failed += 1
            return
        try:
            problems = fn(*args)
        except Exception as e:  # an unreadable output is a failed check
            problems = [f"{type(e).__name__}: {e}"]
        if problems:
            self.failed += 1
            self.problems += [f"{fn.__name__}: {p}" for p in problems]


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


class Files:
    """Where a workload's inputs and outputs live under the run directory."""

    def __init__(self, w: Workload, work: Path):
        self.work = work
        self.series = work / ("long.nwds" if w.cloud else "data.nwds")
        # the cloud checkpoint trains on, and predicts from, a short series
        self.train_series = work / ("short.nwds" if w.cloud else "data.nwds")
        self.train = work / "train"
        self.ckpt = self.train / "model.ckpt"
        self.eval = work / "eval"
        self.pred = work / "pred.nwds"
        self.explain = work / "explain"


def train(w: Workload, shape: Shape, f: Files, led: Ledger) -> dict:
    """One ``train`` call and its check; returns its samples and seconds."""
    argv = ["train", "--data", str(f.train_series), "--in-frames", str(w.in_frames),
            "--base-channels", str(shape.base), "--batch-size", str(w.batch),
            "--max-epochs", str(w.epochs), "--out-dir", str(f.train)]
    argv += ["--cloud"] if w.cloud else ["--lead-minutes", str(w.lead_minutes)]
    if w.select_fraction is not None:
        argv += ["--select-fraction", repr(w.select_fraction)]
    t0 = time.perf_counter()
    ok = led.call(argv)
    dt = time.perf_counter() - t0
    led.check(ok, checks.check_train, f.train)
    if not ok:
        return {}
    windows = _read_json(f.train / "manifest.json")["splits"]["windows"]["train"]
    epochs = len((f.train / "history.csv").read_text().splitlines()) - 1
    return {"train_samples_per_s": windows * epochs / dt}


def setup(w: Workload, shape: Shape, seed: int, f: Files, led: Ledger) -> dict:
    common = ["--size", str(shape.size), "--interval", str(w.interval)]
    common += ["--binary"] if w.cloud else []
    led.call(["synth", "--seed", str(seed), "--frames", str(shape.frames),
              "--out", str(f.series)] + common)
    if not w.cloud:
        return {}
    led.call(["synth", "--seed", str(CLOUD_SHORT_SEED), "--frames",
              str(CLOUD_SHORT_FRAMES), "--out", str(f.train_series)] + common)
    return train(w, shape, f, led)


def rounds(w: Workload, shape: Shape, seconds: int, f: Files, led: Ledger) -> dict:
    frame = (shape.size, shape.size)
    evaluates, predicts, explains = w.per_round
    predict_series = f.train_series if w.cloud else f.series
    ckpt = ["--checkpoint", str(f.ckpt), "--force"]
    for _ in range(max(w.rounds, round(w.rounds * seconds / NOMINAL_SECONDS))):
        for _ in range(evaluates):
            ok = led.call(["evaluate", "--data", str(f.series), "--baseline",
                           "persistence", "--out-dir", str(f.eval)] + ckpt)
            led.check(ok, checks.check_persistence, f.eval, f.series, w.in_frames,
                      w.offsets, w.select_fraction, THRESHOLD_MM_PER_H)
            led.check(ok, checks.check_model_row, f.eval)
        for i in range(predicts):
            ok = led.call(["predict", "--data", str(predict_series),
                           "--window-index", str(i % 4), "--out", str(f.pred)] + ckpt)
            led.check(ok, checks.check_predict, f.pred, len(w.offsets), frame)
        for i in range(explains):
            ok = led.call(["explain", "--data", str(f.series), "--targets", "all",
                           "--input-window", str(i % 4), "--out-dir", str(f.explain)]
                          + ckpt)
            led.check(ok, checks.check_explain, f.explain, frame)
    manifest = f.eval / "manifest.json"
    if not manifest.exists():
        return {}
    return {"eval_windows": _read_json(manifest)["splits"]["windows"]["test"]}


def phase(w: Workload, shape: Shape, index: int, seconds: int, f: Files,
          led: Ledger) -> dict:
    out = {}
    if not w.cloud and index == 0:
        out.update(train(w, shape, f, led))
    if index == phase_count(w) - 1:
        out.update(rounds(w, shape, seconds, f, led))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "phase"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=NOMINAL_SECONDS)
    p.add_argument("--dir", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--toy", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    w = WORKLOADS[args.workload]
    shape = w.toy if args.toy else w.full
    files = Files(w, Path(args.dir))
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer().install()
    led = Ledger()
    if args.mode == "setup":
        extra = setup(w, shape, args.seed, files, led)
        out_path = files.work / "setup.json"
    else:
        extra = phase(w, shape, args.index, args.seconds, files, led)
        out_path = files.work / f"phase{args.index}.json"
    result = {
        "attempted": led.attempted,
        "failed": led.failed,
        "problems": led.problems,
        "samples": led.samples,
        "total_s": led.total_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.totals() if tracer else {},
        **extra,
    }
    out_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
