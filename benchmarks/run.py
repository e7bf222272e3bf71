"""Benchmark of randcube: one workload per run, measured for a fixed time.

Usage (from the repository root):

    python3 benchmarks/run.py --workload {window_d3,estimate_d2,verify_smoke}
        --seed N --seconds S --trace {0,1}

The run first times SETUP_REPEATS fresh-interpreter set-ups (import and
config parsing), then runs as many whole rounds of the workload's operations
as fit in S seconds, checking every output outside the timed region.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
untraced rounds for S/2 seconds, installs the span recorder, runs traced
rounds for another S/2 seconds and reports the per-layer metrics, including
the tracing overhead (traced over untraced median round time).  The spans
are written to .benchwork/spans_<workload>.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Only one core is
busy: trials run with jobs=1 and BLAS is held to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import SpeedSampler

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = Path(".benchwork")
SETUP_REPEATS = 5

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("round_s", "s"),
              ("work_per_s", "1/s"))


def measure_setup(workload: str, configs: list[Path]) -> tuple[float, float]:
    """Median scaled and unscaled seconds of SETUP_REPEATS fresh-interpreter
    set-ups."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload]
            + [str(p) for p in configs],
            capture_output=True, text=True, check=True, timeout=120)
        values = proc.stdout.split()
        scaled.append(float(values[0]))
        raw.append(float(values[1]))
    return statistics.median(scaled), statistics.median(raw)


def run_rounds(workload, seconds: float, first: int, recorder=None) -> list:
    """As many whole rounds as fit in `seconds` of wall time, judged by the
    mean round so far (at least one round)."""
    rounds = []
    start = perf_counter()
    with SpeedSampler() as sampler:
        while True:
            rounds.append(workload.run_round(first + len(rounds), sampler,
                                             recorder))
            elapsed = perf_counter() - start
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                return rounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not Path("src/randcube/__init__.py").is_file():
        print("benchmarks/run.py: no src/randcube here; run it from the root "
              "of a randcube checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = WORK_DIR / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, work_dir)

    if args.trace:
        plain = run_rounds(workload, args.seconds / 2, 0)
        recorder = spans.Recorder()
        recorder.install()
        traced = run_rounds(workload, args.seconds / 2, len(plain), recorder)
        recorder.write(WORK_DIR / f"spans_{args.workload}.json")
        rounds = plain + traced
        lru: dict[str, int] = {}
        for r in traced:
            for key, value in r.lru.items():
                lru[key] = lru.get(key, 0) + value
        metrics = spans.layer_metrics(
            recorder, lru, len(traced),
            statistics.median(r.seconds for r in plain),
            statistics.median(r.seconds for r in traced))
    else:
        setup_s, setup_raw_s = measure_setup(args.workload,
                                             workload.config_paths())
        rounds = run_rounds(workload, args.seconds, 0)
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "round_s": statistics.median(r.seconds for r in rounds),
            "work_per_s": statistics.median(r.work / r.seconds for r in rounds),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}

    errors = [e for r in rounds for e in r.errors]
    for err in errors[:20]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    print(f"{args.workload}: seed {args.seed}, {len(rounds)} rounds, "
          f"work unit: {workload.work_unit}")
    if not args.trace:
        print(f"  {'unscaled setup_s':28s} {setup_raw_s:12.6g} s")
        print(f"  {'unscaled round_s':28s} "
              f"{statistics.median(sum(r.raw_s.values()) for r in rounds):12.6g} s")
        for name, (value, unit) in workload.details(rounds).items():
            print(f"  {name:28s} {value:12.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
