"""Benchmark of stftlab: one workload, one seed, one run.

    python3 perfbench/run.py --workload cheeger-sweep --seed 1 --seconds 30 \
        --trace 0

Run from the root of a source tree; the program is imported from `src/`.
The workload runs in rounds, one operation at a time, until another round
would overrun `--seconds` (at least one round). The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (`wall_s`, the median
over rounds of the time spent inside the program's calls; `peak_rss_mb`;
`setup_s`, the median of several fresh-process set-ups). With `--trace 1`
every traced layer reports its self time and work counts per round.

Exit code 2 when the program cannot be imported, so no result is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _clock() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so a child's reading can
    # be compared with the parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest operation lists, for the self-test")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _prepare(args, workdir: Path, tracer=None):
    """Everything a run does before its first operation: import the
    program (numpy and scipy with it) and build the operation list."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    lab = workloads.load_lab()
    ops = workloads.build(args.workload, lab, args.seed, args.tiny, workdir)
    if tracer is not None:
        tracer.install(lab)
    return ops


def _setup_seconds(args) -> float:
    """Median time from process start until the first operation could
    begin, over SETUP_PROBES fresh processes run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0", "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_PROBES):
        start = _clock()
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(times)


def _run_round(ops, workdir: Path, failures: list, wrong: list,
               tracer=None) -> float:
    """One pass over the operations; returns the seconds spent inside them.
    Checks run after each operation's clock has stopped, untraced."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    state = {}
    busy = 0.0
    for op in ops:
        start = time.perf_counter()
        try:
            value = op.call(state)
        except Exception as e:  # any raise is the operation failing
            busy += time.perf_counter() - start
            failures.append(f"FAILED {op.name}: {type(e).__name__}: {e}")
            continue
        busy += time.perf_counter() - start
        if op.check is None:
            continue
        try:
            with tracer.paused() if tracer else contextlib.nullcontext():
                op.check(state, value)
        except Exception as e:  # a mismatch, or output the check cannot read
            wrong.append(f"WRONG {op.name}: {type(e).__name__}: {e}")
    return busy


def main(argv=None) -> int:
    args = _parse(argv)
    ncpu = len(os.sched_getaffinity(0))
    for var in _THREAD_VARS:
        os.environ[var] = str(ncpu)
    # no bytecode cache: every set-up compiles the sources alike, whatever
    # the environment, and nothing is written next to them
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True

    if args.setup_probe:
        _prepare(args, HERE / "work" / "probe")
        print(repr(_clock()))
        return 0

    import workloads  # after the thread cap: it imports numpy

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "stftlab" / "__init__.py").is_file():
        print(f"perfbench: no stftlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    (HERE / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=HERE / "work"))
    tracer = layers.Tracer() if args.trace else None
    try:
        ops = _prepare(args, workdir / "round", tracer)
        setup = None if args.trace else _setup_seconds(args)

        failures, wrong, walls = [], [], []
        started = _clock()
        while True:
            walls.append(_run_round(ops, workdir / "round", failures, wrong,
                                    tracer))
            elapsed = _clock() - started
            if elapsed + elapsed / len(walls) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / "work").rmdir()  # left only when another run uses it
    attempted = len(ops) * len(walls)

    if tracer is None:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"wall_s": (statistics.median(walls), "s"),
                   "peak_rss_mb": (rss_kb / 1024.0, "MB"),
                   "setup_s": (setup, "s")}
    else:
        units = dict(layers.PER_LAYER)
        metrics = {name: (value, units[name])
                   for name, value in tracer.metrics(len(walls)).items()}
        print(f"traced wall_s {statistics.median(walls)!r} s "
              "(tracing overhead included)")

    for line in failures + wrong:
        print(line, file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(walls)} rounds, "
          f"{attempted} operations, {len(failures)} failed, "
          f"{len(wrong)} wrong; seconds in calls per round: "
          + " ".join(f"{w:.3f}" for w in walls))
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value!r} {unit}")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
