"""Byte-identity digest of every registered experiment's runs.

    python3 tools/digest.py --src SRC --out DIR
    python3 tools/digest.py --compare A B

The first form runs every experiment that the tree SRC registers, at seeds
0, 3 and 7, at default and --reduced size: 102 runs of 17 experiments, each
a fresh `python -m stftlab.cli run ID --seed S [--reduced] --out ...`
process with SRC/src on PYTHONPATH. The run directories land in
DIR/<id>/seed<S>-<size>/, and DIR/digest.json maps each file's path under
DIR to its sha256: each CSV as written, and each summary.json without
`wallclock_s` and `manifest.out_dir`, the two entries that change from run
to run. DIR/timing.json records each run's cost by its directory under
DIR: the process wall time in seconds and its peak resident set in MB; it
is not digested. A run that exits other than 0 (all assertions hold) or 1
(a hard assertion failed) stops the digest.

The second form compares two such directories: it names each file whose
digest differs or that one side lacks. For a CSV it adds the first line at
which the two differ, the largest relative change over the numeric cells
that differ, and each other cell that differs (a `family`, a verdict), by
column and line. It exits 1 on any difference and 0 on none. Bits may
differ across CPUs and library builds, so compare trees run on one host.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEEDS = (0, 3, 7)
SIZES = ("default", "reduced")


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(src).resolve() / "src")
    return env


def experiment_ids(src: Path) -> list:
    """The ids that `stftlab list` of the tree src prints, in its order."""
    listed = subprocess.run(
        [sys.executable, "-m", "stftlab.cli", "list"], env=_env(src),
        check=True, capture_output=True, text=True).stdout
    return [line.split()[0] for line in listed.splitlines() if line.strip()]


def _timed_run(argv: list, env: dict) -> tuple:
    """(exit code, stderr text, wall s, peak RSS MB) of one child process.
    Its output goes to files, so os.wait4 reaps it and reports its own
    peak resident set (ru_maxrss, in KiB on Linux)."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        # Popen must not wait for a child that wait4 has already reaped
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return (proc.returncode, err.read().decode(errors="replace"), wall,
                usage.ru_maxrss / 1024.0)


def run_all(src: Path, out: Path, ids=None, seeds=SEEDS,
            sizes=SIZES) -> dict:
    """Run each id (default: every registered one) at each seed and size
    into out, write out/timing.json and out/digest.json and return the
    digest."""
    out = Path(out)
    timing = {}
    for id in experiment_ids(src) if ids is None else ids:
        for seed in seeds:
            for size in sizes:
                run_dir = f"{id}/seed{seed}-{size}"
                argv = [sys.executable, "-m", "stftlab.cli", "run", id,
                        "--seed", str(seed), "--out", str(out / run_dir)]
                if size == "reduced":
                    argv.append("--reduced")
                code, stderr, wall, rss = _timed_run(argv, _env(src))
                if code not in (0, 1):
                    raise RuntimeError(f"{' '.join(argv[2:])} exited "
                                       f"{code}: {stderr}")
                timing[run_dir] = {"wall_s": wall, "peak_rss_mb": rss}
    (out / "timing.json").write_text(json.dumps(timing, indent=1) + "\n")
    return write_digest(out)


def _summary_bytes(path: Path) -> bytes:
    summary = json.loads(path.read_text())
    summary.pop("wallclock_s", None)
    summary.get("manifest", {}).pop("out_dir", None)
    return json.dumps(summary, indent=2).encode()


def write_digest(out: Path) -> dict:
    """sha256 of each CSV and each summary.json under out, by path under
    out; written to out/digest.json."""
    out = Path(out)
    digest = {}
    for path in sorted(out.rglob("*")):
        if path.suffix == ".csv":
            data = path.read_bytes()
        elif path.name == "summary.json":
            data = _summary_bytes(path)
        else:
            continue
        digest[path.relative_to(out).as_posix()] = \
            hashlib.sha256(data).hexdigest()
    (out / "digest.json").write_text(json.dumps(digest, indent=1) + "\n")
    return digest


def _first_line_apart(a: Path, b: Path) -> int:
    """The 1-based number of the first line at which two files differ."""
    la, lb = a.read_bytes().splitlines(), b.read_bytes().splitlines()
    for i, (x, y) in enumerate(zip(la, lb), start=1):
        if x != y:
            return i
    return min(len(la), len(lb)) + 1


def _number(text: str):
    """The finite float that a CSV cell holds, or None."""
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _csv_moves(a: Path, b: Path) -> str:
    """How far two CSVs of one shape moved: the largest relative change
    over the numeric cells that differ, and each other cell that differs
    by column and line."""
    with open(a, newline="") as fa, open(b, newline="") as fb:
        ra, rb = list(csv.reader(fa)), list(csv.reader(fb))
    if (len(ra) != len(rb) or ra[:1] != rb[:1]
            or any(len(x) != len(y) for x, y in zip(ra, rb))):
        return "; the tables differ in shape"
    worst, text = None, []
    for line, (x, y) in enumerate(zip(ra[1:], rb[1:]), start=2):
        for column, u, v in zip(ra[0], x, y):
            if u == v:
                continue
            nu, nv = _number(u), _number(v)
            if nu is None or nv is None:
                text.append(f"{column} at line {line}")
            else:
                change = (abs(nu - nv) / max(abs(nu), abs(nv))
                          if nu != nv else 0.0)
                worst = change if worst is None else max(worst, change)
    moves = ("" if worst is None
             else f"; largest relative change {worst:.2g}")
    return moves + (f"; text differs: {', '.join(text)}" if text else "")


def compare(a: Path, b: Path) -> list:
    """One line per file whose digest differs between the directories a and
    b, or that only one of them holds; empty when they agree."""
    a, b = Path(a), Path(b)
    da = json.loads((a / "digest.json").read_text())
    db = json.loads((b / "digest.json").read_text())
    report = []
    for key in sorted(set(da) | set(db)):
        if key not in db or key not in da:
            report.append(f"{key}: only in {a if key in da else b}")
        elif da[key] != db[key]:
            where = (f" from line {_first_line_apart(a / key, b / key)}"
                     f"{_csv_moves(a / key, b / key)}"
                     if key.endswith(".csv") else "")
            report.append(f"{key}: differs{where}")
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path,
                    help="tree whose src/ holds the stftlab to run")
    ap.add_argument("--out", type=Path, help="directory for the runs")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                    help="two --out directories to compare")
    args = ap.parse_args(argv)
    if args.compare is not None:
        if args.src is not None or args.out is not None:
            ap.error("--compare takes no --src or --out")
        report = compare(*args.compare)
        for line in report:
            print(line)
        print(f"{len(report)} file(s) differ", file=sys.stderr)
        return 1 if report else 0
    if args.src is None or args.out is None:
        ap.error("give --src and --out, or --compare A B")
    digest = run_all(args.src, args.out)
    print(f"{len(digest)} files digested into {args.out / 'digest.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
