"""Quick self-test of the benchmark at its tiny sizes (about a minute).

    python3 perfbench/selftest.py

1. Every workload runs its operation list once (`--tiny`, one round) with
   no failed operation and no wrong output, and prints exactly the metrics
   BENCHMARK.json declares, with the declared units.
2. Two traced runs with one seed report identical work counts.
3. Corrupted outputs are caught: a flipped byte in a dump, a perturbed
   transform, a moved Cheeger witness and an off-target Cheeger value each
   make their check fail.

Exits 0 when every step holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
COUNT_SUFFIXES = (".calls", ".cells", ".samples", ".evaluations",
                  ".candidates", ".segments", ".bytes", ".stft_calls",
                  ".vertices")

_problems = []


def _require(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        _problems.append(what)


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
           "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr)
    _require(done.returncode == 0, f"{workload} trace={trace} exits 0")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _declared(result: dict, metrics: list, what: str) -> None:
    _require(set(result) == {"correct", "attempted", "failed", "metrics"},
             f"{what}: result has exactly the four keys")
    _require(result["correct"] and result["failed"] == 0
             and result["attempted"] >= 1,
             f"{what}: correct, {result['attempted']} attempted, "
             f"{result['failed']} failed")
    want = {m["name"]: m["unit"] for m in metrics}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    _require(got == want, f"{what}: metric names and units as declared")


def _check_runs(bench: dict) -> None:
    for w in bench["workloads"]:
        name = w["name"]
        _declared(_run(name, 0), bench["end_to_end"], f"{name} end-to-end")
        first, second = _run(name, 1), _run(name, 1)
        _declared(first, bench["per_layer"], f"{name} traced")
        counts = [k for k in first["metrics"] if k.endswith(COUNT_SUFFIXES)]
        same = [k for k in counts if first["metrics"][k]["value"]
                == second["metrics"][k]["value"]]
        _require(len(same) == len(counts),
                 f"{name}: {len(counts)} work counts repeat exactly "
                 f"(differ: {sorted(set(counts) - set(same))})")


def _caught(check, state, value, what: str) -> None:
    import oracles

    try:
        check(state, value)
    except oracles.Mismatch:
        _require(True, f"corruption caught: {what}")
        return
    _require(False, f"corruption caught: {what}")


def _run_ops(ops, state, upto: str):
    """Run operations in order up to and including `upto`; its value."""
    for op in ops:
        value = op.call(state)
        if op.name == upto:
            return op, value
    raise KeyError(upto)


def _check_corruption(workdir: Path) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    lab = workloads.load_lab()

    ops = workloads.build("lab-suite", lab, SEED, True, workdir)
    cli_ops = ops[[op.name for op in ops].index("cli gen gaussian"):]
    state = {}
    op, value = _run_ops(cli_ops, state, "cli stft f")
    op.check(state, value)
    path = workdir / "F.bin"
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0x10
    path.write_bytes(bytes(raw))
    _caught(op.check, state, value, "a flipped payload byte in F.bin")
    raw[0] ^= 0x01
    path.write_bytes(bytes(raw))
    _caught(op.check, state, value, "a flipped magic byte in F.bin")

    ops = workloads.build("sobolev-family", lab, SEED, True, workdir)
    state = {}
    op, (base, fields) = _run_ops(ops, state, "stft of family members")
    op.check(state, (base, fields))
    field = fields[1][3]
    i, j = np.unravel_index(np.argmax(np.abs(field.values)),
                            field.values.shape)
    field.values[i, j] *= 1.0 + 1e-6
    _caught(op.check, state, (base, fields),
            "a family transform moved by 1e-6 at its peak")

    ops = workloads.build("cheeger-sweep", lab, SEED, True, workdir)
    state = {}
    op, result = _run_ops(ops, state, "run cheeger-gaussian")
    op.check(state, result)
    header, rows = result.tables["closed_form"]
    col = header.index("value")
    rows[0][col] *= 1.02
    _caught(op.check, state, result, "a Gaussian Cheeger value 2% off")
    op, (density, report) = _run_ops(ops[2:], state, "cheeger seeded 0")
    op.check(state, (density, report))
    report.witness.inside[...] = True
    _caught(op.check, state, (density, report),
            "a witness that holds the whole mass")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    _check_runs(bench)
    workdir = HERE / "work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _check_corruption(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print("self-test " + ("passed" if not _problems else
                          f"FAILED: {len(_problems)} problems"))
    return 1 if _problems else 0


if __name__ == "__main__":
    sys.exit(main())
