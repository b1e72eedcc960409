"""Command line front door.

Eleven subcommands split into fixture generation (gen), single operations on
dumped signals and fields (stft, norm, distance, cheeger, poincare, glue,
recover), and the experiment harness (run, list, verify). The instability
ratio ladder of the gaussian seed is `run prop21-gaussian-ratio`.

Exit codes: 0 success, 1 failed assertion or computation, 2 usage error.
Diagnostics go to stderr; data goes to stdout or to --out files. The only
environment variable read is STFTLAB_THREADS, an integer cap on BLAS
parallelism applied before the numerical modules load.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import rules

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class _Usage(Exception):
    """Bad invocation: malformed flag value, missing file, unknown key."""


def _apply_thread_cap() -> None:
    raw = os.environ.get("STFTLAB_THREADS")
    if raw is not None:
        n = _flag("STFTLAB_THREADS", rules.COUNT, raw)
        for var in _THREAD_VARS:
            os.environ[var] = str(n)


def _fail(msg: str) -> int:
    print(f"stftlab: {msg}", file=sys.stderr)
    return 1


def _jsonable(v):
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    if isinstance(v, complex):
        return [_jsonable(v.real), _jsonable(v.imag)]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(_jsonable(payload), indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _flag(name: str, convert, raw):
    try:
        return convert(raw)
    except ValueError as e:
        raise _Usage(f"argument {name}: {e}") from None


def _read_file(flag: str, read, path: str):
    """read(path) for the file that `flag` names. A file that cannot be
    read (missing, a directory, unreadable, not UTF-8 text) or whose
    content `read` refuses is a usage error naming the flag."""
    try:
        return read(path)
    except OSError as e:
        raise _Usage(f"argument {flag}: cannot read {path!r}: "
                     f"{e.strerror or e}") from None
    except UnicodeDecodeError:
        raise _Usage(f"argument {flag}: {path!r} is not UTF-8 "
                     f"text") from None
    except ValueError as e:
        raise _Usage(f"argument {flag}: {e}") from None


def _check_out(command: str, out: str) -> None:
    """Refuse an --out target that the command could not write, before any
    work: a file must not be a directory and must go in a writable
    directory; `run` writes a directory, which may be missing, but whose
    nearest existing ancestor must be a writable directory."""
    path = Path(out).absolute()
    if command == "run":
        if path.exists() and not path.is_dir():
            raise _Usage(f"argument --out: {out!r} is not a directory")
        home = next(p for p in (path, *path.parents) if p.exists())
    elif path.is_dir():
        raise _Usage(f"argument --out: {out!r} is a directory")
    else:
        home = path.parent
    if not home.is_dir():
        raise _Usage(f"argument --out: no directory {str(home)!r}")
    if not os.access(home, os.W_OK | os.X_OK):
        raise _Usage(f"argument --out: cannot write in {str(home)!r}")


def _load_operand(path: str, flag: str, kind: str = "signal or field"):
    """A dump that must hold a `kind`: signal, field, "signal or field", or
    mask."""
    from . import io
    from .grids import DomainMask, Signal, TFField

    obj = _read_file(flag, io.load, path)
    want = {"signal": Signal, "field": TFField, "mask": DomainMask,
            "signal or field": (Signal, TFField)}[kind]
    if not isinstance(obj, want):
        raise _Usage(f"argument {flag}: {path!r} is not a {kind} dump")
    return obj


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_gen(args) -> int:
    from . import io
    from .grids import gaussian, make_grid, modulate, random, translate
    from .rng import SplitMix64
    from .transforms import parse_window

    grid = _flag("--L/--N", lambda _: make_grid(args.L, args.N), None)
    ignored = ("center", "modulation") if args.kind == "random" else ("seed",)
    for flag in ignored:
        if getattr(args, flag) is not None:
            raise _Usage(f"argument --{flag}: not used by kind {args.kind}")
    if args.kind == "random":
        sig = random(grid, SplitMix64(args.seed or 0))
    else:
        try:
            spec = parse_window(args.kind)
        except ValueError as e:
            raise _Usage(f"argument kind: {e}; expected gaussian, hermite:N "
                         f"or random") from None
        center, modulation = args.center or 0.0, args.modulation or 0.0
        if spec.kind == "gaussian":
            try:
                sig = gaussian(grid, center=center, modulation=modulation)
            except ValueError as e:
                flag = {"gaussian": "--center", "modulation": "--modulation"
                        }.get(str(e).split()[0], "--L/--N")
                raise _Usage(f"argument {flag}: {e}") from None
        else:
            sig = _flag("--L/--N", spec.build, grid)
            if center:
                sig = _flag("--center", lambda c: translate(sig, c), center)
            if modulation:
                sig = _flag("--modulation", lambda m: modulate(sig, m),
                            modulation)
    if args.format == "bin":
        io.dump_signal(sig, args.out)
    else:
        io.signal_to_csv(sig, args.out)
    return 0


def _cmd_stft(args) -> int:
    from . import io
    from .transforms import parse_window, phaseless, stft

    sig = _load_operand(args.signal, "signal", "signal")
    window = _flag("--window", parse_window, args.window)
    # the window's build on the signal's grid is all that can fail here
    field = _flag("--window", lambda w: (
        phaseless if args.phaseless else stft)(sig, w), window)
    io.dump_field(field, args.out)
    return 0


def _cmd_norm(args) -> int:
    from .norms import parse_norm

    obj = _load_operand(args.operand, "operand")
    norm = _flag("--norm", parse_norm, args.norm)
    _emit({"norm": _flag("--norm", norm, obj), "label": norm.label}, args.out)
    return 0


def _cmd_distance(args) -> int:
    from .norms import _same_geometry, parse_norm, phase_inf_distance

    f = _load_operand(args.f, "f")
    g = _load_operand(args.g, "g")
    _flag("g", lambda _: _same_geometry(f, g), None)
    norm = _flag("--norm", parse_norm, args.norm)
    res = _flag("--norm", lambda n: phase_inf_distance(f, g, n), norm)
    _emit({"distance": res.distance, "lambda": res.phase, "gap": res.gap,
           "degenerate": res.degenerate, "method": res.method}, args.out)
    return 0


# cheeger_estimate's keywords; each left out takes its default there
_SWEEP_FLAGS = ("thresholds", "centers", "radii", "directions", "offsets")


def _cmd_cheeger(args) -> int:
    from .geometry import cheeger_estimate

    field = _load_operand(args.density, "density", "field")
    sweep = {flag: getattr(args, flag) for flag in _SWEEP_FLAGS
             if getattr(args, flag) is not None}
    try:
        report = cheeger_estimate(field, **sweep)
    except ValueError as e:
        # bad input is named first, a sweep that finds no candidate is not
        name = str(e).split()[0]
        if name == "density" or name in _SWEEP_FLAGS:
            flag = name if name == "density" else f"--{name}"
            raise _Usage(f"argument {flag}: {e}") from None
        raise
    _emit({"value": report.value, "family": report.family,
           "params": report.params, "total_mass": report.total_mass},
          args.out)
    return 0


def _parse_disk(raw: str, tg):
    from .grids import DomainMask

    parts = raw.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected CX,CY,R, got {raw!r}")
    cx, cy, r = (float(t) for t in parts)
    return DomainMask.disk(tg, complex(cx, cy), r)


def _cmd_poincare(args) -> int:
    from .geometry import poincare_constant
    from .grids import make_grid, tf_grid_of

    if (args.mask is None) == (args.disk is None):
        raise _Usage("argument mask: give a mask dump or --disk CX,CY,R "
                     "with --L/--N, not both")
    if args.mask is not None:
        flag, mask = "mask", _load_operand(args.mask, "mask", "mask")
    else:
        tg = tf_grid_of(_flag("--L/--N", lambda _: make_grid(args.L, args.N),
                              None))
        flag = "--disk"
        mask = _flag(flag, lambda raw: _parse_disk(raw, tg), args.disk)
    if mask.is_empty():
        raise _Usage(f"argument {flag}: empty domain, no grid point inside")
    weight = None
    if args.weight is not None:
        weight = _load_operand(args.weight, "--weight", "field")
    if weight is None:
        constant, report = poincare_constant(mask, weight)
    else:
        # past a nonempty mask, what poincare_constant refuses is the
        # weight: another grid, or one too ill-conditioned to converge
        constant, report = _flag(
            "--weight", lambda w: poincare_constant(mask, w), weight)
    _emit({"constant": constant, "mu1": report["mu1"]}, args.out)
    return 0


def _cmd_glue(args) -> int:
    from .geometry import connectivity, gluing_bound

    wpath, apath, bpath = args.connectivity
    field = _load_operand(wpath, "--connectivity", "field")
    a = _load_operand(apath, "--connectivity", "mask")
    b = _load_operand(bpath, "--connectivity", "mask")
    lam = _flag("--connectivity", lambda _: connectivity(field, a, b), None)
    bound = gluing_bound(args.ca, args.cb, lam)
    _emit({"lambda": lam, "bound": bound}, args.out)
    return 0


def _cmd_recover(args) -> int:
    from . import io
    from .norms import LqNorm, phase_inf_distance
    from .transforms import _require_measurement, parse_window, recover

    meas = _load_operand(args.measurement, "measurement", "field")
    _flag("measurement", _require_measurement, meas)
    window = _flag("--window", parse_window, args.window)
    _flag("--window", window.build, meas.tfgrid.xgrid)
    ref = (None if args.reference is None else
           _load_operand(args.reference, "--reference", "signal"))
    if ref is not None and ref.grid != meas.tfgrid.xgrid:
        raise _Usage("argument --reference: not on the measurement's grid")
    result = recover(meas, window, threshold=args.threshold)
    error = None
    if ref is not None:
        res = phase_inf_distance(ref, result.signal)
        scale = LqNorm(2.0)(ref)
        error = res.distance / scale if scale > 0 else float("inf")
    if args.out is not None:
        io.dump_signal(result.signal, args.out)
    _emit({"error": error, "masked_fraction": result.masked_fraction,
           "threshold": result.threshold}, None)
    return 0


# the --config patch; check_manifest checks the merged fixture and params
_CONFIG = rules.Keyed({}, {"fixture": rules.OBJECT, "params": rules.OBJECT,
                           "seed": rules.SEED})


def _manifest_from_args(args):
    """The registered manifest of args.id at --seed, with the --config patch
    merged in; a value that rules or check_manifest refuse is named."""
    import dataclasses

    from . import experiments

    try:
        manifest = experiments.default_manifest(
            args.id, seed=args.seed, out_dir=args.out, reduced=args.reduced)
    except ValueError as e:
        raise _Usage(f"argument id: {e}") from None
    if args.config is None:
        return manifest
    text = _read_file("--config", lambda p: Path(p).read_text(), args.config)
    try:
        patch = json.loads(text)
    except json.JSONDecodeError as e:
        raise _Usage(f"argument --config: not valid JSON ({e})") from None
    try:
        _CONFIG.check("", patch)
        manifest = dataclasses.replace(
            manifest, fixture={**manifest.fixture, **patch.get("fixture", {})},
            params={**manifest.params, **patch.get("params", {})},
            seed=patch.get("seed", manifest.seed))
        experiments.check_manifest(manifest)
    except ValueError as e:
        raise _Usage(f"argument --config: {e}") from None
    return manifest


def _cmd_run(args) -> int:
    from . import experiments

    manifest = _manifest_from_args(args)
    result = experiments.run(manifest)
    for a in result.assertions:
        verdict = "PASS" if a["passed"] else ("FAIL" if a["hard"]
                                              else "soft-fail")
        print(f"[{verdict}] {a['invariant']}: {a['description']}")
    print(f"{result.manifest.id}: {'PASS' if result.passed else 'FAIL'} "
          f"({result.wallclock:.2f}s)")
    if args.out is not None:
        print(f"tables written to {args.out}")
    return 0 if result.passed else 1


def _cmd_list(args) -> int:
    from . import experiments

    entries = experiments.list_experiments()
    width = max(len(e["id"]) for e in entries)
    for e in entries:
        print(f"{e['id']:<{width}}  {e['description']}")
    return 0


def _cmd_verify(args) -> int:
    from . import experiments

    report = _flag("dir", experiments.verify_run, args.dir)
    _emit(report, args.out)
    return 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stftlab",
        description="Numerical laboratory for phase retrieval from "
                    "short-time Fourier measurements.")
    sub = ap.add_subparsers(dest="command", required=True,
                            metavar="command")

    def add(name, help, handler):
        p = sub.add_parser(name, help=help, description=help)
        p.set_defaults(handler=handler)
        return p

    p = add("gen", "generate a signal fixture and dump it", _cmd_gen)
    p.add_argument("kind", help="gaussian, hermite:N or random")
    p.add_argument("--L", type=rules.POSITIVE, default=16.0,
                   help="period of the grid (default 16)")
    p.add_argument("--N", type=rules.GRID_COUNT, default=256,
                   help="sample count (default 256)")
    p.add_argument("--center", type=rules.REAL,
                   help="on-grid shift of gaussian and hermite:N (default 0)")
    p.add_argument("--modulation", type=rules.REAL,
                   help="on-grid modulation of gaussian and hermite:N "
                        "(default 0)")
    p.add_argument("--seed", type=rules.SEED,
                   help="seed of kind random (default 0)")
    p.add_argument("--format", choices=("bin", "csv"), default="bin")
    p.add_argument("--out", required=True, help="output path")

    p = add("stft", "transform a signal dump to a field dump", _cmd_stft)
    p.add_argument("signal", help="signal dump")
    p.add_argument("--window", default="gaussian",
                   help="gaussian or hermite:N (default gaussian)")
    p.add_argument("--phaseless", action="store_true",
                   help="store squared modulus instead of the transform")
    p.add_argument("--out", required=True, help="field dump to write")

    p = add("norm", "evaluate a norm of a dumped signal or field",
            _cmd_norm)
    p.add_argument("operand", help="signal or field dump")
    p.add_argument("--norm", default="l2",
                   help="norm spec: l2, lq:Q, x:P,SIGMA, w:S,P[,R], "
                        "'^' intersects (default l2)")
    p.add_argument("--out", help="write JSON here instead of stdout")

    p = add("distance", "phase-invariant distance between two dumps",
            _cmd_distance)
    p.add_argument("f", help="first dump")
    p.add_argument("g", help="second dump")
    p.add_argument("--norm", default="l2", help="norm spec (default l2)")
    p.add_argument("--out", help="write JSON here instead of stdout")

    p = add("cheeger", "estimate the Cheeger quotient of a density dump",
            _cmd_cheeger)
    p.add_argument("density", help="field dump with nonnegative values")
    for flag in _SWEEP_FLAGS:
        p.add_argument(f"--{flag}", type=rules.SIZE)
    p.add_argument("--out", help="write JSON here instead of stdout")

    p = add("poincare", "weighted Poincare constant of a domain",
            _cmd_poincare)
    p.add_argument("mask", nargs="?", help="mask dump")
    p.add_argument("--disk", help="CX,CY,R disk domain instead of a dump")
    p.add_argument("--L", type=rules.POSITIVE, default=16.0,
                   help="grid period for --disk")
    p.add_argument("--N", type=rules.GRID_COUNT, default=256,
                   help="grid count for --disk")
    p.add_argument("--weight", help="field dump with the weight")
    p.add_argument("--out", help="write JSON here instead of stdout")

    p = add("glue", "stability bound for a glued domain", _cmd_glue)
    p.add_argument("--ca", type=rules.CONSTANT, required=True,
                   help="stability constant of the first patch")
    p.add_argument("--cb", type=rules.CONSTANT, required=True,
                   help="stability constant of the second patch")
    p.add_argument("--connectivity", nargs=3, required=True,
                   metavar=("W", "A", "B"),
                   help="density dump and two mask dumps; the overlap "
                        "connectivity lam is computed from them")
    p.add_argument("--out", help="write JSON here instead of stdout")

    p = add("recover", "invert a phaseless measurement up to phase",
            _cmd_recover)
    p.add_argument("measurement", help="field dump of squared modulus")
    p.add_argument("--window", default="gaussian")
    p.add_argument("--threshold", type=rules.FRACTION,
                   help="mask level for the window division, a fraction in "
                        "(0, 1) of the window ambiguity's peak (default "
                        "1e-6)")
    p.add_argument("--reference", help="signal dump to compare against")
    p.add_argument("--out", help="write the recovered signal dump here")

    p = add("run", "run one experiment and evaluate its assertions",
            _cmd_run)
    p.add_argument("id", help="experiment id, see 'stftlab list'")
    p.add_argument("--config", help="JSON patch: fixture, params, seed")
    p.add_argument("--seed", type=rules.SEED, default=0)
    p.add_argument("--reduced", action="store_true",
                   help="smaller fixture for quick checks")
    p.add_argument("--out", help="directory for tables and summary")

    add("list", "list experiment ids", _cmd_list)

    p = add("verify", "re-check a stored run from its tables", _cmd_verify)
    p.add_argument("dir", help="directory written by run --out")
    p.add_argument("--out", help="write JSON here instead of stdout")

    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse has already written its message
        return 0 if e.code in (0, None) else 2
    try:
        _apply_thread_cap()  # before a handler loads the numerical modules
        if getattr(args, "out", None) is not None:
            _check_out(args.command, args.out)
        return args.handler(args)
    except _Usage as e:
        print(f"stftlab: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
