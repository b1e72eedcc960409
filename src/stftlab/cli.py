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
    if raw is None:
        return
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise _Usage(f"STFTLAB_THREADS must be a positive integer, "
                     f"got {raw!r}")
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


def _at_least(low: float, convert=float, strict: bool = False):
    """argparse type: a `convert` value >= low (> low when strict), never
    NaN, so that a bad value exits 2 with a message naming the flag."""
    want = (f"{'an integer' if convert is int else 'a number'} "
            f"{'>' if strict else '>='} {low:g}")

    def parse(raw: str):
        try:
            value = convert(raw)
        except ValueError:
            value = math.nan
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(f"must be {want}, got {raw!r}")
        return value
    return parse


def _load_dump(path: str, flag: str):
    from . import io

    try:
        return io.load(path)
    except FileNotFoundError:
        raise _Usage(f"argument {flag}: no such file {path!r}") from None
    except ValueError as e:
        raise _Usage(f"argument {flag}: {e}") from None


def _load_operand(path: str, flag: str, kind: str = "signal or field"):
    """A dump that must hold a `kind`: signal, field, "signal or field", or
    mask (returned as a DomainMask)."""
    from .grids import Signal, TFField

    obj = _load_dump(path, flag)
    want = {"signal": Signal, "field": TFField, "mask": tuple,
            "signal or field": (Signal, TFField)}[kind]
    if not isinstance(obj, want):
        raise _Usage(f"argument {flag}: {path!r} is not a {kind} dump")
    if kind == "mask":
        from .geometry import DomainMask

        return DomainMask(obj[1], obj[0])
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
            sig = gaussian(grid, center=center, modulation=modulation)
        else:
            sig = spec.build(grid)
            if center:
                sig = translate(sig, center)
            if modulation:
                sig = modulate(sig, modulation)
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
    field = phaseless(sig, window) if args.phaseless else stft(sig, window)
    io.dump_field(field, args.out)
    return 0


def _cmd_norm(args) -> int:
    from .norms import parse_norm

    obj = _load_operand(args.operand, "operand")
    norm = _flag("--norm", parse_norm, args.norm)
    _emit({"norm": norm(obj), "label": norm.label}, args.out)
    return 0


def _cmd_distance(args) -> int:
    from .norms import _same_geometry, parse_norm, phase_inf_distance

    f = _load_operand(args.f, "f")
    g = _load_operand(args.g, "g")
    _flag("g", lambda _: _same_geometry(f, g), None)
    norm = _flag("--norm", parse_norm, args.norm)
    res = phase_inf_distance(f, g, norm)
    _emit({"distance": res.distance, "lambda": res.phase, "gap": res.gap,
           "degenerate": res.degenerate, "method": res.method}, args.out)
    return 0


def _cmd_cheeger(args) -> int:
    from .geometry import cheeger_estimate

    if (args.thresholds < 2 and args.directions < 1
            and min(args.centers, args.radii) < 1):
        raise _Usage("argument --thresholds/--centers/--radii/--directions: "
                     "every candidate family is empty")
    field = _load_operand(args.density, "density", "field")
    report = cheeger_estimate(field, thresholds=args.thresholds,
                              centers=args.centers, radii=args.radii,
                              directions=args.directions, offsets=args.offsets)
    _emit({"value": report.value, "family": report.family,
           "params": report.params, "total_mass": report.total_mass},
          args.out)
    return 0


def _parse_disk(raw: str):
    parts = raw.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected CX,CY,R, got {raw!r}")
    cx, cy, r = (float(t) for t in parts)
    return complex(cx, cy), r


def _cmd_poincare(args) -> int:
    from .geometry import DomainMask, poincare_constant
    from .grids import make_grid, tf_grid_of

    if (args.mask is None) == (args.disk is None):
        raise _Usage("argument mask: give a mask dump or --disk CX,CY,R "
                     "with --L/--N, not both")
    if args.mask is not None:
        mask = _load_operand(args.mask, "mask", "mask")
    else:
        center, radius = _flag("--disk", _parse_disk, args.disk)
        tg = tf_grid_of(_flag("--L/--N", lambda _: make_grid(args.L, args.N),
                              None))
        mask = DomainMask.disk(tg, center, radius)
    weight = None
    if args.weight is not None:
        weight = _load_operand(args.weight, "--weight")
    constant, report = poincare_constant(mask, weight)
    _emit({"constant": constant, "mu1": report["mu1"]}, args.out)
    return 0


def _cmd_glue(args) -> int:
    from .geometry import connectivity, gluing_bound

    wpath, apath, bpath = args.connectivity
    field = _load_operand(wpath, "--connectivity", "field")
    a = _load_operand(apath, "--connectivity", "mask")
    b = _load_operand(bpath, "--connectivity", "mask")
    lam = connectivity(field, a, b)
    bound = gluing_bound(args.ca, args.cb, lam)
    _emit({"lambda": lam, "bound": bound}, args.out)
    return 0


def _cmd_recover(args) -> int:
    from . import io
    from .grids import riemann_lp
    from .norms import phase_inf_distance
    from .transforms import parse_window, recover

    meas = _load_operand(args.measurement, "measurement", "field")
    window = _flag("--window", parse_window, args.window)
    ref = (None if args.reference is None else
           _load_operand(args.reference, "--reference", "signal"))
    if ref is not None and ref.grid != meas.tfgrid.xgrid:
        raise _Usage("argument --reference: not on the measurement's grid")
    result = recover(meas, window, threshold=args.threshold)
    error = None
    if ref is not None:
        res = phase_inf_distance(ref, result.signal)
        scale = riemann_lp(ref.values, ref.grid.dx, 2.0)
        error = res.distance / scale if scale > 0 else float("inf")
    if args.out is not None:
        io.dump_signal(result.signal, args.out)
    _emit({"error": error, "masked_fraction": result.masked_fraction,
           "threshold": result.threshold}, None)
    return 0


_CONFIG_KEYS = ("fixture", "params", "seed")


def _json_kind(v) -> str:
    for t, kind in ((bool, "a boolean"), (int, "an integer"),
                    (float, "a number"), (str, "a string"),
                    (list, "an array"), (dict, "an object")):
        if isinstance(v, t):
            return kind
    return "null"


def _check_config_type(name: str, default, value) -> None:
    """A patched value must have the JSON type of the registered default;
    an integer may stand for a number, a boolean never for an integer."""
    want, got = _json_kind(default), _json_kind(value)
    if want != got and (want, got) != ("a number", "an integer"):
        raise _Usage(f"argument --config: {name} must be {want}, "
                     f"got {json.dumps(value)}")
    if want == "an array" and default:
        for i, item in enumerate(value):
            _check_config_type(f"{name}[{i}]", default[0], item)


def _manifest_from_args(args):
    import dataclasses

    from . import experiments

    try:
        manifest = experiments.default_manifest(args.id, seed=args.seed,
                                                out_dir=args.out,
                                                reduced=args.reduced)
    except ValueError as e:
        raise _Usage(f"argument id: {e}") from None
    if args.config is None:
        return manifest
    try:
        raw = json.loads(Path(args.config).read_text())
    except FileNotFoundError:
        raise _Usage(f"argument --config: no such file "
                     f"{args.config!r}") from None
    except json.JSONDecodeError as e:
        raise _Usage(f"argument --config: not valid JSON ({e})") from None
    if not isinstance(raw, dict):
        raise _Usage("argument --config: top level must be an object")
    for key in raw:
        if key not in _CONFIG_KEYS:
            raise _Usage(f"argument --config: unknown key {key!r} "
                         f"(allowed: {', '.join(_CONFIG_KEYS)})")
    for section in ("fixture", "params"):
        patch = raw.get(section, {})
        if not isinstance(patch, dict):
            raise _Usage(f"argument --config: {section} must be an object")
        base = getattr(manifest, section)
        for key in patch:
            if key not in base:
                raise _Usage(f"argument --config: unknown {section} key "
                             f"{key!r} (allowed: {', '.join(base)})")
            _check_config_type(f"{section}.{key}", base[key], patch[key])
    seed = raw.get("seed", manifest.seed)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise _Usage("argument --config: seed must be an integer")
    fixture = {**manifest.fixture, **raw.get("fixture", {})}
    _check_fixture_grids(fixture)
    return dataclasses.replace(
        manifest, fixture=fixture,
        params={**manifest.params, **raw.get("params", {})},
        seed=seed)


def _check_fixture_grids(fixture: dict) -> None:
    """Build each grid a patched fixture declares, so that make_grid's
    limits end in exit 2 naming the field instead of failing in the run."""
    from .grids import make_grid

    if "count" in fixture:
        counts = [("fixture.count", fixture["count"])]
    else:
        counts = [(f"fixture.counts[{i}]", c)
                  for i, c in enumerate(fixture.get("counts", []))]
    for name, count in counts:
        try:
            make_grid(fixture["length"], count)
        except ValueError as e:
            if str(e).startswith("grid length"):
                name = "fixture.length"
            raise _Usage(f"argument --config: {name}: {e}") from None


def _cmd_run(args) -> int:
    from . import experiments

    manifest = _manifest_from_args(args)
    result = experiments.run(manifest)
    for a in result.assertions:
        verdict = "PASS" if a["passed"] else ("FAIL" if a["hard"]
                                              else "soft-fail")
        print(f"[{verdict}] {a['invariant']}: {a['description']}")
    print(f"{result.id}: {'PASS' if result.passed else 'FAIL'} "
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

    try:
        report = experiments.verify_run(args.dir)
    except FileNotFoundError:
        raise _Usage(f"argument dir: {args.dir!r} is not a stored "
                     f"run") from None
    except ValueError as e:
        raise _Usage(f"argument dir: {e}") from None
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
    p.add_argument("--L", type=float, default=16.0,
                   help="period of the grid (default 16)")
    p.add_argument("--N", type=int, default=256,
                   help="sample count (default 256)")
    p.add_argument("--center", type=float,
                   help="on-grid shift of gaussian and hermite:N (default 0)")
    p.add_argument("--modulation", type=float,
                   help="on-grid modulation of gaussian and hermite:N "
                        "(default 0)")
    p.add_argument("--seed", type=int,
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
    for flag, default in (("thresholds", 256), ("centers", 9), ("radii", 16),
                          ("directions", 64), ("offsets", 33)):
        p.add_argument(f"--{flag}", type=_at_least(0, int), default=default)
    p.add_argument("--out", help="write JSON here instead of stdout")

    p = add("poincare", "weighted Poincare constant of a domain",
            _cmd_poincare)
    p.add_argument("mask", nargs="?", help="mask dump")
    p.add_argument("--disk", help="CX,CY,R disk domain instead of a dump")
    p.add_argument("--L", type=float, default=16.0,
                   help="grid period for --disk")
    p.add_argument("--N", type=int, default=256,
                   help="grid count for --disk")
    p.add_argument("--weight", help="field dump with the weight")
    p.add_argument("--out", help="write JSON here instead of stdout")

    p = add("glue", "stability bound for a glued domain", _cmd_glue)
    p.add_argument("--ca", type=_at_least(0.0), required=True,
                   help="stability constant of the first patch")
    p.add_argument("--cb", type=_at_least(0.0), required=True,
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
    p.add_argument("--threshold", type=_at_least(0.0, strict=True),
                   help="mask level for the window division")
    p.add_argument("--reference", help="signal dump to compare against")
    p.add_argument("--out", help="write the recovered signal dump here")

    p = add("run", "run one experiment and evaluate its assertions",
            _cmd_run)
    p.add_argument("id", help="experiment id, see 'stftlab list'")
    p.add_argument("--config", help="JSON patch: fixture, params, seed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reduced", action="store_true",
                   help="smaller fixture for quick checks")
    p.add_argument("--out", help="directory for tables and summary")

    add("list", "list experiment ids", _cmd_list)

    p = add("verify", "re-check a stored run from its tables", _cmd_verify)
    p.add_argument("dir", help="directory written by run --out")
    p.add_argument("--out", help="write JSON here instead of stdout")

    return ap


def main(argv=None) -> int:
    try:
        _apply_thread_cap()
    except _Usage as e:
        print(f"stftlab: {e}", file=sys.stderr)
        return 2
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse has already written its message
        return 0 if e.code in (0, None) else 2
    try:
        return args.handler(args)
    except _Usage as e:
        print(f"stftlab: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
