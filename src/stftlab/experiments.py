"""Reproducible experiments: manifests in, tables and verdicts out.

Each experiment id names a fixed numerical study. A manifest pins the
fixture (grids, windows, signals), the parameter block, and the seed;
running it produces named tables, a summary, and a list of assertions.
Every assertion is a predicate over table columns, so a stored run can be
re-verified from its CSV files alone without redoing the numerics, and
two runs of the same manifest write byte-identical tables.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .forge import (
    assemble_pair,
    dichotomy_check,
    field_instability_ratio,
    instability_ratio,
    lp_reduction_rows,
    select_annulus_schedule,
    stft_instability_family,
    verify_bump_bounds,
)
from .geometry import (
    DomainMask,
    cheeger_estimate,
    connectivity,
    gluing_bound,
    poincare_constant,
    stability_certificate,
)
from .grids import (
    Signal,
    TFField,
    TFGrid,
    gaussian,
    hermite,
    make_grid,
    modulate,
    random,
    tf_grid_of,
    translate,
)
from .norms import (
    NormSpec,
    SobolevNorm,
    XpSigmaNorm,
    disjointness_witness,
    h1_magnitude,
    japanese_bracket,
    modulus,
    modulus_difference,
    modulus_sobolev_ratio,
    phase_inf_distance,
    riemann_lp,
)
from .rng import SplitMix64
from .transforms import (
    ambiguity,
    ambiguity_relation_residual,
    covariance_residual,
    fock_polynomial_field,
    parse_window,
    phaseless,
    recover,
    stft,
    window_comparison_ratio,
)

__all__ = [
    "CHECKS",
    "INVARIANTS",
    "ExperimentManifest",
    "ExperimentResult",
    "default_manifest",
    "experiment_ids",
    "list_experiments",
    "run",
    "verify_run",
    "write_result",
]


# ---------------------------------------------------------------------------
# invariants referenced by assertions

INVARIANTS = {
    "transforms.isometry":
        "the transform preserves the L2 norm up to grid rounding",
    "transforms.covariance":
        "lattice time-frequency shifts move the transform by the known "
        "phase twist",
    "transforms.ambiguity-relation":
        "the measurement spectrum factors through the windowed ambiguity "
        "product",
    "transforms.recovery":
        "division-based inversion returns the signal up to a global phase",
    "transforms.recovery-noisy":
        "inversion degrades gracefully at finite SNR (report only)",
    "transforms.window-comparison":
        "window-change ratio: exact for equal windows, finite or flagged "
        "otherwise",
    "forge.ratio-growth":
        "instability ratios clear their 2^n targets and grow along the "
        "verified window",
    "forge.window-pin":
        "the verified window of the gaussian ladder is pinned",
    "forge.far-phase-floor":
        "far phases cannot fake the modulus match",
    "forge.bump-estimates":
        "the four bump estimates hold with the implementation constant",
    "forge.tail-decay":
        "annulus tail masses decay at the scheduled rate",
    "forge.sobolev-ratio":
        "transform-side instability ratios clear per-rung targets",
    "forge.family-closeness":
        "the perturbed family stays inside its closeness budget",
    "norms.band-split":
        "band splitting controls the Sobolev norm with a pinned constant",
    "norms.modulus-contraction":
        "taking moduli does not increase smooth-field Sobolev mass below "
        "the threshold",
    "norms.modulus-threshold-sharp":
        "above the threshold, creased moduli outweigh their sources",
    "norms.disjointness-decay":
        "overlap witnesses decay geometrically along the ladder",
    "norms.disjointness-edge":
        "overlap witness edge cases are exact",
    "geometry.cheeger-closed-form":
        "gaussian Cheeger quotients match the closed form",
    "geometry.cheeger-refinement":
        "Cheeger estimates are stable under grid refinement",
    "geometry.cheeger-decay":
        "adding ladder rungs strangles the Cheeger constant",
    "geometry.gluing-soundness":
        "the glued stability bound dominates the measured whole-domain "
        "constant",
    "geometry.gluing-formula":
        "the gluing combination is computed exactly from its inputs",
    "geometry.lambda-range":
        "connectivity quotients stay in (0, 1/2]",
    "geometry.neumann-gap":
        "the spectral gap of the unit square matches pi^2",
    "geometry.disconnected-inf":
        "disconnected domains report an infinite constant",
    "geometry.certificate-soundness":
        "the certificate bound dominates the measured phase distance",
    "geometry.log-derivative-vanishes":
        "the coupling term vanishes for a constant holomorphic part",
}


# ---------------------------------------------------------------------------
# re-checkable predicates over table columns
#
# Each check receives the table as a list of row dicts plus its args and
# returns a bool. Checks must be computable from the stored CSV alone, so
# verification never reruns the numerics. Empty tables fail every check.


def _col(rows, name):
    return [row[name] for row in rows]


def _check_col_le_col(rows, args):
    scale = args.get("scale", 1.0)
    return all(row[args["lhs"]] <= row[args["rhs"]] * scale for row in rows)


def _check_col_ge_col(rows, args):
    return all(row[args["lhs"]] >= row[args["rhs"]] for row in rows)


def _check_equals_col(rows, args):
    return all(row[args["lhs"]] == row[args["rhs"]] for row in rows)


def _check_equals_value(rows, args):
    return all(row[args["col"]] == args["value"] for row in rows)


def _check_approx_value(rows, args):
    return all(abs(row[args["col"]] - args["value"]) <= args["tol"]
               for row in rows)


def _check_all_le(rows, args):
    return all(v <= args["bound"] for v in _col(rows, args["col"]))


def _check_all_ge(rows, args):
    return all(v >= args["bound"] for v in _col(rows, args["col"]))


def _check_all_gt(rows, args):
    return all(v > args["bound"] for v in _col(rows, args["col"]))


def _check_max_lt(rows, args):
    return max(_col(rows, args["col"])) < args["bound"]


def _check_max_gt(rows, args):
    return max(_col(rows, args["col"])) > args["bound"]


def _check_all_inf(rows, args):
    return all(v == math.inf for v in _col(rows, args["col"]))


def _check_all_finite(rows, args):
    return all(math.isfinite(v) for v in _col(rows, args["col"]))


def _check_last_le_first_scaled(rows, args):
    vals = _col(rows, args["col"])
    return vals[-1] <= args["scale"] * vals[0]


def _check_geometric_decay(rows, args):
    vals = _col(rows, args["col"])
    return all(b <= args["factor"] * a for a, b in zip(vals, vals[1:]))


def _ratio_window(rows):
    """The verified window of a ratio ladder, as its rows: the longest run
    of consecutive non-degenerate rungs, ending at the top one, whose ratios
    clear their 2^n targets and strictly increase; None when the top rung
    fails. inf < inf is no increase, so only the top rung can saturate."""
    rs = sorted((r for r in rows if not r["degenerate"]), key=lambda r: r["n"])
    k = len(rs)
    while k and rs[k - 1]["ratio"] >= rs[k - 1]["target"] and (
            k == len(rs) or (rs[k - 1]["n"] + 1 == rs[k]["n"]
                             and rs[k - 1]["ratio"] < rs[k]["ratio"])):
        k -= 1
    return rs[k:] or None


def _check_ratio_window(rows, args):
    """The verified window exists, contains the rungs [lo, hi], equals the
    pin [a, b] and grows by the factor, for each of these args given; a jump
    from a finite ratio to a saturated one counts as growth."""
    win = _ratio_window(rows)
    if win is None:
        return False
    span = [win[0]["n"], win[-1]["n"]]
    lo, hi = args.get("contains", span)
    vals = _col(win, "ratio")
    return (span[0] <= lo and span[1] >= hi
            and list(args.get("pin", span)) == span
            and all(b >= args.get("growth", 0.0) * a
                    or (math.isinf(b) and not math.isinf(a))
                    for a, b in zip(vals, vals[1:])))


def _check_gluing_formula(rows, args):
    return all(row[args["bound"]]
               == gluing_bound(row[args["c_a"]], row[args["c_b"]],
                               row[args["lam"]])
               for row in rows)


CHECKS = {
    "col_le_col": _check_col_le_col,
    "col_ge_col": _check_col_ge_col,
    "equals_col": _check_equals_col,
    "equals_value": _check_equals_value,
    "approx_value": _check_approx_value,
    "all_le": _check_all_le,
    "all_ge": _check_all_ge,
    "all_gt": _check_all_gt,
    "max_lt": _check_max_lt,
    "max_gt": _check_max_gt,
    "all_inf": _check_all_inf,
    "all_finite": _check_all_finite,
    "geometric_decay": _check_geometric_decay,
    "last_le_first_scaled": _check_last_le_first_scaled,
    "gluing_formula": _check_gluing_formula,
    "ratio_window": _check_ratio_window,
}


def _assertion(invariant: str, description: str, table: str, check: str,
               args: dict, hard: bool = True) -> dict:
    if invariant not in INVARIANTS:
        raise KeyError(f"unknown invariant id {invariant!r}")
    if check not in CHECKS:
        raise KeyError(f"unknown check {check!r}")
    return {"invariant": invariant, "description": description,
            "table": table, "check": check, "args": args, "hard": hard}


def _evaluate(tables: dict, spec: dict) -> bool:
    header, rows = tables[spec["table"]]
    dicts = [dict(zip(header, row)) for row in rows]
    if not dicts:
        return False
    return bool(CHECKS[spec["check"]](dicts, spec["args"]))


# ---------------------------------------------------------------------------
# manifests and results


@dataclass(frozen=True)
class ExperimentManifest:
    """Complete description of one run: everything the runner may read.

    The same (id, fixture, params, seed) always produces byte-identical
    tables; out_dir only controls where they land.
    """

    id: str
    fixture: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    seed: int = 0
    out_dir: str | None = None


@dataclass
class ExperimentResult:
    manifest: ExperimentManifest
    tables: dict
    assertions: list
    summary: dict
    passed: bool
    wallclock: float

    def summary_dict(self) -> dict:
        return {
            "id": self.manifest.id,
            "manifest": asdict(self.manifest),
            "passed": self.passed,
            "wallclock_s": self.wallclock,
            "tables": list(self.tables),
            "assertions": self.assertions,
            "summary": self.summary,
        }


# ---------------------------------------------------------------------------
# canonical CSV


def _fmt_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    s = str(v)
    if "," in s or "\n" in s:
        raise ValueError(f"cell value {s!r} needs quoting; use plain tokens")
    return s


def _csv_text(header: list, rows: list) -> str:
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError("row width does not match header")
        lines.append(",".join(_fmt_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _parse_cell(s: str):
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        return s


def _read_csv(path: Path) -> tuple:
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file, no header")
    header = lines[0].split(",")
    rows = [[_parse_cell(c) for c in line.split(",")] for line in lines[1:]]
    short = [i for i, row in enumerate(rows, 2) if len(row) != len(header)]
    if short:
        raise ValueError(f"{path}: line {short[0]} does not have the "
                         f"header's {len(header)} cells")
    return header, rows


def write_result(result: ExperimentResult, out_dir: str | Path) -> list:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, (header, rows) in result.tables.items():
        p = out / f"{name}.csv"
        p.write_text(_csv_text(header, rows))
        written.append(p)
    p = out / "summary.json"
    p.write_text(json.dumps(result.summary_dict(), indent=2) + "\n")
    written.append(p)
    return written


# the columns that a check reads besides the ones its string args name
_CHECK_COLUMNS = {"ratio_window": ("n", "ratio", "target", "degenerate")}


def verify_run(out_dir: str | Path) -> dict:
    """Re-evaluate a stored run's assertions from its CSV files.

    Returns per-assertion stored vs rechecked verdicts; ok means every
    recheck reproduced the stored verdict and every hard assertion holds.
    A run that cannot be rechecked raises ValueError naming the file and
    the key or column: a summary that is not JSON, a summary or an assertion
    without one of its keys, tables that are not a list of plain file names
    (no path separator, not "", "." or ".."), args that are not an object,
    hard or passed that is not a boolean, an unknown check or table, or a
    column that it reads (each string arg names one) missing or holding a
    cell that is not a number.
    """
    out = Path(out_dir)
    path = out / "summary.json"
    try:
        summary = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: not JSON: {e}") from None
    if not (isinstance(summary, dict)
            and {"id", "tables", "assertions"} <= summary.keys()):
        raise ValueError(f"{path}: not an object with the keys 'id', "
                         "'tables' and 'assertions'")
    if not isinstance(summary["tables"], list):
        raise ValueError(f"{path}: 'tables' is not a list")
    for name in summary["tables"]:
        if (not isinstance(name, str) or name in ("", ".", "..")
                or any(c in name for c in "/\\\0")):
            raise ValueError(f"{path}: table {name!r} is not a plain file "
                             "name")
    tables = {name: _read_csv(out / f"{name}.csv")
              for name in summary["tables"]}
    report = {"id": summary["id"], "ok": True, "assertions": []}
    for spec in summary["assertions"]:
        for key in ("invariant", "check", "table", "args", "hard", "passed"):
            if key not in spec:
                raise ValueError(f"{path}: an assertion has no key {key!r}")
        if not isinstance(spec["args"], dict):
            raise ValueError(f"{path}: 'args' is not an object")
        for key in ("hard", "passed"):
            if not isinstance(spec[key], bool):
                raise ValueError(f"{path}: {key!r} is not a boolean")
        for key, known in (("check", CHECKS), ("table", tables)):
            if spec[key] not in known:
                raise ValueError(f"{path}: unknown {key} {spec[key]!r}")
        header, rows = tables[spec["table"]]
        named = {v for v in spec["args"].values() if isinstance(v, str)}
        for name in sorted(named | set(_CHECK_COLUMNS.get(spec["check"], ()))):
            if name not in header or not all(
                    isinstance(row[header.index(name)], (int, float))
                    for row in rows):
                raise ValueError(f"{out / spec['table']}.csv: column "
                                 f"{name!r} is missing or not all numbers")
        recheck = _evaluate(tables, spec)
        entry = {"invariant": spec["invariant"], "check": spec["check"],
                 "hard": spec["hard"], "stored": spec["passed"],
                 "recheck": recheck}
        if recheck != spec["passed"] or (spec["hard"] and not recheck):
            report["ok"] = False
        report["assertions"].append(entry)
    return report


# ---------------------------------------------------------------------------
# shared fixture helpers


def _grid(fx: dict):
    return make_grid(float(fx["length"]), int(fx["count"]))


def _require_square(grid, what: str) -> None:
    if not grid.is_self_dual:
        raise ValueError(
            f"infeasible grid for {what}: needs length^2 == count, got "
            f"length {grid.length:g} with {grid.count} samples")


def _smooth_signal(grid, rng: SplitMix64, kmax: int, decay: float) -> Signal:
    """Random trigonometric polynomial with geometrically damped modes."""
    x = grid.points()
    vals = np.zeros(grid.count, dtype=np.complex128)
    # one (re, im) pair per mode; each part is divided on its own, since a
    # complex-by-real array division would multiply by the reciprocal
    pairs = rng.normals(2 * (2 * kmax + 1))
    re, im = pairs[0::2] / math.sqrt(2.0), pairs[1::2] / math.sqrt(2.0)
    for k, a, b in zip(range(-kmax, kmax + 1), re, im):
        c = complex(a, b) * math.exp(-decay * abs(k))
        vals += c * np.exp(2j * np.pi * k * x / grid.length)
    return Signal(grid, vals)


def _named_signal(name: str, grid, rng: SplitMix64) -> Signal:
    if name == "random":
        return random(grid, rng)
    return parse_window(name).build(grid)


def _l2(obj) -> float:
    return riemann_lp(obj.values, obj.space.cell, 2.0)


# ---------------------------------------------------------------------------
# runners
#
# Each runner returns (tables, assertion_specs, summary_extra). Tables map
# name -> (header, rows). Assertion specs are dicts from _assertion.


def _run_isometry(manifest, fx, pr):
    grid = _grid(fx)
    rng = SplitMix64(manifest.seed)
    tol = pr["tol"]
    rows = []
    for t in range(pr["trials"]):
        f = random(grid, rng.spawn(t + 1))
        nf = _l2(f)
        nv = _l2(stft(f))
        rows.append([t, nf, nv, abs(nv - nf) / nf, tol])
    tables = {"isometry": (["trial", "signal_l2", "field_l2", "residual",
                            "tol"], rows)}
    specs = [_assertion(
        "transforms.isometry",
        f"relative L2 defect below {tol:g} on {pr['trials']} random signals",
        "isometry", "col_le_col", {"lhs": "residual", "rhs": "tol"})]
    return tables, specs, {}


def _run_covariance(manifest, fx, pr):
    grid = _grid(fx)
    f = random(grid, SplitMix64(manifest.seed))
    span, stride, tol = pr["span"], pr["stride"], pr["tol"]
    rows = []
    for wname in fx["windows"]:
        w = parse_window(wname)
        for k in range(-span, span + 1):
            for l in range(-span, span + 1):
                u = k * stride * grid.dx
                eta = l * stride * grid.dxi
                rows.append([wname, k, l, u, eta,
                             covariance_residual(f, w, u, eta), tol])
    tables = {"covariance": (["window", "k", "l", "u", "eta", "residual",
                              "tol"], rows)}
    specs = [_assertion(
        "transforms.covariance",
        f"shift defect below {tol:g} on a {2*span+1}x{2*span+1} lattice",
        "covariance", "col_le_col", {"lhs": "residual", "rhs": "tol"})]
    return tables, specs, {}


def _run_ambiguity(manifest, fx, pr):
    grid = _grid(fx)
    _require_square(grid, "the ambiguity relation")
    rng = SplitMix64(manifest.seed)
    tol = pr["tol"]
    rows = []
    for si, sname in enumerate(fx["signals"]):
        f = _named_signal(sname, grid, rng.spawn(si + 1))
        if sname == "random":
            f = Signal(grid, f.values / _l2(f))
        for wname in fx["windows"]:
            res = ambiguity_relation_residual(f, parse_window(wname))
            rows.append([sname, wname, res, tol])
    tables = {"relation": (["signal", "window", "residual", "tol"], rows)}
    specs = [_assertion(
        "transforms.ambiguity-relation",
        f"spectrum-side residual below {tol:g} for every signal/window pair",
        "relation", "col_le_col", {"lhs": "residual", "rhs": "tol"})]
    return tables, specs, {}


def _recovery_rows(grid, signals, window, noise=None, threshold=None):
    rows = []
    for sname in signals:
        f = parse_window(sname).build(grid)
        m = phaseless(f, window)
        if noise is not None:
            m = noise(m, sname)
        rec = recover(m, window, threshold=threshold)
        err = phase_inf_distance(rec.signal, f).distance
        rows.append([sname, err / _l2(f), rec.masked_fraction,
                     rec.threshold])
    return rows


def _run_recover_noiseless(manifest, fx, pr):
    grid = _grid(fx)
    _require_square(grid, "recovery")
    w = parse_window(fx["window"])
    tol = pr["tol"]
    rows = [r + [tol] for r in _recovery_rows(grid, fx["signals"], w)]
    tables = {"recovery": (["signal", "rel_error", "masked_fraction",
                            "threshold", "tol"], rows)}
    specs = [_assertion(
        "transforms.recovery",
        f"phase-aligned relative error below {tol:g} without noise",
        "recovery", "col_le_col", {"lhs": "rel_error", "rhs": "tol"})]
    return tables, specs, {}


def _run_recover_noisy(manifest, fx, pr):
    grid = _grid(fx)
    _require_square(grid, "recovery")
    w = parse_window(fx["window"])
    tol, snr = pr["tol"], pr["snr_db"]
    rng = SplitMix64(manifest.seed)
    # noise passes through the masked division, so the mask must sit above
    # the amplified noise floor; the clean default would flip the peak sign
    wsig = w.build(grid)
    origin = grid.count // 2
    peak = abs(ambiguity(wsig).values[origin, origin])
    threshold = pr["tau_scale"] * peak
    rows = []
    for trial in range(pr["trials"]):
        def noisy(m, sname, _t=trial):
            stream = rng.spawn(1000 * _t + sum(map(ord, sname)))
            sigma = math.sqrt(float(np.mean(np.abs(m.values) ** 2)))
            sigma *= 10.0 ** (-snr / 20.0)
            noise = sigma * stream.normals(m.values.size)
            vals = np.maximum(m.values.real + noise.reshape(m.values.shape),
                              0.0)
            return TFField(m.tfgrid, vals.astype(np.complex128))

        for r in _recovery_rows(grid, fx["signals"], w, noise=noisy,
                                threshold=threshold):
            rows.append([trial] + r + [tol])
    tables = {"recovery_noisy": (["trial", "signal", "rel_error",
                                  "masked_fraction", "threshold", "tol"],
                                 rows)}
    specs = [_assertion(
        "transforms.recovery-noisy",
        f"phase-aligned relative error below {tol:g} at {snr:g} dB "
        "(report only)",
        "recovery_noisy", "col_le_col", {"lhs": "rel_error", "rhs": "tol"},
        hard=False)]
    return tables, specs, {"snr_db": snr}


def _ladder_schedule(fx, pr, sigma):
    """The annulus ladder of the gaussian seed."""
    return select_annulus_schedule(gaussian(_grid(fx)), sigma, pr["p"],
                                   pr["q"], n_max=pr["n_max"])


def _run_gaussian_ratio(manifest, fx, pr):
    sched = _ladder_schedule(fx, pr, fx["sigma"])
    p, q, delta = pr["p"], pr["q"], pr["delta"]
    den = XpSigmaNorm(p, fx["sigma"])
    results = []
    dich_rows = []
    for n in range(pr["n_max"]):
        pair = assemble_pair(sched, delta, n)
        results.append(instability_ratio(pair, q, den))
        d = dichotomy_check(pair, sched)
        dich_rows.append([n, d["min_far_distance"], d["floor"]])
    ratio_header = ["n", "j", "ratio", "target", "saturated", "degenerate"]
    ratio_rows = [[r.n, sched.radii[r.n], r.ratio, r.target,
                   int(r.saturated), int(r.degenerate)] for r in results]
    win = _ratio_window([dict(zip(ratio_header, r)) for r in ratio_rows])
    growth = pr["growth"]
    tables = {
        "ratios": (ratio_header, ratio_rows),
        "dichotomy": (["n", "min_far_distance", "floor"], dich_rows),
    }
    specs = [
        _assertion("forge.ratio-growth",
                   "the verified window (rungs clearing 2^n with increasing "
                   "ratios) covers the required rungs",
                   "ratios", "ratio_window",
                   {"contains": pr["window_contains"]}),
        _assertion("forge.ratio-growth",
                   f"consecutive window ratios grow by at least {growth:g}",
                   "ratios", "ratio_window", {"growth": growth}),
        _assertion("forge.window-pin",
                   "the verified window matches the pinned regression value",
                   "ratios", "ratio_window", {"pin": pr["window_pin"]}),
        _assertion("forge.far-phase-floor",
                   "the far-phase floor is positive",
                   "dichotomy", "all_gt", {"col": "floor", "bound": 0.0}),
        _assertion("forge.far-phase-floor",
                   "the far-phase distance respects the floor",
                   "dichotomy", "col_ge_col",
                   {"lhs": "min_far_distance", "rhs": "floor"}),
    ]
    extra = {"ladder": [float(j) for j in sched.radii], "delta": delta,
             "window": [win[0]["n"], win[-1]["n"]] if win else [-1, -1]}
    return tables, specs, extra


def _run_bump_bounds(manifest, fx, pr):
    bound_rows, slope_rows = [], []
    for sigma in fx["sigmas"]:
        report = verify_bump_bounds(_ladder_schedule(fx, pr, sigma))
        for r in report.rows:
            bound_rows.append([sigma, r.n, r.j, r.gub_lp_ratio,
                               r.gub_x_scaled, r.mcb_product, r.mtb_ratio,
                               r.sob_ratio, report.c_impl])
        for step, slope in enumerate(report.mtb_slopes()):
            slope_rows.append([sigma, step, slope, pr["slope_cap"]])
    tables = {
        "bounds": (["sigma", "n", "j", "gub_lp_ratio", "gub_x_scaled",
                    "mcb_product", "mtb_ratio", "sob_ratio", "c_impl"],
                   bound_rows),
        "slopes": (["sigma", "step", "slope", "cap"], slope_rows),
    }
    specs = [
        _assertion("forge.bump-estimates",
                   "translation invariance of the bump mass is exact to "
                   "1e-10", "bounds", "approx_value",
                   {"col": "gub_lp_ratio", "value": 1.0, "tol": 1e-10}),
        # the unit-ball mass is the extreme case of the annulus mass, so
        # equality is attained by design; guard the last ulp of rounding
        _assertion("forge.bump-estimates",
                   "the unit-ball mass product stays above 1",
                   "bounds", "all_ge",
                   {"col": "mcb_product", "bound": 1.0 - 1e-9}),
        _assertion("forge.bump-estimates",
                   "weighted bump mass respects the implementation constant",
                   "bounds", "col_le_col",
                   {"lhs": "gub_x_scaled", "rhs": "c_impl"}),
        _assertion("forge.bump-estimates",
                   "tail masses respect the implementation constant",
                   "bounds", "col_le_col",
                   {"lhs": "mtb_ratio", "rhs": "c_impl"}),
        _assertion("forge.bump-estimates",
                   "Sobolev masses respect the implementation constant",
                   "bounds", "col_le_col",
                   {"lhs": "sob_ratio", "rhs": "c_impl"}),
        _assertion("forge.tail-decay",
                   f"tail masses decay by at least {-pr['slope_cap']:g} "
                   "octaves per rung", "slopes", "col_le_col",
                   {"lhs": "slope", "rhs": "cap"}),
    ]
    return tables, specs, {}


def _run_sobolev_ratio(manifest, fx, pr):
    grid = _grid(fx)
    spec = NormSpec(s=pr["s"], p=pr["p"], r=pr["r"], q=pr["q"])
    w = parse_window(fx["window"])
    f = parse_window(fx["signal"]).build(grid)
    fam = stft_instability_family(f, w, pr["closeness"], spec,
                                  pr["n_max"], pr["delta"])
    ratio_rows, am, members = _sobolev_ratio_rows(fam, w, pr)
    tables = {
        "ratios": (["k", "a", "scale", "ratio", "target", "saturated",
                    "degenerate"], ratio_rows),
        "closeness": (["closeness", "cap"],
                      [[fam.closeness, pr["closeness"]]]),
        "band_split": _band_split_table(am, members, pr),
    }
    specs = [
        _assertion("forge.sobolev-ratio",
                   "every transform-side rung clears its 2^k target",
                   "ratios", "col_ge_col", {"lhs": "ratio", "rhs": "target"}),
        _assertion("forge.family-closeness",
                   "the perturbed transform stays inside the closeness "
                   "budget", "closeness", "col_le_col",
                   {"lhs": "closeness", "rhs": "cap"}),
        _assertion("norms.band-split",
                   "band-split constants stay under the pinned cap",
                   "band_split", "col_le_col",
                   {"lhs": "constant_needed", "rhs": "cap"}),
    ]
    extra = {"delta": fam.delta, "ladder": [float(a) for a in fam.ladder]}
    return tables, specs, extra


class _KeptDerivative(SobolevNorm):
    """SobolevNorm(s, p, r) that keeps ||<D>^s D||_p, the derivative term
    of the field it measured last, as `derivative`."""

    def __call__(self, obj) -> float:
        low, self.derivative = itertools.starmap(riemann_lp, self._terms(obj))
        return float(low + self.derivative)


def _sobolev_ratio_rows(fam, window, pr):
    """Transform each member once: the ratio rows against V perturbed, then
    |V perturbed| and the (label, modulus) members of the band split.

    The rung-k denominator and the band split both take ||<D>^s D_k||_p of
    D_k = |V perturbed| - |V flipped[k]|; the denominator keeps it, and the
    flip member carries it to lp_reduction_rows as a third entry."""
    den = _KeptDerivative(pr["s"], pr["p"], pr["r"])
    va = stft(fam.perturbed, window)
    rows = []
    members = [("base", modulus(stft(fam.base, window)))]
    for k in range(pr["n_max"]):
        vb = stft(fam.flipped[k], window)
        res = field_instability_ratio(va, vb, k, pr["q"], den)
        rows.append([k, fam.ladder[k], fam.scales[k], res.ratio, res.target,
                     int(res.saturated), int(res.degenerate)])
        members.append((f"flip{k}", modulus(vb), den.derivative))
    return rows, modulus(va), members


def _band_split_table(am, members, pr):
    """The band-split table of the (label, modulus) members against am."""
    header = ["pair", "j", "lhs", "low_term", "high_term", "constant_needed"]
    rows = [[row[h] for h in header] + [pr["lp_cap"]]
            for row in lp_reduction_rows(am, members, pr["s"], pr["p"])]
    return header + ["cap"], rows


def _run_lp_reduction(manifest, fx, pr):
    grid = _grid(fx)
    w = parse_window(fx["window"])
    base = gaussian(grid)
    others = [
        ("hermite1", hermite(grid, 1)),
        ("hermite2", hermite(grid, 2)),
        ("shifted", translate(base, pr["shift"])),
        ("modulated", modulate(base, pr["modulation"])),
    ]
    members = [(label, modulus(stft(sig, w))) for label, sig in others]
    tables = {"band_split": _band_split_table(modulus(stft(base, w)),
                                              members, pr)}
    specs = [_assertion(
        "norms.band-split",
        "band-split constants stay under the pinned cap on modulus pairs",
        "band_split", "col_le_col", {"lhs": "constant_needed", "rhs": "cap"})]
    return tables, specs, {}


def _gaussian_density(tg: TFGrid, rate: float) -> TFField:
    rr = tg.xmesh() ** 2 + tg.wmesh() ** 2
    return TFField(tg, np.exp(-rate * rr).astype(np.complex128))


def _run_cheeger_gaussian(manifest, fx, pr):
    sweep = pr["sweep"]
    value_rows, drift_rows = [], []
    densities = [("half_rate", 0.5 * math.pi, math.sqrt(2.0)),
                 ("unit_rate", math.pi, 2.0)]
    for label, rate, target in densities:
        values = []
        for count in fx["counts"]:
            g = make_grid(fx["length"], count)
            tg = TFGrid(g, g)
            rep = cheeger_estimate(_gaussian_density(tg, rate), **sweep)
            rel = abs(rep.value - target) / target
            value_rows.append([label, count, rep.value, target, rel,
                               pr["rel_tol"], rep.family])
            values.append(rep.value)
        drift = abs(values[-1] - values[0]) / values[-1]
        drift_rows.append([label, values[0], values[-1], drift,
                           pr["drift_tol"]])
    tables = {
        "closed_form": (["density", "count", "value", "target", "rel_err",
                         "tol", "family"], value_rows),
        "refinement": (["density", "coarse", "fine", "drift", "tol"],
                       drift_rows),
    }
    specs = [
        _assertion("geometry.cheeger-closed-form",
                   "estimates land within tolerance of 2*sqrt(rate/pi)",
                   "closed_form", "col_le_col",
                   {"lhs": "rel_err", "rhs": "tol"}),
        _assertion("geometry.cheeger-refinement",
                   "doubling the grid moves the estimate less than the "
                   "drift tolerance", "refinement", "col_le_col",
                   {"lhs": "drift", "rhs": "tol"}),
        _assertion("geometry.cheeger-closed-form",
                   "estimates are finite and positive",
                   "closed_form", "all_gt", {"col": "value", "bound": 0.0}),
    ]
    return tables, specs, {}


def _run_cheeger_trend(manifest, fx, pr):
    sched = _ladder_schedule(fx, pr, fx["sigma"])
    delta = pr["delta"]
    sweep = pr["sweep"]
    rows = []
    for n in range(pr["n_max"] + 1):
        W = modulus(stft(assemble_pair(sched, delta, n).core))
        rep = cheeger_estimate(W, **sweep)
        rows.append([n, rep.value, rep.family])
    tables = {"trend": (["n", "value", "family"], rows)}
    specs = [
        _assertion("geometry.cheeger-decay",
                   "the Cheeger value never increases along the ladder",
                   "trend", "geometric_decay",
                   {"col": "value", "factor": 1.0}),
        _assertion("geometry.cheeger-decay",
                   f"the last rung sits at most {pr['drop']:g} of the first",
                   "trend", "last_le_first_scaled",
                   {"col": "value", "scale": pr["drop"]}),
    ]
    return tables, specs, {"ladder": [float(j) for j in sched.radii]}


_GLUE_TRIPLES = [
    ("disk", 2.5, "x", 0.5), ("disk", 2.5, "x", 1.0),
    ("disk", 2.5, "w", 0.5), ("disk", 2.5, "w", 1.0),
    ("disk", 3.0, "x", 0.5), ("disk", 3.0, "x", 1.0),
    ("disk", 3.0, "w", 0.5), ("disk", 3.0, "w", 1.0),
    ("disk", 3.5, "x", 1.0), ("disk", 3.5, "w", 1.0),
]


def _half_masks(tg: TFGrid, omega: DomainMask, axis: str, overlap: float):
    proj = tg.xmesh() if axis == "x" else tg.wmesh()
    lo = omega.inside & (proj <= overlap)
    hi = omega.inside & (proj >= -overlap)
    return DomainMask(tg, lo), DomainMask(tg, hi)


def _stability_lower_bound(vf, adversaries, mask):
    """The largest d(V f, V g) / ||h||_2, both on the region, over the
    (V g, h = H1 magnitude of |V f| - |V g|) pairs."""
    best = 0.0
    vf_on = vf.restrict(mask.inside)
    for vg, h1 in adversaries:
        num = phase_inf_distance(vf_on, vg.restrict(mask.inside)).distance
        den = _l2(h1.restrict(mask.inside))
        if den > 0.0:
            best = max(best, num / den)
    return best


def _run_gluing(manifest, fx, pr):
    grid = _grid(fx)
    w = parse_window(fx["window"])
    f = parse_window(fx["signal"]).build(grid)
    vf = stft(f, w)
    tg = vf.tfgrid
    rng = SplitMix64(manifest.seed)
    adversaries = [
        Signal(grid, f.values + 0.05 * hermite(grid, k).values)
        for k in (1, 2, 3)
    ]
    adversaries.append(gaussian(grid, center=pr["shift"]))
    rough = _smooth_signal(grid, rng.spawn(99), kmax=8, decay=0.35)
    rough_scale = 0.05 / _l2(rough)
    adversaries.append(Signal(grid, f.values + rough_scale * rough.values))
    # neither member depends on the region, so each is taken once
    pairs = [(vg, h1_magnitude(modulus_difference(vf, vg), pr["r"]))
             for vg in (stft(g, w) for g in adversaries)]
    tol = pr["slack_tol"]
    rows = []
    for idx, (family, radius, axis, overlap) in enumerate(_GLUE_TRIPLES):
        omega = DomainMask.disk(tg, 0j, radius)
        a, b = _half_masks(tg, omega, axis, overlap)
        c_omega = _stability_lower_bound(vf, pairs, omega)
        c_a = _stability_lower_bound(vf, pairs, a)
        c_b = _stability_lower_bound(vf, pairs, b)
        lam = connectivity(vf, a, b)
        bound = gluing_bound(c_a, c_b, lam)
        rows.append([idx, family, radius, axis, overlap, c_omega, c_a, c_b,
                     lam, bound, tol])
    tables = {"triples": (["idx", "family", "radius", "axis", "overlap",
                           "c_omega_lb", "c_a_lb", "c_b_lb", "lambda",
                           "bound", "slack_tol"], rows)}
    specs = [
        _assertion("geometry.gluing-soundness",
                   "the measured whole-domain constant never exceeds the "
                   "glued bound", "triples", "col_le_col",
                   {"lhs": "c_omega_lb", "rhs": "bound",
                    "scale": 1.0 + tol}),
        _assertion("geometry.gluing-formula",
                   "the stored bound equals the combination of its inputs",
                   "triples", "gluing_formula",
                   {"c_a": "c_a_lb", "c_b": "c_b_lb", "lam": "lambda",
                    "bound": "bound"}),
        _assertion("geometry.lambda-range",
                   "connectivity quotients are positive",
                   "triples", "all_ge", {"col": "lambda", "bound": 0.0}),
        _assertion("geometry.lambda-range",
                   "connectivity quotients stay at or below one half",
                   "triples", "all_le", {"col": "lambda", "bound": 0.5}),
    ]
    return tables, specs, {}


def _run_poincare_square(manifest, fx, pr):
    grid = _grid(fx)
    tg = TFGrid(grid, grid)
    h = grid.dx
    side = pr["cells"] * h
    mask = DomainMask.rectangle(tg, 0.0, side - h / 2, 0.0, side - h / 2)
    c, rep = poincare_constant(mask)
    target = math.pi ** 2 / side ** 2
    square_rows = [[mask.cell_count, pr["cells"] ** 2, rep["mu1"], target,
                    abs(rep["mu1"] - target) / target, pr["rel_tol"]]]
    left = DomainMask.rectangle(tg, 0.0, 1.0, 0.0, 1.0)
    right = DomainMask.rectangle(tg, 3.0, 4.0, 0.0, 1.0)
    split = DomainMask(tg, left.inside | right.inside)
    c2, rep2 = poincare_constant(split)
    disc_rows = [[c2, rep2["mu1"]]]
    tables = {
        "square": (["cells", "expected_cells", "mu1", "target", "rel_err",
                    "tol"], square_rows),
        "disconnected": (["constant", "mu1"], disc_rows),
    }
    specs = [
        _assertion("geometry.neumann-gap",
                   "the unit-square spectral gap lands within tolerance of "
                   "pi^2", "square", "col_le_col",
                   {"lhs": "rel_err", "rhs": "tol"}),
        _assertion("geometry.neumann-gap",
                   "the mask resolves the intended lattice exactly",
                   "square", "equals_col",
                   {"lhs": "cells", "rhs": "expected_cells"}),
        _assertion("geometry.disconnected-inf",
                   "a split domain reports an infinite constant",
                   "disconnected", "all_inf", {"col": "constant"}),
    ]
    return tables, specs, {"constant": c, "side": side}


def _run_certificate(manifest, fx, pr):
    grid = _grid(fx)
    _require_square(grid, "polynomial certificates")
    tg = tf_grid_of(grid)
    mask = DomainMask.disk(tg, 0j, pr["disk_radius"])
    rng = SplitMix64(manifest.seed)
    lo, hi = pr["pert_range"]

    def draw(r):
        # two or three roots each; isolated single roots sit right at the
        # edge of what the unit-constant bound covers, so they live in the
        # stress table below instead of the asserted family
        n_roots = 2 + r.next_u64() % 2
        roots, pert = [], []
        for _ in range(n_roots):
            root = complex(3.0 * r.uniform() - 1.5, 3.0 * r.uniform() - 1.5)
            mag = lo + (hi - lo) * r.uniform()
            ang = 2.0 * math.pi * r.uniform()
            roots.append(root)
            pert.append(root + mag * complex(math.cos(ang), math.sin(ang)))
        return roots, pert

    rows = []
    for i in range(pr["fixtures"]):
        roots, pert = draw(rng.spawn(i + 1))
        f1, _ = fock_polynomial_field(roots, tg)
        f2, _ = fock_polynomial_field(pert, tg)
        cert = stability_certificate(f1, f2, mask,
                                     excise_cells=pr["excise_cells"])
        rows.append([i, len(roots), cert.t1, cert.t2, cert.t3,
                     cert.poincare, cert.distance, cert.bound,
                     cert.excised_cells])
    f1, _ = fock_polynomial_field([], tg)
    f2, _ = fock_polynomial_field([0.3 + 0.2j], tg)
    cert = stability_certificate(f1, f2, mask,
                                 excise_cells=pr["excise_cells"])
    const_rows = [[cert.t1, cert.t2, cert.t3, pr["t3_rel_cap"] * cert.t1]]
    # display only: single-root pairs are the marginal case for the
    # unit-constant bound, and the slack column records where it dips
    # below parity as the perturbation grows
    stress_rows = []
    for i, mag in enumerate(pr["stress_magnitudes"]):
        r = rng.spawn(10_000 + i)
        root = complex(3.0 * r.uniform() - 1.5, 3.0 * r.uniform() - 1.5)
        ang = 2.0 * math.pi * r.uniform()
        f1, _ = fock_polynomial_field([root], tg)
        f2, _ = fock_polynomial_field(
            [root + mag * complex(math.cos(ang), math.sin(ang))], tg)
        cert = stability_certificate(f1, f2, mask,
                                     excise_cells=pr["excise_cells"])
        stress_rows.append([mag, cert.distance, cert.bound,
                            cert.bound / cert.distance
                            if cert.distance > 0 else float("inf")])
    tables = {
        "certificates": (["idx", "n_roots", "t1", "t2", "t3", "poincare",
                          "distance", "bound", "excised"], rows),
        "constant_field": (["t1", "t2", "t3", "t3_cap"], const_rows),
        "stress": (["pert", "distance", "bound", "slack"], stress_rows),
    }
    specs = [
        _assertion("geometry.certificate-soundness",
                   "the bound dominates the measured distance on every "
                   "fixture", "certificates", "col_ge_col",
                   {"lhs": "bound", "rhs": "distance"}),
        _assertion("geometry.log-derivative-vanishes",
                   "the coupling term is machine zero for a constant "
                   "holomorphic part", "constant_field", "col_le_col",
                   {"lhs": "t3", "rhs": "t3_cap"}),
    ]
    slack = min(r[7] / r[6] for r in rows if r[6] > 0)
    stress_slack = min(r[3] for r in stress_rows)
    return tables, specs, {"min_slack": slack,
                           "stress_min_slack": stress_slack}


def _run_modulus_threshold(manifest, fx, pr):
    grid = _grid(fx)
    rng = SplitMix64(manifest.seed)
    s_lo, s_hi = pr["s_below"], pr["s_above"]
    cap = pr["contraction_cap"]
    random_rows = []
    for i in range(pr["fields"]):
        sig = _smooth_signal(grid, rng.spawn(i + 1), pr["kmax"],
                             pr["decay"])
        random_rows.append([i, modulus_sobolev_ratio(sig, s_lo, pr["p"]),
                            cap])
    below_rows, above_rows = [], []
    for m in pr["crease_modes"]:
        x = grid.points()
        crease = Signal(grid, np.sin(2.0 * np.pi * m * x / grid.length)
                        .astype(np.complex128))
        below_rows.append([m, modulus_sobolev_ratio(crease, s_lo, pr["p"])])
        above_rows.append([m, modulus_sobolev_ratio(crease, s_hi, pr["p"]),
                           cap])
    tables = {
        "random_fields": (["idx", "ratio", "cap"], random_rows),
        "crease_below": (["m", "ratio"], below_rows),
        "crease_above": (["m", "ratio", "floor"], above_rows),
    }
    specs = [
        _assertion("norms.modulus-contraction",
                   f"smooth-field modulus ratios stay under {cap:g} at "
                   f"s = {s_lo:g}", "random_fields", "max_lt",
                   {"col": "ratio", "bound": cap}),
        _assertion("norms.modulus-threshold-sharp",
                   f"the crease family exceeds {cap:g} at s = {s_hi:g}",
                   "crease_above", "max_gt", {"col": "ratio", "bound": cap}),
    ]
    return tables, specs, {}


def _run_disjointness(manifest, fx, pr):
    sched = _ladder_schedule(fx, pr, fx["sigma"])
    delta, c_link = pr["delta"], pr["c_link"]
    rows, gapless_rows = [], []
    # the witness regime needs an annulus gap between core and tail; at
    # n = 0 the tail starts right at the seed's bulk, so that rung is
    # reported but not held to the geometric cap
    for n in range(pr["n_max"]):
        pair = assemble_pair(sched, delta, n)
        rho = disjointness_witness(pair.k, pair.core, pair.tail)
        if n == 0:
            gapless_rows.append([n, rho])
        else:
            rows.append([n, rho, c_link * 4.0 ** (-n)])
    grid = sched.seed.grid
    g = gaussian(grid)
    half = grid.points() < 0.0
    left, right = g.restrict(half), g.restrict(~half)
    # case labels name the contract in the disjointness_witness docstring
    edge_rows = [
        ["disjoint",
         disjointness_witness(Signal(grid, left.values + right.values),
                              left, right), 0.0],
        ["identical",
         disjointness_witness(Signal(grid, 2.0 * g.values), g, g), 1.0],
    ]
    tables = {
        "decay": (["n", "rho", "cap"], rows),
        "gapless": (["n", "rho"], gapless_rows),
        "edges": (["case", "rho", "expected"], edge_rows),
    }
    specs = [
        _assertion("norms.disjointness-decay",
                   f"witnesses stay under {c_link:g} * 4^-n from the first "
                   "gapped rung", "decay", "col_le_col",
                   {"lhs": "rho", "rhs": "cap"}),
        _assertion("norms.disjointness-decay",
                   "witnesses decay at least geometrically rung to rung",
                   "decay", "geometric_decay",
                   {"col": "rho", "factor": 0.25}),
        _assertion("norms.disjointness-edge",
                   "disjoint parts give exactly 0 and identical parts "
                   "exactly 1", "edges", "equals_col",
                   {"lhs": "rho", "rhs": "expected"}),
    ]
    return tables, specs, {"ladder": [float(j) for j in sched.radii]}


def _run_window_ratio(manifest, fx, pr):
    grid = _grid(fx)
    _require_square(grid, "window comparison")
    tg = tf_grid_of(grid)
    bracket_max = float(japanese_bracket(tg.radius()).max())
    same = window_comparison_ratio(parse_window("gaussian"),
                                   parse_window("gaussian"), grid)
    ident_rows = [["gaussian", "gaussian", same.sup, bracket_max,
                   same.n_zeros]]
    bounded = window_comparison_ratio(parse_window(fx["other"]),
                                      parse_window("gaussian"), grid)
    bounded_rows = [[fx["other"], "gaussian", bounded.sup,
                     pr["bounded_cap"], bounded.n_zeros]]
    flagged = window_comparison_ratio(parse_window("gaussian"),
                                      parse_window(fx["other"]), grid)
    flagged_rows = [["gaussian", fx["other"], flagged.sup,
                     flagged.n_zeros]]
    tables = {
        "identical": (["phi", "big_phi", "sup", "expected", "n_zeros"],
                      ident_rows),
        "bounded": (["phi", "big_phi", "sup", "cap", "n_zeros"],
                    bounded_rows),
        "flagged": (["phi", "big_phi", "sup", "n_zeros"], flagged_rows),
    }
    specs = [
        _assertion("transforms.window-comparison",
                   "equal windows reproduce the bracket sup exactly",
                   "identical", "equals_col",
                   {"lhs": "sup", "rhs": "expected"}),
        _assertion("transforms.window-comparison",
                   "equal windows report no zero locus",
                   "identical", "equals_value", {"col": "n_zeros",
                                                 "value": 0}),
        _assertion("transforms.window-comparison",
                   "a faster-decaying reference gives a finite pinned sup "
                   "with no zeros", "bounded", "col_le_col",
                   {"lhs": "sup", "rhs": "cap"}),
        _assertion("transforms.window-comparison",
                   "the bounded case reports no zero locus",
                   "bounded", "equals_value", {"col": "n_zeros",
                                               "value": 0}),
        _assertion("transforms.window-comparison",
                   "a vanishing reference ambiguity is flagged by its zero "
                   "locus", "flagged", "all_ge",
                   {"col": "n_zeros", "bound": 1}),
        _assertion("transforms.window-comparison",
                   "the flagged sup stays finite on the lattice",
                   "flagged", "all_finite", {"col": "sup"}),
    ]
    return tables, specs, {}


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class _ExperimentDef:
    id: str
    description: str
    fixture: dict
    params: dict
    reduced: dict
    runner: object


_REGISTRY: dict = {}


def _register(id, description, fixture, params, runner, reduced=None):
    _REGISTRY[id] = _ExperimentDef(id, description, fixture, params,
                                   reduced or {}, runner)


_register(
    "isometry-sweep",
    "L2 norm preservation of the transform on random signals",
    {"length": 32.0, "count": 512},
    {"trials": 20, "tol": 1e-4},
    _run_isometry,
    reduced={"params": {"trials": 5}},
)

_register(
    "covariance-lattice",
    "shift covariance on an on-grid time-frequency lattice",
    {"length": 16.0, "count": 256, "windows": ["gaussian", "hermite:1"]},
    {"span": 2, "stride": 8, "tol": 1e-8},
    _run_covariance,
)

_register(
    "ambiguity-relation",
    "measurement spectrum versus windowed ambiguity product",
    {"length": 16.0, "count": 256,
     "windows": ["gaussian", "hermite:1", "hermite:2"],
     "signals": ["gaussian", "hermite:1", "hermite:2", "random"]},
    {"tol": 1e-3},
    _run_ambiguity,
)

_register(
    "recover-noiseless",
    "phase retrieval by ambiguity division without noise",
    {"length": 16.0, "count": 256, "window": "gaussian",
     "signals": ["gaussian", "hermite:1", "hermite:2"]},
    {"tol": 1e-2},
    _run_recover_noiseless,
)

_register(
    "recover-noisy",
    "phase retrieval by ambiguity division at finite SNR",
    {"length": 16.0, "count": 256, "window": "gaussian",
     "signals": ["gaussian", "hermite:1", "hermite:2"]},
    {"tol": 1e-1, "snr_db": 30.0, "trials": 2, "tau_scale": 1e-2},
    _run_recover_noisy,
    reduced={"params": {"trials": 1}},
)

_register(
    "prop21-gaussian-ratio",
    "instability ratio ladder of the gaussian seed",
    {"length": 256.0, "count": 2048, "sigma": 0.0},
    {"p": 2.0, "q": 2.0, "delta": 0.1, "n_max": 5, "growth": 1.8,
     "window_contains": [2, 4], "window_pin": [0, 4]},
    _run_gaussian_ratio,
    reduced={"fixture": {"length": 128.0, "count": 1024},
             "params": {"n_max": 4, "window_contains": [2, 3],
                        "window_pin": [0, 3]}},
)

_register(
    "lemma22-bounds",
    "the four bump estimates across weights",
    {"length": 256.0, "count": 2048, "sigmas": [0.0, 1.0]},
    {"p": 2.0, "q": 2.0, "n_max": 5, "slope_cap": -3.5},
    _run_bump_bounds,
    reduced={"fixture": {"length": 128.0, "count": 1024},
             "params": {"n_max": 4}},
)

_register(
    "thm15-sobolev-ratio",
    "transform-side instability family with Sobolev denominators",
    {"length": 16.0, "count": 2048, "window": "gaussian",
     "signal": "gaussian"},
    {"s": 1.0, "p": 2.0, "r": 1.0, "q": 2.0, "n_max": 3, "delta": 0.1,
     "closeness": 0.1, "lp_cap": 4.0},
    _run_sobolev_ratio,
    reduced={"fixture": {"count": 1024}, "params": {"n_max": 2}},
)

_register(
    "lp-reduction",
    "band-split control of modulus differences",
    {"length": 16.0, "count": 256, "window": "gaussian"},
    {"s": 1.0, "p": 2.0, "shift": 1.0, "modulation": 2.0, "lp_cap": 4.0},
    _run_lp_reduction,
)

_register(
    "cheeger-gaussian",
    "Cheeger quotients of gaussian densities against closed forms",
    {"length": 16.0, "counts": [256, 512]},
    {"rel_tol": 0.01, "drift_tol": 0.10, "sweep": {}},
    _run_cheeger_gaussian,
    reduced={"fixture": {"counts": [128, 256]},
             "params": {"sweep": {"thresholds": 128, "centers": 5,
                                  "radii": 8, "directions": 32,
                                  "offsets": 17}}},
)

_register(
    "cheeger-trend",
    "Cheeger decay along the instability ladder",
    {"length": 128.0, "count": 1024, "sigma": 0.0},
    {"p": 2.0, "q": 2.0, "delta": 0.1, "n_max": 4, "drop": 0.25,
     "sweep": {"thresholds": 64, "centers": 5, "radii": 8,
               "directions": 32, "offsets": 17}},
    _run_cheeger_trend,
    reduced={"params": {"n_max": 2}},
)

_register(
    "connectivity-gluing",
    "glued stability bounds on overlapping half-domains",
    {"length": 16.0, "count": 256, "window": "gaussian",
     "signal": "gaussian"},
    {"r": 0.0, "shift": 0.1, "slack_tol": 1e-6},
    _run_gluing,
    reduced={},
)

_register(
    "poincare-square",
    "Neumann spectral gap of the unit square",
    {"length": 16.0, "count": 2048},
    {"cells": 128, "rel_tol": 0.02},
    _run_poincare_square,
    reduced={"fixture": {"count": 1024}, "params": {"cells": 64}},
)

_register(
    "certificate-polynomial",
    "region stability certificates on polynomial holomorphic fields",
    {"length": 16.0, "count": 256},
    {"fixtures": 20, "disk_radius": 2.5, "excise_cells": 3,
     "pert_range": [0.02, 0.08], "t3_rel_cap": 1e-12,
     "stress_magnitudes": [0.05, 0.1, 0.15, 0.2, 0.3]},
    _run_certificate,
    reduced={"params": {"fixtures": 6}},
)

_register(
    "modulus-threshold",
    "modulus contraction below the Sobolev threshold and its failure above",
    {"length": 16.0, "count": 256},
    {"s_below": 1.0, "s_above": 1.6, "p": 2.0, "fields": 100, "kmax": 8,
     "decay": 0.35, "contraction_cap": 1.0,
     "crease_modes": [4, 8, 16, 32, 64]},
    _run_modulus_threshold,
    reduced={"params": {"fields": 25}},
)

_register(
    "disjointness-link",
    "geometric decay of overlap witnesses along the ladder",
    {"length": 256.0, "count": 2048, "sigma": 0.0},
    {"p": 2.0, "q": 2.0, "delta": 0.1, "n_max": 5, "c_link": 1e-9},
    _run_disjointness,
    reduced={"fixture": {"length": 128.0, "count": 1024},
             "params": {"n_max": 4}},
)

_register(
    "window-ratio",
    "window-comparison ratio fields: exact, bounded, and flagged cases",
    {"length": 16.0, "count": 256, "other": "hermite:1"},
    {"bounded_cap": 50000.0},
    _run_window_ratio,
)


def experiment_ids() -> list:
    return list(_REGISTRY)


def list_experiments() -> list:
    return [{"id": d.id, "description": d.description}
            for d in _REGISTRY.values()]


def _definition(id: str) -> _ExperimentDef:
    if id not in _REGISTRY:
        known = ", ".join(_REGISTRY)
        raise ValueError(f"unknown experiment id {id!r}; known ids: {known}")
    return _REGISTRY[id]


def default_manifest(id: str, seed: int = 0, out_dir: str | None = None,
                     reduced: bool = False) -> ExperimentManifest:
    d = _definition(id)
    fixture = dict(d.fixture)
    params = dict(d.params)
    if reduced:
        fixture.update(d.reduced.get("fixture", {}))
        params.update(d.reduced.get("params", {}))
    return ExperimentManifest(id=id, fixture=fixture, params=params,
                              seed=seed, out_dir=out_dir)


def run(manifest: ExperimentManifest) -> ExperimentResult:
    """Execute one experiment and evaluate its assertions.

    Writes tables and the summary when the manifest carries an
    output directory. Raises ValueError for unknown ids or infeasible
    fixtures; assertion failures never raise, they are recorded.
    """
    d = _definition(manifest.id)
    start = time.perf_counter()
    tables, specs, extra = d.runner(manifest, manifest.fixture,
                                    manifest.params)
    wallclock = time.perf_counter() - start
    assertions = []
    for spec in specs:
        entry = dict(spec)
        entry["passed"] = _evaluate(tables, spec)
        assertions.append(entry)
    passed = all(a["passed"] for a in assertions if a["hard"])
    summary = {"description": d.description, **extra}
    result = ExperimentResult(manifest=manifest, tables=tables,
                              assertions=assertions, summary=summary,
                              passed=passed, wallclock=wallclock)
    if manifest.out_dir is not None:
        write_result(result, manifest.out_dir)
    return result
