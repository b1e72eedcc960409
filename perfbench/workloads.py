"""The benchmark's workloads: fixed operation lists through the public API.

A workload is built once from its seed and then run in rounds. Every round
attempts the same operations in the same order, one at a time; an operation
is one call (or one short chain of calls) into `stftlab`, timed on its own.
Its check runs after the clock stops and compares the output with an oracle
from `oracles.py` or with a property the method must have.

An operation *fails* when the program raises or reports failure itself (an
experiment that does not pass, a non-zero exit code). A check that does not
hold means the output is wrong.
"""

from __future__ import annotations

import contextlib
import importlib
import io as _stdio
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import oracles
from oracles import expect

WORKLOADS = ("cheeger-sweep", "sobolev-family", "lab-suite")

# experiments that have a workload of their own
_OWN = ("cheeger-gaussian", "cheeger-trend", "thm15-sobolev-ratio")
# left out of lab-suite: on about one seed in four one of its random
# two-root fixtures gets a certificate bound below the measured distance,
# so the experiment fails (CHANGES.md, FOUND); its layer runs below on the
# experiment's own seed-independent constant-field pair instead
_LEFT_OUT = ("certificate-polynomial",)

# cheeger-trend on the self-dual 32/256 grid: three rungs whose Cheeger
# values fall from about 1.41 to 6e-6, about 2.3 s per run instead of the
# 54 s of the registered 128/1024 fixture
_TREND_FIXTURE = {"length": 32.0, "count": 256}
_TREND_RUNGS = 2

# the Gaussian densities of cheeger-gaussian: table label -> rate
_GAUSSIAN_RATES = {"half_rate": 0.5 * math.pi, "unit_rate": math.pi}

# the lab-suite command line round trip runs on the self-dual 16/256 grid
_CLI_L, _CLI_N = 16.0, 256
_CLI_SUP_NORM = "lq:4^x:2,1"
_CLI_SCAN_NORM = "lq:4"


class OpFailed(Exception):
    """The program reported failure for an operation."""


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[dict], object]
    check: Callable[[dict, object], None] | None = None


def load_lab() -> SimpleNamespace:
    """The `stftlab` modules. Operations look functions up on them at call
    time, so the wrappers that tracing installs are the ones called."""
    names = ("grids", "transforms", "norms", "forge", "geometry", "io",
             "experiments", "cli")
    return SimpleNamespace(**{m: importlib.import_module(f"stftlab.{m}")
                              for m in names})


# ---------------------------------------------------------------------------
# seeded inputs


def atom_signal(rng: np.random.Generator, length: float, count: int,
                atoms: int, span: float) -> np.ndarray:
    """Unit-norm sum of Gaussian atoms exp(-pi (x - c)^2 + 2 pi i w x) with
    random complex weights and (c, w) uniform in [-span, span]^2: a smooth
    signal whose transform modulus has one peak per atom."""
    dx = length / count
    x = (np.arange(count) - count // 2) * dx
    vals = np.zeros(count, dtype=np.complex128)
    for _ in range(atoms):
        weight = complex(rng.normal(), rng.normal())
        c, w = rng.uniform(-span, span, size=2)
        vals += weight * np.exp(-np.pi * (x - c) ** 2 + 2j * np.pi * w * x)
    return vals / oracles.lq(vals, dx, 2.0)


def _stream(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed % 2**64)


# ---------------------------------------------------------------------------
# shared operations


def _run_experiment(lab, manifest, check=None) -> Op:
    def call(state):
        result = lab.experiments.run(manifest)
        if not result.passed:
            failed = [a["description"] for a in result.assertions
                      if a["hard"] and not a["passed"]]
            raise OpFailed(f"{manifest.id} failed: {failed}")
        state[manifest.id] = result
        return result

    return Op(f"run {manifest.id}", call, check)


def _table(result, name: str) -> list:
    header, rows = result.tables[name]
    return [dict(zip(header, row)) for row in rows]


def _isometry_defect(sig_values, field_values, dx: float, n: int) -> float:
    """Relative gap between ||V f||_2 and ||f||_2 by numpy sums; the TF cell
    of an N-point grid is dx * (1 / (N dx)) = 1 / N."""
    nf = oracles.lq(sig_values, dx, 2.0)
    nv = oracles.lq(field_values, 1.0 / n, 2.0)
    return abs(nv - nf) / nf


# ---------------------------------------------------------------------------
# cheeger-sweep


def cheeger_sweep(lab, seed: int, tiny: bool) -> list:
    ex = lab.experiments
    gauss = ex.default_manifest("cheeger-gaussian", seed=seed, reduced=True)
    trend_default = ex.default_manifest("cheeger-trend", seed=seed)
    trend = ex.ExperimentManifest(
        "cheeger-trend", {**trend_default.fixture, **_TREND_FIXTURE},
        {**trend_default.params, "n_max": 1 if tiny else _TREND_RUNGS},
        seed=seed)
    sweep = trend.params["sweep"]
    rng = _stream(seed)
    grid = lab.grids.make_grid(16.0, 256)
    signals = [lab.grids.Signal(grid, atom_signal(rng, 16.0, 256, 6, 4.0))
               for _ in range(1 if tiny else 3)]

    def check_gauss(state, result):
        for row in _table(result, "closed_form"):
            target = oracles.gaussian_cheeger(_GAUSSIAN_RATES[row["density"]])
            expect(abs(row["value"] - target) <= 0.01 * target,
                   f"gaussian {row['density']} at N={row['count']}: "
                   f"{row['value']} vs closed form {target}")

    def check_trend(state, result):
        values = [row["value"] for row in _table(result, "trend")]
        expect(len(values) == trend.params["n_max"] + 1, "missing rungs")
        expect(all(b <= a for a, b in zip(values, values[1:])),
               f"Cheeger values increase along the ladder: {values}")
        expect(values[-1] <= 0.25 * values[0],
               f"last rung {values[-1]} above 0.25 of the first {values[0]}")

    def estimate(sig):
        def call(state):
            density = np.abs(lab.transforms.stft(sig).values)
            field = lab.grids.TFField(lab.grids.tf_grid_of(grid),
                                      density.astype(np.complex128))
            return density, lab.geometry.cheeger_estimate(field, **sweep)
        return call

    def check_estimate(state, value):
        density, report = value
        expect(math.isfinite(report.value) and report.value > 0,
               f"seeded Cheeger estimate {report.value}")
        cell = 1.0 / grid.count
        total = float(density.sum() * cell)
        mass = float(density[report.witness.inside].sum() * cell)
        expect(abs(report.total_mass - total) <= 1e-9 * total,
               f"total mass {report.total_mass} vs {total}")
        expect(0.0 < mass <= 0.5 * total * (1.0 + 1e-6),
               f"witness holds {mass} of total {total}")

    ops = [_run_experiment(lab, gauss, check_gauss),
           _run_experiment(lab, trend, check_trend)]
    ops += [Op(f"cheeger seeded {i}", estimate(sig), check_estimate)
            for i, sig in enumerate(signals)]
    return ops


# ---------------------------------------------------------------------------
# sobolev-family


def sobolev_family(lab, seed: int, tiny: bool) -> list:
    ex = lab.experiments
    manifest = ex.default_manifest("thm15-sobolev-ratio", seed=seed,
                                   reduced=True)
    fx, pr = manifest.fixture, manifest.params
    length, count = float(fx["length"]), int(fx["count"])
    dx, dxi = length / count, 1.0 / length
    grid = lab.grids.make_grid(length, count)
    window = lab.transforms.parse_window(fx["window"])
    spec = lab.norms.NormSpec(s=pr["s"], p=pr["p"], r=pr["r"], q=pr["q"])
    rng = _stream(seed)
    seeded = [lab.grids.Signal(grid, atom_signal(rng, length, count, 4, 3.0))
              for _ in range(1 if tiny else 2)]

    def check_ratios(state, result):
        for row in _table(result, "ratios"):
            expect(row["ratio"] >= 2.0 ** row["k"],
                   f"rung {row['k']}: ratio {row['ratio']} below 2^k")
        (row,) = _table(result, "closeness")
        expect(row["closeness"] <= pr["closeness"],
               f"closeness {row['closeness']} over {pr['closeness']}")

    def build_family(state):
        f = window.build(grid)
        fam = lab.forge.stft_instability_family(
            f, window, pr["closeness"], spec, pr["n_max"], pr["delta"])
        state["family"] = fam
        return fam

    def check_family(state, fam):
        expect(fam.closeness <= pr["closeness"],
               f"family closeness {fam.closeness} over {pr['closeness']}")

    def members(fam):
        bumps = [fam.delta * s for s in fam.scales]
        out = [("perturbed", fam.perturbed, [(b, a) for b, a in
                                             zip(bumps, fam.ladder)])]
        for k, sig in enumerate(fam.flipped):
            out.append((f"flipped{k}", sig,
                        [(b if i < k else -b, a) for i, (b, a)
                         in enumerate(zip(bumps, fam.ladder))]))
        for n, sig in enumerate(fam.truncations):
            out.append((f"truncation{n}", sig,
                        list(zip(bumps[:n], fam.ladder[:n]))))
        return out

    def transform_members(state):
        fam = state["family"]
        base = lab.transforms.stft(fam.base, window).values
        return base, [(label, sig, terms, lab.transforms.stft(sig, window))
                      for label, sig, terms in members(fam)]

    def check_members(state, value):
        base, fields = value
        gap = _isometry_defect(state["family"].base.values, base, dx, count)
        expect(gap <= 1e-4, f"base: isometry defect {gap:.3e}")
        top = float(np.abs(base).max())
        for label, sig, terms, field in fields:
            ref = oracles.family_transform(base, terms, dxi)
            defect = float(np.abs(field.values - ref).max()) / top
            expect(defect <= 1e-8,
                   f"{label}: transform differs from the rolled copies by "
                   f"{defect:.3e} of its peak")
            gap = _isometry_defect(sig.values, field.values, dx, count)
            expect(gap <= 1e-4, f"{label}: isometry defect {gap:.3e}")

    def transform_seeded(state):
        return [(sig, lab.transforms.stft(sig, window)) for sig in seeded]

    def check_seeded(state, pairs):
        for i, (sig, field) in enumerate(pairs):
            gap = _isometry_defect(sig.values, field.values, dx, count)
            expect(gap <= 1e-4, f"seeded signal {i}: isometry defect {gap}")

    return [
        _run_experiment(lab, manifest, check_ratios),
        Op("stft_instability_family", build_family, check_family),
        Op("stft of family members", transform_members, check_members),
        Op("stft of seeded signals", transform_seeded, check_seeded),
    ]


# ---------------------------------------------------------------------------
# lab-suite


def _cli(lab, argv: list) -> dict | None:
    out, err = _stdio.StringIO(), _stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lab.cli.main([str(a) for a in argv])
    if code != 0:
        raise OpFailed(f"stftlab {' '.join(map(str, argv))} exited {code}: "
                       f"{err.getvalue().strip()}")
    text = out.getvalue().strip()
    return json.loads(text) if text else None


def _suite_experiments(lab, seed: int, tiny: bool, runs: Path) -> list:
    ops = []
    for eid in lab.experiments.experiment_ids():
        if eid in _OWN or eid in _LEFT_OUT:
            continue
        manifest = lab.experiments.default_manifest(eid, seed=seed,
                                                    reduced=tiny)
        out = runs / eid

        def write(state, eid=eid, out=out):
            return lab.experiments.write_result(state[eid], out)

        def check_write(state, written, eid=eid, out=out):
            summary = json.loads((out / "summary.json").read_text())
            expect(summary["passed"] == state[eid].passed,
                   f"{eid}: stored verdict differs from the run")
            expect(set(summary["tables"]) == set(state[eid].tables),
                   f"{eid}: stored tables differ from the run")

        def verify(state, eid=eid, out=out):
            report = lab.experiments.verify_run(out)
            if not report["ok"]:
                raise OpFailed(f"verify_run {eid} reports failure")
            return report

        def check_verify(state, report, eid=eid):
            for a in report["assertions"]:
                expect(a["recheck"] == a["stored"],
                       f"{eid}: {a['invariant']} rechecks {a['recheck']} "
                       f"but was stored {a['stored']}")

        ops += [_run_experiment(lab, manifest),
                Op(f"write_result {eid}", write, check_write),
                Op(f"verify_run {eid}", verify, check_verify)]
    return ops


def _certificate(lab) -> Op:
    """stability_certificate on the constant-field pair of
    certificate-polynomial: no roots against one root at 0.3 + 0.2i, on the
    disk of radius 2.5 of the 16/256 grid."""
    tg = lab.grids.tf_grid_of(lab.grids.make_grid(_CLI_L, _CLI_N))
    mask = lab.geometry.DomainMask.disk(tg, 0j, 2.5)

    def call(state):
        f1, _ = lab.transforms.fock_polynomial_field([], tg)
        f2, _ = lab.transforms.fock_polynomial_field([0.3 + 0.2j], tg)
        return lab.geometry.stability_certificate(f1, f2, mask,
                                                  excise_cells=3)

    def check(state, cert):
        terms = (cert.t1, cert.t2, cert.t3, cert.poincare, cert.distance)
        expect(all(math.isfinite(t) and t >= 0 for t in terms),
               f"certificate terms {terms}")
        # a constant holomorphic part has a vanishing log-derivative term
        expect(cert.t3 <= 1e-12 * cert.t1,
               f"coupling term {cert.t3} does not vanish against {cert.t1}")
        expect(cert.bound == cert.poincare * (cert.t1 + cert.t2 + cert.t3),
               "bound is not poincare * (t1 + t2 + t3)")
        mu1 = cert.poincare_report["mu1"]
        expect(abs(cert.poincare - 1.0 / math.sqrt(mu1))
               <= 1e-12 * cert.poincare, "poincare is not 1/sqrt(mu1)")

    return Op("stability_certificate", call, check)


def _suite_cli(lab, seed: int, files: Path) -> list:
    rng = _stream(seed)
    step = 1.0 / _CLI_L  # on-grid for translations and modulations alike
    fc, fm, gc, gm = (float(step * k) for k in rng.integers(-32, 33, size=4))
    grid = lab.grids.make_grid(_CLI_L, _CLI_N)
    tg = lab.grids.tf_grid_of(grid)
    cell = 1.0 / _CLI_N
    p = {name: files / f"{name}.bin" for name in ("f", "g", "F", "G", "M",
                                                  "R", "mask")}
    size = ["--L", _CLI_L, "--N", _CLI_N]
    disk = complex(fc, fm), 1.5

    def mem_f():
        return lab.grids.gaussian(grid, center=fc, modulation=fm)

    def mem_g():
        g = lab.grids.hermite(grid, 1)
        return lab.grids.modulate(lab.grids.translate(g, gc), gm)

    def dumped(name, expected):
        def check(state, _):
            got = oracles.read_stfl1(p[name])["values"]
            # dumps store complex samples; a real field gets +0.0 imaginary
            want = np.asarray(expected(), dtype=np.complex128)
            expect(oracles.same_bits(got, want),
                   f"{name}.bin differs from the in-memory value")
        return check

    def cli_op(label, argv, check=None):
        return Op(f"cli {label}", lambda state: _cli(lab, argv), check)

    def dump_mask(state):
        mask = lab.geometry.DomainMask.disk(tg, *disk)
        lab.io.dump_mask(mask.inside, tg, p["mask"])
        return mask.inside

    def check_mask(state, inside):
        got = oracles.read_stfl1(p["mask"])
        expect(got["kind"] == 3 and oracles.same_bits(got["values"], inside),
               "mask.bin differs from the in-memory mask")

    def check_recover(state, payload):
        f = oracles.read_stfl1(p["f"])["values"]
        r = oracles.read_stfl1(p["R"])["values"]
        dx = _CLI_L / _CLI_N
        err = oracles.aligned_l2(f, r, dx) / oracles.lq(f, dx, 2.0)
        expect(err <= 1e-2, f"recovery error {err}")
        expect(abs(payload["error"] - err) <= 1e-9 + 1e-6 * err,
               f"reported error {payload['error']} vs numpy {err}")
        meas = lab.transforms.phaseless(mem_f())
        rec = lab.transforms.recover(meas).signal.values
        expect(oracles.same_bits(r, rec), "R.bin differs from recover()")

    def check_norm(state, payload):
        F = oracles.read_stfl1(p["F"])["values"]
        k = np.arange(_CLI_N) - _CLI_N // 2
        xs, omegas = k * (_CLI_L / _CLI_N), k / _CLI_L
        radius = np.hypot(xs[:, None], omegas[None, :])
        ref = max(oracles.lq(F, cell, 4.0),
                  oracles.lq(np.sqrt(1.0 + radius ** 2) * F, cell, 2.0))
        expect(abs(payload["norm"] - ref) <= 1e-9 * ref,
               f"intersection norm {payload['norm']} vs numpy {ref}")

    def check_distance(state, payload):
        F = oracles.read_stfl1(p["F"])["values"]
        G = oracles.read_stfl1(p["G"])["values"]
        d = payload["distance"]
        upper = min(oracles.lq(F - lam * G, cell, 4.0)
                    for lam in (1, 1j, -1, -1j))
        lower = abs(oracles.lq(F, cell, 4.0) - oracles.lq(G, cell, 4.0))
        expect(d <= upper * (1 + 1e-12),
               f"scan distance {d} above ||F - lam G|| = {upper}")
        expect(d >= lower * (1 - 1e-12),
               f"scan distance {d} below | ||F|| - ||G|| | = {lower}")

    def check_poincare(state, payload):
        c, mu1 = payload["constant"], payload["mu1"]
        expect(math.isfinite(c) and c > 0, f"Poincare constant {c}")
        expect(abs(c - 1.0 / math.sqrt(mu1)) <= 1e-12 * c,
               f"constant {c} is not 1/sqrt(mu1) for mu1 = {mu1}")

    return [
        cli_op("gen gaussian", ["gen", "gaussian", *size, "--center", fc,
                                "--modulation", fm, "--out", p["f"]],
               dumped("f", lambda: mem_f().values)),
        cli_op("gen hermite:1", ["gen", "hermite:1", *size, "--center", gc,
                                 "--modulation", gm, "--out", p["g"]],
               dumped("g", lambda: mem_g().values)),
        cli_op("stft f", ["stft", p["f"], "--out", p["F"]],
               dumped("F", lambda: lab.transforms.stft(mem_f()).values)),
        cli_op("stft g", ["stft", p["g"], "--out", p["G"]],
               dumped("G", lambda: lab.transforms.stft(mem_g()).values)),
        cli_op("stft --phaseless f",
               ["stft", p["f"], "--phaseless", "--out", p["M"]],
               dumped("M", lambda: lab.transforms.phaseless(mem_f()).values)),
        cli_op("recover", ["recover", p["M"], "--reference", p["f"],
                           "--out", p["R"]], check_recover),
        cli_op("norm", ["norm", p["F"], "--norm", _CLI_SUP_NORM],
               check_norm),
        cli_op("distance", ["distance", p["F"], p["G"], "--norm",
                            _CLI_SCAN_NORM], check_distance),
        Op("io.dump_mask", dump_mask, check_mask),
        cli_op("poincare --weight", ["poincare", p["mask"], "--weight",
                                     p["M"]], check_poincare),
    ]


def build(name: str, lab, seed: int, tiny: bool, workdir: Path) -> list:
    """The operation list of one workload. `workdir` exists at the start of
    every round and is emptied between rounds."""
    if name == "cheeger-sweep":
        return cheeger_sweep(lab, seed, tiny)
    if name == "sobolev-family":
        return sobolev_family(lab, seed, tiny)
    if name == "lab-suite":
        return (_suite_experiments(lab, seed, tiny, workdir / "runs")
                + [_certificate(lab)] + _suite_cli(lab, seed, workdir))
    raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
