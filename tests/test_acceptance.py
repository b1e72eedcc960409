"""Acceptance gate: one test per shipping criterion.

Every test runs the relevant experiment at its default (full) size, then
re-derives the criterion from the stored tables at the stated tolerance
rather than trusting the experiment's own verdicts. Each test prints one
[PASS]/[FAIL] line; `pytest -v` shows the same verdicts by test name.
"""

import json
import math

import pytest

from stftlab import experiments as ex

_CACHE = {}


def res(id):
    if id not in _CACHE:
        _CACHE[id] = ex.run(ex.default_manifest(id))
    return _CACHE[id]


def col(result, table, name):
    header, rows = result.tables[table]
    i = header.index(name)
    return [r[i] for r in rows]


def gate(label, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}" +
          (f" ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


def test_criterion_01_transform_isometry():
    r = res("isometry-sweep")
    assert r.manifest.fixture == {"length": 32.0, "count": 512}
    defects = col(r, "isometry", "residual")
    worst = max(defects)
    gate("isometry defect < 1e-4 on 20 fixtures",
         len(defects) == 20 and worst < 1e-4 and r.wallclock < 10.0,
         f"worst {worst:.3g}, {r.wallclock:.2f}s")


def test_criterion_02_shift_covariance_lattice():
    r = res("covariance-lattice")
    residuals = col(r, "covariance", "residual")
    windows = set(col(r, "covariance", "window"))
    worst = max(residuals)
    gate("covariance residual < 1e-8 on a 5x5 lattice, both windows",
         len(residuals) == 50 and windows == {"gaussian", "hermite:1"}
         and worst < 1e-8 and r.wallclock < 30.0,
         f"worst {worst:.3g}")


def test_criterion_03_ambiguity_relation():
    r = res("ambiguity-relation")
    assert r.manifest.fixture["count"] == 256
    residuals = col(r, "relation", "residual")
    worst = max(residuals)
    gate("ambiguity relation sup residual < 1e-3 on a self-dual grid",
         worst < 1e-3 and r.wallclock < 30.0, f"worst {worst:.3g}")


def test_criterion_04_noiseless_recovery():
    from stftlab.grids import make_grid
    from stftlab.transforms import ambiguity, parse_window

    r = res("recover-noiseless")
    errors = col(r, "recovery", "rel_error")
    signals = col(r, "recovery", "signal")
    thresholds = col(r, "recovery", "threshold")
    grid = make_grid(16.0, 256)
    w = parse_window("gaussian").build(grid)
    peak = abs(ambiguity(w).values[grid.count // 2, grid.count // 2])
    tau_ok = all(t == pytest.approx(1e-6 * peak, rel=1e-12)
                 for t in thresholds)
    gate("noiseless recovery error < 1e-2 at tau = 1e-6 * peak",
         set(signals) == {"gaussian", "hermite:1", "hermite:2"}
         and max(errors) < 1e-2 and tau_ok and r.wallclock < 60.0,
         f"worst {max(errors):.3g}")


def test_criterion_04_noisy_recovery_report():
    # report-only: the inversion route amplifies noise through the masked
    # division, so the measured errors are recorded, not gated
    r = res("recover-noisy")
    errors = col(r, "recovery_noisy", "rel_error")
    fractions = col(r, "recovery_noisy", "masked_fraction")
    ok = (r.passed and all(math.isfinite(e) for e in errors)
          and all(0.0 < m < 1.0 for m in fractions))
    gate("noisy recovery at 30 dB reported",
         ok, "errors " + ", ".join(f"{e:.3f}" for e in errors))


def test_criterion_05_bump_estimates():
    r = res("lemma22-bounds")
    sigmas = set(col(r, "bounds", "sigma"))
    gub = max(abs(v - 1.0) for v in col(r, "bounds", "gub_lp_ratio"))
    mcb = min(col(r, "bounds", "mcb_product"))
    c_impl = max(max(col(r, "bounds", "gub_x_scaled")),
                 max(col(r, "bounds", "mtb_ratio")),
                 max(col(r, "bounds", "sob_ratio")))
    slope = max(col(r, "slopes", "slope"))
    gate("bump estimates: equality 1e-10, product >= 1, constant <= 8, "
         "slope <= -3.5",
         sigmas == {0, 1} and gub < 1e-10 and mcb >= 1.0 - 1e-9
         and c_impl <= 8.0 and slope <= -3.5 and r.wallclock < 60.0,
         f"gub {gub:.2g}, mcb {mcb:.6f}, c {c_impl:.3g}, slope {slope:.1f}")


def test_criterion_06_instability_ratio_ladder():
    r = res("prop21-gaussian-ratio")
    header, rows = r.tables["ratios"]
    rungs = sorted((d for d in (dict(zip(header, row)) for row in rows)
                    if not d["degenerate"]), key=lambda d: d["n"])
    # verified window: the run of consecutive rungs down from the top one
    # along which the ratios strictly increase and clear 2^n
    k = len(rungs) - 1
    while k > 0 and (rungs[k - 1]["n"] == rungs[k]["n"] - 1
                     and rungs[k - 1]["target"] <= rungs[k - 1]["ratio"]
                     < rungs[k]["ratio"]):
        k -= 1
    start, end = rungs[k]["n"], rungs[-1]["n"]
    ratios = [d["ratio"] for d in rungs[k:]]
    targets = [d["target"] for d in rungs[k:]]
    floors = all(rr >= t for rr, t in zip(ratios, targets))
    growth = all(b / a >= 1.8 for a, b in zip(ratios, ratios[1:])
                 if math.isfinite(a))
    gate("ratio ladder: 2^n floors and 1.8x growth on the verified window",
         start <= 2 and end >= 4 and (start, end) == (0, 4)
         and floors and growth and r.wallclock < 300.0,
         f"window [{start},{end}], top {ratios[-1]!r}")


def test_criterion_07_sobolev_level_ratios():
    r = res("thm15-sobolev-ratio")
    ratios = col(r, "ratios", "ratio")
    targets = col(r, "ratios", "target")
    js = col(r, "band_split", "j")
    needed = col(r, "band_split", "constant_needed")
    caps = col(r, "band_split", "cap")
    gate("Sobolev-level ratios exceed 2^k; band split holds for j in 2..6",
         all(rr >= t for rr, t in zip(ratios, targets))
         and sorted(set(js)) == [2, 3, 4, 5, 6]
         and all(n <= c for n, c in zip(needed, caps))
         and max(caps) == 4.0 and r.wallclock < 300.0,
         f"ratios {[f'{v:.3g}' for v in ratios]}")


def test_criterion_08_cheeger_trend_and_refinement():
    trend = res("cheeger-trend")
    values = col(trend, "trend", "value")
    monotone = all(b <= a * (1.0 + 1e-12)
                   for a, b in zip(values, values[1:]))
    drop = values[4] <= values[0] / 4.0
    gauss = res("cheeger-gaussian")
    rel = max(col(gauss, "closed_form", "rel_err"))
    drift = max(col(gauss, "refinement", "drift"))
    positive = min(col(gauss, "closed_form", "value")) > 0.0
    gate("Cheeger trend non-increasing with 4x drop; gaussian value "
         "stable within 10% under refinement",
         len(values) == 5 and monotone and drop and positive
         and rel < 0.01 and drift < 0.10
         and trend.wallclock < 180.0 and gauss.wallclock < 180.0,
         f"trend {[f'{v:.3g}' for v in values]}, drift {drift:.2g}")


def test_criterion_09_glued_stability_bounds():
    r = res("connectivity-gluing")
    lower = col(r, "triples", "c_omega_lb")
    bound = col(r, "triples", "bound")
    ca = col(r, "triples", "c_a_lb")
    cb = col(r, "triples", "c_b_lb")
    lam = col(r, "triples", "lambda")
    dominated = all(lo <= b * (1.0 + 1e-6) for lo, b in zip(lower, bound))
    exact = all(b == math.hypot(a, c) * (1.0 / l + math.sqrt(2.0))
                for b, a, c, l in zip(bound, ca, cb, lam))
    gate("glued bound dominates 10 adversarial triples; arithmetic exact",
         len(lower) == 10 and dominated and exact and r.wallclock < 120.0)


def test_criterion_10_square_spectral_gap():
    r = res("poincare-square")
    header, rows = r.tables["square"]
    row = dict(zip(header, rows[0]))
    inf_row = dict(zip(*[r.tables["disconnected"][0],
                         r.tables["disconnected"][1][0]]))
    gate("unit-square Neumann gap matches pi^2 within 2% at 128^2; "
         "disconnected domain reports infinity",
         row["cells"] == 128 * 128
         and abs(row["mu1"] - math.pi ** 2) / math.pi ** 2 < 0.02
         and math.isinf(inf_row["constant"]) and inf_row["constant"] > 0
         and r.wallclock < 60.0,
         f"mu1 {row['mu1']:.6f}")


def test_criterion_11_stability_certificates():
    r = res("certificate-polynomial")
    distance = col(r, "certificates", "distance")
    bound = col(r, "certificates", "bound")
    sound = all(b >= d for b, d in zip(bound, distance))
    header, rows = r.tables["constant_field"]
    const = dict(zip(header, rows[0]))
    gate("certificate bound dominates the distance on 20 fixtures; "
         "coupling term vanishes for a constant field",
         len(bound) == 20 and sound
         and const["t3"] <= const["t3_cap"] and r.wallclock < 120.0,
         f"min slack {min(b / d for b, d in zip(bound, distance)):.3f}")


def test_criterion_12_modulus_threshold():
    r = res("modulus-threshold")
    ratios = col(r, "random_fields", "ratio")
    cap = col(r, "random_fields", "cap")[0]
    above = max(col(r, "crease_above", "ratio"))
    gate("modulus map contracts below the threshold (100 fields) and "
         "exceeds the pinned constant above it",
         len(ratios) == 100 and max(ratios) < cap and above > cap
         and r.wallclock < 120.0,
         f"below max {max(ratios):.5f} < {cap:g} < above max {above:.4f}")


def test_criterion_13_disjointness_decay():
    r = res("disjointness-link")
    ns = col(r, "decay", "n")
    rhos = col(r, "decay", "rho")
    caps = col(r, "decay", "cap")
    header, rows = r.tables["edges"]
    edges = {row[header.index("case")]: row for row in rows}
    exact = all(row[header.index("rho")] == row[header.index("expected")]
                for row in rows)
    gate("disjointness witness decays below 1e-9 * 4^-n; edge cases exact",
         ns == [1, 2, 3, 4]
         and all(rho <= c for rho, c in zip(rhos, caps))
         and all(c == 1e-9 * 4.0 ** (-n) for n, c in zip(ns, caps))
         and set(edges) == {"disjoint", "identical"} and exact
         and r.wallclock < 60.0,
         "edges {}, worst rho/cap {:.3g}, {:.3f}s".format(
             sorted(edges),
             max((rho / c for rho, c in zip(rhos, caps)), default=math.nan),
             r.wallclock))


@pytest.mark.parametrize("id", ex.experiment_ids())
def test_criterion_14_determinism(id, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    ex.run(ex.default_manifest(id, out_dir=str(a), reduced=True))
    ex.run(ex.default_manifest(id, out_dir=str(b), reduced=True))
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        if name == "summary.json":
            sa = json.loads((a / name).read_text())
            sb = json.loads((b / name).read_text())
            for s in (sa, sb):
                s.pop("wallclock_s")
                s["manifest"].pop("out_dir")
            assert sa == sb, f"{id}: summary differs"
        else:
            assert (a / name).read_bytes() == (b / name).read_bytes(), \
                f"{id}: {name} differs between runs"
    gate(f"re-run of {id} is byte-identical", True)
