import ast
import dataclasses
import json
import math
from pathlib import Path

import pytest

import ambiguity_oracle
from poincare_oracle import uniform_square_mu1
from stftlab import experiments as ex, norms, transforms

ALL_IDS = ex.experiment_ids()


def test_registry_lists_seventeen_experiments():
    assert len(ALL_IDS) == 17
    assert len(set(ALL_IDS)) == len(ALL_IDS)
    for entry in ex.list_experiments():
        assert entry["id"] in ALL_IDS
        assert entry["description"]


def test_unknown_id_raises_with_known_ids():
    with pytest.raises(ValueError, match="covariance-lattice"):
        ex.run(ex.ExperimentManifest(id="no-such-experiment"))
    with pytest.raises(ValueError):
        ex.default_manifest("no-such-experiment")


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("id", ALL_IDS)
def test_every_registered_manifest_passes_check_manifest(id, reduced):
    mf = ex.default_manifest(id, reduced=reduced)
    ex.check_manifest(mf)
    assert set(mf.fixture) | set(mf.params) <= set(ex._RULES)


def _patched(id, section, **change):
    mf = ex.default_manifest(id)
    values = {**getattr(mf, section), **change}
    for key in [k for k, v in change.items() if v is None]:
        del values[key]
    return dataclasses.replace(mf, **{section: values})


@pytest.mark.parametrize("manifest, named", [
    (_patched("isometry-sweep", "params", tol=None), "params.tol is missing"),
    (_patched("isometry-sweep", "params", trils=3), "params.trils is unknown"),
    (_patched("isometry-sweep", "params", trials=0), "params.trials must be"),
    (_patched("isometry-sweep", "params", tol=math.nan), "params.tol must be"),
    (_patched("cheeger-trend", "params", sweep={"thresholds": 1.5}),
     "params.sweep: thresholds must be"),
    (_patched("modulus-threshold", "params", crease_modes=[4, 0]),
     "params.crease_modes[1] must be"),
    (_patched("covariance-lattice", "fixture", windows=["hermite:x"]),
     "fixture.windows[0]: hermite order must be an integer >= 0"),
    (_patched("window-ratio", "fixture", length=15.0),
     "fixture.length and fixture.count: infeasible grid"),
    (dataclasses.replace(ex.default_manifest("isometry-sweep"), seed=2 ** 64),
     "seed must be"),
], ids=["missing", "unknown", "trials-zero", "tol-nan", "sweep-float",
        "mode-zero", "window-spec", "not-self-dual", "seed-too-large"])
def test_run_refuses_a_bad_manifest_before_any_numerics(monkeypatch, manifest,
                                                         named):
    def numerics(*args):
        raise AssertionError("the runner started")

    d = ex._REGISTRY[manifest.id]
    monkeypatch.setitem(ex._REGISTRY, manifest.id,
                        dataclasses.replace(d, runner=numerics))
    with pytest.raises(ValueError) as e:
        ex.run(manifest)
    assert named in str(e.value)


def test_default_manifest_refuses_a_bad_seed():
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, "
                                         r"18446744073709551616\)"):
        ex.default_manifest("isometry-sweep", seed=-1)


def test_manifest_is_frozen():
    mf = ex.default_manifest("window-ratio")
    with pytest.raises(dataclasses.FrozenInstanceError):
        mf.seed = 1


def test_reduced_manifests_shrink_work():
    mf = ex.default_manifest("cheeger-trend")
    red = ex.default_manifest("cheeger-trend", reduced=True)
    assert red.params["n_max"] < mf.params["n_max"]
    # ids without a reduced patch fall back to the default shape
    same = ex.default_manifest("window-ratio", reduced=True)
    assert same.params == ex.default_manifest("window-ratio").params


@pytest.mark.parametrize("id", ALL_IDS)
def test_every_experiment_runs_green_reduced(id):
    res = ex.run(ex.default_manifest(id, reduced=True))
    assert res.passed
    assert res.tables
    for name, (header, rows) in res.tables.items():
        assert rows, f"table {name} is empty"
        assert all(len(r) == len(header) for r in rows)
    for a in res.assertions:
        assert a["invariant"] in ex.INVARIANTS
        assert a["check"] in ex.CHECKS
        if a["hard"]:
            assert a["passed"]


def test_same_manifest_reproduces_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    ex.run(ex.default_manifest("covariance-lattice", out_dir=str(a)))
    ex.run(ex.default_manifest("covariance-lattice", out_dir=str(b)))
    for pa in sorted(a.iterdir()):
        pb = b / pa.name
        if pa.name == "summary.json":
            sa = json.loads(pa.read_text())
            sb = json.loads(pb.read_text())
            sa.pop("wallclock_s"), sb.pop("wallclock_s")
            sa["manifest"].pop("out_dir"), sb["manifest"].pop("out_dir")
            assert sa == sb
        else:
            assert pa.read_bytes() == pb.read_bytes()


def test_seed_changes_sampled_values(tmp_path):
    a = ex.run(ex.default_manifest("isometry-sweep", reduced=True))
    b = ex.run(ex.default_manifest("isometry-sweep", seed=1, reduced=True))
    ha, ra = a.tables["isometry"]
    hb, rb = b.tables["isometry"]
    assert ha == hb
    assert ra != rb


def test_write_then_verify_roundtrip(tmp_path):
    res = ex.run(ex.default_manifest("certificate-polynomial",
                                     reduced=True))
    ex.write_result(res, tmp_path)
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {f"{t}.csv" for t in res.tables} | {"summary.json"}
    report = ex.verify_run(tmp_path)
    assert report["ok"]
    assert report["id"] == "certificate-polynomial"
    assert len(report["assertions"]) == len(res.assertions)


def test_verify_detects_edited_table(tmp_path):
    res = ex.run(ex.default_manifest("covariance-lattice"))
    ex.write_result(res, tmp_path)
    csv = tmp_path / "covariance.csv"
    lines = csv.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[-2] = "99.0"
    lines[-1] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    report = ex.verify_run(tmp_path)
    assert not report["ok"]
    broken = [a for a in report["assertions"] if not a["recheck"]]
    assert broken and broken[0]["stored"]


def test_verify_rederives_the_far_phase_floor(tmp_path):
    ex.write_result(ex.run(ex.default_manifest("prop21-gaussian-ratio",
                                               reduced=True)), tmp_path)
    assert ex.verify_run(tmp_path)["ok"]
    csv = tmp_path / "dichotomy.csv"
    header, *rows = csv.read_text().splitlines()
    names, cells = header.split(","), rows[0].split(",")
    assert float(cells[names.index("min_far_distance")]) < 1e6
    cells[names.index("floor")] = "1000000.0"
    rows[0] = ",".join(cells)
    csv.write_text("\n".join([header, *rows]) + "\n")
    report = ex.verify_run(tmp_path)
    assert not report["ok"]
    broken = [a for a in report["assertions"] if not a["recheck"]]
    assert [(a["invariant"], a["check"]) for a in broken] == [
        ("forge.far-phase-floor", "col_ge_col")]
    assert broken[0]["stored"]


def _stored_prop21(tmp_path, edit):
    """A reduced prop21 run dir whose ratios.csv rows went through edit."""
    ex.write_result(ex.run(ex.default_manifest("prop21-gaussian-ratio",
                                               reduced=True)), tmp_path)
    assert ex.verify_run(tmp_path)["ok"]
    csv = tmp_path / "ratios.csv"
    header, *rows = csv.read_text().splitlines()
    names = header.split(",")
    rows = [dict(zip(names, row.split(","))) for row in rows]
    edit(rows)
    csv.write_text("\n".join([header] + [",".join(r[k] for k in names)
                                         for r in rows]) + "\n")
    report = ex.verify_run(tmp_path)
    return report, [a for a in report["assertions"] if not a["recheck"]]


def test_verify_rederives_the_window_from_zeroed_ratios(tmp_path):
    def zero(rows):
        for r in rows:
            r["ratio"] = "0.0"

    report, broken = _stored_prop21(tmp_path, zero)
    assert not report["ok"]
    # no rung clears its target, so no window: all three window assertions
    assert [(a["invariant"], a["check"]) for a in broken] == [
        ("forge.ratio-growth", "ratio_window"),
        ("forge.ratio-growth", "ratio_window"),
        ("forge.window-pin", "ratio_window")]
    assert all(a["stored"] for a in broken)


@pytest.mark.parametrize("value, failing", [
    # below rung 1 and below its 2^2 target: the window shrinks to (3, 3)
    ("2.0", [("forge.ratio-growth", "ratio_window"),
             ("forge.window-pin", "ratio_window")]),
    # below rung 1 but above its target: not increasing, so (2, 3)
    ("1000.0", [("forge.window-pin", "ratio_window")]),
])
def test_verify_rederives_the_window_from_ratio_order(tmp_path, value,
                                                      failing):
    def lower_rung_2(rows):
        assert float(rows[2]["ratio"]) > float(rows[1]["ratio"]) > 1000.0
        rows[2]["ratio"] = value

    report, broken = _stored_prop21(tmp_path, lower_rung_2)
    assert not report["ok"]
    assert [(a["invariant"], a["check"]) for a in broken] == failing
    assert all(a["stored"] for a in broken)


def test_verify_rederives_the_disconnected_constant(tmp_path):
    ex.write_result(ex.run(ex.default_manifest("poincare-square",
                                               reduced=True)), tmp_path)
    assert ex.verify_run(tmp_path)["ok"]
    assert "Infinity" not in (tmp_path / "summary.json").read_text()
    csv = tmp_path / "disconnected.csv"
    header, row = csv.read_text().splitlines()
    names, cells = header.split(","), row.split(",")
    assert cells[names.index("constant")] == "inf"
    cells[names.index("constant")] = "12.5"
    csv.write_text("\n".join([header, ",".join(cells)]) + "\n")
    report = ex.verify_run(tmp_path)
    assert not report["ok"]
    broken = [a for a in report["assertions"] if not a["recheck"]]
    assert [(a["invariant"], a["check"]) for a in broken] == [
        ("geometry.disconnected-inf", "all_inf")]
    assert broken[0]["stored"]


@pytest.mark.parametrize("reduced", [False, True])
def test_poincare_square_stores_the_exact_discrete_gap(tmp_path, reduced):
    """The square of m x m cells (m = 128 on 16/2048, 64 on 16/1024) has
    the closed-form mu_1 of P_m x P_m; the stored value is within 1e-11."""
    mf = ex.default_manifest("poincare-square", reduced=reduced)
    ex.write_result(ex.run(mf), tmp_path)
    header, row = (tmp_path / "square.csv").read_text().splitlines()
    mu1 = float(row.split(",")[header.split(",").index("mu1")])
    m = mf.params["cells"]
    exact = uniform_square_mu1(m, mf.fixture["length"] / mf.fixture["count"])
    assert (m, mf.fixture["count"]) == ((64, 1024) if reduced else (128, 2048))
    assert abs(mu1 - exact) <= 1e-11 * exact


def test_thm15_transforms_each_member_once(monkeypatch):
    mf = ex.default_manifest("thm15-sobolev-ratio", reduced=True)
    stft = ex.stft
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return stft(*args, **kwargs)

    monkeypatch.setattr(ex, "stft", counted)
    assert ex.run(mf).passed
    # V perturbed, V base and one transform per flipped member
    assert len(calls) == mf.params["n_max"] + 2 == 4


def test_gluing_takes_each_adversary_field_once(monkeypatch):
    mf = ex.default_manifest("connectivity-gluing")
    gradient = norms.field_gradient
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return gradient(*args, **kwargs)

    monkeypatch.setattr(norms, "field_gradient", counted)
    assert ex.run(mf).passed
    # one H1 magnitude per adversary, read by all 30 regions
    assert len(calls) == 5


def test_ambiguity_relation_builds_each_ambiguity_once(monkeypatch):
    mf = ex.default_manifest("ambiguity-relation", reduced=True)
    amb = transforms.ambiguity
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return amb(*args, **kwargs)

    monkeypatch.setattr(transforms, "ambiguity", counted)
    assert ex.run(mf).passed
    # one per signal and one per window, not two per pair
    assert len(calls) == len(mf.fixture["signals"]) \
        + len(mf.fixture["windows"]) == 7


def test_window_ratio_builds_each_ambiguity_once(monkeypatch):
    amb = transforms.ambiguity
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return amb(*args, **kwargs)

    monkeypatch.setattr(transforms, "ambiguity", counted)
    monkeypatch.setattr(ex, "ambiguity", counted)
    assert ex.run(ex.default_manifest("window-ratio", reduced=True)).passed
    # one per window, gaussian and the other, for all three comparisons
    assert len(calls) == 2


_AMBIGUITY_PLANE = ("covariance-lattice", "ambiguity-relation",
                    "recover-noiseless", "recover-noisy", "window-ratio")


def test_ambiguity_plane_kernels_keep_every_table(monkeypatch):
    """The quadrant chirp, the one-buffer measurement spectrum and the
    batched residuals give the tables of the kernels they replace, the
    defining expressions and the per-pair residuals, bit for bit."""
    def tables():
        return {eid: ex.run(ex.default_manifest(eid, reduced=True)).tables
                for eid in _AMBIGUITY_PLANE}

    shipped = tables()
    monkeypatch.setattr(transforms, "_chirp", ambiguity_oracle.chirp)
    monkeypatch.setattr(transforms, "_measurement_fourier_side",
                        ambiguity_oracle.measurement_fourier_side)
    monkeypatch.setattr(ex, "covariance_residuals",
                        ambiguity_oracle.covariance_residuals)
    monkeypatch.setattr(ex, "ambiguity_relation_residuals",
                        ambiguity_oracle.ambiguity_relation_residuals)
    assert tables() == shipped


def test_every_check_and_invariant_is_asserted():
    tree = ast.parse(Path(ex.__file__).read_text())
    invariants, checks = set(), set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "_assertion"):
            continue
        invariant, _, _, check = node.args[:4]
        assert isinstance(invariant, ast.Constant), node.lineno
        assert isinstance(check, ast.Constant), node.lineno
        invariants.add(invariant.value)
        checks.add(check.value)
    assert sorted(set(ex.CHECKS) - checks) == []
    assert sorted(set(ex.INVARIANTS) - invariants) == []


def test_verify_names_unknown_check_and_table(tmp_path):
    ex.write_result(ex.run(ex.default_manifest("covariance-lattice")),
                    tmp_path)
    path = tmp_path / "summary.json"
    stored = path.read_text()
    for key, value in (("check", "col_close_col"), ("table", "gone")):
        summary = json.loads(stored)
        summary["assertions"][0][key] = value
        path.write_text(json.dumps(summary))
        with pytest.raises(ValueError, match=f"unknown {key} '{value}'"):
            ex.verify_run(tmp_path)


def test_infinite_values_survive_the_round_trip(tmp_path):
    res = ex.run(ex.default_manifest("prop21-gaussian-ratio"))
    ex.write_result(res, tmp_path)
    text = (tmp_path / "ratios.csv").read_text()
    assert "inf" in text
    report = ex.verify_run(tmp_path)
    assert report["ok"]


def test_infeasible_grid_raises():
    mf = ex.default_manifest("certificate-polynomial")
    bad = dataclasses.replace(mf, fixture={**mf.fixture, "count": 512})
    with pytest.raises(ValueError, match="infeasible grid"):
        ex.run(bad)


@pytest.mark.parametrize("eid", ["recover-noiseless", "recover-noisy",
                                 "ambiguity-relation"])
def test_square_grid_one_ulp_off_its_dual_runs(eid):
    """L = sqrt(148) is self-dual to rounding, but its dual axis N / L is
    one ulp away from L: the transforms take the same rule as the harness."""
    mf = ex.default_manifest(eid)
    near = dataclasses.replace(mf, fixture={**mf.fixture, "count": 148,
                                            "length": math.sqrt(148)})
    assert ex.run(near).passed


def test_summary_json_records_manifest(tmp_path):
    mf = ex.default_manifest("window-ratio", seed=3, out_dir=str(tmp_path))
    res = ex.run(mf)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["id"] == "window-ratio"
    assert summary["manifest"]["seed"] == 3
    assert summary["passed"] == res.passed
    assert set(summary["tables"]) == set(res.tables)
    assert math.isfinite(summary["wallclock_s"])
