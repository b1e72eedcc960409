import ast
import dataclasses
import json
import math
from pathlib import Path

import pytest

from stftlab import experiments as ex

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
    assert names == {f"{t}.csv" for t in res.tables} | {"plot.csv",
                                                        "summary.json"}
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


def test_plot_long_format(tmp_path):
    res = ex.run(ex.default_manifest("lp-reduction"))
    ex.write_result(res, tmp_path)
    lines = (tmp_path / "plot.csv").read_text().splitlines()
    assert lines[0] == "series,x,y"
    assert len(lines) > 1
    for line in lines[1:]:
        series, x, y = line.split(",")
        table = series.split(".")[0]
        assert table in res.tables
        float(x), float(y)


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


def test_summary_json_records_manifest(tmp_path):
    mf = ex.default_manifest("window-ratio", seed=3, out_dir=str(tmp_path))
    res = ex.run(mf)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["id"] == "window-ratio"
    assert summary["manifest"]["seed"] == 3
    assert summary["passed"] == res.passed
    assert set(summary["tables"]) == set(res.tables)
    assert math.isfinite(summary["wallclock_s"])
