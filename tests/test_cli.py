import json
import math

import pytest

from stftlab import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_command_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert "usage" in err


def test_list_prints_every_id(capsys):
    from stftlab import experiments

    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    for id in experiments.experiment_ids():
        assert id in out


def test_gen_stft_distance_pipeline(tmp_path, capsys):
    f = str(tmp_path / "f.bin")
    g = str(tmp_path / "g.bin")
    assert run_cli(capsys, "gen", "gaussian", "--L", "16", "--N", "256",
                   "--out", f)[0] == 0
    assert run_cli(capsys, "gen", "hermite:1", "--L", "16", "--N", "256",
                   "--out", g)[0] == 0
    code, out, _ = run_cli(capsys, "distance", f, g, "--norm", "l2")
    assert code == 0
    payload = json.loads(out)
    # orthogonal unit vectors sit at distance sqrt(2) for any phase
    assert payload["distance"] == pytest.approx(math.sqrt(2.0), rel=1e-6)
    assert len(payload["lambda"]) == 2
    code, out, _ = run_cli(capsys, "distance", f, f)
    assert json.loads(out)["distance"] == pytest.approx(0.0, abs=1e-12)


def test_distance_reports_the_certified_gap(tmp_path, capsys):
    f = str(tmp_path / "f.bin")
    g = str(tmp_path / "g.bin")
    run_cli(capsys, "gen", "gaussian", "--L", "8", "--N", "64", "--out", f)
    run_cli(capsys, "gen", "random", "--seed", "2", "--L", "8", "--N", "64",
            "--out", g)
    code, out, _ = run_cli(capsys, "distance", f, g, "--norm", "lq:4")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "certified+refine"
    assert 0.0 < payload["gap"] <= 1e-2 * payload["distance"]
    code, out, _ = run_cli(capsys, "distance", f, g)
    assert json.loads(out)["gap"] == 0.0


def test_distance_operands_on_different_spaces_exit_two(tmp_path, capsys):
    f, g, F = (str(tmp_path / name) for name in ("f.bin", "g.bin", "F.bin"))
    run_cli(capsys, "gen", "gaussian", "--L", "8", "--N", "64", "--out", f)
    run_cli(capsys, "gen", "gaussian", "--L", "16", "--N", "64", "--out", g)
    run_cli(capsys, "stft", f, "--out", F)
    for other, why in ((g, "different grids"), (F, "different sample spaces")):
        code, _, err = run_cli(capsys, "distance", f, other, "--norm", "lq:4")
        assert code == 2
        assert "argument g:" in err and why in err


def test_norm_json(tmp_path, capsys):
    f = str(tmp_path / "f.bin")
    run_cli(capsys, "gen", "gaussian", "--out", f)
    code, out, _ = run_cli(capsys, "norm", f, "--norm", "w:1,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["norm"] > 1.0
    assert payload["label"].startswith("W")


def test_gen_csv_format(tmp_path, capsys):
    f = tmp_path / "f.csv"
    code, _, _ = run_cli(capsys, "gen", "random", "--seed", "3", "--L", "8",
                         "--N", "64", "--format", "csv", "--out", str(f))
    assert code == 0
    assert len(f.read_text().splitlines()) == 65


def test_gen_refuses_flags_its_kind_ignores(tmp_path, capsys):
    f = tmp_path / "f.bin"
    base = ["gen", "random", "--seed", "3", "--out", str(f)]
    code, _, err = run_cli(capsys, *base, "--center", "2")
    assert code == 2 and "--center" in err
    code, _, err = run_cli(capsys, *base, "--modulation", "1")
    assert code == 2 and "--modulation" in err
    code, _, err = run_cli(capsys, "gen", "gaussian", "--seed", "3",
                           "--out", str(f))
    assert code == 2 and "--seed" in err
    assert not f.exists()
    # kinds follow the window grammar: hermite needs its order
    code, _, err = run_cli(capsys, "gen", "hermite", "--out", str(f))
    assert code == 2 and "'hermite'" in err
    assert run_cli(capsys, *base)[0] == 0


def test_recover_reports_error_and_fraction(tmp_path, capsys):
    f = str(tmp_path / "f.bin")
    meas = str(tmp_path / "meas.bin")
    rec = str(tmp_path / "rec.bin")
    run_cli(capsys, "gen", "gaussian", "--out", f)
    assert run_cli(capsys, "stft", f, "--phaseless", "--out", meas)[0] == 0
    code, out, _ = run_cli(capsys, "recover", meas, "--reference", f,
                           "--out", rec)
    assert code == 0
    payload = json.loads(out)
    assert payload["error"] < 1e-2
    assert 0.0 < payload["masked_fraction"] < 1.0
    assert payload["threshold"] > 0.0
    from stftlab import io

    assert io.load(rec).grid.count == 256


def test_poincare_disk_and_glue(tmp_path, capsys):
    from stftlab import io
    from stftlab.geometry import DomainMask, connectivity, gluing_bound

    code, out, _ = run_cli(capsys, "poincare", "--disk", "0,0,2.0",
                           "--L", "16", "--N", "256")
    assert code == 0
    payload = json.loads(out)
    assert payload["constant"] > 0.0
    assert payload["mu1"] > 0.0
    f, w, a, b = (str(tmp_path / n) for n in ("f.bin", "w.bin", "a.bin",
                                              "b.bin"))
    run_cli(capsys, "gen", "gaussian", "--out", f)
    run_cli(capsys, "stft", f, "--phaseless", "--out", w)
    field = io.load(w)
    tg = field.tfgrid
    ma = DomainMask.rectangle(tg, -8.0, 0.5, -8.0, 8.0)
    mb = DomainMask.rectangle(tg, -0.5, 8.0, -8.0, 8.0)
    io.dump_mask(ma.inside, tg, a)
    io.dump_mask(mb.inside, tg, b)
    code, out, _ = run_cli(capsys, "glue", "--ca", "1.0", "--cb", "2.0",
                           "--connectivity", w, a, b)
    assert code == 0
    payload = json.loads(out)
    lam = connectivity(field, ma, mb)
    assert payload["lambda"] == lam
    assert payload["bound"] == gluing_bound(1.0, 2.0, lam)
    # the connectivity triple is the only way to give lambda
    for argv in (["--lam", "0.5"], []):
        code, _, err = run_cli(capsys, "glue", "--ca", "1", "--cb", "1", *argv)
        assert code == 2 and "--connectivity" in err


def test_recover_reference_on_another_grid_exits_two_before_recovering(
        tmp_path, capsys, monkeypatch):
    from stftlab import transforms

    f, ref, meas = (str(tmp_path / n) for n in ("f.bin", "ref.bin",
                                                "meas.bin"))
    run_cli(capsys, "gen", "gaussian", "--L", "16", "--N", "256", "--out", f)
    run_cli(capsys, "gen", "gaussian", "--L", "8", "--N", "64", "--out", ref)
    run_cli(capsys, "stft", f, "--phaseless", "--out", meas)

    def refused(*args, **kwargs):
        raise AssertionError("recover ran before the reference was checked")

    monkeypatch.setattr(transforms, "recover", refused)
    code, _, err = run_cli(capsys, "recover", meas, "--reference", ref)
    assert code == 2 and "argument --reference:" in err


@pytest.fixture(scope="module")
def small_dumps(tmp_path_factory):
    """A gaussian on the self-dual 8/64 grid, its phaseless STFT, and two
    overlapping half-plane masks of that field's grid."""
    from stftlab import io
    from stftlab.geometry import DomainMask
    from stftlab.grids import gaussian, make_grid
    from stftlab.transforms import phaseless

    d = tmp_path_factory.mktemp("dumps")
    paths = {n: str(d / f"{n}.bin") for n in ("meas", "a", "b")}
    meas = phaseless(gaussian(make_grid(8.0, 64)))
    io.dump_field(meas, paths["meas"])
    tg = meas.tfgrid
    io.dump_mask(DomainMask.rectangle(tg, -4.0, 0.5, -4.0, 4.0).inside, tg,
                 paths["a"])
    io.dump_mask(DomainMask.rectangle(tg, -0.5, 4.0, -4.0, 4.0).inside, tg,
                 paths["b"])
    return paths


@pytest.mark.parametrize("command, flags, named", [
    ("recover", ["--threshold", "-1"], "--threshold"),
    ("recover", ["--threshold", "nan"], "--threshold"),
    ("cheeger", ["--thresholds", "-1"], "--thresholds"),
    ("cheeger", ["--centers", "-1"], "--centers"),
    ("cheeger", ["--radii", "-1"], "--radii"),
    ("cheeger", ["--directions", "-1"], "--directions"),
    ("cheeger", ["--offsets", "-1"], "--offsets"),
    ("cheeger", ["--thresholds", "0", "--centers", "0", "--radii", "0",
                 "--directions", "0", "--offsets", "0"], "--thresholds"),
    ("glue", ["--ca", "nan", "--cb", "1"], "--ca"),
    ("glue", ["--ca", "-1", "--cb", "1"], "--ca"),
    ("glue", ["--ca", "1", "--cb", "nan"], "--cb"),
], ids=["threshold-negative", "threshold-nan", "thresholds", "centers",
        "radii", "directions", "offsets", "all-counts-zero", "ca-nan",
        "ca-negative", "cb-nan"])
def test_bad_numeric_flag_exits_two_naming_it(small_dumps, capsys, command,
                                              flags, named):
    operands = {"recover": [small_dumps["meas"]],
                "cheeger": [small_dumps["meas"]],
                "glue": ["--connectivity", small_dumps["meas"],
                         small_dumps["a"], small_dumps["b"]]}[command]
    code, out, err = run_cli(capsys, command, *operands, *flags)
    assert code == 2 and out == ""
    assert f"argument {named}" in err


def test_glue_accepts_an_infinite_constant(small_dumps, capsys):
    code, out, _ = run_cli(capsys, "glue", "--ca", "inf", "--cb", "1",
                           "--connectivity", small_dumps["meas"],
                           small_dumps["a"], small_dumps["b"])
    assert code == 0 and json.loads(out)["bound"] == "inf"


def test_cheeger_on_phaseless_density(tmp_path, capsys):
    f = str(tmp_path / "f.bin")
    meas = str(tmp_path / "meas.bin")
    run_cli(capsys, "gen", "gaussian", "--out", f)
    run_cli(capsys, "stft", f, "--phaseless", "--out", meas)
    code, out, _ = run_cli(capsys, "cheeger", meas, "--thresholds", "16",
                           "--centers", "3", "--radii", "6",
                           "--directions", "8", "--offsets", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] > 0.0
    assert payload["family"] in ("superlevel", "sublevel", "disk",
                                 "halfplane")


def test_run_writes_and_verify_rechecks(tmp_path, capsys):
    out_dir = str(tmp_path / "covrun")
    code, out, _ = run_cli(capsys, "run", "covariance-lattice",
                           "--out", out_dir)
    assert code == 0
    assert "covariance-lattice: PASS" in out
    code, out, _ = run_cli(capsys, "verify", out_dir)
    assert code == 0
    assert json.loads(out)["ok"]
    csv = tmp_path / "covrun" / "covariance.csv"
    lines = csv.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[-2] = "99.0"
    lines[-1] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "verify", out_dir)
    assert code == 1
    assert not json.loads(out)["ok"]


def test_run_config_patch_is_strict(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"trials": 3}')
    code, _, err = run_cli(capsys, "run", "isometry-sweep",
                           "--config", str(cfg))
    assert code == 2
    assert "'trials'" in err
    cfg.write_text('{"params": {"trils": 3}}')
    code, _, err = run_cli(capsys, "run", "isometry-sweep",
                           "--config", str(cfg))
    assert code == 2
    assert "'trils'" in err
    for patch, name in (('{"params": {"trials": "a"}}', "params.trials"),
                        ('{"fixture": {"count": 1e12}}', "fixture.count"),
                        ('{"params": {"trials": true}}', "params.trials")):
        cfg.write_text(patch)
        code, _, err = run_cli(capsys, "run", "isometry-sweep",
                               "--config", str(cfg))
        assert code == 2
        assert name in err and "must be an integer" in err
    # grids past make_grid's limits stop before the run, naming the field
    for id, patch, name, why in (
            ("isometry-sweep", '{"fixture": {"count": 5000}}',
             "fixture.count", "above the limit"),
            ("isometry-sweep", '{"fixture": {"count": 513}}',
             "fixture.count", "even integer"),
            ("isometry-sweep", '{"fixture": {"length": -1}}',
             "fixture.length", "must be positive"),
            ("cheeger-gaussian", '{"fixture": {"counts": [128, 5000]}}',
             "fixture.counts[1]", "above the limit")):
        cfg.write_text(patch)
        code, _, err = run_cli(capsys, "run", id, "--reduced",
                               "--config", str(cfg))
        assert code == 2
        assert name in err and why in err
    cfg.write_text('{"params": {"trials": 2, "tol": 1}, "seed": 5}')
    out_dir = str(tmp_path / "patched")
    code, out, _ = run_cli(capsys, "run", "isometry-sweep",
                           "--config", str(cfg), "--out", out_dir)
    assert code == 0
    summary = json.loads((tmp_path / "patched" / "summary.json").read_text())
    assert summary["manifest"]["seed"] == 5
    assert summary["manifest"]["params"]["trials"] == 2


def test_failed_assertion_exits_one(tmp_path, capsys):
    cfg = tmp_path / "tight.json"
    cfg.write_text('{"params": {"tol": 1e-30}}')
    code, out, _ = run_cli(capsys, "run", "isometry-sweep", "--reduced",
                           "--config", str(cfg))
    assert code == 1
    assert "FAIL" in out


def test_unknown_experiment_exits_two(capsys):
    code, _, err = run_cli(capsys, "run", "no-such-id")
    assert code == 2
    assert "no-such-id" in err


def test_missing_file_names_argument(capsys):
    code, _, err = run_cli(capsys, "norm", "missing.bin")
    assert code == 2
    assert "missing.bin" in err


def test_bad_norm_spec_exits_two(tmp_path, capsys):
    f = str(tmp_path / "f.bin")
    run_cli(capsys, "gen", "gaussian", "--out", f)
    code, _, err = run_cli(capsys, "distance", f, f, "--norm", "bogus")
    assert code == 2
    assert "--norm" in err


@pytest.mark.parametrize("spec", ["w:1,0.5", "x:0.5,1", "w:-1,2", "w:1,2,-1",
                                  "lq:nan", "w:nan,2", "x:2,nan"])
def test_out_of_range_norm_parameters_exit_two(tmp_path, capsys, spec):
    f = str(tmp_path / "f.bin")
    run_cli(capsys, "gen", "gaussian", "--out", f)
    code, _, err = run_cli(capsys, "norm", f, "--norm", spec)
    assert code == 2
    assert "--norm" in err


def test_grid_above_the_count_limit_exits_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen", "gaussian", "--N", "4098",
                           "--out", str(tmp_path / "f.bin"))
    assert code == 2
    assert "--L/--N" in err and "limit" in err
    code, _, err = run_cli(capsys, "poincare", "--disk", "0,0,1", "--N", "4098")
    assert code == 2
    assert "--L/--N" in err


def test_bad_thread_cap_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("STFTLAB_THREADS", "zebra")
    code, _, err = run_cli(capsys, "list")
    assert code == 2
    assert "STFTLAB_THREADS" in err


def test_thread_cap_sets_blas_vars(capsys, monkeypatch):
    monkeypatch.setenv("STFTLAB_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    code, _, _ = run_cli(capsys, "list")
    assert code == 0
    import os

    assert os.environ["OMP_NUM_THREADS"] == "2"
