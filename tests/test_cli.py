import argparse
import contextlib
import io
import itertools
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stftlab import cli, experiments as ex, rules
from stftlab.grids import MAX_COUNT


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
    # an infinite Lebesgue exponent is valid; only s, sigma and r must be finite
    for spec in ("linf", "lq:inf", "w:1,inf"):
        code, out, _ = run_cli(capsys, "norm", f, "--norm", spec)
        assert code == 0 and math.isfinite(json.loads(out)["norm"])


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


def test_poincare_refused_weight_exits_two_naming_it(tmp_path, capsys):
    """A weight the eigensolve cannot converge on (i.i.d. over 41 decades),
    a signal dump and a field on another grid are each the weight's fault."""
    from stftlab import io
    from stftlab.grids import TFField, make_grid, tf_grid_of

    tg = tf_grid_of(make_grid(16.0, 256))
    w = 10 ** np.random.default_rng(3).uniform(-40, 1, tg.shape)
    inside = np.zeros(tg.shape, dtype=bool)
    inside[100:125, 100:120] = True
    mask, wild, sig, other = (str(tmp_path / n) for n in (
        "m.bin", "w.bin", "s.bin", "o.bin"))
    io.dump_mask(inside, tg, mask)
    io.dump_field(TFField(tg, w.astype(np.complex128)), wild)
    run_cli(capsys, "gen", "gaussian", "--out", sig)
    other_tg = tf_grid_of(make_grid(8.0, 64))
    io.dump_field(TFField(other_tg, np.ones(other_tg.shape, np.complex128)),
                  other)
    for weight, why in ((wild, "on 500 vertices did not converge"),
                        (sig, "is not a field dump"),
                        (other, "different grid")):
        code, out, err = run_cli(capsys, "poincare", mask, "--weight", weight)
        assert code == 2 and out == "", err
        assert "argument --weight: " in err and why in err, err


def test_poincare_empty_domain_exits_two_naming_its_flag(tmp_path, capsys):
    """An all-false mask dump and a disk that holds no grid point are
    refused input, named by the argument that gave the domain."""
    from stftlab import io
    from stftlab.grids import make_grid, tf_grid_of

    tg = tf_grid_of(make_grid(16.0, 64))
    mask = str(tmp_path / "m.bin")
    io.dump_mask(np.zeros(tg.shape, dtype=bool), tg, mask)
    for argv, flag in (([mask], "mask"),
                       (["--disk", "0.03,0.03,0.001", "--L", "16", "--N",
                         "64"], "--disk")):
        code, out, err = run_cli(capsys, "poincare", *argv)
        assert code == 2 and out == "", err
        assert f"argument {flag}: empty domain" in err, err


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


def test_recover_on_a_grid_that_is_not_self_dual_exits_two(tmp_path, capsys,
                                                           monkeypatch):
    """Both axes 10/256 are equal, but L^2 = 100 is not N: the measurement
    is refused before recovery runs."""
    from stftlab import io, transforms
    from stftlab.grids import TFField, TFGrid, gaussian, make_grid

    grid = make_grid(10.0, 256)
    f, meas = str(tmp_path / "f.bin"), str(tmp_path / "meas.bin")
    io.dump_signal(gaussian(grid), f)
    io.dump_field(TFField(TFGrid(grid, grid),
                          transforms.phaseless(gaussian(grid)).values), meas)

    def refused(*args, **kwargs):
        raise AssertionError("recover ran before the grid was checked")

    monkeypatch.setattr(transforms, "recover", refused)
    code, out, err = run_cli(capsys, "recover", meas, "--reference", f)
    assert code == 2 and out == ""
    assert "argument measurement:" in err and "self-dual" in err


@pytest.fixture(scope="module")
def small_dumps(tmp_path_factory):
    """A gaussian on the self-dual 8/64 grid, its phaseless STFT, and two
    overlapping half-plane masks of that field's grid; `gen` is a path that
    a refused `gen` must not write. Beside them, inputs that a command
    refuses: the gaussian as a signal dump, a zero, a non-real, a negated
    and a dented (one sample at -1e-3) field of the measurement's grid, two
    masks on another grid, two disjoint masks, a directory and a file that
    is not UTF-8 text."""
    from stftlab import io
    from stftlab.geometry import DomainMask
    from stftlab.grids import gaussian, make_grid, tf_grid_of
    from stftlab.transforms import phaseless, stft

    d = tmp_path_factory.mktemp("dumps")
    paths = {n: str(d / f"{n}.bin") for n in (
        "meas", "a", "b", "gen", "signal", "zero", "spun", "far_a", "far_b",
        "left", "right", "negated", "dented", "dir", "latin")}
    f = gaussian(make_grid(8.0, 64))
    io.dump_signal(f, paths["signal"])
    meas = phaseless(f)
    io.dump_field(meas, paths["meas"])
    io.dump_field(meas.like(0.0 * meas.values), paths["zero"])
    io.dump_field(meas.like(meas.values + stft(f).values), paths["spun"])
    io.dump_field(meas.like(-meas.values), paths["negated"])
    dented = meas.values.copy()
    dented[3, 5] = -1e-3
    io.dump_field(meas.like(dented), paths["dented"])
    Path(paths["dir"]).mkdir()
    Path(paths["latin"]).write_bytes('{"seed": 1, "é": 0}'.encode("latin-1"))
    tg = meas.tfgrid
    far = tf_grid_of(make_grid(16.0, 256))
    for name, grid, lo, hi in (("a", tg, -4.0, 0.5), ("b", tg, -0.5, 4.0),
                               ("far_a", far, -4.0, 0.5),
                               ("far_b", far, -0.5, 4.0),
                               ("left", tg, -4.0, -1.0),
                               ("right", tg, 1.0, 4.0)):
        io.dump_mask(DomainMask.rectangle(grid, lo, hi, -4.0, 4.0).inside,
                     grid, paths[name])
    return paths


def _operands(dumps: dict, command: str) -> list:
    """The dumps and outputs that a command takes besides the flags under
    test; a refused `gen` must not write dumps["gen"]."""
    return {"recover": [dumps["meas"]],
            "cheeger": [dumps["meas"]],
            "glue": ["--connectivity", dumps["meas"], dumps["a"], dumps["b"]],
            "poincare": [],
            "gen": ["--out", dumps["gen"]],
            "norm": [dumps["meas"]],
            "distance": [dumps["meas"], dumps["meas"]],
            "run": ["isometry-sweep", "--reduced"],
            }[command]


@pytest.mark.parametrize("command, flags, named", [
    ("recover", ["--threshold", "-1"], "--threshold"),
    ("recover", ["--threshold", "nan"], "--threshold"),
    ("recover", ["--threshold", "inf"], "--threshold"),
    ("recover", ["--threshold", "1"], "--threshold"),
    ("recover", ["--threshold", "1e10"], "--threshold"),
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
    ("poincare", ["--disk", "0,0,nan"], "--disk"),
    ("poincare", ["--disk", "0,0,-1"], "--disk"),
    ("poincare", ["--disk", "nan,0,1"], "--disk"),
    ("gen", ["random", "--seed", "-1"], "--seed"),
    ("gen", ["random", "--seed", "18446744073709551616"], "--seed"),
    ("gen", ["gaussian", "--center", "100"], "--center"),
    ("gen", ["hermite:1", "--center", "0.01"], "--center"),
    ("gen", ["hermite:1", "--modulation", "0.013"], "--modulation"),
    ("gen", ["hermite:1", "--modulation", "inf"], "--modulation"),
    ("gen", ["gaussian", "--L", "8", "--N", "8"], "--L/--N"),
    ("gen", ["hermite:1", "--L", "8", "--N", "8"], "--L/--N"),
    ("gen", ["hermite:3", "--L", "8", "--N", "16"], "--L/--N"),
    ("gen", ["gaussian", "--modulation", "0.013"], "--modulation"),
    ("norm", ["--norm", "w:inf,2"], "--norm"),
    ("norm", ["--norm", "x:2,inf"], "--norm"),
    ("norm", ["--norm", "x:2,-inf"], "--norm"),
    ("norm", ["--norm", "w:1,2,inf"], "--norm"),
    ("norm", ["--norm", "w:1000,2"], "--norm"),
    ("norm", ["--norm", "x:2,1000"], "--norm"),
    ("distance", ["--norm", "w:1000,2"], "--norm"),
    ("distance", ["--norm", "x:2,inf"], "--norm"),
], ids=["threshold-negative", "threshold-nan", "threshold-inf",
        "threshold-one", "threshold-past-the-peak", "thresholds",
        "centers", "radii", "directions", "offsets", "all-counts-zero",
        "ca-nan", "ca-negative", "cb-nan", "disk-nan", "disk-negative",
        "disk-center-nan", "seed-negative", "seed-past-2-64",
        "center-outside", "center-off-grid", "modulation-off-grid", "modulation-inf", "gaussian-grid-too-coarse",
        "hermite-grid-too-coarse", "hermite3-grid-too-coarse",
        "gaussian-modulation-off-grid", "norm-s-inf", "norm-sigma-inf",
        "norm-sigma-minus-inf", "norm-r-inf", "norm-multiplier-overflow",
        "norm-weight-overflow", "distance-multiplier-overflow",
        "distance-sigma-inf"])
def test_bad_numeric_flag_exits_two_naming_it(small_dumps, capsys, command,
                                              flags, named):
    code, out, err = run_cli(capsys, command,
                             *_operands(small_dumps, command), *flags)
    assert code == 2 and out == ""
    assert f"argument {named}" in err
    assert not Path(small_dumps["gen"]).exists()


@pytest.mark.parametrize("argv, named", [
    (["stft", "{signal}", "--window", "hermite:400", "--out", "{gen}"],
     "--window"),
    (["stft", "{signal}", "--window", "hermite:170", "--out", "{gen}"],
     "--window"),
    (["recover", "{meas}", "--window", "hermite:400"], "--window"),
    (["glue", "--ca", "1", "--cb", "1", "--connectivity", "{meas}",
      "{far_a}", "{far_b}"], "--connectivity"),
    (["glue", "--ca", "1", "--cb", "1", "--connectivity", "{meas}",
      "{left}", "{right}"], "--connectivity"),
    (["recover", "{zero}"], "measurement"),
    (["recover", "{spun}"], "measurement"),
    (["verify", "{meas}"], "dir"),
    (["recover", "{negated}"], "measurement"),
    (["recover", "{dented}"], "measurement"),
    (["norm", "{dir}"], "operand"),
    (["distance", "{meas}", "{dir}"], "g"),
    (["cheeger", "{dir}"], "density"),
    (["stft", "{dir}", "--out", "{gen}"], "signal"),
    (["poincare", "{dir}"], "mask"),
    (["poincare", "--disk", "0,0,2", "--L", "8", "--N", "64", "--weight",
      "{dir}"], "--weight"),
    (["recover", "{meas}", "--reference", "{dir}"], "--reference"),
    (["glue", "--ca", "1", "--cb", "1", "--connectivity", "{dir}", "{a}",
      "{b}"], "--connectivity"),
    (["glue", "--ca", "1", "--cb", "1", "--connectivity", "{meas}", "{a}",
      "{dir}"], "--connectivity"),
    (["run", "isometry-sweep", "--config", "{dir}"], "--config"),
    (["run", "isometry-sweep", "--config", "{latin}"], "--config"),
    (["gen", "gaussian", "--out", "{dir}"], "--out"),
    (["gen", "gaussian", "--out", "{dir}/missing/x.bin"], "--out"),
    (["gen", "gaussian", "--format", "csv", "--out", "{meas}/x.csv"],
     "--out"),
    (["stft", "{signal}", "--out", "{dir}"], "--out"),
    (["cheeger", "{meas}", "--out", "{dir}"], "--out"),
    (["verify", "{dir}", "--out", "{dir}/missing/report.json"], "--out"),
    (["run", "isometry-sweep", "--reduced", "--out", "{meas}"], "--out"),
    (["run", "isometry-sweep", "--reduced", "--out", "{meas}/run"],
     "--out"),
], ids=["stft-window-overflows", "stft-window-spreads",
        "recover-window-overflows", "glue-masks-on-another-grid",
        "glue-masks-disjoint", "recover-zero", "recover-non-real",
        "verify-a-file", "recover-negated", "recover-dented",
        "norm-a-directory", "distance-a-directory", "cheeger-a-directory",
        "stft-a-directory", "poincare-a-directory", "weight-a-directory",
        "reference-a-directory", "connectivity-density-a-directory",
        "connectivity-mask-a-directory", "config-a-directory",
        "config-not-utf8", "gen-out-a-directory", "gen-out-no-directory",
        "gen-csv-out-under-a-file", "stft-out-a-directory",
        "cheeger-out-a-directory", "verify-out-no-directory",
        "run-out-a-file", "run-out-under-a-file"])
def test_bad_input_exits_two_naming_it(small_dumps, capsys, argv, named):
    code, out, err = run_cli(capsys, *(a.format(**small_dumps)
                                       for a in argv))
    assert code == 2 and out == "", err
    assert f"argument {named}: " in err, err
    assert not Path(small_dumps["gen"]).exists()


@pytest.mark.parametrize("spoil", ["summary-a-directory",
                                   "summary-not-utf8", "table-not-utf8"])
def test_verify_of_an_unreadable_file_exits_two_naming_it(tmp_path, capsys,
                                                         spoil):
    run = tmp_path / "run"
    assert run_cli(capsys, "run", "isometry-sweep", "--reduced",
                   "--out", str(run))[0] == 0
    target = run / ("isometry.csv" if spoil == "table-not-utf8"
                    else "summary.json")
    target.unlink()
    if spoil == "summary-a-directory":
        target.mkdir()
    else:
        target.write_bytes(b"\xff\xfe not text")
    code, out, err = run_cli(capsys, "verify", str(run))
    assert code == 2 and out == "", err
    assert f"argument dir: {target}: " in err, err


def _typed_flags() -> list:
    """(command, flag, type) for every option of the parser with a type."""
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0], action.type)
            for command, parser in sub.choices.items()
            for action in parser._actions if action.type is not None]


def test_every_typed_flag_is_read_by_a_rule():
    flags = _typed_flags()
    assert {("gen", "--seed"), ("run", "--seed"), ("recover", "--threshold"),
            ("glue", "--ca"), ("cheeger", "--offsets")} <= \
        {flag[:2] for flag in flags}
    assert all(isinstance(rule, rules.Number) for _, _, rule in flags), flags


# (command, flag, text) with text that the flag's rule refuses: no number,
# or a number outside the rule
_BAD_FLAGS = st.sampled_from(_typed_flags()).flatmap(
    lambda f: st.one_of(st.sampled_from(["", "x", "1,5", "0x10"]),
                        *(s.map(repr) for s in _outside(f[2])))
    .map(lambda text: (*f[:2], text)))


@settings(max_examples=200, deadline=None)
@given(case=_BAD_FLAGS)
def test_fuzz_a_refused_numeric_flag_exits_two_naming_it(small_dumps, case):
    command, flag, text = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, f"{flag}={text}",
                         *_operands(small_dumps, command)])
    assert code == 2 and out.getvalue() == ""
    assert f"argument {flag}: value must be" in err.getvalue(), case
    assert not Path(small_dumps["gen"]).exists()


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


@pytest.mark.parametrize("density", ["non-real", "negative", "zero"])
def test_cheeger_bad_density_exits_two_naming_it(tmp_path, capsys, density):
    from stftlab import io
    from stftlab.grids import gaussian, make_grid
    from stftlab.transforms import stft

    field = stft(gaussian(make_grid(8.0, 64)))
    mod = np.abs(field.values)
    values = {"non-real": mod + 5j * mod, "negative": -mod,
              "zero": 0.0 * mod}[density]
    path = str(tmp_path / "density.bin")
    io.dump_field(field.like(values), path)
    code, out, err = run_cli(capsys, "cheeger", path)
    assert code == 2 and out == ""
    assert "argument density: density" in err


@pytest.fixture(scope="module")
def stored_run(tmp_path_factory):
    from stftlab import experiments

    d = tmp_path_factory.mktemp("stored")
    experiments.write_result(experiments.run(
        experiments.default_manifest("covariance-lattice", reduced=True)), d)
    return d


def _short_row(d):
    lines = (d / "covariance.csv").read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0]
    (d / "covariance.csv").write_text("\n".join(lines) + "\n")


def _renamed_column(d):
    text = (d / "covariance.csv").read_text()
    (d / "covariance.csv").write_text(text.replace("residual", "resid", 1))


def _text_cell(d):
    header, first, *rest = (d / "covariance.csv").read_text().splitlines()
    cells = first.split(",")
    cells[header.split(",").index("residual")] = "small"
    (d / "covariance.csv").write_text(
        "\n".join([header, ",".join(cells), *rest]) + "\n")


def _empty_table(d):
    (d / "covariance.csv").write_text("")


def _no_args(d):
    summary = json.loads((d / "summary.json").read_text())
    del summary["assertions"][0]["args"]
    (d / "summary.json").write_text(json.dumps(summary))


def _no_tables(d):
    summary = json.loads((d / "summary.json").read_text())
    del summary["tables"]
    (d / "summary.json").write_text(json.dumps(summary))


def _not_json(d):
    (d / "summary.json").write_text("not json\n")


def _escaping_table(d):
    shutil.copytree(d, d.parent / "outside")
    summary = json.loads((d / "summary.json").read_text())
    summary["tables"].append("../outside/covariance")
    summary["assertions"][0]["table"] = "../outside/covariance"
    (d / "summary.json").write_text(json.dumps(summary))


def _dot_dot_table(d):
    summary = json.loads((d / "summary.json").read_text())
    summary["tables"].append("..")
    (d / "summary.json").write_text(json.dumps(summary))


def _stored(*path):
    """An edit that sets the entry of summary.json at path, a list of keys
    and indices, to the value after it."""
    *path, key, value = path

    def edit(d):
        summary = json.loads((d / "summary.json").read_text())
        entry = summary
        for k in path:
            entry = entry[k]
        entry[key] = value
        (d / "summary.json").write_text(json.dumps(summary))
    return edit


@pytest.mark.parametrize("edit, named", [
    (_short_row, ["covariance.csv", "line 2"]),
    (_renamed_column, ["covariance.csv", "'residual'"]),
    (_text_cell, ["covariance.csv", "'residual'", "not all numbers"]),
    (_empty_table, ["covariance.csv", "no header"]),
    (_no_args, ["summary.json", "assertions[0].args is missing"]),
    (_stored("assertions", 0, "args", ["residual", "tol"]),
     ["summary.json", "assertions[0].args must be an object"]),
    (_no_tables, ["summary.json", "tables is missing"]),
    (_not_json, ["summary.json", "not JSON"]),
    (_escaping_table, ["summary.json", "tables[",
                       "'../outside/covariance' is not a plain file name"]),
    (_dot_dot_table, ["summary.json", "tables[",
                      "'..' is not a plain file name"]),
    (_stored("tables", "covariance"),
     ["summary.json", "tables must be a non-empty array"]),
    (_stored("assertions", 0, "hard", "no"),
     ["summary.json", "assertions[0].hard must be a boolean"]),
    (_stored("assertions", 0, "passed", "yes"),
     ["summary.json", "assertions[0].passed must be a boolean"]),
    (_stored("assertions", 5),
     ["summary.json", "assertions must be a non-empty array, got 5"]),
    (_stored("assertions", 0, None),
     ["summary.json", "assertions[0] must be an object, got null"]),
    (_stored("assertions", 0, "check", ["x"]),
     ["summary.json", "assertions[0].check must be a string"]),
    (_stored("assertions", 0, "table", {}),
     ["summary.json", "assertions[0].table must be a string"]),
    (_stored("assertions", 0, "args", {}),
     ["summary.json", "assertions[0].args.lhs is missing"]),
    (_stored("assertions", 0, "args", "lhs", 5),
     ["summary.json", "assertions[0].args.lhs must be a string, got 5"]),
], ids=["short-row", "renamed-column", "text-cell", "empty-table",
        "no-args", "list-args", "no-tables", "not-json", "escaping-table",
        "dot-dot-table", "string-tables", "string-hard", "string-passed",
        "number-assertions", "null-assertion", "list-check", "object-table",
        "empty-args", "number-column"])
def test_verify_of_a_malformed_run_exits_two_naming_it(stored_run, tmp_path,
                                                       capsys, edit, named):
    run_dir = tmp_path / "run"
    shutil.copytree(stored_run, run_dir)
    assert run_cli(capsys, "verify", str(run_dir))[0] == 0
    edit(run_dir)
    code, out, err = run_cli(capsys, "verify", str(run_dir))
    assert code == 2 and out == ""
    assert "argument dir:" in err and all(n in err for n in named), err


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
    assert "argument --config: trials is unknown" in err
    cfg.write_text('{"params": {"trils": 3}}')
    code, _, err = run_cli(capsys, "run", "isometry-sweep",
                           "--config", str(cfg))
    assert code == 2
    assert "argument --config: params.trils is unknown" in err
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
             "fixture.length", "must be a finite number > 0"),
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


@pytest.mark.parametrize("id, patch, named", [
    ("isometry-sweep", {"params": {"trials": -5}}, "params.trials"),
    ("isometry-sweep", {"params": {"tol": -1.0}}, "params.tol"),
    ("ambiguity-relation", {"fixture": {"length": 8.0, "count": 128}},
     "fixture.length and fixture.count: infeasible grid"),
    ("cheeger-trend", {"params": {"sweep": {"bogus": 3}}},
     "params.sweep: bogus"),
    ("cheeger-trend", {"params": {"sweep": {"thresholds": -4}}},
     "params.sweep: thresholds"),
    ("cheeger-gaussian", {"fixture": {"counts": []}}, "fixture.counts"),
    ("certificate-polynomial", {"params": {"stress_magnitudes": []}},
     "params.stress_magnitudes"),
    ("certificate-polynomial", {"params": {"pert_range": [0.08, 0.02]}},
     "params.pert_range"),
    ("prop21-gaussian-ratio", {"params": {"window_pin": [0]}},
     "params.window_pin"),
    ("prop21-gaussian-ratio", {"params": {"window_contains": [3, 2]}},
     "params.window_contains"),
    ("prop21-gaussian-ratio", {"params": {"window_pin": [0, 4]}},
     "params.window_pin must be a pair of rungs below params.n_max = 4"),
    ("prop21-gaussian-ratio", {"params": {"n_max": 3}},
     "params.window_contains must be a pair of rungs below params.n_max"),
    ("isometry-sweep", {"seed": -1}, "seed"),
    ("covariance-lattice", {"fixture": {"windows": ["gaussian",
                                                    "hermite:170"]}},
     "fixture.windows[1]: hermite order 170 does not decay"),
    ("covariance-lattice", {"fixture": {"windows": ["gaussian",
                                                    "hermite:400"]}},
     "fixture.windows[1]: hermite order 400 does not decay"),
    ("ambiguity-relation", {"fixture": {"signals": ["random",
                                                    "hermite:400"]}},
     "fixture.signals[1]: hermite order 400"),
    ("recover-noisy", {"fixture": {"window": "hermite:170"}},
     "fixture.window: hermite order 170"),
    ("connectivity-gluing", {"fixture": {"signal": "hermite:400"}},
     "fixture.signal: hermite order 400"),
    ("window-ratio", {"fixture": {"other": "hermite:170"}},
     "fixture.other: hermite order 170"),
], ids=["trials-negative", "tol-negative", "not-self-dual", "sweep-key",
        "sweep-negative", "counts-empty", "stress-empty", "pert-reversed",
        "pin-short", "contains-reversed", "pin-past-n-max",
        "contains-past-n-max", "seed-negative", "window-spreads",
        "window-overflows", "signal-overflows", "recover-window-spreads",
        "signal-overflows-gluing", "other-spreads"])
def test_run_refuses_a_bad_config_value_naming_it(tmp_path, capsys, id,
                                                  patch, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(patch))
    code, out, err = run_cli(capsys, "run", id, "--reduced",
                             "--config", str(cfg))
    assert code == 2 and out == ""
    assert f"argument --config: {named}" in err, err


def test_run_refuses_a_bad_seed_flag_naming_it(capsys):
    code, out, err = run_cli(capsys, "run", "isometry-sweep", "--seed", "-1")
    assert code == 2 and out == ""
    assert ("argument --seed: value must be an integer in "
            "[0, 18446744073709551616)") in err


def _outside(rule):
    """Numbers a numeric rule refuses: NaN, -inf, +inf unless the rule takes
    it, any past a bound, and any float where it wants an integer."""
    out = [st.sampled_from([math.nan, -math.inf]
                           + ([] if rule.infinite else [math.inf]))]
    if rule.integer:
        out.append(st.floats())
    if rule.lo > -math.inf:
        out.append(st.integers(max_value=math.ceil(rule.lo) - 1)
                   if rule.integer else
                   st.floats(max_value=rule.lo, exclude_max=not rule.open))
    if rule.hi < math.inf:
        out.append(st.integers(min_value=rule.hi) if rule.integer
                   else st.floats(min_value=rule.hi))
    return out


def _refused(rule):
    """Values a declared rule refuses: another JSON type, or out of range."""
    others = [None, True, "1", [1], {"a": 1}]
    if isinstance(rule, rules.Number):
        return st.one_of(st.sampled_from(others), *_outside(rule))
    if isinstance(rule, rules.List):
        out = [st.sampled_from(others[:3] + [{}, []]),
               st.lists(_refused(rule.item), min_size=1, max_size=3)]
        if rule.pair:
            item = st.integers(0, 50) if rule.item.integer else \
                st.floats(0.0, 50.0)
            out += [st.lists(item, max_size=4).filter(lambda v: len(v) != 2),
                    st.lists(item, min_size=2, max_size=2, unique=True)
                    .map(lambda v: sorted(v, reverse=True))]
        return st.one_of(out)
    if rule.kind is int:  # a grid count
        return st.one_of(st.sampled_from(others[:3] + [8.0, [8], {}]),
                         st.integers(max_value=7))
    if rule.kind is str:
        return st.sampled_from([None, 1, ["gaussian"], {}, "", "bogus",
                                "Gaussian", "hermite:", "hermite:x",
                                "hermite:-1", "hermite:1.5"])
    sweep_keys = st.sampled_from(["thresholds", "centers", "radii",
                                  "directions", "offsets"])
    return st.one_of(
        st.sampled_from([None, 1, "x", [], {"bogus": 1}, {"radii": True},
                         {"thresholds": 0, "directions": 0, "centers": 0}]),
        st.dictionaries(sweep_keys, st.integers(max_value=-1), min_size=1),
        st.dictionaries(sweep_keys, st.floats(), min_size=1))


def _bad_values(id: str, key: str):
    """Values of a registered fixture or parameter that check_manifest
    refuses: those its rule refuses, and grids that make_grid or the
    self-dual rule refuses."""
    bad = _refused(ex._RULES[key])
    if key in ("count", "counts"):
        grid = st.one_of(
            st.integers(4, MAX_COUNT // 2).map(lambda k: 2 * k + 1),
            st.integers(MAX_COUNT // 2 + 1, 10 ** 6).map(lambda k: 2 * k))
        bad = st.one_of(bad, grid.map(lambda c: c if key == "count" else [c]))
    if key == "length" and ex._REGISTRY[id].self_dual is not None:
        side = math.sqrt(ex.default_manifest(id, reduced=True).fixture["count"])
        bad = st.one_of(bad, st.floats(0.5, 100.0).filter(
            lambda v: abs(v - side) > 1e-3))
    return bad


# (id, patch, the field its refusal names): one fixture or parameter of a
# reduced manifest set to a value that check_manifest refuses
_BAD_PATCHES = st.one_of([
    _bad_values(id, key).map(
        lambda v, id=id, section=section, key=key:
        (id, {section: {key: v}}, f"{section}.{key}"))
    for id in ex.experiment_ids()
    for section in ("fixture", "params")
    for key in getattr(ex.default_manifest(id, reduced=True), section)])


@pytest.fixture(scope="module")
def config_paths(tmp_path_factory):
    """A new config file name for each example."""
    root = tmp_path_factory.mktemp("config")
    return (root / f"{i}.json" for i in itertools.count())


@settings(max_examples=300, deadline=None)
@given(case=_BAD_PATCHES)
def test_fuzz_a_refused_config_value_exits_two_naming_it(config_paths, case):
    id, patch, named = case
    path = next(config_paths)
    path.write_text(json.dumps(patch))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", id, "--reduced", "--config", str(path)])
    assert code == 2 and out.getvalue() == ""
    assert f"argument --config: {named}" in err.getvalue(), patch


_TOL = st.floats(1e-12, 1.0)
_SIGNALS = st.lists(st.sampled_from(["gaussian", "hermite:0", "hermite:2",
                                     "random"]), min_size=1, max_size=2)
# (id, patch) in range on the small experiments
_GOOD_PATCHES = st.one_of(
    st.fixed_dictionaries({"params": st.fixed_dictionaries(
        {"trials": st.integers(1, 3), "tol": _TOL}),
        "seed": st.integers(0, 2 ** 64 - 1)}).map(
        lambda p: ("isometry-sweep", p)),
    st.fixed_dictionaries({"fixture": st.fixed_dictionaries(
        {"windows": _SIGNALS.filter(lambda v: "random" not in v)}),
        "params": st.fixed_dictionaries(
            {"span": st.integers(0, 1), "stride": st.integers(1, 8),
             "tol": _TOL})}).map(lambda p: ("covariance-lattice", p)),
    st.fixed_dictionaries({"fixture": st.fixed_dictionaries(
        {"signals": _SIGNALS}), "params": st.fixed_dictionaries(
            {"tol": _TOL})}).map(lambda p: ("recover-noiseless", p)))


@settings(max_examples=25, deadline=None)
@given(case=_GOOD_PATCHES)
def test_fuzz_an_in_range_config_value_runs(config_paths, case):
    id, patch = case
    path = next(config_paths)
    path.write_text(json.dumps(patch))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["run", id, "--reduced", "--config", str(path)])
    assert code in (0, 1)


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
