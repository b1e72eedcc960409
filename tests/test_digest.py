"""tools/digest.py on one reduced run: a directory agrees with itself, a
flipped CSV byte is named with its file and line, and the run's cost is
recorded beside the digest. On two hand-written tables: how far a CSV
moved, in numbers and in text."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("digest",
                                               ROOT / "tools" / "digest.py")
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


def test_digest_names_a_flipped_csv_byte_with_its_line(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    got = digest.run_all(ROOT, a, ids=["isometry-sweep"], seeds=(3,),
                         sizes=("reduced",))
    assert sorted(got) == ["isometry-sweep/seed3-reduced/isometry.csv",
                           "isometry-sweep/seed3-reduced/summary.json"]
    assert digest.compare(a, a) == []
    timing = json.loads((a / "timing.json").read_text())
    assert list(timing) == ["isometry-sweep/seed3-reduced"]
    cost = timing["isometry-sweep/seed3-reduced"]
    assert sorted(cost) == ["peak_rss_mb", "wall_s"]
    assert all(v > 0 for v in cost.values()), cost
    assert digest.main(["--compare", str(a), str(a)]) == 0

    # the run directory's path and wall time stay out of the digest
    shutil.copytree(a, b)
    assert digest.write_digest(b) == got
    table = b / "isometry-sweep" / "seed3-reduced" / "isometry.csv"
    lines = table.read_bytes().splitlines(keepends=True)
    row = bytearray(lines[2])
    row[0] ^= 1
    lines[2] = bytes(row)
    table.write_bytes(b"".join(lines))
    digest.write_digest(b)
    # the flip turns trial 1 into trial 0
    report = ["isometry-sweep/seed3-reduced/isometry.csv: differs from "
              "line 3; largest relative change 1"]
    assert digest.compare(a, b) == report
    capsys.readouterr()
    assert digest.main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == report


def _table_dir(root: Path, text: str) -> Path:
    (root / "run").mkdir(parents=True)
    (root / "run" / "cheeger.csv").write_text(text)
    digest.write_digest(root)
    return root


def test_compare_says_how_far_a_csv_moved(tmp_path):
    head = "family,value,feasible\n"
    a = _table_dir(tmp_path / "a", head + "halfplane,2.0,True\n"
                                          "disk,3.0,False\n")
    b = _table_dir(tmp_path / "b", head + "halfplane,2.0000000000004,True\n"
                                          "diskc,3.0,False\n")
    assert digest.compare(a, b) == [
        "run/cheeger.csv: differs from line 2; largest relative change "
        "2e-13; text differs: family at line 3"]
    c = _table_dir(tmp_path / "c", head + "halfplane,2.0,True\n")
    assert digest.compare(a, c) == [
        "run/cheeger.csv: differs from line 3; the tables differ in shape"]
