"""tools/digest.py on one reduced run: a directory agrees with itself, a
flipped CSV byte is named with its file and line, and the run's cost is
recorded beside the digest."""

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
    report = ["isometry-sweep/seed3-reduced/isometry.csv: differs from "
              "line 3"]
    assert digest.compare(a, b) == report
    capsys.readouterr()
    assert digest.main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == report
