import json

import pytest

from scrollcohom.cli import main
from scrollcohom.sweep import enumerate_family, record_key, run_sweep


def test_enumerate_family():
    scrolls = enumerate_family({"m": [1], "n": [1, 2], "a_min": 1, "a_max": 3})
    assert len(scrolls) == 6 + 10  # nondecreasing pairs / triples in [1,3]
    assert all(s.a == tuple(sorted(s.a)) for s in scrolls)


def test_record_key_stable():
    scrolls = enumerate_family({"m": [1], "n": [1], "a_min": 1, "a_max": 1})
    k1 = record_key(scrolls[0], "reg", {"sheaf": {"split": [[0, 0]]}})
    k2 = record_key(scrolls[0], "reg", {"sheaf": {"split": [[0, 0]]}})
    assert k1 == k2 and len(k1) == 64


def test_sweep_persists_and_caches(tmp_path):
    family = {"m": [1], "n": [1], "a_min": 1, "a_max": 2}
    out = run_sweep(family, ["compare", "reg"], {"split": [[0, 0]]}, (-1, 1), (-1, 1), str(tmp_path))
    assert out["fresh"] == out["cells"] > 0
    csv_first = (tmp_path / "summary.csv").read_bytes()
    again = run_sweep(family, ["compare", "reg"], {"split": [[0, 0]]}, (-1, 1), (-1, 1), str(tmp_path))
    assert again["fresh"] == 0 and again["cached"] == again["cells"]
    assert (tmp_path / "summary.csv").read_bytes() == csv_first
    recs = [json.loads(line) for line in (tmp_path / "records.jsonl").read_text().splitlines()]
    assert all(rec["result"].get("violations") == [] for rec in recs if rec["op"] == "compare")
    assert (tmp_path / "summary.csv").read_text().startswith("# schema=scrollcohom-sweep-v1")


def test_sweep_includes_hirzebruch_separation(tmp_path):
    family = {"m": [1], "n": [1], "a_min": 0, "a_max": 2}
    run_sweep(family, ["compare"], {"split": [[0, 0]]}, (-1, 1), (-1, 1), str(tmp_path))
    recs = [json.loads(line) for line in (tmp_path / "records.jsonl").read_text().splitlines()]
    f2 = [r for r in recs if r["scroll"]["a"] == [0, 2]]
    assert f2 and [0, 0] in f2[0]["result"]["separations"]
    assert all(r["result"]["violations"] == [] for r in recs)


def test_oversized_grid_rejected(tmp_path):
    family = {"m": [1], "n": [1], "a_min": 1, "a_max": 9}
    with pytest.raises(ValueError, match="over the"):
        run_sweep(family, ["cohom"], {"split": [[0, 0]]}, (-15, 15), (-15, 15), str(tmp_path))


def test_torn_record_is_recomputed(tmp_path, capsys):
    argv = ["sweep", "--family", '{"m":[1],"n":[1],"a_min":1,"a_max":2}', "--ops", "reg,compare",
            "--pbox=-1:1", "--qbox=-1:1", "--out", str(tmp_path)]
    records, csv = tmp_path / "records.jsonl", tmp_path / "summary.csv"

    def sweep():
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)["fresh"]

    sweep()
    csv_first = csv.read_bytes()
    # a crash mid-write leaves part of the last record and no newline
    lines = records.read_bytes().splitlines(keepends=True)
    records.write_bytes(b"".join(lines[:-1]) + lines[-1][:60])
    assert sweep() == 1
    assert csv.read_bytes() == csv_first
    # the recomputed record went on a line of its own, so it is now served from the store
    assert sweep() == 0
    assert csv.read_bytes() == csv_first


def test_sweep_reg_matches_cli_on_non_positive(tmp_path, capsys):
    family = {"m": [1], "n": [1], "a_min": 0, "a_max": 2}
    sheaf = {"split": [[0, 0]]}
    run_sweep(family, ["reg"], sheaf, (0, 0), (0, 0), str(tmp_path))
    recs = [json.loads(line) for line in (tmp_path / "records.jsonl").read_text().splitlines()]
    non_positive = [r for r in recs if min(r["scroll"]["a"]) <= 0]
    assert non_positive
    for rec in non_positive:
        assert main(["reg", "--scroll", json.dumps(rec["scroll"]), "--sheaf", json.dumps(sheaf)]) == 0
        assert rec["result"] == json.loads(capsys.readouterr().out)
        assert rec["result"]["monotone_verified"] is False
