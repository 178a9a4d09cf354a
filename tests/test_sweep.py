import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest

from scrollcohom import sweep
from scrollcohom.cli import main
from scrollcohom.scroll import Scroll, make_scroll
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


def test_repeated_ops_and_family_entries_run_once(tmp_path):
    # an op or a family entry given twice is one cell: one record, one CSV row
    out = run_sweep({"m": [1, 1], "n": [1], "a_min": 1, "a_max": 1}, ["reg", "reg"], {"split": [[0, 0]]},
                    (0, 0), (0, 0), str(tmp_path))
    assert (out["cells"], out["fresh"], out["cached"]) == (1, 1, 0)
    assert len((tmp_path / "records.jsonl").read_text().splitlines()) == 1
    assert len((tmp_path / "summary.csv").read_text().splitlines()) == 3  # comment, header, one row
    # repeats keep the order of first appearance
    family = {"m": [2, 1, 2], "n": [1, 0, 1], "a_min": 0, "a_max": 0}
    assert [(x.m, x.n) for x in enumerate_family(family)] == [(2, 1), (2, 0), (1, 1), (1, 0)]


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


def test_oversized_grid_is_refused_before_it_is_built(tmp_path):
    # 1,365 scrolls times 201 cohom cells: counted, not built
    family = {"m": [1, 2, 3], "n": [1, 2, 3, 4], "a_min": 1, "a_max": 6}
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="274365 cells"):
            run_sweep(family, ["cohom", "reg"], {"split": [[0, 0]]}, (0, 199), (0, 0), str(tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert not (tmp_path / "out").exists()


def test_unknown_op_is_refused_before_the_store(tmp_path):
    # the library and the CLI share one check and one message
    with pytest.raises(ValueError) as exc:
        run_sweep({"m": [1], "n": [1], "a_min": 1, "a_max": 2}, ["reg", "nope"], {"split": [[0, 0]]},
                  (0, 0), (0, 0), str(tmp_path / "out"))
    assert str(exc.value) == "unknown op 'nope'; choose from cohom, reg, compare"
    assert not (tmp_path / "out").exists()


def test_compare_cells_skip_the_scroll_where_h_is_zero(tmp_path):
    summary = run_sweep({"m": [1], "n": [0], "a_min": 0, "a_max": 1}, ["compare"], {"split": [[0, 0]]},
                        (-1, 1), (-1, 1), str(tmp_path))
    assert summary["cells"] == 1
    rows = (tmp_path / "summary.csv").read_text().splitlines()[2:]
    assert [row.split(",")[1:5] for row in rows] == [["1", "0", "1", "compare"]]


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
        assert "explicit-scan" not in rec["result"]["flags"]


def test_store_from_another_engine_is_recomputed(tmp_path, monkeypatch):
    args = ({"m": [1], "n": [1], "a_min": 0, "a_max": 2}, ["reg", "cohom"], {"split": [[0, 0]]},
            (0, 0), (0, 0), str(tmp_path))
    with monkeypatch.context() as m:
        m.setattr(sweep, "ENGINE_TAG", "scrollcohom-older")
        first = run_sweep(*args)
    again = run_sweep(*args)
    assert again["fresh"] == again["cells"] == first["cells"] > 0


def test_sweep_csv_is_replaced_whole(tmp_path, monkeypatch):
    args = ({"m": [1], "n": [1], "a_min": 1, "a_max": 2}, ["reg"], {"split": [[0, 0]]},
            (0, 0), (0, 0), str(tmp_path))
    run_sweep(*args)
    csv = tmp_path / "summary.csv"
    csv_first = csv.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl", "summary.csv"]

    def torn_write(path, text):  # a crash after part of the text reached the disk
        with open(path, "w") as fh:
            fh.write(text[:20])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", torn_write)
    with pytest.raises(OSError, match="disk full"):
        run_sweep(*args)
    assert csv.read_bytes() == csv_first
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl", "summary.csv"]


def test_record_key_golden():
    # the key addresses stored records, so its value must not drift with the code that builds it
    scroll = make_scroll(1, 2, [0, 1, 3])
    inputs = {"sheaf": {"split": [[0, 0], [1, -1]]}, "twist": [2, -1]}
    assert record_key(scroll, "cohom", inputs) == \
        "2a7c621c1d2c02dffca13bddf82a5b9928551d74b7988659afc48b387e76ebac"


SMALL_SWEEP = ({"m": [1], "n": [1, 2], "a_min": 1, "a_max": 2}, ["reg", "cohom"], {"split": [[0, 0]]},
               (0, 1), (0, 0))


def _store(tmp_path):
    return [json.loads(line) for line in (tmp_path / "records.jsonl").read_text().splitlines()]


def _append(tmp_path, *texts):
    with (tmp_path / "records.jsonl").open("a") as fh:
        fh.write("".join(texts))


def test_only_demanded_lines_are_parsed(tmp_path, monkeypatch):
    first = run_sweep(*SMALL_SWEEP, str(tmp_path))
    csv_first = (tmp_path / "summary.csv").read_bytes()
    template = _store(tmp_path)[0]
    unrelated = [dict(template, key=hashlib.sha256(str(i).encode()).hexdigest()) for i in range(1000)]
    _append(tmp_path, *(sweep.canon_json(rec) + "\n" for rec in unrelated))
    parsed, real_loads = [], json.loads

    def spy(text, *args, **kwargs):
        parsed.append(text)
        return real_loads(text, *args, **kwargs)

    monkeypatch.setattr(sweep.json, "loads", spy)
    again = run_sweep(*SMALL_SWEEP, str(tmp_path))
    monkeypatch.undo()
    assert again["fresh"] == 0 and again["cells"] == first["cells"] == len(parsed)
    wanted = {rec["key"] for rec in _store(tmp_path)[:first["cells"]]}
    assert {json.loads(text)["key"] for text in parsed} == wanted
    assert (tmp_path / "summary.csv").read_bytes() == csv_first


def test_key_inside_the_inputs_does_not_hide_the_record(tmp_path):
    # the sheaf's own "key" field comes before the record's key in a canonical line
    other = record_key(make_scroll(1, 1, [1, 1]), "reg", {"sheaf": {"split": [[0, 0]]}})
    args = ({"m": [1], "n": [1], "a_min": 0, "a_max": 2}, ["reg", "cohom", "compare"],
            {"key": other, "split": [[0, 0]]}, (-1, 1), (-1, 1), str(tmp_path))
    first = run_sweep(*args)
    assert all(f'"key":"{other}"' in line for line in (tmp_path / "records.jsonl").read_text().splitlines())
    # the sweep builds each key from canonical strings; record_key from the objects
    assert all(rec["key"] == record_key(Scroll.from_json(rec["scroll"]), rec["op"], rec["inputs"])
               for rec in _store(tmp_path))
    assert run_sweep(*args)["fresh"] == 0 < first["fresh"]


def _edited(rec, **fields):
    return sweep.canon_json(dict(rec, **fields)) + "\n"


def test_later_valid_line_wins(tmp_path):
    run_sweep(*SMALL_SWEEP, str(tmp_path))
    rec = next(r for r in _store(tmp_path) if r["op"] == "reg")
    _append(tmp_path, _edited(rec, result=dict(rec["result"], reg=99)))
    assert run_sweep(*SMALL_SWEEP, str(tmp_path))["fresh"] == 0
    assert (tmp_path / "summary.csv").read_text().count("reg=99") == 1


def test_torn_newest_line_falls_back_to_older(tmp_path):
    run_sweep(*SMALL_SWEEP, str(tmp_path))
    csv_first = (tmp_path / "summary.csv").read_bytes()
    rec = next(r for r in _store(tmp_path) if r["op"] == "reg")
    _append(tmp_path, _edited(rec, result=dict(rec["result"], reg=99))[:-20])
    assert run_sweep(*SMALL_SWEEP, str(tmp_path))["fresh"] == 0
    assert (tmp_path / "summary.csv").read_bytes() == csv_first


@pytest.mark.parametrize("field, value", [("inputs", {"sheaf": {"split": [[1, 0]]}}),
                                          ("scroll", {"m": 1, "n": 1, "a": [2, 2]}),
                                          ("op", "compare")])
def test_record_with_edited_contents_is_recomputed(tmp_path, field, value):
    # a line whose key was kept but whose cell was changed, by hand or by a copy from another cell
    run_sweep(*SMALL_SWEEP, str(tmp_path))
    csv_first = (tmp_path / "summary.csv").read_bytes()
    lines = (tmp_path / "records.jsonl").read_text().splitlines(keepends=True)
    k = next(i for i, line in enumerate(lines) if json.loads(line)["op"] == "reg")
    lines[k] = _edited(json.loads(lines[k]), **{field: value})
    (tmp_path / "records.jsonl").write_text("".join(lines))
    assert run_sweep(*SMALL_SWEEP, str(tmp_path))["fresh"] == 1
    assert (tmp_path / "summary.csv").read_bytes() == csv_first
