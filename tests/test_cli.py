import json
import time

import pytest

from scrollcohom.cli import main

SCROLL = '{"m":1,"n":1,"a":[1,2]}'
F2 = '{"m":1,"n":1,"a":[0,2]}'
H0 = '{"m":1,"n":0,"a":[0]}'  # P(O(0)) over P^1, where H = 0
O = '{"split":[[0,0]]}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cohom_paper_value(capsys):
    code, out, _ = run(capsys, "cohom", "--scroll", SCROLL, "--sheaf", O, "--twist=-2,1")
    assert code == 0 and json.loads(out) == {"h": [0, 0, 1]}


def test_cohom_oracle_flag_agrees(capsys):
    code, out, _ = run(capsys, "cohom", "--scroll", SCROLL, "--sheaf", O, "--twist=-3,1", "--oracle")
    assert code == 0 and json.loads(out) == {"h": [0, 0, 5]}
    code, out2, _ = run(capsys, "cohom", "--scroll", SCROLL, "--sheaf", O, "--twist=-3,1")
    assert json.loads(out2) == json.loads(out)


def test_cohom_omega(capsys):
    code, out, _ = run(capsys, "cohom", "--scroll", SCROLL, "--sheaf", '{"omega":{"i":1,"twist":[0,0]}}')
    assert code == 0 and json.loads(out) == {"h": [0, 1, 0]}


def test_reg_non_positive_is_exact(capsys):
    code, out, _ = run(capsys, "reg", "--scroll", F2, "--sheaf", O)
    assert code == 0
    assert out == '{"flags":[],"monotone_verified":true,"reg":0,"scan":[-1,0]}\n'


def test_reg_positive(capsys):
    code, out, _ = run(capsys, "reg", "--scroll", SCROLL, "--sheaf", O)
    assert code == 0 and json.loads(out)["reg"] == 0


def test_pqreg_and_msreg(capsys):
    code, out, _ = run(capsys, "pqreg", "--scroll", SCROLL, "--sheaf", O, "--at", "0,0")
    assert code == 0 and json.loads(out)["verdict"] is True
    code, out, _ = run(capsys, "msreg", "--scroll", F2, "--sheaf", O, "--at", "0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is False
    assert payload["failures"][0]["twist"] == [-2, 0]


def test_compare(capsys):
    code, out, _ = run(capsys, "compare", "--scroll", F2, "--sheaf", O, "--pbox=-1:1", "--qbox=-1:1")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and [0, 0] in payload["separations"]


def test_split(capsys):
    code, out, _ = run(capsys, "split", "--scroll", SCROLL, "--sheaf", '{"split":[[0,1]]}',
                       "--theorem", "2.1")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is False
    assert payload["witnesses"][0] == {"condition": "a", "t": -2, "indices": [0],
                                       "twist": [-2, 2], "side": "E", "h": 1}


def test_split_classification(capsys):
    code, out, _ = run(capsys, "split", "--scroll", SCROLL, "--sheaf", '{"split":[[1,-1]]}',
                       "--theorem", "2.3")
    payload = json.loads(out)
    assert code == 0 and payload["conclusion"] == "O(H-F)"
    assert payload["reg"]["reg"] == 0


def test_oracle_listing(capsys):
    code, out, _ = run(capsys, "oracle", "--scroll", F2, "--twist=-2,0", "--row", "2")
    assert code == 0
    assert json.loads(out) == {"row": 2, "count": 1,
                               "characters": [{"alpha": [-1, -1], "beta": [-1, -1]}]}


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--scroll", SCROLL, "--sheaf", O,
                       "--pbox", "0:1", "--qbox", "0:0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,q,h0,h1,h2"
    assert lines[1] == "0,0,1,0,0"
    assert lines[2] == "1,0,5,0,0"


def test_usage_errors(capsys):
    code, _, err = run(capsys, "cohom", "--scroll", "oops", "--sheaf", O)
    assert code == 2 and "JSON" in err
    code, _, err = run(capsys, "split", "--scroll", F2, "--sheaf", O, "--theorem", "2.1")
    assert code == 1  # precondition violation surfaces as computation error
    with pytest.raises(SystemExit) as exc:
        main(["split", "--scroll", SCROLL, "--sheaf", O, "--theorem", "7.7"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["cohom", "--scroll", SCROLL, "--sheaf", '{"omega":{"i":1}}'],
    ["cohom", "--scroll", SCROLL, "--sheaf", '{"omega":{"twist":[0,0]}}'],
    ["cohom", "--scroll", SCROLL, "--sheaf", '{"omega":5}'],
    ["cohom", "--scroll", SCROLL, "--sheaf", '{"split":5}'],
    ["sweep", "--family", '{"m":[1],"n":[1]}'],
    ["sweep", "--family", "[1]"],
])
def test_malformed_descriptor_is_an_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1 and err.startswith("error: ") and "must look like" in err


@pytest.mark.parametrize("bad", [1.5, True, "1"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("place", ["divisor-class", "scroll", "omega-index", "family"])
def test_non_integer_json_field_is_an_error(capsys, tmp_path, place, bad):
    v = json.dumps(bad)
    argv = {
        "divisor-class": ["cohom", "--scroll", SCROLL, "--sheaf", f'{{"split":[[0,{v}]]}}'],
        "scroll": ["cohom", "--scroll", f'{{"m":1,"n":1,"a":[1,{v}]}}', "--sheaf", O],
        "omega-index": ["cohom", "--scroll", SCROLL, "--sheaf", f'{{"omega":{{"i":{v},"twist":[0,0]}}}}'],
        "family": ["sweep", "--family", f'{{"m":[1],"n":[1],"a_min":1,"a_max":{v}}}',
                   "--out", str(tmp_path / "out")],
    }[place]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "must be an integer" in err
    assert not (tmp_path / "out").exists()


def test_verify_keeps_going_when_a_suite_raises(capsys, monkeypatch):
    from scrollcohom import verify

    def broken():
        raise RuntimeError("boom")

    for name in verify.SUITES:  # cheap stand-ins; the real suites run in test_verify_suites
        monkeypatch.setitem(verify.SUITES, name, lambda name=name: [verify.CheckResult(name, "stub", True)])
    monkeypatch.setitem(verify.SUITES, "koszul", broken)
    code, out, _ = run(capsys, "verify")
    lines = out.splitlines()
    assert code == 1
    assert "FAIL koszul/suite-raised  [RuntimeError: boom]" in lines
    assert [f"PASS {name}/stub" for name in verify.SUITES if name != "koszul"] == \
        [line for line in lines if line.startswith("PASS")]
    assert lines[-1] == f"CHECKS FAILED ({len(verify.SUITES) - 1}/{len(verify.SUITES)})"


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "scroll-core")
    assert code == 0
    assert "PASS scroll-core/serre-dual-involution" in out


@pytest.mark.parametrize("argv, code, says", [
    (["reg", "--scroll", SCROLL, "--sheaf", O, "--scan", "5:1"], 2, "--scan must have lo <= hi"),
    (["compare", "--scroll", F2, "--sheaf", O, "--pbox=2:-2", "--qbox=-1:1"], 2, "--pbox must have lo <= hi"),
    (["compare", "--scroll", F2, "--sheaf", O, "--pbox=-1:1", "--qbox=1:-1"], 2, "--qbox must have lo <= hi"),
    (["table", "--scroll", SCROLL, "--sheaf", O, "--pbox", "3:1", "--qbox", "0:0"], 2, "--pbox must have lo <= hi"),
    (["sweep", "--family", '{"m":[1],"n":[1],"a_min":1,"a_max":2}', "--pbox", "1:0"], 2,
     "--pbox must have lo <= hi"),
    (["sweep", "--family", '{"m":[1],"n":[1],"a_min":3,"a_max":1}'], 1, "family needs a_min <= a_max"),
    # other refused input, each message naming the fault
    (["split", "--scroll", SCROLL, "--sheaf", '{"omega":{"i":2,"twist":[0,0]}}', "--theorem", "2.2"], 1,
     "cotangent power index 2 out of range"),
    (["split", "--scroll", SCROLL, "--sheaf", '{"omega":{"i":-1,"twist":[0,0]}}', "--theorem", "2.2"], 1,
     "cotangent power index -1 out of range"),
    (["split", "--scroll", '{"m":2,"n":1,"a":[1,3]}', "--sheaf", O, "--theorem", "c2.5"], 1,
     "need base dimension 1"),
    (["compare", "--scroll", H0, "--sheaf", O, "--pbox=-1:1", "--qbox=-1:1"], 1, "compare needs H != 0"),
    (["cohom", "--scroll", SCROLL, "--sheaf", O, "--twist=a,b"], 2, "--twist must look like"),
    (["cohom", "--scroll", SCROLL, "--sheaf", '{"omega":{"i":1,"twist":[0,0]}}', "--oracle"], 2,
     "split sheaves only"),
    (["verify", "--suite", "nope"], 2, "unknown suite 'nope'"),
    (["sweep", "--family", '{"m":[1],"n":[1],"a_min":1,"a_max":2}', "--ops", "nope"], 2, "unknown op 'nope'"),
], ids=["reg-scan", "compare-pbox", "compare-qbox", "table-pbox", "sweep-pbox", "sweep-family",
        "omega-index-high", "omega-index-low", "rns-form-m2", "compare-h-zero", "twist", "oracle-omega",
        "verify-suite", "sweep-op"])
def test_reversed_range_is_an_error(capsys, tmp_path, argv, code, says):
    out_dir = tmp_path / "out"
    if argv[0] == "sweep":
        argv = argv + ["--out", str(out_dir)]
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("usage error: " if code == 2 else "error: ") and says in err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, want", [
    (["reg", "--scroll", H0, "--sheaf", '{"split":[[0,5]]}'],
     '{"flags":["no-condition-can-fail"],"monotone_verified":true,"reg":null,"scan":[0,0]}'),
    (["split", "--scroll", '{"m":1,"n":3,"a":[1,1,1,1]}', "--sheaf", '{"omega":{"i":2,"twist":[3,-3]}}',
      "--theorem", "c2.7"],
     '{"cases":[{"case":"iv","conclusion":"Omega^2<3,-3>","h":1,"i":2}],"conclusion":"Omega^2<3,-3>",'
     '"reg":{"flags":[],"monotone_verified":true,"reg":0,"scan":[-1,0]},"theorem":"c2.7","verdict":true,'
     '"witnesses":[]}'),
    (["table", "--scroll", SCROLL, "--sheaf", O, "--pbox", "0:1", "--qbox", "0:0", "--fmt", "json"],
     '{"rows":[{"h":[1,0,0],"p":0,"q":0},{"h":[5,0,0],"p":1,"q":0}],"scroll":{"a":[1,2],"m":1,"n":1},'
     '"sheaf":{"split":[[0,0]]}}'),
    (["split", "--scroll", SCROLL, "--sheaf", '{"split":[[-2,0]]}', "--theorem", "2.3"],
     '{"cases":[{"case":"i","conclusion":"O","h":12,"i":null}],"conclusion":"O",'
     '"precondition_failures":["Reg(E) = 2, hypothesis needs 0"],'
     '"reg":{"flags":[],"monotone_verified":true,"reg":2,"scan":[1,2]},"theorem":"2.3","verdict":false,'
     '"witnesses":[]}'),
    (["compare", "--scroll", '{"m":1,"n":0,"a":[1]}', "--sheaf", O, "--pbox=-1:0", "--qbox=0:1"],
     '{"ok":true,"points":[[-1,0,false,false],[-1,1,true,true],[0,0,true,true],[0,1,true,true]],'
     '"separations":[],"violations":[]}'),
], ids=["reg-h-zero", "split-c2.7-cotangent", "table-json", "split-2.3-reg-2", "compare-n0-h-nonzero"])
def test_exact_stdout(capsys, argv, want):
    assert run(capsys, *argv) == (0, want + "\n", "")


def test_shared_parser_gives_identical_runs(capsys):
    # the parser is built once per process; a usage error in between must
    # leave nothing behind that changes the next run
    from scrollcohom.cli import build_parser

    valid = ["split", "--scroll", SCROLL, "--sheaf", '{"omega":{"i":1,"twist":[2,-2]}}', "--theorem", "2.2"]
    first = run(capsys, *valid)
    with pytest.raises(SystemExit) as exc:
        main(["split", "--scroll", SCROLL, "--sheaf", O, "--theorem", "7.7"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert run(capsys, "reg", "--scroll", SCROLL, "--sheaf", O, "--scan", "5:1")[0] == 2
    assert run(capsys, *valid) == first
    assert first[0] == 0 and first[2] == ""
    assert build_parser() is build_parser()


@pytest.mark.parametrize("sheaf, twist", [(O, "1000000,0"), (O, "-1000000,0"),
                                          ('{"omega":{"i":1,"twist":[0,0]}}', "1000000,0")],
                         ids=["line", "serre-dual", "omega"])
def test_oversized_twist_is_refused_quickly(capsys, sheaf, twist):
    # the symmetric-power table would need terabytes; it is refused up front
    t0 = time.process_time()
    code, out, err = run(capsys, "cohom", "--scroll", SCROLL, "--sheaf", sheaf, f"--twist={twist}")
    assert time.process_time() - t0 < 1
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "budget" in err


def test_wide_table_is_refused_by_bytes(capsys):
    # Sym^3000 at n = 24 with a_n - a_0 = 1: 9*10^6 cells of 25-byte fields
    scroll = json.dumps({"m": 1, "n": 24, "a": [1] * 24 + [2]})
    t0 = time.process_time()
    code, out, err = run(capsys, "cohom", "--scroll", scroll, "--sheaf", O, "--twist=3000,0")
    assert time.process_time() - t0 < 1
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "budget" in err


def test_row_wide_enough_for_the_base_sum_is_refused(capsys):
    # Sym^5000 on O(1)+O(2): 5001^2 cells.  Its counts fit in 2-byte fields
    # (50,020,002 B, under the budget), but the m+1 rounds of sums over P^1
    # reach 5001^2 and need 4-byte fields (100,040,004 B)
    code, out, err = run(capsys, "cohom", "--scroll", SCROLL, "--sheaf", O, "--twist=5000,0")
    assert code == 1 and out == ""
    assert err == ("error: Sym^5000 on this scroll needs at least 100040004 table bytes, "
                   "over the budget of 60000000\n")


@pytest.mark.parametrize("argv", [
    ["oracle", "--scroll", SCROLL, "--twist=100000,0"],
    ["oracle", "--scroll", SCROLL, "--twist=100000,0", "--row", "0"],
    ["oracle", "--scroll", SCROLL, "--twist=-100000,0", "--row", "2"],
    ["cohom", "--scroll", SCROLL, "--sheaf", O, "--twist=100000,0", "--oracle"],
], ids=["oracle", "oracle-row", "oracle-row-top", "cohom-oracle"])
def test_oversized_oracle_listing_is_refused_quickly(capsys, argv):
    # the character listing is bounded from binomial counts before it starts
    t0 = time.process_time()
    code, out, err = run(capsys, *argv)
    assert time.process_time() - t0 < 1
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "budget" in err


@pytest.mark.parametrize("argv", [
    ["table", "--scroll", SCROLL, "--sheaf", O, "--pbox=0:0", "--qbox=-100000:100000", "--fmt", "json"],
    ["compare", "--scroll", F2, "--sheaf", O, "--pbox=-200:200", "--qbox=-200:200"],
    ["sweep", "--family", '{"m":[1],"n":[1],"a_min":1,"a_max":1}', "--ops", "compare",
     "--pbox=-200:200", "--qbox=-200:200"],
], ids=["table", "compare", "sweep-compare"])
def test_oversized_box_is_refused_quickly(capsys, tmp_path, argv):
    if argv[0] == "sweep":
        argv = argv + ["--out", str(tmp_path / "out")]
    t0 = time.process_time()
    code, out, err = run(capsys, *argv)
    assert time.process_time() - t0 < 1
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "20000 limit" in err
    assert not (tmp_path / "out").exists()


def test_box_at_the_limit_is_accepted(capsys):
    code, out, _ = run(capsys, "table", "--scroll", SCROLL, "--sheaf", O, "--pbox=0:0", "--qbox=-9999:10000")
    assert code == 0 and len(out.splitlines()) == 20001
