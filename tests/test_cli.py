import json
import time

import pytest

from scrollcohom import DivClass
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
    (["sweep", "--family", '{"m":[1],"n":[1],"a_min":1,"a_max":2}', "--ops", "reg", "--sheaf", '{"bad":1}'], 1,
     "sheaf descriptor must look like"),
], ids=["reg-scan", "compare-pbox", "compare-qbox", "table-pbox", "sweep-pbox", "sweep-family",
        "omega-index-high", "omega-index-low", "rns-form-m2", "compare-h-zero", "twist", "oracle-omega",
        "verify-suite", "sweep-op", "sweep-sheaf"])
def test_reversed_range_is_an_error(capsys, tmp_path, argv, code, says):
    out_dir = tmp_path / "out"
    if argv[0] == "sweep":
        argv = argv + ["--out", str(out_dir)]
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("usage error: " if code == 2 else "error: ") and says in err
    assert not out_dir.exists()


def test_pieces_spelling_reaches_the_splitting_criteria(capsys):
    # Omega^1(2,-1) + O(1,0), as the library's SheafSpec of those pieces gives it
    from scrollcohom import SheafSpec, check_theorem, make_scroll
    from scrollcohom.sweep import canon_json

    sheaf = '{"pieces":[[1,[2,-1]],[0,[1,0]]]}'
    code, out, err = run(capsys, "split", "--scroll", '{"m":1,"n":2,"a":[1,1,2]}', "--sheaf", sheaf,
                         "--theorem", "2.1")
    spec = SheafSpec(((1, DivClass(2, -1)), (0, DivClass(1, 0))))
    assert (code, err) == (0, "")
    assert out == canon_json(check_theorem(make_scroll(1, 2, [1, 1, 2]), spec, "2.1").to_json()) + "\n"
    assert json.loads(out)["window"] == [-4, 0]
    code, out, err = run(capsys, "cohom", "--scroll", '{"m":1,"n":2,"a":[1,1,2]}', "--sheaf", sheaf, "--oracle")
    assert (code, out) == (2, "") and "split sheaves only" in err


@pytest.mark.parametrize("sheaf, says", [
    ('{"pieces":5}', "sheaf descriptor must look like"),
    ('{"pieces":null}', "sheaf descriptor must look like"),
    ('{"pieces":[1]}', "a sheaf piece must be an [i, [p, q]] pair, got 1"),
    ('{"pieces":[[1]]}', "a sheaf piece must be an [i, [p, q]] pair, got [1]"),
    ('{"pieces":[[1,[0,0],3]]}', "a sheaf piece must be an [i, [p, q]] pair"),
    ('{"pieces":[["a",[0,0]]]}', "piece index i must be an integer"),
    ('{"pieces":[[1,[0]]]}', "divisor class must be a two-element array"),
    ('{"pieces":[]}', "at least one summand"),
    ('{"pieces":[[7,[0,0]]]}', "cotangent power index 7 out of range"),
], ids=["number", "null", "bare-int", "short", "long", "index", "twist", "empty", "index-range"])
def test_malformed_pieces_are_an_error(capsys, sheaf, says):
    code, out, err = run(capsys, "cohom", "--scroll", SCROLL, "--sheaf", sheaf)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and says in err and err.count("\n") == 1


# per subcommand: its own arguments, the same with one of them malformed
# (None: nothing of its own to malform), and the message that one gives
OWN_ARGS = {
    "cohom": ([], ["--twist=a,b"], "--twist must look like"),
    "table": (["--pbox=0:1", "--qbox=0:0"], ["--pbox=x", "--qbox=0:0"], "--pbox must look like"),
    "reg": ([], ["--scan=x"], "--scan must look like"),
    "pqreg": (["--at=0,0"], ["--at=x"], "--at must look like"),
    "msreg": (["--at=0,0"], ["--at=x"], "--at must look like"),
    "compare": (["--pbox=0:1", "--qbox=0:0"], ["--pbox=0:1", "--qbox=x"], "--qbox must look like"),
    "split": (["--theorem", "2.1"], None, None),
    "oracle": (["--twist=0,0"], ["--twist=x"], "--twist must look like"),
}


@pytest.mark.parametrize("command", OWN_ARGS)
def test_shared_arguments_are_read_scroll_then_sheaf_then_own(capsys, command):
    own, bad_own, says = OWN_ARGS[command]
    has_sheaf = command != "oracle"

    def argv(scroll, sheaf):
        return [command, "--scroll", scroll] + (["--sheaf", sheaf] if has_sheaf else []) + (bad_own or own)

    cases = [(argv("oops", "oops"), "malformed JSON for --scroll")]
    if has_sheaf:
        cases.append((argv(SCROLL, "oops"), "malformed JSON for --sheaf"))
    if bad_own:
        cases.append((argv(SCROLL, O), says))
    for args, message in cases:
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, "") and err.startswith("usage error: ") and message in err


@pytest.mark.parametrize("command", list(OWN_ARGS) + ["verify", "sweep"])
def test_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and out.startswith(f"usage: scrollcohom {command} ")
    assert ('"m":1,"n":1,"a":[1,2]' in out) == (command in OWN_ARGS)


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


@pytest.mark.parametrize("sheaf, twist, want", [
    (O, "1000000,0", '{"h":[1500002500001,0,0]}\n'),
    (O, "-1000000,0", '{"h":[0,0,1499997500001]}\n'),
    ('{"omega":{"i":1,"twist":[0,0]}}', "1000000,0", '{"h":[1499999499999,0,0]}\n'),
    (O, "1000000,-1000005", '{"h":[499996500006,10,0]}\n')], ids=["line", "serre-dual", "omega", "short-side"])
def test_oversized_twist_is_refused_quickly(capsys, sheaf, twist, want):
    # at p = 10^6 a line bundle, its Serre dual and Omega^1 have an empty
    # side, so chi, whose series stops at min(m, p) = 1, is the table (for
    # Omega^1 the Riemann-Roch value); O(10^6 H - (10^6+5) F) has four
    # twists below -1, and its h^1 side is a row of N_m + 1 = 4 fields
    t0 = time.process_time()
    code, out, err = run(capsys, "cohom", "--scroll", SCROLL, "--sheaf", sheaf, f"--twist={twist}")
    assert time.process_time() - t0 < 0.01
    assert (code, out, err) == (0, want, "")


def test_oversized_series_is_refused_quickly(capsys):
    # O(20000H) over P^20000 lies outside the band, but the series up to
    # min(m, p) = 20000 would need 20001^2 fields; it is refused before any is built
    t0 = time.process_time()
    code, out, err = run(capsys, "cohom", "--scroll", json.dumps({"m": 20000, "n": 1, "a": [1, 2]}),
                         "--sheaf", O, "--twist=20000,0")
    assert time.process_time() - t0 < 1
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "budget" in err and "Traceback" not in err


WIDE_BASE = json.dumps({"m": 200000, "n": 1, "a": [1, 2]})
WIDE_FIBER = json.dumps({"m": 1, "n": 547, "a": list(range(1, 549))})


@pytest.mark.parametrize("theorem", ["2.1", "2.2", "2.3", "c2.5", "c2.6", "c2.7"])
def test_oversized_criterion_family_is_refused_quickly(capsys, theorem):
    # every criterion sizes its conditions before it builds them, the
    # subset-indexed ones from a bound on the distinct a_I; the m = 1 forms
    # are refused on a wide fibre, the others on a wide base too
    for scroll in ([WIDE_FIBER] if theorem.startswith("c") else [WIDE_BASE, WIDE_FIBER]):
        t0 = time.process_time()
        code, out, err = run(capsys, "split", "--scroll", scroll, "--sheaf", O, "--theorem", theorem)
        assert time.process_time() - t0 < 1
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "budget" in err


@pytest.mark.parametrize("m", [10**7, 10**19], ids=["ten-million", "past-an-index"])
@pytest.mark.parametrize("cmd", ["cohom", "table", "oracle", "sweep"])
def test_huge_base_dimension_is_refused_by_the_table_budget(capsys, tmp_path, cmd, m):
    # every table has dim + 1 cells: the scroll is refused where it is built,
    # before a table of them is allocated or a store touched
    scroll = json.dumps({"m": m, "n": 1, "a": [1, 2]})
    argv = {"cohom": ["cohom", "--scroll", scroll, "--sheaf", O, "--twist=1,0"],
            "table": ["table", "--scroll", scroll, "--sheaf", O, "--pbox=0:0", "--qbox=0:0"],
            "oracle": ["oracle", "--scroll", scroll, "--twist=0,0"],
            "sweep": ["sweep", "--family", json.dumps({"m": [m], "n": [1], "a_min": 1, "a_max": 2}),
                      "--ops", "cohom", "--pbox=0:0", "--qbox=0:0", "--out", str(tmp_path / "store")]}[cmd]
    t0 = time.process_time()
    code, out, err = run(capsys, *argv)
    assert time.process_time() - t0 < 1
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "budget" in err and "Traceback" not in err
    assert not (tmp_path / "store").exists()


def test_oracle_on_a_wide_base_answers(capsys):
    # one base variable per part of a weak composition: 1001 of them must
    # not reach the interpreter's recursion limit
    t0 = time.process_time()
    code, out, err = run(capsys, "oracle", "--scroll", '{"m":1000,"n":1,"a":[1,2]}', "--twist=0,0")
    assert time.process_time() - t0 < 5
    assert code == 0 and err == ""
    assert json.loads(out)["h"] == [1] + [0] * 1001


def test_omega_hook_builds_only_the_subset_sizes_it_reads(capsys):
    # Omega^1 reads the a_I histograms of |I| <= 1 only; every size on 201
    # spread twists would take O(n^4) dictionary updates
    scroll = json.dumps({"m": 1, "n": 200, "a": list(range(1, 202))})
    t0 = time.process_time()
    code, out, _ = run(capsys, "cohom", "--scroll", scroll, "--sheaf", '{"omega":{"i":1,"twist":[2,0]}}')
    assert time.process_time() - t0 < 1
    # pi_* Omega^1(2H) = Lambda^2 V: sum over i < j of a_i + a_j + 1 sections
    assert code == 0 and json.loads(out)["h"][0] == 200 * sum(range(1, 202)) + 201 * 200 // 2


@pytest.mark.parametrize("scan, want", [
    ("-1000000000:1000000000",
     '{"flags":["explicit-scan"],"monotone_verified":true,"reg":0,"scan":[-1000000000,1000000000]}'),
    ("-200:300000", '{"flags":["explicit-scan"],"monotone_verified":true,"reg":0,"scan":[-200,300000]}'),
], ids=["two-billion-wide", "past-the-sym-budget"])
def test_wide_scan_is_answered_quickly(capsys, scan, want):
    # a scan range only clips the exact intervals, so its width costs nothing
    t0 = time.process_time()
    got = run(capsys, "reg", "--scroll", SCROLL, "--sheaf", O, f"--scan={scan}")
    assert time.process_time() - t0 < 0.1
    assert got == (0, want + "\n", "")


def test_wide_table_is_refused_by_bytes(capsys):
    # Sym^3000 at n = 24 with a_n - a_0 = 1.  q = -4500 puts the twists t + q
    # in -1500..1500, and the shorter side, h^1 up to N_m = 1498, needs
    # 1499 rows of 1499 cells of 27-byte fields
    scroll = json.dumps({"m": 1, "n": 24, "a": [1] * 24 + [2]})
    t0 = time.process_time()
    code, out, err = run(capsys, "cohom", "--scroll", scroll, "--sheaf", O, "--twist=3000,-4500")
    assert time.process_time() - t0 < 1
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "budget" in err


def test_row_wide_enough_for_the_base_sum_is_refused(capsys):
    # Sym^9000 on O(1)+O(2) at q = -13500: the twists -4500..4500, whose
    # shorter side, h^1 up to N_m = 4498, takes 4499 rows of 4499 cells.
    # Its counts fit in 2-byte fields (40,482,002 B, under the budget), but
    # the m+1 rounds of sums over P^1 reach 9001*4499 and need 4-byte fields
    # (80,964,004 B)
    code, out, err = run(capsys, "cohom", "--scroll", SCROLL, "--sheaf", O, "--twist=9000,-13500")
    assert code == 1 and out == ""
    assert err == ("error: Sym^9000 on this scroll needs at least 80964004 table bytes, "
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


def _on_p(m, n=1, a=(1, 2)):
    return json.dumps({"m": m, "n": n, "a": list(a)})


@pytest.mark.parametrize("argv", [
    ["msreg", "--scroll", _on_p(150), "--sheaf", O, "--at=0,0"],
    ["msreg", "--scroll", _on_p(200), "--sheaf", O, "--at=0,0"],
    ["split", "--scroll", _on_p(20000), "--sheaf", O, "--theorem", "2.3"],
    ["reg", "--scroll", _on_p(20000), "--sheaf", O],
    ["compare", "--scroll", _on_p(2000), "--sheaf", O, "--pbox=0:0", "--qbox=0:0"],
    ["cohom", "--scroll", _on_p(1, 200, range(1, 202)), "--sheaf", '{"omega":{"i":1,"twist":[20000,-30003]}}'],
    ["pqreg", "--scroll", _on_p(100000), "--sheaf", O, "--at=0,0"],
    ["cohom", "--scroll", _on_p(1, 400, range(1, 402)), "--sheaf", '{"omega":{"i":200,"twist":[201,0]}}'],
    ["cohom", "--scroll", _on_p(1000, 100, range(1, 102)), "--sheaf", '{"omega":{"i":50,"twist":[51,0]}}'],
    ["cohom", "--scroll", _on_p(1, 10000, [1] + [2] * 10000), "--sheaf", O, "--twist=402,-604"],
    ["cohom", "--scroll", _on_p(3000, 1, [0, 20000]), "--sheaf", O, "--twist=2,0"],
    ["cohom", "--scroll", _on_p(1500, 2, [0, 0, 20000]), "--sheaf", '{"omega":{"i":1,"twist":[2,0]}}'],
    ["cohom", "--scroll", _on_p(1000, 1, [0, 10**6]), "--sheaf", O, "--twist=1,-41001"],
], ids=["msreg-150", "msreg-200", "split-2.3", "reg", "compare", "omega-hook", "pqreg",
        "omega-subset-sums", "omega-moments", "row-bytes", "series-products", "omega-series-products",
        "scan-rounds"])
def test_large_scroll_is_refused_by_its_budget(capsys, argv):
    # the condition family's tables, the hook's Sym rows (2*200*10001 steps
    # to the cut N_m = 10001), a hook's subset sums and moments on a spread
    # of twists (3.2*10^9 steps for Omega^200 at n = 400, 1.8*10^8 for
    # Omega^50 at n = 100 over P^1000), a short side of few steps on wide
    # rows (2*10^6 steps on rows of 61,908 bytes), a series of few products
    # by a v_j of thousands of fields on multi-megabyte rows (O(2H) and
    # Omega^1(2H) with S = m), or a short side whose m+1 rounds of scan
    # shift 34 MB rows 16,017 times are sized from the descriptor and
    # refused before any of them is built
    t0 = time.process_time()
    code, out, err = run(capsys, *argv)
    assert time.process_time() - t0 < 2
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "budget" in err and "Traceback" not in err


def test_wide_fibre_hook_is_refused_before_its_subset_sums(capsys):
    # Omega^10000(10001H) on P(O(1)^20001) over P^1: its moments read the
    # subset sums of every size up to 10000, (n+1)*i = 2*10^8 steps, refused
    # before they run or any binomial of the hook is computed
    scroll = _on_p(1, 20000, [1] * 20001)
    t0 = time.process_time()
    code, out, err = run(capsys, "cohom", "--scroll", scroll, "--sheaf", '{"omega":{"i":10000,"twist":[10001,0]}}')
    assert time.process_time() - t0 < 1
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "budget" in err and "Traceback" not in err


def test_memory_error_is_an_error_line(capsys, monkeypatch):
    from scrollcohom import cli

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "sheaf_cohom", exhausted)
    assert run(capsys, "cohom", "--scroll", SCROLL, "--sheaf", O) == \
        (1, "", "error: out of memory; try a smaller scroll, twist or box\n")
