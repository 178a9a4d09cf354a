"""Command line interface.

Subcommands: cohom, table, reg, msreg, compare, split, verify, oracle,
sweep.  Scrolls, sheaves and divisor classes are passed as JSON; results
are emitted as JSON (or CSV for table sweeps).  Exit codes: 0 success,
1 computation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .characters import character_cohom, enumerate_contributing, valid_rows
from .cohomology import add_tables
from .regularity import compare_regularities, is_ms_regular, is_pq_regular, reg_detail
from .scroll import DivClass, Scroll
from .sheaves import SheafSpec, sheaf_cohom
from .splitting import THEOREM_IDS, check_theorem
from .sweep import OPS as SWEEP_OPS
from .sweep import check_box, run_sweep


class UsageError(ValueError):
    pass


def _json_arg(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON for {what}: {exc}")


def _scroll_arg(text: str) -> Scroll:
    return Scroll.from_json(_json_arg(text, "--scroll"))


def _sheaf_arg(text: str) -> SheafSpec:
    return SheafSpec.from_json(_json_arg(text, "--sheaf"))


def _pair(text: str, what: str) -> tuple[int, int]:
    try:
        a, b = text.split(",") if "," in text else text.split(":")
        return int(a), int(b)
    except ValueError:
        raise UsageError(f"{what} must look like '-3,1'")


def _range(text: str, what: str) -> tuple[int, int]:
    lo, hi = _pair(text, what)
    if lo > hi:
        raise UsageError(f"{what} must have lo <= hi, got {lo}:{hi}")
    return lo, hi


def _emit(payload):
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _cmd_cohom(args) -> int:
    x = _scroll_arg(args.scroll)
    spec = _sheaf_arg(args.sheaf)
    t = DivClass(*_pair(args.twist, "--twist")) if args.twist else DivClass(0, 0)
    if args.oracle:
        if spec.kind != "split":
            raise UsageError("--oracle applies to split sheaves only")
        table = functools.reduce(add_tables, (character_cohom(x, s + t) for s in spec.split.summands))
    else:
        table = sheaf_cohom(x, spec, t)
    _emit({"h": list(table)})
    return 0


def _cmd_table(args) -> int:
    x = _scroll_arg(args.scroll)
    spec = _sheaf_arg(args.sheaf)
    pbox, qbox = _range(args.pbox, "--pbox"), _range(args.qbox, "--qbox")
    check_box(pbox, qbox)
    rows = []
    for p in range(pbox[0], pbox[1] + 1):
        for q in range(qbox[0], qbox[1] + 1):
            rows.append({"p": p, "q": q, "h": list(sheaf_cohom(x, spec, DivClass(p, q)))})
    if args.fmt == "json":
        _emit({"scroll": x.to_json(), "sheaf": spec.to_json(), "rows": rows})
    else:
        print("p,q," + ",".join(f"h{i}" for i in range(x.dim + 1)))
        for r in rows:
            print(f"{r['p']},{r['q']}," + ",".join(str(v) for v in r["h"]))
    return 0


def _cmd_reg(args) -> int:
    x = _scroll_arg(args.scroll)
    spec = _sheaf_arg(args.sheaf)
    scan = _range(args.scan, "--scan") if args.scan else None
    _emit(reg_detail(x, spec, scan).to_json())
    return 0


def _cmd_msreg(args) -> int:
    x = _scroll_arg(args.scroll)
    spec = _sheaf_arg(args.sheaf)
    p, q = _pair(args.at, "--at")
    _emit(is_ms_regular(x, spec, p, q).to_json())
    return 0


def _cmd_pqreg(args) -> int:
    x = _scroll_arg(args.scroll)
    spec = _sheaf_arg(args.sheaf)
    p, q = _pair(args.at, "--at")
    _emit(is_pq_regular(x, spec, p, q).to_json())
    return 0


def _cmd_compare(args) -> int:
    x = _scroll_arg(args.scroll)
    spec = _sheaf_arg(args.sheaf)
    pbox, qbox = _range(args.pbox, "--pbox"), _range(args.qbox, "--qbox")
    check_box(pbox, qbox)
    _emit(compare_regularities(x, spec, pbox, qbox).to_json())
    return 0


def _cmd_split(args) -> int:
    x = _scroll_arg(args.scroll)
    spec = _sheaf_arg(args.sheaf)
    _emit(check_theorem(x, spec, args.theorem).to_json())
    return 0


def _cmd_oracle(args) -> int:
    x = _scroll_arg(args.scroll)
    d = DivClass(*_pair(args.twist, "--twist"))
    if args.row is not None:
        chars = enumerate_contributing(x, d, args.row)
        _emit({"row": args.row, "count": len(chars), "characters": [c.to_json() for c in chars]})
    else:
        _emit({"h": list(character_cohom(x, d)), "rows": list(valid_rows(x))})
    return 0


def _cmd_verify(args) -> int:
    from .verify import SUITES, run_suites

    names = [args.suite] if args.suite and args.suite != "all" else None
    if names and names[0] not in SUITES:
        raise UsageError(f"unknown suite {names[0]!r}; choose from {', '.join(SUITES)} or all")
    results = run_suites(names)
    ok = True
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        line = f"{mark} {r.suite}/{r.label}"
        if r.detail:
            line += f"  [{r.detail}]"
        print(line)
        ok = ok and r.ok
    print(f"{'all checks passed' if ok else 'CHECKS FAILED'} "
          f"({sum(r.ok for r in results)}/{len(results)})")
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    family = _json_arg(args.family, "--family")
    sheaf = _json_arg(args.sheaf, "--sheaf") if args.sheaf else {"split": [[0, 0]]}
    ops = args.ops.split(",")
    for op in ops:
        if op not in SWEEP_OPS:
            raise UsageError(f"unknown op {op!r}; choose from {', '.join(SWEEP_OPS)}")
    summary = run_sweep(family, ops, sheaf, _range(args.pbox, "--pbox"),
                        _range(args.qbox, "--qbox"), args.out)
    _emit(summary)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every `main` call can share it."""
    ap = argparse.ArgumentParser(
        prog="scrollcohom",
        description="Exact cohomology, regularity and splitting criteria on "
                    "projective bundles over projective space.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    p = add("cohom", _cmd_cohom, "cohomology table of a catalog sheaf")
    p.add_argument("--scroll", required=True, help='e.g. \'{"m":1,"n":1,"a":[1,2]}\'')
    p.add_argument("--sheaf", required=True, help='\'{"split":[[0,0]]}\' or \'{"omega":{"i":1,"twist":[0,0]}}\'')
    p.add_argument("--twist", help="extra twist p,q (use --twist=-2,1 for negatives)")
    p.add_argument("--oracle", action="store_true", help="force the character-counting path")

    p = add("table", _cmd_table, "sweep a (p,q) box of twists")
    p.add_argument("--scroll", required=True)
    p.add_argument("--sheaf", required=True)
    p.add_argument("--pbox", required=True, help="lo:hi")
    p.add_argument("--qbox", required=True, help="lo:hi")
    p.add_argument("--fmt", choices=("csv", "json"), default="csv")

    p = add("reg", _cmd_reg, "least p with the sheaf (p,0)-regular")
    p.add_argument("--scroll", required=True)
    p.add_argument("--sheaf", required=True)
    p.add_argument("--scan", help="scan range lo:hi (non-positive scrolls default to +-3(dim+2), flagged)")

    p = add("pqreg", _cmd_pqreg, "(p,q)-regularity report at a point")
    p.add_argument("--scroll", required=True)
    p.add_argument("--sheaf", required=True)
    p.add_argument("--at", required=True, help="p,q")

    p = add("msreg", _cmd_msreg, "multigraded regularity report at a point")
    p.add_argument("--scroll", required=True)
    p.add_argument("--sheaf", required=True)
    p.add_argument("--at", required=True, help="p,q")

    p = add("compare", _cmd_compare, "multigraded vs (p,q)-regularity over a box")
    p.add_argument("--scroll", required=True)
    p.add_argument("--sheaf", required=True)
    p.add_argument("--pbox", required=True, help="lo:hi")
    p.add_argument("--qbox", required=True, help="lo:hi")

    p = add("split", _cmd_split, "run a splitting criterion")
    p.add_argument("--scroll", required=True)
    p.add_argument("--sheaf", required=True)
    p.add_argument("--theorem", required=True, choices=THEOREM_IDS)

    p = add("oracle", _cmd_oracle, "character-counting cohomology, with listings")
    p.add_argument("--scroll", required=True)
    p.add_argument("--twist", required=True, help="p,q")
    p.add_argument("--row", type=int, help="list the contributing characters of one degree")

    p = add("verify", _cmd_verify, "run the property suites")
    p.add_argument("--suite", default="all", help="a suite name, or all")

    p = add("sweep", _cmd_sweep, "batch runs over a scroll family, persisted")
    p.add_argument("--family", required=True, help='\'{"m":[1],"n":[1,2],"a_min":1,"a_max":3}\'')
    p.add_argument("--ops", default="compare", help=f"comma list from {', '.join(SWEEP_OPS)}")
    p.add_argument("--sheaf", help="sheaf JSON (default structure sheaf)")
    p.add_argument("--pbox", default="-3:3")
    p.add_argument("--qbox", default="-3:3")
    p.add_argument("--out", help="output directory (default $SCROLLCOHOM_CACHE or ./scrollcohom-sweep)")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
