"""Command line interface.

Subcommands: cohom, table, reg, pqreg, msreg, compare, split, verify, oracle,
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
from .sweep import canon_json, check_box, check_ops, run_sweep


class UsageError(ValueError):
    pass


def _json_arg(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed JSON for {what}: {exc}")


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


def _box(args) -> tuple[tuple[int, int], tuple[int, int]]:
    pbox, qbox = _range(args.pbox, "--pbox"), _range(args.qbox, "--qbox")
    check_box(pbox, qbox)
    return pbox, qbox


def _cmd_cohom(args, x, spec):
    t = DivClass(*_pair(args.twist, "--twist")) if args.twist else DivClass(0, 0)
    if args.oracle:
        if spec.spelled_omega:
            raise UsageError("--oracle applies to split sheaves only")
        table = functools.reduce(add_tables, (character_cohom(x, s + t) for _, s in spec.pieces))
    else:
        table = sheaf_cohom(x, spec, t)
    return {"h": list(table)}


def _cmd_table(args, x, spec):
    pbox, qbox = _box(args)
    rows = [{"p": p, "q": q, "h": list(sheaf_cohom(x, spec, DivClass(p, q)))}
            for p in range(pbox[0], pbox[1] + 1) for q in range(qbox[0], qbox[1] + 1)]
    if args.fmt == "json":
        return {"scroll": x.to_json(), "sheaf": spec.to_json(), "rows": rows}
    print("p,q," + ",".join(f"h{i}" for i in range(x.dim + 1)))
    for r in rows:
        print(f"{r['p']},{r['q']}," + ",".join(str(v) for v in r["h"]))
    return 0


def _cmd_reg(args, x, spec):
    return reg_detail(x, spec, _range(args.scan, "--scan") if args.scan else None).to_json()


def _cmd_at(args, x, spec):
    return args.report(x, spec, *_pair(args.at, "--at")).to_json()


def _cmd_compare(args, x, spec):
    return compare_regularities(x, spec, *_box(args)).to_json()


def _cmd_split(args, x, spec):
    return check_theorem(x, spec, args.theorem).to_json()


def _cmd_oracle(args, x, spec):
    d = DivClass(*_pair(args.twist, "--twist"))
    if args.row is not None:
        chars = enumerate_contributing(x, d, args.row)
        return {"row": args.row, "count": len(chars), "characters": [c.to_json() for c in chars]}
    return {"h": list(character_cohom(x, d)), "rows": list(valid_rows(x))}


def _cmd_verify(args, x, spec) -> int:
    from .verify import SUITES, run_suites

    names = [args.suite] if args.suite and args.suite != "all" else None
    if names and names[0] not in SUITES:
        raise UsageError(f"unknown suite {names[0]!r}; choose from {', '.join(SUITES)} or all")
    results = run_suites(names)
    for r in results:
        detail = f"  [{r.detail}]" if r.detail else ""
        print(f"{'PASS' if r.ok else 'FAIL'} {r.suite}/{r.label}{detail}")
    ok = all(r.ok for r in results)
    print(f"{'all checks passed' if ok else 'CHECKS FAILED'} ({sum(r.ok for r in results)}/{len(results)})")
    return 0 if ok else 1


def _cmd_sweep(args, x, spec):
    family = _json_arg(args.family, "--family")
    sheaf = _json_arg(args.sheaf, "--sheaf") if args.sheaf else {"split": [[0, 0]]}
    ops = args.ops.split(",")
    try:
        check_ops(ops)
    except ValueError as exc:
        raise UsageError(str(exc))
    return run_sweep(family, ops, sheaf, _range(args.pbox, "--pbox"), _range(args.qbox, "--qbox"), args.out)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every `main` call can share it."""
    ap = argparse.ArgumentParser(
        prog="scrollcohom",
        description="Exact cohomology, regularity and splitting criteria on "
                    "projective bundles over projective space.")
    sub = ap.add_subparsers(dest="command", required=True)
    scroll_arg = argparse.ArgumentParser(add_help=False)
    scroll_arg.add_argument("--scroll", required=True, help='e.g. \'{"m":1,"n":1,"a":[1,2]}\'')
    sheaf_arg = argparse.ArgumentParser(add_help=False, parents=[scroll_arg])
    sheaf_arg.add_argument("--sheaf", required=True,
                           help='\'{"split":[[0,0]]}\' or \'{"omega":{"i":1,"twist":[0,0]}}\'')
    box_arg = argparse.ArgumentParser(add_help=False)
    box_arg.add_argument("--pbox", required=True, help="lo:hi")
    box_arg.add_argument("--qbox", required=True, help="lo:hi")

    def add(name, fn, help_text, *parents):
        p = sub.add_parser(name, help=help_text, parents=parents)
        p.set_defaults(fn=fn)
        return p

    p = add("cohom", _cmd_cohom, "cohomology table of a catalog sheaf", sheaf_arg)
    p.add_argument("--twist", help="extra twist p,q (use --twist=-2,1 for negatives)")
    p.add_argument("--oracle", action="store_true", help="force the character-counting path")

    p = add("table", _cmd_table, "sweep a (p,q) box of twists", sheaf_arg, box_arg)
    p.add_argument("--fmt", choices=("csv", "json"), default="csv")

    p = add("reg", _cmd_reg, "least p with the sheaf (p,0)-regular", sheaf_arg)
    p.add_argument("--scan", help="lo:hi, Reg within this range, read off the same exact intervals")

    for name, report, help_text in (("pqreg", is_pq_regular, "(p,q)-regularity report at a point"),
                                    ("msreg", is_ms_regular, "multigraded regularity report at a point")):
        p = add(name, _cmd_at, help_text, sheaf_arg)
        p.set_defaults(report=report)
        p.add_argument("--at", required=True, help="p,q")

    add("compare", _cmd_compare, "multigraded vs (p,q)-regularity over a box", sheaf_arg, box_arg)

    p = add("split", _cmd_split, "run a splitting criterion", sheaf_arg)
    p.add_argument("--theorem", required=True, choices=THEOREM_IDS)

    p = add("oracle", _cmd_oracle, "character-counting cohomology, with listings", scroll_arg)
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
    """Parse --scroll, then --sheaf, once for every subcommand; print the payload
    a subcommand returns as canonical JSON, or pass on the exit code it returns."""
    args = build_parser().parse_args(argv)
    x = spec = None
    try:
        if "scroll" in args:
            x = Scroll.from_json(_json_arg(args.scroll, "--scroll"))
            if "sheaf" in args:
                spec = SheafSpec.from_json(_json_arg(args.sheaf, "--sheaf"))
        result = args.fn(args, x, spec)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory; try a smaller scroll, twist or box", file=sys.stderr)
        return 1
    if isinstance(result, int):
        return result
    print(canon_json(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
