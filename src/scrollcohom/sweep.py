"""Batch sweeps over scroll families with persisted, content-addressed results.

Records are JSON lines keyed by a stable hash of (engine tag, CSV schema,
scroll, op, inputs); a warm cache returns the stored payload verbatim, so
re-runs are byte-identical.  The CSV summary carries a versioned schema
header and a canonical row order independent of scheduling.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from pathlib import Path

from .regularity import compare_regularities, reg_detail
from .scroll import DivClass, Scroll, json_int, make_scroll
from .sheaves import SheafSpec, sheaf_cohom

ENGINE_TAG = "scrollcohom-0.1.0+exact-intervals"  # part of every record key: bump it when any stored result changes
CSV_SCHEMA = "scrollcohom-sweep-v1"
CACHE_ENV = "SCROLLCOHOM_CACHE"
MAX_CELLS = 20000

OPS = ("cohom", "reg", "compare")


def check_box(pbox, qbox):
    """Refuse a (p,q) box of more than MAX_CELLS twists: `table`, `compare`
    and the sweep's compare cells visit every twist in it."""
    twists = (pbox[1] - pbox[0] + 1) * (qbox[1] - qbox[0] + 1)
    if twists > MAX_CELLS:
        raise ValueError(f"the (p,q) box holds {twists} twists, over the {MAX_CELLS} limit; shrink the box")


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def record_key(scroll: Scroll, op: str, inputs: dict) -> str:
    return hashlib.sha256(_canon({"engine": ENGINE_TAG, "schema": CSV_SCHEMA, "scroll": scroll.to_json(),
                                  "op": op, "inputs": inputs}).encode()).hexdigest()


def enumerate_family(family: dict) -> list[Scroll]:
    """Family descriptor: {"m": [..], "n": [..], "a_min": lo, "a_max": hi}.
    Enumerates all scrolls with the given dimensions and nondecreasing
    twists in [a_min, a_max]."""
    try:
        ms = [json_int(v, "family 'm' entry") for v in family["m"]]
        ns = [json_int(v, "family 'n' entry") for v in family["n"]]
        lo, hi = json_int(family["a_min"], "family 'a_min'"), json_int(family["a_max"], "family 'a_max'")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"family descriptor must look like {{'m':[1],'n':[1,2],'a_min':1,'a_max':3}}: {exc}")
    if lo > hi:
        raise ValueError(f"family needs a_min <= a_max, got {lo} > {hi}")
    out = []
    for m in ms:
        for n in ns:
            if m + n < 1:
                continue
            for a in itertools.combinations_with_replacement(range(lo, hi + 1), n + 1):
                out.append(make_scroll(m, n, a))
    return out


def _run_op(scroll: Scroll, op: str, inputs: dict) -> dict:
    spec = SheafSpec.from_json(inputs["sheaf"])
    if op == "cohom":
        t = DivClass.from_json(inputs["twist"])
        return {"h": list(sheaf_cohom(scroll, spec, t))}
    if op == "reg":
        scan = tuple(inputs["scan"]) if inputs.get("scan") else None
        return reg_detail(scroll, spec, scan).to_json()
    if op == "compare":
        rep = compare_regularities(scroll, spec, tuple(inputs["pbox"]), tuple(inputs["qbox"]))
        return {"ok": rep.ok, "separations": [list(s) for s in rep.separations],
                "violations": [list(v) for v in rep.violations]}
    raise ValueError(f"unknown sweep op {op!r}; expected one of {OPS}")


def _cells(scrolls, ops, sheaf_json, pbox, qbox):
    cells = []
    for scroll in scrolls:
        for op in ops:
            if op == "cohom":
                for p in range(pbox[0], pbox[1] + 1):
                    for q in range(qbox[0], qbox[1] + 1):
                        cells.append((scroll, op, {"sheaf": sheaf_json, "twist": [p, q]}))
            elif op == "reg":
                cells.append((scroll, op, {"sheaf": sheaf_json}))
            elif op == "compare":
                if not scroll.is_semipositive:
                    continue
                check_box(pbox, qbox)
                cells.append((scroll, op, {"sheaf": sheaf_json,
                                           "pbox": list(pbox), "qbox": list(qbox)}))
            else:
                raise ValueError(f"unknown sweep op {op!r}; expected one of {OPS}")
    return cells


def _summary(op: str, result: dict) -> str:
    if op == "cohom":
        return "h=" + ",".join(str(v) for v in result["h"])
    if op == "reg":
        return f"reg={result['reg']}"
    if op == "compare":
        return f"ok={result['ok']} separations={len(result['separations'])}"
    return ""


def run_sweep(family: dict, ops, sheaf_json: dict, pbox, qbox, out_dir: str | None = None) -> dict:
    """Run the requested operations over the family grid.  Returns a summary
    dict; persists records.jsonl and summary.csv under the output directory
    (argument, else $SCROLLCOHOM_CACHE, else ./scrollcohom-sweep)."""
    scrolls = enumerate_family(family)
    cells = _cells(scrolls, ops, sheaf_json, pbox, qbox)
    if len(cells) > MAX_CELLS:
        raise ValueError(f"sweep grid has {len(cells)} cells, over the {MAX_CELLS} limit; shrink the boxes")

    out = Path(out_dir or os.environ.get(CACHE_ENV) or "scrollcohom-sweep")
    out.mkdir(parents=True, exist_ok=True)
    records_path = out / "records.jsonl"
    csv_path = out / "summary.csv"

    cache: dict[str, dict] = {}
    line = "\n"  # the last line read; a write cut short leaves it without a newline
    if records_path.exists():
        with records_path.open() as fh:
            for line in fh:
                try:
                    rec = json.loads(line)
                    cache[rec["key"]] = rec
                except (json.JSONDecodeError, KeyError, TypeError):
                    pass  # a torn or foreign line: its cell is recomputed

    fresh = 0
    records = []
    with records_path.open("a") as fh:
        if not line.endswith("\n"):
            fh.write("\n")  # so the next record does not extend the torn line
        for scroll, op, inputs in cells:
            key = record_key(scroll, op, inputs)
            rec = cache.get(key)
            if rec is None:
                t0 = time.perf_counter()
                result = _run_op(scroll, op, inputs)
                rec = {"key": key, "scroll": scroll.to_json(), "op": op, "inputs": inputs,
                       "result": result, "engine": ENGINE_TAG,
                       "wall_ms": round(1000 * (time.perf_counter() - t0), 3)}
                fh.write(_canon(rec) + "\n")
                cache[key] = rec
                fresh += 1
            records.append(rec)

    records.sort(key=lambda r: (_canon(r["scroll"]), r["op"], _canon(r["inputs"])))
    lines = [f"# schema={CSV_SCHEMA} engine={ENGINE_TAG}",
             "key,m,n,a,op,inputs,summary"]
    for rec in records:
        s = rec["scroll"]
        lines.append(",".join([
            rec["key"][:16],
            str(s["m"]), str(s["n"]), "+".join(str(v) for v in s["a"]),
            rec["op"],
            _canon(rec["inputs"]).replace(",", ";"),
            _summary(rec["op"], rec["result"]).replace(",", ";"),
        ]))
    tmp_path = out / f".summary.csv.{os.getpid()}.tmp"  # replaced whole, so a crash never tears the CSV
    try:
        tmp_path.write_text("\n".join(lines) + "\n")
        os.replace(tmp_path, csv_path)
    finally:
        tmp_path.unlink(missing_ok=True)
    return {"cells": len(cells), "fresh": fresh, "cached": len(cells) - fresh,
            "records": str(records_path), "csv": str(csv_path)}
