"""Batch sweeps over scroll families with persisted, content-addressed results.

Records are JSON lines keyed by a stable hash of (engine tag, CSV schema,
scroll, op, inputs); a warm cache returns the stored payload verbatim, so
re-runs are byte-identical.  A line is parsed only when a cell asks for its
key, newest first, and served only if it holds that cell's scroll, op and
inputs.  The CSV summary has a versioned header and a scheduling-free order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import time
from pathlib import Path

from .regularity import compare_regularities, ms_implies_pq, reg_detail
from .scroll import DivClass, Scroll, json_int, make_scroll
from .sheaves import SheafSpec, sheaf_cohom

# part of every record key: bump it when any stored result changes
ENGINE_TAG = "scrollcohom-0.1.0+exact-intervals-every-scroll"
CSV_SCHEMA = "scrollcohom-sweep-v1"
CACHE_ENV = "SCROLLCOHOM_CACHE"
MAX_CELLS = 20000

OPS = ("cohom", "reg", "compare")
_KEY_FIELD = re.compile(r'"key":"([0-9a-f]{64})"')


def check_box(pbox, qbox):
    """Refuse a (p,q) box of more than MAX_CELLS twists: `table`, `compare`
    and the sweep's cohom and compare cells visit every twist in it."""
    twists = (pbox[1] - pbox[0] + 1) * (qbox[1] - qbox[0] + 1)
    if twists > MAX_CELLS:
        raise ValueError(f"the (p,q) box holds {twists} twists, over the {MAX_CELLS} limit; shrink the box")


def check_ops(ops):
    """Refuse an op outside OPS, before any cell is built or stored."""
    for op in ops:
        if op not in OPS:
            raise ValueError(f"unknown op {op!r}; choose from {', '.join(OPS)}")


def canon_json(obj) -> str:
    """Canonical JSON, sorted keys and no spaces: every record, key and CLI payload."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _key(engine: str, inputs: str, op: str, schema: str, scroll: str) -> str:
    """The record key from each field's canonical JSON, laid out as canon_json lays out the whole."""
    return hashlib.sha256(f'{{"engine":{engine},"inputs":{inputs},"op":{op},"schema":{schema},'
                          f'"scroll":{scroll}}}'.encode()).hexdigest()


def record_key(scroll: Scroll, op: str, inputs: dict) -> str:
    return _key(canon_json(ENGINE_TAG), canon_json(inputs), canon_json(op), canon_json(CSV_SCHEMA),
                canon_json(scroll.to_json()))


def enumerate_family(family: dict) -> list[Scroll]:
    """Family descriptor: {"m": [..], "n": [..], "a_min": lo, "a_max": hi}.
    Enumerates all scrolls with the given dimensions and nondecreasing
    twists in [a_min, a_max], each once: a repeated m or n entry counts at
    its first place."""
    try:
        ms = dict.fromkeys(json_int(v, "family 'm' entry") for v in family["m"])
        ns = dict.fromkeys(json_int(v, "family 'n' entry") for v in family["n"])
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


def _run_op(scroll: Scroll, op: str, inputs: dict, spec: SheafSpec) -> dict:
    if op == "cohom":
        t = DivClass.from_json(inputs["twist"])
        return {"h": list(sheaf_cohom(scroll, spec, t))}
    if op == "reg":
        return reg_detail(scroll, spec).to_json()
    rep = compare_regularities(scroll, spec, tuple(inputs["pbox"]), tuple(inputs["qbox"]))
    return {"ok": rep.ok, "separations": [list(s) for s in rep.separations],
            "violations": [list(v) for v in rep.violations]}


def _cells(scrolls, ops, sheaf_json, pbox, qbox):
    """The grid as (scroll, scroll JSON, op, inputs, inputs JSON, op JSON) tuples,
    in canonical JSON, each cell once (a repeated op counts at its first place);
    an op's inputs are built and encoded once for all scrolls,
    and the cells are counted, and too many refused, before the grid is built."""
    todo = [(scroll, op) for scroll in scrolls for op in dict.fromkeys(ops)
            if op != "compare" or ms_implies_pq(scroll)]
    grid: dict[str, list] = {}
    for op in dict.fromkeys(op for _, op in todo):
        if op == "cohom":
            check_box(pbox, qbox)
            inputs = [{"sheaf": sheaf_json, "twist": [p, q]}
                      for p in range(pbox[0], pbox[1] + 1) for q in range(qbox[0], qbox[1] + 1)]
        elif op == "reg":
            inputs = [{"sheaf": sheaf_json}]
        else:
            check_box(pbox, qbox)
            inputs = [{"sheaf": sheaf_json, "pbox": list(pbox), "qbox": list(qbox)}]
        grid[op] = [(i, canon_json(i), canon_json(op)) for i in inputs]
    total = sum(len(grid[op]) for _, op in todo)
    if total > MAX_CELLS:
        raise ValueError(f"sweep grid has {total} cells, over the {MAX_CELLS} limit; shrink the boxes")
    scroll_s = {scroll: canon_json(scroll.to_json()) for scroll in scrolls}
    return [(scroll, scroll_s[scroll], op) + entry for scroll, op in todo for entry in grid[op]]


def _stored(lines: list[str], key: str, scroll: Scroll, op: str, inputs: dict) -> dict | None:
    """The newest of a key's store lines that parses to this very cell's record, else None."""
    cell = (key, scroll.to_json(), op, inputs)
    for line in reversed(lines):
        try:
            rec = json.loads(line)
            if (rec["key"], rec["scroll"], rec["op"], rec["inputs"]) == cell and "result" in rec:
                return rec
        except (json.JSONDecodeError, KeyError, TypeError):
            pass  # a torn or foreign line
    return None


def _summary(op: str, result: dict) -> str:
    if op == "cohom":
        return "h=" + ",".join(str(v) for v in result["h"])
    if op == "reg":
        return f"reg={result['reg']}"
    return f"ok={result['ok']} separations={len(result['separations'])}"


def run_sweep(family: dict, ops, sheaf_json: dict, pbox, qbox, out_dir: str | None = None) -> dict:
    """Run the requested operations over the family grid.  Returns a summary
    dict; persists records.jsonl and summary.csv under the output directory
    (argument, else $SCROLLCOHOM_CACHE, else ./scrollcohom-sweep)."""
    check_ops(ops)
    scrolls = enumerate_family(family)
    cells = _cells(scrolls, ops, sheaf_json, pbox, qbox)
    spec = SheafSpec.from_json(sheaf_json)  # refused before the store is touched

    out = Path(out_dir or os.environ.get(CACHE_ENV) or "scrollcohom-sweep")
    out.mkdir(parents=True, exist_ok=True)
    records_path = out / "records.jsonl"
    csv_path = out / "summary.csv"

    engine, schema = canon_json(ENGINE_TAG), canon_json(CSV_SCHEMA)
    keys = [_key(engine, inputs_s, op_s, schema, scroll_s) for _, scroll_s, _, _, inputs_s, op_s in cells]
    stored: dict[str, list[str]] = {key: [] for key in keys}
    text = records_path.read_text() if records_path.exists() else ""
    for line in text.split("\n"):
        for hexkey in stored.keys() & _KEY_FIELD.findall(line):
            stored[hexkey].append(line)

    fresh = 0
    rows = []
    with records_path.open("a") as fh:
        if text and not text.endswith("\n"):
            fh.write("\n")  # a write cut short left the last line open: do not extend it
        for (scroll, scroll_s, op, inputs, inputs_s, _), key in zip(cells, keys):
            rec = _stored(stored[key], key, scroll, op, inputs)
            if rec is None:
                t0 = time.perf_counter()
                result = _run_op(scroll, op, inputs, spec)
                rec = {"key": key, "scroll": scroll.to_json(), "op": op, "inputs": inputs,
                       "result": result, "engine": ENGINE_TAG,
                       "wall_ms": round(1000 * (time.perf_counter() - t0), 3)}
                line = canon_json(rec)
                fh.write(line + "\n")
                fresh += 1
            rows.append((scroll_s, op, inputs_s, scroll, key, rec["result"]))

    rows.sort(key=lambda row: row[:3])
    lines = [f"# schema={CSV_SCHEMA} engine={ENGINE_TAG}",
             "key,m,n,a,op,inputs,summary"]
    for _, op, inputs_s, scroll, key, result in rows:
        lines.append(",".join([key[:16], str(scroll.m), str(scroll.n), "+".join(str(v) for v in scroll.a), op,
                               inputs_s.replace(",", ";"), _summary(op, result).replace(",", ";")]))
    tmp_path = out / f".summary.csv.{os.getpid()}.tmp"  # replaced whole, so a crash never tears the CSV
    try:
        tmp_path.write_text("\n".join(lines) + "\n")
        os.replace(tmp_path, csv_path)
    finally:
        tmp_path.unlink(missing_ok=True)
    return {"cells": len(cells), "fresh": fresh, "cached": len(cells) - fresh,
            "records": str(records_path), "csv": str(csv_path)}
