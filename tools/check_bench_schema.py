#!/usr/bin/env python3
"""Validate bench_runner JSON artifacts: the one `dsf-bench/v5` envelope.

Every `BENCH_*.json` that `bench_runner` writes, and the checked-in
baseline `crates/bench/baselines/executor_quick.json`, is one envelope:

    {"schema": "dsf-bench/v5", "tier": "...", "mode": "quick|full",
     "records": [{"name": "...", "det": {...}, "wall": {...}, "obs": {...}}]}

The checker is tier-agnostic: it reads the tier from the document, never
from the file name, and parses with a real JSON parser, a second reader
independent of the strict Rust one in crates/bench/src/record.rs. For
each file it checks:
  * the document is an object with exactly `schema`, `tier`, `mode` and
    `records`, and no object anywhere repeats a key;
  * `schema` is `dsf-bench/v5`, `tier` a non-empty string, `mode`
    `quick` or `full`, and `records` a non-empty list;
  * every record has exactly `name`, `det`, `wall` and `obs`, a
    non-empty name unique in the file, and each class is an object whose
    values are non-negative integers (a JSON true/false is not a count);
  * two offline gates, on any record whose `det` holds the pair:
    `ratio_milli <= bound_milli` (the achieved ratio is within the
    certified ceiling) and `weight <= scratch_weight` (a repaired forest
    is never heavier than the from-scratch solve). bench_runner aborts a
    run that breaks either, so an artifact that trips one was tampered
    with or a harness regression let a bad forest through.

Usage: python3 tools/check_bench_schema.py FILE.json [FILE.json ...]
       python3 tools/check_bench_schema.py --self-test
Exits 1 listing every violation, 0 when all files validate.

`--self-test` checks one clean executor, conformance and churn document,
then deliberately tampered copies, and asserts each tamper is rejected:
proof the checker can fail, mirroring tests/oracle_selftest.rs.
"""

import copy
import json
import sys
from pathlib import Path

SCHEMA = "dsf-bench/v5"
TOP = {"schema", "tier", "mode", "records"}
CLASSES = ("det", "wall", "obs")
# (value, ceiling, what a breach means) pairs replayed on `det`.
GATES = (
    ("ratio_milli", "bound_milli", "ratio regression"),
    ("weight", "scratch_weight", "repair regression"),
)


def no_duplicate_keys(pairs):
    keys = [k for k, _ in pairs]
    repeated = sorted({k for k in keys if keys.count(k) > 1})
    if repeated:
        raise ValueError(f"duplicate key(s) {repeated}")
    return dict(pairs)


def is_count(v) -> bool:
    # bool is an int subclass in Python; a JSON true/false is never a
    # valid count.
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def check_doc(doc, where: str, errors):
    if not isinstance(doc, dict):
        errors.append(f"{where}: top level must be a JSON object")
        return
    if set(doc) != TOP:
        errors.append(f"{where}: top-level keys {sorted(doc)}, expected {sorted(TOP)}")
    if doc.get("schema") != SCHEMA:
        errors.append(f"{where}: schema {doc.get('schema')!r}, expected {SCHEMA!r}")
    tier = doc.get("tier")
    if not isinstance(tier, str) or not tier:
        errors.append(f"{where}: 'tier' must be a non-empty string")
    if doc.get("mode") not in ("quick", "full"):
        errors.append(f"{where}: 'mode' must be 'quick' or 'full', got {doc.get('mode')!r}")
    records = doc.get("records")
    if not isinstance(records, list) or not records:
        errors.append(f"{where}: 'records' must be a non-empty list")
        return
    names = set()
    for i, rec in enumerate(records):
        at = f"{where}: records[{i}]"
        if not isinstance(rec, dict):
            errors.append(f"{at}: must be an object")
            continue
        name = rec.get("name")
        if not isinstance(name, str) or not name:
            errors.append(f"{at}: 'name' must be a non-empty string")
        elif name in names:
            errors.append(f"{at}: duplicate record name {name!r}")
        else:
            names.add(name)
            at = f"{at} ({name})"
        for key in sorted(set(rec) - {"name", *CLASSES}):
            errors.append(f"{at}: unknown key {key!r}")
        for cls in CLASSES:
            values = rec.get(cls)
            if not isinstance(values, dict):
                errors.append(f"{at}: class {cls!r} must be an object")
                continue
            for key, v in values.items():
                if not key or not is_count(v):
                    errors.append(f"{at}: {cls}.{key} must be a non-negative integer, got {v!r}")
        det = rec.get("det") if isinstance(rec.get("det"), dict) else {}
        for value, ceiling, what in GATES:
            a, b = det.get(value), det.get(ceiling)
            if is_count(a) and is_count(b) and a > b:
                errors.append(f"{at}: {what}: {value} {a} exceeds {ceiling} {b}")


def check_file(path: Path, errors):
    try:
        doc = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=no_duplicate_keys)
    except (OSError, ValueError) as e:
        errors.append(f"{path}: unreadable or invalid JSON: {e}")
        return
    check_doc(doc, str(path), errors)


# One clean record per tier the self-test covers.
CLEAN = {
    "executor": {
        "name": "executor/bfs_wave/path/n=10000/event",
        "det": {"n": 10000, "m": 9999, "rounds": 10000, "messages": 19998, "activations": 19998},
        "wall": {"min_ns": 1, "mean_ns": 2, "max_ns": 3},
        "obs": {"threads": 1},
    },
    "conformance": {
        "name": "conformance/gnp/matched_clusters/seed=0/det",
        "det": {
            "n": 20, "m": 52, "k": 4, "t": 12, "weight": 37, "cert_lower_milli": 30000,
            "cert_upper": 41, "ratio_milli": 903, "bound_milli": 2350,
        },
        "wall": {},
        "obs": {},
    },
    "churn": {
        "name": "churn/gnp/seed=0/step=05/add",
        "det": {
            "step": 5, "k": 4, "moves": 2, "weight": 41, "scratch_weight": 41,
            "ratio_milli": 1000, "bound_milli": 4000, "rounds": 310, "messages": 6200,
        },
        "wall": {"repair_wall_ns": 1, "scratch_wall_ns": 9, "speedup_milli": 9000},
        "obs": {},
    },
}


def self_test():
    """Clean documents must pass; every tamper must be rejected."""

    def run(tier, mutate=lambda doc, rec: None):
        doc = {"schema": SCHEMA, "tier": tier, "mode": "quick", "records": [copy.deepcopy(CLEAN[tier])]}
        mutate(doc, doc["records"][0])
        errors = []
        check_doc(doc, f"self-test {tier}", errors)
        return errors

    for tier in CLEAN:
        errors = run(tier)
        assert errors == [], f"self-test: the clean {tier} document must pass, got {errors}"

    tampers = [
        ("missing name", "churn", lambda doc, rec: rec.pop("name"), "'name' must be"),
        ("non-integer det value", "churn", lambda doc, rec: rec["det"].update(weight="41"), "det.weight"),
        ("bool value", "executor", lambda doc, rec: rec["obs"].update(threads=True), "obs.threads"),
        ("unknown class key", "executor", lambda doc, rec: rec.update(mem={}), "unknown key 'mem'"),
        ("ratio past bound", "conformance", lambda doc, rec: rec["det"].update(ratio_milli=2351), "ratio regression"),
        ("repair above scratch", "churn", lambda doc, rec: rec["det"].update(weight=42), "repair regression"),
        ("wrong schema id", "executor", lambda doc, rec: doc.update(schema="dsf-bench-executor/v4"), "expected 'dsf-bench/v5'"),
        ("empty records", "conformance", lambda doc, rec: doc.update(records=[]), "non-empty list"),
    ]
    for label, tier, mutate, needle in tampers:
        errors = run(tier, mutate)
        assert any(needle in e for e in errors), (
            f"self-test: {label}: expected a violation mentioning {needle!r}, got {errors}"
        )
    print(f"check_bench_schema: self-test passed ({len(CLEAN)} clean documents, {len(tampers)} tampers rejected)")
    return 0


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if not argv:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: check_bench_schema.py FILE.json [FILE.json ...]", file=sys.stderr)
        return 2
    errors = []
    for a in argv:
        check_file(Path(a), errors)
    if errors:
        print("bench schema violations:", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print(f"check_bench_schema: {len(argv)} artifact(s) validate")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
