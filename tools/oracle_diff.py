"""Compare the registries of two checkouts: oracle SQL and pipelines.

Loads ``oracle_sql()`` and ``queries()`` from each checkout (one child
process each, so the two packages never share an interpreter).  Prints
every name whose pipeline (``module.qualname``) differs or exists on one
side only.  Prints the entries whose SQL text differs, and runs both
texts of each such entry in DuckDB over the same sf dir, comparing row
count, schema and the order-insensitive value hash of
``tools/check_correctness.py`` (and printing both run times).  Usage:

    python tools/oracle_diff.py OLD_CHECKOUT NEW_CHECKOUT [sf_dir] [query ...]

Named queries run even when their text is unchanged.  Exit status 1 if
any pipeline changed or any changed entry's result differs.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import duckdb

sys.path.insert(0, str(Path(__file__).resolve().parent))
from check_correctness import TABLES, value_hash  # noqa: E402

_DUMP = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
         "import __ray_entry__ as m; json.dump({'sql': m.oracle_sql(), "
         "'fn': {n: f.__module__ + '.' + f.__qualname__ "
         "for n, f in m.queries().items()}}, sys.stdout)")


def load_registry(checkout: str) -> tuple[dict[str, str], dict[str, str]]:
    """(oracle SQL by name, pipeline ``module.qualname`` by name)."""
    out = subprocess.run([sys.executable, "-c", _DUMP, checkout],
                         stdout=subprocess.PIPE, text=True, check=True)
    d = json.loads(out.stdout)
    return d["sql"], d["fn"]


def sha(sql: str | None) -> str:
    return hashlib.sha256(sql.encode()).hexdigest()[:16] if sql else "-"


def result(con, sql: str) -> tuple:
    t0 = time.perf_counter()
    df = con.execute(sql).df()
    secs = time.perf_counter() - t0
    df = df[sorted(df.columns)]
    for c in df.columns:
        if df[c].dtype.kind in "iu":
            df[c] = df[c].astype("int64")
    return (len(df), tuple(df.columns), value_hash(df)), secs


def main() -> int:
    old_dir, new_dir = sys.argv[1], sys.argv[2]
    sf_dir = sys.argv[3] if len(sys.argv) > 3 else "/root/testdata/sf0.01"
    only = set(sys.argv[4:])
    (old, old_fn), (new, new_fn) = load_registry(old_dir), load_registry(new_dir)
    fn_changed = sorted(n for n in old_fn.keys() | new_fn.keys()
                        if old_fn.get(n) != new_fn.get(n))
    print(f"{len(fn_changed)} of {len(new_fn)} pipelines changed")
    for name in fn_changed:
        print(f"[PIPELINE] {name}: {old_fn.get(name, '-')} -> {new_fn.get(name, '-')}")
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
    changed = sorted(n for n in old.keys() | new.keys()
                     if old.get(n) != new.get(n))
    print(f"{len(changed)} of {len(new)} oracle texts changed")
    bad = []
    for name in sorted(set(changed) | only):
        a, b = old.get(name), new.get(name)
        if a is None or b is None:
            print(f"[ONLY-ONE-SIDE] {name}")
            bad.append(name)
            continue
        (ra, ta), (rb, tb) = result(con, a), result(con, b)
        ok = ra == rb
        print(f"[{'SAME' if ok else 'DIFF'}] {name}: sql {sha(a)} -> {sha(b)} "
              f"rows {ra[0]} hash {ra[2]} ({ta:.1f} s -> {tb:.1f} s)"
              + ("" if ok else f" vs {rb}"))
        if not ok:
            bad.append(name)
    print("DIFFERENT:", bad if bad else "none")
    return 1 if bad or fn_changed else 0


if __name__ == "__main__":
    sys.exit(main())
