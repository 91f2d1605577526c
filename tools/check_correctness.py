"""Local stand-in for the driver's correctness gate.

Runs each ``queries()`` entry and its ``oracle_sql()`` twin over the
same sf dir, compares row count, schema (sorted column names), and an
order-insensitive value hash. Usage:

    python tools/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys

import duckdb
import numpy as np
import pandas as pd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))  # this checkout

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    rows = pd.util.hash_pandas_object(df, index=False).to_numpy()
    # multiplicity-sensitive, order-insensitive combiner: sum of row
    # hashes mod 2^64 (XOR cancels rows that appear an even number of
    # times, hiding duplicate/drop multiplicity bugs at equal counts)
    total = int(np.sum(rows.view(np.uint64), dtype=np.uint64))
    return hex((total + len(rows)) % (1 << 64))


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")

    sys.path.insert(0, ROOT)
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'"
        )

    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            print(f"[FAIL] {name}: engine raised {type(e).__name__}: {e}")
            failures.append(name)
            continue
        sql = oracles.get(name)
        if sql is None:
            print(f"[rows-only] {name}: {len(got)} rows, cols={sorted(got.columns)}")
            continue
        try:
            want = con.execute(sql).df()
        except Exception as e:  # noqa: BLE001
            print(f"[FAIL] {name}: oracle raised {type(e).__name__}: {e}")
            failures.append(name)
            continue
        ok_rows = len(got) == len(want)
        ok_schema = sorted(got.columns) == sorted(want.columns)
        ok_hash = False
        if ok_rows and ok_schema:
            # align dtypes: oracle ints may come back as int32/uint
            w = want[sorted(want.columns)].copy()
            g = got[sorted(got.columns)].copy()
            for c in g.columns:
                if np.issubdtype(g[c].dtype, np.integer):
                    g[c] = g[c].astype(np.int64)
                if np.issubdtype(w[c].dtype, np.integer):
                    w[c] = w[c].astype(np.int64)
            ok_hash = value_hash(g) == value_hash(w)
        status = "OK" if (ok_rows and ok_schema and ok_hash) else "FAIL"
        print(
            f"[{status}] {name}: rows {len(got)}/{len(want)} "
            f"schema={'ok' if ok_schema else f'{sorted(got.columns)} vs {sorted(want.columns)}'} "
            f"hash={'ok' if ok_hash else 'MISMATCH'}"
        )
        if status == "FAIL":
            failures.append(name)
            if ok_schema and not ok_hash and len(got) and len(want):
                cols = sorted(got.columns)
                gs = got.sort_values(cols).reset_index(drop=True)
                ws = want.sort_values(cols).reset_index(drop=True)
                if len(gs) == len(ws):
                    for c in cols:
                        gc = gs[c].to_numpy()
                        wc = ws[c].to_numpy()
                        try:
                            neq = (gc != wc)
                        except Exception:
                            continue
                        if neq.any():
                            i = int(np.argmax(neq))
                            print(f"    first diff col={c} row={i}: {gc[i]!r} vs {wc[i]!r}")
    print("FAILURES:", failures if failures else "none")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
