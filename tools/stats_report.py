"""Per-operator ds.stats() report for the flagship pipeline.

Usage: python tools/stats_report.py [n_rows] — prints each operator's
wall time, UDF time, and throughput so regressions show up per stage
(the iterate-until-compute-dominates loop from the build brief).
"""

from __future__ import annotations

import os
import re
import sys
import time


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))  # this checkout


def main() -> int:
    n_rows = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000_000

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 logging_level="ERROR")
    sys.path.insert(0, ROOT)
    from osm_replication_rust_ray.pipelines.spatial import (
        assignment_counts,
        flagship_assignments,
    )

    ds = flagship_assignments(
        n_rows=n_rows, concurrency=28, batch_size=8192,
        parallelism=max(64, n_rows // 65536),
    )
    t0 = time.perf_counter()
    mat = ds.materialize()  # executes the stream; stats attach here
    wall = time.perf_counter() - t0
    stats = mat.stats()
    print(f"assignments out: {mat.count()}")
    print(f"rows={n_rows} wall={wall:.2f}s throughput={n_rows / wall:,.0f} rows/s\n")
    for block in re.split(r"\n(?=Operator )", stats):
        header = block.splitlines()[0] if block else ""
        m_udf = re.search(r"UDF time:.*?([\d.]+m?s) total", block)
        m_tp = re.search(r"Ray Data throughput: ([\d.]+) rows/s", block)
        if header.startswith("Operator"):
            print(header)
            if m_udf:
                print(f"   UDF total: {m_udf.group(1)}")
            if m_tp:
                print(f"   throughput: {float(m_tp.group(1)):,.0f} rows/s")
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
