"""Measured scale probe for the text-hygiene operators (PII scrub,
decontamination, repetition-quality) at representative corpus size:
1M+ synthetic word-soup documents streamed through the SAME map_batches
kernels the gates use, wall time and rows/s printed as one JSON line.
Results are recorded in SCALE.md.

Usage:  python tools/text_scale_probe.py [n_docs] [num_cpus]

The corpus is generated deterministically inside the tasks (splitmix64
word picks — no driver materialization, no external data), so the probe
measures kernel + streaming cost, not parquet IO.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pyarrow as pa

VOCAB = np.array(
    "the a of and to in is it for on as at by be or an был data key row "
    "batch merge sort scan join group filter window stream table part "
    "order line value hash small big fast slow query spark customer".split(),
    dtype=object,
)


def make_docs(batch: pa.Table) -> pa.Table:
    """Deterministic word-soup docs, ~60-140 tokens each, generated
    vectorized from the row id (same splitmix64 family as the synth
    tables)."""
    from osm_replication_rust_ray.sources.synth import _mix64 as mix64

    ids = batch["id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    n_tok = (mix64(ids) % np.uint64(81) + np.uint64(60)).astype(np.int64)
    total = int(n_tok.sum())
    doc_of = np.repeat(np.arange(len(ids)), n_tok)
    pos = np.arange(total) - np.repeat(
        np.cumsum(n_tok) - n_tok, n_tok
    )
    words = VOCAB[
        (mix64(ids[doc_of] * np.uint64(31) + pos.astype(np.uint64))
         % np.uint64(len(VOCAB))).astype(np.int64)
    ]
    # join per doc: build one big char buffer via pandas (C-level)
    import pandas as pd

    s = pd.Series(words).groupby(doc_of).agg(" ".join)
    return pa.table(
        {
            "doc_id": pa.array(ids.astype(np.int64), pa.int64()),
            "text": pa.array(s.to_numpy(), pa.string()),
        }
    )


def main() -> None:
    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000
    num_cpus = int(sys.argv[2]) if len(sys.argv) > 2 else 32

    import ray
    import ray.data

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False)

    from osm_replication_rust_ray.functions.decontam import (
        BenchShingleExtractor,
        DecontamScorer,
        ngram_repetition_stats,
    )
    from osm_replication_rust_ray.functions.text import pii_scrub

    results: dict[str, float] = {"n_docs": n_docs, "num_cpus": num_cpus}

    # Generate ONCE and materialize, so each operator's timing measures
    # the operator (streaming from object-store blocks), not the
    # generator.  ~600 MB at 1M docs — well inside the store.
    t0 = time.perf_counter()
    base = (
        ray.data.range(n_docs)
        .map_batches(make_docs, batch_format="pyarrow", batch_size=8192)
        .materialize()
    )
    results["gen_s"] = round(time.perf_counter() - t0, 2)

    def corpus():
        return base

    # --- PII scrub ---
    t0 = time.perf_counter()

    def scrub(batch: pa.Table) -> pa.Table:
        clean, counts = pii_scrub(batch["text"])
        return pa.table(
            {"doc_id": batch["doc_id"], "n": counts["<EMAIL>"]}
        )

    n = corpus().map_batches(
        scrub, batch_format="pyarrow", batch_size=8192
    ).count()
    results["pii_s"] = round(time.perf_counter() - t0, 2)
    results["pii_rows_per_s"] = round(n / results["pii_s"])

    # --- repetition quality (k=2 shingles + lexsort per batch) ---
    t0 = time.perf_counter()

    def rep(batch: pa.Table) -> pa.Table:
        stats = ngram_repetition_stats(batch["text"], 2)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "dup_frac": pa.array(stats["dup_frac"], pa.float64()),
            }
        )

    n = corpus().map_batches(
        rep, batch_format="pyarrow", batch_size=8192
    ).count()
    results["rep_s"] = round(time.perf_counter() - t0, 2)
    results["rep_rows_per_s"] = round(n / results["rep_s"])

    # --- decontamination (pass 1 bench set + pass 2 probe) ---
    t0 = time.perf_counter()
    bench_rows = (
        corpus()
        .map_batches(
            BenchShingleExtractor(8), batch_format="pyarrow", batch_size=8192
        )
        .take_all()
    )
    bench = np.unique(
        np.asarray([r["wh"] for r in bench_rows], np.uint64)
        if bench_rows
        else np.empty(0, np.uint64)
    )
    out = (
        corpus()
        .map_batches(
            DecontamScorer(bench, 8), batch_format="pyarrow", batch_size=8192
        )
        .sum("n_hits")
    )
    results["decontam_s"] = round(time.perf_counter() - t0, 2)
    results["decontam_rows_per_s"] = round(n_docs / results["decontam_s"])
    results["bench_set_size"] = int(len(bench))
    results["total_hits"] = int(out)

    print(json.dumps(results))
    ray.shutdown()


if __name__ == "__main__":
    main()
