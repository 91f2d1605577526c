"""Benchmark decontamination: exact n-gram overlap against a small
contamination set, as a broadcast semi-join.

The standard training-data hygiene step: flag every corpus document
that shares at least one exact k-token shingle with a benchmark /
eval set, so leaked test data can be dropped before training.  The
benchmark set is small BY DEFINITION (eval suites are thousands of
documents, the corpus is billions), which fixes the 100-TB shape:

- pass 1 streams the benchmark subset once and reduces it to a set of
  64-bit shingle hashes (hashes only — never text) that is bound into
  the pass-2 map function and read zero-copy by every corpus task;
- pass 2 streams the corpus once through ``map_batches``, computing
  per-document distinct window hashes and membership against the
  broadcast sorted array — no shuffle, no join, no driver loop.

All kernels are whole-batch numpy: tokenization via
``pyarrow.compute.split_pattern`` (single-space semantics, matching
``functions/text.py:token_counts``), token hashing via pandas'
fixed-key siphash (``pd.util.hash_array`` — deterministic across
processes), rolling k-window combination as k shifted
multiply-adds in uint64, per-document dedup via one ``lexsort``.
Window identity is a 64-bit hash, so cross-document equality has a
~2^-64 per-pair collision rate — negligible at any corpus size the
hash width is chosen for, and the gate's DuckDB oracle (which joins
on the exact shingle STRINGS) would surface a collision as a hash
mismatch.

No reference analogue (the reference has no text corpus ops); part of
the LLM-pipeline operator set alongside dedup/minhash/quota-sampling.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# Deterministic benchmark membership predicate shared with the SQL
# oracle: doc_id % BENCH_MOD == BENCH_REM (~1% of the corpus).
BENCH_MOD = 101
BENCH_REM = 7

_HASH_P = np.uint64(0x9E3779B97F4A7C15)


def shingle_window_hashes(
    texts: pa.Array | pa.ChunkedArray, k: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """All k-token window hashes of a batch of documents.

    Returns ``(doc_index, window_hash)`` — one entry per window, where
    ``doc_index`` is the row's position within the batch.  Documents
    shorter than k tokens contribute no windows.  Fully vectorized:
    the only Python-level loop is the k-step (k=8) rolling combine.
    """
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    toks = pc.split_pattern(texts, " ")
    if isinstance(toks, pa.ChunkedArray):  # pragma: no cover
        toks = toks.combine_chunks()
    offs = np.asarray(toks.offsets)
    offs = offs - offs[0]
    flat = toks.flatten()
    if len(flat) == 0 or len(flat) < k:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    th = pd.util.hash_array(
        flat.to_pandas().to_numpy(), categorize=True
    ).astype(np.uint64)
    m = len(th) - k + 1
    wh = np.zeros(m, np.uint64)
    for j in range(k):
        # powers computed in Python ints (explicit mod 2^64) to keep
        # the intentional wraparound free of numpy overflow warnings
        p = np.uint64(pow(int(_HASH_P), j, 1 << 64))
        wh += th[j : j + m] * p
    starts = np.arange(m)
    doc = np.searchsorted(offs, starts, side="right") - 1
    valid = starts + k <= offs[doc + 1]
    return doc[valid].astype(np.int64), wh[valid]


def distinct_per_doc(
    doc_idx: np.ndarray, wh: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Drop duplicate (doc, window) pairs — one lexsort, no Python."""
    if len(wh) == 0:
        return doc_idx, wh
    order = np.lexsort((wh, doc_idx))
    d_s, w_s = doc_idx[order], wh[order]
    keep = np.ones(len(d_s), bool)
    keep[1:] = (d_s[1:] != d_s[:-1]) | (w_s[1:] != w_s[:-1])
    return d_s[keep], w_s[keep]


def membership(values: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """values-in-sorted_set as a boolean mask (searchsorted probe)."""
    if len(sorted_set) == 0:
        return np.zeros(len(values), bool)
    pos = np.searchsorted(sorted_set, values)
    pos = np.minimum(pos, len(sorted_set) - 1)
    return sorted_set[pos] == values


def ngram_repetition_stats(
    texts: pa.Array | pa.ChunkedArray, k: int = 2
) -> dict[str, np.ndarray]:
    """Gopher-style repetition quality signals, per document: total
    k-gram windows, distinct windows, duplicate-window fraction and
    top-window fraction (the share of the most frequent k-gram).
    High dup_frac / top_frac marks boilerplate and degenerate
    repetition — the standard pre-training quality filter.

    One shingle pass + one lexsort per batch; per-(doc, gram) run
    lengths fall out of the sort boundaries (``np.diff``), the per-doc
    max via ``np.maximum.at`` — no per-row Python.  Docs shorter than
    k tokens report 0 grams and 0.0 fractions.
    """
    n = len(texts)
    doc_idx, wh = shingle_window_hashes(texts, k)
    n_grams = np.bincount(doc_idx, minlength=n).astype(np.int64)
    if len(wh):
        order = np.lexsort((wh, doc_idx))
        d_s, w_s = doc_idx[order], wh[order]
        new_seg = np.ones(len(d_s), bool)
        new_seg[1:] = (d_s[1:] != d_s[:-1]) | (w_s[1:] != w_s[:-1])
        n_distinct = np.bincount(d_s[new_seg], minlength=n).astype(np.int64)
        bounds = np.flatnonzero(new_seg)
        seg_len = np.diff(np.append(bounds, len(d_s)))
        max_c = np.zeros(n, np.int64)
        np.maximum.at(max_c, d_s[bounds], seg_len)
    else:
        n_distinct = np.zeros(n, np.int64)
        max_c = np.zeros(n, np.int64)
    denom = np.maximum(n_grams, 1)
    return {
        "n_grams": n_grams,
        "n_distinct": n_distinct,
        "dup_frac": np.where(n_grams > 0, (n_grams - n_distinct) / denom, 0.0),
        "top_frac": np.where(n_grams > 0, max_c / denom, 0.0),
    }


class BenchShingleExtractor:
    """map_batches fn for pass 1: keep only benchmark rows and emit
    their batch-distinct window hashes (a keys-only column — text
    never leaves the task)."""

    def __init__(self, k: int = 8):
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        mask = ids % BENCH_MOD == BENCH_REM
        if not mask.any():
            return pa.table({"wh": pa.array([], pa.uint64())})
        texts = batch["text"].filter(pa.array(mask))
        _, wh = shingle_window_hashes(texts, self.k)
        return pa.table({"wh": pa.array(np.unique(wh), pa.uint64())})


class DecontamScorer:
    """map_batches fn for pass 2: per document, the number of its
    DISTINCT k-token windows present in the benchmark set and the
    contaminated flag.  ``bench`` is the sorted uint64 hash set, bound
    by value (a task reads it zero-copy)."""

    def __init__(self, bench: np.ndarray, k: int = 8):
        self.bench = bench
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_idx, wh = shingle_window_hashes(batch["text"], self.k)
        d_u, w_u = distinct_per_doc(doc_idx, wh)
        hit = membership(w_u, self.bench)
        n_hits = np.bincount(
            d_u[hit], minlength=batch.num_rows
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_hits": pa.array(n_hits, pa.int64()),
                "contaminated": pa.array(n_hits > 0),
            }
        )
