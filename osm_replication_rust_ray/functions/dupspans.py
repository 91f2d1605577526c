"""Exact cross-document duplicated-span detection (substring dedup).

The substring-level dedup primitive of Lee et al., "Deduplicating
Training Data Makes Language Models Better" (2021): a k-token window
that occurs in two or more DISTINCT documents is a duplicated span,
and each document reports how many of its distinct windows are
cross-document duplicates — the signal used to cut boilerplate,
mirrored articles and licence blocks out of a pre-training corpus.

Scale shape (two regimes, identical outputs):

- the (window-hash, doc_id) pair stream is keys-only — 16 bytes per
  window, text never enters a wide operation;
- "duplicated" is decided by a grouped min/max of doc_id per hash
  (dup iff min < max) — partial-combinable, no count-distinct;
- the duplicated-hash SET then routes by its measured size: under the
  broadcast crossover it is bound into a second corpus pass, which
  counts hits per document (no join at all); past it —
  web-scale corpora where the dup set itself is corpus-sized — the
  pair stream shuffle-joins the set back and per-document counts come
  from a grouped aggregate.

Window identity is the same 64-bit rolling hash as benchmark
decontamination (``functions/decontam.py``); the DuckDB oracle joins
the exact shingle STRINGS, so a hash collision would surface as a
gate mismatch.

No reference analogue (the reference has no text corpus ops); part of
the LLM-pipeline operator set alongside decontam/minhash/dedup.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .decontam import distinct_per_doc, membership, shingle_window_hashes


class PairEmitter:
    """map_batches fn (pass 1): one row per DISTINCT k-token window
    per document — ``(wh: uint64, doc_id: int64)``, keys only."""

    def __init__(self, k: int = 8):
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        d, wh = shingle_window_hashes(batch["text"], self.k)
        d, wh = distinct_per_doc(d, wh)
        return pa.table(
            {
                "wh": pa.array(wh, pa.uint64()),
                "doc_id": pa.array(ids[d], pa.int64()),
            }
        )


class DupSpanScorer:
    """map_batches fn (pass 2, broadcast regime): per document, the
    count of distinct k-token windows and of those present in the
    duplicated-window set.  ``dup`` is the sorted uint64 set, bound by
    value (a task reads it zero-copy)."""

    def __init__(self, dup: np.ndarray, k: int = 8):
        self.dup = dup
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        d, wh = shingle_window_hashes(batch["text"], self.k)
        d, wh = distinct_per_doc(d, wh)
        n_grams = np.bincount(d, minlength=n).astype(np.int64)
        hit = membership(wh, self.dup)
        n_dup = np.bincount(d[hit], minlength=n).astype(np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_grams": pa.array(n_grams, pa.int64()),
                "n_dup_grams": pa.array(n_dup, pa.int64()),
                "has_dup": pa.array(n_dup > 0),
            }
        )
