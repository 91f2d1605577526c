"""Sequence packing (concat-and-chunk) for LLM training data.

The standard pretraining packing strategy: documents are concatenated
in a deterministic order into one global token stream, which is then
split into fixed-size bins (context windows).  Each document gets the
bin it starts in, its offset inside that bin, and whether it spans a
bin boundary (the signal attention-masking / document-boundary
policies key on).

Scale shape: ONE range-partition sort by the document key, a
vectorized per-block exclusive prefix sum, one summary row per block,
a driver walk bounded by BLOCK COUNT to accumulate cross-block
offsets (same bounded-merge pattern as functions/windows.py
running_sum_cents), and a final vectorized map.
No per-row Python, no per-key shuffle beyond the sort.

Reference analogue: none (reference has no training-data surface);
this extends the engine's quota-sampling / dedup operator family.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def pack_sequences(ds, id_col: str, count_col: str, budget: int):
    """-> Dataset[id_col, count_col, bin_id, bin_offset, spans_bins]
    for documents ordered by ``id_col``: bin_id = global exclusive
    token prefix // budget, bin_offset = prefix % budget, spans_bins =
    the document crosses into the next bin.

    Assumes ``id_col`` values are unique (document keys).  Blocks of a
    range-partition sort are ordered by their first-row key — the same
    contiguity argument running_sum_cents documents — so cross-block
    offsets accumulate along the block chain.
    """
    sorted_ds = ds.sort(id_col)

    def per_block(batch: pa.Table) -> pa.Table:
        n = len(batch)
        if n == 0:
            return pa.table(
                {
                    "__kind": pa.array([], pa.string()),
                    id_col: pa.array([], pa.int64()),
                    count_col: pa.array([], pa.int64()),
                    "__pre": pa.array([], pa.int64()),
                    "__tag": pa.array([], pa.int64()),
                }
            )
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = batch[count_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cum = np.cumsum(cnt)
        tag = int(ids[0])
        return pa.table(
            {
                "__kind": pa.array(["r"] * n + ["s"], pa.string()),
                id_col: pa.array(np.concatenate([ids, [tag]]), pa.int64()),
                count_col: pa.array(np.concatenate([cnt, [0]]), pa.int64()),
                "__pre": pa.array(
                    np.concatenate([cum - cnt, [int(cum[-1])]]), pa.int64()
                ),
                "__tag": pa.array(np.full(n + 1, tag), pa.int64()),
            }
        )

    mat = sorted_ds.map_batches(
        per_block, batch_format="pyarrow", batch_size=None
    ).materialize()

    # one summary row per block -> cross-block offsets (driver walk
    # bounded by block count; blocks ordered by first-row key)
    summaries = mat.map_batches(
        lambda b: b.filter(pc.equal(b["__kind"], "s")),
        batch_format="pyarrow",
    ).take_all()
    summaries.sort(key=lambda r: r["__tag"])
    offset_of: dict[int, int] = {}
    acc = 0
    for s in summaries:
        offset_of[s["__tag"]] = acc
        acc += s["__pre"]

    def finalize(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.equal(batch["__kind"], "r"))
        tags = batch["__tag"].to_numpy(zero_copy_only=False)
        pre = batch["__pre"].to_numpy(zero_copy_only=False).copy()
        for t in np.unique(tags):  # few distinct tags per batch
            pre[tags == t] += offset_of[int(t)]
        cnt = batch[count_col].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                id_col: batch[id_col],
                count_col: batch[count_col],
                "bin_id": pa.array(pre // budget, pa.int64()),
                "bin_offset": pa.array(pre % budget, pa.int64()),
                "spans_bins": pa.array(pre % budget + cnt > budget),
            }
        )

    return mat.map_batches(finalize, batch_format="pyarrow")
