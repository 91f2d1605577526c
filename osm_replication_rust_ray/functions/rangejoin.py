"""Distributed 1-D range (interval) join — with the spatial join's
filter-then-refine shape collapsed to one dimension: intervals are
covered by fixed-width buckets, points hash to their bucket, a C-level
equi-join on bucket id yields candidates, and an exact BETWEEN filter
refines. The partitioning assumption (documented, same as the cell
join): interval width is bounded relative to the bucket width, so the
per-interval bucket fan-out stays small; degenerate huge intervals
should be routed to a broadcast side instead.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _interval_buckets(lo: np.ndarray, hi: np.ndarray, width: int):
    """(row_idx, bucket) covering pairs for [lo, hi] intervals."""
    b0 = lo // width
    b1 = hi // width
    span = (b1 - b0 + 1).astype(np.int64)
    total = int(span.sum())
    rep = np.repeat(np.arange(len(lo), dtype=np.int64), span)
    cum = np.cumsum(span)
    k = np.arange(total) - np.repeat(cum - span, span)
    return rep, np.repeat(b0, span) + k


def range_join(
    points,
    intervals,
    point_col: str,
    lo_col: str,
    hi_col: str,
    bucket_width: int,
    num_partitions: int | None = None,
    interval_rows_hint: int = 0,
    interval_bytes_hint: int = 0,
):
    """points ⋈ intervals where lo <= point value <= hi (inclusive).

    ``points`` keeps all its columns; interval columns ride along.
    Both sides stream; the only wide op is the bucket equi-join — and
    when the caller's footer-metadata hints prove the covered interval
    table small (the stages/dist.BROADCAST_ROWS / _BYTES crossover),
    that join runs broadcast per streamed point block instead,
    skipping the hash-shuffle aggregator pool's fixed cost.  Hints of
    0 (unknown) keep the shuffle path — the scale-safe default.
    """
    int_cols = list(intervals.schema().names)
    pt_cols = list(points.schema().names)
    if num_partitions is None:
        # size the join's aggregator pool to data, not cores: callers
        # that know input bytes should pass num_partitions explicitly
        from ..tuning import join_partitions

        num_partitions = join_partitions()

    def cover(batch: pa.Table) -> pa.Table:
        lo = batch[lo_col].to_numpy(zero_copy_only=False).astype(np.int64)
        hi = batch[hi_col].to_numpy(zero_copy_only=False).astype(np.int64)
        rep, buckets = _interval_buckets(lo, hi, bucket_width)
        t = batch.take(pa.array(rep))
        return t.append_column("__bucket", pa.array(buckets, pa.int64()))

    def at_bucket(batch: pa.Table) -> pa.Table:
        v = batch[point_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column(
            "__bucket", pa.array(v // bucket_width, pa.int64())
        )

    covered = intervals.map_batches(cover, batch_format="pyarrow", batch_size=32768)
    bucketed = points.map_batches(at_bucket, batch_format="pyarrow", batch_size=32768)

    from ..stages.dist import crossover_join

    joined = crossover_join(
        bucketed, covered, on=("__bucket",), right_on=None,
        num_partitions=num_partitions,
        est_rows=interval_rows_hint, est_bytes=interval_bytes_hint,
    )

    def refine(batch: pa.Table) -> pa.Table:
        v = batch[point_col].to_numpy(zero_copy_only=False).astype(np.int64)
        lo = batch[lo_col].to_numpy(zero_copy_only=False).astype(np.int64)
        hi = batch[hi_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = (v >= lo) & (v <= hi)
        t = batch.filter(pa.array(keep))
        return t.select([c for c in pt_cols + int_cols if c != "__bucket"])

    return joined.map_batches(refine, batch_format="pyarrow", batch_size=65536)
