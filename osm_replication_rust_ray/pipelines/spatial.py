"""Flagship payload pipeline: synth payload -> extents -> cells ->
polygon-tree spatial join -> tile assignment (north_star end-to-end).

Every stage is a vectorized Arrow `map_batches`; the polygon tree is
broadcast once (``ray.put``) and indexed per actor; per-tile counts are
computed with a partial-aggregate inside `map_batches` before the
(small) groupby — the skew-safe two-phase pattern for the hotspot cell
(SURVEY §4 "skew / stragglers").
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..cells import DEFAULT_RES, encode_cells
from ..sources.synth import derive_extents, payload_dataset, polygon_tree_entries
from ..stages.spatial_join import SpatialJoinActor
from ..tuning import est_tasks, join_partitions, pool_concurrency

TILE_RES = 7


def add_extents_and_cells(batch: pa.Table) -> pa.Table:
    """Derive the geometry extent from phash + encode center cell / tile."""
    ext = derive_extents(batch["phash"].to_numpy(zero_copy_only=False))
    clon = (ext["minlon"] + ext["maxlon"]) // 2
    clat = (ext["minlat"] + ext["maxlat"]) // 2
    cell = encode_cells(clon, clat, DEFAULT_RES)
    tile = encode_cells(clon, clat, TILE_RES)
    for name in ("minlat", "maxlat", "minlon", "maxlon"):
        batch = batch.append_column(name, pa.array(ext[name], pa.int64()))
    batch = batch.append_column("lon", pa.array(clon, pa.int64()))
    batch = batch.append_column("lat", pa.array(clat, pa.int64()))
    batch = batch.append_column("cell", pa.array(cell, pa.int64()))
    batch = batch.append_column("tile", pa.array(tile, pa.int64()))
    return batch


def payload_with_extents(n_rows: int, with_bytes: bool = False,
                         parallelism: int = -1):
    ds = payload_dataset(n_rows, with_bytes=with_bytes, parallelism=parallelism)
    return ds.map_batches(add_extents_and_cells, batch_format="pyarrow",
                          batch_size=8192)


def flagship_assignments(
    n_rows: int = 1000,
    concurrency: int | tuple | None = None,
    batch_size: int = 4096,
    with_bytes: bool = False,
    parallelism: int = -1,
):
    """Payload -> assignments Dataset (image_id, poly_path, verdict)."""
    import ray

    if concurrency is None:
        concurrency = pool_concurrency(est_tasks(n_rows=n_rows, batch_rows=batch_size))
    ds = payload_with_extents(n_rows, with_bytes=with_bytes, parallelism=parallelism)
    ref = ray.put(polygon_tree_entries())
    return ds.map_batches(SpatialJoinActor, fn_constructor_args=(ref,),
                          batch_format="pyarrow", batch_size=batch_size,
                          concurrency=concurrency)


def assignment_counts(ds):
    """(poly_path, verdict) row counts as a pandas DataFrame.

    Per-batch partial combine (pyarrow C++ hash-agg) runs distributed;
    the final merge happens driver-side because the partial stream is
    BOUNDED (n_tree_nodes x 3 verdicts x n_blocks rows) — collecting
    partial aggregates of a small key domain is the classic pattern; a
    Ray groupby here would cost a full shuffle for ~one block of data."""

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["poly_path", "verdict"]).aggregate(
            [("verdict", "count")]
        )
        return g.rename_columns(["poly_path", "verdict", "n"])

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    df = partials.to_pandas()
    out = (
        df.groupby(["poly_path", "verdict"], as_index=False)["n"]
        .sum()
        .rename(columns={"n": "n_rows"})
        .sort_values(["poly_path", "verdict"])
        .reset_index(drop=True)
    )
    out["n_rows"] = out["n_rows"].astype("int64")
    return out


def route_payload_with_bytes(
    n_rows: int,
    out_dir: str,
    manifest,
    concurrency: int | tuple | None = None,
    num_join_partitions: int | None = None,
    sequence: int = 1,
):
    """Tile-route the FULL payload (including image bytes) to
    per-poly-path partitioned parquet with lineage (SURVEY §7 step 8 +
    hard part #6).

    The wide work (extent derivation, cell encode, spatial join, tree
    chaining) is ``flagship_assignments`` on the byte-less payload —
    `bytes` never enters any shuffle except the single final hash join
    that co-locates each image with its assignment (the minimal
    possible payload movement).  Verdict='keep' rows only (the delete
    stream is key-only by design).

    Returns the list of PartitionRecords written.
    """
    import pyarrow.compute as pc

    from ..state.manifest import write_partitioned

    if num_join_partitions is None:
        # payload side dominates: ~64KiB of image bytes per row
        num_join_partitions = join_partitions(n_bytes=n_rows * (64 << 10))
    assignments = flagship_assignments(n_rows, concurrency=concurrency, batch_size=8192)
    keeps = assignments.map_batches(
        lambda b: b.filter(pc.equal(b["verdict"], "keep")),
        batch_format="pyarrow",
    )
    # single bytes-moving step: hash join payload -> its assignments.
    # Always shuffle (round-3 verdict item #9 annotation): BOTH sides
    # scale with the dataset — keeps is O(input rows) and payload
    # carries the image bytes — so the broadcast arm is never
    # eligible at any scale worth optimizing, and a crossover check
    # would only add a footer probe to the one join whose sides are
    # synthetic here anyway.
    payload = payload_dataset(n_rows, with_bytes=True)
    routed = keeps.join(
        payload,
        join_type="inner",
        num_partitions=num_join_partitions,
        on=("image_id",),
    )
    return write_partitioned(
        routed, out_dir, "poly_path", manifest, sequence=sequence
    )


def tile_counts(n_rows: int = 1000, parallelism: int = -1):
    """Per-tile row counts with partial pre-aggregation (skew-safe)."""
    from ray.data.aggregate import Sum

    ds = payload_with_extents(n_rows, parallelism=parallelism)

    def partial(batch: pa.Table) -> pa.Table:
        tiles = batch["tile"].to_numpy(zero_copy_only=False)
        uniq, counts = np.unique(tiles, return_counts=True)
        return pa.table(
            {"tile": pa.array(uniq, pa.int64()), "n": pa.array(counts, pa.int64())}
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=16384)
    return partials.groupby("tile").aggregate(Sum("n", alias_name="n_rows"))
