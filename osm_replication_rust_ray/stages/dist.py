"""Join and materialization helpers for the Ray Data query plans.

The query registry (`pipelines/queries.py`), connected components,
PageRank, triangles, DBSCAN and the graph-local queries build their
distributed plans from these pieces:

- ``safe_join``: ``Dataset.join`` hardened for sparse inputs, with a
  broadcast path for a small counted side;
- ``crossover_join``: an inner join whose broadcast-vs-shuffle choice
  is made from metadata estimates, without executing either side;
- ``reroot``, ``mat_coalesced``, ``mat_concurrently``: materialization
  that drops the logical plan, coalesces microblocks, and runs
  independent barriers side by side;
- ``FixpointCapError`` and ``REL_ROUNDS_CAP``: the round cap of the
  iterated fixpoints, the diff kernels' relation rounds included.

The replication diff (bbox annotation and the polygon-tree filter)
uses only the last two: it runs in the calling process on whole-diff
numpy kernels (`stages/bbox.py`, `stages/filter.py`).
"""

from __future__ import annotations

import pyarrow as pa


class FixpointCapError(RuntimeError):
    """A bounded fixpoint hit its round cap WITHOUT converging: a memo
    chain or relation nesting deeper than the cap would otherwise yield
    results that silently diverge from the unbounded computation.
    Raising makes the cap a correctness guard, not a silent truncation;
    callers with genuinely deeper data raise the cap explicitly."""


# rounds of the relation fixpoints of the bbox and filter kernels
# before FixpointCapError
REL_ROUNDS_CAP = 64


def safe_join(left, right, join_type: str, num_partitions: int,
              on: tuple, right_on: tuple | None = None,
              payload: dict[str, pa.DataType] | None = None,
              left_fields: dict[str, pa.DataType] | None = None):
    """``Dataset.join`` hardened for sparse/small inputs, with an
    automatic BROADCAST path for small sides.

    Shuffle-path hardening: Ray 2.49's hash-shuffle join broadcasts
    each side's schema with the FIRST block only; ``_shuffle_block``
    early-returns on an empty block, so a dataset whose first block is
    empty (routine after a selective filter) leaves some
    aggregator partitions with a schema-less side and pyarrow fails
    with "No match ... FieldRef".  Fix: materialize + repartition both
    sides so every block is non-empty, and resolve empty-side joins
    explicitly.

    Broadcast path: when one side is provably small (rows AND bytes
    under ``BROADCAST_ROWS`` / ``BROADCAST_BYTES``), bind it into the
    map function and run a local pyarrow/Acero join per streamed block
    of the big side — no all-to-all, no aggregator-actor spawn.  The
    output schema is identical to Ray's hash join (verified: left
    columns + right non-key columns, right keys dropped) so the two
    paths are interchangeable; tests force one by setting the two
    constants to 0 or past any input.  At 10^12-row scale this is the
    documented "broadcast small sides" pattern: the store side
    streams, only the candidate side broadcasts.

    ``payload``: right-side non-key output columns (name -> type),
    required to type the result when the right side is empty.
    """
    payload = payload or {}
    # FAST PATH: small right side -> broadcast it and keep the LEFT
    # side fully LAZY (no materialize barrier).  A plan that chains
    # joins whose left sides are short map chains off materialized
    # tables skips one full pipeline execution per join.  The map fn
    # is deterministic per row, so a downstream double-consume
    # re-executes to identical results (unlike sort-boundary logic).
    if join_type in _PA_JOIN_TYPE:
        right = right.materialize()
        rn = right.count()
        if rn > 0 and _is_small(right, rn):
            lsch = _schema_no_exec(left)
            if lsch is None:
                left = left.materialize()
                lsch = left.schema()
            ron = tuple(right_on or on)
            rsch = right.schema()
            if lsch is not None and not (
                (set(rsch.names) - set(ron)) & set(lsch.names)
            ):
                t = _collect_table(right)
                jt = _PA_JOIN_TYPE[join_type]

                def join_r(b: pa.Table) -> pa.Table:
                    return b.join(t, keys=list(on), right_keys=list(ron),
                                  join_type=jt)

                return left.map_batches(join_r, batch_format="pyarrow")
    left = left.materialize()
    right = right.materialize()
    ln, rn = left.count(), right.count()

    def left_plus_null_payload():
        def fn(b: pa.Table) -> pa.Table:
            cols = {c: b[c] for c in b.schema.names}
            for c, t in payload.items():
                cols[c] = pa.nulls(len(b), t)
            return pa.table(cols)

        return left.map_batches(fn, batch_format="pyarrow")

    if join_type == "left_anti" and rn == 0:
        return left
    if ln == 0 or rn == 0:
        if join_type == "left_outer":
            return left_plus_null_payload()
        # inner/semi/anti with an empty driving side -> typed empty
        import ray.data

        schema = left.schema()
        if schema is not None:
            fields = list(zip(schema.names, schema.types))
        else:  # empty dataset whose lineage lost the schema
            assert left_fields is not None, "left_fields needed for schema-less empty left"
            fields = list(left_fields.items())
        if join_type in ("inner", "left_outer"):
            drop = set(right_on or ())
            fields += [(c, t) for c, t in payload.items() if c not in drop]
        return ray.data.from_arrow(pa.schema(fields).empty_table())
    if join_type == "inner":
        bc = _broadcast_inner_swapped(left, right, on, right_on, ln)
        if bc is not None:
            return bc
    lparts = max(1, min(num_partitions, ln))
    rparts = max(1, min(num_partitions, rn))
    k = max(lparts, rparts)
    # The schema hazard needs an EMPTY INPUT BLOCK; when the block
    # metadata of both (already materialized) sides proves every block
    # non-empty, skip the two guard repartitions — in a chain of joins
    # those all-to-alls dominate wall time.
    if _blocks_all_nonempty(left) and _blocks_all_nonempty(right):
        return left.join(right, join_type, k, on=on, right_on=right_on)
    return left.repartition(lparts).join(
        right.repartition(rparts), join_type, k,
        on=on, right_on=right_on,
    )


def _blocks_all_nonempty(mat) -> bool:
    """Metadata-only scan of a materialized dataset's blocks (no block
    fetch); False on any empty/unknown block or API drift."""
    try:
        for rb in mat.iter_internal_ref_bundles():
            for _ref, meta in rb.blocks:
                if not meta.num_rows:
                    return False
        return True
    except Exception:
        return False


_PA_JOIN_TYPE = {
    "inner": "inner",
    "left_outer": "left outer",
    "left_anti": "left anti",
    "left_semi": "left semi",
}


# MEASURED crossover, not a guess: the per-block Acero hash build is
# linear in the broadcast side, so a big broadcast side pays that build
# once per streamed block — at 1M broadcast rows a 1M-row join chain
# ran 5x SLOWER than the shuffle join (837 s vs ~170 s).  200k rows /
# 32 MB keeps the per-block build in the low milliseconds while
# covering every genuinely small side (candidate sets, memo tables).
# A side broadcasts only when it is under BOTH.
BROADCAST_ROWS = 200_000
BROADCAST_BYTES = 32 << 20


def _is_small(mat, n_rows: int) -> bool:
    if n_rows > BROADCAST_ROWS:
        return False
    sb = mat.size_bytes()
    return sb is not None and sb <= BROADCAST_BYTES


def _collect_table(mat) -> pa.Table:
    """Driver-collect a (threshold-bounded) materialized side to one
    Arrow table for broadcast."""
    import ray

    return pa.concat_tables(ray.get(mat.to_arrow_refs()),
                            promote_options="default")


def broadcast_decision(est_rows: int, est_bytes: int) -> bool:
    """Shared broadcast-vs-shuffle decision for DRIVER-side metadata
    estimates (parquet footers / derived fan-outs — no execution):
    both the row and byte estimates must sit under the measured
    crossover that ``safe_join`` applies to counted sides."""
    return 0 < est_rows <= BROADCAST_ROWS and 0 < est_bytes <= BROADCAST_BYTES


def crossover_join(left, right, on: tuple, right_on: tuple | None,
                   num_partitions: int, est_rows: int, est_bytes: int):
    """Inner join whose broadcast-vs-shuffle choice is made at the
    DRIVER from metadata estimates of the RIGHT side (no execution of
    either side — unlike ``safe_join``, which counts its sides and
    hardens for empty blocks, this never materializes the left side).

    Each Ray hash-shuffle join pays a ~1.5 s fixed aggregator-pool
    cost regardless of data size; under the measured crossover the
    right side is bound into the map function and joins per streamed
    block.  Past it — always at the 10^12-row design scale — only the
    shuffle path runs, so no node collects a data-sized table."""
    right_on = right_on or on
    if broadcast_decision(est_rows, est_bytes):
        t = _collect_table(right.materialize())

        def local_join(b: pa.Table) -> pa.Table:
            return b.join(t, keys=list(on),
                          right_keys=list(right_on), join_type="inner")

        return left.map_batches(local_join, batch_format="pyarrow")
    return left.join(right, join_type="inner",
                     num_partitions=num_partitions,
                     on=on, right_on=right_on)


def reroot(ds):
    """Materialize AND drop the accumulated logical plan.

    ``Dataset.materialize()`` pins the blocks but the returned handle
    still carries the full logical plan, which Ray re-plans on every
    later execution — an ITERATED fixpoint (CC / PageRank / BFS /
    walk rounds) therefore doubles its driver-side planning cost per
    round even though rows, blocks and chunks stay constant (measured
    on a 105k-row label table: 0.6 s -> 223 s per round by round 11,
    driver pegged at 100%).  Rebuilding the dataset from the
    materialized blocks' object refs (``from_arrow_refs`` — zero-copy,
    nothing leaves the object store) resets the plan to a leaf:
    the same loop stays flat at 0.6 s/round."""
    import ray.data as rd

    return rd.from_arrow_refs(ds.materialize().to_arrow_refs())


def _schema_no_exec(ds):
    """Dataset schema WITHOUT triggering execution; None if unknown."""
    try:
        return ds.schema(fetch_if_missing=False)
    except Exception:
        return None


def _broadcast_inner_swapped(left, right, on: tuple,
                             right_on: tuple | None, ln: int):
    """Inner join with a small LEFT side against a big right side:
    inner is symmetric, so broadcast the left table and STREAM the
    right.  pyarrow still emits left-columns-first, so the output
    schema matches the unswapped join exactly.  None when ineligible
    (caller falls through to the shuffle join).

    (The right-small case is handled earlier, lazily, in
    ``safe_join``; by this point both sides are materialized.)
    """
    if not _is_small(left, ln):
        return None
    lsch, rsch = left.schema(), right.schema()
    if lsch is None or rsch is None:
        return None
    ron = tuple(right_on or on)
    # Ray's join drops right keys; a collision between the remaining
    # right columns and left columns would need suffix semantics we
    # don't replicate -> shuffle path handles (or errors) as before
    if (set(rsch.names) - set(ron)) & set(lsch.names):
        return None
    t = _collect_table(left)

    def join_l(b: pa.Table) -> pa.Table:
        return t.join(b, keys=list(on), right_keys=list(ron),
                      join_type="inner")

    return right.map_batches(join_l, batch_format="pyarrow")


def _coalesce_blocks(n_rows: int, rows_per_block: int = 500_000) -> int:
    """Block count for a SMALL derived table: one block per ~500k rows.
    An input enters at O(cpus) blocks and every union doubles the block
    count, so without coalescing a 100k-row derived table drags 100+
    microblocks through every downstream execution — measured on a
    1M-row join chain, this microblock train (not data volume)
    dominated the wall time."""
    return max(1, n_rows // rows_per_block + 1)


def mat_coalesced(ds):
    """Materialize, then coalesce if the block count is far above the
    row-derived target (the repartition is skipped when blocks are
    already reasonable — it would be a pure extra execution)."""
    m = ds.materialize()
    k = _coalesce_blocks(m.count())
    if m.num_blocks() > 4 * k:
        m = m.repartition(k).materialize()
    return m


def mat_concurrently(datasets: list) -> list:
    """Materialize+coalesce INDEPENDENT datasets concurrently, one
    driver thread each — every dataset gets its own streaming executor
    and Ray schedules their tasks side by side, so a chain of small
    barriers costs ~max() instead of sum() of its members."""
    if len(datasets) <= 1:
        return [mat_coalesced(d) for d in datasets]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(datasets)) as ex:
        return list(ex.map(mat_coalesced, datasets))
