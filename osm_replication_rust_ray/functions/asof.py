"""Distributed as-of (backward) join — a custom operator Ray Data
lacks natively (SURVEY §2 custom-operator mandate; the reference's
modified-children bbox semantics, src/osmxml/bbox.rs:60-67, is this
join's sequential special case).

``asof_join(probes, states, by, on, state_cols)``: for every probe row,
attach the state row with the LARGEST ``on`` value <= the probe's
``on`` within the same ``by`` key (inclusive; null columns when no such
state exists).

Partitioning strategy (the documented assumption): one range-partition
sort by (by, on, src) co-locates each key's timeline; within a sorted
block a vectorized reset-at-key-boundary cumulative-max resolves every
probe that has an in-block predecessor state.  Cross-block resolution
needs NO shuffle and NO per-key merge: because keys are contiguous
after the sort, only a block's FIRST key run can have states in
earlier blocks, and the valid carry is exactly the latest earlier
state of that key — reconstructed from ONE summary row per block with
a driver walk bounded by the block count (the same bounded-merge
pattern as functions/windows.py:running_sum_cents).  An earlier
per-key ``groupby().map_groups`` merge paid a Python call per key and
became the pipeline bottleneck at 1M-row inputs (millions of
mostly-stateless probe keys); the block-summary walk replaces it.

States must be unique per (by, on) for a deterministic result (ties
between states at identical timestamps are otherwise order-dependent —
same caveat as DuckDB's ASOF JOIN).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_TAGS = ("__tag_key", "__tag_on", "__tag_src")


def _carry_indices(keys: np.ndarray, is_state: np.ndarray) -> np.ndarray:
    """Per row: index of the latest state row at-or-before it with the
    same key, or -1 (vectorized reset-at-key-change cumulative max)."""
    n = len(keys)
    if n == 0:
        return np.empty(0, np.int64)
    run_start = np.concatenate(([True], keys[1:] != keys[:-1]))
    run_id = np.cumsum(run_start) - 1
    base = np.int64(n + 2)
    last_state = np.where(is_state, np.arange(n, dtype=np.int64), -1)
    lifted = last_state + run_id * base
    carried = np.maximum.accumulate(lifted)
    return carried - run_id * base


def asof_join(
    probes,
    states,
    by: str,
    on: str,
    state_cols: list[str],
):
    """-> Dataset: probe columns + ``state_cols`` (as-of values).

    ``probes`` / ``states``: Ray Datasets sharing ``by`` (int64 key)
    and ``on`` (int64 ordering column).
    """
    pschema = probes.schema()
    sschema = states.schema()
    probe_cols = list(pschema.names)
    ptypes = dict(zip(pschema.names, pschema.types))
    stypes = dict(zip(sschema.names, sschema.types))

    def tag_probe(batch: pa.Table) -> pa.Table:
        cols = {c: batch[c] for c in probe_cols}
        cols["__src"] = pa.array(np.ones(len(batch), np.int8))
        for c in state_cols:
            cols[c] = pa.nulls(len(batch), stypes[c])
        return pa.table(cols)

    def tag_state(batch: pa.Table) -> pa.Table:
        cols = {}
        for c in probe_cols:
            if c in (by, on):
                cols[c] = batch[c]
            else:
                cols[c] = pa.nulls(len(batch), ptypes[c])
        cols["__src"] = pa.array(np.zeros(len(batch), np.int8))
        for c in state_cols:
            cols[c] = batch[c]
        return pa.table(cols)

    unified = probes.map_batches(tag_probe, batch_format="pyarrow").union(
        states.map_batches(tag_state, batch_format="pyarrow")
    )
    # state rows (src=0) sort BEFORE probe rows at equal (by, on):
    # inclusive "at or before" semantics
    sorted_ds = unified.sort(key=[by, on, "__src"])

    out_schema_cols = probe_cols + state_cols

    def per_block(batch: pa.Table) -> pa.Table:
        n = len(batch)
        if n == 0:
            cols = {c: batch[c] for c in out_schema_cols}
            cols["__kind"] = pa.array([], pa.string())
            for c in _TAGS + ("__last_key", "__has_state"):
                cols[c] = pa.array([], pa.int64())
            return pa.table(cols)
        keys = batch[by].to_numpy(zero_copy_only=False)
        ons = batch[on].to_numpy(zero_copy_only=False)
        src = batch["__src"].to_numpy(zero_copy_only=False)
        is_state = src == 0
        carry = _carry_indices(keys, is_state)
        run_start = np.concatenate(([True], keys[1:] != keys[:-1]))
        run_id = np.cumsum(run_start) - 1
        probe_idx = np.nonzero(~is_state)[0]
        resolved_m = carry[probe_idx] >= 0
        # only the FIRST key run can have states in earlier blocks
        # (keys are contiguous across the sorted block sequence); an
        # unresolved probe in a later run has no state anywhere
        pending_m = (~resolved_m) & (run_id[probe_idx] == 0)
        t = batch.take(pa.array(probe_idx))
        cols = {c: t[c] for c in probe_cols}
        st = batch.take(pa.array(np.where(resolved_m, carry[probe_idx], 0)))
        res_arr = pa.array(resolved_m)
        for c in state_cols:
            cols[c] = pc.if_else(res_arr, st[c], t[c])  # t[c] is null
        cols["__kind"] = pa.array(np.where(pending_m, "p", "f"))
        tk, ton, tsrc = int(keys[0]), int(ons[0]), int(src[0])
        for name, tag in zip(_TAGS, (tk, ton, tsrc)):
            cols[name] = pa.array(
                np.where(pending_m, tag, 0).astype(np.int64)
            )
        cols["__last_key"] = pa.array(np.zeros(len(t), np.int64))
        cols["__has_state"] = pa.array(np.zeros(len(t), np.int64))
        rows = pa.table(cols)
        # ONE summary row: block tag + last key + its last in-block state
        lk = int(keys[-1])
        lk_states = np.nonzero(is_state & (keys == lk))[0]
        scols = {}
        for c in probe_cols:
            scols[c] = pa.nulls(1, ptypes[c])
        if len(lk_states):
            last_state = batch.take(pa.array([int(lk_states[-1])]))
            for c in state_cols:
                scols[c] = last_state[c]
        else:
            for c in state_cols:
                scols[c] = pa.nulls(1, stypes[c])
        scols["__kind"] = pa.array(["s"])
        for name, tag in zip(_TAGS, (tk, ton, tsrc)):
            scols[name] = pa.array([tag], pa.int64())
        scols["__last_key"] = pa.array([lk], pa.int64())
        scols["__has_state"] = pa.array([int(len(lk_states) > 0)], pa.int64())
        return pa.concat_tables(
            [rows, pa.table(scols)], promote_options="permissive"
        )

    # one pinned execution: a lazy second pass could re-split the sort's
    # blocks differently and invalidate the per-block pending tags
    reduced = sorted_ds.map_batches(
        per_block, batch_format="pyarrow", batch_size=None
    ).materialize()

    # driver walk over ONE summary row per block (bounded by block
    # count): reconstruct, per block, the latest earlier-block state of
    # its first key.  Earlier-block states of that key always satisfy
    # on <= the block's first on <= every pending probe's on, so the
    # carried state is valid for every pending probe in the block.
    summaries = reduced.map_batches(
        lambda b: b.filter(pc.equal(b["__kind"], "s")),
        batch_format="pyarrow",
    ).take_all()
    summaries.sort(key=lambda r: (r["__tag_key"], r["__tag_on"], r["__tag_src"]))
    offsets: dict[tuple, dict] = {}
    carry_state: dict[int, dict | None] = {}
    for s in summaries:
        fk, lk = s["__tag_key"], s["__last_key"]
        inherited = carry_state.get(fk)
        if inherited is not None:
            offsets[(fk, s["__tag_on"], s["__tag_src"])] = inherited
        if s["__has_state"]:
            last = {c: s[c] for c in state_cols}
        elif fk == lk:
            last = inherited  # key continues with no new state
        else:
            last = None  # lk's first rows are in this block, stateless
        carry_state = {lk: last} if last is not None else {}

    drop = ["__kind", "__last_key", "__has_state", *_TAGS]

    def apply_carry(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.not_equal(batch["__kind"], "s"))
        if offsets and len(b):
            pend = np.asarray(pc.equal(b["__kind"], "p"))
            if pend.any():
                tags = np.stack(
                    [
                        b[c].to_numpy(zero_copy_only=False)
                        for c in _TAGS
                    ],
                    axis=1,
                )
                cols = {c: b[c] for c in b.schema.names}
                for tag_row in np.unique(tags[pend], axis=0):
                    st = offsets.get(tuple(int(x) for x in tag_row))
                    if st is None:
                        continue
                    m = pa.array(pend & np.all(tags == tag_row, axis=1))
                    for c in state_cols:
                        cols[c] = pc.if_else(
                            m, pa.scalar(st[c], stypes[c]), cols[c]
                        )
                b = pa.table(cols)
        return b.drop_columns(drop)

    return reduced.map_batches(apply_carry, batch_format="pyarrow")
