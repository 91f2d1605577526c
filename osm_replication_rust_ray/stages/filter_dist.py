"""Distributed polygon diff filter — the scale path of OsmXmlFilter.

Produces verdicts IDENTICAL to the in-process kernel
(`stages/filter.py`) and to the per-row automaton kept as the
reference-parity / lookup-count test oracle (`tests/filter_oracle.py`),
with the diff streaming through ``ray.data`` blocks.  The enabling
observation: every memo set of the reference
(``PolyInfo::*_seen_in_poly``, src/osmxml/filter.rs:13-18) is MONOTONE
— evidence only accrues — so "id X is in the memo when file position p
is processed" collapses to a per-id scalar ``evidence position``:

    node  ev(id) = -1 if the OLD store point is in the polygon, else
                   the FIRST diff position whose NEW point is inside
    way   ev(id) = min(old-store-ref node evidence, first occurrence
                   position whose verdict was keep/delete)
    rel   ev(id) = min over the store-member closure of leaf node/way
                   evidence and nested relations' first-verdict
                   positions (incl. its own)

and every probe "is X in the memo at position p" becomes ``ev(X) < p``
(strict: the sets update after the probing element, and positions are
unique).  That turns the whole filter into hash joins + grouped MINs
(``functions/agg.py``) — no per-row Python, no as-of joins.  The
cross-relation dependency (a relation's keep/delete feeds another's
memo probe) is a monotone fixpoint over positions, iterated to
convergence (round count = longest earlier-position chain; 1-2 in
practice, the reference's sequential pass is the degenerate case).

Verdict ladders (src/osmxml/filter.rs:219-299): the block functions
call the in-process kernel's `node_ladder` / `ladder` /
`verdict_codes`, so each formula exists once — node keep iff its new
point is in the EXACT polygon, way/relation keep from exact evidence
over NEW refs / diff members only, delete from buffered evidence incl.
store geometry and memos, bbox-gate short-circuit with missing-bbox
ways/relations silently dropped.  They test geometry through
`stages/filter.py:PolyTests`, so points and boxes outside the
polygon's bbox ± buffer drop without a test.

Tree driver (`filter_tree_dist`): each child polygon runs on its
parent's OUTPUT rows (src/diffs.rs:168-191).  The driver keeps two
bool arrays per polygon, indexed by diff ``pos`` and sized
``max(pos) + 1``: ``live`` (the row survived the polygon and every
ancestor) and ``deleted`` (the polygon's or an ancestor's verdict was
delete, so the row's action is rewritten to "delete").  A child runs
`filter_verdicts_dist` on the plan filtered lazily, inside
``map_batches``, by one ``ray.put`` of its parent's ``live`` array — no
join, no materialize — and its verdicts come back as one int8 array;
a child whose parent kept no row is skipped.  One ``map_batches`` over
the diff then emits the (pos, etype, id, action, poly_path) rows.
Two bytes per row per polygon stay in the driver (and once more in
the object store for the emit): 120 MB for 12 polygons over a 5M-row
diff, next to the parsed diff table the driver already holds (~2.5 GB
resident at 5M elements, `pipelines/update.py:DIST_DIFF_ROWS`).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.agg import small_sorted_aggregate
from ..geom import MultiPolygon
from .dist import (
    MTYPE_NODE,
    MTYPE_REL,
    MTYPE_WAY,
    DiffPlan,
    FixpointCapError,
    reroot,
    safe_join,
)
from .filter import (
    DELETE,
    DROP,
    EV_NONE,
    EV_OLD,
    REL_ROUNDS_CAP,
    PolyTests,
    ladder,
    node_ladder,
    verdict_codes,
)

VERDICT_NAMES = np.array(["keep", "delete", "drop"])


def _ev_min_agg(ds, key: str, cols: list[str]):
    return small_sorted_aggregate(ds, key, {c: (c, "min") for c in cols})


def _fill_ev(batch: pa.Table, cols: list[str]) -> dict[str, np.ndarray]:
    out = {}
    for c in cols:
        col = batch[c]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if col.null_count == 0 and pa.types.is_int64(col.type):
            out[c] = col.to_numpy(zero_copy_only=False)
        else:
            out[c] = pc.fill_null(
                pc.cast(col, pa.int64()), int(EV_NONE)
            ).to_numpy(zero_copy_only=False)
    return out


def _ladder_of(batch: pa.Table, ex: list[str], buf: list[str]):
    """(pos, keep, keep-or-delete) of way / relation occurrences: the
    MIN of the ``ex`` evidence columns and of the ``buf`` ones."""
    pos = batch["pos"].to_numpy(zero_copy_only=False)
    ev = _fill_ev(batch, ex + buf)
    return pos, *ladder(
        batch["gate"].to_numpy(zero_copy_only=False),
        np.minimum.reduce([ev[c] for c in ex]), np.minimum.reduce([ev[c] for c in buf]), pos,
    )


def _way_ladder(batch: pa.Table, own: tuple = ()):
    """New-ref exact evidence; new-ref and store-ref buffered evidence,
    plus ``own`` (the id's first keep-or-delete) for the verdict."""
    return _ladder_of(batch, ["new_ex_ev"], ["new_buf_ev", "st_buf_ev", *own])


def _rel_ladder(batch: pa.Table):
    """Diff-member (``dm_*``) and relation-member (``rm_*``) evidence,
    plus the relation's own store closure (``r_buf``) for delete."""
    return _ladder_of(batch, ["dm_ex", "rm_ex"], ["dm_buf", "rm_buf", "r_buf"])


def _occ_first(ladder_of):
    """map_batches fn -> (id, keep_pos, event_pos): each occurrence's
    position where ``ladder_of`` keeps / keeps-or-deletes it."""
    def fn(batch: pa.Table) -> pa.Table:
        pos, keep, event = ladder_of(batch)
        return pa.table({
            "id": batch["id"],
            "keep_pos": pa.array(np.where(keep, pos, EV_NONE)),
            "event_pos": pa.array(np.where(event, pos, EV_NONE)),
        })
    return fn


def _occ_verdict(ladder_of):
    """map_batches fn -> (pos, verdict) by ``ladder_of``."""
    def fn(batch: pa.Table) -> pa.Table:
        _pos, keep, event = ladder_of(batch)
        return pa.table({"pos": batch["pos"], "verdict": pa.array(verdict_codes(keep, event))})
    return fn


def filter_verdicts_dist(
    plan: DiffPlan,
    boxes,
    mp: MultiPolygon,
    rel_rounds_cap: int = REL_ROUNDS_CAP,
):
    """-> Dataset (pos, verdict int8 0=keep/1=delete/2=drop) over every
    diff row in ``plan``.  ``boxes``: Dataset (pos, minlat..) from
    ``annotate_bbox_dist`` (nullable)."""
    import ray.data

    npart = plan.num_partitions
    tests = PolyTests(mp)

    # ---------------- node occurrence flags ----------------
    def node_flags(batch: pa.Table) -> pa.Table:
        lat = batch["lat"].to_numpy(zero_copy_only=False).astype(np.int64)
        lon = batch["lon"].to_numpy(zero_copy_only=False).astype(np.int64)
        ex, bf = tests.points(lon, lat)
        return pa.table(
            {
                "pos": batch["pos"],
                "id": batch["id"],
                "new_ex": pa.array(ex),
                "new_buf": pa.array(bf),
            }
        )

    # ---------------- bbox gate fn (ways + relations) ----------------
    def gate_fn(batch: pa.Table) -> pa.Table:
        mn = batch["minlat"]
        valid = np.asarray(pc.is_valid(mn.combine_chunks() if isinstance(mn, pa.ChunkedArray) else mn))
        cols = {}
        for c in ("minlat", "maxlat", "minlon", "maxlon"):
            col = batch[c]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            cols[c] = pc.fill_null(col, 0).to_numpy(zero_copy_only=False).astype(np.int64)
        gate = valid & tests.boxes(
            cols["minlon"], cols["minlat"], cols["maxlon"], cols["maxlat"]
        )
        return pa.table({"pos": batch["pos"], "id": batch["id"], "gate": pa.array(gate)})

    def clos_kind(k: int):
        return plan.clos.map_batches(
            lambda b, k=k: b.filter(pc.equal(b["kind"], k)).select(["src", "ref"]),
            batch_format="pyarrow",
        )

    # node flags, the bbox gate and the closure rel-projection are
    # mutually independent — overlap their materializations (round-3
    # verdict item #2: barrier chain -> antichain)
    from concurrent.futures import ThreadPoolExecutor

    def mk_nd():
        return plan.nodes.map_batches(
            node_flags, batch_format="pyarrow"
        ).materialize()

    def mk_gates():
        wr = plan.way_occ.union(plan.rel_occ)
        wr_box = safe_join(
            wr, boxes, "left_outer", npart, on=("pos",),
            payload={c: pa.int64() for c in ("minlat", "maxlat", "minlon", "maxlon")},
        )
        return wr_box.map_batches(gate_fn, batch_format="pyarrow").materialize()

    def mk_clos_rels():
        return clos_kind(MTYPE_REL).materialize()

    with ThreadPoolExecutor(max_workers=3) as ex:
        f_nd = ex.submit(mk_nd)
        f_gates = ex.submit(mk_gates)
        f_cr = ex.submit(mk_clos_rels)
        nd = f_nd.result()
        gates = f_gates.result()
        clos_rels = f_cr.result()

    # ---------------- per-node-id evidence positions ----------------
    def first_src(batch: pa.Table) -> pa.Table:
        pos = batch["pos"].to_numpy(zero_copy_only=False)
        ex = batch["new_ex"].to_numpy(zero_copy_only=False)
        bf = batch["new_buf"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "id": batch["id"],
                "ex_ev": pa.array(np.where(ex, pos, EV_NONE)),
                "buf_ev": pa.array(np.where(bf, pos, EV_NONE)),
            }
        )

    probe_ids = (
        nd.map_batches(lambda b: b.select(["id"]), batch_format="pyarrow")
        .union(
            plan.way_new_refs.map_batches(
                lambda b: pa.table({"id": b["ref"]}), batch_format="pyarrow"
            )
        )
        .union(
            plan.way_old_refs.map_batches(
                lambda b: pa.table({"id": b["ref"]}), batch_format="pyarrow"
            )
        )
        .union(
            plan.rel_node_probes.map_batches(
                lambda b: pa.table({"id": b["ref"]}), batch_format="pyarrow"
            )
        )
        .union(
            plan.rel_way_store_refs.map_batches(
                lambda b: pa.table({"id": b["ref"]}), batch_format="pyarrow"
            )
        )
    )
    from .dist import _local_dedup

    probe_ids = probe_ids.map_batches(_local_dedup(["id"]), batch_format="pyarrow")
    old_pts = safe_join(
        probe_ids,
        plan.flat.nodes.map_batches(
            lambda b: pa.table(
                {"nid": b["id"], "plat": b["lat"], "plon": b["lon"]}
            ),
            batch_format="pyarrow",
        ),
        "inner", npart, on=("id",), right_on=("nid",),
        payload={"plat": pa.int64(), "plon": pa.int64()},
        left_fields={"id": pa.int64()},
    )

    def old_flags(batch: pa.Table) -> pa.Table:
        lat = batch["plat"].to_numpy(zero_copy_only=False).astype(np.int64)
        lon = batch["plon"].to_numpy(zero_copy_only=False).astype(np.int64)
        ex, bf = tests.points(lon, lat)
        return pa.table(
            {
                "id": batch["id"],
                "ex_ev": pa.array(np.where(ex, EV_OLD, EV_NONE)),
                "buf_ev": pa.array(np.where(bf, EV_OLD, EV_NONE)),
            }
        )

    node_ev = _ev_min_agg(
        nd.map_batches(first_src, batch_format="pyarrow").union(
            old_pts.map_batches(old_flags, batch_format="pyarrow")
        ),
        "id", ["ex_ev", "buf_ev"],
    ).materialize()

    # ---------------- node verdicts ----------------
    nodes_ev = safe_join(
        nd,
        node_ev.map_batches(
            lambda b: pa.table(
                {"nev_id": b["id"], "n_ex": b["ex_ev"], "n_buf": b["buf_ev"]}
            ),
            batch_format="pyarrow",
        ),
        "left_outer", npart, on=("id",), right_on=("nev_id",),
        payload={"n_ex": pa.int64(), "n_buf": pa.int64()},
    )

    def node_verdict(batch: pa.Table) -> pa.Table:
        pos = batch["pos"].to_numpy(zero_copy_only=False)
        ev = _fill_ev(batch, ["n_buf"])["n_buf"]
        new_ex = batch["new_ex"].to_numpy(zero_copy_only=False)
        v = verdict_codes(*node_ladder(ev, new_ex, pos))
        return pa.table({"pos": batch["pos"], "verdict": pa.array(v)})

    node_verdicts = nodes_ev.map_batches(node_verdict, batch_format="pyarrow")

    # ---------------- way evidence ----------------
    nev_renamed = node_ev.map_batches(
        lambda b: pa.table(
            {"nev_id": b["id"], "n_ex": b["ex_ev"], "n_buf": b["buf_ev"]}
        ),
        batch_format="pyarrow",
    ).materialize()
    ev_payload = {"n_ex": pa.int64(), "n_buf": pa.int64()}

    def ref_join(refs_ds):
        return safe_join(
            refs_ds, nev_renamed, "left_outer", npart,
            on=("ref",), right_on=("nev_id",), payload=ev_payload,
            left_fields={"pos": pa.int64(), "id": pa.int64(), "ref": pa.int64()},
        )

    def agg_rows(key_out: str, key_src: str):
        def fn(batch: pa.Table) -> pa.Table:
            ev = _fill_ev(batch, ["n_ex", "n_buf"])
            return pa.table(
                {
                    key_out: batch[key_src],
                    "ex_ev": pa.array(ev["n_ex"]),
                    "buf_ev": pa.array(ev["n_buf"]),
                }
            )

        return fn

    new_agg = _ev_min_agg(
        ref_join(plan.way_new_refs).map_batches(
            agg_rows("pos", "pos"), batch_format="pyarrow"
        ),
        "pos", ["ex_ev", "buf_ev"],
    ).map_batches(
        lambda b: pa.table(
            {"pos": b["pos"], "new_ex_ev": b["ex_ev"], "new_buf_ev": b["buf_ev"]}
        ),
        batch_format="pyarrow",
    )
    # store-ref evidence covers BOTH diff way occurrences and ways
    # probed as relation members (way_in_poly reads store refs for
    # either, src/osmxml/filter.rs:135-148)
    store_ref_rows = plan.way_old_refs.map_batches(
        lambda b: pa.table({"pos": b["pos"], "id": b["id"], "ref": b["ref"]}),
        batch_format="pyarrow",
    ).union(
        plan.rel_way_store_refs.map_batches(
            lambda b: pa.table(
                {"pos": b["pos"], "id": b["wid"], "ref": b["ref"]}
            ),
            batch_format="pyarrow",
        )
    )
    store_agg = _ev_min_agg(
        ref_join(store_ref_rows).map_batches(
            agg_rows("wid", "id"), batch_format="pyarrow"
        ),
        "wid", ["ex_ev", "buf_ev"],
    ).map_batches(
        lambda b: pa.table(
            {"wid": b["wid"], "st_ex_ev": b["ex_ev"], "st_buf_ev": b["buf_ev"]}
        ),
        batch_format="pyarrow",
    ).materialize()

    gate_fields = {"pos": pa.int64(), "id": pa.int64(), "gate": pa.bool_()}
    way_gates = safe_join(
        gates, plan.way_occ.map_batches(
            lambda b: pa.table({"wpos": b["pos"]}), batch_format="pyarrow"
        ),
        "left_semi", npart, on=("pos",), right_on=("wpos",),
        left_fields=gate_fields,
    )
    way_tab = safe_join(
        way_gates, new_agg, "left_outer", npart, on=("pos",),
        payload={"new_ex_ev": pa.int64(), "new_buf_ev": pa.int64()},
    )
    way_tab = safe_join(
        way_tab, store_agg, "left_outer", npart, on=("id",), right_on=("wid",),
        payload={"st_ex_ev": pa.int64(), "st_buf_ev": pa.int64()},
    ).materialize()

    way_first = _ev_min_agg(
        way_tab.map_batches(_occ_first(_way_ladder), batch_format="pyarrow"),
        "id", ["keep_pos", "event_pos"],
    ).materialize()

    # per-way-id evidence for relation probes
    way_ev = _ev_min_agg(
        store_agg.map_batches(
            lambda b: pa.table(
                {"id": b["wid"], "ex_ev": b["st_ex_ev"], "buf_ev": b["st_buf_ev"]}
            ),
            batch_format="pyarrow",
        ).union(
            way_first.map_batches(
                lambda b: pa.table(
                    {"id": b["id"], "ex_ev": b["keep_pos"], "buf_ev": b["event_pos"]}
                ),
                batch_format="pyarrow",
            )
        ),
        "id", ["ex_ev", "buf_ev"],
    ).materialize()

    # ---------------- way verdicts ----------------
    way_tab2 = safe_join(
        way_tab,
        way_first.map_batches(
            lambda b: pa.table({"fid": b["id"], "f_event": b["event_pos"]}),
            batch_format="pyarrow",
        ),
        "left_outer", npart, on=("id",), right_on=("fid",),
        payload={"f_event": pa.int64()},
    )

    way_verdicts = way_tab2.map_batches(
        _occ_verdict(lambda b: _way_ladder(b, ("f_event",))), batch_format="pyarrow"
    )

    # ---------------- relation evidence (fixpoint) ----------------
    kind_tab = {
        MTYPE_NODE: nev_renamed.map_batches(
            lambda b: pa.table(
                {"ref": b["nev_id"], "l_ex": b["n_ex"], "l_buf": b["n_buf"]}
            ),
            batch_format="pyarrow",
        ),
        MTYPE_WAY: way_ev.map_batches(
            lambda b: pa.table(
                {"ref": b["id"], "l_ex": b["ex_ev"], "l_buf": b["buf_ev"]}
            ),
            batch_format="pyarrow",
        ),
    }

    leaf_payload = {"l_ex": pa.int64(), "l_buf": pa.int64()}
    leaf_fields = {"src": pa.int64(), "ref": pa.int64()}

    # the closure-static and diff-member-static evidence tables are
    # independent — overlap them
    def mk_static_rel():
        static_rows = []
        for k in (MTYPE_NODE, MTYPE_WAY):
            joined = safe_join(
                clos_kind(k), kind_tab[k], "left_outer", npart, on=("ref",),
                payload=leaf_payload, left_fields=leaf_fields,
            )
            static_rows.append(
                joined.map_batches(
                    lambda b: pa.table(
                        {
                            "src": b["src"],
                            "ex_ev": pa.array(_fill_ev(b, ["l_ex"])["l_ex"]),
                            "buf_ev": pa.array(_fill_ev(b, ["l_buf"])["l_buf"]),
                        }
                    ),
                    batch_format="pyarrow",
                )
            )
        return _ev_min_agg(
            static_rows[0].union(static_rows[1]), "src", ["ex_ev", "buf_ev"]
        ).materialize()

    def mk_dm_static():
        # diff-member static part (node + way members) per occurrence
        dm_rows = []
        for refs_ds, tab in (
            (plan.rel_m_nodes, kind_tab[MTYPE_NODE]),
            (plan.rel_m_ways, kind_tab[MTYPE_WAY]),
        ):
            joined = safe_join(
                refs_ds, tab, "left_outer", npart, on=("ref",),
                payload=leaf_payload,
                left_fields={"pos": pa.int64(), "ref": pa.int64()},
            )
            dm_rows.append(
                joined.map_batches(
                    lambda b: pa.table(
                        {
                            "pos": b["pos"],
                            "ex_ev": pa.array(_fill_ev(b, ["l_ex"])["l_ex"]),
                            "buf_ev": pa.array(_fill_ev(b, ["l_buf"])["l_buf"]),
                        }
                    ),
                    batch_format="pyarrow",
                )
            )
        return _ev_min_agg(
            dm_rows[0].union(dm_rows[1]), "pos", ["ex_ev", "buf_ev"]
        ).map_batches(
            lambda b: pa.table(
                {"pos": b["pos"], "dm_ex": b["ex_ev"], "dm_buf": b["buf_ev"]}
            ),
            batch_format="pyarrow",
        ).materialize()

    with ThreadPoolExecutor(max_workers=2) as ex:
        f_sr = ex.submit(mk_static_rel)
        f_dm = ex.submit(mk_dm_static)
        static_rel = f_sr.result()
        dm_static = f_dm.result()

    rel_gates = safe_join(
        gates, plan.rel_occ.map_batches(
            lambda b: pa.table({"rpos": b["pos"]}), batch_format="pyarrow"
        ),
        "left_semi", npart, on=("pos",), right_on=("rpos",),
        left_fields=gate_fields,
    )
    rel_base = safe_join(
        rel_gates, dm_static, "left_outer", npart, on=("pos",),
        payload={"dm_ex": pa.int64(), "dm_buf": pa.int64()},
    ).materialize()

    empty_first = ray.data.from_arrow(
        pa.schema(
            [("id", pa.int64()), ("keep_pos", pa.int64()), ("event_pos", pa.int64())]
        ).empty_table()
    )
    rel_first = empty_first
    rel_tab = None
    for _ in range(rel_rounds_cap):
        memo_rows = safe_join(
            clos_rels,
            rel_first.map_batches(
                lambda b: pa.table(
                    {"fid": b["id"], "f_keep": b["keep_pos"], "f_event": b["event_pos"]}
                ),
                batch_format="pyarrow",
            ),
            "left_outer", npart, on=("ref",), right_on=("fid",),
            payload={"f_keep": pa.int64(), "f_event": pa.int64()},
            left_fields=leaf_fields,
        ).map_batches(
            lambda b: pa.table(
                {
                    "src": b["src"],
                    "ex_ev": pa.array(_fill_ev(b, ["f_keep"])["f_keep"]),
                    "buf_ev": pa.array(_fill_ev(b, ["f_event"])["f_event"]),
                }
            ),
            batch_format="pyarrow",
        )
        rel_ev = _ev_min_agg(
            static_rel.union(memo_rows), "src", ["ex_ev", "buf_ev"]
        ).map_batches(
            lambda b: pa.table(
                {"src": b["src"], "r_ex": b["ex_ev"], "r_buf": b["buf_ev"]}
            ),
            batch_format="pyarrow",
        )
        rel_ev = reroot(rel_ev)
        # rel-member terms per occurrence
        rm = safe_join(
            plan.rel_m_rels, rel_ev, "left_outer", npart,
            on=("ref",), right_on=("src",),
            payload={"r_ex": pa.int64(), "r_buf": pa.int64()},
            left_fields={"pos": pa.int64(), "ref": pa.int64()},
        ).map_batches(
            lambda b: pa.table(
                {
                    "pos": b["pos"],
                    "ex_ev": pa.array(_fill_ev(b, ["r_ex"])["r_ex"]),
                    "buf_ev": pa.array(_fill_ev(b, ["r_buf"])["r_buf"]),
                }
            ),
            batch_format="pyarrow",
        )
        rm_agg = _ev_min_agg(rm, "pos", ["ex_ev", "buf_ev"]).map_batches(
            lambda b: pa.table(
                {"pos": b["pos"], "rm_ex": b["ex_ev"], "rm_buf": b["buf_ev"]}
            ),
            batch_format="pyarrow",
        )
        tab = safe_join(
            rel_base, rm_agg, "left_outer", npart, on=("pos",),
            payload={"rm_ex": pa.int64(), "rm_buf": pa.int64()},
        )
        tab = safe_join(
            tab, rel_ev, "left_outer", npart, on=("id",), right_on=("src",),
            payload={"r_ex": pa.int64(), "r_buf": pa.int64()},
        ).materialize()

        new_first = reroot(_ev_min_agg(
            tab.map_batches(_occ_first(_rel_ladder), batch_format="pyarrow"),
            "id", ["keep_pos", "event_pos"],
        ))
        rel_tab = tab
        # converged when the first-position tables are identical
        if rel_first.count() == new_first.count():
            if rel_first.count() == 0:
                break
            cmp = safe_join(
                rel_first,
                new_first.map_batches(
                    lambda b: pa.table(
                        {"id": b["id"], "nk": b["keep_pos"], "ne": b["event_pos"]}
                    ),
                    batch_format="pyarrow",
                ),
                "inner", npart, on=("id",),
                payload={"nk": pa.int64(), "ne": pa.int64()},
            )
            diffs = cmp.map_batches(
                lambda b: pa.table(
                    {
                        "c": pa.array(
                            (
                                b["keep_pos"].to_numpy(zero_copy_only=False)
                                != b["nk"].to_numpy(zero_copy_only=False)
                            )
                            | (
                                b["event_pos"].to_numpy(zero_copy_only=False)
                                != b["ne"].to_numpy(zero_copy_only=False)
                            )
                        )
                    }
                ),
                batch_format="pyarrow",
            ).sum("c")
            matched = cmp.count()
            if not diffs and matched == new_first.count():
                rel_first = new_first
                break
        rel_first = new_first
    else:
        raise FixpointCapError(
            f"filter cross-relation fixpoint did not converge within "
            f"rel_rounds_cap={rel_rounds_cap} rounds (earlier-position "
            f"relation memo chain deeper than the cap); raise "
            f"rel_rounds_cap"
        )

    if rel_tab is not None:
        rel_verdicts = rel_tab.map_batches(_occ_verdict(_rel_ladder), batch_format="pyarrow")
        return node_verdicts.union(way_verdicts).union(rel_verdicts)
    return node_verdicts.union(way_verdicts)


# ---------------- tree driver ----------------

_POS_TABLES = (
    "nodes", "way_occ", "way_new_refs", "way_old_refs", "rel_occ",
    "rel_m_nodes", "rel_m_ways", "rel_m_rels", "rel_node_probes",
    "rel_way_probes", "rel_rel_probes", "rel_way_store_refs",
)


def _on_rows(plan: DiffPlan, live) -> DiffPlan:
    """``plan`` with every pos-keyed table filtered lazily to the rows
    where ``live`` (bool array indexed by pos) is set.  The closure and
    store views do not depend on the rows and are shared."""
    from dataclasses import replace

    import ray

    ref = ray.put(live)

    def keep(b: pa.Table) -> pa.Table:
        return b.filter(ray.get(ref)[b["pos"].to_numpy(zero_copy_only=False)])

    return replace(plan, **{
        name: getattr(plan, name).map_batches(keep, batch_format="pyarrow")
        for name in _POS_TABLES
    })


def filter_tree_dist(
    plan: DiffPlan,
    boxes,
    tree_polys: list[tuple[str, str, MultiPolygon]],
    tree_parent: dict[str, str | None],
):
    """Distributed polygon-tree filter: each child consumes its
    parent's surviving rows; returns the assignments union
    (pos, etype, id, action, poly_path) as a Dataset."""
    import ray
    import ray.data

    top = plan.diff.max("pos")
    n = 0 if top is None else top + 1
    live = {None: np.ones(n, bool)}
    deleted = {None: np.zeros(n, bool)}
    for path, _name, mp in tree_polys:  # topological (parents first)
        parent = tree_parent.get(path)
        if parent not in live or not live[parent].any():
            continue
        src = plan if parent is None else _on_rows(plan, live[parent])
        verdicts = filter_verdicts_dist(src, boxes, mp)
        v = np.full(n, DROP, np.int8)
        for b in verdicts.iter_batches(batch_size=None, batch_format="pyarrow"):
            v[b["pos"].to_numpy(zero_copy_only=False)] = b["verdict"].to_numpy(
                zero_copy_only=False
            )
        live[path] = v != DROP
        deleted[path] = deleted[parent] | (v == DELETE)
    paths = [p for p in live if p is not None and live[p].any()]
    if not paths:
        return ray.data.from_arrow(
            pa.schema(
                [("pos", pa.int64()), ("etype", pa.string()),
                 ("id", pa.int64()), ("action", pa.string()),
                 ("poly_path", pa.string())]
            ).empty_table()
        )
    ref = ray.put((
        np.stack([live[p] for p in paths]), np.stack([deleted[p] for p in paths])
    ))

    def emit(b: pa.Table) -> pa.Table:
        lv, dl = ray.get(ref)
        pos = b["pos"].to_numpy(zero_copy_only=False)
        out = []
        for k, path in enumerate(paths):
            m = lv[k, pos]
            t = b.filter(m)
            out.append(pa.table({
                "pos": t["pos"], "etype": t["etype"], "id": t["id"],
                "action": pc.if_else(
                    dl[k, pos][m], "delete", t["action"].combine_chunks()
                ),
                "poly_path": pa.array([path] * len(t), pa.string()),
            }))
        return pa.concat_tables(out)

    return plan.diff.map_batches(emit, batch_format="pyarrow")
