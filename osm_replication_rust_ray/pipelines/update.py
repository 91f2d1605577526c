"""Continuous-replication micro-batch pipeline (§3.1 of SURVEY.md).

Engine form of the reference's flagship ``update`` binary
(``src/bin/update.rs:27-56`` -> ``src/update.rs:30-146``), preserving
its phase ordering per sequence number (``src/update.rs:90-143``):

    download/parse diff -> bbox-annotate (reads OLD geometry from the
    store) -> polygon-tree filter (sees the PRE-update world) ->
    per-path partitioned outputs -> apply diff to the store ->
    commit the sequence pointer LAST

plus the north_rule additions: per-partition lineage records with
row/byte counters in a checkpoint manifest, job lock, and mid-run
resume by anti-joining the done-partition set.

A minute-diff micro-batch is small (the reference streams it through
one process), and so is its assignments table: the per-path output
write runs in this process too, one tmp + rename per poly path, with
no Ray call on the sequential path.  Only diffs past
``DIST_DIFF_ROWS`` go through ray.data blocks end to end.  The store
apply writes one delta file per element type, named by a digest of its
contents, and skips a type whose newest pending delta has the same
digest; so a crash between store-apply and manifest-commit re-runs
without changing a byte of the store.
"""

from __future__ import annotations

import pyarrow as pa

from ..geom import MultiPolygon
from ..sources.store import ElementStore, Resolver
from ..stages.bbox import annotate_bbox, closure_node_ids
from ..stages.filter import filter_tree
from ..state.manifest import CheckpointManifest, write_partitioned


# diffs at or above this many elements take the distributed bbox/
# filter path (stages/bbox_dist.py, stages/filter_dist.py); callers can
# force either path with ``distributed=``.  What SCALE.md §2 measured:
# at 1M elements on 4 CPUs the sequential pass wins (49 s vs 83 s); at
# 4M on 32 CPUs the distributed path wins (186 s vs ~286 s).  The 5M
# bound itself was never measured as a speed crossover.  In-process
# peak RSS (tools/kernel_rss_probe.py filter, synth_store(n) +
# synth_changes(n), 12-polygon tree): 210 MB at 10^5, 1097 MB at 10^6,
# 2088 MB at 2*10^6 elements — ~1040 B per element, reached before
# filter_tree (diff table + annotate_bbox), so ~5.2 GB at 5M.
DIST_DIFF_ROWS = 5_000_000


def run_sequence(
    changes: pa.Table,
    store: ElementStore,
    tree_polys: list[tuple[str, str, MultiPolygon]],
    tree_parent: dict[str, str | None],
    out_dir: str,
    manifest: CheckpointManifest,
    sequence: int,
    distributed: bool | None = None,
    on_annotated=None,
    before_commit=None,
):
    """One micro-batch: returns the assignments it wrote (pa.Table on
    the sequential path, ray Dataset on the distributed one).

    ``distributed=None`` auto-selects: diffs >= DIST_DIFF_ROWS elements
    go through the sharded join formulation whose verdicts are pinned
    identical to the in-process kernel and to the automaton oracle
    (tests/test_filter_dist.py).

    ``on_annotated(annotated)`` (sequential path only) and
    ``before_commit()`` (after the store apply) are the replication
    downloader's hooks for its bbox-diff file and ``state.txt`` symlinks.
    """
    import ray

    if distributed is None:
        distributed = changes.num_rows >= DIST_DIFF_ROWS and ray.is_initialized()
    if distributed:
        assignments = _assign_dist(changes, store, tree_polys, tree_parent)
        n_rows = assignments.count()  # materialized: block metadata only
    else:
        # one resolver serves bbox AND filter phases — the engine
        # analogue of the OsmCache handoff (src/update.rs:124-131,
        # src/osmcache.rs)
        resolver = Resolver.from_store(store)
        annotated = annotate_bbox(changes, resolver)
        if on_annotated is not None:
            on_annotated(annotated)
        nid_arr = closure_node_ids(annotated, resolver)
        assignments = filter_tree(
            annotated, tree_polys, tree_parent, resolver, nid_arr
        )
        n_rows = assignments.num_rows
    # Phase order matches the reference (src/update.rs:122-144): diff
    # outputs land first, then the osmbin-analogue store mutation, then
    # the sequence pointer flips LAST.  Partition lineage commits as
    # soon as the outputs are durable (sequence=None leaves the pointer
    # untouched), so a crash at ANY later point resumes without
    # recomputing or rewriting finished partitions — the re-run's
    # outputs are byte-for-byte the crash-free run's (pinned by the
    # SIGKILL tests in tests/test_manifest.py).  The id_prefix scopes
    # the done-set per micro-batch: each sequence writes the same
    # poly-path key domain.  A re-run apply_changes finds each type's
    # delta already newest (same digest) and skips it, so the
    # apply->commit window re-runs without touching the store.
    if n_rows:
        write_partitioned(
            assignments, f"{out_dir}/seq={sequence}", "poly_path", manifest,
            sequence=None, commit=True, id_prefix=f"seq={sequence}/",
        )
    store.apply_changes(changes)
    if before_commit is not None:
        before_commit()
    manifest.commit(sequence)
    return assignments


def _assign_dist(
    changes: pa.Table,
    store: ElementStore,
    tree_polys: list[tuple[str, str, MultiPolygon]],
    tree_parent: dict[str, str | None],
):
    """Distributed assignments (materialized Dataset): the diff flows
    through ``ray.data`` blocks end to end (bbox joins -> filter
    fixpoint); no single-frame pandas materialization of the diff.
    The diff TABLE itself arrives driver-side (the XML parse is
    inherently a stream read), but everything size-proportional past
    the parse is block-parallel."""
    import ray.data

    from ..stages.bbox_dist import annotate_bbox_dist
    from ..stages.dist import build_diff_plan, flat_store_from_store
    from ..stages.filter_dist import filter_tree_dist
    from ..tuning import cluster_cpus, join_partitions

    flat = flat_store_from_store(store)
    nparts = join_partitions(n_rows=changes.num_rows)
    n_blocks = max(4, min(cluster_cpus() * 4, changes.num_rows // 16384 + 1))
    diff_ds = ray.data.from_arrow(changes).repartition(n_blocks)
    plan = build_diff_plan(diff_ds, flat, num_partitions=nparts)
    boxes = annotate_bbox_dist(plan).materialize()
    return filter_tree_dist(plan, boxes, tree_polys, tree_parent).materialize()


def run_update(
    changes_by_seq: dict[int, pa.Table],
    store: ElementStore,
    tree_polys: list[tuple[str, str, MultiPolygon]],
    tree_parent: dict[str, str | None],
    out_dir: str,
    manifest: CheckpointManifest,
    max_state: int | None = None,
) -> list[int]:
    """Sequential replication loop (cur_state+1 ..= remote,
    src/update.rs:64-74) under the job lock. Returns processed seqs."""
    manifest.acquire_lock()
    try:
        cur = manifest.sequence or 0
        remote = max(changes_by_seq) if changes_by_seq else cur
        if max_state is not None:
            remote = min(remote, max_state)  # clamp (src/update.rs:60-62)
        done: list[int] = []
        for seq in range(cur + 1, remote + 1):
            if seq not in changes_by_seq:
                continue
            run_sequence(
                changes_by_seq[seq], store, tree_polys, tree_parent,
                out_dir, manifest, seq,
            )
            done.append(seq)
        return done
    finally:
        manifest.release_lock()
