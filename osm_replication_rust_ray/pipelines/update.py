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

Like the reference (one in-RAM diff, one process), every diff runs in
the calling process with no Ray call: the bbox and filter kernels are
numpy over the whole diff, and the per-path output write is one tmp +
rename per poly path.  A diff too large for memory fails before
``write_partitioned``, so commit-last leaves no partial state; SCALE.md
§2 gives the measured memory per element.  The store apply writes one
delta file per element type, named by a digest of its contents, and
skips a type whose newest pending delta has the same digest; so a
crash between store-apply and manifest-commit re-runs without changing
a byte of the store.
"""

from __future__ import annotations

import pyarrow as pa

from ..geom import MultiPolygon
from ..sources.store import ElementStore, Resolver
from ..stages.bbox import annotate_bbox, closure_node_ids
from ..stages.filter import filter_tree
from ..state.manifest import CheckpointManifest, write_partitioned


def run_sequence(
    changes: pa.Table,
    store: ElementStore,
    tree_polys: list[tuple[str, str, MultiPolygon]],
    tree_parent: dict[str, str | None],
    out_dir: str,
    manifest: CheckpointManifest,
    sequence: int,
    on_annotated=None,
    before_commit=None,
) -> pa.Table:
    """One micro-batch: returns the assignments table it wrote.

    ``on_annotated(annotated)`` (after the bbox pass) and
    ``before_commit()`` (after the store apply) are the replication
    downloader's hooks for its bbox-diff file and ``state.txt`` symlinks.
    """
    # one resolver serves bbox AND filter phases — the engine analogue
    # of the OsmCache handoff (src/update.rs:124-131, src/osmcache.rs):
    # it keeps the diff's store closure (stages/filter.py:diff_closure),
    # so annotate_bbox walks the store once, and closure_node_ids and
    # filter_tree reuse that walk (the annotated table keeps the columns
    # it reads)
    resolver = Resolver.from_store(store)
    annotated = annotate_bbox(changes, resolver)
    if on_annotated is not None:
        on_annotated(annotated)
    nid_arr = closure_node_ids(annotated, resolver)
    assignments = filter_tree(annotated, tree_polys, tree_parent, resolver, nid_arr)
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
    if assignments.num_rows:
        write_partitioned(
            assignments, f"{out_dir}/seq={sequence}", "poly_path", manifest,
            sequence=None, commit=True, id_prefix=f"seq={sequence}/",
        )
    store.apply_changes(changes)
    if before_commit is not None:
        before_commit()
    manifest.commit(sequence)
    return assignments


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
