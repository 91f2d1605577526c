"""Child process for the SIGKILL resume tests (test_manifest.py).

Runs one replication micro-batch (pipelines/update.run_update) over the
inputs selected by ``$RESUME_INPUTS`` (``fixture``, the default: the
saint_barthelemy fixtures; ``synthetic``: a 4000-element synthetic
store, a 2000-element synthetic diff and the 12-polygon synthetic tree;
``synthetic_pending``: the same, with ``FOLD_DELTAS`` more synthetic
diffs already pending as deltas, so the run's apply folds) and SIGKILLs
ITSELF at the crash point selected by ``$KILL_POINT``, leaving the
on-disk store/manifest/output state exactly as a real mid-run death
would:

- ``mid_write``: inside write_partitioned, right after the first
  partition file's tmp + rename and before any lineage is staged (the
  sequential write runs in this process, so the kill lands mid-write).
- ``after_write``: partition outputs + lineage are durable, the store
  mutation and the sequence-pointer commit never happen (the window
  ``pipelines/update.py`` documents between write_partitioned and
  apply_changes).
- ``mid_delta``: inside apply_changes, after the node delta landed and
  before the way delta.
- ``in_fold``: inside apply_changes, after a fold renamed the new base
  file into place and before it deleted the folded deltas (use with
  ``synthetic_pending``).
- ``after_apply``: the store mutation landed too; only the final
  sequence-pointer commit is lost (the window where a re-run apply
  finds its own delta newest and skips it).

The sequential run makes no Ray call, so the child starts no Ray
session and the SIGKILL orphans no Ray process.
"""

import os
import signal
import sys

RES = "/root/reference/tests/resources"


def seed_store(kind: str, work: str):
    """The pre-update store under ``{work}/db`` for input set ``kind``."""
    from osm_replication_rust_ray.sources.store import ElementStore
    from osm_replication_rust_ray.sources.synth import synth_changes, synth_store_elements

    store = ElementStore(f"{work}/db")
    if kind == "fixture":
        store.import_pbf(f"{RES}/saint_barthelemy.osm.pbf")
        return store
    store.init()
    store.apply_changes(synth_store_elements(4000))
    if kind == "synthetic_pending":
        for k in range(ElementStore.FOLD_DELTAS):
            store.apply_changes(synth_changes(2000, seq=k + 2))
    return store


def load_inputs(kind: str, work: str):
    """(changes, tree_polys, tree_parent) for input set ``kind``; the
    synthetic tree is written under ``{work}/polys``."""
    from osm_replication_rust_ray.cli import _load_tree
    from osm_replication_rust_ray.sources.osmxml import parse_osm_xml
    from osm_replication_rust_ray.sources.polyfile import read_multipolygon
    from osm_replication_rust_ray.sources.synth import synth_changes, write_polygon_tree

    if kind == "fixture":
        name, mp = read_multipolygon(f"{RES}/saint_barthelemy.poly")
        changes = parse_osm_xml(f"{RES}/saint_barthelemy.osc.gz")
        return changes, [("./stb", name, mp)], {"./stb": None}
    tree, parent = _load_tree(write_polygon_tree(f"{work}/polys"))
    return synth_changes(2000), tree, parent


def main() -> None:
    sys.path.insert(
        0, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    from osm_replication_rust_ray.pipelines.update import run_update
    from osm_replication_rust_ray.sources.store import ElementStore
    from osm_replication_rust_ray.state import manifest as manifest_mod
    from osm_replication_rust_ray.state.manifest import CheckpointManifest

    work = os.environ["WORK_DIR"]
    point = os.environ["KILL_POINT"]

    def die(*_a, **_k):
        os.kill(os.getpid(), signal.SIGKILL)

    if point == "mid_write":
        orig_atomic = manifest_mod.atomic_write_parquet

        def land_then_die(table, path):
            orig_atomic(table, path)
            die()

        manifest_mod.atomic_write_parquet = land_then_die
    elif point == "after_write":
        ElementStore.apply_changes = die
    elif point == "mid_delta":
        orig_write = ElementStore._write

        def write_then_die(self, path, table):
            orig_write(self, path, table)
            if os.path.join("deltas", "nodes") in path:
                die()

        ElementStore._write = write_then_die
    elif point == "in_fold":
        orig_write = ElementStore._write

        def rewrite_then_die(self, path, table):
            orig_write(self, path, table)
            if "deltas" not in path:
                die()

        ElementStore._write = rewrite_then_die
    elif point == "after_apply":
        orig_commit = CheckpointManifest.commit

        def commit_then_die(self, sequence=None):
            if sequence is not None:
                die()
            return orig_commit(self, sequence)

        CheckpointManifest.commit = commit_then_die
    else:  # pragma: no cover - driver error
        raise SystemExit(f"unknown KILL_POINT {point!r}")

    store = ElementStore(f"{work}/db")
    changes, tree, parent = load_inputs(os.environ.get("RESUME_INPUTS", "fixture"), work)
    m = CheckpointManifest(f"{work}/ckpt")
    run_update({1: changes}, store, tree, parent, f"{work}/diffs", m)
    print("NOT_KILLED")  # parent asserts this never prints


if __name__ == "__main__":
    main()
