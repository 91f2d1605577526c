"""The three workloads, their per-seed reference outputs and their Ray Data
floor chains.

Each workload builds its inputs from the seed in ``setup``, hands them to
the package's public entry points in ``next_op`` and checks every output
against a reference computed in one process without Ray.  References are
computed outside the set-up time and cached on disk per workload, size,
seed and version of the code that computes them (``code_version``), so a
reference never outlives a change to that code.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from osm_replication_rust_ray.pipelines import spatial
from osm_replication_rust_ray.pipelines.update import run_update
from osm_replication_rust_ray.sources import synth
from osm_replication_rust_ray.sources.store import ElementStore, Resolver
from osm_replication_rust_ray.stages.bbox import annotate_bbox, closure_node_ids
from osm_replication_rust_ray.stages.filter import filter_tree
from osm_replication_rust_ray.stages.spatial_join import PolyTreeIndex, SpatialJoinActor
from osm_replication_rust_ray.state.manifest import CheckpointManifest
from osm_replication_rust_ray.tuning import est_tasks, pool_concurrency

GEN_BATCH = 8192  # payload_dataset / add_extents_and_cells batch rows
JOIN_BATCH = 8192  # SpatialJoinActor batch rows
WARM_DIFF = 256  # elements in the replicate warm-up diff


class Workload:
    """Common state: ``drop_row`` drops one row of every output before it
    is checked, so the self-test can show that a wrong output fails."""

    drop_row = False


class Op:
    """One operation: ``run()`` is timed; ``check(out)`` is not, and
    returns an error message or None."""

    def __init__(self, run, check, items: int):
        self.run = run
        self.check = check
        self.items = items


def code_version() -> str:
    """Digest of the package's and this file's Python sources."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = [os.path.abspath(__file__)]
    for base, dirs, names in os.walk(os.path.join(root, "osm_replication_rust_ray")):
        dirs.sort()
        files += [os.path.join(base, n) for n in sorted(names) if n.endswith(".py")]
    h = hashlib.sha256()
    for path in files:
        h.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def _cached(work_dir: str, key: str, compute):
    """``compute()``, cached as JSON under ``key`` and the code version."""
    path = os.path.join(work_dir, "ref", f"{key}-{code_version()}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    value = compute()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(value, f)
    os.replace(tmp, path)
    return value


def identity(batch: pa.Table) -> pa.Table:
    return batch


class IdentityActor:
    def __call__(self, batch: pa.Table) -> pa.Table:
        return batch


def row_count(batch: pa.Table) -> pa.Table:
    return pa.table({"n": pa.array([batch.num_rows], pa.int64())})


# ---------------------------------------------------------------- tiles

def _tile_entries(tree: str):
    raw = synth.synth_polygon_tree() if tree == "tree" else synth.synth_polygon_grid()
    return [("./" + p.removesuffix(".poly"), mp) for p, mp in raw]


def counts_rows(df) -> list[list]:
    """(poly_path, verdict, n_rows) rows of ``assignment_counts``, sorted."""
    return sorted(
        [str(p), str(v), int(n)]
        for p, v, n in zip(df["poly_path"], df["verdict"], df["n_rows"])
    )


class TileWorkload(Workload):
    """Payload -> extents and cells -> ``SpatialJoinActor`` over a polygon
    set -> ``assignment_counts``: one Ray Data job per operation.

    The job is ``flagship_assignments`` composed from the same public
    pieces, because that helper fixes the payload seed; the polygon set is
    put to the object store once, in set-up."""

    def __init__(self, name: str, tree: str, seed: int, work_dir: str,
                 n_rows: int):
        self.name = name
        self.tree = tree
        self.seed = seed
        self.work_dir = work_dir
        self.n_rows = n_rows
        self.ref = None
        self.expected = None

    def _dataset(self, n_rows: int):
        return synth.payload_dataset(
            n_rows, seed=self.seed, with_bytes=False,
            parallelism=max(2, n_rows // (2 * GEN_BATCH)),
        ).map_batches(spatial.add_extents_and_cells, batch_format="pyarrow",
                      batch_size=GEN_BATCH)

    def _concurrency(self, n_rows: int):
        return pool_concurrency(est_tasks(n_rows=n_rows, batch_rows=JOIN_BATCH))

    def _job(self, n_rows: int):
        ds = self._dataset(n_rows).map_batches(
            SpatialJoinActor,
            fn_constructor_args=(self.ref,),
            batch_format="pyarrow",
            batch_size=JOIN_BATCH,
            concurrency=self._concurrency(n_rows),
        )
        return spatial.assignment_counts(ds)

    def setup(self) -> None:
        import ray

        self.ref = ray.put(_tile_entries(self.tree))
        self._job(4 * GEN_BATCH)  # warm-up: worker start and imports

    def reference(self) -> None:
        self.expected = _cached(self.work_dir, f"{self.name}-n{self.n_rows}-seed{self.seed}",
                                self._compute_reference)

    def _compute_reference(self) -> list[list]:
        entries = _tile_entries(self.tree)
        index = PolyTreeIndex(entries)
        counts = np.zeros((len(entries), 2), np.int64)  # [delete, keep]
        for lo in range(0, self.n_rows, GEN_BATCH):
            idx = np.arange(lo, min(self.n_rows, lo + GEN_BATCH), dtype=np.int64)
            batch = spatial.add_extents_and_cells(
                synth.payload_batch(idx, self.seed, with_bytes=False)
            )
            _rows, polys, verdicts = index.verdicts(
                *(batch[c].to_numpy() for c in ("minlon", "minlat", "maxlon", "maxlat"))
            )
            keep = (np.asarray(verdicts) == "keep").astype(np.int64)
            np.add.at(counts, (polys, keep), 1)
        return sorted(
            [entries[p][0], verdict, int(counts[p, k])]
            for p in range(len(entries))
            for k, verdict in ((0, "delete"), (1, "keep"))
            if counts[p, k]
        )

    def next_op(self) -> Op:
        def check(df):
            got = counts_rows(df.iloc[1:] if self.drop_row else df)
            if got != self.expected:
                return f"counts differ: {len(got)} groups, {sum(r[2] for r in got)} rows"
            return None

        return Op(lambda: self._job(self.n_rows), check, self.n_rows)

    def restart(self) -> None:
        pass

    def floor(self):
        """Identity chain with the job's batch sizes, format and compute
        shape (task stage, actor pool, per-block partial, final collect)
        over the job's input, materialized beforehand."""
        mat = self._dataset(self.n_rows).materialize()
        concurrency = self._concurrency(self.n_rows)

        def run():
            return (
                mat.map_batches(identity, batch_format="pyarrow", batch_size=GEN_BATCH)
                .map_batches(IdentityActor, batch_format="pyarrow",
                             batch_size=JOIN_BATCH, concurrency=concurrency)
                .map_batches(row_count, batch_format="pyarrow", batch_size=None)
                .to_pandas()
            )

        return run

    def teardown(self) -> None:
        self.ref = None


# ------------------------------------------------------------ replicate

ASSIGN_COLS = ["pos", "etype", "id", "poly_path", "action"]


def assignments_digest(table: pa.Table) -> str:
    df = table.select(ASSIGN_COLS).to_pandas()
    df = df.sort_values(["poly_path", "pos", "id", "etype", "action"], kind="stable")
    return hashlib.sha256(df.to_csv(index=False).encode()).hexdigest()


def sequence_parts(out_dir: str, seq: int) -> list[str]:
    """Partition files a sequence wrote, one per poly path."""
    base = os.path.join(out_dir, f"seq={seq}")
    if not os.path.isdir(base):
        return []
    paths = (os.path.join(base, d, "part-0.parquet") for d in sorted(os.listdir(base)))
    return [p for p in paths if os.path.exists(p)]


def read_sequence_output(out_dir: str, seq: int) -> pa.Table | None:
    parts = [pq.read_table(p) for p in sequence_parts(out_dir, seq)]
    return pa.concat_tables(parts) if parts else None


class ReplicateWorkload(Workload):
    """``run_update`` over ``n_seqs`` synthetic minute diffs on the
    sequential path, against a store seeded from ``synth_store_elements``
    and the 12-polygon tree written with ``write_polygon_tree``.

    One operation is one sequence, timed from the diff handed to
    ``run_update`` until it returns after ``manifest.commit``; the loop is
    closed, so sequence N+1 starts only after N commits.  Each pass runs
    the sequences in order on a fresh copy of the seeded store."""

    def __init__(self, name: str, seed: int, work_dir: str, n_diff: int,
                 n_store: int, n_seqs: int):
        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        self.n_diff = n_diff
        self.n_store = n_store
        self.n_seqs = n_seqs
        self.dir = os.path.join(work_dir, f"replicate-{os.getpid()}")
        self.store0 = os.path.join(self.dir, "store0")
        self.tree = self.parent = self.diffs = None
        self.expected = None
        self._pass = 0
        self._seq = n_seqs  # the first op starts a pass
        self._store = self._manifest = self._out = None

    def _seed_store(self, directory: str) -> ElementStore:
        shutil.rmtree(directory, ignore_errors=True)
        store = ElementStore(directory)
        store.init()
        store.apply_changes(synth.synth_store_elements(self.n_store, seed=self.seed))
        return store

    def _load_inputs(self) -> None:
        from osm_replication_rust_ray.cli import _load_tree

        polys = os.path.join(self.dir, "polys")
        shutil.rmtree(polys, ignore_errors=True)
        synth.write_polygon_tree(polys)
        self.tree, self.parent = _load_tree(polys)
        self.diffs = {
            k: synth.synth_changes(self.n_diff, seed=self.seed, seq=k)
            for k in range(1, self.n_seqs + 1)
        }

    def setup(self) -> None:
        os.makedirs(self.dir, exist_ok=True)
        self._load_inputs()
        self._seed_store(self.store0)
        # warm-up: a small diff through a throwaway copy of the store
        # (worker start, imports)
        self._new_pass()
        warm = synth.synth_changes(WARM_DIFF, seed=self.seed, seq=1)
        run_update({1: warm}, self._store, self.tree, self.parent, self._out, self._manifest)
        self._seq = self.n_seqs

    def _new_pass(self) -> None:
        shutil.rmtree(os.path.join(self.dir, f"pass{self._pass}"), ignore_errors=True)
        self._pass += 1
        pass_dir = os.path.join(self.dir, f"pass{self._pass}")
        shutil.copytree(self.store0, os.path.join(pass_dir, "store"))
        self._store = ElementStore(os.path.join(pass_dir, "store"))
        self._manifest = CheckpointManifest(os.path.join(pass_dir, "ckpt"))
        self._out = os.path.join(pass_dir, "out")
        self._seq = 0

    def reference(self) -> None:
        key = f"{self.name}-d{self.n_diff}-s{self.n_store}-k{self.n_seqs}-seed{self.seed}"
        self.expected = _cached(self.work_dir, key, self._compute_reference)

    def _compute_reference(self) -> dict:
        store = self._seed_store(os.path.join(self.dir, "ref-store"))
        out = {}
        for k in range(1, self.n_seqs + 1):
            resolver = Resolver.from_store(store)
            annotated = annotate_bbox(self.diffs[k], resolver)
            nid = closure_node_ids(annotated, resolver)
            table = filter_tree(annotated, self.tree, self.parent, resolver, nid)
            out[str(k)] = {"rows": table.num_rows, "digest": assignments_digest(table)}
            store.apply_changes(self.diffs[k])
        store.destroy()
        return out

    def restart(self) -> None:
        """Abandon the current pass after a failed sequence."""
        self._seq = self.n_seqs

    def next_op(self) -> Op:
        if self._seq >= self.n_seqs:
            self._new_pass()
        self._seq += 1
        seq, store, manifest, out_dir = self._seq, self._store, self._manifest, self._out

        def run():
            return run_update({seq: self.diffs[seq]}, store, self.tree, self.parent,
                              out_dir, manifest)

        def check(done):
            want = self.expected[str(seq)]
            if done != [seq]:
                return f"sequence {seq}: processed {done}"
            table = read_sequence_output(out_dir, seq)
            if self.drop_row and table is not None:
                table = table.slice(1)
            rows = table.num_rows if table is not None else 0
            if rows != want["rows"] or (rows and assignments_digest(table) != want["digest"]):
                return f"sequence {seq}: {rows} assignment rows, reference {want['rows']}"
            want_total = sum(self.expected[str(k)]["rows"] for k in range(1, seq + 1))
            return _check_manifest(manifest.dir, out_dir, seq, want_total)

        return Op(run, check, self.diffs[seq].num_rows)

    def floor(self):
        """Identity chain with a sequence's Ray shape: the diff put once and
        passed through one task per tree node along the tree, then the
        current pass's first assignments through the groupby per poly path
        of the partitioned write.  Call after at least one operation."""
        import ray
        import ray.data

        pass_through = ray.remote(identity)
        diff, tree, parent = self.diffs[1], self.tree, self.parent
        assignments = read_sequence_output(self._out, 1)

        def run():
            root = ray.put(diff)
            refs = {None: root}
            for path, _name, _mp in tree:
                refs[path] = pass_through.remote(refs.get(parent.get(path), root))
            ray.get([refs[p] for p, _n, _m in tree])
            (ray.data.from_arrow(assignments)
             .map_batches(identity, batch_format="pyarrow")
             .groupby("poly_path")
             .map_groups(row_count, batch_format="pyarrow")
             .take_all())

        return run

    def teardown(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _check_manifest(ckpt_dir: str, out_dir: str, seq: int, want_rows: int) -> str | None:
    """The committed manifest of a pass that has run sequences 1..``seq``:
    pointer at ``seq``, ``totals()`` rows equal to the reference's, and
    bytes equal to the partition files on disk."""
    on_disk = CheckpointManifest(ckpt_dir)
    if on_disk.sequence != seq:
        return f"sequence {seq}: manifest pointer is {on_disk.sequence}"
    rows, nbytes = on_disk.totals()
    if rows != want_rows:
        return f"sequence {seq}: manifest has {rows} rows, reference {want_rows}"
    on_files = sum(os.path.getsize(p) for k in range(1, seq + 1) for p in sequence_parts(out_dir, k))
    if nbytes != on_files:
        return f"sequence {seq}: manifest has {nbytes} bytes, files {on_files}"
    return None


# Sizes, from traced runs at 3 Ray CPUs on a 4-vCPU VM (the alternatives
# named were traced at 4).  Each is below the shape it stands for (500k
# payload rows; 20k-element diffs over a 200k store) so that a run holds
# several operations in each of its sessions and 22 runs of each
# benchmarked workload fit the run budget.
DEFAULT_SIZES = {
    # 32 join batches: emit plus ready 1.99 s against refine 0.73 s of a
    # traced job, the flagship's output-bound shape
    "tile_tree": {"n_rows": 262144},
    # 8 join batches, about 5 s a job: refine 57 % and candidates 2 % of
    # the traced wall, Ray and actor start-up (leftover) 38 %.  At 32768
    # rows leftover was the largest share (51 %, refine 43 %); at 131072
    # refine grew to 69 % but a 10 s job left one operation per session.
    "tile_grid": {"n_rows": 65536},
    # about 1.9 s a sequence: store apply 37 %, store load 23 %,
    # filter_elements 20 %, filter_tree_parallel 8 %, write 7 %, bbox 4 %.
    # At 10000 / 100000 filtering grew to 31 % but a sequence took 4.8 s
    # and a set-up 15 s.
    "replicate": {"n_diff": 4000, "n_store": 40000, "n_seqs": 2},
}


def make(name: str, seed: int, work_dir: str, sizes: dict | None = None):
    """Workload by name; ``sizes`` overrides the default input sizes."""
    if name not in DEFAULT_SIZES:
        raise ValueError(f"unknown workload {name!r}")
    s = {**DEFAULT_SIZES[name], **(sizes or {})}
    if name == "replicate":
        return ReplicateWorkload(name, seed, work_dir, s["n_diff"], s["n_store"], s["n_seqs"])
    return TileWorkload(name, name.removeprefix("tile_"), seed, work_dir, s["n_rows"])
