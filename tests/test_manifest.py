"""Checkpoint manifest: lineage, atomic commit, resume-without-recompute
(north_rule), and the end-to-end §3.1 update pipeline on the reference's
saint_barthelemy fixtures."""

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from osm_replication_rust_ray.sources.osmxml import parse_osm_xml
from osm_replication_rust_ray.sources.polyfile import read_multipolygon
from osm_replication_rust_ray.sources.store import ElementStore
from osm_replication_rust_ray.state.manifest import (
    CheckpointManifest,
    PartitionRecord,
    write_partitioned,
)

RES = "/root/reference/tests/resources"


def _toy_table(n=100):
    keys = ["a" if i % 3 else "b" for i in range(n)]
    return pa.table({"k": pa.array(keys), "v": pa.array(range(n), pa.int64())})


def _toy_ds(n=100):
    import ray.data

    return ray.data.from_arrow(_toy_table(n))


# write_partitioned's two forms: a driver table (no Ray call) and a
# ray Dataset; every toy case runs on both
TOY_FORMS = {"dataset": _toy_ds, "table": _toy_table}


def test_manifest_commit_is_atomic_and_loads(tmp_path):
    m = CheckpointManifest(str(tmp_path / "ckpt"))
    m.stage(PartitionRecord("p1", rows=10, bytes=100))
    assert m.done() == set()  # staged only — nothing visible pre-commit
    m.commit(sequence=7)
    m2 = CheckpointManifest(str(tmp_path / "ckpt"))
    assert m2.sequence == 7
    assert m2.done() == {"p1"}
    assert m2.totals() == (10, 100)


def test_job_lock_excludes_second_writer(tmp_path):
    m1 = CheckpointManifest(str(tmp_path / "ckpt"))
    m1.acquire_lock()
    m2 = CheckpointManifest(str(tmp_path / "ckpt"))
    with pytest.raises(RuntimeError):
        m2.acquire_lock()
    m1.release_lock()
    m2.acquire_lock()
    m2.release_lock()


def test_write_partitioned_resume_skips_done(tmp_path):
    for form, toy in TOY_FORMS.items():
        out = str(tmp_path / form / "out")
        m = CheckpointManifest(str(tmp_path / form / "ckpt"))
        recs = write_partitioned(toy(), out, "k", m, sequence=1)
        assert [r.partition_id for r in recs] == ["a", "b"]  # key order
        total_rows = sum(r.rows for r in recs)
        assert total_rows == 100
        paths = {r.partition_id: r.path for r in recs}
        mtimes = {p: os.path.getmtime(paths[p]) for p in paths}
        # rows keep their input order within a partition
        assert pq.read_table(paths["b"])["v"].to_pylist() == list(range(0, 100, 3))
        # second run with a fresh manifest object on the same dir:
        # everything already committed -> nothing rewritten
        m2 = CheckpointManifest(str(tmp_path / form / "ckpt"))
        recs2 = write_partitioned(toy(), out, "k", m2, sequence=1)
        assert recs2 == []
        for p in paths:
            assert os.path.getmtime(paths[p]) == mtimes[p]


def test_write_partitioned_partial_resume(tmp_path):
    for form, toy in TOY_FORMS.items():
        out = str(tmp_path / form / "out")
        ckpt = str(tmp_path / form / "ckpt")
        m = CheckpointManifest(ckpt)
        # simulate a prior run that finished only partition "a"
        m.stage(PartitionRecord("a", rows=67, bytes=1))
        m.commit()
        m2 = CheckpointManifest(ckpt)
        recs = write_partitioned(toy(), out, "k", m2, sequence=3)
        assert {r.partition_id for r in recs} == {"b"}  # only the missing one
        t = pq.read_table(recs[0].path)
        assert set(t["k"].to_pylist()) == {"b"}
        assert m2.sequence is None or m2.sequence == 3
        m3 = CheckpointManifest(ckpt)
        assert m3.done() == {"a", "b"}


def test_write_partitioned_checks_max_keys_before_writing(tmp_path):
    for form, toy in TOY_FORMS.items():
        out = str(tmp_path / form / "out")
        ckpt = str(tmp_path / form / "ckpt")
        m = CheckpointManifest(ckpt)
        with pytest.raises(ValueError, match="2 partitions exceeds max_keys=1"):
            write_partitioned(toy(), out, "k", m, sequence=1, max_keys=1)
        assert [f for _d, _s, files in os.walk(out) for f in files] == []
        assert m._staged == {}
        assert not os.path.exists(m.path)
        # the census counts pending keys only: with "a" done, "b" fits
        m.stage(PartitionRecord("a", rows=67, bytes=1))
        m.commit()
        recs = write_partitioned(toy(), out, "k", m, sequence=2, max_keys=1)
        assert [r.partition_id for r in recs] == ["b"]
        assert CheckpointManifest(ckpt).sequence == 2


def test_write_partitioned_empty_table_writes_nothing(tmp_path):
    out = str(tmp_path / "out")
    m = CheckpointManifest(str(tmp_path / "ckpt"))
    recs = write_partitioned(_toy_table().slice(0, 0), out, "k", m, commit=False)
    assert recs == []
    assert not os.path.exists(out)
    assert m._staged == {}


def test_sequential_update_starts_no_ray(tmp_path):
    """run_update on a synthetic diff in a fresh interpreter: Ray is
    not initialized before, during (a ray.data call would auto-start a
    local cluster) or after the run."""
    import subprocess
    import sys

    script = """
import sys
import ray
from osm_replication_rust_ray.pipelines.update import run_update
from osm_replication_rust_ray.state.manifest import CheckpointManifest
from resume_kill_child import load_inputs, seed_store

work = sys.argv[1]
assert not ray.is_initialized()
store = seed_store("synthetic", work)
changes, tree, parent = load_inputs("synthetic", work)
m = CheckpointManifest(work + "/ckpt")
assert run_update({1: changes}, store, tree, parent, work + "/diffs", m) == [1]
assert m.done(), "no partition written"
assert not ray.is_initialized()
print("NO_RAY")
"""
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([os.path.dirname(here), here]),
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "NO_RAY" in proc.stdout


def test_update_pipeline_end_to_end(tmp_path):
    from osm_replication_rust_ray.pipelines.update import run_update

    store = ElementStore(str(tmp_path / "db"))
    store.import_pbf(f"{RES}/saint_barthelemy.osm.pbf")
    changes = parse_osm_xml(f"{RES}/saint_barthelemy.osc.gz")
    name, mp = read_multipolygon(f"{RES}/saint_barthelemy.poly")
    tree = [("./stb", name, mp)]
    parent = {"./stb": None}
    out = str(tmp_path / "diffs")
    m = CheckpointManifest(str(tmp_path / "ckpt"))
    done = run_update({1: changes}, store, tree, parent, out, m)
    assert done == [1]
    m2 = CheckpointManifest(str(tmp_path / "ckpt"))
    assert m2.sequence == 1
    rows, nbytes = m2.totals()
    assert rows > 0 and nbytes > 0
    # the committed partition parquet exists and has the diff columns
    # (lineage ids are sequence-scoped: the same poly-path key domain
    # is written once per micro-batch)
    rec = m2._state["partitions"]["seq=1/./stb"]
    t = pq.read_table(rec["path"])
    assert set(t.column_names) >= {"pos", "etype", "id", "poly_path", "action"}
    assert t.num_rows == rec["rows"]
    # re-run at the same state: loop body skips (sequence <= cur)
    done2 = run_update({1: changes}, store, tree, parent, out, m2)
    assert done2 == []


def test_update_multi_sequence_writes_every_batch(tmp_path):
    """Sequence-scoped lineage ids: batch N's done-set must not swallow
    batch N+1's rows for the same poly path (regression — unscoped ids
    made every sequence after the first write nothing)."""
    from osm_replication_rust_ray.pipelines.update import run_update

    store = ElementStore(str(tmp_path / "db"))
    store.import_pbf(f"{RES}/saint_barthelemy.osm.pbf")
    changes = parse_osm_xml(f"{RES}/saint_barthelemy.osc.gz")
    name, mp = read_multipolygon(f"{RES}/saint_barthelemy.poly")
    tree, parent = [("./stb", name, mp)], {"./stb": None}
    out = str(tmp_path / "diffs")
    m = CheckpointManifest(str(tmp_path / "ckpt"))
    done = run_update({1: changes, 2: changes}, store, tree, parent, out, m)
    assert done == [1, 2]
    m2 = CheckpointManifest(str(tmp_path / "ckpt"))
    assert m2.sequence == 2
    for seq in (1, 2):
        rec = m2._state["partitions"][f"seq={seq}/./stb"]
        assert rec["rows"] > 0
        assert pq.read_table(rec["path"]).num_rows == rec["rows"]


def test_update_multi_sequence_writes_every_batch_synthetic(tmp_path):
    """The multi-sequence regression on synthetic inputs: two
    synth_changes sequences over a 4000-element store and the
    12-polygon tree each write their own partitions."""
    from osm_replication_rust_ray.pipelines.update import run_update
    from osm_replication_rust_ray.sources.synth import synth_changes
    from resume_kill_child import load_inputs, seed_store

    work = str(tmp_path)
    store = seed_store("synthetic", work)
    _changes, tree, parent = load_inputs("synthetic", work)
    diffs = {k: synth_changes(2000, seq=k) for k in (1, 2)}
    m = CheckpointManifest(f"{work}/ckpt")
    assert run_update(diffs, store, tree, parent, f"{work}/diffs", m) == [1, 2]
    m2 = CheckpointManifest(f"{work}/ckpt")
    assert m2.sequence == 2
    for seq in (1, 2):
        recs = [r for pid, r in m2._state["partitions"].items()
                if pid.startswith(f"seq={seq}/")]
        assert recs, f"seq={seq} wrote no partitions"
        for rec in recs:
            assert rec["rows"] > 0
            assert pq.read_table(rec["path"]).num_rows == rec["rows"]


def _snapshot_bytes(root: str) -> dict[str, bytes]:
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for f in files:
            p = os.path.join(dirpath, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


def _kill_resume_case(tmp_path, kill_point: str, inputs: str = "fixture",
                      crashed=None):
    """Clean run in-process; crashed run via a SIGKILLed subprocess at
    ``kill_point``; then resume in-process and compare byte-for-byte.
    ``inputs`` picks the child's input set (resume_kill_child.py);
    ``crashed(db_dir)``, if given, checks the store the kill left."""
    import subprocess
    import sys

    from osm_replication_rust_ray.pipelines.update import run_update
    from resume_kill_child import load_inputs, seed_store

    def setup(work):
        os.makedirs(work)
        return seed_store(inputs, work)

    clean = str(tmp_path / "clean")
    store_c = setup(clean)
    changes, tree, parent = load_inputs(inputs, clean)
    run_update(
        {1: changes}, store_c, tree, parent, f"{clean}/diffs",
        CheckpointManifest(f"{clean}/ckpt"),
    )
    clean_out = _snapshot_bytes(f"{clean}/diffs")
    clean_db = _snapshot_bytes(f"{clean}/db")
    assert clean_out  # the fixture diff produces output

    crash = str(tmp_path / "crash")
    setup(crash)
    env = dict(
        os.environ,
        WORK_DIR=crash,
        KILL_POINT=kill_point,
        RESUME_INPUTS=inputs,
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "resume_kill_child.py")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == -9, proc.stdout + proc.stderr
    assert "NOT_KILLED" not in proc.stdout
    # the sequence pointer never flipped — the batch is still pending
    m_crashed = CheckpointManifest(f"{crash}/ckpt")
    assert m_crashed.sequence is None
    # outputs that DID land pre-crash are already byte-final
    for rel, data in _snapshot_bytes(f"{crash}/diffs").items():
        assert data == clean_out[rel]

    if crashed is not None:
        crashed(f"{crash}/db")

    # resume: reopen everything fresh (a new process would) and re-run.
    # Only partitions whose lineage committed must be skipped; a file
    # that landed without lineage (mid_write) may be rewritten.
    committed = {
        os.path.normpath(rec["path"])
        for rec in m_crashed._state["partitions"].values()
    }
    pre_mtimes = {
        rel: os.path.getmtime(os.path.join(crash, "diffs", rel))
        for rel in _snapshot_bytes(f"{crash}/diffs")
        if os.path.normpath(os.path.join(crash, "diffs", rel)) in committed
    }
    store_r = ElementStore(f"{crash}/db")
    done = run_update(
        {1: changes}, store_r, tree, parent, f"{crash}/diffs",
        CheckpointManifest(f"{crash}/ckpt"),
    )
    assert done == [1]
    assert CheckpointManifest(f"{crash}/ckpt").sequence == 1
    got_out = _snapshot_bytes(f"{crash}/diffs")
    assert got_out == clean_out  # byte-for-byte vs the crash-free run
    assert _snapshot_bytes(f"{crash}/db") == clean_db
    # finished partitions were SKIPPED, not rewritten (recompute-free)
    for rel, mt in pre_mtimes.items():
        assert os.path.getmtime(os.path.join(crash, "diffs", rel)) == mt


def test_resume_after_kill_between_write_and_apply(ray_session, tmp_path):
    """SIGKILL after the partition write committed but before the store
    mutation: resume is byte-for-byte idempotent and recompute-free."""
    _kill_resume_case(tmp_path, "after_write")


def test_resume_after_kill_between_apply_and_commit(ray_session, tmp_path):
    """SIGKILL after the store mutation but before the sequence-pointer
    commit: apply_changes re-runs as an idempotent LWW upsert and the
    resumed state (outputs AND store files) is byte-identical."""
    _kill_resume_case(tmp_path, "after_apply")


def test_resume_after_kill_between_write_and_apply_synthetic(ray_session, tmp_path):
    """The after_write kill on synthetic inputs (no fixtures needed):
    a 4000-element store, a 2000-element diff, the 12-polygon tree."""
    _kill_resume_case(tmp_path, "after_write", inputs="synthetic")


def test_resume_after_kill_between_apply_and_commit_synthetic(ray_session, tmp_path):
    """The after_apply kill on the same synthetic inputs."""
    _kill_resume_case(tmp_path, "after_apply", inputs="synthetic")


def test_resume_after_kill_mid_delta_synthetic(ray_session, tmp_path):
    """SIGKILL inside apply_changes, after the node delta landed and
    before the way delta: the resumed apply skips the node delta it
    finds newest and writes the rest."""

    def crashed(db):
        assert len(os.listdir(f"{db}/deltas/nodes")) == 1
        assert not os.path.exists(f"{db}/deltas/ways")

    _kill_resume_case(tmp_path, "mid_delta", inputs="synthetic", crashed=crashed)


def test_resume_after_kill_mid_write_synthetic(tmp_path):
    """SIGKILL inside the partition write, right after the first
    partition file landed and before any lineage was staged: the
    landed file is already byte-final, no seq=1/ lineage exists, and
    the resumed run rewrites that partition to the same bytes."""

    def crashed(db):
        work = os.path.dirname(db)
        landed = [f for _d, _s, files in os.walk(f"{work}/diffs") for f in files]
        assert landed == ["part-0.parquet"]
        partitions = CheckpointManifest(f"{work}/ckpt")._state["partitions"]
        assert not [pid for pid in partitions if pid.startswith("seq=1/")]

    _kill_resume_case(tmp_path, "mid_write", inputs="synthetic", crashed=crashed)


def test_resume_after_kill_in_fold_synthetic(ray_session, tmp_path):
    """SIGKILL inside a fold, after the new node base replaced the old
    one and before the folded deltas were deleted: the reads of the
    resumed run merge that base with the still pending deltas, and the
    fold runs again to the same bytes."""
    from osm_replication_rust_ray.sources.store import ElementStore

    def crashed(db):
        for t in ("nodes", "ways", "relations"):
            assert len(os.listdir(f"{db}/deltas/{t}")) == ElementStore.FOLD_DELTAS

    _kill_resume_case(tmp_path, "in_fold", inputs="synthetic_pending", crashed=crashed)


def test_manifest_tmp_garbage_is_harmless(tmp_path):
    """Leftover tmp files from a crashed commit never corrupt state."""
    d = str(tmp_path / "ckpt")
    m = CheckpointManifest(d)
    m.stage(PartitionRecord("p1", rows=1, bytes=1))
    m.commit(1)
    # simulate crash debris
    with open(os.path.join(d, "junk.manifest-tmp"), "w") as f:
        f.write("{corrupt")
    m2 = CheckpointManifest(d)
    assert m2.sequence == 1 and m2.done() == {"p1"}
    m2.stage(PartitionRecord("p2", rows=2, bytes=2))
    m2.commit(2)
    m3 = CheckpointManifest(d)
    assert m3.done() == {"p1", "p2"}


def test_atomic_write_parquet_leaves_no_partial_on_success(tmp_path):
    from osm_replication_rust_ray.state.manifest import atomic_write_parquet

    t = pa.table({"x": pa.array([1, 2, 3], pa.int64())})
    path = str(tmp_path / "out" / "part.parquet")
    nbytes = atomic_write_parquet(t, path)
    assert nbytes > 0 and os.path.exists(path)
    leftovers = [p for p in os.listdir(os.path.dirname(path)) if "tmp" in p]
    assert leftovers == []
    assert pq.read_table(path).equals(t)
