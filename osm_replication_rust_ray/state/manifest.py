"""Checkpoint manifest: per-partition lineage + resume (north_rule).

Engine analogue of the reference's commit protocol:

- tmp-file + atomic rename per output file (``src/diffs.rs:105-149``,
  ``-tmp.osc.gz`` then ``fs::rename``)
- the manifest (sequence pointer + per-partition lineage records with
  row/byte counters) is committed LAST, mirroring the ``state.txt``
  symlink flipped after all outputs land (``src/update.rs:138-143``)
- a re-run anti-joins the done-partition set and recomputes nothing
  (the reference re-runs from ``cur_state+1``, ``src/update.rs:64-74``)
- an exclusive job lock guards the manifest dir (``fd-lock`` around the
  whole run, ``src/bin/update.rs:30-41``)

Partition ids are caller-defined (poly-tree path for tile routing, key
range for id-partitioned stores) — anything stable across runs.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
from dataclasses import dataclass, field


@dataclass
class PartitionRecord:
    partition_id: str
    rows: int
    bytes: int
    path: str | None = None
    meta: dict = field(default_factory=dict)


class CheckpointManifest:
    """JSON manifest in ``dir/manifest.json``; all mutation is staged in
    memory and lands atomically on ``commit(seq)``."""

    def __init__(self, directory: str):
        self.dir = directory
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, "manifest.json")
        self._state: dict = {"sequence": None, "partitions": {}}
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as f:
                self._state = json.load(f)
        self._staged: dict[str, dict] = {}
        self._lock_fd: int | None = None

    # -- job lock (one writer per manifest dir) --
    def acquire_lock(self) -> None:
        import fcntl

        fd = os.open(os.path.join(self.dir, "update.lock"), os.O_CREAT | os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as e:
            os.close(fd)
            raise RuntimeError("another run holds the manifest lock") from e
        self._lock_fd = fd

    def release_lock(self) -> None:
        if self._lock_fd is not None:
            os.close(self._lock_fd)
            self._lock_fd = None

    # -- lineage --
    @property
    def sequence(self):
        return self._state.get("sequence")

    def done(self) -> set[str]:
        return {
            pid
            for pid, rec in self._state["partitions"].items()
            if rec.get("status") == "done"
        }

    def totals(self) -> tuple[int, int]:
        rows = sum(r.get("rows", 0) for r in self._state["partitions"].values())
        nbytes = sum(r.get("bytes", 0) for r in self._state["partitions"].values())
        return rows, nbytes

    def stage(self, rec: PartitionRecord) -> None:
        self._staged[rec.partition_id] = {
            "status": "done",
            "rows": int(rec.rows),
            "bytes": int(rec.bytes),
            "path": rec.path,
            **({"meta": rec.meta} if rec.meta else {}),
        }

    def commit(self, sequence: int | None = None) -> None:
        """Atomic: merge staged records, bump sequence, tmp+rename."""
        self._state["partitions"].update(self._staged)
        if sequence is not None:
            self._state["sequence"] = sequence
        fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".manifest-tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            # one C-encoded string: json.dump with indent runs the
            # pure-Python encoder over every committed partition
            f.write(json.dumps(self._state, sort_keys=True))
        os.replace(tmp, self.path)  # the commit point
        self._staged.clear()


def atomic_write_parquet(table, path: str) -> int:
    """Write a pyarrow table via tmp + rename; returns bytes written.
    The file is serialized in memory and written through the fd that
    ``mkstemp`` opened, so the tmp path is opened once."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path), suffix="-tmp.parquet"
    )
    sink = pa.BufferOutputStream()
    pq.write_table(table, sink)
    buf = sink.getvalue()
    with os.fdopen(fd, "wb") as f:
        f.write(buf)
    os.replace(tmp, path)
    return buf.size


def _drop_done(table, key_col: str, done: set[str]):
    """Anti-join: drop the rows whose key is already committed."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if not done:
        return table
    mask = pc.invert(pc.is_in(table[key_col], value_set=pa.array(list(done))))
    return table.filter(mask)


def _write_group(group, out_dir: str, key_col: str) -> dict:
    """One key's rows -> ``{key_col}={key}/part-0.parquet``; lineage fields."""
    key = str(group[key_col][0].as_py())
    safe = key.replace("/", "__").strip(".")
    path = os.path.join(out_dir, f"{key_col}={safe}", "part-0.parquet")
    nbytes = atomic_write_parquet(group, path)  # global: a kill test wraps it
    return {"partition_id": key, "rows": len(group), "bytes": nbytes, "path": path}


def write_partitioned(data, out_dir: str, key_col: str,
                      manifest: CheckpointManifest, sequence: int | None = None,
                      max_keys: int = 4096, commit: bool = True,
                      id_prefix: str = ""):
    """Resumable partitioned write: one parquet dir per key value.

    ``data`` is a ``pa.Table`` (the replication loop's assignments, a
    few hundred rows per minute diff), written in the calling process
    with no Ray call, as the reference writes its filter outputs
    (``src/diffs.rs:105-149``); or a ray Dataset (routed image payloads,
    distributed assignments), whose key census runs one task per block
    and whose per-key writes run in ``groupby().map_groups``.  Both:

    - skip rows whose key is already committed in ``manifest``
      (anti-join against the done set -- no recomputation)
    - raise before any partition is written or staged when more than
      ``max_keys`` distinct keys are pending (tile/tree routing keeps
      the key domain bounded)
    - write each partition via tmp+rename, then stage its lineage
      record (rows / bytes / path); the manifest commits LAST
    - scope the lineage ids by ``id_prefix`` (e.g. ``"seq=3/"``), so
      callers that write the SAME key domain once per micro-batch don't
      have batch N's done-set swallow batch N+1's rows; the key-column
      values themselves stay unprefixed

    Returns the list of PartitionRecords written this run.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    done = {
        pid[len(id_prefix):]
        for pid in manifest.done()
        if pid.startswith(id_prefix)
    }
    in_process = isinstance(data, pa.Table)
    if in_process:
        pending = _drop_done(data, key_col, done)
        keys = pc.unique(pending[key_col]).to_pylist()
    else:
        import ray

        pending = data.map_batches(
            _drop_done, fn_args=(key_col, done), batch_format="pyarrow"
        ).materialize()
        block_keys = ray.remote(lambda block: pc.unique(block[key_col]).to_pylist())
        keys = set().union(*ray.get([block_keys.remote(b) for b in pending.to_arrow_refs()]))
    # the key census runs before any write: a too-fine key raises with
    # nothing written or staged
    if len(keys) > max_keys:
        raise ValueError(
            f"{len(keys)} partitions exceeds max_keys={max_keys}; "
            "use a coarser partition key"
        )
    if in_process:
        # sort_indices is stable: rows keep their input order within a key
        pending = pending.take(pc.sort_indices(pending, [(key_col, "ascending")]))
        counts = pc.value_counts(pending[key_col]).field("counts").to_pylist()
        lineage = [
            _write_group(pending.slice(start, n), out_dir, key_col)
            for start, n in zip(itertools.accumulate(counts, initial=0), counts)
        ]
    else:
        lineage = pending.groupby(key_col).map_groups(
            lambda g: pa.Table.from_pylist([_write_group(g, out_dir, key_col)]),
            batch_format="pyarrow",
        ).take_all()
    records = [
        PartitionRecord(**{**r, "partition_id": id_prefix + r["partition_id"]})
        for r in lineage
    ]
    for rec in records:
        manifest.stage(rec)
    if commit:
        manifest.commit(sequence)
    return records
