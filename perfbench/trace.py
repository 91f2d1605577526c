"""Outside-in span tracing.

Spans are recorded around calls into each layer's public functions by
replacing the module or class attribute with a timing wrapper, so the
package's own files stay untouched.  Layers called in the benchmark's own
process are wrapped there (``install_main``); layers that run inside Ray
workers are wrapped by ``install_worker``, which Ray runs in every worker
process as its ``worker_process_setup_hook``.

Every process keeps its spans in memory and appends them to one file per
process (``spans-<pid>.jsonl`` in the run's trace directory) whenever its
outermost span closes, so worker spans reach the main process without any call
back into the workers.  Timestamps come from CLOCK_MONOTONIC, which all
processes on the host share.

Wrappers record only while the marker file ``on`` exists in the trace
directory, so one Ray session serves both the untraced and the traced
half of a traced run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
ROOT_SPAN = "op"
MERGE_SPAN = "pipelines.spatial.merge"
LEFTOVER = "leftover"


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _lookups(resolver) -> int:
    return resolver.num_read_nodes + resolver.num_read_ways + resolver.num_read_relations


# Counters read outside-in from a wrapped call: (arguments -> state before,
# (state before, arguments, result) -> counts).
def _resolver_counter(arg_index: int):
    def before(args, kwargs):
        return _lookups(args[arg_index])

    def after(state, args, kwargs, out):
        return {"lookups": _lookups(args[arg_index]) - state}

    return before, after


def _result_counter(fn):
    return (lambda args, kwargs: None), (lambda state, args, kwargs, out: fn(out))


_PKG = "osm_replication_rust_ray"

# (module, attribute, span name, counter) for layers called in the main process
MAIN_TARGETS = [
    (f"{_PKG}.sources.store", "Resolver.from_store", "sources.store.load", None),
    (f"{_PKG}.pipelines.update", "annotate_bbox", "stages.bbox.annotate", _resolver_counter(1)),
    (f"{_PKG}.pipelines.update", "closure_node_ids", "stages.bbox.closure", _resolver_counter(1)),
    (f"{_PKG}.stages.filter", "filter_tree_parallel", "stages.filter.tree", None),
    (
        f"{_PKG}.pipelines.update", "write_partitioned", "state.manifest.write",
        _result_counter(lambda recs: {
            "partitions": len(recs), "bytes": sum(r.bytes for r in recs),
        }),
    ),
    (f"{_PKG}.state.manifest", "CheckpointManifest.commit", "state.manifest.commit", None),
    (f"{_PKG}.sources.store", "ElementStore.apply_changes", "sources.store.apply", None),
]

# layers that run inside Ray tasks and actors
WORKER_TARGETS = [
    (f"{_PKG}.sources.synth", "payload_batch", "sources.synth.gen", None),
    (f"{_PKG}.pipelines.spatial", "add_extents_and_cells", "cells.extents", None),
    (f"{_PKG}.stages.spatial_join", "SpatialJoinActor.__init__", "stages.spatial_join.init", None),
    (f"{_PKG}.stages.spatial_join", "SpatialJoinActor.__call__", "stages.spatial_join.emit", None),
    (
        f"{_PKG}.stages.spatial_join", "PolyTreeIndex.verdicts", "stages.spatial_join.refine",
        _result_counter(lambda out: {"assigned": len(out[0])}),
    ),
    (
        f"{_PKG}.stages.spatial_join", "PolyTreeIndex.candidate_pairs",
        "stages.spatial_join.candidates",
        _result_counter(lambda out: {"candidates": len(out[0])}),
    ),
    (f"{_PKG}.stages.filter", "filter_elements", "stages.filter.elements", _resolver_counter(2)),
]


class Tracer:
    """Per-process span recorder; spans nest per thread."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.run_id = os.path.basename(trace_dir)
        self.marker = os.path.join(trace_dir, "on")
        self.path = os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl")
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = 0
        self._pending: list[dict] = []

    def active(self) -> bool:
        return os.path.exists(self.marker)

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        with self._lock:
            self._ids += 1
            sid = self._ids
        span = {
            "name": name, "run": self.run_id, "pid": os.getpid(), "id": sid,
            "parent": stack[-1]["id"] if stack else None,
            "t0": now_ns(), "t1": None, "counts": {},
        }
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["t1"] = now_ns()
        stack = self._stack()
        stack.pop()
        with self._lock:
            self._pending.append(span)
            if stack:
                return
            lines = "".join(json.dumps(s) + "\n" for s in self._pending)
            self._pending.clear()
            with open(self.path, "a", encoding="utf-8") as f:
                f.write(lines)

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active():
                return fn(*args, **kwargs)
            state = counter[0](args, kwargs) if counter else None
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
                if counter:
                    span["counts"] = counter[1](state, args, kwargs, out)
                return out
            finally:
                self.close(span)

        return traced


def _patch(tracer: Tracer, targets) -> None:
    for module_name, attr, name, counter in targets:
        owner = importlib.import_module(module_name)
        *owner_path, leaf = attr.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        if isinstance(raw, staticmethod):
            setattr(owner, leaf, staticmethod(tracer.wrap(raw.__func__, name, counter)))
        else:
            setattr(owner, leaf, tracer.wrap(raw, name, counter))


def install_main(trace_dir: str) -> Tracer:
    """Wrap the layers called in this process; returns its tracer."""
    tracer = Tracer(trace_dir)
    _patch(tracer, MAIN_TARGETS)
    return tracer


def install_worker() -> None:
    """``worker_process_setup_hook``: wrap the worker-side layers."""
    _patch(Tracer(os.environ[TRACE_DIR_ENV]), WORKER_TARGETS)


def load_spans(trace_dir: str) -> list[dict]:
    spans = []
    for fname in sorted(os.listdir(trace_dir)):
        if fname.startswith("spans-") and fname.endswith(".jsonl"):
            with open(os.path.join(trace_dir, fname), encoding="utf-8") as f:
                spans.extend(json.loads(line) for line in f if line.strip())
    return spans


def _subtract(lo: int, hi: int, cuts: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """[lo, hi) minus the union of ``cuts``."""
    out, cur = [], lo
    for a, b in sorted(cuts):
        if a > cur:
            out.append((cur, min(a, hi)))
        cur = max(cur, b)
        if cur >= hi:
            break
    if cur < hi:
        out.append((cur, hi))
    return [(a, b) for a, b in out if b > a]


def attribute_op(root: dict, spans: list[dict], merge_tail: bool) -> dict:
    """Split one operation's wall time between the layers.

    Worker spans hang under the deepest main-process span open at their start
    (the operation root if none).  Every span is clipped to its parent,
    its self intervals are its interval minus its children's, and each
    instant of the operation goes to the spans whose self interval holds
    it, shared equally when several processes run at once.  The shares
    plus ``leftover`` (the root's own self time) equal the wall time.

    ``merge_tail`` adds a span from the end of the last worker span to the
    end of the operation: the main-process merge of a tile job.
    """
    pid = root["pid"]
    local = [s for s in spans if s["pid"] == pid and s is not root]
    workers = [s for s in spans if s["pid"] != pid]
    key = lambda s: (s["pid"], s["id"])  # noqa: E731
    by_key = {key(s): s for s in spans}
    by_key[key(root)] = root
    depth: dict = {key(root): 0}

    def depth_of(s):
        k = key(s)
        if k not in depth:
            par = by_key.get((s["pid"], s["parent"])) if s["parent"] else None
            depth[k] = depth_of(par) + 1 if par else 1
        return depth[k]

    parent_of = {}
    for s in local:
        par = by_key.get((pid, s["parent"])) if s["parent"] else None
        parent_of[key(s)] = key(par) if par else key(root)
    for s in workers:
        par = by_key.get((s["pid"], s["parent"])) if s["parent"] else None
        if par is None:
            holders = [d for d in local if d["t0"] <= s["t0"] < d["t1"]]
            par = max(holders, key=depth_of) if holders else root
        parent_of[key(s)] = key(par)
    nodes = local + workers
    if merge_tail and workers:
        tail = {
            "name": MERGE_SPAN, "run": root["run"], "pid": pid, "id": -1, "parent": None,
            "t0": max(s["t1"] for s in workers), "t1": root["t1"], "counts": {},
        }
        nodes.append(tail)
        parent_of[key(tail)] = key(root)

    children = defaultdict(list)
    for s in nodes:
        children[parent_of[key(s)]].append(s)
    layer = {}
    events = []

    def visit(s, lo, hi, name):
        kids = [(c, max(c["t0"], lo), min(c["t1"], hi)) for c in children[key(s)]]
        kids = [k for k in kids if k[2] > k[1]]
        for a, b in _subtract(lo, hi, [(a, b) for _c, a, b in kids]):
            events.append((a, 1, name))
            events.append((b, -1, name))
        for c, a, b in kids:
            visit(c, a, b, c["name"])

    visit(root, root["t0"], root["t1"], LEFTOVER)
    events.sort(key=lambda e: (e[0], e[1]))
    active: dict[str, int] = defaultdict(int)
    total = 0
    prev = root["t0"]
    for t, delta, name in events:
        if total and t > prev:
            share = (t - prev) / total
            for n, c in active.items():
                if c:
                    layer[n] = layer.get(n, 0.0) + share * c
        prev = t
        active[name] += delta
        total += delta

    busy: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for s in local + workers:
        inner = [(c["t0"], c["t1"]) for c in children[key(s)]]
        busy[s["name"]] += sum(b - a for a, b in _subtract(s["t0"], s["t1"], inner))
        calls[s["name"]] += 1
        for c, v in s["counts"].items():
            counts[c] += v
    first_emit = [s["t1"] for s in workers if s["name"] == "stages.spatial_join.emit"]
    return {
        "wall_ns": root["t1"] - root["t0"],
        "self_ns": layer,
        "busy_ns": dict(busy),
        "calls": dict(calls),
        "counts": dict(counts),
        "ready_ns": (min(first_emit) - root["t0"]) if first_emit else None,
    }


def analyze(trace_dir: str, merge_tail: bool) -> list[dict]:
    """Per-operation attribution for every ``op`` root in the trace."""
    spans = load_spans(trace_dir)
    roots = sorted((s for s in spans if s["name"] == ROOT_SPAN), key=lambda s: s["t0"])
    out = []
    for root in roots:
        inside = [
            s for s in spans
            if s is not root and root["t0"] <= s["t0"] < root["t1"]
        ]
        out.append(attribute_op(root, inside, merge_tail))
    return out
