"""The package names and call shapes the benchmark (``perfbench/``) uses.

perfbench imports the package's public entry points and wraps some of
them by name (``perfbench/trace.py``: ``MAIN_TARGETS``,
``WORKER_TARGETS``).  A renamed function or a changed signature would
otherwise show up only as a benchmark run that fails; here it fails
the suite.  Nothing under ``perfbench/`` is imported for its side
effects beyond the module imports themselves."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import trace, workloads  # noqa: E402

ARG = object()  # any positional argument


def _target(module_name, attr):
    """What ``perfbench/trace.py:_patch`` replaces: the attribute itself
    for a module, the class's own ``__dict__`` entry for a class."""
    owner = importlib.import_module(module_name)
    *owner_path, leaf = attr.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        assert leaf in owner.__dict__, f"{module_name}.{attr} is not defined on its class"
        raw = owner.__dict__[leaf]
        return raw.__func__ if isinstance(raw, staticmethod) else raw
    return getattr(owner, leaf)


@pytest.mark.parametrize("module_name,attr,_span,_counter",
                         trace.MAIN_TARGETS + trace.WORKER_TARGETS,
                         ids=lambda v: v if isinstance(v, str) else "")
def test_every_traced_target_resolves(module_name, attr, _span, _counter):
    assert callable(_target(module_name, attr))


def _binds(fn, *args, **kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


def test_replicate_reference_calls_bind():
    """The calls ``ReplicateWorkload`` makes (``_compute_reference``,
    ``_seed_store``, ``_load_inputs``, ``setup`` and ``next_op``), with
    the arity and keywords it uses; the traced resolver counters read
    argument 1 of ``annotate_bbox`` and ``closure_node_ids``."""
    from osm_replication_rust_ray.cli import _load_tree
    from osm_replication_rust_ray.sources import synth
    from osm_replication_rust_ray.sources.store import ElementStore, Resolver
    from osm_replication_rust_ray.state.manifest import CheckpointManifest

    assert workloads.annotate_bbox.__module__.endswith("stages.bbox")
    _binds(Resolver.from_store, ARG)
    _binds(workloads.annotate_bbox, ARG, ARG)
    _binds(workloads.closure_node_ids, ARG, ARG)
    _binds(workloads.filter_tree, ARG, ARG, ARG, ARG, ARG)
    _binds(ElementStore, ARG)
    _binds(ElementStore.apply_changes, ARG, ARG)
    _binds(ElementStore.init, ARG)
    _binds(ElementStore.destroy, ARG)
    _binds(CheckpointManifest, ARG)
    _binds(workloads.run_update, {1: ARG}, ARG, ARG, ARG, ARG, ARG)
    _binds(synth.synth_store_elements, ARG, seed=ARG)
    _binds(synth.synth_changes, ARG, seed=ARG, seq=ARG)
    _binds(synth.write_polygon_tree, ARG)
    _binds(_load_tree, ARG)
    for name in ("annotate_bbox", "closure_node_ids", "write_partitioned"):
        assert callable(getattr(importlib.import_module(
            "osm_replication_rust_ray.pipelines.update"), name))


def test_tile_workload_calls_bind():
    """The calls ``TileWorkload`` makes for its job and its reference."""
    from osm_replication_rust_ray.pipelines import spatial
    from osm_replication_rust_ray.sources import synth

    _binds(synth.payload_dataset, ARG, seed=ARG, with_bytes=False, parallelism=ARG)
    _binds(spatial.add_extents_and_cells, ARG)
    _binds(spatial.assignment_counts, ARG)
    _binds(workloads.SpatialJoinActor, ARG)
    _binds(workloads.SpatialJoinActor.__call__, ARG, ARG)
    _binds(workloads.pool_concurrency, workloads.est_tasks(n_rows=1, batch_rows=1))
    _binds(workloads.PolyTreeIndex, ARG)
    _binds(workloads.PolyTreeIndex.verdicts, ARG, ARG, ARG, ARG, ARG)
    _binds(workloads.PolyTreeIndex.candidate_pairs, ARG, ARG, ARG, ARG, ARG)
    _binds(synth.payload_batch, ARG, ARG, with_bytes=False)
    _binds(synth.synth_polygon_tree)
    _binds(synth.synth_polygon_grid)
