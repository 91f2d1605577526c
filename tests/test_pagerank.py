"""Integer fixed-point PageRank: distributed iterative-join result vs a
single-process numpy reference on a random graph (incl. nodes with no
in-edges and duplicate edges)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from osm_replication_rust_ray.functions import pagerank as pr
from osm_replication_rust_ray.functions.pagerank import (
    DAMP_DEN,
    DAMP_NUM,
    SCALE,
    TELEPORT,
    pagerank,
)

BIG = 1 << 62


@pytest.fixture
def regime(monkeypatch, regimes):
    """-> (force, ran): ``force(mode)`` patches the two crossovers so
    ``pagerank`` takes ``mode``; ``ran()`` names the regime that ran."""
    ran = regimes(local=(pr, "_pagerank_local"),
                  broadcast=(pr, "_pagerank_broadcast"),
                  shuffle=(pr, "safe_join"))

    def force(mode: str):
        local, bcast = {"local": (BIG, BIG), "broadcast": (0, BIG),
                        "shuffle": (0, 0)}[mode]
        monkeypatch.setattr(pr, "LOCAL_ROWS", local)
        monkeypatch.setattr(pr, "BROADCAST_ROWS", bcast)

    return force, ran


def _reference(n, src, dst, outdeg_of, n_iter):
    r = np.full(n, SCALE, np.int64)
    for _ in range(n_iter):
        inc = np.zeros(n, np.int64)
        np.add.at(inc, dst, r[src] // outdeg_of[src])
        r = TELEPORT + (DAMP_NUM * inc) // DAMP_DEN
    return r


def test_pagerank_matches_reference(ray_session):
    rng = np.random.default_rng(13)
    n, m = 200, 800
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    outdeg_of = np.bincount(src, minlength=n)
    # every src has outdeg >= 1 by construction of bincount; nodes that
    # never appear as src simply contribute nothing (outdeg unused)
    nodes = rd.from_arrow(pa.table({"v": pa.array(np.arange(n), pa.int64())}))
    edges = rd.from_arrow(
        pa.table(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
                "outdeg": pa.array(outdeg_of[src], pa.int64()),
            }
        )
    )
    got = (
        pagerank(nodes, edges, n_iter=3, est_nodes=n)
        .to_pandas()
        .sort_values("v")
        .reset_index(drop=True)
    )
    want = _reference(n, src, dst, outdeg_of, 3)
    assert (got["v"].to_numpy() == np.arange(n)).all()
    assert (got["rank"].to_numpy() == want).all()
    # sanity: teleport floor for in-edge-free nodes
    no_in = np.setdiff1d(np.arange(n), dst)
    if len(no_in):
        assert (got["rank"].to_numpy()[no_in] == TELEPORT).all()


def test_pagerank_broadcast_shuffle_parity(ray_session, regime):
    """The two data-movement regimes must be value-identical, including
    the corner where an edge dst is NOT a node: it still earns a rank
    row and is carried into later rounds' rank vector."""
    rng = np.random.default_rng(29)
    n, m = 150, 600
    src = rng.integers(0, n, m)
    # ~10% of dsts land outside the node set
    dst = rng.integers(0, n + 15, m)
    outdeg_of = np.bincount(src, minlength=n)

    def build():
        nodes = rd.from_arrow(
            pa.table({"v": pa.array(np.arange(n), pa.int64())})
        )
        edges = rd.from_arrow(
            pa.table(
                {
                    "src": pa.array(src, pa.int64()),
                    "dst": pa.array(dst, pa.int64()),
                    "outdeg": pa.array(outdeg_of[src], pa.int64()),
                }
            )
        )
        return nodes, edges

    force, ran = regime
    force("broadcast")
    nodes, edges = build()
    got_b = (
        pagerank(nodes, edges, n_iter=3, est_nodes=n)
        .to_pandas()
        .sort_values("v")
        .reset_index(drop=True)
    )
    assert ran() == "broadcast"
    force("shuffle")
    nodes, edges = build()
    got_s = (
        pagerank(nodes, edges, n_iter=3, est_nodes=n)
        .to_pandas()
        .sort_values("v")
        .reset_index(drop=True)
    )
    assert ran() == "shuffle"
    assert (got_b["v"].to_numpy() == got_s["v"].to_numpy()).all()
    assert (got_b["rank"].to_numpy() == got_s["rank"].to_numpy()).all()
    # non-node dsts really are present in both outputs
    assert got_b["v"].to_numpy().max() >= n


def test_pagerank_local_regime_parity(ray_session, regime):
    """The single-task local regime (the default under
    ``pagerank.LOCAL_ROWS``) must match the broadcast regime exactly,
    including non-node dsts earning rank rows."""
    rng = np.random.default_rng(31)
    n, m = 150, 600
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n + 15, m)
    outdeg_of = np.bincount(src, minlength=n)

    def build():
        nodes = rd.from_arrow(
            pa.table({"v": pa.array(np.arange(n), pa.int64())})
        )
        edges = rd.from_arrow(
            pa.table(
                {
                    "src": pa.array(src, pa.int64()),
                    "dst": pa.array(dst, pa.int64()),
                    "outdeg": pa.array(outdeg_of[src], pa.int64()),
                }
            )
        )
        return nodes, edges

    force, ran = regime
    nodes, edges = build()
    got_l = (
        pagerank(nodes, edges, n_iter=3)
        .to_pandas()
        .sort_values("v")
        .reset_index(drop=True)
    )
    assert ran() == "local"
    force("broadcast")
    nodes, edges = build()
    got_b = (
        pagerank(nodes, edges, n_iter=3, est_nodes=n)
        .to_pandas()
        .sort_values("v")
        .reset_index(drop=True)
    )
    assert ran() == "broadcast"
    assert got_l.equals(got_b)
