"""Bounded-hop BFS: brute parity on random graphs + engineered chain
(the hop cap must truncate exactly) + disconnected seeds."""

import numpy as np
import pyarrow as pa
import pytest


def brute_bfs(n, edges, seed_mod, max_hops):
    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    dist = {v: 0 for v in range(n) if v % seed_mod == 0}
    frontier = set(dist)
    for h in range(1, max_hops + 1):
        nxt = set()
        for v in frontier:
            for w in adj.get(v, ()):
                if w not in dist:
                    dist[w] = h
                    nxt.add(w)
        frontier = nxt
    return dist


def run_bfs(ray_session, n, edges, seed_mod, max_hops, monkeypatch,
            graph_regime, mode):
    import ray.data as rd

    from osm_replication_rust_ray.pipelines import queries as Q

    # mode: "local" routes through functions/graphlocal.bfs_local,
    # "dist" forces the BSP join path (crossover set to 0 edges)
    force, ran = graph_regime
    force(mode)
    monkeypatch.setattr(Q, "BFS_SEED_MOD", seed_mod)
    monkeypatch.setattr(Q, "BFS_MAX_HOPS", max_hops)
    es = sorted({tuple(sorted(e)) for e in edges if e[0] != e[1]})
    edge_ds = rd.from_arrow(pa.table({
        "a": pa.array([e[0] for e in es], pa.int64()),
        "b": pa.array([e[1] for e in es], pa.int64()),
    })).repartition(3)

    def fake_tri_edges(sf_dir):
        return edge_ds, n, len(es)

    monkeypatch.setattr(Q, "_tri_edges", fake_tri_edges)
    got = Q.q_bfs_hops("unused").to_pandas()
    assert ran() == mode
    return {int(r.node): int(r.hops) for r in got.itertuples()}


@pytest.mark.parametrize("mode", ["local", "dist"])
def test_bfs_random_parity(ray_session, monkeypatch, graph_regime, mode):
    rng = np.random.default_rng(12)
    n, m = 120, 300
    edges = list(zip(rng.integers(0, n, m).tolist(),
                     rng.integers(0, n, m).tolist()))
    got = run_bfs(ray_session, n, edges, 11, 3, monkeypatch, graph_regime,
                  mode)
    assert got == brute_bfs(n, edges, 11, 3)


@pytest.mark.parametrize("mode", ["local", "dist"])
def test_bfs_chain_truncates_at_cap(ray_session, monkeypatch, graph_regime,
                                    mode):
    n = 30
    edges = [(i, i + 1) for i in range(n - 1)]
    got = run_bfs(ray_session, n, edges, 1000, 4, monkeypatch, graph_regime,
                  mode)
    # only node 0 seeds (0 % 1000 == 0); hops capped at 4
    assert got == {i: i for i in range(5)}
