"""Cross-regime parity for the iterative graph queries' local
single-task kernels (`functions/graphlocal.py`): the local regime must
return EXACTLY the distributed BSP path's rows (round-4 verdict
item #1 — the crossover may change cost, never results)."""

import numpy as np
import pyarrow as pa
import pytest


def _fake_edges(monkeypatch, n, edges):
    import ray.data as rd

    from osm_replication_rust_ray.pipelines import queries as Q

    es = sorted({tuple(sorted(e)) for e in edges if e[0] != e[1]})
    ds = rd.from_arrow(pa.table({
        "a": pa.array([e[0] for e in es], pa.int64()),
        "b": pa.array([e[1] for e in es], pa.int64()),
    })).repartition(3)
    monkeypatch.setattr(Q, "_tri_edges", lambda sf: (ds, n, len(es)))


def _walks(graph_regime, mode):
    from osm_replication_rust_ray.pipelines import queries as Q

    force, ran = graph_regime
    force(mode)
    df = Q.q_random_walks("unused").to_pandas()
    assert ran() == mode
    return sorted(map(tuple, df[["walk_id", "step", "node"]].values.tolist()))


def test_walks_regime_parity(ray_session, monkeypatch, graph_regime):
    rng = np.random.default_rng(99)
    n, m = 91, 260  # n chosen so several seeds (id % 13 == 0) exist
    edges = list(zip(rng.integers(0, n, m).tolist(),
                     rng.integers(0, n, m).tolist()))
    _fake_edges(monkeypatch, n, edges)
    local = _walks(graph_regime, "local")
    dist = _walks(graph_regime, "dist")
    assert local == dist
    assert len(local) > len([i for i in range(0, n, 13)])  # steps happened


def test_walks_dead_end_stops(ray_session, monkeypatch, graph_regime):
    """Walk from an isolated seed emits only step 0 in both regimes."""
    # node 0 seeds (0 % 13 == 0) and is isolated; 13 seeds and walks
    n, edges = 14, [(1, 2), (2, 3)]
    _fake_edges(monkeypatch, n, edges)
    local = _walks(graph_regime, "local")
    dist = _walks(graph_regime, "dist")
    assert local == dist
    assert (0, 0, 0) in local
    assert not any(w == 0 and s > 0 for w, s, _ in local)


def test_bfs_regime_parity_random(ray_session, monkeypatch, graph_regime):
    from osm_replication_rust_ray.pipelines import queries as Q

    rng = np.random.default_rng(4)
    n, m = 194, 420
    edges = list(zip(rng.integers(0, n, m).tolist(),
                     rng.integers(0, n, m).tolist()))
    _fake_edges(monkeypatch, n, edges)
    force, ran = graph_regime
    out = {}
    for mode in ("local", "dist"):
        force(mode)
        df = Q.q_bfs_hops("unused").to_pandas()
        assert ran() == mode
        out[mode] = sorted(map(tuple, df[["node", "hops"]].values.tolist()))
    assert out["local"] == out["dist"]


def test_lpa_regime_parity(ray_session, monkeypatch, graph_regime):
    from osm_replication_rust_ray.pipelines import queries as Q

    rng = np.random.default_rng(17)
    n, m = 140, 380
    edges = list(zip(rng.integers(0, n, m).tolist(),
                     rng.integers(0, n, m).tolist()))
    _fake_edges(monkeypatch, n, edges)
    force, ran = graph_regime
    out = {}
    for mode in ("local", "dist"):
        force(mode)
        df = Q.q_label_propagation("unused").to_pandas()
        assert ran() == mode
        out[mode] = sorted(map(tuple,
                               df[["node", "community"]].values.tolist()))
    assert out["local"] == out["dist"]
    assert len(out["local"]) == n
    # communities actually formed (labels coalesced below n distinct)
    assert len({c for _n, c in out["local"]}) < n


def test_lpa_local_matches_brute(ray_session):
    """Local kernel vs a dict-based reference on a random graph."""
    import pyarrow as _pa

    from osm_replication_rust_ray.functions.graphlocal import lpa_local

    rng = np.random.default_rng(8)
    n, m = 60, 150
    es = sorted({tuple(sorted((int(a), int(b))))
                 for a, b in zip(rng.integers(0, n, m),
                                 rng.integers(0, n, m)) if a != b})
    adj = {v: [] for v in range(n)}
    for a, b in es:
        adj[a].append(b)
        adj[b].append(a)
    lab = list(range(n))
    for _ in range(3):
        new = lab[:]
        for v in range(n):
            if adj[v]:
                cnt = {}
                for w in adj[v]:
                    cnt[lab[w]] = cnt.get(lab[w], 0) + 1
                new[v] = min(cnt, key=lambda c: (-cnt[c], c))
        lab = new
    t = _pa.table({"a": _pa.array([e[0] for e in es], _pa.int64()),
                   "b": _pa.array([e[1] for e in es], _pa.int64())})
    got = lpa_local([t], n, 3)
    assert got["community"].to_pylist() == lab


def test_hits_regime_parity(ray_session, graph_regime):
    """Local kernel vs distributed join path on the real derivation
    (sf0.001), forced by patching the crossover constant."""
    from osm_replication_rust_ray.pipelines import queries as Q

    force, ran = graph_regime
    out = {}
    for mode in ("local", "dist"):
        force(mode)
        df = Q.q_hits_scores("/root/testdata/sf0.001").to_pandas()
        assert ran() == mode
        out[mode] = sorted(map(tuple,
                               df[["node", "hub", "auth"]].values.tolist()))
    assert out["local"] == out["dist"]
    assert any(h > 0 for _n, h, _a in out["local"])
