"""Triangle counting: brute-force parity on random graphs plus
engineered shapes (clique, triangle-free, hub skew)."""

import itertools

import numpy as np
import pyarrow as pa
import pytest

from osm_replication_rust_ray.functions import triangles
from osm_replication_rust_ray.functions.triangles import triangle_counts


def brute(edges):
    es = {tuple(sorted(e)) for e in edges if e[0] != e[1]}
    adj = {}
    for a, b in es:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    cnt = {}
    for a, b in es:
        for c in adj[a] & adj[b]:
            for v in (a, b, c):
                cnt[v] = cnt.get(v, 0) + 1
    return {k: v // 3 for k, v in cnt.items()}  # each tri seen 3x here


MODES = ("broadcast", "shuffle")


@pytest.fixture
def regime(monkeypatch, regimes):
    """-> (force, ran): ``force(mode)`` patches ``triangles.BCAST_EDGES``
    so ``triangle_counts`` takes ``mode``; ``ran()`` names the regime
    that ran."""
    ran = regimes(broadcast=(triangles, "_triangle_counts_broadcast"),
                  shuffle=(triangles, "_triangle_counts_shuffle"))

    def force(mode: str):
        monkeypatch.setattr(triangles, "BCAST_EDGES",
                            1 << 62 if mode == "broadcast" else 0)

    return force, ran


def run(ray_session, edges, regime, mode):
    import ray.data

    force, ran = regime
    force(mode)
    es = sorted({tuple(sorted(e)) for e in edges if e[0] != e[1]})
    a = np.array([e[0] for e in es], np.int64)
    b = np.array([e[1] for e in es], np.int64)
    ds = ray.data.from_arrow(pa.table({
        "a": pa.array(a), "b": pa.array(b)})).repartition(4)
    got = triangle_counts(ds, n_part=4, est_edges=len(es),
                          est_nodes=int(max(b.max(initial=0), 1)) + 1)
    assert ran() == mode
    return {int(r.node): int(r.n_tri) for r in got.to_pandas().itertuples()}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed,n,m", [(5, 40, 160), (8, 80, 500)])
def test_triangles_random_parity(ray_session, seed, n, m, regime, mode):
    rng = np.random.default_rng(seed)
    edges = list(zip(rng.integers(0, n, m).tolist(),
                     rng.integers(0, n, m).tolist()))
    exp = brute(edges)
    assert exp, "random graph should contain triangles"
    assert run(ray_session, edges, regime, mode) == exp


@pytest.mark.parametrize("mode", MODES)
def test_triangles_clique_and_path(ray_session, regime, mode):
    clique = list(itertools.combinations(range(5), 2))
    got = run(ray_session, clique, regime, mode)
    assert got == {v: 6 for v in range(5)}  # C(4,2) per K5 node
    path = [(i, i + 1) for i in range(10, 20)]
    assert run(ray_session, path, regime, mode) == {}


@pytest.mark.parametrize("mode", MODES)
def test_triangles_hub_skew(ray_session, regime, mode):
    """Star hub + one rim edge: exactly one triangle; the degree
    orientation must not blow up or double-count at the hub."""
    hub = 0
    edges = [(hub, i) for i in range(1, 30)] + [(1, 2)]
    assert run(ray_session, edges, regime, mode) == {0: 1, 1: 1, 2: 1}
