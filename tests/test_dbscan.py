"""DBSCAN: brute-force parity on random multi-block point sets, plus
engineered shapes (star -> isolated core + borders; all-noise)."""

import numpy as np
import pyarrow as pa
import pytest

from osm_replication_rust_ray.functions import dbscan as db
from osm_replication_rust_ray.functions.dbscan import dbscan


def brute_dbscan(pids, xs, ys, eps, min_pts):
    """Reference: closed neighborhood incl. self; border -> min core
    neighbor's cluster rep; cluster rep = min core id (transitive)."""
    n = len(pids)
    d2 = ((xs[:, None] - xs[None, :]) ** 2
          + (ys[:, None] - ys[None, :]) ** 2)
    nbr = d2 <= eps * eps
    core = nbr.sum(axis=1) >= min_pts  # includes self
    # union-find over core-core edges
    parent = {int(p): int(p) for p in pids[core]}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    ci = np.nonzero(core)[0]
    for i in ci:
        for j in ci:
            if i < j and nbr[i, j]:
                ra, rb = find(int(pids[i])), find(int(pids[j]))
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    rep = {}
    for p in parent:
        r = find(p)
        rep.setdefault(r, []).append(p)
    label = {}
    for r, members in rep.items():
        m = min(members)
        for p in members:
            label[p] = m
    out = {}
    for i in range(n):
        p = int(pids[i])
        if core[i]:
            out[p] = ("core", label[p])
        else:
            core_nb = [label[int(pids[j])]
                       for j in np.nonzero(nbr[i] & core)[0]]
            if core_nb:
                out[p] = ("border", min(core_nb))
            else:
                out[p] = ("noise", -1)
    return out


def run_engine(ray_session, pids, xs, ys, eps, min_pts):
    import ray.data

    pts = ray.data.from_arrow(pa.table({
        "pid": pa.array(pids, pa.int64()),
        "x": pa.array(xs, pa.int64()),
        "y": pa.array(ys, pa.int64()),
    })).repartition(5)
    got = dbscan(pts, eps, min_pts, n_part=4,
                 est_pts=len(pids)).to_pandas()
    return {int(r.pid): (r.role, int(r.cluster_rep))
            for r in got.itertuples()}


@pytest.mark.parametrize("seed,n", [(3, 120), (9, 300)])
def test_dbscan_random_parity(ray_session, seed, n):
    rng = np.random.default_rng(seed)
    w = int(np.sqrt(n)) * 1000
    pids = rng.permutation(np.arange(1, 4 * n, 4))[:n].astype(np.int64)
    xs = rng.integers(0, w, n).astype(np.int64)
    ys = rng.integers(0, w, n).astype(np.int64)
    got = run_engine(ray_session, pids, xs, ys, 900, 4)
    exp = brute_dbscan(pids, xs, ys, 900, 4)
    assert got == exp
    roles = {r for r, _ in exp.values()}
    assert roles == {"core", "border", "noise"}  # mix actually present


def test_dbscan_regime_parity(ray_session, monkeypatch, regimes):
    """The DISTRIBUTED path (joins + CC fixpoint) must agree with the
    single-task local regime AND the brute reference on the same
    input — the ladder rung the 100x story depends on."""
    rng = np.random.default_rng(42)
    n = 250
    w = int(np.sqrt(n)) * 1000
    pids = rng.permutation(np.arange(1, 4 * n, 4))[:n].astype(np.int64)
    xs = rng.integers(0, w, n).astype(np.int64)
    ys = rng.integers(0, w, n).astype(np.int64)
    ran = regimes(local=(db, "run_local"),
                  dist=(db, "eps_neighbor_pairs"))
    local = run_engine(ray_session, pids, xs, ys, 900, 4)
    assert ran() == "local"  # the default at this size
    monkeypatch.setattr(db, "LOCAL_ROWS", 0)
    dist = run_engine(ray_session, pids, xs, ys, 900, 4)
    assert ran() == "dist"
    assert dist == local == brute_dbscan(pids, xs, ys, 900, 4)


def test_dbscan_star_isolated_core(ray_session):
    """Star: center within eps of 3 far-apart leaves -> center is core
    (4 incl. self), leaves are borders of the center's singleton
    cluster, plus one distant noise point."""
    pids = np.array([10, 20, 30, 40, 99], np.int64)
    xs = np.array([0, 90, -90, 0, 5000], np.int64)
    ys = np.array([0, 0, 0, 90, 5000], np.int64)
    got = run_engine(ray_session, pids, xs, ys, 100, 4)
    assert got == {10: ("core", 10), 20: ("border", 10),
                   30: ("border", 10), 40: ("border", 10),
                   99: ("noise", -1)}


def test_dbscan_all_noise(ray_session):
    pids = np.array([1, 2, 3], np.int64)
    xs = np.array([0, 10_000, 20_000], np.int64)
    ys = np.zeros(3, np.int64)
    got = run_engine(ray_session, pids, xs, ys, 100, 3)
    assert got == {1: ("noise", -1), 2: ("noise", -1), 3: ("noise", -1)}


def test_dbscan_two_clusters_merge_across_blocks(ray_session):
    """A chain of cores spanning blocks must collapse to ONE cluster
    with rep = global min core id."""
    n = 40
    pids = np.arange(100, 100 + n, dtype=np.int64)
    xs = (np.arange(n) * 50).astype(np.int64)  # spacing 50 < eps
    ys = np.zeros(n, np.int64)
    got = run_engine(ray_session, pids, xs, ys, 100, 3)
    assert all(v == ("core", 100) for v in got.values())
