"""Packed STRtree: build invariants, brute-force query parity, and
PolyTreeIndex verdicts on giant extents (must stay equal to brute
force when an extent spans most of the polygon tree)."""

import numpy as np

from osm_replication_rust_ray.functions.strtree import STRtree
from osm_replication_rust_ray.sources.synth import synth_polygon_tree
from osm_replication_rust_ray.stages.spatial_join import PolyTreeIndex

from tests.test_spatial_join import brute_force_assignments


def _random_rects(rng, n, lo=-1000, hi=1000, maxspan=200):
    minx = rng.integers(lo, hi, n)
    maxx = minx + rng.integers(0, maxspan, n)
    miny = rng.integers(lo, hi, n)
    maxy = miny + rng.integers(0, maxspan, n)
    return minx, miny, maxx, maxy


def _brute_pairs(q, e):
    want = set()
    for i in range(len(q[0])):
        hit = (
            (q[0][i] <= e[2]) & (q[2][i] >= e[0])
            & (q[1][i] <= e[3]) & (q[3][i] >= e[1])
        )
        want.update((i, int(j)) for j in np.nonzero(hit)[0])
    return want


def test_query_matches_brute_force():
    rng = np.random.default_rng(11)
    for n, nq, cap in [(1, 5, 4), (7, 9, 4), (100, 50, 8), (3000, 400, 16), (257, 31, 2)]:
        e = _random_rects(rng, n)
        q = _random_rects(rng, nq, lo=-1200, hi=1200, maxspan=300)
        t = STRtree(*e, cap=cap)
        qi, ei = t.query(*q)
        assert set(zip(qi.tolist(), ei.tolist())) == _brute_pairs(q, e)


def test_point_entries_and_point_queries():
    rng = np.random.default_rng(3)
    x = rng.integers(-50, 50, 500)
    y = rng.integers(-50, 50, 500)
    t = STRtree(x, y, x, y, cap=8)  # degenerate rectangles (points)
    qi, ei = t.query(x[:40], y[:40], x[:40], y[:40])
    pairs = set(zip(qi.tolist(), ei.tolist()))
    # every point finds at least itself
    for i in range(40):
        assert (i, i) in pairs
    assert pairs == _brute_pairs((x[:40], y[:40], x[:40], y[:40]), (x, y, x, y))


def test_empty_tree_and_empty_query():
    t = STRtree([], [], [], [])
    qi, ei = t.query([0], [0], [1], [1])
    assert len(qi) == 0 and len(ei) == 0
    t2 = STRtree([0], [0], [1], [1])
    qi, ei = t2.query([], [], [], [])
    assert len(qi) == 0 and len(ei) == 0


def test_packed_levels_shrink_by_cap():
    rng = np.random.default_rng(5)
    e = _random_rects(rng, 1000)
    t = STRtree(*e, cap=10)
    sizes = [len(lvl[0]) for lvl in t.levels]
    assert sizes[0] == 1000
    for a, b in zip(sizes, sizes[1:]):
        assert b == (a + 9) // 10
    assert sizes[-1] == 1
    # node MBRs contain their children exactly
    for lvl in range(1, len(t.levels)):
        cminx, cminy, cmaxx, cmaxy = t.levels[lvl - 1]
        nminx, nminy, nmaxx, nmaxy = t.levels[lvl]
        for j in range(len(nminx)):
            s, epos = j * 10, min((j + 1) * 10, len(cminx))
            assert nminx[j] == cminx[s:epos].min()
            assert nmaxx[j] == cmaxx[s:epos].max()
            assert nminy[j] == cminy[s:epos].min()
            assert nmaxy[j] == cmaxy[s:epos].max()


def test_deterministic():
    rng = np.random.default_rng(9)
    e = _random_rects(rng, 777)
    q = _random_rects(rng, 55)
    a = STRtree(*e).query(*q)
    b = STRtree(*e).query(*q)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_giant_extents_route_through_tree_with_equal_verdicts():
    """Continental extents mixed with points: each box overlaps many
    polygon bboxes and dwarfs its candidate polygons, and the verdicts
    must still equal brute force EXACTLY (the STRtree candidate
    superset is refined by the exact predicates)."""
    rng = np.random.default_rng(21)
    n = 200
    # half giant boxes (continental spans), half points
    glon = rng.integers(-1_700_000_000, 200_000_000, n // 2)
    glat = rng.integers(-800_000_000, 200_000_000, n // 2)
    plon = rng.integers(-1_800_000_000, 1_800_000_000, n - n // 2)
    plat = rng.integers(-900_000_000, 900_000_000, n - n // 2)
    ext = {
        "minlon": np.concatenate([glon, plon]),
        "minlat": np.concatenate([glat, plat]),
        "maxlon": np.concatenate(
            [glon + rng.integers(100_000_000, 1_500_000_000, n // 2), plon]
        ),
        "maxlat": np.concatenate(
            [glat + rng.integers(100_000_000, 600_000_000, n // 2), plat]
        ),
    }
    tree = [("./" + p[: -len(".poly")], mp) for p, mp in synth_polygon_tree()]
    index = PolyTreeIndex(tree)
    rows, polys, verdicts = index.verdicts(
        ext["minlon"], ext["minlat"], ext["maxlon"], ext["maxlat"]
    )
    got = {
        (int(r), index.paths[int(p)], v) for r, p, v in zip(rows, polys, verdicts)
    }
    assert got == brute_force_assignments(ext, tree)
    # and the giant rows did produce assignments (the input is exercised)
    assert any(r < n // 2 for r, _, _ in got)


def test_degenerate_cap_rejected():
    import pytest

    with pytest.raises(ValueError, match="capacity"):
        STRtree([0], [0], [1], [1], cap=1)
