"""Cell index contract tests: hierarchy, prefix compatibility,
determinism."""

import numpy as np

from osm_replication_rust_ray.cells import (
    cell_bounds,
    cell_res,
    cell_xy,
    encode_cells,
    k_ring,
    parent_cells,
)


def test_encode_decode_roundtrip():
    rng = np.random.default_rng(42)
    lon = rng.integers(-1_800_000_000, 1_800_000_001, 1000)
    lat = rng.integers(-900_000_000, 900_000_001, 1000)
    for res in (5, 9, 14):
        cells = encode_cells(lon, lat, res)
        assert (cell_res(cells) == res).all()
        minlon, minlat, maxlon, maxlat = cell_bounds(cells)
        assert (lon >= minlon).all() and (lon <= maxlon).all()
        assert (lat >= minlat).all() and (lat <= maxlat).all()


def test_prefix_compatibility():
    rng = np.random.default_rng(7)
    lon = rng.integers(-1_800_000_000, 1_800_000_001, 500)
    lat = rng.integers(-900_000_000, 900_000_001, 500)
    c9 = encode_cells(lon, lat, 9)
    c5 = encode_cells(lon, lat, 5)
    assert (parent_cells(c9, 4) == c5).all()


def test_k_ring():
    c = encode_cells([0], [0], 9)[0]
    ring = k_ring(c, 1)
    assert len(ring) == 9
    assert c in ring.tolist()
    x, y = cell_xy(ring)
    cx, cy = cell_xy([c])
    assert np.abs(x - cx[0]).max() <= 1
    assert np.abs(y - cy[0]).max() <= 1


def test_hilbert_bijective_unit_step():
    """Full 32x32 grid: the curve rank is a bijection onto [0, 1024)
    and consecutive ranks are ALWAYS grid neighbors (the locality
    property Morton lacks at quadrant seams)."""
    import numpy as np

    from osm_replication_rust_ray.cells import hilbert_d

    xs, ys = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
    d = hilbert_d(xs.ravel(), ys.ravel(), 5)
    assert sorted(d.tolist()) == list(range(1024))
    order = np.argsort(d)
    px, py = xs.ravel()[order], ys.ravel()[order]
    assert (np.abs(np.diff(px)) + np.abs(np.diff(py)) == 1).all()


def test_hilbert_sql_parity():
    """The unrolled-CTE twin reproduces the numpy walk cell-for-cell
    (orders 3 and 5)."""
    import duckdb
    import numpy as np

    from osm_replication_rust_ray.cells import hilbert_d, hilbert_sql_ctes

    for order in (3, 5):
        n = 1 << order
        cte, final = hilbert_sql_ctes(
            order, "grid", "tile_x", "tile_y", ["tile_x", "tile_y"]
        )
        r = duckdb.sql(f"""
WITH grid AS (SELECT a.i AS tile_x, b.i AS tile_y
              FROM range({n}) a(i), range({n}) b(i)),
{cte}
SELECT tile_x, tile_y, d FROM {final}""").fetchnumpy()
        d_sql = np.zeros((n, n), np.int64)
        d_sql[r["tile_x"].astype(int), r["tile_y"].astype(int)] = r["d"]
        xs, ys = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        d_np = hilbert_d(xs.ravel(), ys.ravel(), order).reshape(n, n)
        assert (d_sql == d_np).all()


def test_geohash_published_vectors():
    """Real geohash: the published test vectors (geohash.org):
    (57.64911N, 10.40744E) -> u4pruy, (39.92324N, 116.3906E) ->
    wx4g0e."""
    from osm_replication_rust_ray.cells import geohash_encode

    got = geohash_encode(
        [104_074_400, 1_163_906_000], [576_491_100, 399_232_400], 6
    )
    assert got.tolist() == ["u4pruy", "wx4g0e"]
