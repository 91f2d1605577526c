"""Hierarchical spatial cell index (S2/H3-style, pure numpy).

The north-star mandates H3(res 5-9)/S2-style cell encoding as the
partition key for the spatial join.  ``h3``/``s2sphere`` are not
installable here, so the engine ships its own cell scheme with the same
CONTRACT: hierarchical, prefix-compatible across resolutions,
deterministic, vectorized:

- planar decimicro lon/lat grid (matching the reference's planar
  integer geometry: polygons are planar ``MultiPolygon<i64>``)
- cell id (int64) = res<<56 | Morton(x, y) where x, y are the lon/lat
  bucket indices at 2^res buckets over lon [-1.8e9, 1.8e9] and
  lat [-0.9e9, 0.9e9]; lat uses the same span as lon so cells are
  square in decimicro space
- parent(cell) = one-level Morton shift: prefix-compatible (res r cell
  id >> 2 of the morton part = its res r-1 ancestor)
- k_ring(cell, k): the (2k+1)^2 neighborhood at the same res (no
  anti-meridian wrap — planar semantics, documented)

Default join resolution DEFAULT_RES=9 → 512×512 grid over the world.
"""

from __future__ import annotations

import numpy as np

LON_OFFSET = 1_800_000_000
LAT_OFFSET = 900_000_000
LON_SPAN = 3_600_000_001  # +1 so lon=+180° maps to the last bucket
DEFAULT_RES = 9
MAX_RES = 26


def _spread_bits(v: np.ndarray) -> np.ndarray:
    """Interleave zeros between bits (Morton spreading, 32->64)."""
    v = v.astype(np.uint64)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


def _compact_bits(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.uint64) & np.uint64(0x5555555555555555)
    v = (v | (v >> np.uint64(1))) & np.uint64(0x3333333333333333)
    v = (v | (v >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0x00000000FFFFFFFF)
    return v


def xy_at_res(lon, lat, res: int) -> tuple[np.ndarray, np.ndarray]:
    lon = np.asarray(lon, dtype=np.int64)
    lat = np.asarray(lat, dtype=np.int64)
    x = ((lon + LON_OFFSET).astype(np.int64) << res) // LON_SPAN
    y = ((lat + LAT_OFFSET).astype(np.int64) << res) // LON_SPAN
    return x.astype(np.int64), y.astype(np.int64)


def encode_cells(lon, lat, res: int = DEFAULT_RES) -> np.ndarray:
    """Vectorized point -> int64 cell id at resolution ``res``."""
    assert 0 <= res <= MAX_RES
    x, y = xy_at_res(lon, lat, res)
    m = _spread_bits(x) | (_spread_bits(y) << np.uint64(1))
    return (np.uint64(res) << np.uint64(56) | m).astype(np.int64)


def cell_res(cells) -> np.ndarray:
    return (np.asarray(cells).astype(np.uint64) >> np.uint64(56)).astype(np.int64)


def cell_xy(cells) -> tuple[np.ndarray, np.ndarray]:
    m = np.asarray(cells).astype(np.uint64) & np.uint64((1 << 56) - 1)
    return _compact_bits(m).astype(np.int64), _compact_bits(
        m >> np.uint64(1)
    ).astype(np.int64)


def cell_from_xy(x, y, res: int) -> np.ndarray:
    m = _spread_bits(np.asarray(x)) | (_spread_bits(np.asarray(y)) << np.uint64(1))
    return (np.uint64(res) << np.uint64(56) | m).astype(np.int64)


def parent_cells(cells, steps: int = 1) -> np.ndarray:
    """Ancestor at res - steps (prefix compatibility)."""
    c = np.asarray(cells).astype(np.uint64)
    res = (c >> np.uint64(56)).astype(np.int64)
    m = c & np.uint64((1 << 56) - 1)
    m = m >> np.uint64(2 * steps)
    newres = (res - steps).astype(np.uint64)
    return ((newres << np.uint64(56)) | m).astype(np.int64)


def cell_bounds(cells) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(minlon, minlat, maxlon, maxlat) decimicro of each cell's rect.

    maxes are exclusive-edge minus nothing: the rect spans
    [floor(i*span/2^r) .. floor((i+1)*span/2^r)] inclusive so adjacent
    cells share their border (boundary-inclusive geometry)."""
    res = cell_res(cells)
    x, y = cell_xy(cells)
    den = (np.int64(1) << res.astype(np.int64)).astype(np.int64)
    minlon = (x * LON_SPAN) // den - LON_OFFSET
    maxlon = ((x + 1) * LON_SPAN) // den - LON_OFFSET
    minlat = (y * LON_SPAN) // den - LAT_OFFSET
    maxlat = ((y + 1) * LON_SPAN) // den - LAT_OFFSET
    return minlon, minlat, maxlon, maxlat


def k_ring(cell: int, k: int = 1) -> np.ndarray:
    """All cells within Chebyshev distance k at the same res (clipped to
    the grid, planar — no wraparound)."""
    res = int(cell_res([cell])[0])
    x, y = cell_xy([cell])
    x, y = int(x[0]), int(y[0])
    n = 1 << res
    xs = np.arange(max(0, x - k), min(n, x + k + 1))
    ys = np.arange(max(0, y - k), min(n, y + k + 1))
    gx, gy = np.meshgrid(xs, ys)
    return cell_from_xy(gx.ravel(), gy.ravel(), res)


# ---------------- geohash (base32 interleaved cells) -----------------------

GEOHASH32 = "0123456789bcdefghjkmnpqrstuvwxyz"  # no a, i, l, o


def geohash_encode(lon_dm, lat_dm, chars: int = 6) -> np.ndarray:
    """Vectorized decimicro (lon, lat) -> geohash strings — REAL
    geohash (pinned against the published test vectors u4pruy /
    wx4g0e in tests): 15 bits per axis by exact integer scaling,
    lon-first interleave, base32 without a/i/l/o.  The scale divisors
    carry a +1 so the closed upper bound (+180°, +90°) stays in the
    last cell instead of overflowing — every interior boundary is
    shifted by <1e-9 of the range, identically on both sides (the SQL
    twin is generated from the same algebra)."""
    lon_dm = np.asarray(lon_dm, np.int64)
    lat_dm = np.asarray(lat_dm, np.int64)
    bx = (lon_dm + 1_800_000_000) * 32768 // 3_600_000_001
    by = (lat_dm + 900_000_000) * 32768 // 1_800_000_001
    val = np.zeros(len(lon_dm), np.int64)
    for p in range(30):
        src = bx if p % 2 == 1 else by
        val |= ((src >> (p // 2)) & 1) << p
    alpha = np.frombuffer(GEOHASH32.encode(), np.uint8)
    idx = np.empty((len(val), chars), np.uint8)
    for j in range(chars):
        idx[:, j] = (val >> (25 - 5 * j)) & 31
    return alpha[idx].view(f"S{chars}").ravel().astype(str)


# ---------------- Hilbert curve (locality-preserving tile order) -----------

def hilbert_d(x, y, order: int) -> np.ndarray:
    """Vectorized (x, y) -> Hilbert distance on a 2^order x 2^order
    grid — the locality-preserving shard ordering (better worst-case
    neighbor distance than the Morton order the pyramid uses; the
    ordering BigQuery/S2 use for spatial clustering).  Standard
    top-down quadrant walk: consume one bit per axis per level,
    reflect+swap the sub-square.  The same algebra unrolls level by
    level into the SQL twin (hilbert_sql_ctes)."""
    x = np.asarray(x).astype(np.int64).copy()
    y = np.asarray(y).astype(np.int64).copy()
    d = np.zeros_like(x)
    n1 = (1 << order) - 1
    s = 1 << (order - 1)
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += (s * s) * ((3 * rx) ^ ry)
        swap = ry == 0
        refl = swap & (rx == 1)
        xr = np.where(refl, n1 - x, x)
        yr = np.where(refl, n1 - y, y)
        x, y = np.where(swap, yr, xr), np.where(swap, xr, yr)
        s >>= 1
    return d


def hilbert_sql_ctes(order: int, src: str, xcol: str, ycol: str,
                     keep_cols: list[str]) -> tuple[str, str]:
    """-> (cte_sql, final_name): chained CTEs computing the IDENTICAL
    level-by-level walk as :func:`hilbert_d` over ``src`` (which must
    expose the plain columns ``keep_cols`` plus ``xcol``/``ycol``).
    The final CTE has columns (*keep_cols, d).  DuckDB's ^ is
    exponentiation — xor() is used."""
    n1 = (1 << order) - 1
    keep = ", ".join(keep_cols)
    ctes = [
        f"h0 AS (SELECT {keep}, CAST({xcol} AS BIGINT) AS x, "
        f"CAST({ycol} AS BIGINT) AS y, CAST(0 AS BIGINT) AS d FROM {src})"
    ]
    prev = "h0"
    for lvl in range(order):
        s = 1 << (order - 1 - lvl)
        name = f"h{lvl + 1}"
        ctes.append(f"""{name} AS (
  SELECT {keep},
         d + {s * s} * xor(3 * rx, ry) AS d,
         CASE WHEN ry = 0 THEN (CASE WHEN rx = 1 THEN {n1} - y ELSE y END)
              ELSE x END AS x,
         CASE WHEN ry = 0 THEN (CASE WHEN rx = 1 THEN {n1} - x ELSE x END)
              ELSE y END AS y
  FROM (SELECT {keep}, d, x, y,
               CASE WHEN (x & {s}) > 0 THEN 1 ELSE 0 END AS rx,
               CASE WHEN (y & {s}) > 0 THEN 1 ELSE 0 END AS ry
        FROM {prev}))""")
        prev = name
    return ",\n".join(ctes), prev
