"""Deterministic synthetic data (FIXTURES.md).

- payload table: image+caption rows with the exact `input_hint` schema
  (image_id:string, bytes:binary, w:int32, h:int32, fmt:string,
  caption:string, phash:int64)
- per-row geometry extents derived from ``phash`` (60% points /
  35% small boxes / 5% large boxes, ~20% clustered into one dense
  "urban" hotspot cell to exercise skew handling)
- a 3-level synthetic polygon tree written as .poly files

All generation is counter-based (splitmix64 on row index) — no RNG
state — so any row can be produced independently inside any Ray task:
``payload_dataset(n)`` is ``ray.data.range(n).map_batches(...)`` and
scales to arbitrary n without a driver-side materialization.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..geom import MultiPolygon
from .polyfile import multipolygon_to_poly_text

SEED = 42

_ADJ = np.array(
    "quiet bright rustic vivid faded misty golden stormy ancient calm".split()
)
_NOUN = np.array(
    "harbor village summit forest market bridge canyon island temple meadow".split()
)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — vectorized uint64 hash."""
    x = x.astype(np.uint64)
    x = (x + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    z = x
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


# ---------------- SQL twins of the generator arithmetic ----------------
# The correctness gate runs DuckDB oracles side-by-side with the Ray
# pipelines, so every synthetic derivation must be replicable in SQL.
# splitmix64 needs wrapping uint64 arithmetic: multiplies run in
# HUGEINT split at 2^32 (products stay < 2^96, inside HUGEINT),
# xor/shift run on UBIGINT.  Each mix64 is a chain of 6 projection
# layers (see mix64_sql_layers) so the expression tree stays LINEAR —
# naive inlining would duplicate the argument ~4x per stage.

_M64 = 1 << 64


def mulmod_sql(a: str, b: int) -> str:
    """SQL for (a * b) mod 2^64, a a UBIGINT expression, b a constant."""
    bhi, blo = b >> 32, b & 0xFFFFFFFF
    return (
        f"CAST(((({a})::HUGEINT * {blo}) % {_M64} + "
        f"(((({a})::HUGEINT * {bhi}) % 4294967296) * 4294967296)) % {_M64} "
        f"AS UBIGINT)"
    )


def mix64_sql_layers(src: str, dst: str, tag: str) -> list[tuple[str, str]]:
    """(col_name, expr) layers computing dst = splitmix64(src)."""
    t = f"__mx_{tag}"
    return [
        (f"{t}a", f"CAST((({src})::HUGEINT + {0x9E3779B97F4A7C15}) % {_M64} AS UBIGINT)"),
        (f"{t}b", f"xor({t}a, {t}a >> 30)"),
        (f"{t}c", mulmod_sql(f"{t}b", 0xBF58476D1CE4E5B9)),
        (f"{t}d", f"xor({t}c, {t}c >> 27)"),
        (f"{t}e", mulmod_sql(f"{t}d", 0x94D049BB133111EB)),
        (dst, f"xor({t}e, {t}e >> 31)"),
    ]


def chain_layers_sql(base_sql: str, layers: list[tuple[str, str]]) -> str:
    """Wrap base_sql in one nested SELECT per (name, expr) layer."""
    q = base_sql
    for name, expr in layers:
        q = f"SELECT *, {expr} AS {name} FROM ({q})"
    return q


def ubig_to_int64_sql(u: str) -> str:
    """UBIGINT -> BIGINT two's-complement reinterpret (numpy .view)."""
    return (
        f"CAST(CASE WHEN {u} >= 9223372036854775808::UBIGINT "
        f"THEN ({u})::HUGEINT - {_M64} ELSE ({u})::HUGEINT END AS BIGINT)"
    )


def seed_hash(seed: int = SEED) -> int:
    """mix64(seed) as a plain int (inlined constant in oracle SQL)."""
    return int(_mix64(np.array([seed], np.uint64))[0])


def payload_batch(indices: np.ndarray, seed: int = SEED, with_bytes: bool = True) -> pa.Table:
    """Payload rows for the given row indices (vectorized).

    String columns are built with pyarrow.compute kernels (C++-level
    concat/pad) — the per-row Python f-string path was the hottest part
    of generation at bench scale."""
    import pyarrow.compute as pc

    i = np.asarray(indices, dtype=np.int64)
    n = len(i)
    h = _mix64(i.astype(np.uint64) ^ _mix64(np.full(n, seed, np.uint64)))
    image_id = pc.binary_join_element_wise(
        pa.array(["img"] * n, pa.string()),
        pc.utf8_lpad(pc.cast(pa.array(i, pa.int64()), pa.string()), 9, "0"),
        "",
    )
    w = np.array([16, 32, 64], np.int32)[i % 3]
    hh = np.array([16, 32, 64], np.int32)[(i + 1) % 3]
    # ~1% duplicate phash (dedup tests): rows with h%97==0 share the
    # phash of their "original" at index i - (i % 1000) (deterministic)
    phash = _mix64(h)
    dup = (h % np.uint64(97)) == 0
    orig = i - (i % 1000)
    phash = np.where(
        dup, _mix64(_mix64(orig.astype(np.uint64) ^ _mix64(np.full(n, seed, np.uint64)))), phash
    )
    adj_arr = pa.array(_ADJ.tolist(), pa.string())
    noun_arr = pa.array(_NOUN.tolist(), pa.string())
    adj = pc.take(adj_arr, pa.array((h % np.uint64(len(_ADJ))).astype(np.int64)))
    noun = pc.take(
        noun_arr, pa.array(((h >> np.uint64(8)) % np.uint64(len(_NOUN))).astype(np.int64))
    )
    caption = pc.binary_join_element_wise(
        pa.array(["caption for "] * n, pa.string()),
        image_id,
        pa.array([": "] * n, pa.string()),
        adj,
        pa.array([" "] * n, pa.string()),
        noun,
        "",
    )
    cols = {
        "image_id": image_id,
        "w": pa.array(w, pa.int32()),
        "h": pa.array(hh, pa.int32()),
        "fmt": pa.array(["raw"] * n, pa.string()),
        "caption": caption,
        "phash": pa.array(phash.view(np.int64), pa.int64()),
    }
    if with_bytes:
        cols["bytes"] = pa.array(
            [make_image_bytes(int(ii), int(ww), int(hhh), seed) for ii, ww, hhh in zip(i, w, hh)],
            pa.binary(),
        )
    order = ["image_id", "bytes", "w", "h", "fmt", "caption", "phash"] if with_bytes else [
        "image_id", "w", "h", "fmt", "caption", "phash"
    ]
    return pa.table({k: cols[k] for k in order})


def make_image_bytes(i: int, w: int, h: int, seed: int = SEED) -> bytes:
    """Deterministic raw-RGB payload: counter-hash stream, w*h*3 bytes."""
    nblocks = (w * h * 3 + 7) // 8
    base = _mix64(np.array([i], np.uint64) ^ np.uint64(seed * 7919))[0]
    stream = _mix64(base + np.arange(nblocks, dtype=np.uint64))
    return stream.tobytes()[: w * h * 3]


# ---------------- synthetic video payloads ----------------

VIDEO_W = VIDEO_H = 8  # small frames keep the pixel-regen oracle cheap


def make_video_bytes(i: int, w: int, h: int, n_frames: int,
                     seed: int = SEED) -> bytes:
    """Deterministic raw multi-frame RGB payload (fmt="rawv"): ONE
    counter-hash stream of n_frames*w*h*3 bytes; frame f is the
    contiguous slice [f*w*h*3, (f+1)*w*h*3)."""
    total = n_frames * w * h * 3
    nblocks = (total + 7) // 8
    base = _mix64(np.array([i], np.uint64) ^ np.uint64(seed * 104729))[0]
    stream = _mix64(base + np.arange(nblocks, dtype=np.uint64))
    return stream.tobytes()[:total]


def video_frames_for(i: np.ndarray) -> np.ndarray:
    """Frame-count ladder per video index: 8..24 in steps of 4."""
    return (8 + (np.asarray(i, np.int64) % 5) * 4).astype(np.int32)


def video_batch(indices: np.ndarray, seed: int = SEED) -> pa.Table:
    """Video rows (video_id, bytes, w, h, n_frames, fps, fmt) for the
    given indices — the multimodal video analogue of payload_batch."""
    import pyarrow.compute as pc

    i = np.asarray(indices, dtype=np.int64)
    n = len(i)
    video_id = pc.binary_join_element_wise(
        pa.array(["vid"] * n, pa.string()),
        pc.utf8_lpad(pc.cast(pa.array(i, pa.int64()), pa.string()), 9, "0"),
        "",
    )
    n_frames = video_frames_for(i)
    fps = (10 + (i % 3) * 5).astype(np.int32)
    return pa.table(
        {
            "video_id": video_id,
            "bytes": pa.array(
                [
                    make_video_bytes(int(ii), VIDEO_W, VIDEO_H, int(nf), seed)
                    for ii, nf in zip(i, n_frames)
                ],
                pa.binary(),
            ),
            "w": pa.array(np.full(n, VIDEO_W, np.int32), pa.int32()),
            "h": pa.array(np.full(n, VIDEO_H, np.int32), pa.int32()),
            "n_frames": pa.array(n_frames, pa.int32()),
            "fps": pa.array(fps, pa.int32()),
            "fmt": pa.array(["rawv"] * n, pa.string()),
        }
    )


def video_dataset(n: int, seed: int = SEED, parallelism: int = -1):
    """ray.data pipeline producing the video table (lazy, distributed)."""
    import ray.data as rd

    def gen(batch: pa.Table) -> pa.Table:
        return video_batch(batch["id"].to_numpy(zero_copy_only=False), seed)

    ds = rd.range(n, override_num_blocks=parallelism if parallelism > 0 else None)
    # video payloads are the widest rows in the suite: small batches so
    # batch x concurrency fits worker heaps (wide-binary-row rule)
    return ds.map_batches(gen, batch_format="pyarrow", batch_size=512)


# ---------------- extents from phash ----------------

WORLD_LON = 1_800_000_000
WORLD_LAT = 900_000_000
# the dense "urban" hotspot: ~20% of rows collapse into this small box
HOT_LON, HOT_LAT, HOT_HALF = 23_000_000, 410_000_000, 1_500_000


def derive_extents(phash: np.ndarray) -> dict[str, np.ndarray]:
    """(minlat, maxlat, minlon, maxlon) decimicro from phash bits.

    Deterministic mixture: 60% point extents (node-analogue), 35% small
    boxes (way), 5% large boxes (relation); independently ~20% of rows
    are remapped into the hotspot cell (skew)."""
    h = np.asarray(phash).view(np.uint64)
    u1 = _mix64(h)
    u2 = _mix64(u1)
    u3 = _mix64(u2)
    lon = (u1 % np.uint64(2 * WORLD_LON + 1)).astype(np.int64) - WORLD_LON
    lat = (u2 % np.uint64(2 * WORLD_LAT + 1)).astype(np.int64) - WORLD_LAT
    hot = (u3 % np.uint64(100)) < 20
    lon = np.where(
        hot, HOT_LON - HOT_HALF + (u1 % np.uint64(2 * HOT_HALF)).astype(np.int64), lon
    )
    lat = np.where(
        hot, HOT_LAT - HOT_HALF + (u2 % np.uint64(2 * HOT_HALF)).astype(np.int64), lat
    )
    kind = (u3 % np.uint64(20)).astype(np.int64)  # 0-11 point, 12-18 small, 19 large
    half = np.where(
        kind < 12, 0, np.where(kind < 19, 50_000, 5_000_000)
    ).astype(np.int64)
    half_lat = half
    minlon = np.maximum(lon - half, -WORLD_LON)
    maxlon = np.minimum(lon + half, WORLD_LON)
    minlat = np.maximum(lat - half_lat, -WORLD_LAT)
    maxlat = np.minimum(lat + half_lat, WORLD_LAT)
    return {
        "minlat": minlat,
        "maxlat": maxlat,
        "minlon": minlon,
        "maxlon": maxlon,
    }


def payload_dataset(n: int, seed: int = SEED, with_bytes: bool = True,
                    parallelism: int = -1):
    """ray.data pipeline producing the payload table (lazy, distributed)."""
    import ray.data as rd

    def gen(batch: pa.Table) -> pa.Table:
        return payload_batch(
            batch["id"].to_numpy(zero_copy_only=False), seed, with_bytes
        )

    ds = rd.range(n, override_num_blocks=parallelism if parallelism > 0 else None)
    return ds.map_batches(gen, batch_format="pyarrow", batch_size=8192)


# ---------------- synthetic changes table (FIXTURES.md §3) ----------------

def synth_changes(n: int, seed: int = SEED, seq: int = 1) -> pa.Table:
    """Deterministic OsmChange-like elements table with the reference's
    edge cases baked in: creates/modifies/deletes, ways with partly
    missing nodes, a way with no resolvable bbox (silently dropped by
    the filter, src/osmxml/filter.rs:238-243), and mutually recursive
    relations (7801<->7802, src/osmxml/bbox.rs:222-246).

    Layout: ~70% nodes, ~25% ways (4 refs each, into the node id
    space), ~5% relations (mixed members). Positions are file order.
    """
    h = _mix64(np.arange(n, dtype=np.uint64) ^ _mix64(np.full(n, seed * 31 + seq, np.uint64)))
    kind = (h % np.uint64(100)).astype(np.int64)
    rows = []
    node_pool = max(16, int(n * 0.7))
    for i in range(n):
        k = int(kind[i])
        hv = int(h[i])
        action = ("create", "modify", "delete")[hv % 3 if hv % 7 else 2]
        if k < 70:
            rows.append(
                {
                    "pos": i, "etype": "node", "id": 1000 + hv % node_pool,
                    "action": action,
                    "lat": int(hv % 1_700_000_000) - 850_000_000,
                    "lon": int((hv >> 7) % 3_500_000_000) - 1_750_000_000,
                    "refs": None, "members": None, "tags": None,
                    "minlat": None, "maxlat": None, "minlon": None, "maxlon": None,
                    "version": None, "timestamp": None, "uid": None,
                    "user": None, "changeset": None,
                }
            )
        elif k < 95:
            refs = [1000 + (hv >> (3 * j)) % node_pool for j in range(4)]
            if hv % 11 == 0:
                refs.append(999_999_999)  # missing node (tolerated)
            rows.append(
                {
                    "pos": i, "etype": "way", "id": 500_000 + hv % (n // 2 + 1),
                    "action": action, "lat": None, "lon": None,
                    "refs": refs if hv % 13 else [999_999_998, 999_999_997],
                    "members": None, "tags": None,
                    "minlat": None, "maxlat": None, "minlon": None, "maxlon": None,
                    "version": None, "timestamp": None, "uid": None,
                    "user": None, "changeset": None,
                }
            )
        else:
            members = [
                {"ref": 1000 + hv % node_pool, "role": "admin_centre", "type": "node"},
                {"ref": 500_000 + (hv >> 5) % (n // 2 + 1), "role": "outer", "type": "way"},
            ]
            if hv % 17 == 0:
                members.append({"ref": 7801, "role": "subarea", "type": "relation"})
            rows.append(
                {
                    "pos": i, "etype": "relation", "id": 900_000 + hv % (n // 8 + 1),
                    "action": action, "lat": None, "lon": None,
                    "refs": None, "members": members, "tags": None,
                    "minlat": None, "maxlat": None, "minlon": None, "maxlon": None,
                    "version": None, "timestamp": None, "uid": None,
                    "user": None, "changeset": None,
                }
            )
    # mutually recursive pair at the end (bbox recursion guard fixture)
    for a, b in ((7801, 7802), (7802, 7801)):
        rows.append(
            {
                "pos": len(rows), "etype": "relation", "id": a,
                "action": "modify", "lat": None, "lon": None, "refs": None,
                "members": [{"ref": b, "role": "subarea", "type": "relation"}],
                "tags": None,
                "minlat": None, "maxlat": None, "minlon": None, "maxlon": None,
                "version": None, "timestamp": None, "uid": None,
                "user": None, "changeset": None,
            }
        )
    from .osmxml import ELEMENTS_SCHEMA

    return pa.Table.from_pylist(rows, schema=ELEMENTS_SCHEMA)


# ---------------- synthetic polygon tree ----------------

def _regular_poly(cx: int, cy: int, r: int, nv: int, phase: float = 0.0):
    ang = np.linspace(0, 2 * np.pi, nv, endpoint=False) + phase
    xs = (cx + r * np.cos(ang)).astype(np.int64)
    ys = (cy + 0.8 * r * np.sin(ang)).astype(np.int64)
    return xs, ys


# grid shape for synth_polygon_grid: 36 lon columns x 30 lat rows —
# both divide the world span exactly (100_000_000 / 60_000_000
# decimicro cells), so every bound below is exact int64 arithmetic
# with an identical DuckDB BIGINT twin (sql_polygon_grid_cte)
GRID_NX, GRID_NY = 36, 30
GRID_CELL_X, GRID_CELL_Y = 100_000_000, 60_000_000


def synth_polygon_grid(n: int = GRID_NX * GRID_NY) -> list[tuple[str, MultiPolygon]]:
    """Deterministic FLAT set of ``n`` (<=1080) axis-aligned rectangle
    polygons — the >=1k-polygon fixture that loads PolyTreeIndex's
    packed STRtree candidate source (round-3 verdict item #6: prove
    the north-star "STRtree-backed PIP stage in actor pools" under
    polygon-set load, not just on giant extents).

    One rectangle per world-grid cell, centered, with per-k half-
    widths varied by plain integer multiply/modulo so the set is
    irregular but every bound is derivable bit-identically in ANSI SQL
    (see sql_polygon_grid_cte).  Half-widths stay strictly under the
    half-cell, so rectangles are pairwise disjoint.  Paths are flat
    ("grid/r0000"...): parent "grid" carries no polygon, so tree
    chaining passes through (src/diffs.rs:174-185 file-less level)."""
    if n > GRID_NX * GRID_NY:
        raise ValueError(f"grid holds at most {GRID_NX * GRID_NY} polygons")
    k = np.arange(n, dtype=np.int64)
    cx = -1_800_000_000 + (k % GRID_NX) * GRID_CELL_X + GRID_CELL_X // 2
    cy = -900_000_000 + (k // GRID_NX) * GRID_CELL_Y + GRID_CELL_Y // 2
    hw = 20_000_000 + (k * 7919) % 25_000_000   # [2e7, 4.5e7) < 5e7
    vh = 12_000_000 + (k * 104729) % 15_000_000  # [1.2e7, 2.7e7) < 3e7
    out: list[tuple[str, MultiPolygon]] = []
    for i in range(n):
        xlo, xhi = int(cx[i] - hw[i]), int(cx[i] + hw[i])
        ylo, yhi = int(cy[i] - vh[i]), int(cy[i] + vh[i])
        xs = np.array([xlo, xhi, xhi, xlo], np.int64)
        ys = np.array([ylo, ylo, yhi, yhi], np.int64)
        out.append((f"grid/r{i:04d}", MultiPolygon.from_rings([(xs, ys)])))
    return out


def sql_polygon_grid_cte(n: int = GRID_NX * GRID_NY) -> str:
    """DuckDB CTE body producing the EXACT rectangle bounds of
    synth_polygon_grid (BIGINT arithmetic == numpy int64 — all values
    non-negative before the subtraction, no overflow)."""
    return (
        "SELECT k, 'grid/r' || lpad(k::VARCHAR, 4, '0') AS poly_path, "
        f"(-1800000000 + (k % {GRID_NX}) * {GRID_CELL_X} "
        f"+ {GRID_CELL_X // 2}) - (20000000 + (k * 7919) % 25000000) AS xlo, "
        f"(-1800000000 + (k % {GRID_NX}) * {GRID_CELL_X} "
        f"+ {GRID_CELL_X // 2}) + (20000000 + (k * 7919) % 25000000) AS xhi, "
        f"(-900000000 + (k // {GRID_NX}) * {GRID_CELL_Y} "
        f"+ {GRID_CELL_Y // 2}) - (12000000 + (k * 104729) % 15000000) AS ylo, "
        f"(-900000000 + (k // {GRID_NX}) * {GRID_CELL_Y} "
        f"+ {GRID_CELL_Y // 2}) + (12000000 + (k * 104729) % 15000000) AS yhi "
        f"FROM (SELECT unnest(generate_series(0, {n - 1})) AS k)"
    )


def synth_polygon_tree() -> list[tuple[str, MultiPolygon]]:
    """(relative .poly path, MultiPolygon) entries, depth 3, 12 polygons;
    one 9-ring multipolygon (canarias-analogue); overlapping hotspot
    region under region_a."""
    out: list[tuple[str, MultiPolygon]] = []

    def add(path, rings):
        out.append((path, MultiPolygon.from_rings(rings)))

    # region_a: big polygon containing the hotspot
    add("region_a.poly", [_regular_poly(20_000_000, 400_000_000, 120_000_000, 12)])
    add(
        "region_a/urban.poly",
        [_regular_poly(HOT_LON, HOT_LAT, 8_000_000, 10, 0.3)],
    )
    add(
        "region_a/urban/core.poly",
        [_regular_poly(HOT_LON, HOT_LAT, 2_500_000, 8, 0.1)],
    )
    add(
        "region_a/rural.poly",
        [_regular_poly(-30_000_000, 350_000_000, 30_000_000, 7, 0.5)],
    )
    # region_b: 9-ring archipelago (multi-ring fixture analogue)
    rings = [
        _regular_poly(
            -700_000_000 + 40_000_000 * k,
            -200_000_000 + 25_000_000 * (k % 3),
            12_000_000,
            6 + k,
            0.2 * k,
        )
        for k in range(9)
    ]
    add("region_b.poly", rings)
    add(
        "region_b/isla_one.poly",
        [_regular_poly(-700_000_000, -200_000_000, 11_000_000, 8)],
    )
    # region_c: far-east region, plus a leaf-only directory level
    add("region_c.poly", [_regular_poly(1_200_000_000, -400_000_000, 90_000_000, 9)])
    add(
        "region_c/zone/east.poly",
        [_regular_poly(1_230_000_000, -380_000_000, 25_000_000, 8, 0.4)],
    )
    add(
        "region_c/zone/west.poly",
        [_regular_poly(1_150_000_000, -420_000_000, 25_000_000, 8, 0.8)],
    )
    add("region_d.poly", [_regular_poly(-1_400_000_000, 600_000_000, 80_000_000, 11)])
    add(
        "region_d/north.poly",
        [_regular_poly(-1_380_000_000, 640_000_000, 25_000_000, 9, 0.7)],
    )
    add(
        "region_d/south.poly",
        [_regular_poly(-1_420_000_000, 560_000_000, 25_000_000, 9, 0.9)],
    )
    return out


def polygon_tree_entries() -> list[tuple[str, MultiPolygon]]:
    """``synth_polygon_tree`` as ``PolyTreeIndex`` entries: paths
    relative to the tree root ("./region_a/urban"), without ".poly"."""
    return [("./" + p[: -len(".poly")], mp) for p, mp in synth_polygon_tree()]


def write_polygon_tree(root_dir: str) -> str:
    """Materialize the synthetic tree as .poly files; returns root_dir."""
    for rel, mp in synth_polygon_tree():
        path = os.path.join(root_dir, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        name = os.path.splitext(os.path.basename(rel))[0]
        with open(path, "w", encoding="utf-8") as f:
            f.write(multipolygon_to_poly_text(name, mp))
    return root_dir


# ---------------- synthetic element store ----------------

def synth_store(n: int, seed: int = SEED):
    """Deterministic store tables (nodes, ways, relations) whose id
    domains match :func:`synth_changes`, for diff-pipeline tests at any
    scale.  Fully vectorized (mix64 counter hashing; lists built from
    offset arrays) so a 10^6-element store generates in milliseconds.

    Structure mirrors the reference fixtures' edge cases: ~15% of node
    ids missing, ways with refs into the node pool (a few dangling),
    relations with node+way members, ~25% carrying a nested relation
    member (id+1 chains -> multi-round closure), a few pointing at the
    mutually recursive 7801<->7802 pair which is always present
    (src/osmxml/bbox.rs:204-247).
    """
    node_pool = max(16, int(n * 0.7))
    nid = 1000 + np.arange(node_pool, dtype=np.int64)
    h = _mix64(nid.astype(np.uint64) ^ _mix64(np.full(node_pool, seed * 77 + 5, np.uint64)))
    keep = (h % np.uint64(100)) < np.uint64(85)
    nid = nid[keep]
    h = h[keep]
    nodes = pa.table(
        {
            "id": nid,
            "lat": (h % np.uint64(1_700_000_000)).astype(np.int64) - 850_000_000,
            "lon": ((h >> np.uint64(9)) % np.uint64(3_500_000_000)).astype(np.int64)
            - 1_750_000_000,
        }
    )
    n_ways = n // 2 + 1
    wid = 500_000 + np.arange(n_ways, dtype=np.int64)
    wh = _mix64(wid.astype(np.uint64) ^ _mix64(np.full(n_ways, seed * 77 + 6, np.uint64)))
    wkeep = (wh % np.uint64(100)) < np.uint64(80)
    wid, wh = wid[wkeep], wh[wkeep]
    n_refs = 3 + (wh % np.uint64(4)).astype(np.int64)  # 3..6 refs
    offsets = np.concatenate(([0], np.cumsum(n_refs))).astype(np.int32)
    idx = np.arange(int(offsets[-1]), dtype=np.uint64)
    parent = np.repeat(np.arange(len(wid)), n_refs)
    rh = _mix64(idx ^ wh[parent])
    refs = 1000 + (rh % np.uint64(node_pool)).astype(np.int64)
    dangle = (rh % np.uint64(23)) == np.uint64(0)
    refs = np.where(dangle, 999_999_999, refs)  # missing node (tolerated)
    ways = pa.table(
        {
            "id": wid,
            "refs": pa.ListArray.from_arrays(pa.array(offsets), pa.array(refs)),
        }
    )
    n_rels = n // 8 + 1
    rid = 900_000 + np.arange(n_rels, dtype=np.int64)
    rh2 = _mix64(rid.astype(np.uint64) ^ _mix64(np.full(n_rels, seed * 77 + 7, np.uint64)))
    rkeep = (rh2 % np.uint64(100)) < np.uint64(70)
    rid, rh2 = rid[rkeep], rh2[rkeep]
    # vectorized member construction: node + way always; nested rel 25%
    nref = 1000 + (rh2 % np.uint64(node_pool)).astype(np.int64)
    wref = 500_000 + ((rh2 >> np.uint64(5)) % np.uint64(n_ways)).astype(np.int64)
    has_rel = (rh2 % np.uint64(4)) == np.uint64(0)
    to_7801 = (rh2 % np.uint64(16)) == np.uint64(0)
    rref = np.where(to_7801, 7801, np.minimum(rid + 1, rid.max()))
    counts = 2 + has_rel.astype(np.int64)
    roffsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    total = int(roffsets[-1])
    flat_ref = np.empty(total, np.int64)
    flat_type = np.empty(total, dtype=object)
    base = roffsets[:-1]
    flat_ref[base] = nref
    flat_type[base] = "node"
    flat_ref[base + 1] = wref
    flat_type[base + 1] = "way"
    sel = np.flatnonzero(has_rel)
    flat_ref[roffsets[sel] + 2] = rref[sel]
    flat_type[roffsets[sel] + 2] = "relation"
    member_t = pa.struct(
        [("ref", pa.int64()), ("role", pa.string()), ("type", pa.string())]
    )
    members = pa.ListArray.from_arrays(
        pa.array(roffsets),
        pa.StructArray.from_arrays(
            [
                pa.array(flat_ref),
                pa.array(["m"] * total),
                pa.array(flat_type.tolist()),
            ],
            fields=list(member_t),
        ),
    )
    rel_tbl = pa.table({"id": rid, "members": members})
    # always include the mutually recursive pair
    pair = pa.table(
        {
            "id": pa.array([7801, 7802], pa.int64()),
            "members": pa.array(
                [
                    [{"ref": 7802, "role": "subarea", "type": "relation"}],
                    [{"ref": 7801, "role": "subarea", "type": "relation"}],
                ],
                pa.list_(member_t),
            ),
        }
    )
    relations = pa.concat_tables([rel_tbl, pair])
    return nodes, ways, relations


def synth_store_elements(n: int, seed: int = SEED) -> pa.Table:
    """ELEMENTS_SCHEMA "create" table carrying exactly
    :func:`synth_store`'s contents — ``ElementStore.apply_changes`` of
    this table seeds a REAL store with the synthetic fixture,
    so end-to-end ``run_sequence`` tests and probes can run at
    representative scale."""
    from .osmxml import elements_from_store_tables

    return elements_from_store_tables(*synth_store(n, seed))
