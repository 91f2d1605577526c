"""Spatial join + kNN: indexed results must equal brute force."""

import numpy as np
import pyarrow as pa

from osm_replication_rust_ray.geom import (
    BUFFER_DECIMICRO,
    MultiPolygon,
    boxes_intersect_buffered,
    boxes_intersect_multipolygon,
)
from osm_replication_rust_ray.sources.synth import (
    derive_extents,
    payload_batch,
    polygon_tree_entries,
    synth_polygon_tree,
)
from osm_replication_rust_ray.stages.knn import CellKNNIndex, brute_force_nn
from osm_replication_rust_ray.stages.spatial_join import (
    PolyTreeIndex,
    SpatialJoinActor,
    parent_path,
    polygon_chains,
)


def _payload_extents(n=3000):
    t = payload_batch(np.arange(n), with_bytes=False)
    ext = derive_extents(t["phash"].to_numpy(zero_copy_only=False))
    return t, ext


def brute_force_assignments(ext, tree):
    paths = [p for p, _ in tree]
    polys = [mp for _, mp in tree]
    def eff_parent(p):
        par = parent_path(p)
        while par is not None and par not in paths:
            par = parent_path(par)
        return par

    parent = {p: eff_parent(p) for p in paths}
    v = {}
    n = len(ext["minlat"])
    for pi, mp in enumerate(polys):
        exact = boxes_intersect_multipolygon(
            ext["minlon"], ext["minlat"], ext["maxlon"], ext["maxlat"], mp
        )
        buf = boxes_intersect_buffered(
            ext["minlon"], ext["minlat"], ext["maxlon"], ext["maxlat"], mp,
            buffer=BUFFER_DECIMICRO,
        )
        for i in range(n):
            if exact[i]:
                v[(i, pi)] = "keep"
            elif buf[i]:
                v[(i, pi)] = "delete"
    idx_of = {p: i for i, p in enumerate(paths)}
    out = set()
    for (i, pi), verd in v.items():
        ok, anydel = True, verd == "delete"
        a = parent[paths[pi]]
        while a is not None:
            pv = v.get((i, idx_of[a]))
            if pv is None:
                ok = False
                break
            anydel |= pv == "delete"
            a = parent[a]
        if ok:
            out.add((i, paths[pi], "delete" if anydel else "keep"))
    return out


def test_spatial_join_matches_brute_force():
    _, ext = _payload_extents(3000)
    tree = [("./" + p[: -len(".poly")], mp) for p, mp in synth_polygon_tree()]
    index = PolyTreeIndex(tree)
    rows, polys, verdicts = index.verdicts(
        ext["minlon"], ext["minlat"], ext["maxlon"], ext["maxlat"]
    )
    got = {
        (int(r), index.paths[int(p)], v)
        for r, p, v in zip(rows, polys, verdicts)
    }
    expected = brute_force_assignments(ext, tree)
    assert got == expected
    assert len(expected) > 50  # fixture actually exercises the tree


def test_hotspot_skew_present():
    _, ext = _payload_extents(5000)
    from osm_replication_rust_ray.cells import encode_cells

    clon = (ext["minlon"] + ext["maxlon"]) // 2
    clat = (ext["minlat"] + ext["maxlat"]) // 2
    cells = encode_cells(clon, clat, 9)
    _, counts = np.unique(cells, return_counts=True)
    assert counts.max() > 0.15 * len(clon)  # the urban hotspot exists


def test_knn_matches_brute_force():
    rng = np.random.default_rng(11)
    fid = np.arange(400, dtype=np.int64)
    flon = rng.integers(-1_700_000_000, 1_700_000_000, 400)
    flat = rng.integers(-850_000_000, 850_000_000, 400)
    # duplicate position to exercise the id tie-break
    flon[101], flat[101] = flon[100], flat[100]
    qlon = rng.integers(-1_800_000_000, 1_800_000_000, 500)
    qlat = rng.integers(-900_000_000, 900_000_000, 500)
    idx = CellKNNIndex(fid, flon, flat, res=6)
    got_id, got_d2 = idx.query(qlon, qlat, k=1)
    exp_id, exp_d2 = brute_force_nn(fid, flon, flat, qlon, qlat)
    np.testing.assert_allclose(got_d2[:, 0], exp_d2, rtol=1e-12)
    assert (got_id[:, 0] == exp_id).all()


def test_flagship_tree_payload_matches_brute_force():
    """The flagship tree payload (points and boxes) through the shipped
    entries helper — pins the 12-polygon tree set and its "./" paths."""
    _, ext = _payload_extents(4000)
    tree = polygon_tree_entries()
    assert len(tree) == 12 and all(p.startswith("./") for p, _ in tree)
    got = _assignments(PolyTreeIndex(tree), ext)
    assert got == brute_force_assignments(ext, tree)
    is_pt = (ext["minlon"] == ext["maxlon"]) & (ext["minlat"] == ext["maxlat"])
    rows = {r for r, _, _ in got}
    assert rows & set(np.flatnonzero(is_pt)) and rows - set(np.flatnonzero(is_pt))


def test_disjoint_grid_assigns_each_point_at_most_once():
    from osm_replication_rust_ray.sources.synth import synth_polygon_grid

    grid = synth_polygon_grid()
    assert len(grid) == 1080
    idx = PolyTreeIndex(grid, buffer=0)
    # rects are pairwise DISJOINT: at most one assignment per point
    rng = np.random.RandomState(7)
    px = rng.randint(-1_800_000_000, 1_800_000_001, 20000).astype(np.int64)
    py = rng.randint(-900_000_000, 900_000_001, 20000).astype(np.int64)
    rows, polys, verd = idx.verdicts(px, py, px, py)
    assert len(np.unique(rows)) == len(rows)
    assert all(v == "keep" for v in verd)  # buffer=0: no delete zone


def test_join_actor_pip_rows_equal_index_verdicts():
    """``SpatialJoinActor(entries, 0, "event_id")`` on the event-point
    batch the PIP queries build emits exactly the (row, polygon) pairs
    of ``PolyTreeIndex(entries, buffer=0).verdicts``, keyed by event_id
    — on the nested PIP tree and on the 1080-rectangle grid."""
    from osm_replication_rust_ray.pipelines.queries import PIP_POLYS, _event_points
    from osm_replication_rust_ray.sources.synth import synth_polygon_grid

    ids = np.arange(1, 20001, dtype=np.int64) * 7919
    batch = _event_points(pa.table({"event_id": ids}))
    lon = batch["minlon"].to_numpy()
    lat = batch["minlat"].to_numpy()
    for entries in (PIP_POLYS, synth_polygon_grid()):
        out = SpatialJoinActor(entries, buffer=0, id_col="event_id")(batch)
        assert out.column_names == ["event_id", "poly_path", "verdict"]
        index = PolyTreeIndex(entries, buffer=0)
        rows, polys, verdicts = index.verdicts(lon, lat, lon, lat)
        assert out["event_id"].to_pylist() == ids[rows].tolist()
        assert out["poly_path"].to_pylist() == [index.paths[p] for p in polys]
        assert out["verdict"].to_pylist() == verdicts
        assert len(rows) > 1000 and set(verdicts) == {"keep"}


def test_join_actor_default_emits_image_assignments():
    """A one-argument ``SpatialJoinActor`` (the flagship tile join)
    emits image_id, poly_path and verdict at the default buffer, equal
    to the brute-force tree assignments."""
    t, ext = _payload_extents(3000)
    tree = polygon_tree_entries()
    batch = t.select(["image_id"])
    for k in ("minlon", "minlat", "maxlon", "maxlat"):
        batch = batch.append_column(k, pa.array(ext[k], pa.int64()))
    out = SpatialJoinActor(tree)(batch)
    assert out.column_names == ["image_id", "poly_path", "verdict"]
    image_id = t["image_id"].to_pylist()
    want = {(image_id[i], p, v) for i, p, v in brute_force_assignments(ext, tree)}
    got = set(zip(*(out[c].to_pylist() for c in out.column_names)))
    assert got == want and len(got) == out.num_rows
    assert {v for _, _, v in got} == {"keep", "delete"}


def test_rect_pip_is_closed_box_test():
    """Boundary-inclusive parity PIP on an axis-aligned rectangle ring
    == the closed box test, INCLUDING points exactly on edges and
    corners — the equivalence sql_strtree_pip's oracle relies on."""
    from osm_replication_rust_ray.geom import points_in_multipolygon
    from osm_replication_rust_ray.geom import MultiPolygon

    xlo, ylo, xhi, yhi = -100, -50, 200, 70
    xs = np.array([xlo, xhi, xhi, xlo], np.int64)
    ys = np.array([ylo, ylo, yhi, yhi], np.int64)
    rng = np.random.RandomState(0)
    px = rng.randint(-150, 250, 50000).astype(np.int64)
    py = rng.randint(-100, 120, 50000).astype(np.int64)
    edges = np.array(
        [[xlo, 0], [xhi, 0], [0, ylo], [0, yhi],
         [xlo, ylo], [xhi, yhi], [xlo, yhi], [xhi, ylo]], np.int64
    )
    px = np.concatenate([px, edges[:, 0]])
    py = np.concatenate([py, edges[:, 1]])
    want = (px >= xlo) & (px <= xhi) & (py >= ylo) & (py <= yhi)
    for ring in [(xs, ys), (xs[::-1].copy(), ys[::-1].copy())]:
        mp = MultiPolygon.from_rings([ring])
        assert (points_in_multipolygon(px, py, mp) == want).all()


def test_all_exact_points_with_buffer():
    """Regression: buffer>0 with EVERY candidate point exactly inside
    (empty buffered-refine remainder) must not crash the segment walk."""
    tree = [(p[: -len(".poly")], mp) for p, mp in synth_polygon_tree()]
    idx = PolyTreeIndex(tree)
    # points at polygon bbox centers: strictly inside their polygon
    px, py = [], []
    for _p, mp in tree[:4]:
        x0, y0, x1, y1 = mp.bbox()
        px.append((x0 + x1) // 2)
        py.append((y0 + y1) // 2)
    px = np.array(px, np.int64)
    py = np.array(py, np.int64)
    rows, polys, verd = idx.verdicts(px, py, px, py)
    assert len(rows) >= 4 and all(v in ("keep", "delete") for v in verd)


def _assignments(index, ext):
    rows, polys, verdicts = index.verdicts(
        ext["minlon"], ext["minlat"], ext["maxlon"], ext["maxlat"]
    )
    return {(int(r), index.paths[int(p)], v) for r, p, v in zip(rows, polys, verdicts)}


def test_grid_boxes_match_brute_force():
    """Payload BOX extents against the 1080-rectangle grid (STRtree
    candidates, pair-segmented box refine) at the default buffer."""
    from osm_replication_rust_ray.sources.synth import synth_polygon_grid

    grid = synth_polygon_grid()
    _, ext = _payload_extents(1000)
    # box rows only: points take the point kernels, and the brute force
    # over 1080 polygons would spend its time on their degenerate sides
    box = (ext["minlon"] != ext["maxlon"]) | (ext["minlat"] != ext["maxlat"])
    ext = {k: np.asarray(ext[k])[box] for k in ("minlon", "minlat", "maxlon", "maxlat")}
    got = _assignments(PolyTreeIndex(grid), ext)
    assert got == brute_force_assignments(ext, grid)
    assert {v for _, _, v in got} == {"keep", "delete"}


# square [0, 1e7]^2 and a diamond with diagonal edges centred (3e7, 5e6)
_E = 10_000_000
_HAND_TREE = [
    ("./sq", MultiPolygon.from_rings([([0, _E, _E, 0], [0, 0, _E, _E])])),
    ("./dia", MultiPolygon.from_rings(
        [([25_000_000, 30_000_000, 35_000_000, 30_000_000], [5_000_000, 0, 5_000_000, _E])]
    )),
]
# (minlon, minlat, maxlon, maxlat) -> expected verdict per path
_HAND_CASES = [
    # degenerate line boxes crossing an edge: no vertex inside, min corner outside
    ((-2_000_000, 5_000_000, 2_000_000, 5_000_000), {"./sq": "keep"}),
    ((5_000_000, -2_000_000, 5_000_000, 2_000_000), {"./sq": "keep"}),
    ((33_000_000, 1_000_000, 40_000_000, 1_000_000), {}),  # 1.41e6 from the diagonal
    ((31_500_000, 1_000_000, 40_000_000, 1_000_000), {"./dia": "delete"}),
    ((30_500_000, 1_000_000, 40_000_000, 1_000_000), {"./dia": "keep"}),
    ((-3_000_000, 10_500_000, 5_000_000, 10_500_000), {"./sq": "delete"}),
    ((35_000_000, 5_000_000, 35_000_000, 8_000_000), {"./dia": "keep"}),  # on a vertex
    # boxes touching an edge or a vertex exactly
    ((_E, 2_000_000, 12_000_000, 3_000_000), {"./sq": "keep"}),
    ((_E, _E, 12_000_000, 12_000_000), {"./sq": "keep"}),
    ((-2_000_000, -2_000_000, 0, 0), {"./sq": "keep"}),
    # a box enclosing the whole polygon, and one strictly inside it
    ((-1_000_000, -1_000_000, 11_000_000, 11_000_000), {"./sq": "keep"}),
    ((1_000_000, 1_000_000, 2_000_000, 2_000_000), {"./sq": "keep"}),
    # round join at the corner (1e7, 1e7): 989,949 in, 1,004,092 out
    ((10_700_000, 10_700_000, 10_700_000, 10_700_000), {"./sq": "delete"}),
    ((10_710_000, 10_710_000, 10_710_000, 10_710_000), {}),
    ((10_700_000, 10_700_000, 10_900_000, 10_900_000), {"./sq": "delete"}),
    ((10_710_000, 10_710_000, 10_900_000, 10_900_000), {}),
]


def _hand_ext():
    arr = np.array([box for box, _ in _HAND_CASES], np.int64)
    return {k: arr[:, j] for j, k in enumerate(("minlon", "minlat", "maxlon", "maxlat"))}


def test_hand_built_boxes_and_buffer_edges():
    ext = _hand_ext()
    want = {
        (i, path, verdict)
        for i, (_, exp) in enumerate(_HAND_CASES)
        for path, verdict in exp.items()
    }
    assert _assignments(PolyTreeIndex(_HAND_TREE), ext) == want
    assert brute_force_assignments(ext, _HAND_TREE) == want
    # one-character top-level directories chain like any other
    assert parent_path("a/b") == "a" and parent_path("./a/b") == "./a"
    assert parent_path("./a") is None and parent_path("a") is None
    assert polygon_chains(["a", "a/b", "./a/b/c"]) == [[0], [1, 0], [2]]


def test_multiring_boxes_match_brute_force_across_chunks():
    """Boxes (a third of them degenerate lines) around the 9-ring
    multipolygon of synth_polygon_tree; a tiny ``chunk_edges`` splits
    the expanded edge arrays into many chunks, some ending inside one
    polygon's edge run, and must not change a verdict."""
    (path, mp), = [(p, mp) for p, mp in synth_polygon_tree() if mp.n_rings == 9]
    tree = [("./" + path[: -len(".poly")], mp)]
    x0, y0, x1, y1 = mp.bbox()
    rng = np.random.default_rng(3)
    n = 600
    lon = rng.integers(x0 - 2 * BUFFER_DECIMICRO, x1 + 2 * BUFFER_DECIMICRO, n)
    lat = rng.integers(y0 - 2 * BUFFER_DECIMICRO, y1 + 2 * BUFFER_DECIMICRO, n)
    w = rng.integers(0, 30_000_000, n)
    h = rng.integers(0, 30_000_000, n)
    w[: n // 6] = 0
    h[n // 6 : n // 3] = 0
    ext = {"minlon": lon, "minlat": lat, "maxlon": lon + w, "maxlat": lat + h}
    want = brute_force_assignments(ext, tree)
    assert {v for _, _, v in want} == {"keep", "delete"}
    index = PolyTreeIndex(tree)
    assert _assignments(index, ext) == want
    index.chunk_edges = 7  # < one ring's edge count
    assert _assignments(index, ext) == want
    # and on the hand-built set, where every pair has 4 edges
    hand = PolyTreeIndex(_HAND_TREE)
    full = _assignments(hand, _hand_ext())
    hand.chunk_edges = 3
    assert _assignments(hand, _hand_ext()) == full


def _test_polys():
    """The 9-ring region_b, the hand-built square and diamond, and a
    long-edged triangle whose vertex fans are isolated."""
    (rb,) = [mp for p, mp in synth_polygon_tree() if p == "region_b.poly"]
    assert rb.n_rings == 9
    tri = MultiPolygon.from_rings([([0, 40_000_000, 20_000_000], [0, 0, 30_000_000])])
    return [("./region_b", rb), *_HAND_TREE, ("./tri", tri)]


def test_point_hits_match_geom_chordal_buffer():
    """``PolyTreeIndex.point_hits`` (the pair-segmented band + fan test)
    against geom's per-polygon PIP and chordal buffer, on points in
    every edge band, around every vertex at radii across the chord/arc
    gap band (some in it: inside the Euclidean buffer, outside the
    chordal one), and scattered around each polygon; once more with
    chunk sizes that split rows, pairs, edge runs and fan runs."""
    from osm_replication_rust_ray.geom import (
        points_in_buffered,
        points_in_buffered_chordal,
        points_in_multipolygon,
    )

    R = BUFFER_DECIMICRO
    tree = _test_polys()
    rng = np.random.default_rng(5)
    px, py = [], []
    for _p, mp in tree:
        # edge bands: perpendicular offsets from points along each edge
        t = rng.random(len(mp.ex1))
        ex, ey = mp.ex2 - mp.ex1, mp.ey2 - mp.ey1
        norm = np.hypot(ex, ey)
        off = rng.uniform(-1.2 * R, 1.2 * R, len(t))
        px.append(mp.ex1 + t * ex - off * ey / norm)
        py.append(mp.ey1 + t * ey + off * ex / norm)
        # vertex fans, across the gap band (chord depth R*cos(pi/32))
        ang = rng.uniform(0, 2 * np.pi, (12, len(mp.xs)))
        rad = rng.uniform(0.99 * R, 1.002 * R, ang.shape)
        px.append((mp.xs + rad * np.cos(ang)).ravel())
        py.append((mp.ys + rad * np.sin(ang)).ravel())
        x0, y0, x1, y1 = mp.bbox()
        px.append(rng.uniform(x0 - 2 * R, x1 + 2 * R, 300))
        py.append(rng.uniform(y0 - 2 * R, y1 + 2 * R, 300))
    px = np.round(np.concatenate(px)).astype(np.int64)
    py = np.round(np.concatenate(py)).astype(np.int64)
    want, gap = set(), 0
    for k, (_p, mp) in enumerate(tree):
        ex = points_in_multipolygon(px, py, mp)
        bf = points_in_buffered_chordal(px, py, mp)
        gap += int((points_in_buffered(px, py, mp) & ~bf).sum())
        want |= {(int(i), k, bool(ex[i])) for i in np.flatnonzero(bf)}
    assert gap > 20 and sum(1 for *_k, e in want if not e) > 200
    index = PolyTreeIndex(tree)
    for chunks in ({}, {"chunk_rows": 97, "chunk_pairs": 31, "chunk_edges": 5}):
        for name, value in chunks.items():
            setattr(index, name, value)
        got = {(int(i), int(k), bool(e)) for i, k, e in zip(*index.point_hits(px, py))}
        assert got == want, chunks


def test_box_refine_with_containment_shortcut_matches_geom():
    """``_boxes_in_polys_pairs`` (which accepts a box containing the
    polygon's bbox at once) and ``box_pair_hits`` (on every pair, most
    of them outside the candidate bbox test) against geom's
    per-polygon box tests, on boxes that contain the polygon, that
    straddle its bbox, and degenerate ones (points and lines)."""
    tree = _test_polys()
    rng = np.random.default_rng(9)
    boxes = []
    for _p, mp in tree:
        x0, y0, x1, y1 = mp.bbox()
        w, h = x1 - x0, y1 - y0
        m = rng.integers(0, 2 * BUFFER_DECIMICRO, (40, 4))
        boxes.append(np.c_[x0 - m[:, 0], y0 - m[:, 1], x1 + m[:, 2], y1 + m[:, 3]])
        m[:3] = 0  # exactly the bbox, and on it
        boxes.append(np.c_[x0 - m[:, 0], y0 - m[:, 1], x1 + m[:, 2], y1 + m[:, 3]])
        cx = rng.integers(x0 - w // 2, x1 + w // 2, 120)
        cy = rng.integers(y0 - h // 2, y1 + h // 2, 120)
        bw, bh = rng.integers(0, w, 120), rng.integers(0, h, 120)
        boxes.append(np.c_[cx, cy, cx + bw, cy + bh])  # straddling
        boxes.append(np.c_[cx, cy, cx, cy])  # points
        boxes.append(np.c_[cx, cy, cx + bw, cy])  # horizontal lines
        boxes.append(np.c_[cx, cy, cx, cy + 2 * bh])  # vertical lines
    b = np.concatenate(boxes).astype(np.int64)
    index = PolyTreeIndex(tree)
    n = len(b)
    row = np.repeat(np.arange(n), len(tree))
    poly = np.tile(np.arange(len(tree)), n)
    got = index._boxes_in_polys_pairs(*b[row].T, poly)
    want = np.zeros(len(row), bool)
    buffered = set()
    contains = np.zeros(len(row), bool)
    for k, (_p, mp) in enumerate(tree):
        sel = poly == k
        want[sel] = boxes_intersect_multipolygon(*b.T, mp)
        x0, y0, x1, y1 = mp.bbox()
        contains[sel] = (b[:, 0] <= x0) & (b[:, 1] <= y0) & (b[:, 2] >= x1) & (b[:, 3] >= y1)
        buffered |= {(int(i), k) for i in np.flatnonzero(boxes_intersect_buffered(*b.T, mp))}
    assert contains.sum() >= 80 * len(tree) and (want & ~contains).sum() > 200
    assert (~want).sum() > 200
    assert np.array_equal(got, want)
    hit = index.box_pair_hits(*b[row].T, poly)
    assert {(int(i), int(k)) for i, k in zip(row[hit], poly[hit])} == buffered
    index.chunk_pairs = 97  # many refine slices
    assert np.array_equal(index.box_pair_hits(*b[row].T, poly), hit)
