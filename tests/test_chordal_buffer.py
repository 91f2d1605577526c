"""GEOS-parity chordal buffer (round-1 verdict item #7).

The reference buffers polygons with GEOS ``buffer(0.1, 8)``
(src/osmxml/filter.rs:44-56): arcs become chords stepped at pi/16, so
a point in the chord/arc gap is OUTSIDE the reference's buffer but
inside the engine's exact Euclidean one.  These tests pin:

- chordal ⊆ euclidean everywhere (chords are inscribed)
- planted gap-band points distinguish the modes exactly as the GEOS
  construction predicts (outside chord depth r*cos(step/2), inside r)
- convergence to the Euclidean region as quad_segs grows
- filter-stage verdicts: the reference's own fixture has no node in
  the band (both buffers agree there), and a planted gap-band node
  that Euclidean dilation keeps (delete) drops under the filter's
  chordal buffer, reproducing the Rust binary's verdict.
"""

import math

import numpy as np
import pyarrow as pa

from osm_replication_rust_ray.geom import (
    BUFFER_DECIMICRO,
    MultiPolygon,
    points_in_buffered,
    points_in_buffered_chordal,
)
from osm_replication_rust_ray.sources.polyfile import read_multipolygon

RES = "/root/reference/tests/resources"
R = BUFFER_DECIMICRO


def _tri():
    # convex triangle, edges long vs buffer so vertex fans are isolated
    xs = np.array([0, 40_000_000, 20_000_000], np.int64)
    ys = np.array([0, 0, 30_000_000], np.int64)
    return MultiPolygon.from_rings([(xs, ys)])


def _gap_points(quad_segs=8):
    """Points along the fillet arc at vertex (0,0) of _tri(): for each
    chord midpoint direction, one point in the gap band (depth between
    chord and arc) and one safely inside the chord."""
    mp = _tri()
    # normals at vertex (0,0): incoming edge (20e6,30e6)->(0,0),
    # outgoing (0,0)->(40e6,0); ring is CCW (area > 0)
    e1 = np.array([-20_000_000.0, -30_000_000.0])
    e2 = np.array([40_000_000.0, 0.0])
    n1 = np.array([e1[1], -e1[0]]) / np.hypot(*e1)
    n2 = np.array([e2[1], -e2[0]]) / np.hypot(*e2)
    a1 = math.atan2(n1[1], n1[0])
    a2 = math.atan2(n2[1], n2[0])
    total = (a2 - a1) % (2 * math.pi)
    quantum = (math.pi / 2) / quad_segs
    nsegs = max(1, int(total / quantum + 0.5))
    inc = total / nsegs
    chord_depth = math.cos(inc / 2)
    gap, inside = [], []
    for k in range(nsegs):
        am = a1 + (k + 0.5) * inc
        u = np.array([math.cos(am), math.sin(am)])
        d_gap = R * (chord_depth + 1.0) / 2.0  # mid-band
        d_in = R * chord_depth * 0.98          # safely inside the chord
        gap.append(np.round(d_gap * u).astype(np.int64))
        inside.append(np.round(d_in * u).astype(np.int64))
    return mp, np.array(gap), np.array(inside), chord_depth


def test_gap_band_distinguishes_modes():
    mp, gap, inside, _depth = _gap_points()
    gx, gy = gap[:, 0], gap[:, 1]
    ix, iy = inside[:, 0], inside[:, 1]
    # gap points: inside the exact Euclidean buffer...
    assert points_in_buffered(gx, gy, mp).all()
    # ...but OUTSIDE the chordal (GEOS-parity) buffer
    assert not points_in_buffered_chordal(gx, gy, mp).any()
    # inside-the-chord points: both modes agree (in)
    assert points_in_buffered(ix, iy, mp).all()
    assert points_in_buffered_chordal(ix, iy, mp).all()


def test_chordal_subset_and_convergence():
    _, mp = read_multipolygon(f"{RES}/saint_barthelemy.poly")
    rng = np.random.RandomState(1)
    minx, miny, maxx, maxy = mp.bbox()
    px = rng.randint(minx - 3 * R, maxx + 3 * R, 30000)
    py = rng.randint(miny - 3 * R, maxy + 3 * R, 30000)
    eu = points_in_buffered(px, py, mp)
    ch8 = points_in_buffered_chordal(px, py, mp, quad_segs=8)
    ch64 = points_in_buffered_chordal(px, py, mp, quad_segs=64)
    assert not (ch8 & ~eu).any()  # chordal ⊆ euclidean
    assert not (ch64 & ~eu).any()
    assert ch8.sum() <= ch64.sum() <= eu.sum()  # monotone convergence
    # the planted mid-band point shrinks into the region at 64 segs
    mp_t, gap, _ins, _ = _gap_points()
    gx, gy = gap[:, 0], gap[:, 1]
    assert points_in_buffered_chordal(gx, gy, mp_t, quad_segs=64).all()


def _element_table(nodes):
    from osm_replication_rust_ray.sources.osmxml import ELEMENTS_SCHEMA

    rows = []
    for i, (nid, lon, lat) in enumerate(nodes):
        rows.append(
            {
                "pos": i, "etype": "node", "id": nid, "action": "modify",
                "lat": int(lat), "lon": int(lon), "refs": None,
                "members": None, "tags": None, "version": None,
                "timestamp": None, "uid": None, "user": None,
                "changeset": None, "minlat": None, "maxlat": None,
                "minlon": None, "maxlon": None,
            }
        )
    return pa.Table.from_pylist(rows, schema=ELEMENTS_SCHEMA)


def test_filter_verdicts_agree_on_reference_fixture():
    """The reference fixture's own nodes sit outside the gap band: the
    Euclidean and chordal buffers agree on every one of them, so the
    filter's chordal verdicts equal the Euclidean ones there — the
    engine matches the Rust binary's verdicts."""
    import pyarrow.compute as pc

    from osm_replication_rust_ray.sources.osmxml import parse_osm_xml
    from osm_replication_rust_ray.sources.store import Resolver
    from osm_replication_rust_ray.stages.bbox import closure_node_ids
    from osm_replication_rust_ray.stages.filter import filter_elements

    elements = parse_osm_xml(f"{RES}/saint_barthelemy.bbox.osc.gz")
    _, mp = read_multipolygon(f"{RES}/saint_barthelemy.poly")
    placed = elements.filter(pc.and_(pc.equal(elements["etype"], "node"),
                                     pc.is_valid(elements["lat"])))
    lon = placed["lon"].to_numpy(zero_copy_only=False).astype(np.int64)
    lat = placed["lat"].to_numpy(zero_copy_only=False).astype(np.int64)
    assert len(lon) > 0
    assert (points_in_buffered(lon, lat, mp)
            == points_in_buffered_chordal(lon, lat, mp)).all()
    nid = closure_node_ids(elements, Resolver.empty())
    out = filter_elements(elements, mp, Resolver.empty(), nid)
    assert out.num_rows > 0


def test_filter_gap_node_flips_delete_to_drop():
    """A node planted in the chord/arc gap: Euclidean dilation keeps it
    in the buffer (a Euclidean filter would say delete — inside the
    buffer, outside the polygon); the reference (GEOS chords) drops
    it, and so does the filter's chordal buffer."""
    from osm_replication_rust_ray.sources.store import Resolver
    from osm_replication_rust_ray.stages.filter import filter_elements

    mp, gap, inside, _ = _gap_points()
    g = gap[0]
    i = inside[0]
    assert points_in_buffered([g[0]], [g[1]], mp)[0]
    assert not points_in_buffered_chordal([g[0]], [g[1]], mp)[0]
    elements = _element_table(
        [(1, int(g[0]), int(g[1])), (2, int(i[0]), int(i[1]))]
    )
    nid = np.array([1, 2], np.int64)
    out = filter_elements(elements, mp, Resolver.empty(), nid)
    ch = dict(zip(out["id"].to_pylist(), out["action"].to_pylist()))
    assert 1 not in ch  # chordal (reference) drops it entirely
    assert ch[2] == "delete"  # inside the chord: buffered, not in poly
