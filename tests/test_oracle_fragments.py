"""Each synthetic-data builder of the oracle SQL (pipelines/queries.py)
reproduces the engine's generator exactly, checked in DuckDB with no
Ray: payload pixels, video bytes, derived-graph edge pairs and the
sf0.01 row gate."""

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from osm_replication_rust_ray.pipelines import queries as Q
from osm_replication_rust_ray.sources.synth import (
    VIDEO_H,
    VIDEO_W,
    make_video_bytes,
    payload_batch,
    video_frames_for,
)


def _rows(con, sql: str) -> list[tuple]:
    return con.execute(sql).fetchall()


def test_payload_pixels_equal_the_generated_bytes():
    # images 0..8 cover all three (w, h) shapes of the size ladder
    con = duckdb.connect()
    rows = _rows(con, f"""
        SELECT i, w, h, bidx, y, x, c, v
        FROM ({Q._payload_pix_sql('9')}) ORDER BY i, bidx""")
    want = payload_batch(np.arange(9)).to_pylist()
    assert {(r["w"], r["h"]) for r in want} == {(16, 32), (32, 64), (64, 16)}
    for img in want:
        i = int(img["image_id"][3:])
        got = [r for r in rows if r[0] == i]
        assert {(r[1], r[2]) for r in got} == {(img["w"], img["h"])}
        assert [r[3] for r in got] == list(range(img["w"] * img["h"] * 3))
        assert bytes(r[7] for r in got) == img["bytes"]
        assert all(r[3] == (r[4] * img["w"] + r[5]) * 3 + r[6] for r in got)


def test_payload_image_rows_match_the_payload_table():
    con = duckdb.connect()
    got = _rows(con, f"SELECT i, w, h FROM ({Q._payload_img_sql('30')}) ORDER BY i")
    t = payload_batch(np.arange(30), with_bytes=False)
    assert got == list(zip(range(30), t["w"].to_pylist(), t["h"].to_pylist()))


def test_video_bytes_equal_the_generated_stream():
    con = duckdb.connect()
    grid = f"""
        SELECT i, nf, base, bidx
        FROM ({Q._video_sql('6')}),
             (SELECT unnest(generate_series(0, 24 * {VIDEO_W * VIDEO_H * 3} - 1))
              AS bidx)
        WHERE bidx < nf * {VIDEO_W * VIDEO_H * 3}"""
    rows = _rows(con, f"SELECT i, nf, bidx, v FROM ({Q._stream_byte_sql(grid)}) "
                      "ORDER BY i, bidx")
    for i, nf in enumerate(video_frames_for(np.arange(6)).tolist()):
        got = [r for r in rows if r[0] == i]
        assert {r[1] for r in got} == {nf}
        assert bytes(r[3] for r in got) == make_video_bytes(i, VIDEO_W, VIDEO_H, nf)


def test_edge_pairs_equal_the_engine_generator():
    n = 50
    con = duckdb.connect()
    con.execute(f"CREATE VIEW customer AS SELECT range AS id FROM range({n})")
    got = sorted(_rows(con, Q._edge_pairs_sql()))
    a, b = Q._edge_pairs(np.arange(Q.TRI_EDGE_FACTOR * n, dtype=np.int64), n)
    assert got == sorted(zip(a.tolist(), b.tolist()))
    # the generator drops self-loops and nothing else
    assert len(got) < Q.TRI_EDGE_FACTOR * n
    assert all(x != y for x, y in got)


@pytest.mark.parametrize("events, gated", [(10000, True), (9999, False)])
def test_gate_helpers_take_the_gate_branch_only_at_10000_events(
        tmp_path, events, gated):
    want = 7 if gated else 3
    pq.write_table(pa.table({"event_id": pa.array(np.arange(events))}),
                   tmp_path / "events.parquet")
    assert Q._gate_rows(str(tmp_path), 3, 7) == want
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{tmp_path}/events.parquet'")
    assert _rows(con, f"SELECT {Q._gate_rows_sql(3, 7)}") == [(want,)]
