"""Integer-exactness at the magnitudes where a float64 round trip or a
fixed sentinel score stops being exact."""

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from osm_replication_rust_ray.pipelines.queries import (
    _fill0,
    q_knn_classify,
    q_knn_graph,
    sql_knn_graph,
)


def test_fill0_keeps_int64_beyond_2_pow_53():
    col = pa.chunked_array([[2**53 + 1, None], [None, -(2**62) - 3]], pa.int64())
    assert _fill0(col).tolist() == [2**53 + 1, 0, 0, -(2**62) - 3]
    assert _fill0(pa.chunked_array([[None, None]], pa.null())).tolist() == [0, 0]


def _write_anti_aligned(sf_dir, dim=130):
    """Vector 0 quantizes to -128 everywhere, the others to 127: its
    real scores (-128*127*130 < -2^21) sit below any fixed sentinel a
    self match could be given at small dims."""
    n = 8
    emb = np.full((n, dim), 1.99, np.float32)
    emb[0] = -2.0
    labels = [5, 5, 5, 4, 4, 4, 0, 1]
    pq.write_table(
        pa.table({
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array(list(emb), pa.list_(pa.float32())),
            "label": pa.array(labels, pa.int32()),
        }),
        f"{sf_dir}/embeddings.parquet",
    )


def test_knn_graph_never_lists_self_at_dim_130(ray_session, tmp_path):
    _write_anti_aligned(tmp_path)
    got = q_knn_graph(str(tmp_path)).to_pandas()
    assert not (got["vec_id"] == got["nbr_id"]).any()
    assert got[got["vec_id"] == 0]["nbr_id"].tolist() == [1, 2, 3, 4, 5]
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM '{tmp_path}/embeddings.parquet'"
    )
    want = con.execute(sql_knn_graph()).df()
    cols = ["vec_id", "rank", "nbr_id", "score"]
    a = got[cols].sort_values(cols).reset_index(drop=True)
    b = want[cols].astype("int64").sort_values(cols).reset_index(drop=True)
    assert a.equals(b)


def test_knn_classify_votes_without_self_at_dim_130(ray_session, tmp_path):
    _write_anti_aligned(tmp_path)
    got = q_knn_classify(str(tmp_path)).to_pandas().set_index("vec_id")
    # vector 0's five others are ids 1..5 (labels 5,5,4,4,4): 4 wins;
    # with its own label 5 among them, 5 would
    assert got.loc[0, "pred_label"] == 4
    assert got.loc[0, "votes"] == 3
