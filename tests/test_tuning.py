"""Size-derived parallelism policy (tuning.py) and LSH scale controls
(similarity.lsh_bits_for / centered_sub_bits) — round-1 verdict items #2/#4."""

import numpy as np

from osm_replication_rust_ray.functions.similarity import (
    centered_sub_bits,
    hyperplanes,
    lsh_bits_for,
    lsh_bucket_ids,
)
from osm_replication_rust_ray.tuning import (
    est_tasks,
    join_partitions,
    parquet_null_counts,
    pool_concurrency,
    table_bytes,
    table_rows,
)

SF = "/root/testdata/sf0.001"


def test_join_partitions_tracks_data_not_cores():
    import osm_replication_rust_ray.tuning as t

    cap = 4 * t.cluster_cpus()
    assert join_partitions() == 2  # no info -> minimum
    assert join_partitions(n_bytes=10 << 20) == 2  # tiny input stays small
    assert join_partitions(n_bytes=10 << 30) == min(40, cap)  # 10GiB/256MiB
    assert join_partitions(n_rows=100_000_000) == min(25, cap)
    # clamped by cluster width (4x cpus)
    assert join_partitions(n_bytes=1 << 50) == cap


def test_pool_concurrency_headroom_and_cap():
    lo, hi = pool_concurrency()
    assert lo == 1
    import osm_replication_rust_ray.tuning as t

    cpus = t.cluster_cpus()
    assert hi == max(2, cpus - max(1, cpus // 8))  # producer headroom
    # tiny inputs cap the pool
    assert pool_concurrency(max_tasks=1) == (1, 1)
    assert pool_concurrency(max_tasks=3)[1] <= 3
    # known-large workloads start the pool at HALF width (spawn of the
    # rest overlaps the first wave — round-3 verdict item #4); small/
    # unknown keep the cheap min=1 warmup
    lo_big, hi_big = pool_concurrency(max_tasks=100_000)
    assert hi_big == hi and lo_big == max(1, hi // 2)
    lo_small, _ = pool_concurrency(max_tasks=hi + 1)
    assert lo_small == 1


def test_est_tasks():
    assert est_tasks() == 1
    assert est_tasks(n_rows=100_000, batch_rows=8192) == 13
    assert est_tasks(n_bytes=100 << 20, batch_bytes=32 << 20) == 4


def test_table_bytes_and_rows():
    from osm_replication_rust_ray.tuning import UNKNOWN_ROWS

    assert table_bytes(SF, "events") > 0
    assert table_rows(SF, "events") == 1000
    # unknown sizes fail toward the scale-safe plan (huge, not 0)
    assert table_rows(SF, "nope") == UNKNOWN_ROWS
    assert table_bytes(SF, "nope") == 0


def test_parquet_null_counts_skips_nested_columns(tmp_path):
    """A nested column's leaf null count also counts nulls inside the
    lists ([[1, None], [None, None], None, [3]] has 4 leaf nulls, 1
    null row), so the footer answer must be None (in-scan fallback)
    while flat columns stay exact from the footer."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    pq.write_table(pa.table({
        "a": pa.array([[1, None], [None, None], None, [3]],
                      pa.list_(pa.int64())),
        "b": pa.array([1, None, None, 4], pa.int64()),
    }), tmp_path / "t.parquet")
    sf = str(tmp_path)
    assert parquet_null_counts(sf, "t", ["a"]) is None
    assert parquet_null_counts(sf, "t", ["a", "b"]) is None
    assert parquet_null_counts(sf, "t", ["b"]) == {"b": 2}


def test_lsh_bits_scale_with_corpus():
    assert lsh_bits_for(500) == 6
    assert lsh_bits_for(10**6) == 12  # 1M / 256
    assert lsh_bits_for(10**12) == 30  # clamped at hi
    assert lsh_bits_for(0) == 6


def test_centered_sub_bits_split_hot_cluster():
    """A tight cluster floods one bucket; CENTERED extra sign bits must
    cut the max sub-bucket occupancy by ~2^r (the production band
    sub-tables in lsh_census_bucketize are built from these bits; the
    e2e occupancy bound is pinned in test_similarity_skew.py)."""
    rng = np.random.RandomState(0)
    dim, n = 16, 20000
    center = rng.standard_normal(dim)
    mat = center + 0.05 * rng.standard_normal((n, dim))  # one hot cluster
    planes = hyperplanes(dim, n_bits=6)
    b = lsh_bucket_ids(mat, planes)
    uniq, counts = np.unique(b, return_counts=True)
    base_max = counts.max()
    assert base_max > n * 0.9  # genuinely hot

    hot = uniq[np.argsort(counts)][-1:]
    r = 4
    rows = np.arange(n, dtype=np.int64)
    mu = mat[b == hot[0]].mean(axis=0)
    sub = centered_sub_bits(
        mat, b, rows, {int(hot[0]): mu}, hyperplanes(dim, r, seed=43)
    )
    m = b == hot[0]
    _, sub_counts = np.unique(sub[m], return_counts=True)
    assert sub_counts.max() <= base_max / 4
    # UNcentered planes fail on the same data: the shared center
    # dominates every sign, collapsing the split (the bug the
    # centering exists to fix)
    flat = lsh_bucket_ids(mat[m], hyperplanes(dim, r, seed=43))
    _, flat_counts = np.unique(flat, return_counts=True)
    assert flat_counts.max() > base_max * 0.9
