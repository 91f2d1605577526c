"""Unit tests for the training-data operator kernels (text, dedup,
similarity, derive) and the sorted-segment aggregate."""

import numpy as np
import pyarrow as pa
import pytest

from osm_replication_rust_ray.functions import derive
from osm_replication_rust_ray.functions.dedup import (
    band_keys,
    hamming64,
    minhash_signature,
    normalize_rows,
    shingle_hashes,
    simhash64,
)
from osm_replication_rust_ray.functions.similarity import (
    hyperplanes,
    lsh_bucket_ids,
)
from osm_replication_rust_ray.functions.text import (
    jaccard,
    prefix_fingerprint,
    token_counts,
    word_shingles,
)


def test_derive_matches_duckdb():
    import duckdb

    ids = np.array([1, 5, 999, 123456], np.int64)
    con = duckdb.connect()
    got_lon = derive.world_lon(ids)
    got_lat = derive.world_lat(ids)
    for i, v in enumerate(ids.tolist()):
        lon, lat = con.execute(
            f"SELECT {derive.world_lon_sql(str(v))}, {derive.world_lat_sql(str(v))}"
        ).fetchone()
        assert got_lon[i] == lon and got_lat[i] == lat


def test_token_counts_single_space_semantics():
    arr = pa.array(["a b c", "x", "a  b", "trail "])
    # count(' ')+1: "a  b" has 2 spaces -> 3 "tokens" (split semantics)
    assert token_counts(arr).to_pylist() == [3, 1, 3, 2]


def test_prefix_fingerprint_matches_sql():
    import duckdb

    from osm_replication_rust_ray.functions.text import prefix_fingerprint_sql

    texts = ["hello world this is a test", "short", "", "exactly16charsAB!more"]
    got = prefix_fingerprint(pa.array(texts))
    con = duckdb.connect()
    for t, g in zip(texts, got.tolist()):
        (want,) = con.execute(
            f"SELECT {prefix_fingerprint_sql('?')}".replace("?", f"'{t}'")
        ).fetchone()
        assert g == want, t


def test_minhash_similar_docs_share_bands():
    a = "the quick brown fox jumps over the lazy dog again and again ok"
    b = "the quick brown fox jumps over the lazy dog again and again no"
    c = "completely different words entirely unrelated to anything else"
    ha, hb, hc = shingle_hashes([a, b, c])
    sa, sb, sc = (minhash_signature(h) for h in (ha, hb, hc))
    shared_ab = (band_keys(sa) == band_keys(sb)).sum()
    shared_ac = (band_keys(sa) == band_keys(sc)).sum()
    assert shared_ab > 0  # near-dups collide in some band
    assert shared_ac == 0
    # minhash estimate correlates with true jaccard
    est_ab = (sa == sb).mean()
    true_ab = jaccard(word_shingles(a), word_shingles(b))
    assert abs(est_ab - true_ab) < 0.25


def test_simhash_hamming_orders_by_similarity():
    a = "the quick brown fox jumps over the lazy dog again and again ok"
    b = "the quick brown fox jumps over the lazy dog again and again no"
    c = "completely different words entirely unrelated to anything else"
    sigs = simhash64(shingle_hashes([a, b, c]))
    d_ab = hamming64(sigs[0:1], sigs[1:2])[0]
    d_ac = hamming64(sigs[0:1], sigs[2:3])[0]
    assert d_ab < d_ac
    assert hamming64(sigs[0:1], sigs[0:1])[0] == 0


def test_lsh_bucket_near_vectors_collide():
    rng = np.random.RandomState(0)
    base = rng.standard_normal(64)
    near = base + rng.standard_normal(64) * 0.01
    far = rng.standard_normal(64)
    planes = hyperplanes(64, n_bits=8)
    m = normalize_rows(np.stack([base, near, far]))
    b = lsh_bucket_ids(m, planes)
    assert b[0] == b[1]
    assert b.dtype == np.int64


def test_sorted_segment_aggregate_exact(ray_session):
    import ray.data

    from osm_replication_rust_ray.functions.agg import sorted_segment_aggregate

    rng = np.random.RandomState(7)
    n = 20000
    keys = rng.randint(0, 3000, n).astype(np.int64)
    vals = rng.randint(-(10**9), 10**9, n).astype(np.int64)
    ds = ray.data.from_arrow(
        pa.table({"k": pa.array(keys), "v": pa.array(vals)})
    ).repartition(13)
    out = sorted_segment_aggregate(
        ds, "k", {"mn": ("v", "min"), "mx": ("v", "max"), "n": ("v", "count")}
    ).to_pandas()
    assert len(out) == len(np.unique(keys))
    import pandas as pd

    df = pd.DataFrame({"k": keys, "v": vals})
    want = df.groupby("k")["v"].agg(["min", "max", "count"]).reset_index()
    got = out.sort_values("k").reset_index(drop=True)
    assert (got["k"].to_numpy() == want["k"].to_numpy()).all()
    assert (got["mn"].to_numpy() == want["min"].to_numpy()).all()
    assert (got["mx"].to_numpy() == want["max"].to_numpy()).all()
    assert (got["n"].to_numpy() == want["count"].to_numpy()).all()


def test_sorted_distinct_matches_pandas(ray_session):
    """Vectorized DISTINCT (functions/agg.py:sorted_distinct): exact
    equality with pandas drop_duplicates, including a duplicate run
    spanning many blocks (the cross-block boundary case)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from osm_replication_rust_ray.functions.agg import sorted_distinct

    rng = np.random.RandomState(3)
    a = rng.randint(0, 40, 6000)
    b = rng.randint(0, 5, 6000)
    a[:4000] = 11
    b[:4000] = 3  # one giant duplicate run straddles most blocks
    t = pa.table({"x": pa.array(a, pa.int64()), "y": pa.array(b, pa.int64())})
    got = (
        sorted_distinct(ray.data.from_arrow(t).repartition(16), ["x", "y"])
        .to_pandas()
        .sort_values(["x", "y"])
        .reset_index(drop=True)
    )
    want = (
        t.to_pandas()
        .drop_duplicates()
        .sort_values(["x", "y"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)


def test_adaptive_group_aggregate_strategies_agree(ray_session):
    """Both strategies (hash-agg under the threshold, sorted-segment
    over it) must produce identical results — the adaptive switch can
    never change answers, only plans."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from osm_replication_rust_ray.functions.agg import adaptive_group_aggregate

    rng = np.random.RandomState(4)
    t = pa.table(
        {
            "k": pa.array(rng.randint(0, 500, 8000), pa.int64()),
            "v": pa.array(rng.randint(-100, 100, 8000), pa.int64()),
        }
    )
    aggs = {"mn": ("v", "min"), "mx": ("v", "max"),
            "sm": ("v", "sum"), "ct": ("v", "count")}

    def run(est):
        ds = ray.data.from_arrow(t).repartition(8)
        return (
            adaptive_group_aggregate(ds, "k", aggs, est_rows=est)
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)[["k", "mn", "mx", "sm", "ct"]]
            .astype("int64")
        )

    small = run(8000)        # single-task local branch
    large = run(10**9)       # sorted-segment branch
    import pandas as pd

    pd.testing.assert_frame_equal(small, large)

    # the retired Ray hash-agg strategy stays as a parity reference
    from osm_replication_rust_ray.functions.agg import ray_hash_aggregate

    hash_agg = (
        ray_hash_aggregate(ray.data.from_arrow(t).repartition(8), "k", aggs)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)[["k", "mn", "mx", "sm", "ct"]]
        .astype("int64")
    )
    pd.testing.assert_frame_equal(small, hash_agg)


def test_local_group_aggregate_matches_sorted(ray_session):
    """The single-task small-input fast path (local_group_aggregate,
    used by small_sorted_aggregate under the row threshold) must be
    answer-identical to sorted_segment_aggregate — including string
    keys, count ops, and empty input."""
    import pandas as pd
    import ray.data

    from osm_replication_rust_ray.functions.agg import (
        local_group_aggregate,
        small_sorted_aggregate,
        sorted_segment_aggregate,
    )

    rng = np.random.RandomState(11)
    n = 9000
    t = pa.table(
        {
            "k": pa.array(rng.randint(0, 700, n), pa.int64()),
            "v": pa.array(rng.randint(-(10**9), 10**9, n), pa.int64()),
        }
    )
    aggs = {"mn": ("v", "min"), "mx": ("v", "max"),
            "sm": ("v", "sum"), "ct": ("v", "count")}

    def norm(ds):
        return (
            ds.to_pandas()
            .sort_values("k")
            .reset_index(drop=True)[["k", "mn", "mx", "sm", "ct"]]
            .astype("int64")
        )

    base = norm(
        sorted_segment_aggregate(ray.data.from_arrow(t).repartition(7), "k", aggs)
    )
    pd.testing.assert_frame_equal(
        norm(local_group_aggregate(ray.data.from_arrow(t).repartition(7), "k", aggs)),
        base,
    )
    pd.testing.assert_frame_equal(
        norm(small_sorted_aggregate(ray.data.from_arrow(t).repartition(7), "k", aggs)),
        base,
    )
    # empty input keeps a typed schema (ray's to_pandas drops columns
    # on empty datasets, so assert on the Dataset schema itself)
    empty = local_group_aggregate(ray.data.from_arrow(t.slice(0, 0)), "k", aggs)
    assert empty.schema().names == ["k", "mn", "mx", "sm", "ct"]
    assert empty.count() == 0
    # string keys
    ts = pa.table(
        {
            "k": pa.array([f"g{i%5}" for i in range(50)]),
            "v": pa.array(np.arange(50, dtype=np.int64)),
        }
    )
    got = (
        local_group_aggregate(ray.data.from_arrow(ts), "k", {"mn": ("v", "min")})
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    assert got["mn"].tolist() == [0, 1, 2, 3, 4]


def test_minhash_query_broadcast_shuffle_parity(ray_session, join_regime):
    """q_minhash_dup_pairs picks broadcast vs hash-shuffle joins from
    parquet footer metadata; both paths must produce identical pairs."""
    from osm_replication_rust_ray.pipelines.queries import q_minhash_dup_pairs

    sf = "/root/testdata/sf0.001"
    force, ran = join_regime

    def run():
        df = q_minhash_dup_pairs(sf).to_pandas()
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    bc = run()  # 50 docs -> broadcast path by default
    assert ran() == "broadcast"
    force("shuffle")
    sh = run()
    assert ran() == "shuffle"
    assert bc.equals(sh)
    assert len(bc) > 0


def test_crossover_join_broadcast_shuffle_parity(ray_session, join_regime):
    """crossover_join (driver-side metadata decision) must produce
    identical rows on both paths; corpus_filter exercises it."""
    from osm_replication_rust_ray.pipelines.queries import q_corpus_filter

    sf = "/root/testdata/sf0.001"
    force, ran = join_regime

    def run():
        df = q_corpus_filter(sf).to_pandas()
        return df.sort_values("doc_id").reset_index(drop=True)

    bc = run()
    assert ran() == "broadcast"
    force("shuffle")
    sh = run()
    assert ran() == "shuffle"
    assert bc.equals(sh)
    assert len(bc) > 0


def test_outlier_flags_shuffle_arm_parity(ray_session, join_regime, tmp_path):
    """outlier_flags joins its per-user moments through crossover_join:
    broadcast under the crossover, the shuffle join past it, with the
    same flagged rows — the integer z-score rule's, recomputed here."""
    import pyarrow.parquet as pq

    from osm_replication_rust_ray.pipelines.queries import (
        OUTLIER_K,
        q_outlier_flags,
    )

    rng = np.random.RandomState(4)
    n = 3000
    users = rng.randint(0, 40, n).astype(np.int64)
    value = np.round(rng.normal(50.0, 5.0, n), 2)
    value[rng.choice(n, 30, replace=False)] += 400.0
    pq.write_table(pa.table({"event_id": np.arange(n, dtype=np.int64),
                             "user_id": users, "value": value}),
                   tmp_path / "events.parquet")
    c = np.floor(value * 100.0 + 0.5).astype(np.int64)
    want = []
    for u in np.unique(users):
        m = users == u
        cn, s, q = m.sum(), c[m].sum(), (c[m] * c[m]).sum()
        hit = cn * (c[m] * cn - s) ** 2 > OUTLIER_K ** 2 * cn * (cn * q - s * s)
        want += [(int(e), int(u), int(x))
                 for e, x in zip(np.flatnonzero(m)[hit], c[m][hit])]
    force, ran = join_regime

    def run():
        df = q_outlier_flags(str(tmp_path)).to_pandas()
        return sorted(map(tuple, df[["event_id", "user_id", "cents"]]
                          .to_numpy().tolist()))

    bc = run()
    assert ran() == "broadcast"
    force("shuffle")
    sh = run()
    assert ran() == "shuffle"
    assert bc == sh == sorted(want)
    assert len(want) >= 20


def test_crossover_join_right_on_parity(ray_session, join_regime):
    """The right_on != on broadcast branch (right-key coalescing in the
    per-block pyarrow join) must match the shuffle join; ngram_jaccard
    is the caller that exercises it."""
    from osm_replication_rust_ray.pipelines.queries import q_ngram_jaccard

    sf = "/root/testdata/sf0.001"
    force, ran = join_regime

    def run():
        df = q_ngram_jaccard(sf).to_pandas()
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    force("broadcast")
    bc = run()
    assert ran() == "broadcast"
    force("shuffle")
    sh = run()
    assert ran() == "shuffle"
    assert bc.equals(sh)
    assert len(bc) > 0
