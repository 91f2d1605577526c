"""Duplicated-span detection (functions/dupspans.py + q_dup_spans):
kernel semantics vs a per-row Python reference and broadcast-probe vs
shuffle-join-back regime parity (the two physical plans must emit
identical tables)."""

import numpy as np
import pyarrow as pa

from osm_replication_rust_ray.functions.dupspans import (
    DupSpanScorer,
    PairEmitter,
)

SF = "/root/testdata/sf0.001"


def _py_windows(text: str, k: int) -> set[str]:
    t = text.split(" ")
    return {" ".join(t[i : i + k]) for i in range(len(t) - k + 1)}


def test_pair_emitter_matches_python_reference():
    docs = [
        "a b c d e f g h i j",            # 3 windows, dup of doc 3
        "x y z",                           # too short
        "a b c d e f g h",                 # 1 window, shared with 0/3
        "a b c d e f g h i j",
        "q w e r t y u i o p a s",
    ]
    batch = pa.table(
        {"doc_id": pa.array(range(len(docs)), pa.int64()),
         "text": pa.array(docs)}
    )
    out = PairEmitter(8)(batch)
    got = {}
    for d, h in zip(out["doc_id"].to_pylist(), out["wh"].to_pylist()):
        got.setdefault(d, set()).add(h)
    for i, text in enumerate(docs):
        assert len(got.get(i, set())) == len(_py_windows(text, 8))
    # identical docs -> identical distinct-hash sets
    assert got[0] == got[3]
    # doc 2's single window is one of doc 0's
    assert got[2] <= got[0]


def test_scorer_counts_dups():
    docs = [
        "a b c d e f g h i j",
        "a b c d e f g h extra tail tokens",
        "totally different words in this one here now ok",
    ]
    batch = pa.table(
        {"doc_id": pa.array(range(3), pa.int64()), "text": pa.array(docs)}
    )
    pairs = PairEmitter(8)(batch)
    wh = pairs["wh"].to_numpy(zero_copy_only=False)
    d = pairs["doc_id"].to_numpy(zero_copy_only=False)
    # dup set: hashes present in >=2 distinct docs
    dup = []
    for h in np.unique(wh):
        if len(np.unique(d[wh == h])) >= 2:
            dup.append(h)
    out = DupSpanScorer(np.sort(np.array(dup, np.uint64)), k=8)(batch)
    rows = {
        r["doc_id"]: (r["n_grams"], r["n_dup_grams"], r["has_dup"])
        for r in out.to_pylist()
    }
    # the shared window is 'a b c d e f g h' (first 8 tokens of both)
    assert rows[0] == (3, 1, True)
    assert rows[1][1] == 1 and rows[1][2]
    assert rows[2] == (rows[2][0], 0, False)


def _run(sf_dir: str, mode: str, force, ran):
    from osm_replication_rust_ray.pipelines.queries import q_dup_spans

    force(mode)
    out = q_dup_spans(sf_dir)
    tbl = pa.concat_tables(
        [b for b in out.iter_batches(batch_format="pyarrow")]
    )
    assert ran() == mode
    return tbl.sort_by("doc_id")


def test_regime_parity(ray_session, join_regime, regimes):
    """Broadcast-probe and shuffle-join-back must emit identical
    tables on the same input."""
    from osm_replication_rust_ray.pipelines import queries
    from osm_replication_rust_ray.stages import dist

    force, _ = join_regime
    ran = regimes(broadcast=(queries, "_dup_spans_broadcast"),
                  shuffle=(dist, "safe_join"))
    a = _run(SF, "broadcast", force, ran)
    b = _run(SF, "shuffle", force, ran)
    assert a.num_rows == b.num_rows == 500
    assert a.equals(b)
    # the synthetic corpus contains real cross-doc duplication
    assert sum(a["has_dup"].to_pylist()) > 0
