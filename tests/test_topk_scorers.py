"""The one partial-top-k path of the ANN queries, in process (no Ray):
each scorer's per-block rows against a brute-force numpy top-k (score
descending, then vec_id ascending), the merge of a 3-block split
against the one-block top-k, and PQ against a shortlist-then-refine
reference written here."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from osm_replication_rust_ray.functions.similarity import (
    CosineScorer,
    PQScorer,
    SQ8Scorer,
    normalize_rows,
    pq_encode,
    pq_fit,
    topk_merge,
)

DIM = 16
QIDS = np.arange(4, dtype=np.int64)


def _batch(vids, emb) -> pa.Table:
    return pa.table({
        "vec_id": pa.array(vids, pa.int64()),
        "embedding": pa.array(np.asarray(emb).tolist(), pa.list_(pa.float32())),
    })


def _corpus(n: int, seed: int = 0):
    """Random rows plus forced ties: the last third are duplicated
    unit-basis vectors, whose cosine with a query is exactly one
    normalized query component, and whose SQ8 score is one code."""
    rng = np.random.RandomState(seed)
    emb = rng.standard_normal((n, DIM)).astype(np.float32)
    basis = np.eye(DIM, dtype=np.float32)
    tied = n // 3
    emb[n - tied:] = basis[np.arange(tied) % 3]
    vids = rng.permutation(10 * n)[:n].astype(np.int64)
    qmat = rng.standard_normal((len(QIDS), DIM))
    return vids, emb.astype(np.float64), qmat


def _ref_cosine(qmat, emb):
    qn = qmat / np.linalg.norm(qmat, axis=1, keepdims=True)
    cn = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    return np.einsum("qd,bd->qb", qn, cn)


def _ref_sq8(qmat, emb):
    def codes(m):
        return np.clip(np.floor(m * 64), -128, 127).astype(np.int64)

    return np.einsum("qd,bd->qb", codes(qmat), codes(emb))


def _brute_topk(vids, score, k):
    """[(query_id, vec_id, score)]: per query, sorted by (-score, vec_id)."""
    rows = []
    for qi, q in enumerate(QIDS):
        best = sorted(range(len(vids)), key=lambda j: (-score[qi, j], vids[j]))
        rows += [(int(q), int(vids[j]), score[qi, j]) for j in best[:k]]
    return rows


def _rows(t: pa.Table, col: str):
    return list(zip(t["query_id"].to_pylist(), t["vec_id"].to_pylist(),
                    t[col].to_pylist()))


def _assert_rows(got, want, exact: bool):
    assert [(q, v) for q, v, _ in got] == [(q, v) for q, v, _ in want]
    g = np.array([s for _, _, s in got])
    w = np.array([s for _, _, s in want])
    if exact:
        assert (g == w).all()
    else:
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


SCORERS = [
    (CosineScorer, "sim", _ref_cosine, False),
    (SQ8Scorer, "score", _ref_sq8, True),
]


@pytest.mark.parametrize("scorer,col,ref,exact", SCORERS)
@pytest.mark.parametrize("n,k", [(90, 5), (90, 40), (3, 5)])
def test_block_topk_equals_brute_force(scorer, col, ref, exact, n, k):
    vids, emb, qmat = _corpus(n)
    out = scorer((QIDS, qmat), k)(_batch(vids, emb))
    assert out.column_names == ["query_id", "vec_id", col]
    assert len(out) == len(QIDS) * min(k, n)
    _assert_rows(_rows(out, col), _brute_topk(vids, ref(qmat, emb), k), exact)


def test_forced_ties_break_on_vec_id():
    """Among equal scores the lower vec_id comes first, over a whole
    block ordering that holds the tied third of the corpus."""
    vids, emb, qmat = _corpus(90)
    for scorer, col, _ref, _exact in SCORERS:
        out = scorer((QIDS, qmat), len(vids))(_batch(vids, emb))
        rows = _rows(out, col)
        tied_runs = 0
        for (q0, v0, s0), (q1, v1, s1) in zip(rows, rows[1:]):
            if q0 == q1 and s0 == s1:
                tied_runs += 1
                assert v0 < v1
        assert tied_runs > 0


@pytest.mark.parametrize("scorer,col,ref,exact", SCORERS)
def test_merge_of_three_blocks_equals_one_block(scorer, col, ref, exact):
    vids, emb, qmat = _corpus(120, seed=1)
    k = 7
    actor = scorer((QIDS, qmat), k)
    parts = pa.concat_tables(
        actor(_batch(vids[s], emb[s]))
        for s in (slice(0, 50), slice(50, 53), slice(53, 120))
    )
    merge = topk_merge(k)
    got = []
    for q in QIDS:
        g = merge(parts.filter(pc.equal(parts["query_id"], q)))
        assert g.column_names == ["query_id", "vec_id", col, "rank"]
        assert g["rank"].to_pylist() == list(range(1, k + 1))
        got += _rows(g, col)
    _assert_rows(got, _rows(actor(_batch(vids, emb)), col), exact)


def _ref_pq(qmat, emb, books, shortlist):
    """Per query: the ``shortlist`` best rows by asymmetric distance
    (sum over subspaces of <q_m, centroid_m(code_m)>), then exact cosine
    on those rows only, sorted by (-sim, vec_id)."""
    qn, cn = normalize_rows(qmat), normalize_rows(emb)
    codes = pq_encode(cn, books, normalized=True)
    m_sub, _, ds_ = books.shape
    adc = np.zeros((len(qn), len(cn)))
    for qi in range(len(qn)):
        for m in range(m_sub):
            sub = slice(m * ds_, (m + 1) * ds_)
            adc[qi] += books[m][codes[:, m]] @ qn[qi, sub]
    score = np.full(adc.shape, -np.inf)
    for qi in range(len(qn)):
        short = np.argsort(-adc[qi], kind="stable")[:shortlist]
        score[qi, short] = cn[short] @ qn[qi]
    return score


@pytest.mark.parametrize("n,k,shortlist", [(200, 5, 20), (200, 9, 4), (3, 5, 64)])
def test_pq_equals_shortlist_then_refine(n, k, shortlist):
    # no forced ties here: rows with equal codes tie on ADC, and a tie
    # at the shortlist cut would make the shortlist itself ambiguous
    rng = np.random.RandomState(2)
    emb = rng.standard_normal((n, DIM)).astype(np.float32).astype(np.float64)
    vids = rng.permutation(10 * n)[:n].astype(np.int64)
    qmat = rng.standard_normal((len(QIDS), DIM))
    books = pq_fit(_corpus(300, seed=3)[1], m_sub=4, k=16)
    out = PQScorer((QIDS, qmat, books), k, shortlist=shortlist)(_batch(vids, emb))
    want = _brute_topk(vids, _ref_pq(qmat, emb, books, shortlist),
                       min(k, shortlist))
    assert np.isfinite(out["sim"].to_numpy()).all()
    _assert_rows(_rows(out, "sim"), want, exact=False)
