"""Edit-distance similarity self-join: PassJoin-style pigeonhole
segment blocking + a banded Levenshtein verify vectorized ACROSS pairs.

The character-level near-dup operator the token-level family
(minhash / simhash / n-gram Jaccard in ``dedup.py``) cannot express:
find every document pair within Levenshtein distance ``d`` — the
classic boilerplate/near-mirror detector for crawl corpora.

Algorithm (published: Li, Deng, Feng, "PASS-JOIN: A Partition-based
Method for Similarity Joins", PVLDB 5(3), 2011):

- every string ``r`` of length ``l`` is evenly partitioned into
  ``d + 1`` contiguous segments.  Pigeonhole: if ``ed(r, s) <= d``, at
  least one segment of ``r`` survives the (at most ``d``) edits and
  appears VERBATIM in ``s``; an alignment with ``<= d`` edits displaces
  its start by at most ``d`` positions.
- INDEX role: each doc emits one row per segment,
  ``(key(l, i, window_hash), doc_id)`` — ``d + 1`` keys-only rows.
- PROBE role: each doc ``s`` emits, for every partner length
  ``l in [len(s) - d, len(s)]`` (the shorter side is always the
  indexed one) and every segment ``i``, each substring of ``s`` of the
  segment's exact length starting within ``+-d`` of the segment's
  start — a COMPLETE candidate generator (the paper's multi-match-
  aware window is a constant-factor optimization, not needed for
  recall 1.0).  ``<= (d+1)^2 * (2d+1)`` keys-only rows per doc.
- window hashes are O(1) per window via per-doc polynomial prefix
  hashes mod 2^64 (odd base => invertible), so both emitters are pure
  numpy; only ``(key, doc_id)`` int64 pairs cross the one shuffle.
- candidates dedup (``sorted_distinct``), join text back (bounded:
  candidates ~ true pairs for natural text), and an exact BANDED
  Levenshtein DP verifies with numpy rows over the ``2d + 1`` band —
  O(max_len * (2d+1)) vector ops per batch, no per-pair Python.

Hash collisions only ever ADD candidates (verification is exact), so
the 64-bit window hash is safe as the single join key.

Scale notes (100 TB): identical shape to the MinHash path — one
keys-only equi-join whose key (length, segment, content hash) is
uniform for natural text, text shipped only for the candidate set,
verify embarrassingly parallel.  Reference parity: the reference has
no edit-distance operator; this extends its dedup surface
(SURVEY.md section 2.5 extension).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_P = np.uint64(0x100000001B3)  # FNV-1a prime, odd => invertible mod 2^64
_PINV = np.uint64(pow(0x100000001B3, -1, 1 << 64))
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _seg_layout(lengths: np.ndarray, d: int):
    """Even PassJoin partition of each length into ``d + 1`` segments.

    Returns ``(starts, lens)`` of shape ``[n, d + 1]``: the first
    ``d + 1 - (l mod (d+1))`` segments get ``floor(l / (d+1))`` chars,
    the rest one more.
    """
    n_seg = d + 1
    base = lengths // n_seg
    rem = lengths % n_seg
    i = np.arange(n_seg, dtype=np.int64)[None, :]
    extra = np.maximum(i - (n_seg - rem[:, None]), 0)
    lens = base[:, None] + (i >= (n_seg - rem[:, None])).astype(np.int64)
    starts = i * base[:, None] + extra
    return starts, lens


def _codepoints(t: str) -> np.ndarray:
    """One uint32 per Unicode CODE POINT (utf-32 view — vectorized),
    so distances/windows count characters exactly like DuckDB's
    ``levenshtein``/``length`` (not UTF-8 bytes)."""
    return np.frombuffer(t.encode("utf-32-le"), np.uint32)


def _prefix_hashes(texts: list[str]):
    """Padded code-point matrix + polynomial prefix-hash matrix.

    ``H[doc, j] = sum_{t < j} char[t] * P^t  (mod 2^64)`` so any
    window hash is O(1): ``(H[s + L] - H[s]) * P^{-s}``.
    """
    n = len(texts)
    lengths = np.fromiter((len(t) for t in texts), np.int64, n)
    max_len = int(lengths.max(initial=0))
    mat = np.zeros((n, max_len), np.uint64)
    for r, t in enumerate(texts):  # one buffer copy per doc, not per char
        mat[r, : len(t)] = _codepoints(t)
    pows = np.empty(max_len + 1, np.uint64)
    pows[0] = 1
    np.multiply.accumulate(np.full(max_len, _P, np.uint64), out=pows[1:])
    h = np.zeros((n, max_len + 1), np.uint64)
    np.cumsum(mat * pows[None, :max_len], axis=1, out=h[:, 1:])
    # inverse powers for the O(1) window-hash normalization
    ipows = np.empty(max_len + 1, np.uint64)
    ipows[0] = 1
    np.multiply.accumulate(np.full(max_len, _PINV, np.uint64), out=ipows[1:])
    return lengths, h, ipows


def _window_keys(h, ipows, starts, lens, seg_i, part_len):
    """Join keys for windows ``[starts, starts + lens)`` of segment
    ``seg_i`` under indexed length ``part_len`` (all same-shape int64
    arrays; rows index docs)."""
    rows = np.arange(h.shape[0], dtype=np.int64)
    wh = (h[rows, starts + lens] - h[rows, starts]) * ipows[starts]
    salt = (part_len.astype(np.uint64) * np.uint64(131)
            + np.uint64(seg_i)) * _MIX
    key = wh ^ salt
    key ^= key >> np.uint64(33)
    return key.view(np.int64)


class IndexSegmentEmitter:
    """map_batches callable: ``(key, doc_id)`` per segment (keys-only)."""

    def __init__(self, d: int, text_col: str = "text",
                 id_col: str = "doc_id"):
        self.d, self.text_col, self.id_col = d, text_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pylist()
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        lengths, h, ipows = _prefix_hashes(texts)
        starts, lens = _seg_layout(lengths, self.d)
        keys, out_ids = [], []
        for i in range(self.d + 1):
            keep = lens[:, i] > 0  # zero-length segments never match
            if not keep.any():
                continue
            keys.append(_window_keys(h[keep], ipows, starts[keep, i],
                                     lens[keep, i], i, lengths[keep]))
            out_ids.append(ids[keep])
        if not keys:
            return pa.table({"key": pa.array([], pa.int64()),
                             "doc_id": pa.array([], pa.int64())})
        return pa.table({"key": pa.array(np.concatenate(keys)),
                         "doc_id": pa.array(np.concatenate(out_ids))})


class ProbeWindowEmitter:
    """map_batches callable: every candidate substring window's
    ``(key, doc_id)`` — partner lengths ``[len - d, len]`` x segments
    x ``+-d`` start shifts (complete by the pigeonhole argument)."""

    def __init__(self, d: int, text_col: str = "text",
                 id_col: str = "doc_id"):
        self.d, self.text_col, self.id_col = d, text_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        d = self.d
        texts = batch[self.text_col].to_pylist()
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        lengths, h, ipows = _prefix_hashes(texts)
        keys, out_ids = [], []
        for delta in range(d + 1):  # indexed partner length = len - delta
            part_len = lengths - delta
            ok_l = part_len >= 1
            if not ok_l.any():
                continue
            starts, lens = _seg_layout(np.maximum(part_len, 1), d)
            for i in range(d + 1):
                for shift in range(-d, d + 1):
                    s = starts[:, i] + shift
                    L = lens[:, i]
                    keep = ok_l & (L > 0) & (s >= 0) & (s + L <= lengths)
                    if not keep.any():
                        continue
                    keys.append(_window_keys(
                        h[keep], ipows, s[keep], L[keep], i,
                        part_len[keep]))
                    out_ids.append(ids[keep])
        if not keys:
            return pa.table({"key": pa.array([], pa.int64()),
                             "doc_id": pa.array([], pa.int64())})
        return pa.table({"key": pa.array(np.concatenate(keys)),
                         "doc_id": pa.array(np.concatenate(out_ids))})


def banded_levenshtein(texts_a: list[str], texts_b: list[str],
                       d: int) -> np.ndarray:
    """Exact Levenshtein distance per pair, saturated at ``d + 1``.

    Ukkonen band ``|i - j| <= d`` over the shorter string's rows;
    vectorized ACROSS pairs: each DP row update is O(2d + 1) numpy ops
    on ``[n_pairs]`` vectors.  Saturation at ``d + 1`` is sound: DP
    additions are non-negative, so a saturated cell can never feed a
    final value back under ``d + 1``, while any true distance
    ``<= d`` travels a path whose cells all stay ``< d + 1``.
    """
    n_pairs = len(texts_a)
    inf = d + 1
    res = np.full(n_pairs, inf, np.int64)
    if n_pairs == 0:
        return res
    a_b = [_codepoints(t) for t in texts_a]
    b_b = [_codepoints(t) for t in texts_b]
    # a := shorter side (symmetric metric)
    for k in range(n_pairs):
        if len(a_b[k]) > len(b_b[k]):
            a_b[k], b_b[k] = b_b[k], a_b[k]
    m_arr = np.fromiter((len(t) for t in a_b), np.int64, n_pairs)
    n_arr = np.fromiter((len(t) for t in b_b), np.int64, n_pairs)
    live = (n_arr - m_arr) <= d  # |len diff| > d can never pass
    res[live & (m_arr == 0)] = n_arr[live & (m_arr == 0)]
    run = live & (m_arr > 0)
    if not run.any():
        return np.minimum(res, inf)
    idx = np.nonzero(run)[0]
    m_arr, n_arr = m_arr[idx], n_arr[idx]
    max_m = int(m_arr.max())
    max_n = int(n_arr.max())
    np_ = len(idx)
    A = np.zeros((np_, max_m), np.uint32)
    B = np.zeros((np_, max_n), np.uint32)
    for r, k in enumerate(idx):
        A[r, : len(a_b[k])] = a_b[k]
        B[r, : len(b_b[k])] = b_b[k]
    W = 2 * d + 1
    cur = np.full((np_, W), inf, np.int64)
    for o in range(d, W):  # row 0: dp[0][j] = j at o = j + d
        cur[:, o] = o - d
    cur = np.minimum(cur, inf)
    out = np.full(np_, inf, np.int64)
    final_o = n_arr - m_arr + d
    for i in range(1, max_m + 1):
        prev = cur
        j = i + np.arange(-d, d + 1, dtype=np.int64)  # per-offset column
        # diagonal: prev[o] + (a[i-1] != b[j-1])
        bj = np.clip(j - 1, 0, max_n - 1)
        neq = (A[:, i - 1, None] != B[:, bj]).astype(np.int64)
        diag = np.where(j[None, :] > 0, prev + neq, inf)
        # deletion from a: dp[i-1][j] lives at prev offset o+1
        dele = np.full((np_, W), inf, np.int64)
        dele[:, :-1] = prev[:, 1:] + 1
        cur = np.minimum(diag, dele)
        # insertion: dp[i][j-1] = cur[o-1] + 1 (sequential cascade)
        for o in range(1, W):
            np.minimum(cur[:, o], cur[:, o - 1] + 1, out=cur[:, o])
        # invalidate columns outside [0, n] for each pair
        cur = np.where((j[None, :] >= 0) & (j[None, :] <= n_arr[:, None]),
                       cur, inf)
        np.minimum(cur, inf, out=cur)
        done = m_arr == i
        if done.any():
            out[done] = cur[done, final_o[done]]
    res[idx] = out
    return np.minimum(res, inf)


def edit_distance_join(docs, d: int, n_part: int, est_docs: int,
                       text_col: str = "text", id_col: str = "doc_id"):
    """Self-join: every pair ``id_a < id_b`` with Levenshtein distance
    ``<= d``, plus the exact distance.  ``docs`` must expose
    ``(id_col, text_col)``; returns a Dataset
    ``(id_a, id_b, dist)``."""
    from ..functions.agg import sorted_distinct
    from ..stages.dist import (_collect_table, broadcast_decision,
                               crossover_join)

    index = docs.map_batches(
        IndexSegmentEmitter(d, text_col, id_col),
        batch_format="pyarrow", batch_size=4096,
    ).materialize()
    probe = docs.map_batches(
        ProbeWindowEmitter(d, text_col, id_col),
        batch_format="pyarrow", batch_size=4096,
    )
    # the index side is the small one: (d+1) keys-only rows per doc
    joined = crossover_join(
        probe, index.rename_columns({"doc_id": "doc_id_b"}),
        on=("key",), right_on=None, num_partitions=n_part,
        est_rows=est_docs * (d + 1), est_bytes=est_docs * (d + 1) * 16,
    )

    def pair_keys(batch: pa.Table) -> pa.Table:
        a = batch["doc_id"].to_numpy(zero_copy_only=False)
        b = batch["doc_id_b"].to_numpy(zero_copy_only=False)
        m = a != b
        a, b = a[m], b[m]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
        return pa.table({"id_a": pa.array(pairs[:, 0], pa.int64()),
                         "id_b": pa.array(pairs[:, 1], pa.int64())})

    uniq = sorted_distinct(
        joined.map_batches(pair_keys, batch_format="pyarrow",
                           batch_size=65536),
        ["id_a", "id_b"],
    ).materialize()
    if uniq.count() == 0:  # stable empty schema (no candidate pairs)
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "id_a": pa.array([], pa.int64()),
            "id_b": pa.array([], pa.int64()),
            "dist": pa.array([], pa.int64()),
        }))

    docs2 = docs.map_batches(
        lambda b: b.select([id_col, text_col]), batch_format="pyarrow")
    if broadcast_decision(est_docs, est_docs * 512):
        t = _collect_table(docs2.materialize())

        def attach_texts(b: pa.Table) -> pa.Table:
            b = b.join(t.rename_columns(["id_a", "text_a"]),
                       keys=["id_a"], join_type="inner")
            return b.join(t.rename_columns(["id_b", "text_b"]),
                          keys=["id_b"], join_type="inner")

        withB = uniq.map_batches(attach_texts, batch_format="pyarrow")
    else:
        withA = uniq.join(docs2, join_type="inner",
                          num_partitions=n_part, on=("id_a",),
                          right_on=(id_col,)).map_batches(
            lambda b: b.rename_columns(
                {text_col: "text_a"}), batch_format="pyarrow")
        withB = withA.join(docs2, join_type="inner",
                           num_partitions=n_part, on=("id_b",),
                           right_on=(id_col,)).map_batches(
            lambda b: b.rename_columns(
                {text_col: "text_b"}), batch_format="pyarrow")

    def verify(b: pa.Table) -> pa.Table:
        dist = banded_levenshtein(b["text_a"].to_pylist(),
                                  b["text_b"].to_pylist(), d)
        keep = dist <= d
        return pa.table({
            "id_a": b["id_a"].filter(pa.array(keep)),
            "id_b": b["id_b"].filter(pa.array(keep)),
            "dist": pa.array(dist[keep], pa.int64()),
        })

    return withB.map_batches(verify, batch_format="pyarrow",
                             batch_size=4096)
