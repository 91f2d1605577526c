"""Deduplication kernels: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup (training-data ops, SURVEY.md §2.5 extension).

All hashes are deterministic (md5 prefixes / splitmix64) so results
replicate across runs and parallelism levels — and md5 ships in DuckDB,
so the shingle hashing is SQL-replicable for the oracles.

Scale notes (100 TB design):
- exact dedup = hash-partition groupby on the key; first-writer-wins by
  Min aggregate — no driver materialization.
- MinHash: one map_batches emits (band_key, doc_id) rows (bands x docs,
  small fixed fan-out); candidate pairs come from a groupby over
  band_key (hash shuffle on the band key, which is uniform by
  construction — no salting needed); exact-verify joins text back by
  doc_id with Dataset.join (hash shuffle).
- SimHash: 64-bit signatures, bucket by rotated prefixes for candidate
  generation.
- embedding near-dup: per-batch numpy matmul against a normalized
  corpus matrix bound into the map function — brute-force baseline;
  the LSH-bucketed variant shards comparisons by random-hyperplane
  sign buckets.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

MINHASH_PERMS = 128
LSH_BANDS = 32  # rows per band = MINHASH_PERMS // LSH_BANDS = 4
_MERSENNE = (1 << 61) - 1


def _perm_params(n: int = MINHASH_PERMS, seed: int = 42):
    """Deterministic (a, b) multiply-add permutation params (odd a)."""
    rng = np.random.RandomState(seed)
    a = rng.randint(1, 1 << 62, size=n).astype(np.uint64) * np.uint64(2) + np.uint64(1)
    b = rng.randint(0, 1 << 62, size=n).astype(np.uint64)
    return a, b


_PERM_A, _PERM_B = _perm_params()


def hash_str64(s: str) -> int:
    """Deterministic 64-bit string hash: first 8 md5 bytes, big-endian.

    md5 (not a security context — shingle fingerprinting) because
    DuckDB ships md5(), so the simhash oracle can replicate the exact
    hash bit-for-bit in SQL (sql_simhash)."""
    return int.from_bytes(
        hashlib.md5(s.encode("utf-8")).digest()[:8], "big"
    )


def shingle_hashes(texts: list[str], k: int = 2) -> list[np.ndarray]:
    """Per doc: uint64 hashes of its k-word shingles (set semantics).

    A per-batch cache keyed by shingle string keeps the Python-level
    hashing O(unique shingles), which for natural text is far below
    O(total shingles).
    """
    cache: dict[str, int] = {}
    out = []
    for t in texts:
        toks = t.split(" ")
        if len(toks) < k:
            sh = {" ".join(toks)}
        else:
            sh = {" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)}
        hs = np.empty(len(sh), np.uint64)
        for j, s in enumerate(sh):
            v = cache.get(s)
            if v is None:
                v = hash_str64(s)
                cache[s] = v
            hs[j] = v
        out.append(hs)
    return out


def minhash_signature(shingles: np.ndarray) -> np.ndarray:
    """(MINHASH_PERMS,) uint64 signature of one shingle-hash set."""
    if len(shingles) == 0:
        return np.zeros(MINHASH_PERMS, np.uint64)
    # (m, p) multiply-add in uint64 (wraparound acts as the permutation)
    v = shingles[:, None] * _PERM_A[None, :] + _PERM_B[None, :]
    return v.min(axis=0)


def band_keys(sig: np.ndarray, n_bands: int = LSH_BANDS) -> np.ndarray:
    """Hash each band of the signature to an int64 bucket key."""
    r = len(sig) // n_bands
    bands = sig[: n_bands * r].reshape(n_bands, r)
    # mix the band values + band index into one key (splitmix-style)
    acc = np.uint64(0xCBF29CE484222325) + np.arange(n_bands, dtype=np.uint64)
    for c in range(r):
        acc = (acc ^ bands[:, c]) * np.uint64(0x100000001B3)
    return acc.view(np.int64)


def simhash64(shingles_per_doc: list[np.ndarray]) -> np.ndarray:
    """64-bit SimHash per doc from its shingle hash multiset."""
    out = np.empty(len(shingles_per_doc), np.uint64)
    for i, hs in enumerate(shingles_per_doc):
        if len(hs) == 0:
            out[i] = 0
            continue
        bits = np.unpackbits(hs.view(np.uint8).reshape(len(hs), 8), axis=1)
        # (+1/-1 vote per bit); int64 — unsigned arithmetic would wrap
        score = bits.sum(axis=0).astype(np.int64) * 2 - len(hs)
        out[i] = np.packbits((score > 0).astype(np.uint8)).view(np.uint64)[0]
    return out


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = (np.asarray(a, np.uint64) ^ np.asarray(b, np.uint64)).view(np.uint8)
    return np.unpackbits(x.reshape(len(np.atleast_1d(a)), 8), axis=1).sum(axis=1)


class MinHashBandEmitter:
    """map_batches fn: documents -> (doc_id, band, band_key) rows."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id", k: int = 2):
        self.text_col, self.id_col, self.k = text_col, id_col, k

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col].to_pylist()
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        shingles = shingle_hashes(texts, self.k)
        n = len(texts)
        keys = np.empty((n, LSH_BANDS), np.int64)
        for i, sh in enumerate(shingles):
            keys[i] = band_keys(minhash_signature(sh))
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, LSH_BANDS), pa.int64()),
                "band": pa.array(np.tile(np.arange(LSH_BANDS), n), pa.int64()),
                "band_key": pa.array(keys.reshape(-1), pa.int64()),
            }
        )


# ---------------- phash Hamming-ball near-dup (banding) ----------------

# 64-bit perceptual hash split into 4 disjoint 16-bit bands.  By the
# pigeonhole principle any pair at Hamming distance <= PHASH_MAX_DIST
# (3 < 4 bands) differs in at most 3 bands, i.e. AGREES on >= 1 band —
# so a band-key equi-self-join + exact popcount verify finds EXACTLY
# the <=3-distance pairs (recall 1.0; this is not an approximation).
PHASH_BANDS = 4
PHASH_MAX_DIST = 3


def phash_band_rows(item_id: np.ndarray, phash: np.ndarray) -> pa.Table:
    """(item_id, phash int64) -> 4 band rows per item, vectorized.

    Carrying phash on the band rows costs 8 B/row but removes both
    join-backs from the verify stage (the pair's hashes arrive with
    the join output) — at 10^12 rows that trades one extra shuffled
    column against two additional all-to-all joins."""
    n = len(item_id)
    ph = np.ascontiguousarray(phash).view(np.uint64)
    bands = np.repeat(np.arange(PHASH_BANDS, dtype=np.int64), n)
    keys = np.empty(PHASH_BANDS * n, np.int64)
    for b in range(PHASH_BANDS):
        keys[b * n:(b + 1) * n] = ((ph >> np.uint64(16 * b)) & np.uint64(0xFFFF)).view(
            np.int64
        )
    return pa.table(
        {
            "band": pa.array(bands, pa.int64()),
            "key": pa.array(keys, pa.int64()),
            "item_id": pa.array(np.tile(item_id, PHASH_BANDS), pa.int64()),
            "phash": pa.array(np.tile(phash, PHASH_BANDS), pa.int64()),
        }
    )


class JaccardVerifier:
    """map_batches actor: pair rows with text_a/text_b -> exact jaccard."""

    def __init__(self, k: int = 2, threshold: float = 0.5):
        self.k = k
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .text import jaccard, word_shingles

        ta = batch["text_a"].to_pylist()
        tb = batch["text_b"].to_pylist()
        j = np.array(
            [jaccard(word_shingles(a, self.k), word_shingles(b, self.k)) for a, b in zip(ta, tb)]
        )
        keep = j >= self.threshold
        return pa.table(
            {
                "id_a": batch["id_a"].filter(pa.array(keep)),
                "id_b": batch["id_b"].filter(pa.array(keep)),
                "jaccard": pa.array(j[keep], pa.float64()),
            }
        )


# ---------------- embedding near-dup / cosine ----------------

def normalize_rows(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, np.float64)
    nrm = np.linalg.norm(m, axis=1, keepdims=True)
    nrm[nrm == 0] = 1.0
    return m / nrm


class EmbeddingNearDup:
    """map_batches fn: rows vs the corpus matrix -> near-dup pairs
    (vec_id_a < vec_id_b, cosine >= threshold).

    Brute-force baseline: per batch one (B x D) @ (D x N) matmul against
    the corpus, normalized once when the instance is built (on the
    driver) and bound by value.  Scale path: pre-bucket by LSH sign
    bits and run this per bucket (see similarity.py).
    """

    def __init__(self, ids: np.ndarray, mat: np.ndarray,
                 threshold: float = 0.85):
        self.ids = np.asarray(ids, np.int64)
        self.mat = normalize_rows(mat).T  # (D, N)
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        q = normalize_rows(
            np.asarray(batch["embedding"].to_pylist(), np.float64)
        )
        qids = batch["vec_id"].to_numpy(zero_copy_only=False)
        sims = q @ self.mat  # (B, N)
        bi, ni = np.nonzero(sims >= self.threshold)
        a = qids[bi]
        b = self.ids[ni]
        keep = a < b  # dedupe (a,b)/(b,a) and self-pairs
        return pa.table(
            {
                "vec_id_a": pa.array(a[keep], pa.int64()),
                "vec_id_b": pa.array(b[keep], pa.int64()),
            }
        )
