"""K-means clustering over an embedding column — the data-curation
primitive (semantic bucketing, diversity sampling, cluster-balanced
mixing) the LLM-pipeline operator set needs alongside ANN and
near-dup.

Ray-Data shape (the canonical iterative-broadcast pattern):

- centroids are a (k, dim) float64 matrix bound by value into each
  iteration's map function;
- each Lloyd iteration is ONE ``map_batches`` pass emitting per-batch
  PARTIAL per-cluster (count, sum-vector) rows — k rows per batch, so
  the driver reduce is bounded by k x blocks, never by N;
- assignment math is float64 with a FIXED sequential accumulation
  order over dimensions (j = 0..dim-1), matching a left-associative
  SQL ``+`` chain term for term — the same IEEE-identical-order
  technique as q_image_similarity — so the kmeans_assign gate's
  DuckDB oracle agrees bit-for-bit, not just rank-wise.

Empty clusters keep their previous centroid (the standard Lloyd
convention).  No reference analogue (the reference has no vector
ops); part of the north-star's embedding surface.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def embedding_matrix(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    """list<float> column -> (n, dim) float64 matrix (zero-copy flatten)."""
    arr = batch[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    n = len(arr)
    if n == 0:
        return np.empty((0, 0), np.float64)
    return flat.astype(np.float64).reshape(n, -1)


def assign_fixed_order(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid by squared L2 with the FIXED left-to-right
    accumulation over dimensions (ties -> lowest centroid id).
    Vectorized over rows and centroids; the only loop is the dim walk,
    which is what pins the IEEE evaluation order."""
    n, dim = x.shape
    k = len(centroids)
    d2 = np.zeros((n, k), np.float64)
    for j in range(dim):
        diff = x[:, j, None] - centroids[None, :, j]
        d2 = d2 + diff * diff  # ((..+t_j)+t_{j+1}): left-associative
    return np.argmin(d2, axis=1).astype(np.int64)  # argmin takes first tie


def kmeans_partials(batch_x: np.ndarray, centroids: np.ndarray):
    """One batch's contribution to a Lloyd step: per-cluster counts
    and coordinate sums (k rows, regardless of batch size)."""
    assign = assign_fixed_order(batch_x, centroids)
    k, dim = centroids.shape
    counts = np.bincount(assign, minlength=k).astype(np.int64)
    sums = np.zeros((k, dim), np.float64)
    np.add.at(sums, assign, batch_x)
    return counts, sums


def kmeans_fit(ds, k: int, n_iter: int, init: np.ndarray,
               col: str = "embedding"):
    """Lloyd's algorithm over a Dataset of embedding rows.

    ``init`` is the (k, dim) starting centroid matrix (callers pick it
    deterministically — e.g. the embeddings of the first k ids).  Each
    iteration streams the dataset once; the driver reduce handles only
    k x blocks partial rows.  Returns (centroids, counts) after
    ``n_iter`` iterations."""
    centroids = np.asarray(init, np.float64).copy()
    k, dim = centroids.shape
    counts = np.zeros(k, np.int64)
    for _ in range(n_iter):
        def partial(batch: pa.Table, cents=centroids.copy()) -> pa.Table:
            x = embedding_matrix(batch, col)
            c, s = kmeans_partials(x, cents)
            return pa.table(
                {
                    "cluster": pa.array(np.arange(len(c)), pa.int64()),
                    "count": pa.array(c, pa.int64()),
                    "sum": pa.array(list(s), pa.list_(pa.float64())),
                }
            )

        rows = ds.map_batches(
            partial, batch_format="pyarrow", batch_size=32768
        ).take_all()  # bounded: k rows per block
        counts = np.zeros(k, np.int64)
        sums = np.zeros((k, dim), np.float64)
        for r in rows:
            counts[r["cluster"]] += r["count"]
            sums[r["cluster"]] += np.asarray(r["sum"], np.float64)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
    return centroids, counts


class CentroidAssign:
    """map_batches fn for the assignment pass: the centroid matrix,
    bound by value; emits (vec_id, cluster) with the fixed-order
    distance walk."""

    def __init__(self, centroids: np.ndarray):
        self.centroids = centroids

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = embedding_matrix(batch)
        return pa.table(
            {
                "vec_id": batch["vec_id"],
                "cluster": pa.array(
                    assign_fixed_order(x, self.centroids), pa.int64()
                ),
            }
        )
