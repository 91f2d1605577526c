"""Brute-force parity for the round-4 media operators: greedy NMS
(pure-Python greedy walk), dominant color (Counter mode with the
smallest-code tie rule), silence segments (per-sample Python loop)."""

import collections

import numpy as np
import pyarrow as pa

from osm_replication_rust_ray.pipelines import queries as Q
from osm_replication_rust_ray.stages.decode import (
    SilenceSegments,
    DominantColor,
    decode_audio,
    encode_wav,
    make_silence_pcm,
)
from osm_replication_rust_ray.sources.synth import make_image_bytes, payload_batch


def brute_nms(i, K):
    jz = np.arange(K, dtype=np.int64)
    iz = np.full(K, i, np.int64)
    x, y, bw, bh, score = Q._nms_boxes_fields(iz, jz)
    order = sorted(range(K), key=lambda j: (-score[j], j))
    kept = []
    for k in order:
        ok = True
        for p in kept:
            iw = max(0, min(x[k] + bw[k], x[p] + bw[p]) - max(x[k], x[p]))
            ih = max(0, min(y[k] + bh[k], y[p] + bh[p]) - max(y[k], y[p]))
            if 3 * iw * ih >= bw[k] * bh[k] + bw[p] * bh[p]:
                ok = False
                break
        if ok:
            kept.append(k)
    return {int(jz[k]) for k in kept}


def test_nms_matches_greedy_walk(ray_session):
    df = Q.q_nms_boxes("/root/testdata/sf0.001", n_rows=300).to_pandas()
    by_img = df.groupby("image_id")["box_id"].apply(set).to_dict()
    for i in range(300):
        img = f"img{i:09d}"
        assert by_img.get(img, set()) == brute_nms(i, Q.NMS_BOXES_PER_IMAGE)


def test_dominant_color_matches_counter():
    idx = np.array([0, 1, 2, 7], np.int64)
    batch = payload_batch(idx, with_bytes=True)
    out = DominantColor()(batch).to_pylist()
    for row, i in zip(out, idx):
        w = [16, 32, 64][i % 3]
        h = [16, 32, 64][(i + 1) % 3]
        px = np.frombuffer(make_image_bytes(int(i), w, h),
                           np.uint8).reshape(-1, 3)
        cnt = collections.Counter(
            (int(r) >> 4) * 256 + (int(g) >> 4) * 16 + (int(b) >> 4)
            for r, g, b in px)
        best = min(cnt.items(), key=lambda kv: (-kv[1], kv[0]))
        assert row["dom_code"] == best[0]
        assert row["dom_cnt"] == best[1]
        assert row["n_px"] == w * h


def test_silence_segments_matches_python_loop():
    batch = pa.table({"id": pa.array([0, 3, 9], pa.int64())})
    out = SilenceSegments()(batch).to_pylist()
    for row, i in zip(out, (0, 3, 9)):
        n = 3000 + (i % 5) * 512
        pcm = decode_audio(encode_wav(make_silence_pcm(i, n)), "wav")
        assert np.array_equal(pcm, make_silence_pcm(i, n))  # container
        runs, cur, longest, silent, segs = [], 0, 0, 0, 0
        for s in pcm:
            if abs(int(s)) <= 100:
                cur += 1
                silent += 1
            else:
                if cur:
                    runs.append(cur)
                cur = 0
        if cur:
            runs.append(cur)
        segs = sum(1 for r in runs if r >= 150)
        longest = max(runs) if runs else 0
        assert (row["n_samples"], row["n_silent"], row["n_segments"],
                row["longest_run"]) == (n, silent, segs, longest)
