"""Unit parity for the classical-vision operators (moments, ordered
dithering, Hough lines): each vectorized kernel vs an independent
brute-force per-pixel reference on real synthetic payloads."""

import numpy as np
import pyarrow as pa

from osm_replication_rust_ray.sources.synth import payload_batch
from osm_replication_rust_ray.stages.decode import (
    BAYER8,
    Dither,
    Hough,
    Moments,
    decode_image,
    _bayer8,
    _luma_fixed,
)


def _payload(n=9):
    return payload_batch(np.arange(n, dtype=np.int64))


def _images(batch):
    ws = batch["w"].to_numpy(zero_copy_only=False)
    hs = batch["h"].to_numpy(zero_copy_only=False)
    for buf, w, h, fmt in zip(batch["bytes"].to_pylist(), ws, hs,
                              batch["fmt"].to_pylist()):
        yield decode_image(buf, int(w), int(h), fmt)


def test_bayer_matrix_matches_recursive_construction():
    def rec(n):
        if n == 1:
            return np.array([[0]])
        b = rec(n // 2)
        return np.block([[4 * b + 0, 4 * b + 2], [4 * b + 3, 4 * b + 1]])

    assert np.array_equal(_bayer8(), rec(8))
    assert sorted(BAYER8.reshape(-1).tolist()) == list(range(64))


def test_moments_actor_matches_per_pixel_brute():
    batch = _payload()
    out = Moments()(batch)
    for row, img in zip(out.to_pylist(), _images(batch)):
        l = _luma_fixed(img)
        h, w = l.shape
        m00 = m10 = m01 = sxx = syy = sxy = 0
        for y in range(h):
            for x in range(w):
                v = int(l[y, x])
                m00 += v
                m10 += v * x
                m01 += v * y
                sxx += v * x * x
                syy += v * y * y
                sxy += v * x * y
        assert (row["m00"], row["m10"], row["m01"]) == (m00, m10, m01)
        assert (row["sxx"], row["syy"], row["sxy"]) == (sxx, syy, sxy)


def test_dither_actor_matches_per_pixel_brute():
    batch = _payload()
    out = Dither()(batch)
    for row, img in zip(out.to_pylist(), _images(batch)):
        h, w, _ = img.shape
        ones = possum = pos = 0
        for y in range(h):
            for x in range(w):
                for c in range(3):
                    pos += 1
                    if int(img[y, x, c]) * 65 > (int(BAYER8[y % 8, x % 8]) + 1) * 255:
                        ones += 1
                        possum += pos
        assert row["n_pix"] == h * w * 3
        assert row["ones"] == ones
        assert row["possum"] == possum


def test_hough_actor_matches_per_pixel_brute():
    cos = [1024, 946, 724, 392, 0, -392, -724, -946]
    sin = [0, 392, 724, 946, 1024, 946, 724, 392]
    batch = _payload()
    out = Hough()(batch)
    saw_edges = False
    for row, img in zip(out.to_pylist(), _images(batch)):
        l = _luma_fixed(img)
        votes = {}
        n_edges = 0
        for y in range(l.shape[0]):
            for x in range(l.shape[1]):
                if int(l[y, x]) > 127500:
                    n_edges += 1
                    for k in range(8):
                        b = (x * cos[k] + y * sin[k] + 131072) // 256
                        votes[(k, b)] = votes.get((k, b), 0) + 1
        assert row["n_edges"] == n_edges
        if not votes:
            assert (row["best_k"], row["best_bin"], row["best_votes"]) == (-1, -1, 0)
            continue
        saw_edges = True
        best = min(votes.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
        assert row["best_k"] == best[0][0]
        assert row["best_bin"] == best[0][1]
        assert row["best_votes"] == best[1]
    assert saw_edges


def test_hough_zero_edge_sentinel():
    black = np.zeros((8, 8, 3), np.uint8)
    batch = pa.table({
        "image_id": pa.array(["imgX"], pa.string()),
        "bytes": pa.array([black.tobytes()], pa.binary()),
        "w": pa.array([8], pa.int32()),
        "h": pa.array([8], pa.int32()),
        "fmt": pa.array(["raw"], pa.string()),
    })
    row = Hough()(batch).to_pylist()[0]
    assert (row["n_edges"], row["best_k"], row["best_bin"], row["best_votes"]) \
        == (0, -1, -1, 0)


def test_marching_squares_matches_brute():
    from osm_replication_rust_ray.stages.decode import marching_squares
    batch = _payload()
    out = marching_squares(batch)
    got = {}
    for r in out.to_pylist():
        got.setdefault(r["image_id"], {})[r["mcase"]] = r["cnt"]
    ids = batch["image_id"].to_pylist()
    for img_id, img in zip(ids, _images(batch)):
        l = _luma_fixed(img)
        b = (l > 127500).astype(int)
        want = {}
        for y in range(l.shape[0] - 1):
            for x in range(l.shape[1] - 1):
                c = (b[y, x] + 2 * b[y, x + 1]
                     + 4 * b[y + 1, x] + 8 * b[y + 1, x + 1])
                if c:
                    want[c] = want.get(c, 0) + 1
        assert got.get(img_id, {}) == want


def test_lbp_actor_matches_brute():
    from osm_replication_rust_ray.stages.decode import LBP_OFFS, LBP
    batch = _payload()
    out = LBP()(batch)
    for row, img in zip(out.to_pylist(), _images(batch)):
        l = _luma_fixed(img)
        h, w = l.shape
        code_sum = possum = pos = 0
        for y in range(1, h - 1):
            for x in range(1, w - 1):
                pos += 1
                code = 0
                for j, (dy, dx) in enumerate(LBP_OFFS):
                    if l[y + dy, x + dx] >= l[y, x]:
                        code |= 1 << j
                code_sum += code
                possum += pos * code
        assert row["n_val"] == (h - 2) * (w - 2)
        assert row["code_sum"] == code_sum
        assert row["code_possum"] == possum


def test_harris_actor_matches_brute():
    from osm_replication_rust_ray.stages.decode import Harris
    batch = _payload(3)
    out = Harris()(batch)
    for row, img in zip(out.to_pylist(), _images(batch)):
        g = (_luma_fixed(img) // 1000).astype(int)
        h, w = g.shape
        sob = [(-1, -1, -1, -1), (-1, 0, 0, -2), (-1, 1, 1, -1),
               (0, -1, -2, 0), (0, 1, 2, 0),
               (1, -1, -1, 1), (1, 0, 0, 2), (1, 1, 1, 1)]
        ix = {}
        iy = {}
        for y in range(1, h - 1):
            for x in range(1, w - 1):
                gx = gy = 0
                for dy, dx, wx, wy in sob:
                    gx += wx * int(g[y + dy, x + dx])
                    gy += wy * int(g[y + dy, x + dx])
                ix[(y, x)] = gx
                iy[(y, x)] = gy
        n_val = n_corners = r_sum = 0
        r_max = None
        for y in range(2, h - 2):
            for x in range(2, w - 2):
                sxx = syy = sxy = 0
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        a, b = ix[(y + dy, x + dx)], iy[(y + dy, x + dx)]
                        sxx += a * a
                        syy += b * b
                        sxy += a * b
                r16 = 16 * (sxx * syy - sxy * sxy) - (sxx + syy) ** 2
                n_val += 1
                n_corners += r16 > 0
                r_sum += r16
                r_max = r16 if r_max is None else max(r_max, r16)
        assert row["n_val"] == n_val
        assert row["n_corners"] == n_corners
        assert row["r_sum"] == r_sum
        assert row["r_max"] == r_max


def test_seam_actor_matches_brute_dp():
    from osm_replication_rust_ray.stages.decode import Seam
    batch = _payload()
    out = Seam()(batch)
    for row, img in zip(out.to_pylist(), _images(batch)):
        l = _luma_fixed(img).tolist()
        h, w = len(l), len(l[0])
        dp = l[0][:]
        for y in range(1, h):
            dp = [l[y][x] + min(dp[max(0, x - 1): x + 2])
                  for x in range(w)]
        best = min(dp)
        assert row["seam_cost"] == best
        assert row["end_x"] == dp.index(best)


def test_dist_transform_matches_brute_bfs():
    from osm_replication_rust_ray.stages.decode import DistTransform
    batch = _payload(6)
    out = DistTransform()(batch)
    for row, img in zip(out.to_pylist(), _images(batch)):
        fg = (_luma_fixed(img) > 127500)
        h, w = fg.shape
        # brute: min L1 distance to any fg pixel, capped at 7
        fgy, fgx = np.nonzero(fg)
        d_sum = possum = 0
        for y in range(h):
            for x in range(w):
                if len(fgy):
                    d = min(7, int(np.min(np.abs(fgy - y) + np.abs(fgx - x))))
                else:
                    d = 7
                d_sum += d
                possum += (y * w + x + 1) * d
        assert row["n_pix"] == h * w
        assert row["d_sum"] == d_sum
        assert row["d_possum"] == possum


def test_hist_match_properties():
    from osm_replication_rust_ray.sources.synth import payload_batch
    from osm_replication_rust_ray.stages.decode import HistMatch

    batch = payload_batch(np.arange(4, dtype=np.int64))
    out = HistMatch()(batch).to_pylist()
    # self-matching identity: with cdf_s == cdf_t and n_s == n_t the
    # min-g rule returns v itself for every PRESENT value
    from osm_replication_rust_ray.stages.decode import decode_image
    img0 = batch.slice(0, 1)
    img = decode_image(img0["bytes"][0].as_py(), img0["w"][0].as_py(),
                       img0["h"][0].as_py(), "raw")
    for c in range(3):
        hist = np.bincount(img[:, :, c].reshape(-1), minlength=256)
        cdf = np.cumsum(hist)
        npx = img.shape[0] * img.shape[1]
        lut = np.searchsorted(cdf * npx, cdf * npx, side="left")
        present = hist > 0
        assert np.array_equal(np.arange(256)[present], lut[present])
    # cross-matching output rows exist and are bounded
    assert all(0 <= r["m_sum"] <= 255 * r["n_pix"] for r in out)


def test_canny_actor_matches_brute():
    from osm_replication_rust_ray.stages.decode import Canny
    batch = _payload(4)
    out = Canny()(batch)
    for row, img in zip(out.to_pylist(), _images(batch)):
        g = (_luma_fixed(img) // 1000).astype(int)
        h, w = g.shape
        sob = [(-1, -1, -1, -1), (-1, 0, 0, -2), (-1, 1, 1, -1),
               (0, -1, -2, 0), (0, 1, 2, 0),
               (1, -1, -1, 1), (1, 0, 0, 2), (1, 1, 1, 1)]
        mag, gx, gy = {}, {}, {}
        for y in range(1, h - 1):
            for x in range(1, w - 1):
                a = b = 0
                for dy, dx, wx, wy in sob:
                    a += wx * int(g[y + dy, x + dx])
                    b += wy * int(g[y + dy, x + dx])
                gx[(y, x)], gy[(y, x)] = a, b
                mag[(y, x)] = abs(a) + abs(b)
        strong, weak = set(), set()
        for (y, x), m in mag.items():
            a, b = gx[(y, x)], gy[(y, x)]
            if 2 * abs(b) <= abs(a):
                ay, ax = 0, -1
            elif 2 * abs(a) <= abs(b):
                ay, ax = -1, 0
            elif a * b > 0:
                ay, ax = -1, -1
            else:
                ay, ax = -1, 1
            na = mag.get((y + ay, x + ax), 0)
            nb = mag.get((y - ay, x - ax), 0)
            if m >= na and m > nb:
                if m >= 400:
                    strong.add((y, x))
                elif m >= 150:
                    weak.add((y, x))
        lit = set(strong)
        for _ in range(4):
            add = {p for p in weak if any(
                (p[0] + dy, p[1] + dx) in lit
                for dy in (-1, 0, 1) for dx in (-1, 0, 1))}
            lit |= add
        possum = sum((y - 1) * (w - 2) + (x - 1) + 1 for y, x in lit)
        assert row["n_strong"] == len(strong)
        assert row["n_weak"] == len(weak)
        assert row["n_edges"] == len(lit)
        assert row["edge_possum"] == possum
