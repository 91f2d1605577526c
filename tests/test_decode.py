"""Multimodal decode stage: codecs, PSNR invariant, stub gating, and
the map pipeline over the synthetic payload."""

import numpy as np
import pytest

from osm_replication_rust_ray.stages.decode import (
    LOSSLESS_PSNR_DB,
    decode_image,
    decode_raw,
    decode_rle,
    encode_rle,
    psnr_db,
)


def test_raw_roundtrip_and_psnr():
    rng = np.random.RandomState(3)
    img = rng.randint(0, 256, (16, 24, 3), np.uint8)
    out = decode_raw(img.tobytes(), 24, 16)
    assert (out == img).all()
    assert psnr_db(img, out) == LOSSLESS_PSNR_DB


def test_rle_roundtrip_including_long_runs():
    img = np.zeros((8, 8, 3), np.uint8)
    img[4:, :, 1] = 200  # long constant runs > 255 bytes
    buf = encode_rle(img)
    out = decode_rle(buf, 8, 8)
    assert (out == img).all()


def test_unknown_format_is_stubbed():
    with pytest.raises(NotImplementedError):
        decode_image(b"", 4, 4, "avif")


def test_psnr_of_noise_is_low():
    rng = np.random.RandomState(0)
    a = rng.randint(0, 256, (32, 32, 3), np.uint8)
    b = rng.randint(0, 256, (32, 32, 3), np.uint8)
    assert psnr_db(a, b) < 10.0


def test_decode_stats_pipeline(ray_session):
    from osm_replication_rust_ray.pipelines.queries import q_decode_psnr

    df = q_decode_psnr("/root/testdata/sf0.001", n_rows=200).to_pandas()
    assert len(df) == 200
    # lossless raw payloads: exact pixels + captions everywhere
    assert (df["psnr"] == LOSSLESS_PSNR_DB).all()
    assert df["caption_ok"].all()
    assert (df["n_pixels"] > 0).all()


def test_resize_and_channel_stats():
    import numpy as np

    from osm_replication_rust_ray.stages.decode import channel_stats, resize_nearest

    img = np.zeros((16, 32, 3), np.uint8)
    img[:, 16:, 0] = 200  # right half red
    small = resize_nearest(img, 8, 8)
    assert small.shape == (8, 8, 3)
    assert (small[:, :4, 0] == 0).all() and (small[:, 4:, 0] == 200).all()
    feat = channel_stats(small)
    assert feat.shape == (6,)
    assert abs(feat[0] - 100.0) < 1e-9  # mean of half 0 / half 200


def test_compressed_video_is_stubbed():
    import pytest as _pytest

    from osm_replication_rust_ray.stages.decode import sample_frames

    with _pytest.raises(NotImplementedError):
        sample_frames(b"", 8, 8, 4, "mp4")


def test_video_decode_and_frame_sampling():
    """rawv decode layout + stride sampling: frame f is the contiguous
    w*h*3 slice, sampled indices are 0, every_n, 2*every_n, ..."""
    from osm_replication_rust_ray.sources.synth import make_video_bytes
    from osm_replication_rust_ray.stages.decode import decode_video, sample_frames

    buf = make_video_bytes(7, 8, 8, 12)
    vid = decode_video(buf, 8, 8, 12, "rawv")
    assert vid.shape == (12, 8, 8, 3)
    raw = np.frombuffer(buf, np.uint8)
    assert (vid[3].ravel() == raw[3 * 192 : 4 * 192]).all()
    idx, frames = sample_frames(buf, 8, 8, 12, "rawv", every_n=4)
    assert idx.tolist() == [0, 4, 8]
    assert (frames[1] == vid[4]).all()


def test_video_frame_actor_means_deterministic(ray_session):
    """Task pipeline: one output row per sampled frame; channel means
    equal the direct numpy computation; repeated runs identical."""
    from osm_replication_rust_ray.sources.synth import (
        make_video_bytes,
        video_dataset,
        video_frames_for,
    )
    from osm_replication_rust_ray.stages.decode import video_frame_means

    n = 20
    out = (
        video_dataset(n)
        .map_batches(video_frame_means, batch_format="pyarrow", batch_size=8)
        .to_pandas()
        .sort_values(["video_id", "frame_idx"])
        .reset_index(drop=True)
    )
    nfs = video_frames_for(np.arange(n))
    assert len(out) == int(sum((nf + 3) // 4 for nf in nfs))
    # spot-check one row against a direct computation
    i, f = 13, 4
    buf = make_video_bytes(i, 8, 8, int(nfs[i]))
    frame = np.frombuffer(buf, np.uint8)[f * 192 : (f + 1) * 192].reshape(8, 8, 3)
    row = out[(out["video_id"] == f"vid{i:09d}") & (out["frame_idx"] == f)]
    want = frame.astype(np.int64).sum(axis=(0, 1)) / 64.0
    assert row[["mean_r", "mean_g", "mean_b"]].to_numpy()[0].tolist() == want.tolist()


def test_image_ops_pipeline(ray_session):
    from osm_replication_rust_ray.pipelines.queries import q_image_ops

    df = q_image_ops("/root/testdata/sf0.001", n_rows=100).to_pandas()
    assert len(df) == 100
    for col in ("mean_r", "mean_g", "mean_b", "std_r", "std_g", "std_b"):
        assert df[col].between(0, 255).all()
    # deterministic: rerun equal
    df2 = q_image_ops("/root/testdata/sf0.001", n_rows=100).to_pandas()
    a = df.sort_values("image_id").reset_index(drop=True)
    b = df2.sort_values("image_id").reset_index(drop=True)
    assert a.equals(b)


def test_bpe_token_counts():
    from osm_replication_rust_ray.functions.text import bpe_token_counts

    counts = bpe_token_counts(["hello world", "it's 42 degrees!", ""])
    assert counts[0] == 2
    assert counts[1] == 5  # it / 's / _42 / _degrees / !
    assert counts[2] == 0


def test_audio_roundtrip_and_features():
    from osm_replication_rust_ray.stages.decode import (
        audio_features,
        decode_audio,
        make_audio_bytes,
    )

    buf = make_audio_bytes(7)
    pcm = decode_audio(buf, "pcm16")
    assert len(pcm) == 4096
    assert make_audio_bytes(7) == buf  # deterministic
    f = audio_features(pcm)
    assert f.shape == (6,)
    assert 0.0 < f[0] < 1.0  # rms of a scaled tone
    assert 0.0 < f[1] < 1.0  # zcr
    assert abs(f[2:].sum() - 1.0) < 1e-9  # band energies normalized
    import pytest as _pytest

    with _pytest.raises(NotImplementedError):
        decode_audio(b"", "mp3")


def test_audio_ops_actor_pipeline(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data

    from osm_replication_rust_ray.stages.decode import (
        audio_ops,
        make_audio_bytes,
    )

    n = 200
    t = pa.table(
        {
            "clip_id": pa.array([f"clip{i:05d}" for i in range(n)], pa.string()),
            "bytes": pa.array([make_audio_bytes(i) for i in range(n)], pa.binary()),
            "fmt": pa.array(["pcm16"] * n, pa.string()),
        }
    )
    out = (
        ray.data.from_arrow(t)
        .map_batches(audio_ops, batch_format="pyarrow", batch_size=64)
        .to_pandas()
    )
    assert len(out) == n
    assert (out["n_samples"] == 4096).all()
    assert out["rms"].between(0, 1).all()
    # deterministic across runs
    out2 = (
        ray.data.from_arrow(t)
        .map_batches(audio_ops, batch_format="pyarrow", batch_size=64)
        .to_pandas()
        .sort_values("clip_id")
        .reset_index(drop=True)
    )
    assert out.sort_values("clip_id").reset_index(drop=True).equals(out2)


def test_wav_roundtrip_and_foreign_interop():
    from osm_replication_rust_ray.stages.decode import (
        decode_audio,
        decode_wav,
        encode_wav,
        make_audio_bytes,
    )

    pcm = np.frombuffer(make_audio_bytes(3, 777), "<i2")
    buf = encode_wav(pcm)
    assert np.array_equal(decode_wav(buf), pcm)
    assert np.array_equal(decode_audio(buf, "wav"), pcm)
    # foreign encoder (stdlib wave) -> our decoder
    import io
    import wave

    bio = io.BytesIO()
    with wave.open(bio, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(16000)
        w.writeframes(pcm.tobytes())
    assert np.array_equal(decode_wav(bio.getvalue()), pcm)
    # our encoder -> foreign decoder
    with wave.open(io.BytesIO(buf), "rb") as r:
        assert r.getnchannels() == 1 and r.getsampwidth() == 2
        assert np.array_equal(
            np.frombuffer(r.readframes(r.getnframes()), "<i2"), pcm
        )


def test_wav_stereo_downmix_and_errors():
    from osm_replication_rust_ray.stages.decode import decode_wav, encode_wav
    import struct

    left = np.array([1, 3, 5], "<i2")
    right = np.array([2, 4, 6], "<i2")
    inter = np.empty(6, "<i2")
    inter[0::2], inter[1::2] = left, right
    buf = bytearray(encode_wav(inter))
    # patch channel count to 2 in the fmt chunk (offset 12+8+2)
    struct.pack_into("<H", buf, 22, 2)
    assert np.array_equal(decode_wav(bytes(buf)), left)
    with pytest.raises(ValueError, match="RIFF"):
        decode_wav(b"OggS not wav")
    # non-PCM format code raises the explicit stub error
    buf2 = bytearray(encode_wav(left))
    struct.pack_into("<H", buf2, 20, 3)  # IEEE float format
    with pytest.raises(NotImplementedError, match="non-PCM"):
        decode_wav(bytes(buf2))


def test_conv_actor_brute_parity():
    """Conv: integral-image box blur + Sobel vs a direct 3x3
    window walk, odd shapes included."""
    import numpy as np

    from osm_replication_rust_ray.stages.decode import Conv

    rng = np.random.default_rng(11)
    for (h, w) in [(16, 16), (17, 23), (3, 3), (5, 4)]:
        img = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
        blur, sob = Conv._conv(img)
        v = img.astype(np.int64)
        kx = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]])
        for yo in range(h - 2):
            for xo in range(w - 2):
                wnd = v[yo:yo + 3, xo:xo + 3]
                assert (blur[yo, xo]
                        == wnd.sum(axis=(0, 1)) // 9).all()
                gx = (wnd * kx[:, :, None]).sum(axis=(0, 1))
                gy = (wnd * kx.T[:, :, None]).sum(axis=(0, 1))
                assert (sob[yo, xo] == np.abs(gx) + np.abs(gy)).all()


def test_blob_actor_brute_parity():
    """Blob: min-union labels vs a reference flood fill."""
    from collections import deque

    import numpy as np

    from osm_replication_rust_ray.stages.decode import Blob

    rng = np.random.default_rng(23)
    for (h, w) in [(16, 16), (9, 31), (3, 3)]:
        img = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
        nodes, labels = Blob._label(img)
        fg = img[:, :, 0] >= Blob.THRESH
        exp = {}
        seen = set()
        for y in range(h):
            for x in range(w):
                if not fg[y, x] or (y, x) in seen:
                    continue
                comp, q = [], deque([(y, x)])
                seen.add((y, x))
                while q:
                    cy, cx = q.popleft()
                    comp.append(cy * w + cx)
                    for ny, nx in ((cy - 1, cx), (cy + 1, cx),
                                   (cy, cx - 1), (cy, cx + 1)):
                        if (0 <= ny < h and 0 <= nx < w and fg[ny, nx]
                                and (ny, nx) not in seen):
                            seen.add((ny, nx))
                            q.append((ny, nx))
                lab = min(comp)
                for n in comp:
                    exp[n] = lab
        assert dict(zip(nodes.tolist(), labels.tolist())) == exp


def test_otsu_actor_brute_parity():
    """Otsu vs a direct float argmax (exact rule must agree where
    floats are unambiguous) + hand-checked tiny cases."""
    import numpy as np

    from osm_replication_rust_ray.stages.decode import Otsu

    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.integers(0, 256, rng.integers(20, 5000)).astype(np.uint8)
        t, c0, s0 = Otsu._otsu(v)
        n = v.size
        hist = np.bincount(v, minlength=256)
        cs, ss = np.cumsum(hist), np.cumsum(hist * np.arange(256))
        best, bt = -1.0, -1
        for tt in range(255):
            c = cs[tt]
            if c == 0 or c == n:
                continue
            a = float(ss[-1] * c - n * ss[tt])
            sc = a * a / (c * (n - c))
            if sc > best + 1e-6:  # strict improvements only (tie->min t)
                best, bt = sc, tt
        assert t == bt
        assert c0 == cs[t] and s0 == ss[t]
    # bimodal: two spikes -> threshold between them
    v = np.array([10] * 50 + [200] * 50, np.uint8)
    t, c0, s0 = Otsu._otsu(v)
    assert 10 <= t < 200 and c0 == 50 and s0 == 500
    # constant image: no valid split
    assert Otsu._otsu(np.full(64, 7, np.uint8)) == (-1, 0, 0)
