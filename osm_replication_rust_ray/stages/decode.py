"""Multimodal decode stages: codecs, media kernels, and the two row
harnesses most of the kernels share.

The payload table carries images as opaque ``bytes`` with typed
metadata (w, h, fmt).  ``decode_image`` turns one buffer into the
codec's uint8 array, (h, w, 3) for the engine's RGB payloads; an
opaque webp drops its alpha plane to match.  Formats:

- raw: w*h*3 RGB bytes, zero-copy reshape (lossless).
- rle: deterministic byte-RLE stand-in for a lossy codec.
- png, bmp, tiff, gif, qoi, webp: real lossless codecs, one module
  each under ``stages/`` (gif is lossless on <=256-colour content;
  webp is VP8L lossless, its lossy VP8 form raises).
- jpeg: real baseline JPEG (stages/jpeg.py), LOSSY — gated by the
  PSNR >= 40 dB invariant (BASELINE.json input_hint).

Any other fmt (avif, heic, ...) raises ``NotImplementedError``: those
codecs need an image library this engine does not ship.

Every media kernel is stateless, so ``map_batches`` runs it as Ray
Data tasks: a harness kernel as an instance (``HistEq()``), a kernel
with another row shape as a module function (``image_features``).

Harnesses.  ``ImageHarness`` owns the per-image loop of the
one-row-per-image kernels: it reads ``image_id/w/h/fmt/bytes``,
decodes each image once, calls the subclass's ``kernel(img)`` and
assembles the declared int64 ``COLUMNS`` after ``image_id``.
``ClipHarness`` does the same for the synthetic-clip kernels: one
``kernel(i)`` per ``id`` of an ``rd.range`` input, keyed
``clip{i:09d}``.  Kernels checksum their output streams with
``_sum_possum`` (value sum plus destination-position-weighted sum),
which the SQL oracles recompute.  Kernels with another row shape (one
row per patch, frame or case, or a batch-vectorized transform) are
plain batch functions.

``decode_stats`` re-synthesizes the reference pixels from the row's
deterministic generator and checks PSNR and caption equality — the
engine-side half of the reference-parity gate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

LOSSLESS_PSNR_DB = 99.0  # sentinel for infinite PSNR (exact match)


def decode_raw(buf: bytes, w: int, h: int) -> np.ndarray:
    if len(buf) != w * h * 3:
        raise ValueError(f"raw buffer length {len(buf)} != {w}x{h}x3")
    return np.frombuffer(buf, np.uint8).reshape(h, w, 3)


def encode_rle(img: np.ndarray) -> bytes:
    """Deterministic byte-RLE: (count, value) pairs over the flat buffer."""
    flat = np.asarray(img, np.uint8).reshape(-1)
    change = np.flatnonzero(np.diff(flat)) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [len(flat)]))
    out = bytearray()
    for s, e in zip(starts.tolist(), ends.tolist()):
        run = e - s
        v = flat[s]
        while run > 255:
            out.append(255)
            out.append(v)
            run -= 255
        out.append(run)
        out.append(v)
    return bytes(out)


def decode_rle(buf: bytes, w: int, h: int) -> np.ndarray:
    arr = np.frombuffer(buf, np.uint8).reshape(-1, 2)
    flat = np.repeat(arr[:, 1], arr[:, 0])
    if len(flat) != w * h * 3:
        raise ValueError("rle decode size mismatch")
    return flat.reshape(h, w, 3)


# codecs with a module stages/<fmt>.py exposing decode_<fmt>(buf)
_CODECS = ("png", "jpeg", "bmp", "tiff", "gif", "qoi", "webp")


def decode_image(buf: bytes, w: int, h: int, fmt: str) -> np.ndarray:
    if fmt == "raw":
        return decode_raw(buf, w, h)
    if fmt == "rle":
        return decode_rle(buf, w, h)
    if fmt not in _CODECS:  # checked first: only allowlisted names import
        raise NotImplementedError(f"codec for fmt={fmt!r} not available")
    from importlib import import_module

    img = getattr(import_module(f".{fmt}", __package__), f"decode_{fmt}")(buf)
    if img.shape[:2] != (h, w):
        raise ValueError(f"{fmt} decoded {img.shape[:2]} != ({h}, {w})")
    if fmt == "webp" and np.all(img[..., 3] == 255):
        img = img[..., :3]  # opaque: match the RGB payload shape
    return img


def psnr_db(a: np.ndarray, b: np.ndarray) -> float:
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return LOSSLESS_PSNR_DB
    return 10.0 * np.log10(255.0 * 255.0 / mse)


def resize_nearest(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Nearest-neighbor resize (pure numpy index mapping — real, not a
    stub; the bilinear/Lanczos variants would use an image library)."""
    h, w = img.shape[:2]
    ys = (np.arange(out_h) * h) // out_h
    xs = (np.arange(out_w) * w) // out_w
    return img[ys[:, None], xs[None, :]]


def resize_bilinear_fixed(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Bilinear resize in EXACT Q8.8 integer fixed point (no floats):
    source coordinate of output pixel Y is (Y + 0.5) * h / out_h - 0.5
    computed as ``((2Y + 1) * h * 256) // (2 * out_h) - 128``; corners
    clamp at the borders; the blend is
    ``(v00*(256-fx)*(256-fy) + v01*fx*(256-fy) + v10*(256-fx)*fy
    + v11*fx*fy) // 65536`` — pure int64 throughout, so the SQL twin
    reproduces every output byte exactly."""
    h, w = img.shape[:2]
    yq = (2 * np.arange(out_h, dtype=np.int64) + 1) * h * 256 // (2 * out_h) - 128
    xq = (2 * np.arange(out_w, dtype=np.int64) + 1) * w * 256 // (2 * out_w) - 128
    y0 = yq >> 8
    x0 = xq >> 8
    fy = (yq & 255)[:, None, None]
    fx = (xq & 255)[None, :, None]
    y0c = np.clip(y0, 0, h - 1)
    y1c = np.clip(y0 + 1, 0, h - 1)
    x0c = np.clip(x0, 0, w - 1)
    x1c = np.clip(x0 + 1, 0, w - 1)
    src = img.astype(np.int64)
    v00 = src[np.ix_(y0c, x0c)]
    v01 = src[np.ix_(y0c, x1c)]
    v10 = src[np.ix_(y1c, x0c)]
    v11 = src[np.ix_(y1c, x1c)]
    out = (
        v00 * (256 - fx) * (256 - fy)
        + v01 * fx * (256 - fy)
        + v10 * (256 - fx) * fy
        + v11 * fx * fy
    ) // 65536
    return out.astype(np.uint8)


def channel_stats(img: np.ndarray) -> np.ndarray:
    """Per-channel mean/std feature vector (6 floats for RGB).

    Two-moment formula with an explicit op order (sum, sumsq exact
    int64; mean = s/n; var = max(q/n - mean*mean, 0)) so the DuckDB
    oracle (sql_image_ops) reproduces every IEEE operation — a
    pairwise-summation np.std would differ in ulps."""
    f = img.reshape(-1, img.shape[-1]).astype(np.int64)
    n = float(f.shape[0])
    s = f.sum(axis=0).astype(np.float64)
    q = (f * f).sum(axis=0).astype(np.float64)
    mean = s / n
    var = np.maximum(q / n - mean * mean, 0.0)
    return np.concatenate([mean, np.sqrt(var)])


# ---------------- row harnesses (one kernel call per image / clip) ----------


def _sum_possum(flat: np.ndarray) -> tuple:
    """(sum, destination-position-weighted sum) of a flat int64 stream,
    weight = index + 1: a value in the wrong place changes the second
    number even when the first survives.  The oracles recompute both
    as ``sum(v)`` and ``sum((bidx + 1) * v)``."""
    pos = np.arange(flat.size, dtype=np.int64) + 1
    return flat.sum(), (flat * pos).sum()


class _RowHarness:
    """Shared output side of the harnesses: one row tuple per input row
    becomes the key column plus ``COLUMNS``, int64 unless ``TYPES``
    names another type (declared, so a 0-row batch keeps the schema)."""

    COLUMNS: tuple[str, ...] = ()
    TYPES: dict[str, pa.DataType] = {}

    def _table(self, key: str, keys: list[str], rows: list[tuple]) -> pa.Table:
        return pa.table({
            key: pa.array(keys, pa.string()),
            **{name: pa.array([r[j] for r in rows],
                              self.TYPES.get(name, pa.int64()))
               for j, name in enumerate(self.COLUMNS)},
        })


class ImageHarness(_RowHarness):
    """Kernel base for one output row per payload image:
    reads ``image_id/w/h/fmt/bytes``, decodes each image once, and
    calls ``kernel(img)`` for the row's ``COLUMNS`` values.  A kernel
    that also needs the image id overrides ``row`` instead."""

    def kernel(self, img: np.ndarray) -> tuple:
        raise NotImplementedError

    def row(self, image_id: str, img: np.ndarray) -> tuple:
        return self.kernel(img)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        ws = batch["w"].to_numpy(zero_copy_only=False)
        hs = batch["h"].to_numpy(zero_copy_only=False)
        fmts = batch["fmt"].to_pylist()
        bufs = batch["bytes"].to_pylist()
        rows = [
            self.row(ids[i],
                     decode_image(bufs[i], int(ws[i]), int(hs[i]), fmts[i]))
            for i in range(len(bufs))
        ]
        return self._table("image_id", ids, rows)


class ClipHarness(_RowHarness):
    """Kernel base for one output row per synthetic clip:
    reads the ``id`` column of an ``rd.range`` input, calls
    ``kernel(i)`` per id and keys the row ``clip{i:09d}``."""

    def kernel(self, i: int) -> tuple:
        raise NotImplementedError

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["id"].to_pylist()
        return self._table("clip_id", [f"clip{i:09d}" for i in ids],
                           [self.kernel(i) for i in ids])


def decode_video(buf: bytes, w: int, h: int, n_frames: int,
                 fmt: str) -> np.ndarray:
    """-> (n_frames, h, w, 3) uint8.  Only the raw concatenated-frame
    layout ("rawv", sources/synth.make_video_bytes) decodes here —
    compressed codecs (h264/vp9/...) need ffmpeg, absent from this
    container, and raise like an unsupported image fmt."""
    if fmt != "rawv":
        raise NotImplementedError(f"video codec for fmt={fmt!r} not available")
    a = np.frombuffer(buf, np.uint8)
    return a.reshape(n_frames, h, w, 3)


def sample_frames(buf: bytes, w: int, h: int, n_frames: int, fmt: str,
                  every_n: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Stride-sample frames -> (frame_idx int64[k], frames uint8
    (k,h,w,3)).  The sampled view is zero-copy (strided slice of the
    decoded array)."""
    vid = decode_video(buf, w, h, n_frames, fmt)
    idx = np.arange(0, n_frames, every_n, dtype=np.int64)
    return idx, vid[::every_n]


FRAME_EVERY_N = 4  # video_frame_means samples frames 0, 4, 8, ...


def video_frame_means(batch: pa.Table) -> pa.Table:
    """Decode -> stride frame-sample -> per-frame per-channel mean.
    Output rows per input row: one per SAMPLED frame (video_id,
    frame_idx, mean_r/g/b) — integer channel sums divided once in
    float64, so the DuckDB pixel-regen oracle (sql_video_frames) is
    bit-identical."""
    ids = batch["video_id"].to_pylist()
    ws = batch["w"].to_numpy(zero_copy_only=False)
    hs = batch["h"].to_numpy(zero_copy_only=False)
    nfs = batch["n_frames"].to_numpy(zero_copy_only=False)
    fmts = batch["fmt"].to_pylist()
    bufs = batch["bytes"].to_pylist()
    out_id, out_f, means = [], [], []
    for j in range(len(bufs)):
        idx, frames = sample_frames(
            bufs[j], int(ws[j]), int(hs[j]), int(nfs[j]), fmts[j],
            every_n=FRAME_EVERY_N,
        )
        npix = float(ws[j]) * float(hs[j])
        s = frames.astype(np.int64).sum(axis=(1, 2))  # (k, 3)
        out_id.extend([ids[j]] * len(idx))
        out_f.append(idx)
        means.append(s / npix)
    m = (
        np.concatenate(means)
        if means
        else np.empty((0, 3), np.float64)
    )
    return pa.table(
        {
            "video_id": pa.array(out_id, pa.string()),
            "frame_idx": pa.array(
                np.concatenate(out_f) if out_f else
                np.array([], np.int64)
            ),
            "mean_r": pa.array(m[:, 0], pa.float64()),
            "mean_g": pa.array(m[:, 1], pa.float64()),
            "mean_b": pa.array(m[:, 2], pa.float64()),
        }
    )


THUMB = 8  # image_features' nearest-resize thumbnail side


def image_features(batch: pa.Table) -> pa.Table:
    """Decode -> resize -> feature-extract.

    Output per row: image_id, thumb_w, thumb_h, mean_r/g/b, std_r/g/b
    (scalar float64 stats of the nearest-resized thumb — scalar columns
    rather than a list so the DuckDB oracle can compare values).
    Batches of binary payloads stay small (batch_size chosen by the
    caller so one batch per task fits worker heap — wide-binary-row
    rule)."""
    ids = batch["image_id"]
    ws = batch["w"].to_numpy(zero_copy_only=False)
    hs = batch["h"].to_numpy(zero_copy_only=False)
    fmts = batch["fmt"].to_pylist()
    bufs = batch["bytes"].to_pylist()
    feats = np.empty((len(bufs), 6), np.float64)
    for i in range(len(bufs)):
        img = decode_image(bufs[i], int(ws[i]), int(hs[i]), fmts[i])
        small = resize_nearest(img, THUMB, THUMB)
        feats[i] = channel_stats(small)
    n = len(bufs)
    return pa.table(
        {
            "image_id": ids,
            "thumb_w": pa.array([THUMB] * n, pa.int32()),
            "thumb_h": pa.array([THUMB] * n, pa.int32()),
            "mean_r": pa.array(feats[:, 0], pa.float64()),
            "mean_g": pa.array(feats[:, 1], pa.float64()),
            "mean_b": pa.array(feats[:, 2], pa.float64()),
            "std_r": pa.array(feats[:, 3], pa.float64()),
            "std_g": pa.array(feats[:, 4], pa.float64()),
            "std_b": pa.array(feats[:, 5], pa.float64()),
        }
    )


def patch_grid_stats(img: np.ndarray, grid: int = 4):
    """ViT-style patchify: split (h, w, 3) into a grid x grid lattice of
    patches and reduce each patch exactly (int64 sum, min, max over all
    channels).  Requires h % grid == w % grid == 0.  Pure numpy reshape
    + axis reductions — no Python loop over patches."""
    h, w, c = img.shape
    if h % grid or w % grid:
        raise ValueError(f"image {w}x{h} not divisible into {grid}x{grid} patches")
    ph, pw = h // grid, w // grid
    cube = img.reshape(grid, ph, grid, pw, c)
    psum = cube.astype(np.int64).sum(axis=(1, 3, 4))
    pmin = cube.min(axis=(1, 3, 4)).astype(np.int32)
    pmax = cube.max(axis=(1, 3, 4)).astype(np.int32)
    return psum, pmin, pmax


PATCH_GRID = 4  # patch_stats' lattice side: 4 x 4 patches per image


def patch_stats(batch: pa.Table) -> pa.Table:
    """Decode -> grid x grid patch extraction with exact per-patch
    statistics (one output row per patch).

    The patch lattice is the standard ViT preprocessing step (image ->
    fixed grid of patches); emitting exact integer sums/extrema keeps
    the gate hash-exact against the pixel-regen SQL oracle.  The
    per-image work is a single numpy reshape + three axis
    reductions."""
    g = PATCH_GRID
    ids = batch["image_id"].to_pylist()
    ws = batch["w"].to_numpy(zero_copy_only=False)
    hs = batch["h"].to_numpy(zero_copy_only=False)
    fmts = batch["fmt"].to_pylist()
    bufs = batch["bytes"].to_pylist()
    n = len(bufs)
    out_ids: list[str] = []
    sums = np.empty(n * g * g, np.int64)
    mins = np.empty(n * g * g, np.int32)
    maxs = np.empty(n * g * g, np.int32)
    for i in range(n):
        img = decode_image(bufs[i], int(ws[i]), int(hs[i]), fmts[i])
        s, lo, hi = patch_grid_stats(img, g)
        k = i * g * g
        sums[k : k + g * g] = s.ravel()
        mins[k : k + g * g] = lo.ravel()
        maxs[k : k + g * g] = hi.ravel()
        out_ids.extend([ids[i]] * (g * g))
    pr = np.tile(np.repeat(np.arange(g, dtype=np.int32), g), n)
    pc_ = np.tile(np.arange(g, dtype=np.int32), g * n)
    return pa.table(
        {
            "image_id": pa.array(out_ids, pa.string()),
            "patch_r": pa.array(pr, pa.int32()),
            "patch_c": pa.array(pc_, pa.int32()),
            "psum": pa.array(sums, pa.int64()),
            "pmin": pa.array(mins, pa.int32()),
            "pmax": pa.array(maxs, pa.int32()),
        }
    )


PAYLOAD_SEED = 42  # the seed decode_stats regenerates references from


def decode_stats(batch: pa.Table) -> pa.Table:
    """Payload rows -> per-row decode stats.

    Output: image_id, psnr (vs the deterministic reference pixels),
    caption_ok, n_pixels."""
    from ..sources.synth import make_image_bytes, payload_batch

    ids = batch["image_id"].to_pylist()
    ws = batch["w"].to_numpy(zero_copy_only=False)
    hs = batch["h"].to_numpy(zero_copy_only=False)
    fmts = batch["fmt"].to_pylist()
    bufs = batch["bytes"].to_pylist()
    caps = batch["caption"].to_pylist()
    idx = np.array([int(s[3:]) for s in ids], np.int64)
    # reference pixels + captions regenerated from the deterministic
    # source (stand-in for "compare against the reference pipeline")
    ref = payload_batch(idx, PAYLOAD_SEED, with_bytes=False)
    ref_caps = ref["caption"].to_pylist()
    psnrs = np.empty(len(ids))
    for i in range(len(ids)):
        img = decode_image(bufs[i], int(ws[i]), int(hs[i]), fmts[i])
        w, h = int(ws[i]), int(hs[i])
        want = decode_raw(make_image_bytes(int(idx[i]), w, h, PAYLOAD_SEED),
                          w, h)
        psnrs[i] = psnr_db(img, want)
    cap_ok = np.array([a == b for a, b in zip(caps, ref_caps)])
    return pa.table(
        {
            "image_id": batch["image_id"],
            "psnr": pa.array(psnrs, pa.float64()),
            "caption_ok": pa.array(cap_ok, pa.bool_()),
            "n_pixels": pa.array(
                ws.astype(np.int64) * hs.astype(np.int64), pa.int64()
            ),
        }
    )


# ---------------- audio modality (same plumbing pattern) ----------------

def make_audio_bytes(i: int, n_samples: int = 4096, seed: int = 42) -> bytes:
    """Deterministic 16-bit PCM payload: a seeded-phase sine mixed with
    counter-hash noise — the audio analogue of make_image_bytes."""
    from ..sources.synth import _mix64

    base = int(_mix64(np.array([i], np.uint64) ^ np.uint64(seed * 6007))[0])
    t = np.arange(n_samples, dtype=np.float64)
    freq = 0.01 + (base % 1000) / 20000.0
    phase = (base >> 10) % 628 / 100.0
    tone = np.sin(2.0 * np.pi * freq * t + phase)
    noise_words = _mix64(np.uint64(base) + np.arange(n_samples, dtype=np.uint64))
    noise = (noise_words.astype(np.float64) / 2**64 - 0.5) * 0.2
    pcm = np.clip((tone * 0.7 + noise) * 32767.0, -32768, 32767).astype("<i2")
    return pcm.tobytes()


def _clip_len(i: int) -> int:
    """Sample count of synthetic clip ``i`` (the audio oracles' ladder)."""
    return 3000 + (i % 5) * 512


def _clip_pcm(i: int, seed: int) -> np.ndarray:
    return np.frombuffer(make_audio_bytes(i, _clip_len(i), seed), "<i2")


def _snr_db(ref: np.ndarray, out: np.ndarray) -> float:
    err = (out.astype(np.float64) - ref) ** 2
    sig = float((ref.astype(np.float64) ** 2).mean())
    return 10.0 * np.log10(sig / max(float(err.mean()), 1e-12))


def decode_pcm16(buf: bytes) -> np.ndarray:
    """fmt='pcm16': zero-copy int16 view (lossless)."""
    return np.frombuffer(buf, "<i2")


def encode_wav(pcm: np.ndarray, sample_rate: int = 16000) -> bytes:
    """Mono 16-bit RIFF/WAVE container around PCM samples (stdlib-only,
    like the PNG codec in stages/png.py)."""
    import struct

    data = np.asarray(pcm, "<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, sample_rate, sample_rate * 2, 2, 16)
    body = (
        b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", len(data)) + data
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


def decode_wav(buf: bytes) -> np.ndarray:
    """RIFF/WAVE -> int16 samples.  Walks the chunk list (skipping
    ancillary chunks like LIST/fact), validates the fmt chunk is
    16-bit integer PCM; compressed WAV codecs raise."""
    import struct

    if buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE file")
    pos, end = 12, min(len(buf), 8 + struct.unpack_from("<I", buf, 4)[0])
    fmt = fmt_body = data = fact = None
    while pos + 8 <= end:
        tag = buf[pos : pos + 4]
        (length,) = struct.unpack_from("<I", buf, pos + 4)
        body = buf[pos + 8 : pos + 8 + length]
        if len(body) != length:
            raise ValueError("truncated WAV chunk")
        if tag == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", body)
            fmt_body = body
        elif tag == b"data":
            data = body
        elif tag == b"fact" and length >= 4:
            (fact,) = struct.unpack_from("<I", body)
        pos += 8 + length + (length & 1)  # chunks are word-aligned
    if fmt is None or data is None:
        raise ValueError("WAV missing fmt/data chunk")
    audio_format, n_channels, _rate, _bps, _align, bits = fmt
    if audio_format == 0x11:
        # real codec — IMA/DVI ADPCM (stages/adpcm.py)
        from .adpcm import BLOCK_ALIGN, SAMPLES_PER_BLOCK, pcm_from_adpcm_data

        if n_channels != 1:
            raise NotImplementedError("only mono IMA ADPCM supported")
        if _align != BLOCK_ALIGN:
            raise NotImplementedError(
                f"IMA ADPCM block align {_align} (only {BLOCK_ALIGN})"
            )
        if len(fmt_body) >= 20:
            (spb,) = struct.unpack_from("<H", fmt_body, 18)
            if spb != SAMPLES_PER_BLOCK:
                raise NotImplementedError(
                    f"IMA ADPCM samples/block {spb} "
                    f"(only {SAMPLES_PER_BLOCK})"
                )
        n_blocks = len(data) // BLOCK_ALIGN
        n = fact if fact is not None else n_blocks * SAMPLES_PER_BLOCK
        return pcm_from_adpcm_data(data, n)
    if audio_format in (0x06, 0x07):
        # real codec — G.711 A-law / mu-law (stages/g711.py)
        from .g711 import alaw_decode, ulaw_decode

        if bits != 8:
            raise ValueError(f"G.711 WAV must be 8-bit, got {bits}")
        codes = np.frombuffer(data, np.uint8)
        if n_channels > 1:  # downmix by taking channel 0 (deterministic)
            codes = codes[::n_channels]
        if fact is not None:
            codes = codes[:fact]
        return (alaw_decode if audio_format == 0x06 else ulaw_decode)(codes)
    if audio_format != 1:
        raise NotImplementedError(
            f"WAV audio format {audio_format} (non-PCM) not available"
        )
    if bits != 16:
        raise NotImplementedError(f"{bits}-bit WAV not supported (16 only)")
    samples = np.frombuffer(data[: len(data) - (len(data) % 2)], "<i2")
    if n_channels > 1:  # downmix by taking channel 0 (deterministic)
        samples = samples[::n_channels]
    return samples


def decode_audio(buf: bytes, fmt: str) -> np.ndarray:
    if fmt == "pcm16":
        return decode_pcm16(buf)
    if fmt == "wav":
        return decode_wav(buf)
    if fmt == "flac":
        from .flac import decode_flac

        return decode_flac(buf)
    # mp3/opus would go through an audio library; absent in this
    # container -> explicit stub, same gating as the image codecs
    raise NotImplementedError(f"audio codec for fmt={fmt!r} not available")


def audio_features(pcm: np.ndarray, n_bands: int = 4) -> np.ndarray:
    """Real numpy features: RMS, zero-crossing rate, and coarse band
    energies via a power-of-two band split of |rFFT|^2 (no external
    DSP libs)."""
    x = np.asarray(pcm, np.float64) / 32768.0
    rms = float(np.sqrt(np.mean(x * x)))
    zcr = float(np.mean(np.signbit(x[1:]) != np.signbit(x[:-1])))
    spec = np.abs(np.fft.rfft(x)) ** 2
    bands = np.array_split(spec[1:], n_bands)
    total = sum(float(b.sum()) for b in bands) or 1.0
    return np.array([rms, zcr] + [float(b.sum()) / total for b in bands])


class AdpcmRoundtrip(ClipHarness):
    """Clip kernel: generate the deterministic PCM clip, encode
    it as mono IMA-ADPCM WAV (stages/adpcm.py), decode it back through
    the standard WAV container dispatch, and emit SQL-predictable
    evidence — sample count, block count, the exact container byte
    size (60 + ceil(n/505)*256) and the lossy-quality bit (SNR vs the
    regenerated reference >= the bar; measured floor 27.1 dB over the
    full gate corpus, bar 25 dB).  The codec kernels are lane-parallel
    over a clip's blocks, so per-sample cost shrinks as clips grow —
    the property that matters at 100 TB, where clips are minutes, not
    a quarter second."""

    SEED = 42
    SNR_BAR_DB = 25.0
    COLUMNS = ("n_samples", "n_blocks", "wav_bytes", "snr_ok")
    TYPES = {"snr_ok": pa.bool_()}

    def kernel(self, i: int) -> tuple:
        from .adpcm import BLOCK_ALIGN, encode_wav_adpcm

        pcm = _clip_pcm(i, self.SEED)
        buf = encode_wav_adpcm(pcm)
        out = decode_audio(buf, "wav")
        return (len(out), len(buf[60:]) // BLOCK_ALIGN, len(buf),
                _snr_db(pcm, out) >= self.SNR_BAR_DB)


class G711Roundtrip(ClipHarness):
    """Clip kernel: generate the deterministic PCM clip, encode
    it as a mono G.711 WAV (stages/g711.py; even clips mu-law fmt 7,
    odd clips A-law fmt 6), decode it back through the standard WAV
    container dispatch, and emit SQL-predictable evidence — sample
    count, the exact container size (58 + n for even n), the SNR>=30dB
    quality bit (measured ~37 dB on this corpus) and the bit-exact
    requantization bit: re-encoding the decoded samples reproduces the
    codeword stream byte-for-byte, which holds structurally because
    the decode table emits quantizer reconstruction levels and the
    encoder never produces the mu-law negative-zero dual 0x7F.  The
    codec is stateless per sample, so the kernels are whole-clip numpy
    with no per-sample Python at any clip length."""

    SEED = 42
    SNR_BAR_DB = 30.0
    COLUMNS = ("law", "n_samples", "wav_bytes", "snr_ok", "requant_ok")
    TYPES = {"law": pa.string(), "snr_ok": pa.bool_(),
             "requant_ok": pa.bool_()}

    def kernel(self, i: int) -> tuple:
        from .g711 import alaw_encode, encode_wav_g711, ulaw_encode

        law = "ulaw" if i % 2 == 0 else "alaw"
        pcm = _clip_pcm(i, self.SEED)
        buf = encode_wav_g711(pcm, law)
        out = decode_audio(buf, "wav")
        enc = ulaw_encode if law == "ulaw" else alaw_encode
        return (law, len(out), len(buf), _snr_db(pcm, out) >= self.SNR_BAR_DB,
                bytes(enc(out).tobytes()) == buf[58:58 + len(out)])


class FlacRoundtrip(ClipHarness):
    """Clip kernel: generate the deterministic PCM clip, encode
    it as real FLAC (stages/flac.py), decode it back, and emit the
    evidence columns the SQL oracle can predict — sample count, frame
    count (stream structure) and the lossless roundtrip bit (decoded
    == independently regenerated PCM).  The decoder's CRC-8/CRC-16 and
    STREAMINFO-MD5 checks run on every clip; reaching the output at
    all proves stream integrity."""

    BLOCK_SIZE = 1024
    SEED = 42
    COLUMNS = ("n_samples", "n_frames", "lossless_ok")
    TYPES = {"lossless_ok": pa.bool_()}

    def kernel(self, i: int) -> tuple:
        from .flac import decode_flac, encode_flac

        pcm = _clip_pcm(i, self.SEED)
        out, frames = decode_flac(
            encode_flac(pcm, block_size=self.BLOCK_SIZE), return_frames=True
        )
        return len(out), frames, np.array_equal(out, pcm)


N_BANDS = 4  # audio_ops' band-energy columns band_0..band_3


def audio_ops(batch: pa.Table) -> pa.Table:
    """Decode PCM -> feature-extract.

    Output per row: clip_id, n_samples, rms, zcr, band_0..band_3.
    Identical plumbing rules to image_features (small batches of
    binary payloads)."""
    bufs = batch["bytes"].to_pylist()
    fmts = batch["fmt"].to_pylist()
    feats = np.empty((len(bufs), 2 + N_BANDS), np.float64)
    ns = np.empty(len(bufs), np.int64)
    for i, (buf, fmt) in enumerate(zip(bufs, fmts)):
        pcm = decode_audio(buf, fmt)
        ns[i] = len(pcm)
        feats[i] = audio_features(pcm, N_BANDS)
    cols = {
        "clip_id": batch["clip_id"],
        "n_samples": pa.array(ns, pa.int64()),
        "rms": pa.array(feats[:, 0], pa.float64()),
        "zcr": pa.array(feats[:, 1], pa.float64()),
    }
    for b in range(N_BANDS):
        cols[f"band_{b}"] = pa.array(feats[:, 2 + b], pa.float64())
    return pa.table(cols)


class HistEq(ImageHarness):
    """Image kernel: global histogram equalization — the classic
    contrast-normalization preprocessing step, kept EXACT: the remap is
    the integer CDF formula eq(v) = ((cdf(v) - cdf_min) * 255)
    // (n_px - cdf_min) with cdf_min the CDF at the smallest present
    value, so the LUT is integer-determined and the oracle reproduces
    it relationally (window cumsum over the per-image histogram).

    Emits per image: pixel count, equalized sum, and a
    destination-position-weighted checksum (weight bidx+1) — a wrong
    LUT *or* wrong pixel placement breaks the gate, not just wrong
    totals.  Per-image work is one bincount + one cumsum + one
    gather."""

    COLUMNS = ("n_px", "eq_sum", "eq_possum")

    def kernel(self, img: np.ndarray) -> tuple:
        flat = img.reshape(-1).astype(np.int64)
        hist = np.bincount(flat, minlength=256)
        cdf = np.cumsum(hist)
        cdf_min = int(cdf[np.flatnonzero(hist)[0]])
        denom = flat.size - cdf_min
        if denom == 0:  # constant image: define eq = 0 (oracle CASE)
            lut = np.zeros(256, np.int64)
        else:
            lut = ((cdf - cdf_min) * 255) // denom
        return (flat.size, *_sum_possum(lut[flat]))


class Morph(ImageHarness):
    """Image kernel: 3x3 morphological erosion + dilation — the
    classic binary/grayscale cleanup filters (min / max over the 3x3
    neighborhood, per channel, replicate border).  For extrema the
    replicated border pixels never change the window result, so the
    oracle can compute the identical output with a bounded in-window
    neighbor aggregation (no explicit padding relationally).

    Emits per image: pixel count plus destination-position-weighted
    checksums of both outputs (weight bidx+1 over the interleaved RGB
    stream) — wrong window PLACEMENT breaks the gate, not just wrong
    extrema.  Pure numpy: one padded view + 9 shifted slices."""

    COLUMNS = ("n_px", "ero_sum", "ero_possum", "dil_sum", "dil_possum")

    @staticmethod
    def _morph(img: np.ndarray):
        pad_lo = np.pad(img, ((1, 1), (1, 1), (0, 0)), mode="edge")
        h, w, _ = img.shape
        ero = None
        dil = None
        for dy in range(3):
            for dx in range(3):
                view = pad_lo[dy:dy + h, dx:dx + w]
                if ero is None:
                    ero = view.copy()
                    dil = view.copy()
                else:
                    np.minimum(ero, view, out=ero)
                    np.maximum(dil, view, out=dil)
        return ero, dil

    def kernel(self, img: np.ndarray) -> tuple:
        ero, dil = self._morph(img)
        e = ero.reshape(-1).astype(np.int64)
        d = dil.reshape(-1).astype(np.int64)
        return (e.size, *_sum_possum(e), *_sum_possum(d))


class MedianFilter(ImageHarness):
    """Image kernel: 3x3 MEDIAN filter (the rank/order-statistic
    denoiser, completing the neighborhood-filter family next to
    Morph's min/max and Conv's linear kernels) over the
    VALID interior per channel — 9 values per window, odd count, so
    the median is an exact integer with no interpolation and the SQL
    oracle's ``CAST(median(v) AS BIGINT)`` over the scattered window
    is bit-identical.

    Emits per image: interior value count plus value- and
    destination-position-weighted checksums (placement-sensitive,
    like every image gate)."""

    COLUMNS = ("n_val", "med_sum", "med_possum")

    @staticmethod
    def _median3(img: np.ndarray) -> np.ndarray:
        h, w, c = img.shape
        views = [img[dy:h - 2 + dy, dx:w - 2 + dx]
                 for dy in range(3) for dx in range(3)]
        stack = np.stack(views, axis=0).astype(np.int64)
        # 9 ints -> the middle order statistic is exact
        return np.median(stack, axis=0).astype(np.int64)

    def kernel(self, img: np.ndarray) -> tuple:
        med = self._median3(img).reshape(-1)
        return (med.size, *_sum_possum(med))


class Conv(ImageHarness):
    """Image kernel: 2-D convolution — 3x3 integer box blur
    (floor(window sum / 9)) and Sobel gradient magnitude (|gx| + |gy|,
    no sqrt so everything stays exact int), both over the VALID
    (interior) region so the oracle needs no border model.

    The blur runs off a 2-D INTEGRAL IMAGE (two prefix-sum passes +
    4-corner window sums) — the separable O(1)-per-pixel form that
    holds at any kernel size, not a 9-gather; Sobel uses 8 shifted
    views with constant weights.  Emits per image the valid-pixel
    count and destination-position-weighted checksums of both outputs
    (wrong placement breaks the gate, not just wrong values)."""

    COLUMNS = ("n_val", "blur_sum", "blur_possum",
               "sobel_sum", "sobel_possum")

    @staticmethod
    def _conv(img: np.ndarray):
        h, w, _ = img.shape
        v = img.astype(np.int64)
        # integral image: S[y, x] = sum of v[:y, :x]
        s = np.zeros((h + 1, w + 1, 3), np.int64)
        np.cumsum(v, axis=0, out=s[1:, 1:])
        s[1:, 1:] = s[1:, 1:].cumsum(axis=1)
        win = (s[3:, 3:] - s[:-3, 3:] - s[3:, :-3] + s[:-3, :-3])
        blur = win // 9
        gx = np.zeros((h - 2, w - 2, 3), np.int64)
        gy = np.zeros((h - 2, w - 2, 3), np.int64)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                wx = dx * (2 - abs(dy))
                wy = dy * (2 - abs(dx))
                if wx == 0 and wy == 0:
                    continue
                view = v[1 + dy:h - 1 + dy, 1 + dx:w - 1 + dx]
                if wx:
                    gx += wx * view
                if wy:
                    gy += wy * view
        sob = np.abs(gx) + np.abs(gy)
        return blur, sob

    def kernel(self, img: np.ndarray) -> tuple:
        blur, sob = self._conv(img)
        return (blur.size, *_sum_possum(blur.reshape(-1)),
                *_sum_possum(sob.reshape(-1)))


class Otsu(ImageHarness):
    """Image kernel: Otsu's automatic threshold on channel 0 —
    maximize between-class variance  (S*c - n*s)^2 / (c*(n-c))  over
    thresholds t (class 0 = v <= t), kept EXACT: the squared term
    exceeds int64 at 64x64 images, so the 255-candidate argmax runs in
    Python big ints (255 iterations per image over a 256-bin numpy
    histogram — the per-pixel work stays vectorized).  Ties take the
    smallest t; the oracle replays the identical cross-multiplied
    rational compare in HUGEINT.  Emits (image_id, n_px, otsu_t, c0,
    s0): the threshold plus class-0 count and sum pin the argmax."""

    COLUMNS = ("n_px", "otsu_t", "c0", "s0")

    @staticmethod
    def _otsu(v: np.ndarray):
        n = v.size
        hist = np.bincount(v, minlength=256)
        csum = np.cumsum(hist)
        ssum = np.cumsum(hist * np.arange(256, dtype=np.int64))
        total = int(ssum[-1])
        best_t, best_a2, best_b = -1, 0, 1
        for t in range(255):
            c = int(csum[t])
            if c == 0 or c == n:
                continue
            a = total * c - n * int(ssum[t])
            b = c * (n - c)
            if best_t < 0 or a * a * best_b > best_a2 * b:
                best_t, best_a2, best_b = t, a * a, b
        if best_t < 0:
            return -1, 0, 0
        return best_t, int(csum[best_t]), int(ssum[best_t])

    def kernel(self, img: np.ndarray) -> tuple:
        v = img[:, :, 0].reshape(-1)
        return (v.size, *self._otsu(v))


class Blob(ImageHarness):
    """Image kernel: connected-component BLOB LABELING — the
    classic CV segmentation primitive.  Threshold channel 0 at >= 200
    (foreground density ~0.22, subcritical for site percolation on the
    square lattice, so blobs stay small at any image size),
    4-connectivity, and a DETERMINISTIC label rule: every blob is
    labeled by its minimum linear pixel index — scan-order-free, so
    the oracle replicates it with a recursive min-label closure.

    Per image: foreground count, blob count, largest blob size, and
    the label sum over foreground pixels (a wrong PARTITION changes
    labelsum even when counts survive).  Each image is independent —
    the stage is an embarrassingly parallel map, no shuffle."""

    THRESH = 200
    COLUMNS = ("n_fg", "n_blobs", "max_blob_px", "labelsum")

    @staticmethod
    def _label(img: np.ndarray):
        h, w, _ = img.shape
        fg = img[:, :, 0] >= Blob.THRESH
        idx = (np.arange(h * w, dtype=np.int64).reshape(h, w))
        pairs = []
        right = fg[:, :-1] & fg[:, 1:]
        pairs.append((idx[:, :-1][right], idx[:, 1:][right]))
        down = fg[:-1, :] & fg[1:, :]
        pairs.append((idx[:-1, :][down], idx[1:, :][down]))
        pa_ = np.concatenate([p[0] for p in pairs])
        pb_ = np.concatenate([p[1] for p in pairs])
        parent = idx.reshape(-1).copy()

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b in zip(pa_.tolist(), pb_.tolist()):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        nodes = np.nonzero(fg.reshape(-1))[0]
        # min-union keeps every root at its component's minimum member
        # index, so the root IS the deterministic label
        labels = np.array([find(int(v)) for v in nodes], np.int64)
        return nodes, labels

    def kernel(self, img: np.ndarray) -> tuple:
        nodes, labels = self._label(img)
        if not len(nodes):
            return 0, 0, 0, 0
        uniq, counts = np.unique(labels, return_counts=True)
        return len(nodes), len(uniq), counts.max(), labels.sum()


class Blend(ImageHarness):
    """Image kernel: alpha compositing (watermark overlay) — the
    standard augmentation blend out = (a*img + (256-a)*wm) // 256 kept
    EXACT in integers (a = 64): the watermark is a deterministic
    coordinate pattern ((x*7 + y*13 + c*29) % 256), so the oracle can
    regenerate BOTH streams and the per-image position-weighted
    checksum pins placement and arithmetic bit-for-bit."""

    ALPHA = 64

    COLUMNS = ("n_px", "blend_sum", "blend_possum")

    def kernel(self, img: np.ndarray) -> tuple:
        a = self.ALPHA
        h, w, _ = img.shape
        yy, xx = np.mgrid[0:h, 0:w]
        cc = np.arange(3)[None, None, :]
        wm = (xx[:, :, None] * 7 + yy[:, :, None] * 13 + cc * 29) % 256
        blend = (a * img.astype(np.int64) + (256 - a) * wm) // 256
        flat = blend.reshape(-1)
        return (flat.size, *_sum_possum(flat))


class DominantColor(ImageHarness):
    """Image kernel: DOMINANT COLOR per image — quantize every
    pixel to 4 bits per channel (a 4096-color cube, the classic
    palette-summary / thumbnail-indexing primitive) and report the
    most frequent cell (ties -> smallest packed code, scan-order
    free).  Per image the histogram is one vectorized bincount over
    the packed 12-bit codes; np.argmax's first-max rule IS the
    smallest-code tie rule because bincount is indexed by code.
    Emits (image_id, n_px, dom_code, dom_r, dom_g, dom_b, dom_cnt);
    dom_* are the cell's low corner (quantized value * 16)."""

    COLUMNS = ("n_px", "dom_code", "dom_r", "dom_g", "dom_b", "dom_cnt")

    def kernel(self, img: np.ndarray) -> tuple:
        q = (img.reshape(-1, 3) >> 4).astype(np.int64)
        codes = (q[:, 0] << 8) | (q[:, 1] << 4) | q[:, 2]
        hist = np.bincount(codes, minlength=4096)
        code = int(np.argmax(hist))
        return (len(codes), code, (code >> 8) * 16, ((code >> 4) & 15) * 16,
                (code & 15) * 16, int(hist[code]))


def make_silence_pcm(i: int, n_samples: int, seed: int = 42) -> np.ndarray:
    """Deterministic INTEGER PCM with genuine silent stretches: 200-
    sample chunks flip a mix64 gain coin (quiet with p=1/4); loud
    chunks carry +-15000 hash noise, quiet chunks only the +-32
    residual floor.  Pure integer arithmetic end to end, so a SQL
    oracle regenerates every sample exactly (make_audio_bytes' float
    sine cannot be replayed in SQL — this synth exists for the
    threshold/run-length family of gates)."""
    from ..sources.synth import _mix64

    base = _mix64(np.array([i], np.uint64) ^ np.uint64(seed * 5003))[0]
    t = np.arange(n_samples, dtype=np.uint64)
    chunk = _mix64(base + np.uint64(7919) + t // np.uint64(200))
    gain = (chunk % np.uint64(4) != 0).astype(np.int64)
    w = _mix64(base + t)
    loud = (w % np.uint64(30001)).astype(np.int64) - 15000
    resid = ((w >> np.uint64(16)) % np.uint64(65)).astype(np.int64) - 32
    return (gain * loud + resid).astype(np.int16)


class SilenceSegments(ClipHarness):
    """Clip kernel: SILENCE SPLITTING — the audio-pipeline
    segmentation primitive (VAD front-end, clip trimming).  Per clip:
    generate the integer PCM, round-trip it through the engine's WAV
    container (encode_wav -> decode_audio, so the container path is in
    the loop), threshold |sample| <= 100, and reduce the silent mask
    to run statistics: total silent samples, number of runs of length
    >= 150, and the longest run.  The mask->runs reduction is
    vectorized (flatnonzero over mask edges), no per-sample Python."""

    THRESH = 100
    MIN_RUN = 150

    COLUMNS = ("n_samples", "n_silent", "n_segments", "longest_run")

    def kernel(self, i: int) -> tuple:
        pcm = make_silence_pcm(i, _clip_len(i))
        got = decode_audio(encode_wav(pcm), "wav")
        mask = np.abs(got.astype(np.int64)) <= self.THRESH
        edged = np.concatenate(([False], mask, [False]))
        starts = np.flatnonzero(edged[1:] & ~edged[:-1])
        ends = np.flatnonzero(~edged[1:] & edged[:-1])
        runs = ends - starts
        return (len(got), int(mask.sum()), int((runs >= self.MIN_RUN).sum()),
                int(runs.max()) if len(runs) else 0)


def _luma_fixed(img: np.ndarray) -> np.ndarray:
    """Integer luma at x1000 scale: 299*R + 587*G + 114*B (exact)."""
    v = img.astype(np.int64)
    return 299 * v[:, :, 0] + 587 * v[:, :, 1] + 114 * v[:, :, 2]


class Moments(ImageHarness):
    """Image kernel: IMAGE MOMENTS — the classical shape/intensity
    descriptors (centroid, orientation, spread all derive from these)
    over the x1000 integer luma plane.  Emits the six raw power sums
    m00, m10, m01, sxx (=sum l*x^2), syy, sxy per image; every value
    is an exact int64 (luma <= 255000, pixels <= 2048, coords <= 63),
    so the SQL twin matches bit-for-bit and central moments are
    derivable downstream without re-reading pixels.

    Embarrassingly parallel — no shuffle; mirrors the reference's
    per-element derived-attribute pass (src/osmxml/bbox.rs:85-120)."""

    COLUMNS = ("m00", "m10", "m01", "sxx", "syy", "sxy")

    def kernel(self, img: np.ndarray) -> tuple:
        l = _luma_fixed(img)
        h, w = l.shape
        x = np.arange(w, dtype=np.int64)
        y = np.arange(h, dtype=np.int64)
        col = l.sum(axis=0)          # per-x luma sums
        row = l.sum(axis=1)          # per-y luma sums
        return (l.sum(), (col * x).sum(), (row * y).sum(),
                (col * x * x).sum(), (row * y * y).sum(),
                ((l * x[None, :]).sum(axis=1) * y).sum())


def _bayer8() -> np.ndarray:
    """8x8 Bayer ordered-dither matrix from the closed bit form:
    acc |= ((x_k ^ y_k) << (2*(2-k)+1)) | (y_k << (2*(2-k))) — equal to
    the recursive M(2n) = [[4M, 4M+2], [4M+3, 4M+1]] construction
    (verified in tests); a permutation of 0..63."""
    y, x = np.mgrid[0:8, 0:8]
    acc = np.zeros((8, 8), np.int64)
    for k in range(3):
        xb = (x >> k) & 1
        yb = (y >> k) & 1
        acc |= ((xb ^ yb) << (2 * (2 - k) + 1)) | (yb << (2 * (2 - k)))
    return acc


BAYER8 = _bayer8()


class Dither(ImageHarness):
    """Image kernel: ORDERED (Bayer) DITHERING to 1 bit per
    channel — the classic print/display quantizer.  Threshold rule is
    pure integer (bit = v*65 > (B(y%8, x%8)+1)*255, i.e. v above the
    dispersed-dot threshold ladder), so the SQL twin reproduces every
    bit.  Emits per image the channel-value count, total set bits and
    the destination-position-weighted checksum (placement-sensitive).
    Embarrassingly parallel map, no shuffle."""

    COLUMNS = ("n_pix", "ones", "possum")

    def kernel(self, img: np.ndarray) -> tuple:
        h, w, _ = img.shape
        thr = BAYER8[np.arange(h)[:, None] % 8,
                     np.arange(w)[None, :] % 8]
        bit = (img.astype(np.int64) * 65
               > (thr[:, :, None] + 1) * 255).astype(np.int64)
        flat = bit.reshape(-1)
        return (flat.size, *_sum_possum(flat))


# integer Hough tables: round(1024*cos(pi*k/8)), round(1024*sin(pi*k/8))
HOUGH_COS = np.array([1024, 946, 724, 392, 0, -392, -724, -946], np.int64)
HOUGH_SIN = np.array([0, 392, 724, 946, 1024, 946, 724, 392], np.int64)
HOUGH_OFF = 131072          # shifts x*c + y*s positive (|coord| <= 63)
HOUGH_BINW = 256            # rho quantum at the x1024 trig scale
HOUGH_MAXBIN = 2048         # > (63*1024*2 + OFF) / 256; packs (k, bin)


class Hough(ImageHarness):
    """Image kernel: HOUGH LINE TRANSFORM — per image, threshold
    the x1000 integer luma (edge := luma > 127500), vote every edge
    pixel into 8 quantized line directions (integer cos/sin tables at
    x1024 scale, rho binned by 256 after a positivity offset), and
    report the winning line under the deterministic tie rule
    (votes desc, angle asc, rho asc) plus edge/vote totals.

    The vote matrix for a whole image is ONE vectorized bincount over
    packed (angle, rho-bin) keys — no per-pixel Python.  Zero-edge
    images emit (-1, -1, 0).  Embarrassingly parallel, no shuffle."""

    COLUMNS = ("n_edges", "best_k", "best_bin", "best_votes")

    def kernel(self, img: np.ndarray) -> tuple:
        eys, exs = np.nonzero(_luma_fixed(img) > 127500)
        if eys.size == 0:
            return 0, -1, -1, 0
        vals = (exs[None, :] * HOUGH_COS[:, None]
                + eys[None, :] * HOUGH_SIN[:, None] + HOUGH_OFF)
        bins = vals // HOUGH_BINW
        keys = (np.arange(8, dtype=np.int64)[:, None] * HOUGH_MAXBIN
                + bins).reshape(-1)
        counts = np.bincount(keys)
        top = counts.max()
        # min key among maxima == (votes desc, k asc, bin asc)
        best = int(np.flatnonzero(counts == top)[0])
        return eys.size, best // HOUGH_MAXBIN, best % HOUGH_MAXBIN, int(top)


def marching_squares(batch: pa.Table) -> pa.Table:
    """MARCHING-SQUARES case census — the isoline extractor's inner
    table.  Threshold the x1000 luma (fg := luma > 127500), then every
    2x2 pixel cell gets its 4-bit case index (bit 1 = top-left, 2 =
    top-right, 4 = bottom-left, 8 = bottom-right); emit one row per
    (image, case 1..15) with its count.  Case counts determine the
    contour-segment census exactly.  Vectorized shifts + bincount;
    embarrassingly parallel."""
    ids = batch["image_id"].to_pylist()
    ws = batch["w"].to_numpy(zero_copy_only=False)
    hs = batch["h"].to_numpy(zero_copy_only=False)
    fmts = batch["fmt"].to_pylist()
    bufs = batch["bytes"].to_pylist()
    out_id, out_case, out_cnt = [], [], []
    for i in range(len(bufs)):
        img = decode_image(bufs[i], int(ws[i]), int(hs[i]), fmts[i])
        b = (_luma_fixed(img) > 127500).astype(np.int64)
        case = (b[:-1, :-1] + 2 * b[:-1, 1:]
                + 4 * b[1:, :-1] + 8 * b[1:, 1:]).reshape(-1)
        counts = np.bincount(case, minlength=16)
        for c in range(1, 16):
            if counts[c]:
                out_id.append(ids[i])
                out_case.append(c)
                out_cnt.append(int(counts[c]))
    return pa.table({
        "image_id": pa.array(out_id, pa.string()),
        "mcase": pa.array(out_case, pa.int64()),
        "cnt": pa.array(out_cnt, pa.int64()),
    })


# clockwise neighbor ring from top-left: bit j = 2^j at offset (dy, dx)
LBP_OFFS = [(-1, -1), (-1, 0), (-1, 1), (0, 1),
            (1, 1), (1, 0), (1, -1), (0, -1)]


class LBP(ImageHarness):
    """Image kernel: LOCAL BINARY PATTERNS — the classical
    texture descriptor.  Per interior pixel, an 8-bit code from
    neighbor >= center comparisons on the x1000 integer luma
    (clockwise ring from top-left); emits per image the interior
    count, code sum and destination-position-weighted code sum.
    Eight shifted views, no per-pixel Python."""

    COLUMNS = ("n_val", "code_sum", "code_possum")

    def kernel(self, img: np.ndarray) -> tuple:
        l = _luma_fixed(img)
        h, w = l.shape
        center = l[1:h - 1, 1:w - 1]
        code = np.zeros_like(center)
        for j, (dy, dx) in enumerate(LBP_OFFS):
            nb = l[1 + dy:h - 1 + dy, 1 + dx:w - 1 + dx]
            code += (nb >= center).astype(np.int64) << j
        return (code.size, *_sum_possum(code.reshape(-1)))


class Harris(ImageHarness):
    """Image kernel: HARRIS CORNER RESPONSE in exact integers —
    R16 = 16*(Sxx*Syy - Sxy^2) - (Sxx+Syy)^2 (k = 1/16) where S* are
    3x3 window sums of Sobel gradient products on the /1000 luma
    (0..255), valid over the interior-of-interior so the oracle needs
    no border model.  All intermediates bounded well inside int64
    (|R16| <= ~1.8e15, per-image sums <= ~3e18).  Emits per image the
    valid count, positive-response (corner) count, response sum and
    max.  Two passes of shifted views; embarrassingly parallel."""

    COLUMNS = ("n_val", "n_corners", "r_sum", "r_max")

    @staticmethod
    def _grad(g: np.ndarray):
        h, w = g.shape
        ix = np.zeros((h - 2, w - 2), np.int64)
        iy = np.zeros((h - 2, w - 2), np.int64)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                wx = dx * (2 - abs(dy))
                wy = dy * (2 - abs(dx))
                if wx == 0 and wy == 0:
                    continue
                view = g[1 + dy:h - 1 + dy, 1 + dx:w - 1 + dx]
                if wx:
                    ix += wx * view
                if wy:
                    iy += wy * view
        return ix, iy

    @staticmethod
    def _winsum(a: np.ndarray) -> np.ndarray:
        h, w = a.shape
        return sum(a[dy:h - 2 + dy, dx:w - 2 + dx]
                   for dy in range(3) for dx in range(3))

    def kernel(self, img: np.ndarray) -> tuple:
        g = _luma_fixed(img) // 1000
        ix, iy = self._grad(g)
        sxx = self._winsum(ix * ix)
        syy = self._winsum(iy * iy)
        sxy = self._winsum(ix * iy)
        r16 = 16 * (sxx * syy - sxy * sxy) - (sxx + syy) ** 2
        flat = r16.reshape(-1)
        return (flat.size, int((flat > 0).sum()), flat.sum(),
                flat.max() if flat.size else 0)

def make_tri_pcm(i: int, n_samples: int = 512, seed: int = 42) -> np.ndarray:
    """Deterministic INTEGER PCM with a real periodic component: a
    triangle wave of per-clip integer frequency plus bounded hash
    noise — pure integer arithmetic end to end so a SQL oracle
    regenerates every sample exactly (the pitch-detection analogue of
    make_silence_pcm).  v_t = |((t * f) % 2000) - 1000| + noise_t,
    f = 3 + base % 29, noise in [-100, 100]."""
    from ..sources.synth import _mix64

    base = _mix64(np.array([i], np.uint64) ^ np.uint64(seed * 9973))[0]
    f = np.int64(3 + int(base % np.uint64(29)))
    t = np.arange(n_samples, dtype=np.int64)
    tri = np.abs(((t * f) % 2000) - 1000)
    w = _mix64(base + t.astype(np.uint64))
    noise = (w % np.uint64(201)).astype(np.int64) - 100
    return tri + noise


class Pitch(ClipHarness):
    """Clip kernel: AUTOCORRELATION PITCH DETECTION in exact
    integers — per clip, the lag in [16, 128] maximizing the CENTERED
    autocorrelation sum(c_t * c_{t+lag}) with c_t = N*v_t - sum(v)
    (integer-scaled mean removal: the raw product of a positive-mean
    signal peaks at the smallest lag, not the period) over the
    triangle+noise PCM (make_tri_pcm), tie -> smallest lag; plus the
    centered zero-lag energy.  All products/sums bounded far inside
    int64 (|c| <= ~6e5, 512 terms -> <= ~2e14).  Per clip the lag
    sweep is a short vector of numpy dots — no per-sample Python;
    embarrassingly parallel."""

    N = 512
    LAG_LO, LAG_HI = 16, 128

    COLUMNS = ("best_lag", "best_score", "energy")

    def kernel(self, i: int) -> tuple:
        v = make_tri_pcm(i, self.N)
        c = self.N * v - v.sum()
        best_lag, best_score = -1, None
        for lag in range(self.LAG_LO, self.LAG_HI + 1):
            s = int(np.dot(c[: self.N - lag], c[lag:]))
            if best_score is None or s > best_score:
                best_lag, best_score = lag, s
        return best_lag, best_score, int(np.dot(c, c))


class Seam(ImageHarness):
    """Image kernel: MINIMUM VERTICAL SEAM COST (the seam-carving
    DP) over the x1000 integer luma — dp(y, x) = l(y, x) +
    min(dp(y-1, x-1..x+1)), edges clipped; per image the minimum
    bottom-row cost and its first (smallest-x) argmin column.  The DP
    is h vectorized row sweeps (shifted minimum), no per-pixel
    Python; exact int64 throughout (luma <= 255000 * 64 rows).
    Embarrassingly parallel."""

    BIG = np.int64(1) << 60

    COLUMNS = ("seam_cost", "end_x")

    def kernel(self, img: np.ndarray) -> tuple:
        l = _luma_fixed(img)
        dp = l[0].copy()
        for y in range(1, l.shape[0]):
            left = np.concatenate(([self.BIG], dp[:-1]))
            right = np.concatenate((dp[1:], [self.BIG]))
            dp = l[y] + np.minimum(dp, np.minimum(left, right))
        return dp.min(), int(np.argmin(dp))  # first min = smallest x


class DistTransform(ImageHarness):
    """Image kernel: L1 DISTANCE TRANSFORM saturated at 7 — per
    pixel the city-block distance to the nearest foreground pixel
    (luma > 127500), capped so the oracle's fixpoint is 6 bounded
    BFS rounds.  Each round is one vectorized 4-neighbor shifted min
    (pad = cap); emits per image the pixel count, distance sum and
    destination-position-weighted sum.  Embarrassingly parallel."""

    CAP = 7
    ROUNDS = 6

    COLUMNS = ("n_pix", "d_sum", "d_possum")

    def kernel(self, img: np.ndarray) -> tuple:
        fg = _luma_fixed(img) > 127500
        d = np.where(fg, 0, self.CAP).astype(np.int64)
        for _ in range(self.ROUNDS):
            p = np.pad(d, 1, constant_values=self.CAP)
            nb = np.minimum(
                np.minimum(p[:-2, 1:-1], p[2:, 1:-1]),
                np.minimum(p[1:-1, :-2], p[1:-1, 2:]))
            d = np.minimum(d, nb + 1)
        return (d.size, *_sum_possum(d.reshape(-1)))


def payload_dims(i: int) -> tuple[int, int]:
    """The payload table's deterministic dims ladder (synth.payload_batch)."""
    w = (16, 32, 64)[i % 3]
    h = (16, 32, 64)[(i + 1) % 3]
    return w, h


class HistMatch(ImageHarness):
    """Image kernel: HISTOGRAM MATCHING — remap each image's
    per-channel values so its histogram follows its partner image
    (j = i XOR 1, regenerated in the kernel from the deterministic
    payload ladder; sizes may differ).  Exact integer mapping rule:
    m(v) = min g with cdf_t(g) * n_s >= cdf_s(v) * n_t (cross-
    multiplied, no normalization floats), realized as one bincount +
    cumsum + searchsorted per channel.  Emits matched-value checksums
    (sum + destination-position-weighted).  Embarrassingly parallel —
    the partner is REGENERATED, not shuffled."""

    COLUMNS = ("n_pix", "m_sum", "m_possum")

    def row(self, image_id: str, src: np.ndarray) -> tuple:
        from ..sources.synth import make_image_bytes

        j = int(image_id[3:]) ^ 1
        wj, hj = payload_dims(j)
        tgt = decode_raw(make_image_bytes(j, wj, hj), wj, hj)
        n_s = np.int64(src.shape[0] * src.shape[1])
        n_t = np.int64(tgt.shape[0] * tgt.shape[1])
        flat_parts = []
        for c in range(3):
            hs_c = np.bincount(src[:, :, c].reshape(-1),
                               minlength=256).astype(np.int64)
            ht_c = np.bincount(tgt[:, :, c].reshape(-1),
                               minlength=256).astype(np.int64)
            cdf_s = np.cumsum(hs_c)
            cdf_t = np.cumsum(ht_c)
            # m(v) = min g: cdf_t[g] * n_s >= cdf_s[v] * n_t
            lut = np.searchsorted(cdf_t * n_s, cdf_s * n_t,
                                  side="left").astype(np.int64)
            flat_parts.append(lut[src[:, :, c].astype(np.int64)])
        m = np.stack(flat_parts, axis=2).reshape(-1)
        return (m.size, *_sum_possum(m))


NTT_P = 65537           # Fermat prime 2^16 + 1
NTT_N = 256
NTT_G = 3               # primitive root of NTT_P
NTT_W = pow(NTT_G, (NTT_P - 1) // NTT_N, NTT_P)  # order-256 root


def ntt256(a: np.ndarray) -> np.ndarray:
    """Exact 256-point number-theoretic transform mod 65537 over a
    (m, 256) int batch: X_k = sum_t a_t * w^(t*k) mod p.  Iterative
    radix-2 Cooley-Tukey (bit-reversed input), vectorized across the
    whole batch — verified against the definition in unit tests (the
    WHT playbook, stages/decode tests)."""
    m, n = a.shape
    assert n == NTT_N
    rev = np.zeros(n, np.int64)
    for i in range(n):
        rev[i] = int(format(i, "08b")[::-1], 2)
    a = (a.astype(np.int64) % NTT_P)[:, rev]
    ln = 2
    while ln <= n:
        wl = pow(NTT_W, n // ln, NTT_P)
        tw = np.array([pow(wl, j, NTT_P) for j in range(ln // 2)],
                      np.int64)
        a = a.reshape(m, n // ln, ln)
        u = a[:, :, : ln // 2]
        v = (a[:, :, ln // 2:] * tw) % NTT_P
        a = np.concatenate([(u + v) % NTT_P, (u - v) % NTT_P],
                           axis=2).reshape(m, n)
        ln *= 2
    return a


def ntt_spectrum(batch: pa.Table) -> pa.Table:
    """Exact modular spectrum — 256-point NTT mod 65537 of the integer
    triangle+noise PCM (first 256 samples of make_tri_pcm); emits the
    DC residue and plain/position-weighted residue checksums.  One
    vectorized butterfly per batch."""
    ids = batch["id"].to_numpy(zero_copy_only=False)
    pcm = np.stack([make_tri_pcm(int(i), NTT_N) for i in ids])
    x = ntt256(pcm)
    k = np.arange(NTT_N, dtype=np.int64)
    return pa.table({
        "clip_id": pa.array(
            [f"clip{int(i):09d}" for i in ids], pa.string()),
        "x0": pa.array(x[:, 0], pa.int64()),
        "xs": pa.array(x.sum(axis=1), pa.int64()),
        "xks": pa.array((x * k).sum(axis=1), pa.int64()),
    })


class Canny(ImageHarness):
    """Image kernel: CANNY EDGES, exact-integer formulation —
    Sobel on the /1000 luma, L1 gradient magnitude, direction-
    quantized non-maximum suppression (4 classes by integer
    comparisons: horizontal if 2|gy| <= |gx|, vertical if 2|gx| <=
    |gy|, else the diagonal matching sign(gx*gy); keep iff
    mag >= mag(nA) AND mag > mag(nB), nA = lower-coordinate
    neighbor, out-of-range = 0), double threshold (strong >= 400,
    weak >= 150), and BOUNDED hysteresis: weak pixels within 4
    8-connected dilation rounds of a strong pixel are promoted (the
    fixpoint bound keeps the oracle's recursion finite; documented).
    Per image: strong/weak/final-edge counts + edge possum.  All
    vectorized shifts; embarrassingly parallel."""

    TH_HI, TH_LO, ROUNDS = 400, 150, 4

    COLUMNS = ("n_strong", "n_weak", "n_edges", "edge_possum")

    def kernel(self, img: np.ndarray) -> tuple:
        g = _luma_fixed(img) // 1000
        gx, gy = Harris._grad(g)
        mag = np.abs(gx) + np.abs(gy)
        hh, ww = mag.shape
        # mag padded with 0 so border neighbors read 0
        p = np.pad(mag, 1, constant_values=0)

        def nb(dy, dx):
            return p[1 + dy:1 + dy + hh, 1 + dx:1 + dx + ww]

        agx, agy = np.abs(gx), np.abs(gy)
        horiz = 2 * agy <= agx
        vert = ~horiz & (2 * agx <= agy)
        diag_main = ~horiz & ~vert & (gx * gy > 0)   # "\" direction
        diag_anti = ~horiz & ~vert & ~diag_main      # "/" direction
        keep = np.zeros_like(mag, dtype=bool)
        for m, (ay, ax) in ((horiz, (0, -1)), (vert, (-1, 0)),
                            (diag_main, (-1, -1)), (diag_anti, (-1, 1))):
            na, nb_ = nb(ay, ax), nb(-ay, -ax)
            keep |= m & (mag >= na) & (mag > nb_)
        strong = keep & (mag >= self.TH_HI)
        weak = keep & (mag >= self.TH_LO) & (mag < self.TH_HI)
        lit = strong.copy()
        for _ in range(self.ROUNDS):
            q = np.pad(lit, 1, constant_values=False)
            dil = np.zeros_like(lit)
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dy or dx:
                        dil |= q[1 + dy:1 + dy + hh,
                                 1 + dx:1 + dx + ww]
            new = lit | (weak & dil)
            if new.sum() == lit.sum():
                lit = new
                break
            lit = new
        return (int(strong.sum()), int(weak.sum()),
                *_sum_possum(lit.reshape(-1).astype(np.int64)))
