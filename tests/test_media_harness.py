"""The per-image and per-clip row harnesses of stages/decode.py: output
schema and row order for every kernel on them, hand-computable values
for the kernels without their own unit test, and the codec table of
``decode_image``."""

import importlib

import numpy as np
import pyarrow as pa
import pytest

from osm_replication_rust_ray.sources.synth import payload_batch
from osm_replication_rust_ray.stages import decode as D

IMAGE_KERNELS = [
    D.HistEq, D.Morph, D.MedianFilter, D.Conv,
    D.Otsu, D.Blob, D.Blend, D.DominantColor,
    D.Moments, D.Dither, D.Hough, D.LBP,
    D.Harris, D.Seam, D.DistTransform, D.HistMatch,
    D.Canny,
]
CLIP_KERNELS = [
    D.SilenceSegments, D.Pitch, D.AdpcmRoundtrip,
    D.G711Roundtrip, D.FlacRoundtrip,
]


def test_tables_list_every_harness_actor():
    def kernels(base):
        return {c for c in vars(D).values()
                if isinstance(c, type) and issubclass(c, base) and c is not base}

    assert kernels(D.ImageHarness) == set(IMAGE_KERNELS)
    assert kernels(D.ClipHarness) == set(CLIP_KERNELS)


def _same_schema(a: pa.Table, b: pa.Table):
    assert a.column_names == b.column_names
    assert [f.type for f in a.schema] == [f.type for f in b.schema]


def _test_id(kernel) -> str:
    """The kernel's class name with the ``Actor`` suffix it carried
    while the kernels ran as actor pools, so test ids stay comparable
    across that rename."""
    return kernel.__name__ + "Actor"


@pytest.mark.parametrize("kernel", IMAGE_KERNELS, ids=_test_id)
def test_image_actor_schema_and_row_order(kernel):
    batch = payload_batch(np.arange(6)).take([3, 0, 5, 1, 4, 2])
    full = kernel()(batch)
    empty = kernel()(batch.slice(0, 0))
    _same_schema(full, empty)
    assert empty.num_rows == 0
    assert full.column_names == ["image_id", *kernel.COLUMNS]
    assert full["image_id"].to_pylist() == batch["image_id"].to_pylist()


@pytest.mark.parametrize("kernel", CLIP_KERNELS, ids=_test_id)
def test_clip_actor_schema_and_row_order(kernel):
    ids = pa.table({"id": pa.array([4, 0, 5, 2, 1, 3], pa.int64())})
    full = kernel()(ids)
    empty = kernel()(ids.slice(0, 0))
    _same_schema(full, empty)
    assert empty.num_rows == 0
    assert full.column_names == ["clip_id", *kernel.COLUMNS]
    assert full["clip_id"].to_pylist() == [
        f"clip{i:09d}" for i in (4, 0, 5, 2, 1, 3)]


def _raw_batch(img: np.ndarray) -> pa.Table:
    h, w, _ = img.shape
    return pa.table({
        "image_id": pa.array(["img000000007"], pa.string()),
        "w": pa.array([w], pa.int32()),
        "h": pa.array([h], pa.int32()),
        "fmt": pa.array(["raw"], pa.string()),
        "bytes": pa.array([img.astype(np.uint8).tobytes()], pa.binary()),
    })


def _checksums(values) -> tuple[int, int]:
    """Sum and (index + 1)-weighted sum, in Python ints."""
    vals = [int(v) for v in values]
    return sum(vals), sum((k + 1) * v for k, v in enumerate(vals))


H, W = 9, 12
COLOUR = (10, 200, 77)
SOLID = np.broadcast_to(np.array(COLOUR, np.uint8), (H, W, 3))


def test_hist_eq_of_a_constant_image_is_zero():
    grey = np.full((H, W, 3), 137, np.uint8)
    row = D.HistEq()(_raw_batch(grey)).to_pylist()[0]
    assert row["n_px"] == H * W * 3
    assert row["eq_sum"] == 0 and row["eq_possum"] == 0


def test_morph_of_a_constant_image_is_the_constant():
    row = D.Morph()(_raw_batch(SOLID)).to_pylist()[0]
    s, ps = _checksums(SOLID.reshape(-1))
    assert row["n_px"] == H * W * 3
    assert (row["ero_sum"], row["ero_possum"]) == (s, ps)
    assert (row["dil_sum"], row["dil_possum"]) == (s, ps)


def test_median_of_a_constant_image_is_the_constant():
    row = D.MedianFilter()(_raw_batch(SOLID)).to_pylist()[0]
    interior = SOLID[1:-1, 1:-1].reshape(-1)
    assert row["n_val"] == (H - 2) * (W - 2) * 3
    assert (row["med_sum"], row["med_possum"]) == _checksums(interior)


def test_blend_of_a_constant_image_matches_closed_form():
    a = D.Blend.ALPHA
    want = [(a * COLOUR[c] + (256 - a) * ((x * 7 + y * 13 + c * 29) % 256)) // 256
            for y in range(H) for x in range(W) for c in range(3)]
    row = D.Blend()(_raw_batch(SOLID)).to_pylist()[0]
    assert row["n_px"] == H * W * 3
    assert (row["blend_sum"], row["blend_possum"]) == _checksums(want)


CLIP = 7
CLIP_N = 3000 + (CLIP % 5) * 512  # 4024 samples


def _clip_row(kernel) -> dict:
    out = kernel(pa.table({"id": pa.array([CLIP], pa.int64())}))
    return out.to_pylist()[0]


def test_adpcm_roundtrip_one_clip():
    row = _clip_row(D.AdpcmRoundtrip())
    blocks = -(-CLIP_N // 505)  # 505 samples per 256-byte block
    assert row == {"clip_id": "clip000000007", "n_samples": CLIP_N,
                   "n_blocks": blocks, "wav_bytes": 60 + blocks * 256,
                   "snr_ok": True}


def test_g711_roundtrip_one_clip():
    row = _clip_row(D.G711Roundtrip())
    assert row == {"clip_id": "clip000000007", "law": "alaw",
                   "n_samples": CLIP_N, "wav_bytes": 58 + CLIP_N,
                   "snr_ok": True, "requant_ok": True}


def test_flac_roundtrip_one_clip():
    row = _clip_row(D.FlacRoundtrip())
    assert row == {"clip_id": "clip000000007", "n_samples": CLIP_N,
                   "n_frames": -(-CLIP_N // D.FlacRoundtrip.BLOCK_SIZE),
                   "lossless_ok": True}


@pytest.mark.parametrize("fmt", D._CODECS)
def test_decode_image_codec_table(fmt):
    rng = np.random.default_rng(5)
    img = rng.integers(0, 256, (6, 10, 3), dtype=np.uint8)
    if fmt == "gif":
        from osm_replication_rust_ray.stages.gif import posterize216

        img = posterize216(img)  # gif is lossless on <= 256 colours
    codec = importlib.import_module(f"osm_replication_rust_ray.stages.{fmt}")
    buf = getattr(codec, f"encode_{fmt}")(img)
    got = D.decode_image(buf, 10, 6, fmt)
    assert got.shape == img.shape
    if fmt != "jpeg":
        assert np.array_equal(got, img)
    with pytest.raises(ValueError, match=rf"^{fmt} decoded \(6, 10\) != \(10, 6\)$"):
        D.decode_image(buf, 6, 10, fmt)


@pytest.mark.parametrize("fmt", ["avif", "decode", "..png", "os", "", None])
def test_decode_image_rejects_names_outside_the_table(fmt):
    with pytest.raises(NotImplementedError, match="not available"):
        D.decode_image(b"\x00" * 16, 2, 2, fmt)
