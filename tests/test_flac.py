"""FLAC codec (stages/flac.py): roundtrip exactness, predictor
inverses, coded numbers, CRC/MD5 tamper detection, and hand-built
streams for decoder paths the encoder never emits (RICE2 method,
stereo decorrelation, 8-bit blocksize code)."""
import hashlib
import struct

import numpy as np
import pytest

import osm_replication_rust_ray.stages.flac as F
from osm_replication_rust_ray.stages.decode import make_audio_bytes
from osm_replication_rust_ray.stages.flac import decode_flac, encode_flac


def _payload(i: int, n: int = 4096) -> np.ndarray:
    return np.frombuffer(make_audio_bytes(i, n), "<i2")


@pytest.mark.parametrize("block_size", [192, 576, 1024, 4096, 1000])
def test_roundtrip_block_sizes(block_size):
    """Standard blocksize codes (192/576/1024/4096) and the 16-bit
    explicit-size code (1000), plus a short last frame each time."""
    pcm = _payload(11, 5000)
    out = decode_flac(encode_flac(pcm, block_size=block_size))
    assert out.dtype == np.int16
    assert np.array_equal(out, pcm)


@pytest.mark.parametrize(
    "pcm",
    [
        np.zeros(300, np.int16),                      # constant (zero)
        np.full(77, -32768, np.int16),                # constant (min int16)
        np.array([], np.int16),                       # empty stream
        np.array([5], np.int16),                      # single sample
        np.arange(-300, 300, dtype=np.int16),         # pure ramp
        (np.arange(1000) * 8 % 4096).astype(np.int16),  # 3 wasted bits
        np.random.RandomState(0)
        .randint(-32768, 32768, 4097)
        .astype(np.int16),                            # incompressible noise
    ],
)
def test_roundtrip_edge_cases(pcm):
    assert np.array_equal(decode_flac(encode_flac(pcm, block_size=512)), pcm)


def test_lpc_compresses_tonal_signal():
    """A mid-frequency sine must engage LPC and beat 0.35x — the best
    fixed predictor leaves ~0.8x here (at very LOW frequencies fixed
    order-4 legitimately wins: its residual is ~omega^4 * amplitude)."""
    t = np.arange(8192)
    sine = (np.sin(2 * np.pi * 0.1 * t) * 20000).astype(np.int16)
    buf = encode_flac(sine)
    assert np.array_equal(decode_flac(buf), sine)
    assert len(buf) < 0.35 * sine.nbytes
    no_lpc = encode_flac(sine, use_lpc=False)
    assert np.array_equal(decode_flac(no_lpc), sine)
    assert len(buf) < len(no_lpc)


def test_partitioned_rice_on_nonstationary_block():
    """Half silence + half noise in ONE block: partitioned rice must
    beat the best single-partition coding (verified by capping the
    encoder's partition order to 0)."""
    mix = np.concatenate(
        [np.zeros(2048, np.int16),
         np.random.RandomState(1).randint(-2000, 2000, 2048).astype(np.int16)]
    )
    buf = encode_flac(mix, block_size=4096)
    assert np.array_equal(decode_flac(buf), mix)
    orig = F._encode_residual

    def po0(bb, res, order, max_po=6):
        return orig(bb, res, order, max_po=0)

    F._encode_residual = po0
    try:
        flat = encode_flac(mix, block_size=4096)
    finally:
        F._encode_residual = orig
    assert np.array_equal(decode_flac(flat), mix)
    assert len(buf) < len(flat)


def test_streaminfo_md5_is_real():
    pcm = _payload(3, 3000)
    buf = encode_flac(pcm, block_size=1024)
    assert buf[:4] == b"fLaC"
    assert buf[8:12] != b"fLaC"
    md5 = buf[4 + 4 + 18 : 4 + 4 + 34]
    assert md5 == hashlib.md5(pcm.astype("<i2").tobytes()).digest()


def test_tamper_detection_everywhere():
    """Flipping any byte of any frame is caught by CRC-8/CRC-16; a
    forged STREAMINFO MD5 is caught by the decoder's MD5 check."""
    pcm = _payload(5, 3000)
    buf = encode_flac(pcm, block_size=1024)
    frames_start = 4 + 4 + 34
    step = max(1, (len(buf) - frames_start) // 40)
    for off in range(frames_start, len(buf), step):
        bad = bytearray(buf)
        bad[off] ^= 0x40
        with pytest.raises((ValueError, NotImplementedError)):
            decode_flac(bytes(bad))
    bad = bytearray(buf)
    bad[4 + 4 + 20] ^= 0xFF  # inside the MD5 field
    with pytest.raises(ValueError, match="MD5"):
        decode_flac(bytes(bad))


def test_coded_number_roundtrip():
    for n in [0, 1, 0x7F, 0x80, 0x7FF, 0x800, 0xFFFF, 0x10000,
              (1 << 31) - 1, (1 << 36) - 1]:
        buf = F._utf8_code(n)
        got, end = F._utf8_decode(buf, 0)
        assert got == n and end == len(buf)
    with pytest.raises(ValueError):
        F._utf8_code(1 << 36)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_fixed_predictor_inverse(order):
    s = np.random.RandomState(order).randint(-30000, 30000, 777).astype(np.int64)
    res = F._fixed_residual(s, order)
    assert np.array_equal(F._fixed_reconstruct(s[:order], res, order), s)


def test_lpc_inverse():
    t = np.arange(2048)
    s = (np.sin(0.07 * t) * 9000 + np.cos(0.011 * t) * 5000).astype(np.int64)
    qc, shift = F._lpc_coefs(s, 8, 12)
    res = F._lpc_residual(s, qc, shift)
    assert np.array_equal(F._lpc_reconstruct(s[:8], res, qc, shift), s)


# ---------------- hand-built streams: decoder-only paths ----------------

def _streaminfo(n_samples: int, channels: int, bps: int = 16) -> bytes:
    bb = F._BitBuf()
    for v, w in [(4096, 16), (4096, 16), (0, 24), (0, 24), (16000, 20),
                 (channels - 1, 3), (bps - 1, 5), (n_samples, 36)]:
        bb.append(v, w)
    body = bb.tobytes() + b"\0" * 16  # MD5 unknown -> decoder skips it
    return b"fLaC" + bytes([0x80]) + len(body).to_bytes(3, "big") + body


def _frame(ch_code: int, blocksize: int, subframes) -> bytes:
    """Minimal frame: 8-bit blocksize code (0b0110), verbatim subframes
    given as (samples, eff_bps) pairs."""
    hdr = bytearray()
    hdr += struct.pack(
        ">HBB", (0b11111111111110 << 2), (6 << 4) | 0,
        (ch_code << 4) | (4 << 1) | 0,
    )
    hdr += F._utf8_code(0)
    hdr.append(blocksize - 1)
    hdr.append(F._crc8(bytes(hdr)))
    bb = F._BitBuf()
    for samples, eff in subframes:
        bb.append(0, 1)
        bb.append(1, 6)  # VERBATIM
        bb.append(0, 1)
        bb.append_signed_array(np.asarray(samples, np.int64), eff)
    frame = bytes(hdr) + bb.tobytes()
    return frame + struct.pack(">H", F._crc16(frame))


def test_decode_stereo_decorrelation_modes():
    """left/side, right/side and mid/side streams reconstruct; the
    engine's deterministic downmix returns channel 0 (= left)."""
    rs = np.random.RandomState(7)
    left = rs.randint(-20000, 20000, 64).astype(np.int64)
    right = rs.randint(-20000, 20000, 64).astype(np.int64)
    side = left - right
    mid = (left + right) >> 1
    cases = {
        1: [(left, 16), (right, 16)],           # independent stereo
        8: [(left, 16), (side, 17)],            # left/side
        9: [(side, 17), (right, 16)],           # right/side
        10: [(mid, 16), (side, 17)],            # mid/side
    }
    for ch_code, subs in cases.items():
        buf = _streaminfo(64, 2) + _frame(ch_code, 64, subs)
        got = decode_flac(buf)
        assert np.array_equal(got, left.astype(np.int16)), f"mode {ch_code}"


def test_decode_rice2_and_deep_partitions():
    """Method RICE2 (5-bit parameters) with partition order 2 and an
    escaped raw partition — none of which the encoder emits."""
    blocksize, order = 64, 0
    sig = np.random.RandomState(3).randint(-100, 100, blocksize).astype(np.int64)
    hdr = bytearray()
    hdr += struct.pack(
        ">HBB", (0b11111111111110 << 2), (6 << 4) | 0, (0 << 4) | (4 << 1)
    )
    hdr += F._utf8_code(0)
    hdr.append(blocksize - 1)
    hdr.append(F._crc8(bytes(hdr)))
    bb = F._BitBuf()
    bb.append(0, 1)
    bb.append(0b001000 | order, 6)  # FIXED order 0
    bb.append(0, 1)
    bb.append(1, 2)   # method RICE2
    bb.append(2, 4)   # partition order 2 -> 4 partitions of 16
    parts = np.split(sig, 4)
    bb.append(7, 5)   # partition 0: rice2 k=7
    bb.append_rice_array(parts[0], 7)
    bb.append(0b11111, 5)  # partition 1: escape, raw 9-bit
    bb.append(9, 5)
    bb.append_signed_array(parts[1], 9)
    bb.append(0, 5)   # partition 2: k=0
    bb.append_rice_array(parts[2], 0)
    bb.append(0b11111, 5)  # partition 3: escape, raw width 0 == all zero
    bb.append(0, 5)
    sig[48:] = 0
    frame = bytes(hdr) + bb.tobytes()
    frame += struct.pack(">H", F._crc16(frame))
    got = decode_flac(_streaminfo(blocksize, 1) + frame)
    assert np.array_equal(got, sig.astype(np.int16))


def test_decode_audio_routes_flac():
    from osm_replication_rust_ray.stages.decode import decode_audio

    pcm = _payload(9, 2048)
    assert np.array_equal(decode_audio(encode_flac(pcm), "flac"), pcm)
    with pytest.raises(NotImplementedError):
        decode_audio(b"xxxx", "mp3")


def test_audio_ops_actor_flac_features_match_pcm16(ray_session):
    """audio_ops over FLAC payloads produces IDENTICAL features to
    the same PCM routed as raw pcm16 — lossless end to end through the
    map_batches plumbing."""
    import pyarrow as pa
    import ray.data as rd

    from osm_replication_rust_ray.stages.decode import audio_ops

    rows_flac, rows_pcm = [], []
    for i in range(24):
        pcm = _payload(i, 2048 + 256 * (i % 3))
        rows_flac.append(
            {"clip_id": f"c{i}", "bytes": encode_flac(pcm), "fmt": "flac"}
        )
        rows_pcm.append(
            {"clip_id": f"c{i}", "bytes": pcm.tobytes(), "fmt": "pcm16"}
        )

    def run(rows):
        ds = rd.from_arrow(pa.Table.from_pylist(rows))
        out = ds.map_batches(audio_ops, batch_format="pyarrow", batch_size=8)
        return out.to_pandas().sort_values("clip_id").reset_index(drop=True)

    a, b = run(rows_flac), run(rows_pcm)
    assert a.equals(b)


def test_stereo_encode_decorrelation_modes():
    """Stereo encoder: every frame picks the cheapest of the four
    channel assignments by exact bit cost; roundtrip is bit-exact in
    both return shapes, the interleaved MD5 verifies, and content
    drives the expected mode (identical channels -> a side mode with a
    constant zero side; independent noise -> independent)."""
    rng = np.random.RandomState(0)
    t = np.arange(6000)

    def first_mode(buf):
        pos = 4
        while True:
            last = buf[pos] >> 7
            ln = int.from_bytes(buf[pos + 1:pos + 4], "big")
            pos += 4 + ln
            if last:
                break
        return buf[pos + 3] >> 4

    ident = np.stack([np.sin(0.1 * t) * 9000] * 2, -1).astype(np.int16)
    indep = rng.randint(-30000, 30000, (6000, 2)).astype(np.int16)
    corr = np.stack(
        [np.sin(0.1 * t) * 9000,
         np.sin(0.1 * t) * 9000 + rng.randint(-60, 60, 6000)], -1
    ).astype(np.int16)
    for st in (ident, indep, corr):
        buf = encode_flac(st, block_size=1024)
        assert np.array_equal(decode_flac(buf, all_channels=True), st)
        assert np.array_equal(decode_flac(buf), st[:, 0])
    assert first_mode(encode_flac(ident, block_size=1024)) in (8, 9, 10)
    assert first_mode(encode_flac(indep, block_size=1024)) == 1
    # decorrelation pays: identical channels compress ~an order better
    assert len(encode_flac(ident)) < 0.2 * ident.nbytes
    # stereo MD5 integrity: flip a byte inside a frame
    buf = bytearray(encode_flac(corr, block_size=1024))
    buf[-40] ^= 0x10
    with pytest.raises(ValueError):
        decode_flac(bytes(buf))
