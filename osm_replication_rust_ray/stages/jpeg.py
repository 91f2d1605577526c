"""Real baseline JPEG codec — pure numpy + stdlib, no image library.

Like the PNG codec (stages/png.py), this un-stubs a format round 2
called unbuildable without an image library: baseline sequential JPEG
(ITU T.81) is buildable from public knowledge alone.  Scope:

- encode: 8-bit RGB -> JFIF 4:4:4 baseline (YCbCr transform, 8x8
  DCT-II via an orthogonal matrix product, Annex-K quantization
  tables scaled by the IJG quality formula, zigzag, DC differential +
  AC run-length, standard Annex-K Huffman tables, byte stuffing).
- decode: marker walk, DQT (8- and 16-bit tables) / DHT / SOF0 / DRI /
  SOS parse, entropy decode with restart-marker resynchronization,
  dequantize, IDCT, YCbCr->RGB, crop to the SOF dimensions.

Progressive JPEG (SOF2, T.81 Annex G, Huffman) is supported on both
sides: the encoder emits a successive-approximation scan script (DC
first/refine interleaved, AC first/refine per component with EOB
runs and buffered correction bits); the decoder accumulates any
legal scan script into per-component coefficient arrays.  Chroma
subsampling (4:2:0 / 4:2:2) is supported on both sides of BOTH paths
(generalized MCU lattice; progressive AC scans walk each component's
true block raster per spec; box downsample / replication upsample),
and ``optimize=True`` runs the Annex-K.2 two-pass optimal Huffman
construction on either encoder.  Arithmetic-coded /
hierarchical / lossless processes and sampling factors beyond 2
raise ``NotImplementedError`` — the explicit gating used for formats
whose only path is an external library.  This codec IS lossy: it is
what makes the north-star per-row "PSNR >= 40 dB for lossy formats"
invariant meaningful (the RLE stand-in is lossless).

The per-block Python loops are deliberate: this is a reference-grade
codec used inside actor-pool `map_batches` stages over small payloads,
not a bulk-throughput path; the DCT/quantization math is vectorized
per image (all blocks at once), only the entropy coder walks blocks.
"""

from __future__ import annotations

import struct

import numpy as np

ZIGZAG = np.array([
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
], np.int64)

# ITU T.81 Annex K.1 quantization tables (raster order)
Q_LUM = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99,
], np.int64)
Q_CHROM = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
], np.int64)

# Annex K.3 Huffman specs: (bits[1..16] counts, symbol values)
DC_LUM = ([0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0], list(range(12)))
DC_CHROM = ([0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0], list(range(12)))
AC_LUM = (
    [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D],
    [
        0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41,
        0x06, 0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91,
        0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24,
        0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A,
        0x25, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38,
        0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53,
        0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66,
        0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
        0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93,
        0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
        0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7,
        0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
        0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1,
        0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2,
        0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
    ],
)
AC_CHROM = (
    [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77],
    [
        0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12,
        0x41, 0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14,
        0x42, 0x91, 0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15,
        0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17,
        0x18, 0x19, 0x1A, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37,
        0x38, 0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A,
        0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65,
        0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
        0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A,
        0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
        0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5,
        0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
        0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9,
        0xDA, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2,
        0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
    ],
)


def _dct_matrix() -> np.ndarray:
    n = np.arange(8)
    u = n[:, None]
    c = np.full(8, 0.5)
    c[0] = 0.5 / np.sqrt(2.0)
    return c[:, None] * np.cos((2 * n[None, :] + 1) * u * np.pi / 16.0)


_C = _dct_matrix()  # orthogonal: forward F = C f C^T, inverse f = C^T F C


def _quality_tables(quality: int) -> tuple[np.ndarray, np.ndarray]:
    quality = min(100, max(1, int(quality)))
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    out = []
    for q in (Q_LUM, Q_CHROM):
        s = (q * scale + 50) // 100
        out.append(np.clip(s, 1, 255).astype(np.int64))
    return out[0], out[1]


def _build_huffman(bits, vals, decode: bool = False):
    """Canonical codes from (count-per-length, values).  Encode form:
    {symbol: (code, length)}; decode form: {(length, code): symbol}."""
    code, k, table = 0, 0, {}
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            if decode:
                table[(length, code)] = vals[k]
            else:
                table[vals[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return table


class _BitWriter:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.n = 0

    def write(self, value: int, nbits: int):
        if nbits == 0:
            return
        self.acc = (self.acc << nbits) | (value & ((1 << nbits) - 1))
        self.n += nbits
        while self.n >= 8:
            b = (self.acc >> (self.n - 8)) & 0xFF
            self.out.append(b)
            if b == 0xFF:  # byte stuffing
                self.out.append(0x00)
            self.n -= 8
        self.acc &= (1 << self.n) - 1

    def flush(self):
        if self.n:
            self.write(0x7F, 8 - self.n)  # pad with 1s


class _BitReader:
    def __init__(self, data: bytes, pos: int):
        self.data = data
        self.pos = pos
        self.acc = 0
        self.n = 0

    def read_bit(self) -> int:
        if self.n == 0:
            if self.pos >= len(self.data):
                raise ValueError("truncated JPEG entropy stream")
            b = self.data[self.pos]
            self.pos += 1
            if b == 0xFF:
                nxt = self.data[self.pos] if self.pos < len(self.data) else None
                if nxt == 0x00:
                    self.pos += 1  # stuffed byte
                else:
                    raise ValueError("unexpected marker inside entropy stream")
            self.acc = b
            self.n = 8
        self.n -= 1
        return (self.acc >> self.n) & 1

    def read_bits(self, k: int) -> int:
        v = 0
        for _ in range(k):
            v = (v << 1) | self.read_bit()
        return v

    def sync_restart(self, idx: int):
        """Discard the current byte's padding bits and consume the
        expected RSTn marker (FF D0+idx), resetting bit state."""
        self.n = 0  # drop padding bits of the partially-read byte
        if self.pos + 2 > len(self.data):
            raise ValueError("truncated JPEG at restart marker")
        if self.data[self.pos] != 0xFF or self.data[self.pos + 1] != 0xD0 + idx:
            raise ValueError(
                f"expected RST{idx} marker at byte {self.pos}, got "
                f"{self.data[self.pos:self.pos + 2].hex()}"
            )
        self.pos += 2

    def read_symbol(self, table: dict) -> int:
        code, length = 0, 0
        while length < 16:
            code = (code << 1) | self.read_bit()
            length += 1
            sym = table.get((length, code))
            if sym is not None:
                return sym
        raise ValueError("invalid Huffman code")


def _category(v: int) -> int:
    return int(abs(v)).bit_length()


def _blocks(plane: np.ndarray) -> np.ndarray:
    """(H, W) padded plane -> (n_blocks, 8, 8) in raster MCU order."""
    h, w = plane.shape
    return (
        plane.reshape(h // 8, 8, w // 8, 8)
        .transpose(0, 2, 1, 3)
        .reshape(-1, 8, 8)
    )


_SUBSAMPLING = {  # per-component (h, v) sampling factors
    "444": ((1, 1), (1, 1), (1, 1)),
    "422": ((2, 1), (1, 1), (1, 1)),
    "420": ((2, 2), (1, 1), (1, 1)),
}


def _box_downsample(plane: np.ndarray, fx: int, fy: int) -> np.ndarray:
    """Mean over fx x fy boxes (edge-padded to a multiple first)."""
    if fx == 1 and fy == 1:
        return plane
    h, w = plane.shape
    p = np.pad(plane, ((0, -h % fy), (0, -w % fx)), mode="edge")
    return p.reshape(p.shape[0] // fy, fy, p.shape[1] // fx, fx).mean((1, 3))


def _comp_coefficients(img: np.ndarray, quality: int,
                       subsampling: str = "444"):
    """RGB -> per-component quantized zigzag-order DCT coefficients in
    MCU-lattice raster order (shared by the baseline and progressive
    encoders).  Chroma planes are box-averaged down by the sampling
    ratio and padded to the full MCU lattice."""
    img = np.asarray(img, np.uint8)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("encoder expects (h, w, 3) RGB")
    factors = _SUBSAMPLING[subsampling]
    hmax = max(f[0] for f in factors)
    vmax = max(f[1] for f in factors)
    h, w = img.shape[:2]
    mcus_x = -(-w // (8 * hmax))
    mcus_y = -(-h // (8 * vmax))
    qy, qc = _quality_tables(quality)
    # JFIF YCbCr
    f = img.astype(np.float64)
    r, g, b = f[..., 0], f[..., 1], f[..., 2]
    planes = [
        0.299 * r + 0.587 * g + 0.114 * b,
        128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b,
        128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b,
    ]
    comp_coefs = []
    for ci, plane in enumerate(planes):
        hs, vs = factors[ci]
        p = _box_downsample(plane, hmax // hs, vmax // vs)
        th, tw = mcus_y * vs * 8, mcus_x * hs * 8
        p = np.pad(
            p, ((0, th - p.shape[0]), (0, tw - p.shape[1])), mode="edge"
        ) - 128.0
        blk = _blocks(p)
        coef = np.einsum("ij,njk,lk->nil", _C, blk, _C)
        q = (qy if ci == 0 else qc).reshape(8, 8).astype(np.float64)
        comp_coefs.append(
            np.round(coef / q).astype(np.int64).reshape(-1, 64)[:, ZIGZAG]
        )
    return h, w, qy, qc, comp_coefs


class _NullWriter:
    """Bit sink for the symbol-counting pass (two-pass optimal
    Huffman): same interface as _BitWriter, writes nothing."""

    def __init__(self):
        self.out = bytearray()

    def write(self, value: int, nbits: int):
        pass

    def flush(self):
        pass


class _FreqTab:
    """Huffman-table stand-in that counts symbol lookups; the emitters
    then run unchanged for the counting pass."""

    def __init__(self):
        self.freq: dict[int, int] = {}

    def __getitem__(self, sym: int):
        self.freq[sym] = self.freq.get(sym, 0) + 1
        return (0, 0)

    def __len__(self):
        return 2  # looks non-degenerate to len()-based fast paths


def _optimal_table(freq: dict[int, int]) -> tuple[list[int], list[int]]:
    """T.81 Annex K.2/K.3: optimal JPEG Huffman spec (BITS, HUFFVAL)
    from symbol frequencies — codesize computation with the `others`
    chains, 16-bit length adjustment, reserved-symbol removal (the
    all-ones code stays unused)."""
    f = [0] * 257
    for s, c in freq.items():
        f[s] = c
    f[256] = 1  # reserved: guarantees the all-1s code is never assigned
    codesize = [0] * 257
    others = [-1] * 257
    while True:
        v1 = v2 = -1
        least = None
        for i in range(257):  # ties -> larger symbol (per libjpeg/K.2)
            if f[i] > 0 and (least is None or f[i] <= least):
                least = f[i]
                v1 = i
        least = None
        for i in range(257):
            if f[i] > 0 and i != v1 and (least is None or f[i] <= least):
                least = f[i]
                v2 = i
        if v2 < 0:
            break
        f[v1] += f[v2]
        f[v2] = 0
        codesize[v1] += 1
        while others[v1] >= 0:
            v1 = others[v1]
            codesize[v1] += 1
        others[v1] = v2
        codesize[v2] += 1
        while others[v2] >= 0:
            v2 = others[v2]
            codesize[v2] += 1
    bits = [0] * 33
    for i in range(257):
        if codesize[i]:
            bits[codesize[i]] += 1
    for i in range(32, 16, -1):  # Annex K.3: limit code lengths to 16
        while bits[i] > 0:
            j = i - 2
            while bits[j] == 0:
                j -= 1
            bits[i] -= 2
            bits[i - 1] += 1
            bits[j + 1] += 2
            bits[j] -= 1
    i = 16
    while i > 0 and bits[i] == 0:
        i -= 1
    bits[i] -= 1  # remove the reserved symbol's code
    vals = [s for s in sorted(range(256), key=lambda s: (codesize[s], s))
            if codesize[s]]
    return bits[1:17], vals


def _emit_block(bw: _BitWriter, dc_tab: dict, ac_tab: dict,
                zz: np.ndarray, pred: int) -> int:
    """Baseline entropy coding of one block; returns the new DC pred."""
    diff = int(zz[0]) - pred
    cat = _category(diff)
    code, ln = dc_tab[cat]
    bw.write(code, ln)
    if cat:
        bw.write(diff if diff > 0 else diff + (1 << cat) - 1, cat)
    run = 0
    nz = np.nonzero(zz[1:])[0]
    last = nz[-1] + 1 if len(nz) else 0
    for k in range(1, last + 1):
        v = int(zz[k])
        if v == 0:
            run += 1
            continue
        while run > 15:
            code, ln = ac_tab[0xF0]  # ZRL
            bw.write(code, ln)
            run -= 16
        cat = _category(v)
        code, ln = ac_tab[(run << 4) | cat]
        bw.write(code, ln)
        bw.write(v if v > 0 else v + (1 << cat) - 1, cat)
        run = 0
    if last < 63:
        code, ln = ac_tab[0x00]  # EOB
        bw.write(code, ln)
    return int(zz[0])


def encode_jpeg(img: np.ndarray, quality: int = 90,
                restart_interval: int = 0,
                subsampling: str = "444",
                optimize: bool = False) -> bytes:
    """8-bit RGB (h, w, 3) -> baseline JFIF JPEG bytes.

    ``restart_interval`` > 0 emits a DRI segment and RST0-7 markers
    every that many MCUs (byte-aligned, DC predictors reset).
    ``subsampling`` selects the chroma layout: "444" (default,
    lossless chroma placement), "422" (2x1) or "420" (2x2) with
    box-average downsampling — the layouts real camera/libjpeg files
    use.  ``optimize`` runs the two-pass Annex-K.2 optimal Huffman
    construction (count symbols with a null writer, rebuild tables,
    emit) instead of the fixed Annex-K tables."""
    factors = _SUBSAMPLING[subsampling]
    h, w, qy, qc, comp_coefs = _comp_coefficients(img, quality, subsampling)
    hmax = max(f[0] for f in factors)
    vmax = max(f[1] for f in factors)
    mcus_x = -(-w // (8 * hmax))
    mcus_y = -(-h // (8 * vmax))

    def scan_pass(bw, enc_dc, enc_ac):
        pred = [0, 0, 0]
        m = 0
        for my in range(mcus_y):
            for mx in range(mcus_x):
                if restart_interval and m and m % restart_interval == 0:
                    bw.flush()  # pad to byte with 1s (stuffing-aware)
                    bw.out += bytes(
                        (0xFF, 0xD0 + (m // restart_interval - 1) % 8)
                    )
                    pred = [0, 0, 0]
                m += 1
                for ci in range(3):
                    t = 0 if ci == 0 else 1
                    hs, vs = factors[ci]
                    cols_b = mcus_x * hs
                    for by in range(vs):
                        for bx in range(hs):
                            bi = (my * vs + by) * cols_b + (mx * hs + bx)
                            pred[ci] = _emit_block(
                                bw, enc_dc[t], enc_ac[t],
                                comp_coefs[ci][bi], pred[ci],
                            )

    if optimize:
        fdc = [_FreqTab(), _FreqTab()]
        fac = [_FreqTab(), _FreqTab()]
        scan_pass(_NullWriter(), fdc, fac)
        dc_specs = [_optimal_table(f.freq) for f in fdc]
        ac_specs = [_optimal_table(f.freq) for f in fac]
    else:
        dc_specs = [DC_LUM, DC_CHROM]
        ac_specs = [AC_LUM, AC_CHROM]
    enc_dc = [_build_huffman(*s) for s in dc_specs]
    enc_ac = [_build_huffman(*s) for s in ac_specs]
    bw = _BitWriter()
    scan_pass(bw, enc_dc, enc_ac)
    bw.flush()
    out = bytearray(b"\xff\xd8")  # SOI
    out += b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    for tid, q in ((0, qy), (1, qc)):
        out += b"\xff\xdb" + struct.pack(">HB", 67, tid) + bytes(
            q[ZIGZAG].astype(np.uint8)
        )
    out += b"\xff\xc0" + struct.pack(">HBHHB", 17, 8, h, w, 3)
    for (cid, qid), (hs, vs) in zip(((1, 0), (2, 1), (3, 1)), factors):
        out += bytes((cid, (hs << 4) | vs, qid))
    for cls, tid, (bits, vals) in (
        (0, 0, dc_specs[0]), (0, 1, dc_specs[1]),
        (1, 0, ac_specs[0]), (1, 1, ac_specs[1]),
    ):
        out += b"\xff\xc4" + struct.pack(">HB", 19 + len(vals), (cls << 4) | tid)
        out += bytes(bits) + bytes(vals)
    if restart_interval:
        out += b"\xff\xdd" + struct.pack(">HH", 4, restart_interval)
    out += b"\xff\xda" + struct.pack(">HB", 12, 3)
    for cid, tids in ((1, 0x00), (2, 0x11), (3, 0x11)):
        out += bytes((cid, tids))
    out += b"\x00\x3f\x00"
    out += bw.out
    out += b"\xff\xd9"  # EOI
    return bytes(out)


# complete AC Huffman table for progressive scans: every RS symbol
# (incl. the EOBn codes 0x10..0xE0 that Annex K's baseline AC tables
# lack) gets a code; 254 8-bit + 2 9-bit codes leaves the all-ones
# code unused per T.81 convention.  Reference-grade: fixed-length
# codes trade compression for simplicity, exactly like the per-block
# entropy loops (an optimal two-pass table is an encoder upgrade, not
# a format requirement — any complete table is spec-valid).
PROG_AC = ([0, 0, 0, 0, 0, 0, 0, 254, 2, 0, 0, 0, 0, 0, 0, 0],
           list(range(256)))


class _ProgScanWriter:
    """Entropy writer for one progressive AC scan: owns the EOB-run
    accumulator and the buffered correction bits that T.81 G.1.2.2-3
    attach to the NEXT emitted symbol / EOB flush."""

    def __init__(self, bw: _BitWriter, ac_tab: dict):
        self.bw = bw
        self.ac = ac_tab
        self.eobrun = 0
        self.be: list[int] = []  # correction bits buffered behind an EOB run

    def emit_pending(self, bits: list[int]):
        for b in bits:
            self.bw.write(b, 1)

    def flush_eob(self):
        if self.eobrun:
            r = self.eobrun.bit_length() - 1
            code, ln = self.ac[r << 4]
            self.bw.write(code, ln)
            if r:
                self.bw.write(self.eobrun - (1 << r), r)
            self.eobrun = 0
        self.emit_pending(self.be)
        self.be = []


def _emit_ac_first(w: _ProgScanWriter, band: np.ndarray, al: int):
    """One block's AC-first-scan coding of band (zigzag Ss..Se)."""
    v = band
    t = np.where(v >= 0, v >> al, -((-v) >> al))  # magnitude point transform
    nz = np.flatnonzero(t)
    if len(nz) == 0:
        w.eobrun += 1
        if w.eobrun == 0x7FFF:
            w.flush_eob()
        return
    w.flush_eob()
    bw, ac = w.bw, w.ac
    r = 0
    last = nz[-1]
    for k in range(last + 1):
        val = int(t[k])
        if val == 0:
            r += 1
            continue
        while r > 15:
            code, ln = ac[0xF0]
            bw.write(code, ln)
            r -= 16
        cat = _category(val)
        code, ln = ac[(r << 4) | cat]
        bw.write(code, ln)
        bw.write(val if val > 0 else val + (1 << cat) - 1, cat)
        r = 0
    if last < len(band) - 1:  # trailing zeros: this block starts an EOB run
        w.eobrun = 1


def _emit_ac_refine(w: _ProgScanWriter, band: np.ndarray, al: int):
    """One block's AC-refinement coding (Ah = Al + 1): newly
    significant coefficients as (run, 1) + sign, correction bits of
    already-nonzero coefficients buffered behind each symbol."""
    v = band
    absv = np.abs(v)
    t = absv >> al
    history = (absv >> (al + 1)) != 0
    newly = np.flatnonzero((t != 0) & ~history)
    bw, ac = w.bw, w.ac
    if len(newly) == 0:
        w.eobrun += 1
        w.be.extend(int(b) for b in (t[history] & 1))
        if w.eobrun == 0x7FFF:
            w.flush_eob()
        return
    w.flush_eob()
    r = 0
    pending: list[int] = []
    last = newly[-1]
    for k in range(last + 1):
        if t[k] == 0:  # zero-history position that stays zero
            r += 1
            continue
        # ANY nonzero resolves pending ZRLs first: the decoder's walk
        # for each symbol skips at most 15 zeros, so the correction
        # bits of history coefficients belong to the window of the
        # symbol whose 16-zero (ZRL) or r-zero run covers them
        while r > 15:
            code, ln = ac[0xF0]
            bw.write(code, ln)
            w.emit_pending(pending)
            pending = []
            r -= 16
        if history[k]:  # already-significant: one correction bit
            pending.append(int(t[k]) & 1)
            continue
        # newly significant: magnitude is exactly 1 at this Al
        code, ln = ac[(r << 4) | 1]
        bw.write(code, ln)
        bw.write(1 if v[k] > 0 else 0, 1)
        w.emit_pending(pending)
        pending = []
        r = 0
    # the final loop iteration emitted the last newly-significant
    # symbol, which flushed pending
    assert not pending
    if last < len(band) - 1:  # remainder forms (starts) an EOB run
        w.eobrun = 1
        rest = history[last + 1:]
        w.be.extend(int(b) for b in (t[last + 1:][rest] & 1))


def encode_jpeg_progressive(img: np.ndarray, quality: int = 90,
                            restart_interval: int = 0,
                            optimize: bool = False,
                            subsampling: str = "444") -> bytes:
    """8-bit RGB -> PROGRESSIVE JFIF JPEG (SOF2, T.81 Annex G,
    Huffman): successive-approximation scan script exercising every
    progressive decode path —

      1. DC first, interleaved, Al=1    4-6. AC first per comp, Al=1
      2. DC refinement, Al=0            7-9. AC refinement per comp, Al=0

    ``optimize`` counts the scans' symbols first (null writer) and
    builds Annex-K.2 optimal tables instead of the fixed-length
    complete AC table — real encoders always optimize progressive
    tables, since no standard table covers the EOBn symbols well.
    ``subsampling`` ("444"/"422"/"420"): interleaved DC scans walk the
    padded MCU lattice; the per-component AC scans walk each
    component's TRUE block raster per spec.
    """
    factors = _SUBSAMPLING[subsampling]
    h, w, qy, qc, comp_coefs = _comp_coefficients(img, quality, subsampling)
    hmax = max(f[0] for f in factors)
    vmax = max(f[1] for f in factors)
    mcus_x = -(-w // (8 * hmax))
    mcus_y = -(-h // (8 * vmax))
    geom = []  # per comp: (cols_b lattice stride, true cw_b, true ch_b)
    for hs, vs in factors:
        cw = -(-w * hs // hmax)
        chh = -(-h * vs // vmax)
        geom.append((mcus_x * hs, -(-cw // 8), -(-chh // 8)))

    def dc_pass(bw, enc_dc, refine: bool):
        preds = [0, 0, 0]
        m = 0
        for my in range(mcus_y):
            for mx in range(mcus_x):
                if restart_interval and m and m % restart_interval == 0:
                    bw.flush()
                    bw.out += bytes(
                        (0xFF, 0xD0 + (m // restart_interval - 1) % 8)
                    )
                    preds = [0, 0, 0]
                m += 1
                for ci in range(3):
                    hs, vs = factors[ci]
                    cols_b = geom[ci][0]
                    t = 0 if ci == 0 else 1
                    for by in range(vs):
                        for bx in range(hs):
                            bi = (my * vs + by) * cols_b + (mx * hs + bx)
                            c0 = int(comp_coefs[ci][bi][0])
                            if refine:
                                bw.write(c0 & 1, 1)
                                continue
                            val = c0 >> 1
                            diff = val - preds[ci]
                            preds[ci] = val
                            cat = _category(diff)
                            code, ln = enc_dc[t][cat]
                            bw.write(code, ln)
                            if cat:
                                bw.write(
                                    diff if diff > 0
                                    else diff + (1 << cat) - 1, cat,
                                )

    def ac_pass(bw, enc_ac, ci: int, ah: int, al: int):
        cols_b, cw_b, ch_b = geom[ci]
        wtr = _ProgScanWriter(bw, enc_ac)
        emit = _emit_ac_first if ah == 0 else _emit_ac_refine
        for m in range(cw_b * ch_b):  # the component's TRUE raster
            if restart_interval and m and m % restart_interval == 0:
                wtr.flush_eob()
                bw.flush()
                bw.out += bytes(
                    (0xFF, 0xD0 + (m // restart_interval - 1) % 8)
                )
            bi = (m // cw_b) * cols_b + (m % cw_b)
            emit(wtr, comp_coefs[ci][bi][1:64], al)
        wtr.flush_eob()

    dc_specs = [DC_LUM, DC_CHROM]
    ac_spec = PROG_AC
    if optimize:
        fdc = [_FreqTab(), _FreqTab()]
        nb = _NullWriter()
        dc_pass(nb, fdc, refine=False)
        fac = _FreqTab()
        for ah, al in ((0, 1), (1, 0)):
            for ci in range(3):
                ac_pass(nb, fac, ci, ah, al)
        dc_specs = [_optimal_table(f.freq) for f in fdc]
        ac_spec = _optimal_table(fac.freq)
    enc_dc = [_build_huffman(*s) for s in dc_specs]
    enc_ac = _build_huffman(*ac_spec)

    out = bytearray(b"\xff\xd8")
    out += b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    for tid, q in ((0, qy), (1, qc)):
        out += b"\xff\xdb" + struct.pack(">HB", 67, tid) + bytes(
            q[ZIGZAG].astype(np.uint8)
        )
    out += b"\xff\xc2" + struct.pack(">HBHHB", 17, 8, h, w, 3)
    for (cid, qid), (hs, vs) in zip(((1, 0), (2, 1), (3, 1)), factors):
        out += bytes((cid, (hs << 4) | vs, qid))
    for cls, tid, spec in ((0, 0, dc_specs[0]), (0, 1, dc_specs[1]), (1, 0, ac_spec)):
        bits, vals = spec
        out += b"\xff\xc4" + struct.pack(">HB", 19 + len(vals), (cls << 4) | tid)
        out += bytes(bits) + bytes(vals)
    if restart_interval:
        out += b"\xff\xdd" + struct.pack(">HH", 4, restart_interval)

    def sos(comp_ids, tab_ids, ss, se, ah, al):
        seg = bytearray([len(comp_ids)])
        for cid, tids in zip(comp_ids, tab_ids):
            seg += bytes((cid, tids))
        seg += bytes((ss, se, (ah << 4) | al))
        return b"\xff\xda" + struct.pack(">H", 2 + len(seg)) + bytes(seg)

    # scans 1-2: DC first (interleaved, Al=1) then DC refinement
    for refine in (False, True):
        out += sos((1, 2, 3), (0x00, 0x10, 0x10), 0, 0,
                   1 if refine else 0, 0 if refine else 1)
        bw = _BitWriter()
        dc_pass(bw, enc_dc, refine=refine)
        bw.flush()
        out += bw.out
    # scans 3-5 / 6-8: AC first then AC refinement, per component
    for ah, al in ((0, 1), (1, 0)):
        for ci, cid in enumerate((1, 2, 3)):
            out += sos((cid,), (0x00,), 1, 63, ah, al)
            bw = _BitWriter()
            ac_pass(bw, enc_ac, ci, ah, al)
            bw.flush()
            out += bw.out
    out += b"\xff\xd9"
    return bytes(out)


def _dc_prog_block(br, blk, dct, htabs, preds, ci, ah, al):
    """One block of a progressive DC scan (first or refinement)."""
    if ah == 0:  # first scan: diff-coded, point-transformed
        cat = br.read_symbol(htabs[(0, dct)])
        diff = br.read_bits(cat)
        if cat and diff < (1 << (cat - 1)):
            diff -= (1 << cat) - 1
        preds[ci] += diff
        blk[0] = preds[ci] << al
    else:        # refinement: one raw bit appends bit Al
        if br.read_bit():
            blk[0] |= 1 << al


def _decode_prog_scan(buf: bytes, pos: int, scan, band, htabs, coefs,
                      geom, restart_interval: int) -> int:
    """Decode ONE progressive scan's entropy data into the per-
    component zigzag-order coefficient arrays (T.81 Annex G decoding:
    DC first/refinement, AC first/refinement with EOB runs).
    Interleaved (multi-component) DC scans walk the padded MCU
    lattice; single-component scans walk the component's TRUE block
    raster (no MCU padding blocks), mapped into the lattice-order
    coefficient array.  Returns the byte offset of the next marker."""
    ss, se, ah, al = band
    mcus_x, mcus_y, comp_geom = geom
    br = _BitReader(buf, pos)
    if ss == 0 and len(scan) > 1:  # interleaved DC scan (MCU lattice)
        if se != 0:
            raise ValueError("DC scan with Se != 0")
        preds = [0] * len(scan)
        m = 0
        for my in range(mcus_y):
            for mx in range(mcus_x):
                if restart_interval and m and m % restart_interval == 0:
                    br.sync_restart((m // restart_interval - 1) % 8)
                    preds = [0] * len(scan)
                m += 1
                for ci, (cid, dct, _act) in enumerate(scan):
                    hs, vs, cols_b, _cw, _ch = comp_geom[cid]
                    for by in range(vs):
                        for bx in range(hs):
                            bi = (my * vs + by) * cols_b + (mx * hs + bx)
                            _dc_prog_block(
                                br, coefs[cid][bi], dct, htabs, preds,
                                ci, ah, al,
                            )
        return _next_marker(buf, br.pos)
    if len(scan) != 1:
        raise ValueError("interleaved progressive AC scan")
    cid, dct, act = scan[0]
    _hs, _vs, cols_b, cw_b, ch_b = comp_geom[cid]
    n_blk = cw_b * ch_b  # the component's true raster
    carr = coefs[cid]
    if ss == 0:  # non-interleaved DC scan
        if se != 0:
            raise ValueError("DC scan with Se != 0")
        preds = [0]
        for m in range(n_blk):
            if restart_interval and m and m % restart_interval == 0:
                br.sync_restart((m // restart_interval - 1) % 8)
                preds = [0]
            bi = (m // cw_b) * cols_b + (m % cw_b)
            _dc_prog_block(br, carr[bi], dct, htabs, preds, 0, ah, al)
    else:  # AC scan (T.81 G.1.1.1.1: always single-component)
        tab = htabs[(1, act)]
        eobrun = 0
        p1, mn1 = 1 << al, -1 << al
        for m in range(n_blk):
            if restart_interval and m and m % restart_interval == 0:
                br.sync_restart((m // restart_interval - 1) % 8)
                eobrun = 0
            blk = carr[(m // cw_b) * cols_b + (m % cw_b)]
            k = ss
            if ah == 0:  # AC first scan
                if eobrun:
                    eobrun -= 1
                    continue
                while k <= se:
                    rs = br.read_symbol(tab)
                    r, s = rs >> 4, rs & 15
                    if s == 0:
                        if r == 15:  # ZRL
                            k += 16
                            continue
                        eobrun = (1 << r) - 1
                        if r:
                            eobrun += br.read_bits(r)
                        break
                    k += r
                    if k > se:
                        raise ValueError("AC coefficient overrun")
                    v = br.read_bits(s)
                    if v < (1 << (s - 1)):
                        v -= (1 << s) - 1
                    blk[k] = v << al
                    k += 1
            else:  # AC refinement scan
                if eobrun == 0:
                    while k <= se:
                        rs = br.read_symbol(tab)
                        r, s = rs >> 4, rs & 15
                        newval = 0
                        if s == 0:
                            if r != 15:
                                eobrun = 1 << r
                                if r:
                                    eobrun += br.read_bits(r)
                                break
                            # ZRL: skip 16 zero-history positions
                        elif s == 1:
                            newval = p1 if br.read_bit() else mn1
                        else:
                            raise ValueError("bad refinement magnitude")
                        # advance over r zero-history positions, reading
                        # a correction bit at every nonzero coefficient
                        while k <= se:
                            c = blk[k]
                            if c:
                                if br.read_bit() and not (c & p1):
                                    blk[k] = c + (p1 if c >= 0 else mn1)
                            else:
                                if r == 0:
                                    break
                                r -= 1
                            k += 1
                        if newval:
                            if k > se:
                                raise ValueError("refinement overrun")
                            blk[k] = newval
                        k += 1
                if eobrun > 0:  # EOB state: correction bits only
                    while k <= se:
                        c = blk[k]
                        if c:
                            if br.read_bit() and not (c & p1):
                                blk[k] = c + (p1 if c >= 0 else mn1)
                        k += 1
                    eobrun -= 1
    return _next_marker(buf, br.pos)


def _next_marker(buf: bytes, p: int) -> int:
    """Byte offset of the next marker after a scan's entropy bytes."""
    while p + 1 < len(buf):
        if buf[p] == 0xFF and buf[p + 1] not in (0x00,):
            if 0xD0 <= buf[p + 1] <= 0xD7:
                p += 2
                continue
            return p
        p += 1
    raise ValueError("no marker after progressive scan")


def decode_jpeg(buf: bytes) -> np.ndarray:
    """JFIF JPEG bytes (baseline or progressive) -> uint8 RGB.
    Malformed segment structure surfaces as ValueError (codec error
    contract), never as a raw struct/index error."""
    try:
        return _decode_jpeg_impl(buf)
    except (struct.error, IndexError, OverflowError) as e:
        raise ValueError(f"malformed JPEG stream: {e}") from e


def _decode_jpeg_impl(buf: bytes) -> np.ndarray:
    if buf[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG: missing SOI")
    pos = 2
    qtabs: dict[int, np.ndarray] = {}
    htabs: dict[tuple[int, int], dict] = {}
    sof = None
    comps = []
    scan = None
    restart_interval = 0
    progressive = False
    prog_coefs = None
    while pos + 4 <= len(buf):
        if buf[pos] != 0xFF:
            raise ValueError("bad marker alignment")
        marker = buf[pos + 1]
        if marker == 0xD9:  # EOI
            break
        (length,) = struct.unpack_from(">H", buf, pos + 2)
        seg = buf[pos + 4 : pos + 2 + length]
        pos += 2 + length
        if marker == 0xDB:  # DQT (possibly several tables per segment)
            off = 0
            while off < len(seg):
                pq, tq = seg[off] >> 4, seg[off] & 0xF
                if pq not in (0, 1):
                    raise ValueError(f"bad DQT precision {pq}")
                if pq:  # 16-bit table entries, big-endian
                    tab = np.frombuffer(
                        seg[off + 1 : off + 129], ">u2"
                    ).astype(np.int64)
                else:
                    tab = np.frombuffer(
                        seg[off + 1 : off + 65], np.uint8
                    ).astype(np.int64)
                z = np.empty(64, np.int64)
                z[ZIGZAG] = tab
                qtabs[tq] = z
                off += 65 + 64 * pq
        elif marker == 0xC4:  # DHT
            off = 0
            while off < len(seg):
                cls, tid = seg[off] >> 4, seg[off] & 0xF
                bits = list(seg[off + 1 : off + 17])
                n = sum(bits)
                vals = list(seg[off + 17 : off + 17 + n])
                htabs[(cls, tid)] = _build_huffman(bits, vals, decode=True)
                off += 17 + n
        elif marker in (0xC0, 0xC2):  # SOF0 baseline / SOF2 progressive
            progressive = marker == 0xC2
            prec, h, w, nc = seg[0], *struct.unpack_from(">HH", seg, 1), seg[5]
            if prec != 8:
                raise NotImplementedError("non-8-bit JPEG")
            comps = []
            for i in range(nc):
                cid, samp, qid = seg[6 + 3 * i : 9 + 3 * i]
                hs, vs = samp >> 4, samp & 0xF
                if not (1 <= hs <= 2 and 1 <= vs <= 2):
                    raise NotImplementedError(
                        f"sampling factors {hs}x{vs} not supported (1-2 only)"
                    )
                comps.append((cid, qid, hs, vs))
            sof = (h, w, nc)
        elif marker in (0xC1, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA,
                        0xCB, 0xCD, 0xCE, 0xCF):
            raise NotImplementedError(
                "JPEG process not supported (arithmetic/hierarchical/lossless)"
            )
        elif marker == 0xDA:  # SOS
            ns = seg[0]
            scan = []
            for i in range(ns):
                cid, tids = seg[1 + 2 * i : 3 + 2 * i]
                scan.append((cid, tids >> 4, tids & 0xF))
            if not progressive:
                break  # entropy data follows; handled below
            if sof is None:
                raise ValueError("SOS before SOF")
            ss, se = seg[1 + 2 * ns], seg[2 + 2 * ns]
            ah, al = seg[3 + 2 * ns] >> 4, seg[3 + 2 * ns] & 0xF
            hh, ww, _nnc = sof
            hmx = max(c[2] for c in comps)
            vmx = max(c[3] for c in comps)
            p_mx = -(-ww // (8 * hmx))
            p_my = -(-hh // (8 * vmx))
            comp_geom = {}
            for cid, _q, hs, vs in comps:
                cw = -(-ww * hs // hmx)    # component true dims
                chh = -(-hh * vs // vmx)
                comp_geom[cid] = (
                    hs, vs, p_mx * hs,             # lattice row stride
                    -(-cw // 8), -(-chh // 8),     # true block raster
                )
            if prog_coefs is None:
                prog_coefs = {
                    cid: np.zeros((p_my * vs * p_mx * hs, 64), np.int64)
                    for cid, _q, hs, vs in comps
                }
            pos = _decode_prog_scan(
                buf, pos, scan, (ss, se, ah, al), htabs, prog_coefs,
                (p_mx, p_my, comp_geom), restart_interval,
            )
        elif marker == 0xDD:  # DRI
            (restart_interval,) = struct.unpack_from(">H", seg, 0)
        # APPn/COM/other segments skipped
    if sof is None:
        raise ValueError("JPEG missing SOF")
    h, w, nc = sof
    qid_of = {cid: qid for cid, qid, _h, _v in comps}
    samp_of = {cid: (hs, vs) for cid, _q, hs, vs in comps}
    hmax = max(hs for _c, _q, hs, _v in comps)
    vmax = max(vs for _c, _q, _h, vs in comps)
    mcus_x = -(-w // (8 * hmax))
    mcus_y = -(-h // (8 * vmax))
    if progressive:
        if prog_coefs is None:
            raise ValueError("progressive JPEG with no scans")
        order = [cid for cid, _q, _h, _v in comps]
        out_planes = [prog_coefs[cid] for cid in order]
        return _reconstruct(out_planes, order, qtabs, qid_of, samp_of,
                            (hmax, vmax), h, w, nc)
    if scan is None:
        raise ValueError("JPEG missing SOS")
    if nc != len(scan):
        raise ValueError("scan component count mismatch")
    br = _BitReader(buf, pos)
    # per-component block grids sized to the MCU lattice
    cols_b = {cid: mcus_x * hs for cid, (hs, _v) in samp_of.items()}
    out_planes = [
        np.zeros((mcus_y * samp_of[cid][1] * cols_b[cid], 64), np.int64)
        for cid, _dct, _act in scan
    ]
    pred = [0] * nc
    m = 0
    for my in range(mcus_y):
        for mx in range(mcus_x):
            if restart_interval and m and m % restart_interval == 0:
                br.sync_restart((m // restart_interval - 1) % 8)
                pred = [0] * nc
            m += 1
            for ci, (cid, dct, act) in enumerate(scan):
                dc_tab = htabs[(0, dct)]
                ac_tab = htabs[(1, act)]
                hs, vs = samp_of[cid]
                for by in range(vs):
                    for bx in range(hs):
                        zz = np.zeros(64, np.int64)
                        cat = br.read_symbol(dc_tab)
                        diff = br.read_bits(cat)
                        if cat and diff < (1 << (cat - 1)):
                            diff -= (1 << cat) - 1
                        pred[ci] += diff
                        zz[0] = pred[ci]
                        k = 1
                        while k < 64:
                            rs = br.read_symbol(ac_tab)
                            run, size = rs >> 4, rs & 0xF
                            if size == 0:
                                if run == 15:  # ZRL
                                    k += 16
                                    continue
                                break  # EOB
                            k += run
                            if k > 63:
                                raise ValueError("AC coefficient overrun")
                            v = br.read_bits(size)
                            if v < (1 << (size - 1)):
                                v -= (1 << size) - 1
                            zz[k] = v
                            k += 1
                        bi = (my * vs + by) * cols_b[cid] + (mx * hs + bx)
                        out_planes[ci][bi] = zz
    order = [cid for cid, _, _ in scan]
    return _reconstruct(out_planes, order, qtabs, qid_of, samp_of,
                        (hmax, vmax), h, w, nc)


def _reconstruct(out_planes, order, qtabs, qid_of, samp_of, maxsamp,
                 h, w, nc) -> np.ndarray:
    """Zigzag-order coefficient planes -> pixels (dequantize, IDCT,
    chroma upsample by replication, colour transform) — shared by the
    baseline and progressive paths."""
    hmax, vmax = maxsamp
    mcus_x = -(-w // (8 * hmax))
    mcus_y = -(-h // (8 * vmax))
    planes = []
    for ci, cid in enumerate(order):
        hs, vs = samp_of[cid]
        rows_b, cols_b = mcus_y * vs, mcus_x * hs
        q = qtabs[qid_of[cid]]  # raster order; reindex to match the
        n_blk = rows_b * cols_b
        coef = np.empty((n_blk, 64), np.float64)  # zigzag coefficient layout
        coef[:, ZIGZAG] = out_planes[ci] * q[ZIGZAG]
        blk = coef.reshape(-1, 8, 8)
        sp = np.einsum("ji,njk,kl->nil", _C, blk, _C) + 128.0
        plane = (
            sp.reshape(rows_b, cols_b, 8, 8)
            .transpose(0, 2, 1, 3)
            .reshape(rows_b * 8, cols_b * 8)
        )
        if (hs, vs) != (hmax, vmax):  # upsample by pixel replication
            plane = np.repeat(
                np.repeat(plane, vmax // vs, axis=0), hmax // hs, axis=1
            )
        planes.append(plane[:h, :w])
    if nc == 1:
        return np.clip(np.round(planes[0]), 0, 255).astype(np.uint8)
    y, cb, cr = planes[0], planes[1] - 128.0, planes[2] - 128.0
    rgb = np.stack(
        [y + 1.402 * cr, y - 0.344136 * cb - 0.714136 * cr, y + 1.772 * cb],
        axis=-1,
    )
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)
