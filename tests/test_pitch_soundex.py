"""Unit parity for pitch detection and Soundex blocking."""

import numpy as np
import pyarrow as pa

from osm_replication_rust_ray.functions.text import (
    soundex_codes,
    soundex_words,
)
from osm_replication_rust_ray.stages.decode import Pitch, make_tri_pcm


def _soundex_ref(word: str) -> str:
    classes = {"BFPV": "1", "CGJKQSXZ": "2", "DT": "3",
               "L": "4", "MN": "5", "R": "6", "AEIOUYHW": "0"}
    dig = "".join(next(v for k, v in classes.items() if c in k)
                  for c in word)
    out = []
    for c in dig:
        if not out or out[-1] != c:
            out.append(c)
    tail = "".join(out)[1:].replace("0", "")
    return (word[0] + tail + "000")[:4]


def test_soundex_known_and_random_words():
    known = {"ROBERT": "R163", "RUPERT": "R163", "PFISTER": "P236",
             "HONEYMAN": "H555", "JACKSON": "J250", "LEE": "L000"}
    got = soundex_codes(pa.array(list(known))).to_pylist()
    assert got == [known[w] for w in known]

    rng = np.random.default_rng(5)
    words = ["".join(chr(65 + c) for c in rng.integers(0, 26, ln))
             for ln in rng.integers(1, 12, 200)]
    got = soundex_codes(pa.array(words)).to_pylist()
    assert got == [_soundex_ref(w) for w in words]


def test_soundex_word_extraction():
    texts = pa.chunked_array([pa.array(
        ["  hello world", "123 only-Digits 9", "42", "Ümlaut first ok"])])
    word, valid = soundex_words(texts)
    assert word.to_pylist() == ["HELLO", "ONLY", None, "MLAUT"]
    assert valid.to_pylist() == [True, True, False, True]


def test_pitch_actor_matches_brute():
    ids = np.arange(12, dtype=np.int64)
    out = Pitch()(pa.table({"id": pa.array(ids, pa.int64())}))
    for row, i in zip(out.to_pylist(), ids):
        v = make_tri_pcm(int(i))
        c = [512 * int(a) - int(v.sum()) for a in v]  # exact Python ints
        best = None
        for lag in range(16, 129):
            s = sum(a * b for a, b in zip(c[:512 - lag], c[lag:]))
            if best is None or s > best[1]:
                best = (lag, s)
        assert row["best_lag"] == best[0]
        assert row["best_score"] == best[1]
        assert row["energy"] == sum(a * a for a in c)


def test_pitch_finds_triangle_period():
    # find clips whose triangle frequency puts the fundamental period
    # 2000/f inside the lag range, and check the argmax lands on a
    # near-multiple of it (noise is 10% of amplitude)
    from osm_replication_rust_ray.sources.synth import _mix64

    checked = 0
    for i in range(60):
        base = int(_mix64(np.array([i], np.uint64)
                          ^ np.uint64(42 * 9973))[0])
        f = 3 + base % 29
        if f < 17:
            continue
        period = 2000 / f
        out = Pitch()(pa.table({"id": pa.array([i], pa.int64())}))
        lag = out["best_lag"][0].as_py()
        k = round(lag / period)
        # non-divisor frequencies re-phase each cycle, so the exact
        # argmax can sit a few samples off k*period (exactness itself
        # is pinned by the brute-parity test above)
        assert k >= 1 and abs(lag - k * period) <= 5.0, (i, f, lag)
        checked += 1
    assert checked > 10


def test_ntt_matches_definition_and_parseval():
    from osm_replication_rust_ray.stages.decode import (
        NTT_N, NTT_P, NTT_W, ntt256,
    )

    rng = np.random.default_rng(11)
    a = rng.integers(0, NTT_P, (3, NTT_N)).astype(np.int64)
    x = ntt256(a)
    t = np.arange(NTT_N)
    # definition: X_k = sum_t a_t w^(tk) mod p (object dtype = exact)
    w_pows = np.array([pow(NTT_W, int(e), NTT_P) for e in range(NTT_N)],
                      dtype=object)
    for row in range(3):
        for k in (0, 1, 7, 255):
            want = int(sum(int(a[row, ti]) * int(w_pows[(ti * k) % NTT_N])
                           for ti in t) % NTT_P)
            assert x[row, k] == want
    # invertibility: inverse NTT (conjugate root + scale) restores input
    inv_w = pow(NTT_W, NTT_P - 2, NTT_P)
    W_inv = np.array([[pow(inv_w, (i * j) % NTT_N, NTT_P)
                       for j in range(NTT_N)] for i in range(NTT_N)],
                     dtype=object)
    n_inv = pow(NTT_N, NTT_P - 2, NTT_P)
    back = (x.astype(object) @ W_inv * n_inv) % NTT_P
    assert np.array_equal(back.astype(np.int64), a % NTT_P)
