"""Broadcast-vs-shuffle parity for ``stages/dist.py:safe_join``.

The broadcast path (small side shipped once via ``ray.put``, local
Acero join per streamed block) must be output-identical to the
hash-shuffle path for every join type the dist pipeline uses —
including many-to-many keys, missing keys, differing key names, and
the swapped-inner variant (big RIGHT side streams).

A regime is forced by patching the ``stages.dist`` crossover
constants, and spies prove which regime ran (``join_regime`` in
conftest.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from osm_replication_rust_ray.stages import dist
from osm_replication_rust_ray.stages.dist import safe_join


def _mk(tbl: pa.Table, blocks: int = 3):
    import ray.data

    n = tbl.num_rows
    if n == 0:
        return ray.data.from_arrow(tbl)
    cuts = np.linspace(0, n, blocks + 1).astype(int)
    parts = [tbl.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])]
    return ray.data.from_arrow([p for p in parts if True])


def _sorted_pd(ds):
    df = ds.to_pandas()
    return (
        df.sort_values(list(df.columns))
        .reset_index(drop=True)
        .astype(object)
        .where(lambda d: d.notna(), None)
    )


RNG = np.random.default_rng(7)


def _rand_left(n=200):
    return pa.table(
        {
            "pos": pa.array(np.arange(n), pa.int64()),
            "id": pa.array(RNG.integers(0, 40, n), pa.int64()),
        }
    )


def _rand_right(n=120):
    return pa.table(
        {
            "wid": pa.array(RNG.integers(0, 40, n), pa.int64()),
            "ref": pa.array(RNG.integers(0, 10**9, n), pa.int64()),
        }
    )


@pytest.mark.parametrize("jt", ["inner", "left_outer", "left_anti"])
def test_parity_modes(ray_session, join_regime, jt):
    force, ran = join_regime
    L, R = _rand_left(), _rand_right()
    out = {}
    for mode in ["shuffle", "broadcast"]:
        force(mode)
        ds = safe_join(
            _mk(L), _mk(R), jt, 4, on=("id",), right_on=("wid",),
            payload={"ref": pa.int64()},
        )
        out[mode] = _sorted_pd(ds)
        assert ran() == mode, jt
    assert out["shuffle"].equals(out["broadcast"]), jt


def test_parity_swapped_inner(ray_session, monkeypatch, join_regime):
    """Small LEFT + big RIGHT: the broadcast path streams the right
    side but must keep left-columns-first schema and identical rows."""
    force, ran = join_regime
    L = _rand_left(30)
    R = _rand_right(5000)
    force("shuffle")
    ref = _sorted_pd(
        safe_join(_mk(L), _mk(R), "inner", 4, on=("id",), right_on=("wid",),
                  payload={"ref": pa.int64()})
    )
    assert ran() == "shuffle"
    # a rows budget that excludes R but admits L: only the swapped
    # path can broadcast
    monkeypatch.setattr(dist, "BROADCAST_ROWS", 100)
    monkeypatch.setattr(dist, "BROADCAST_BYTES", 32 << 20)
    got_ds = safe_join(
        _mk(L), _mk(R), "inner", 4, on=("id",), right_on=("wid",),
        payload={"ref": pa.int64()},
    )
    assert ran() == "broadcast"
    assert got_ds.schema().names == ["pos", "id", "ref"]
    assert ref.equals(_sorted_pd(got_ds))


def test_parity_multicol_key_and_empty(ray_session, join_regime):
    force, ran = join_regime
    n = 150
    L = pa.table(
        {
            "a": pa.array(RNG.integers(0, 6, n), pa.int64()),
            "b": pa.array(RNG.integers(0, 6, n), pa.int64()),
            "v": pa.array(np.arange(n), pa.int64()),
        }
    )
    R = pa.table(
        {
            "a": pa.array(RNG.integers(0, 6, 80), pa.int64()),
            "b": pa.array(RNG.integers(0, 6, 80), pa.int64()),
            "w": pa.array(np.arange(80), pa.int64()),
        }
    )
    for jt in ["inner", "left_semi"]:
        out = {}
        for mode in ["shuffle", "broadcast"]:
            force(mode)
            out[mode] = _sorted_pd(
                safe_join(_mk(L), _mk(R), jt, 4, on=("a", "b"),
                          payload={"w": pa.int64()})
            )
            assert ran() == mode, jt
        assert out["shuffle"].equals(out["broadcast"]), jt
    # empty right falls to the explicit empty-side handling in BOTH
    # modes: neither join runs
    for mode in ["shuffle", "broadcast"]:
        force(mode)
        got = safe_join(
            _mk(L), _mk(R.slice(0, 0)), "left_outer", 4, on=("a", "b"),
            payload={"w": pa.int64()},
        )
        df = got.to_pandas()
        assert len(df) == n and df["w"].isna().all()
        assert ran() == "", mode


def test_collision_falls_back_to_shuffle(ray_session, join_regime):
    """A right payload column colliding with a left name is ineligible
    for broadcast; under the default crossover the tiny sides must
    still produce the shuffle result, not crash in the pyarrow join."""
    L = pa.table({"id": pa.array([1, 2], pa.int64()),
                  "v": pa.array([10, 20], pa.int64())})
    R = pa.table({"id": pa.array([1], pa.int64()),
                  "v": pa.array([99], pa.int64())})
    ds = safe_join(_mk(L, 1), _mk(R, 1), "left_semi", 4, on=("id",))
    assert sorted(ds.to_pandas()["id"].tolist()) == [1]
    assert join_regime[1]() == "shuffle"
