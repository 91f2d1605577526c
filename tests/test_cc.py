"""Connected components (functions/cc.py): parity against a
union-find reference across graph shapes, convergence bounds, and the
no-silent-truncation cap."""
import numpy as np
import pyarrow as pa
import pytest

from osm_replication_rust_ray.functions import cc
from osm_replication_rust_ray.functions.cc import connected_components
from osm_replication_rust_ray.stages.dist import FixpointCapError


def _uf_ref(pairs):
    nodes = sorted({x for p in pairs for x in p})
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    comps: dict[int, list[int]] = {}
    for n in nodes:
        comps.setdefault(find(n), []).append(n)
    return {n: min(ns) for ns in comps.values() for n in ns}


MODES = ("local", "shuffle")


@pytest.fixture
def regime(monkeypatch, regimes):
    """-> (force, ran): ``force(mode)`` patches ``cc.LOCAL_ROWS`` so
    ``connected_components`` takes ``mode``; ``ran()`` names the
    regime that ran."""
    ran = regimes(local=(cc, "run_local"),
                  shuffle=(cc, "sorted_distinct"))

    def force(mode: str):
        monkeypatch.setattr(cc, "LOCAL_ROWS",
                            1 << 62 if mode == "local" else 0)

    return force, ran


def _run(pairs, regime, mode):
    import ray.data as rd

    force, ran = regime
    force(mode)
    ds = rd.from_arrow(
        pa.table(
            {
                "id_a": pa.array([p[0] for p in pairs], pa.int64()),
                "id_b": pa.array([p[1] for p in pairs], pa.int64()),
            }
        )
    )
    out = {r["node"]: r["cluster_rep"]
           for r in connected_components(ds).take_all()}
    assert ran() == mode
    return out


@pytest.mark.parametrize(
    "name,pairs",
    [
        ("path", [(i, i + 1) for i in range(30)]),
        ("star", [(0, i) for i in range(1, 9)] + [(100, 101), (100, 102)]),
        ("dups_selfloops", [(5, 6), (6, 5), (5, 5), (7, 8)]),
        ("big_ids", [(1_000_000_007, 2), (2, 9), (50, 60)]),
        ("two_cliques",
         [(a, b) for a in range(4) for b in range(a + 1, 4)]
         + [(a, b) for a in range(10, 15) for b in range(a + 1, 15)]),
    ],
)
@pytest.mark.parametrize("mode", MODES)
def test_cc_matches_union_find(ray_session, name, pairs, regime, mode):
    assert _run(pairs, regime, mode) == _uf_ref(pairs)


@pytest.mark.parametrize("mode", MODES)
def test_cc_random_graph(ray_session, regime, mode):
    rs = np.random.RandomState(7)
    pairs = [tuple(sorted(p)) for p in rs.randint(0, 120, (150, 2)) if p[0] != p[1]]
    assert _run(pairs, regime, mode) == _uf_ref(pairs)


@pytest.mark.parametrize("mode", MODES)
def test_cc_cap_raises(ray_session, regime, mode):
    """A path needs ~log2(n) doubling rounds; max_rounds=1 cannot
    converge and must raise, not return a truncated labeling."""
    import ray.data as rd

    force, ran = regime
    force(mode)
    pairs = [(i, i + 1) for i in range(20)]
    ds = rd.from_arrow(
        pa.table(
            {
                "id_a": pa.array([p[0] for p in pairs], pa.int64()),
                "id_b": pa.array([p[1] for p in pairs], pa.int64()),
            }
        )
    )
    with pytest.raises(FixpointCapError, match="converge"):
        connected_components(ds, max_rounds=1)
    assert ran() == mode


def test_cc_empty_edge_set(ray_session):
    """A corpus with zero near-dup pairs must yield an empty labeling,
    not crash on the empty-aggregate path."""
    import ray.data as rd

    ds = rd.from_arrow(
        pa.table(
            {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64())}
        )
    )
    out = connected_components(ds)
    assert out.count() == 0
    assert set(out.schema().names) == {"node", "cluster_rep"}
