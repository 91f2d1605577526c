"""Driver-contract smoke: queries()/oracle_sql() key parity, callables,
and the flagship entry() producing rows with a stable schema; the
registry's q_X / sql_X rule, its 12 exceptions, and its lazy SQL."""

import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


def test_registry_key_parity():
    import __ray_entry__ as m

    q = m.queries()
    o = m.oracle_sql()
    assert set(q) == set(o)
    assert all(callable(f) for f in q.values())
    assert all(isinstance(s, str) and s.strip() for s in o.values())


# name -> (pipeline, oracle builder, builder kwargs): the entries the
# q_X / sql_X rule cannot name
EXCEPTIONS = {
    "geohash_counts": ("q_geohash", "sql_geohash", {}),
    "approx_distinct_users": ("q_approx_distinct_users_gate",
                              "sql_approx_distinct_users_gate", {}),
    "embedding_near_dup_lsh": ("q_embedding_near_dup_lsh_gate",
                               "sql_embedding_near_dup_lsh_gate", {}),
    "ann_pq": ("q_ann_pq_gate", "sql_ann_recall_gate", {}),
    "ann_ivf": ("q_ann_ivf_gate", "sql_ann_recall_gate", {}),
    "ann_lsh": ("q_ann_lsh_gate", "sql_ann_recall_gate", {}),
    "png_ops": ("q_png_ops", "sql_image_ops", {}),
    "container_ops": ("q_container_ops", "sql_image_ops", {}),
    "webp_ops": ("q_webp_ops", "sql_image_ops", {}),
    "qoi_ops": ("q_qoi_ops", "sql_image_ops", {}),
    "mixed_media_ops": ("q_mixed_media_ops", "sql_image_ops", {}),
    "gif_ops": ("q_gif_ops", "sql_image_ops", {"posterize": True}),
}


def test_registry_exceptions():
    from osm_replication_rust_ray.pipelines import queries as Q

    assert len(Q.QUERIES) == 206
    for name, (q, sql, kw) in EXCEPTIONS.items():
        fn, build = Q.QUERIES[name]
        assert fn is getattr(Q, q), name
        assert build() == getattr(Q, sql)(**kw), name
    # an exception's pair does not also register under its rule name
    for name in ("geohash", "approx_distinct_users_gate",
                 "embedding_near_dup_lsh_gate"):
        assert name not in Q.QUERIES


def test_registry_rule():
    """Every q_X / sql_X pair outside the exceptions registers as X, and
    every other entry is such a pair."""
    import inspect

    from osm_replication_rust_ray.pipelines import queries as Q

    covered = {q for q, _sql, _kw in EXCEPTIONS.values()}
    funcs = {n for n, f in vars(Q).items()
             if inspect.isfunction(f) and f.__module__ == Q.__name__}
    pairs = {n[2:] for n in funcs
             if n.startswith("q_") and "sql_" + n[2:] in funcs and n not in covered}
    assert pairs == set(Q.QUERIES) - set(EXCEPTIONS)
    for x in pairs:
        assert Q.QUERIES[x] == (getattr(Q, "q_" + x), getattr(Q, "sql_" + x)), x


def test_registry_sql_is_lazy():
    """QUERIES holds SQL builders, not texts, and importing the module
    calls no sql_* function (profiled in a fresh interpreter)."""
    from osm_replication_rust_ray.pipelines import queries as Q

    assert all(callable(sql) and not isinstance(sql, str)
               for _fn, sql in Q.QUERIES.values())
    code = (
        "import sys\n"
        "calls = []\n"
        "def prof(frame, event, arg):\n"
        "    c = frame.f_code\n"
        "    if (event == 'call' and c.co_name.startswith('sql_')\n"
        "            and c.co_filename.endswith('queries.py')):\n"
        "        calls.append(c.co_name)\n"
        "sys.setprofile(prof)\n"
        "import osm_replication_rust_ray.pipelines.queries as Q\n"
        "sys.setprofile(None)\n"
        "assert len(Q.QUERIES) == 206\n"
        "print(len(calls), sorted(set(calls))[:5])\n"
    )
    repo = Path(__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code], cwd=repo, check=True,
                         stdout=subprocess.PIPE, text=True, timeout=300).stdout
    assert out.split()[0] == "0", out


def test_entry_smoke(ray_session):
    import __ray_entry__ as m

    res = m.entry()
    import pandas as pd

    if not isinstance(res, pd.DataFrame):
        res = res.to_pandas()
    assert len(res) >= 0
    assert list(res.columns)  # stable, non-empty schema
