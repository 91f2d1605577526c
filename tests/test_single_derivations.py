"""Each synthetic-data derivation of the query registry is written once.

The DuckDB oracles rebuild the synthetic tables from their seed, so
each derivation has one SQL builder (and, where the engine needs it,
one generator) in ``pipelines/queries.py``.  A pasted copy elsewhere
could drift from its twin while the gate still passes at the scale it
runs, so this test fails on any occurrence of a derivation outside
its builder — and on a builder that no longer holds it.
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "osm_replication_rust_ray"

# pattern -> the one function allowed to contain it
OWNERS = {
    r"SEED\s*\*\s*7919": "_payload_img_sql",  # image byte-stream key
    r"SEED\s*\*\s*104729": "_video_sql",  # video byte-stream key
    r"2\s*\*\s*i\s*\+\s*(1\s*\+\s*)?\{TRI_SALT\}": "_edge_pairs_sql",
    r"_mix64\(\(2\s*\*\s*i\s*\+\s*(1\s*\+\s*)?TRI_SALT\)": "_edge_pairs",
    r"WHEN\s+10000\b": "_gate_rows_sql",  # the sf0.01 size rule, SQL
    r"==\s*10000\b": "_gate_rows",  # ... and engine
}


def _function_at(tree: ast.AST) -> dict[int, str]:
    """Line number -> name of the innermost function spanning it."""
    spans = sorted(
        ((n.lineno, n.end_lineno, n.name) for n in ast.walk(tree)
         if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))),
        key=lambda s: s[1] - s[0], reverse=True)
    at = {}
    for lo, hi, name in spans:  # widest first, so inner ones overwrite
        for ln in range(lo, hi + 1):
            at[ln] = name
    return at


def _occurrences() -> list[tuple[str, str, str]]:
    """(pattern, enclosing function or "<module>", "file:line")."""
    hits = []
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        at = _function_at(ast.parse(text, filename=str(path)))
        for ln, line in enumerate(text.splitlines(), 1):
            for pat in OWNERS:
                if re.search(pat, line):
                    hits.append((pat, at.get(ln, "<module>"),
                                 f"{path.relative_to(PACKAGE)}:{ln}"))
    return hits


def test_each_derivation_lives_only_in_its_builder():
    strays = [f"{where}: {pat!r} in {fn}, not {OWNERS[pat]}"
              for pat, fn, where in _occurrences() if fn != OWNERS[pat]]
    assert not strays, "derivations outside their builder:\n" + "\n".join(strays)


def test_each_builder_still_holds_its_derivation():
    found = {pat for pat, fn, _w in _occurrences() if fn == OWNERS[pat]}
    assert found == set(OWNERS), sorted(set(OWNERS) - found)
