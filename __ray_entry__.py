"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: no
``ray.init()`` / ``ray.shutdown()`` here or in anything these
callables reach (see tests/conftest.py and bench.py for the session
owners).

- ``entry()``: flagship spatial pipeline (synth payload -> extents ->
  cells -> polygon-tree spatial join -> per-tile assignment counts) at
  the sf0.001 smoke scale.
- ``queries()`` / ``oracle_sql()``: one entry per implemented operator
  from SURVEY.md §2 (+ the training-data extensions); oracle SQL is
  emitted from the same constants the Ray pipelines use.  Both read
  ``QUERIES`` in osm_replication_rust_ray/pipelines/queries.py, derived
  there from the module's ``q_X`` / ``sql_X`` pairs plus a small dict of
  exceptions (see that module's docstring).  Its SQL builders are
  zero-argument callables: ``oracle_sql()`` calls them, so only a caller
  that asks for the oracle texts pays for building them.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from pathlib import Path
from typing import Any

_REPO = str(Path(__file__).resolve().parent)
if _REPO not in sys.path:
    sys.path.insert(0, _REPO)

SMOKE_SF_DIR = "/root/testdata/sf0.001"


def entry() -> Any:
    """Flagship pipeline on sf0.001; driver checks rows>=0 + schema."""
    from osm_replication_rust_ray.pipelines.queries import q_flagship_spatial

    return q_flagship_spatial(SMOKE_SF_DIR, n_rows=2000)


def queries() -> dict[str, Callable[[str], Any]]:
    from osm_replication_rust_ray.pipelines.queries import QUERIES

    return {name: fn for name, (fn, _sql) in QUERIES.items()}


def oracle_sql() -> dict[str, str]:
    from osm_replication_rust_ray.pipelines.queries import QUERIES

    return {name: sql() for name, (_fn, sql) in QUERIES.items()}
