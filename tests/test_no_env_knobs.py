"""The engine reads no environment variables.

Each regime crossover (broadcast vs shuffle joins, the graph and
clustering single-task regimes) is one module-level constant next to
its kernel, and tests force a regime by patching that constant.  An
``os.environ`` / ``os.getenv`` read anywhere in the package would
bring back a settable option that nothing in the repository sets, so
this test fails on the first one it finds.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "osm_replication_rust_ray"
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _env_reads(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENV_NAMES:
            hits.append(f"{path}:{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            hits += [f"{path}:{node.lineno}: from os import {a.name}"
                     for a in node.names if a.name in ENV_NAMES]
    return hits


def test_package_reads_no_environment_variables():
    files = sorted(PACKAGE.rglob("*.py"))
    assert len(files) > 50, "package not found"
    hits = [h for f in files for h in _env_reads(f)]
    assert not hits, "environment reads:\n" + "\n".join(hits)
