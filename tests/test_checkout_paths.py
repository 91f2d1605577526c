"""Tests and tools find the package in the checkout they live in.

A fixed absolute checkout path on ``sys.path`` (or as a subprocess's
``cwd``) makes the suite or the correctness gate, run from another
clone of the repository, import that other checkout's code and check
it instead of its own.  This test fails on any file under ``tests/``
or ``tools/`` that names this checkout's absolute path, or that puts an
absolute path literal on ``sys.path`` or in ``cwd=``.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXED = re.compile(r"""sys\.path\.(insert|append)\([^)]*["']/|cwd\s*=\s*["']/""")


def test_no_fixed_checkout_paths_in_tests_or_tools():
    files = sorted(p for d in ("tests", "tools") for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 50, "tests/tools not found"
    hits = []
    for path in files:
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if str(ROOT) in line or FIXED.search(line):
                hits.append(f"{path.relative_to(ROOT)}:{n}: {line.strip()}")
    assert not hits, "fixed checkout paths:\n" + "\n".join(hits)
