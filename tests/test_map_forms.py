"""The package's map stages keep one form per kind of kernel.

An AST scan of every package module (no Ray, no imports of the
modules themselves):

- a class with ``__call__`` but no ``__init__`` (own or inherited from
  a package class) holds no state, so handing the class itself to a
  call — ``map_batches(Cls, ...)``, ``_image_map(Cls, ...)`` — would
  make Ray Data start an actor pool for nothing.  Such a kernel is
  passed as an instance (``HistEq()``) or written as a function;
- ``concurrency=`` never takes an integer or tuple literal: a fixed
  pool either leaves actors idle on small inputs or, wider than the
  cluster, holds every CPU so the upstream read never runs.  Pools
  are sized from the input (``pool_concurrency(est_tasks(...))``).
"""

import ast
from pathlib import Path

import osm_replication_rust_ray

PKG = Path(osm_replication_rust_ray.__file__).parent


def _modules():
    for path in sorted(PKG.rglob("*.py")):
        yield path.relative_to(PKG.parent), ast.parse(path.read_text())


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _stateless_callables(trees) -> set[str]:
    """Names of package classes that have ``__call__`` and no
    ``__init__``, own or inherited from a package base class.  A base
    from outside the package counts as bringing an ``__init__``."""
    classes: dict[str, tuple[list[str], set[str]]] = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods = {b.name for b in node.body
                           if isinstance(b, ast.FunctionDef)}
                bases = [n for n in map(_name, node.bases) if n != "object"]
                old = classes.get(node.name, ([], set()))
                classes[node.name] = (old[0] + bases, old[1] | methods)

    def has(name: str, method: str, seen=()) -> bool | None:
        if name not in classes:
            return None  # not a package class
        bases, methods = classes[name]
        if method in methods:
            return True
        for base in bases:
            if base in seen:
                continue
            got = has(base, method, seen + (name,))
            if got is None:
                if method == "__init__":
                    return True
            elif got:
                return True
        return False

    return {c for c in classes
            if has(c, "__call__") and not has(c, "__init__")}


def _calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def _violations() -> tuple[list[str], list[str]]:
    trees = list(_modules())
    stateless = _stateless_callables(trees)
    class_args, literal_pools = [], []
    for rel, tree in trees:
        for call in _calls(tree):
            if _name(call.func) in ("isinstance", "issubclass"):
                continue
            for arg in [*call.args, *(k.value for k in call.keywords)]:
                if _name(arg) in stateless:
                    class_args.append(f"{rel}:{arg.lineno} {_name(arg)}")
            for kw in call.keywords:
                v = kw.value
                literal = (isinstance(v, ast.Constant) and isinstance(v.value, int)
                           or isinstance(v, ast.Tuple)
                           and all(isinstance(e, ast.Constant) for e in v.elts))
                if kw.arg == "concurrency" and literal:
                    literal_pools.append(f"{rel}:{v.lineno}")
    return class_args, literal_pools


def test_scan_tells_stateless_from_stateful_classes():
    stateless = _stateless_callables(list(_modules()))
    # the row harnesses and hull.py's kernel are stateless classes; the
    # stateful actors (an index or broadcast state built in __init__)
    # are not
    assert {"ImageHarness", "ClipHarness", "HullCandidates"} <= stateless
    assert not {"SpatialJoinActor", "KNNActor", "IdwActor"} & stateless


def test_no_stateless_class_is_passed_uncalled():
    class_args, _ = _violations()
    assert class_args == []


def test_no_literal_pool_size():
    _, literal_pools = _violations()
    assert literal_pools == []
