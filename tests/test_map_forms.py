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
  are sized from the input (``pool_concurrency(est_tasks(...))``);
- only the actors that build an index in ``__init__`` run as actor
  pools: ``SpatialJoinActor`` (polygon tree), ``KNNActor`` (cell kNN
  index) and ``_SegClipActor`` (edge STRtree).  Any other class is
  passed as an instance, so a stage whose only state is a broadcast
  computes it on the driver and binds it by value: no
  ``fn_constructor_args=`` (a ref fetched in ``__init__``), no
  ``ray.get`` in a package ``__init__``.  Ray Data puts a stage's map
  function into the object store once per operator, so the bound
  state ships once either way.
"""

import ast
from pathlib import Path

import osm_replication_rust_ray

PKG = Path(osm_replication_rust_ray.__file__).parent
INDEX_ACTORS = {"SpatialJoinActor", "KNNActor", "_SegClipActor"}
# the index actors whose index input is a ray.put broadcast
BROADCAST_INDEX_ACTORS = {"SpatialJoinActor", "KNNActor"}


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


def _pool_violations() -> tuple[list[str], list[str], list[str]]:
    """(constructor args for a class other than a broadcast index actor,
    classes other than the index actors passed un-called, ``ray.get``
    calls inside an ``__init__`` outside the index actors)."""
    trees = list(_modules())
    classes = {node.name for _, tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    ctor_args, class_args, init_gets = [], [], []
    for rel, tree in trees:
        for call in _calls(tree):
            kws = {k.arg for k in call.keywords}
            if kws & {"fn_constructor_args", "fn_constructor_kwargs"}:
                fn = _name(call.args[0]) if call.args else None
                if fn not in BROADCAST_INDEX_ACTORS:
                    ctor_args.append(f"{rel}:{call.lineno} {fn}")
            if _name(call.func) in ("isinstance", "issubclass", "__new__"):
                continue
            for arg in [*call.args, *(k.value for k in call.keywords)]:
                if _name(arg) in classes - INDEX_ACTORS:
                    class_args.append(f"{rel}:{arg.lineno} {_name(arg)}")
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or cls.name in INDEX_ACTORS:
                continue
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    init_gets += [
                        f"{rel}:{c.lineno} {cls.name}" for c in _calls(fn)
                        if isinstance(c.func, ast.Attribute)
                        and c.func.attr == "get"
                        and _name(c.func.value) in ("ray", "_ray")]
    return ctor_args, class_args, init_gets


def test_scan_tells_stateless_from_stateful_classes():
    stateless = _stateless_callables(list(_modules()))
    # the row harnesses and hull.py's kernel are stateless classes; the
    # stateful actors (an index or broadcast state built in __init__)
    # are not
    assert {"ImageHarness", "ClipHarness", "HullCandidates"} <= stateless
    assert not {"SpatialJoinActor", "KNNActor", "_SegClipActor",
                "DecontamScorer"} & stateless


def test_no_stateless_class_is_passed_uncalled():
    class_args, _ = _violations()
    assert class_args == []


def test_no_literal_pool_size():
    _, literal_pools = _violations()
    assert literal_pools == []


def test_only_broadcast_index_actors_take_constructor_args():
    ctor_args, _, _ = _pool_violations()
    assert ctor_args == []


def test_only_index_actors_are_passed_as_classes():
    _, class_args, _ = _pool_violations()
    assert class_args == []


def test_no_ray_get_in_an_init_outside_the_index_actors():
    _, _, init_gets = _pool_violations()
    assert init_gets == []
