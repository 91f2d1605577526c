import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        # 8 cpus: the join-regime tests run many small hash-shuffle
        # joins whose aggregator actors (0.25 CPU each) starve behind
        # map tasks at 4 cpus (measured 2-3x slowdown)
        ray.init(
            address="local",
            num_cpus=8,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture(scope="session", autouse=True)
def quiet_ray_data():
    try:
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
    except Exception:
        pass
    yield


REF_RESOURCES = "/root/reference/tests/resources"


def _count_calls(monkeypatch, owner, attr) -> list:
    """Wrap the driver-side callable ``owner.attr`` for the rest of the
    test; the returned list grows by one entry per call."""
    real = getattr(owner, attr)
    calls = []

    def counted(*args, **kwargs):
        calls.append(attr)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


@pytest.fixture
def regimes(monkeypatch):
    """``regimes(name=(owner, attr), ...)`` counts the calls of one
    driver-side function per regime — one that only that regime calls —
    and returns ``ran()``: the names of the regimes whose function ran
    since the last ``ran()``, sorted and joined by "+" ("" if none).
    Regime parity tests assert it after every forced run: a crossover
    constant captured at import time would otherwise turn a parity test
    into a comparison of one regime with itself."""

    def install(**targets):
        calls = {name: _count_calls(monkeypatch, owner, attr)
                 for name, (owner, attr) in targets.items()}

        def ran() -> str:
            out = "+".join(sorted(n for n, c in calls.items() if c))
            for c in calls.values():
                c.clear()
            return out

        return ran

    return install


@pytest.fixture
def join_regime(monkeypatch, regimes):
    """-> (force, ran) for the ``stages.dist`` broadcast-vs-shuffle
    joins.  ``force(mode)`` patches the crossover constants so every
    join takes ``mode``: 0 admits no side ("shuffle"), 2^62 admits
    every side ("broadcast").  ``ran`` spies on ``_collect_table``
    (broadcast only) and ``Dataset.join`` (shuffle only)."""
    import ray.data

    from osm_replication_rust_ray.stages import dist

    ran = regimes(broadcast=(dist, "_collect_table"),
                  shuffle=(ray.data.Dataset, "join"))

    def force(mode: str):
        limit = {"shuffle": 0, "broadcast": 1 << 62}[mode]
        monkeypatch.setattr(dist, "BROADCAST_ROWS", limit)
        monkeypatch.setattr(dist, "BROADCAST_BYTES", limit)

    return force, ran


@pytest.fixture
def graph_regime(monkeypatch, regimes):
    """-> (force, ran) for the graph queries' (BFS, walks, HITS, label
    propagation) local-vs-distributed choice.  ``force(mode)`` patches
    ``graphlocal.LOCAL_ROWS`` so the next query takes ``mode``
    ("local" or "dist"); ``ran`` spies on ``graphlocal.run_local``
    (local only) and the queries module's ``crossover_join`` (dist
    only)."""
    from osm_replication_rust_ray.functions import graphlocal
    from osm_replication_rust_ray.pipelines import queries

    ran = regimes(local=(graphlocal, "run_local"),
                  dist=(queries, "crossover_join"))

    def force(mode: str):
        monkeypatch.setattr(graphlocal, "LOCAL_ROWS",
                            1 << 62 if mode == "local" else 0)

    return force, ran
