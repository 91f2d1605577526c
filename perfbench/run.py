#!/usr/bin/env python3
"""Run one workload of the spatial-tiler benchmark and print its metrics.

    python3 perfbench/run.py --workload tile_grid --seed 1 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` runs half the time untraced and half traced, and prints the
per-layer metrics; it also writes the layer sidecar
``.perfbench/sidecar-<workload>.json`` in which the layers' self times
plus ``leftover`` add up to the traced wall time of one operation.

Each run sets the workload up in a few fresh Ray sessions in turn and
measures an equal share of ``--seconds`` in each (``perfbench/design.json``
fixes their number and size).  It builds the inputs from ``--seed``,
checks every output against a per-seed reference computed without Ray,
and counts an exception, a timed-out operation or a wrong output as a
failed operation.  The last line of standard output is one JSON object;
the line before it reports the host probe and the share of CPU time the
hypervisor took from this host during the run (``steal_share``) next to
the run's own spread, so that a slow run on a busy host shows as such.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = "osm_replication_rust_ray"
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("tile_tree", "tile_grid", "replicate")



def ray_settings() -> dict:
    """Ray session size, sessions per run and operation timeout."""
    with open(os.path.join(HERE, "design.json"), encoding="utf-8") as f:
        return json.load(f)["ray"]

# per-layer metrics taken from the attribution of one operation:
# (metric, span name); "_s" metrics are the span's share of the wall time
SELF_METRICS = [
    ("sources.synth.gen_s", "sources.synth.gen"),
    ("cells.extents_s", "cells.extents"),
    ("stages.spatial_join.candidates_s", "stages.spatial_join.candidates"),
    ("stages.spatial_join.refine_s", "stages.spatial_join.refine"),
    ("stages.spatial_join.emit_s", "stages.spatial_join.emit"),
    ("pipelines.spatial.merge_s", "pipelines.spatial.merge"),
    ("stages.bbox.annotate_s", "stages.bbox.annotate"),
    ("stages.bbox.closure_s", "stages.bbox.closure"),
    ("stages.filter.tree_s", "stages.filter.tree"),
    ("stages.filter.elements_s", "stages.filter.elements"),
    ("sources.store.load_s", "sources.store.load"),
    ("sources.store.apply_s", "sources.store.apply"),
    ("state.manifest.write_s", "state.manifest.write"),
    ("state.manifest.commit_s", "state.manifest.commit"),
]
# spans per operation of each layer's wrapped functions: 0 tells a layer
# the workload never calls (its "_s" metrics then read 0.0) from a fast one
LAYERS = ["sources.synth", "cells", "stages.spatial_join", "stages.bbox", "stages.filter",
          "sources.store", "state.manifest"]
COUNT_METRICS = [
    ("stages.spatial_join.candidate_pairs", "candidates"),
    ("stages.spatial_join.assigned_pairs", "assigned"),
    ("sources.store.resolver_lookups", "lookups"),
    ("state.manifest.partitions", "partitions"),
    ("state.manifest.bytes", "bytes"),
]


class OpTimeout(Exception):
    pass


def call_with_timeout(fn, timeout: float, tracer=None):
    """Run ``fn`` in a daemon thread; returns (result, seconds).  Raises
    ``OpTimeout`` if it has not returned within ``timeout`` seconds, and
    re-raises whatever ``fn`` raised."""
    box: dict = {}

    def target():
        from perfbench.trace import ROOT_SPAN

        span = tracer.open(ROOT_SPAN) if tracer else None
        t0 = time.perf_counter()
        try:
            box["out"] = fn()
        except BaseException as e:  # handed to the caller's thread
            box["err"] = e
        finally:
            box["dt"] = time.perf_counter() - t0
            if span is not None:
                tracer.close(span)

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(timeout)
    if t.is_alive():
        raise OpTimeout(f"no result after {timeout:.0f} s")
    if "err" in box:
        raise box["err"]
    return box["out"], box["dt"]


# ------------------------------------------------------------ processes

def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for p in os.listdir("/proc"):
        if not p.isdigit():
            continue
        try:
            with open(f"/proc/{p}/stat", encoding="utf-8") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(p))
    return kids


def descendants(pid: int) -> list[int]:
    kids, out, todo = _children(), [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as f:
            for line in f:
                if line.startswith(field):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _is_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


class RssSampler:
    """Peak of the summed resident memory of this process and its Ray worker
    processes, sampled from ``/proc`` while running."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        me = os.getpid()
        kb = _status_kb(me, "VmRSS:")
        kb += sum(_status_kb(p, "VmRSS:") for p in descendants(me) if _is_worker(p))
        self.peak_kb = max(self.peak_kb, kb)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(self.interval)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()


def stop_processes(grace: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended."""
    pids = descendants(os.getpid())
    for sig, wait in ((signal.SIGTERM, grace), (signal.SIGKILL, grace)):
        for p in pids:
            try:
                os.kill(p, sig)
            except ProcessLookupError:
                pass
        t_end = time.monotonic() + wait
        while time.monotonic() < t_end:
            for p in pids:
                try:
                    os.waitpid(p, os.WNOHANG)
                except ChildProcessError:
                    pass
            pids = [p for p in pids if os.path.exists(f"/proc/{p}")
                    and not _is_zombie(p)]
            if not pids:
                return
            time.sleep(0.05)


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except (OSError, IndexError):
        return False


# ----------------------------------------------------------------- ray

def ray_temp_dir() -> str | None:
    """Session directory inside the checkout, unless its socket paths
    would pass the Unix limit; then Ray's default."""
    path = os.path.join(WORK, "ray")
    return path if len(path) <= 44 else None


def start_ray(trace_dir: str | None) -> None:
    import ray

    settings = ray_settings()
    # the workers import the package (and, traced, this benchmark) from
    # the checkout: hand them its path
    paths = [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    runtime_env = None
    if trace_dir:
        from perfbench.trace import TRACE_DIR_ENV

        os.environ[TRACE_DIR_ENV] = trace_dir
        runtime_env = {"worker_process_setup_hook": "perfbench.trace.install_worker"}
    ray.init(
        address="local",
        num_cpus=settings["num_cpus"],
        object_store_memory=settings["object_store_mb"] << 20,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _temp_dir=ray_temp_dir(),
        runtime_env=runtime_env,
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False


def stop_ray() -> None:
    import ray

    ray.shutdown()


# -------------------------------------------------------------- probe

def host_probe(reps: int = 15) -> float:
    """Median seconds of a fixed 256x256 float64 matmul: a reading of how
    fast this host runs right now, independent of the code under test."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((256, 256))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ a
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cpu_steal() -> tuple[int, int]:
    """(stolen, total) CPU time of this host's virtual CPUs so far, in
    clock ticks from ``/proc/stat``: time the hypervisor ran others."""
    with open("/proc/stat", encoding="utf-8") as f:
        ticks = [int(x) for x in f.readline().split()[1:9]]
    return ticks[7], sum(ticks)


# ------------------------------------------------------------ measure

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.rates: list[float] = []
        self.errors: list[str] = []
        self.hung = False


def measure(wl, seconds: float, timeout: float, tally: Tally, tracer=None,
            min_ops: int = 1) -> None:
    """Closed loop, one client: the next operation starts when the last
    one has returned and been checked, and while at least half the last
    operation's time is left of ``seconds``."""
    t_end = time.monotonic() + seconds
    n, last = 0, 0.0
    while n < min_ops or time.monotonic() + last / 2 < t_end:
        n += 1
        op = wl.next_op()
        gc.collect()  # so that no operation pays for its predecessors' garbage
        tally.attempted += 1
        try:
            out, dt = call_with_timeout(op.run, timeout, tracer)
        except OpTimeout as e:
            tally.failed += 1
            tally.errors.append(str(e))
            tally.hung = True
            return
        except Exception as e:  # an operation that raises is a failed one
            tally.failed += 1
            tally.errors.append(f"{type(e).__name__}: {e}")
            wl.restart()
            continue
        last = dt
        err = op.check(out)
        if err:
            tally.failed += 1
            tally.errors.append(err)
            wl.restart()
            continue
        tally.latencies.append(dt)
        tally.rates.append(op.items / dt)


def quartile_spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else None


def end_to_end(tally: Tally, setup_times: list[float], peak_kb: int) -> dict:
    return {
        "throughput_per_s": {"value": statistics.median(tally.rates), "unit": "items/s"},
        "seq_p50_s": {"value": statistics.median(tally.latencies), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def per_layer(name: str, ops: list[dict], untraced: Tally, traced: Tally,
              floor_s: float, probe_s: float) -> tuple[dict, dict]:
    """Per-layer metrics (means over the traced operations) and the sidecar."""
    n = len(ops)
    wall = sum(o["wall_ns"] for o in ops) / n / 1e9
    selfs: dict[str, float] = {}
    busy: dict[str, float] = {}
    counts: dict[str, float] = {}
    calls: dict[str, float] = {}
    for o in ops:
        for k, v in o["self_ns"].items():
            selfs[k] = selfs.get(k, 0.0) + v / n / 1e9
        for k, v in o["busy_ns"].items():
            busy[k] = busy.get(k, 0.0) + v / n / 1e9
        for k, v in o["counts"].items():
            counts[k] = counts.get(k, 0.0) + v / n
        for k, v in o["calls"].items():
            calls[k] = calls.get(k, 0.0) + v / n
    ready = [o["ready_ns"] / 1e9 for o in ops if o["ready_ns"] is not None]
    init_calls = calls.get("stages.spatial_join.init", 0.0)
    # a difference of two medians; below the run's noise it can come out
    # negative, which the metric reports as 0 (the sidecar keeps the sign)
    overhead = statistics.median(traced.latencies) - statistics.median(untraced.latencies)

    m = {}
    for metric, span in SELF_METRICS:
        m[metric] = (selfs.get(span, 0.0), "s")
    m["stages.spatial_join.init_s"] = (
        busy.get("stages.spatial_join.init", 0.0) / init_calls if init_calls else 0.0, "s")
    m["stages.spatial_join.ready_s"] = (statistics.median(ready) if ready else 0.0, "s")
    for metric, key in COUNT_METRICS:
        m[metric] = (counts.get(key, 0.0), "count")
    for layer in LAYERS:
        m[f"{layer}.calls"] = (sum(v for k, v in calls.items() if k.startswith(layer + ".")),
                               "count")
    cand = counts.get("candidates", 0.0)
    m["stages.spatial_join.hit_ratio"] = (counts.get("assigned", 0.0) / cand if cand else 0.0,
                                          "ratio")
    m["ray_data.floor_s"] = (floor_s, "s")
    m["leftover_s"] = (selfs.get("leftover", 0.0), "s")
    m["trace.overhead_s"] = (max(0.0, overhead), "s")
    m["trace.wall_s"] = (wall, "s")
    m["host.probe_s"] = (probe_s, "s")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    sidecar = {
        "workload": name,
        "operations": n,
        "wall_s": wall,
        "self_s": dict(sorted(selfs.items(), key=lambda kv: -kv[1])),
        "self_sum_s": sum(selfs.values()),
        "busy_s": busy,
        "calls_per_op": calls,
        "counts_per_op": counts,
        "ready_s": m["stages.spatial_join.ready_s"][0],
        "untraced_op_s": statistics.median(untraced.latencies),
        "traced_op_s": statistics.median(traced.latencies),
        "trace_overhead_s": overhead,
        "ray_data_floor_s": floor_s,
        "host_probe_s": probe_s,
    }
    return metrics, sidecar


# --------------------------------------------------------------- main

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args) -> dict:
    from perfbench import trace, workloads

    settings = ray_settings()
    timeout = settings["op_timeout_s"]
    trace_dir = None
    if args.trace:
        trace_dir = os.path.join(WORK, f"trace-{os.getpid()}")
        os.makedirs(trace_dir, exist_ok=True)
    probes = [host_probe()]
    steal0 = cpu_steal()

    # Several sessions, each set up afresh (Ray session, inputs,
    # object-store puts, warm-up) and measured for an equal share of the
    # run, so that neither set-up time nor operation times rest on one
    # session.  A set-up that raises or hangs ends the run as one failed
    # operation.  The traced run measures in the last session only.
    sessions = settings["sessions"]
    setup_times, tally, peak_kb = [], Tally(), 0
    for i in range(sessions):
        if i:
            wl.teardown()
            stop_ray()
            stop_processes()  # the next session starts on a quiet host
        t0 = time.perf_counter()
        start_ray(trace_dir)
        wl = workloads.make(args.workload, args.seed, WORK)
        try:
            call_with_timeout(wl.setup, timeout)
        except Exception as e:  # reported, not raised: see above
            print(json.dumps({"errors": [f"set-up: {type(e).__name__}: {e}"]}))
            return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                    "hung": isinstance(e, OpTimeout)}
        setup_times.append(time.perf_counter() - t0)
        wl.reference()  # outside set-up time; cached per seed
        if not args.trace:
            with RssSampler() as rss:
                measure(wl, args.seconds / sessions, timeout, tally)
            peak_kb = max(peak_kb, rss.peak_kb)
            if tally.hung:
                break

    if not args.trace:
        metrics = end_to_end(tally, setup_times, peak_kb) if tally.latencies else {}
        tallies = [tally]
    else:
        tracer = trace.install_main(trace_dir)
        untraced, traced = Tally(), Tally()
        measure(wl, args.seconds / 2, timeout, untraced, min_ops=2)
        if not untraced.hung:
            open(tracer.marker, "w", encoding="utf-8").close()
            measure(wl, args.seconds / 2, timeout, traced, tracer, min_ops=2)
            os.remove(tracer.marker)
        tallies = [untraced, traced]
        metrics = {}
        if untraced.latencies and traced.latencies and not traced.hung:
            floor_run = wl.floor()
            floor_times = [call_with_timeout(floor_run, timeout)[1] for _ in range(3)]
            ops = trace.analyze(trace_dir, merge_tail=args.workload != "replicate")
            probes.append(host_probe())
            metrics, sidecar = per_layer(args.workload, ops, untraced, traced,
                                         statistics.median(floor_times),
                                         statistics.median(probes))
            sidecar["errors"] = untraced.errors + traced.errors
            with open(os.path.join(WORK, f"sidecar-{args.workload}.json"), "w",
                      encoding="utf-8") as f:
                json.dump(sidecar, f, indent=1)
        shutil.rmtree(trace_dir, ignore_errors=True)
    probes.append(host_probe())
    steal1 = cpu_steal()
    stolen = (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1])

    failed = sum(t.failed for t in tallies)
    hung = any(t.hung for t in tallies)
    latencies = [x for t in tallies for x in t.latencies]
    print(json.dumps({
        "host": {"probe_s": probes, "steal_share": stolen,
                 "quiet": max(probes) < 1.5 * min(probes) and stolen < 0.05},
        "run": {"workload": args.workload, "seed": args.seed, "ops": len(latencies),
                "op_s": [round(x, 3) for x in latencies],
                "op_s_quartile_spread": quartile_spread(latencies),
                "setup_s": setup_times},
        "errors": [e for t in tallies for e in t.errors][:5],
    }))
    if not hung:
        wl.teardown()
    return {
        "correct": failed == 0,
        "attempted": sum(t.attempted for t in tallies),
        "failed": failed,
        "metrics": metrics,
        "hung": hung,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, PACKAGE)):
        print(f"perfbench: package {PACKAGE!r} not found next to {HERE}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    os.makedirs(WORK, exist_ok=True)
    sessions = os.path.join(WORK, "ray")
    before = set(os.listdir(sessions)) if os.path.isdir(sessions) else set()
    out = None
    try:
        out = run(args)
    finally:
        sys.stdout.flush()
        if out is not None and not out["hung"]:
            stop_ray()
        stop_processes()
        # this run's Ray session directories (logs, sockets)
        for name in set(os.listdir(sessions)) - before if os.path.isdir(sessions) else ():
            path = os.path.join(sessions, name)
            if os.path.islink(path):
                os.unlink(path)
            else:
                shutil.rmtree(path, ignore_errors=True)
    hung = out.pop("hung")
    print(json.dumps(out), flush=True)
    if hung:  # the hung operation's thread cannot be joined
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
