"""Queries finish on a 2-CPU Ray cluster.

A map stage that pins its actor pool wider than the cluster holds
every CPU, so the read feeding it never runs and the query hangs.  The
queries here ran such pools once; they now map as Ray Data tasks.  Each
query here runs in a child process that starts its own 2-CPU local
cluster (the session cluster of the other tests is not touched), under
a hard timeout.  The fixture kills the child's whole process group on
the way out, and the test checks that a clean run leaves no process of
that group behind.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SF = "/root/testdata/sf0.001"
TIMEOUT_S = 300

CHILD = """
import json, sys
import ray
from ray.data import DataContext
from osm_replication_rust_ray.pipelines import queries as Q

ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
DataContext.get_current().enable_progress_bars = False
try:
    counts = {name: getattr(Q, "q_" + name)(sys.argv[1]).count()
              for name in sys.argv[2:]}
finally:
    ray.shutdown()
print(json.dumps(counts))
"""


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def _group_gone(pgid: int, wait_s: float) -> bool:
    deadline = time.monotonic() + wait_s
    while _group_alive(pgid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.5)
    return True


@pytest.fixture
def two_cpu_child():
    """-> run(*query_names): {name: row count} from a child process on
    its own 2-CPU cluster, plus the child's process-group id."""
    pgids = []

    def run(*names):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT), *filter(None, [env.get("PYTHONPATH")])])
        env.pop("RAY_ADDRESS", None)
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, SF, *names], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        pgids.append(proc.pid)
        try:
            out, err = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail(f"{names} did not finish in {TIMEOUT_S} s on 2 CPUs")
        assert proc.returncode == 0, err[-4000:]
        return json.loads(out.strip().splitlines()[-1]), proc.pid

    yield run
    for pgid in pgids:
        if _group_alive(pgid):
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def test_queries_finish_on_two_cpus(two_cpu_child):
    names = ("idw_grid", "hist_equalize", "flac_ops", "radius_join",
             "bloom_blocklist", "ann_topk")
    counts, pgid = two_cpu_child(*names)
    # idw_grid: the 46 of 32 x 32 cells within radius of a feature;
    # the media queries and bloom_blocklist: one row per payload image /
    # clip (defaults); radius_join: the (customer, feature) pairs within
    # radius; ann_topk: 5 neighbours for each of 8 query vectors
    assert counts == {"idw_grid": 46, "hist_equalize": 120, "flac_ops": 300,
                      "radius_join": 1796, "bloom_blocklist": 2000,
                      "ann_topk": 40}
    assert _group_gone(pgid, wait_s=60), "the child left processes running"
