"""CLI surface tests (subprocess — the real binaries-analogue surface),
mirroring the reference's src/bin/{osmbin,osmxml,diffs,update}."""

import gzip
import json
import subprocess
import sys
from pathlib import Path

RES = "/root/reference/tests/resources"
ENV_PY = sys.executable
ROOT = Path(__file__).resolve().parents[1]  # the checkout under test


def _run(*argv):
    return subprocess.run(
        [ENV_PY, "-m", "osm_replication_rust_ray.cli", *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )


def test_cli_osmbin_import_read_check(tmp_path):
    d = str(tmp_path / "db")
    r = _run("osmbin", "--dir", d, "--init", "--import",
             f"{RES}/saint_barthelemy.osm.pbf")
    assert r.returncode == 0, r.stderr
    # known node from the reference's own osmbin tests (src/osmbin.rs:826-832)
    r = _run("osmbin", "--dir", d, "--read", "node", "266053077")
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout.strip().splitlines()[-1])
    # exact golden coords from the reference's own test (src/osmbin.rs:834-843)
    assert out == {"lat": int(17.9031745 * 1e7), "lon": int(-62.8363074 * 1e7)}
    r = _run("osmbin", "--dir", d, "--read", "relation_full", "47796")
    assert r.returncode == 0, r.stderr
    rel = json.loads(r.stdout.strip().splitlines()[-1])
    assert rel and rel["id"] == 47796 and rel["members"]
    r = _run("osmbin", "--dir", d, "--check")
    # saint_barthelemy extract has dangling refs at its clip boundary OR
    # none; either way the command must succeed structurally
    assert r.returncode in (0, 1), r.stderr
    json.loads(r.stdout.strip().splitlines()[-1])


def test_cli_osmxml_convert_and_filter(tmp_path):
    out = str(tmp_path / "out.osc.gz")
    r = _run("osmxml", "--input", f"{RES}/saint_barthelemy.bbox.osc.gz",
             "--output", out, "--filter", f"{RES}/saint_barthelemy.poly")
    assert r.returncode == 0, r.stderr
    with gzip.open(out, "rt", encoding="utf-8") as f:
        text = f.read()
    assert text.startswith('<osm version="0.6">')  # reference writer root


def test_cli_update_loop(tmp_path):
    d = str(tmp_path / "db")
    _run("osmbin", "--dir", d, "--init", "--import",
         f"{RES}/saint_barthelemy.osm.pbf")
    # diff dir with one sequence; polygon tree from the repo fixtures
    diffs = tmp_path / "in"
    diffs.mkdir()
    import shutil

    shutil.copy(f"{RES}/saint_barthelemy.osc.gz", diffs / "000000001.osc.gz")
    r = _run(
        "update", "--store", d, "--polygons", f"{RES}/polygons",
        "--diff-dir", str(diffs), "--output-dir", str(tmp_path / "out"),
        "--ckpt", str(tmp_path / "ckpt"),
    )
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out["processed"] == [1]
    assert out["sequence"] == 1


def test_cli_osmxml_pbf_convert(tmp_path):
    """Extension dispatch: .pbf input converts to .osm.gz (S11)."""
    out = str(tmp_path / "converted.osm.gz")
    r = _run("osmxml", "--input", f"{RES}/saint_barthelemy.osm.pbf",
             "--output", out)
    assert r.returncode == 0, r.stderr
    with gzip.open(out, "rt", encoding="utf-8") as f:
        text = f.read()
    assert text.startswith('<osm version="0.6">')
    assert "<node id=" in text and "<way id=" in text and "<relation id=" in text


def test_cli_replicate_file_mirror(tmp_path):
    """S9 end-to-end through the CLI: file:// mirror -> download ->
    bbox -> filter -> store apply -> commit pointer."""
    import shutil

    from osm_replication_rust_ray.state.replication import seq_split

    d = str(tmp_path / "db")
    _run("osmbin", "--dir", d, "--init", "--import",
         f"{RES}/saint_barthelemy.osm.pbf")
    mirror = tmp_path / "mirror"
    for n in (2,):
        (mirror / seq_split(n)[:7]).mkdir(parents=True, exist_ok=True)
        shutil.copy(f"{RES}/saint_barthelemy.osc.gz",
                    mirror / (seq_split(n) + ".osc.gz"))
        (mirror / (seq_split(n) + ".state.txt")).write_text(f"sequenceNumber={n}\n")
    (mirror / "state.txt").write_text("sequenceNumber=2\n")
    diffs = tmp_path / "diffs"
    (diffs / "planet" / "minute").mkdir(parents=True)
    (diffs / "planet" / "minute" / "state.txt").write_text("sequenceNumber=1\n")
    r = _run(
        "replicate", "--store", d, "--polygons", f"{RES}/polygons",
        "--diffs-dir", str(diffs), "--url", f"file://{mirror}/",
        "--output-dir", str(tmp_path / "out"), "--ckpt", str(tmp_path / "ckpt"),
    )
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out["processed"] == [2]
    assert out["sequence"] == 2


def test_cli_update_lock_blocks_second_writer(tmp_path):
    """Whole-run mutual exclusion (reference: fd-lock around update,
    src/bin/update.rs:30-41): a second writer against the same
    checkpoint manifest FAILS FAST with a lock error while the first
    holds the flock from another process."""
    import os
    import time

    d = str(tmp_path / "db")
    _run("osmbin", "--dir", d, "--init", "--import",
         f"{RES}/saint_barthelemy.osm.pbf")
    diffs = tmp_path / "in"
    diffs.mkdir()
    import shutil

    shutil.copy(f"{RES}/saint_barthelemy.osc.gz", diffs / "000000001.osc.gz")
    ckpt = str(tmp_path / "ckpt")
    os.makedirs(ckpt, exist_ok=True)
    holder = subprocess.Popen(
        [ENV_PY, "-c", (
            "import fcntl, os, sys, time\n"
            f"fd = os.open({ckpt + '/update.lock'!r}, os.O_CREAT | os.O_RDWR)\n"
            "fcntl.flock(fd, fcntl.LOCK_EX)\n"
            "print('locked', flush=True)\n"
            "time.sleep(60)\n"
        )],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        assert holder.stdout.readline().strip() == "locked"
        t0 = time.monotonic()
        r = _run(
            "update", "--store", d, "--polygons", f"{RES}/polygons",
            "--diff-dir", str(diffs), "--output-dir", str(tmp_path / "out"),
            "--ckpt", ckpt,
        )
        elapsed = time.monotonic() - t0
        assert r.returncode != 0  # errors, does not block
        assert "lock" in (r.stderr or "").lower()
        assert elapsed < 60  # fail-fast (LOCK_NB), not queued behind holder
    finally:
        holder.kill()
        holder.wait()


def test_headline_job_entrypoint(tmp_path):
    """`ray job submit` entrypoint (jobs/headline_job.py) runs
    standalone in local mode and emits the one-line JSON the N-vs-4N
    throughput comparison consumes."""
    r = subprocess.run(
        [ENV_PY, "jobs/headline_job.py", "--rows", "20000", "--counts-only"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
        env={**__import__("os").environ, "RAY_ADDRESS": "local"},
    )
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out["rows"] == 20000 and out["rows_per_s"] > 0


def test_cli_diffs_synthetic(tmp_path, capsys):
    """`diffs` on a synthetic .osc, store and polygon tree prints the
    assignment and partition counts of a direct `run_sequence` over a
    copy of the same store."""
    import shutil

    from osm_replication_rust_ray.cli import _load_tree, main
    from osm_replication_rust_ray.pipelines.update import run_sequence
    from osm_replication_rust_ray.sources.osmxml import elements_to_osc, parse_osm_xml
    from osm_replication_rust_ray.sources.store import ElementStore
    from osm_replication_rust_ray.sources.synth import (
        synth_changes,
        synth_store_elements,
        write_polygon_tree,
    )
    from osm_replication_rust_ray.state.manifest import CheckpointManifest

    osc = str(tmp_path / "diff.osc")
    with open(osc, "w", encoding="utf-8") as f:
        f.write(elements_to_osc(synth_changes(800), change=True))
    store = ElementStore(str(tmp_path / "db"))
    store.init()
    store.apply_changes(synth_store_elements(3000))
    shutil.copytree(store.dir, tmp_path / "db_copy")
    polys = write_polygon_tree(str(tmp_path / "polys"))

    assert main(["diffs", "--store", store.dir, "--polygons", polys, "--input", osc,
                 "--output-dir", str(tmp_path / "out")]) == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    tree, parent = _load_tree(polys)
    m = CheckpointManifest(str(tmp_path / "ckpt"))
    got = run_sequence(parse_osm_xml(osc), ElementStore(str(tmp_path / "db_copy")),
                       tree, parent, str(tmp_path / "direct"), m, 1)
    assert got.num_rows > 0
    assert printed == {"assignments": got.num_rows, "partitions": len(m.done())}


def test_load_tree_parent_skips_file_less_levels(tmp_path):
    """A directory level without a .poly file is no parent: `./a/x/y`
    hangs under `./a`, and a top-level path has no parent."""
    from osm_replication_rust_ray.cli import _load_tree
    from osm_replication_rust_ray.sources.polyfile import multipolygon_to_poly_text
    from osm_replication_rust_ray.sources.synth import synth_polygon_tree

    mp = synth_polygon_tree()[0][1]
    (tmp_path / "a" / "x").mkdir(parents=True)
    for rel in ("a.poly", "a/x/y.poly", "b.poly"):
        (tmp_path / rel).write_text(multipolygon_to_poly_text("p", mp))
    tree, parent = _load_tree(str(tmp_path))
    assert [p for p, _n, _mp in tree] == ["./a", "./a/x/y", "./b"]
    assert parent == {"./a": None, "./a/x/y": "./a", "./b": None}
