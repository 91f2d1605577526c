"""CLI mirroring the reference's four binaries (src/bin/):

    python -m osm_replication_rust_ray.cli osmbin  --dir D [--init]
        [--import FILE] [--update FILE] [--read ELEM ID] [--check]
    python -m osm_replication_rust_ray.cli osmxml  --input F --output F
        [--bbox-dir D] [--filter POLY]
    python -m osm_replication_rust_ray.cli diffs   --store D --polygons P
        --input F --output-dir O [--ckpt C]
    python -m osm_replication_rust_ray.cli update  --store D --polygons P
        --diff-dir I --output-dir O --ckpt C [--max-state N]

Runs standalone (Ray Data auto-inits; any explicit init is guarded) —
suitable for `ray job submit -- python -m osm_replication_rust_ray.cli ...`.
"""

from __future__ import annotations

import argparse
import glob
import gzip
import json
import os
import re
import sys

import numpy as np


def _cmd_osmbin(args) -> int:
    import pyarrow.compute as pc

    from .sources.osmxml import parse_osm_xml
    from .sources.store import ElementStore, Resolver, check_store

    store = ElementStore(args.dir)
    if args.init:
        store.init()
    if args.import_file:
        if args.import_file.endswith(".pbf"):
            store.import_pbf(args.import_file)
        else:
            elements = parse_osm_xml(args.import_file)
            store.init()
            for etype, tname in (
                ("node", "nodes"), ("way", "ways"), ("relation", "relations")
            ):
                sub = elements.filter(pc.equal(elements["etype"], etype))
                if sub.num_rows:
                    cols = {"id": sub["id"]}
                    if tname == "nodes":
                        cols["lat"] = sub["lat"].cast("int64")
                        cols["lon"] = sub["lon"].cast("int64")
                    elif tname == "ways":
                        cols["refs"] = sub["refs"]
                    else:
                        cols["members"] = sub["members"]
                        cols["tags"] = sub["tags"]
                    import pyarrow as pa

                    store.write_table(tname, pa.table(cols))
    if args.update:
        store.apply_changes(parse_osm_xml(args.update))
    if args.read:
        elem, eid = args.read[0], int(args.read[1])
        r = Resolver.from_store(store)
        if elem == "node":
            found, lat, lon = r.read_nodes(np.array([eid], np.int64))
            print(json.dumps({"lat": int(lat[0]), "lon": int(lon[0])} if found[0] else None))
        elif elem == "way":
            print(json.dumps(r.read_way(eid)))
        elif elem == "relation":
            print(json.dumps(r.read_relation(eid)))
        elif elem == "relation_full":
            print(json.dumps(r.read_relation_full(eid)))
        else:
            print(f"unknown element type {elem}", file=sys.stderr)
            return 2
    if args.check:
        viol = check_store(store)
        print(viol.to_pandas().to_json(orient="records"))
        return 1 if viol.num_rows else 0
    return 0


def _cmd_osmxml(args) -> int:
    from .sources.osmxml import elements_to_osc, parse_osm_xml

    # extension dispatch (src/osm.rs:262-310): .pbf / .osm[.gz] / .osc[.gz]
    if args.input.endswith(".pbf"):
        from .sources.osmpbf import pbf_to_elements

        elements = pbf_to_elements(args.input)
        is_change = False
        root = "osm"
    else:
        elements = parse_osm_xml(args.input)
        is_change = args.input.endswith((".osc", ".osc.gz"))
        # mirror the input document root through transform stages that
        # rebuild the table (src/osmxml.rs:406-407 -> write_start)
        root = (elements.schema.metadata or {}).get(
            b"osm_root", b""
        ).decode() or ("osmChange" if is_change else "osm")
    if args.bbox_dir:
        from .sources.store import ElementStore, Resolver
        from .stages.bbox import annotate_bbox

        resolver = Resolver.from_store(ElementStore(args.bbox_dir))
        elements = annotate_bbox(elements, resolver)
    if args.filter:
        from .sources.polyfile import read_multipolygon
        from .sources.store import ElementStore, Resolver
        from .stages.bbox import closure_node_ids
        from .stages.filter import filter_elements

        _, mp = read_multipolygon(args.filter)
        resolver = (
            Resolver.from_store(ElementStore(args.bbox_dir))
            if args.bbox_dir
            else Resolver.empty()
        )
        elements = filter_elements(
            elements, mp, resolver, closure_node_ids(elements, resolver)
        )
    text = elements_to_osc(elements, change=is_change, root=root)
    if args.output.endswith(".gz"):
        with gzip.open(args.output, "wt", encoding="utf-8") as f:
            f.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    return 0


def _load_tree(polygons_dir: str):
    """(tree, parent): the flattened polygon tree and, per path, its
    nearest ancestor that carries a polygon (None at the top), by the
    rule ``polygon_chains`` encodes for ``PolyTreeIndex``."""
    from .sources.polytree import get_poly_from_dir, load_tree_polys
    from .stages.spatial_join import polygon_chains

    tree = load_tree_polys(get_poly_from_dir(polygons_dir))
    paths = [p for p, _n, _mp in tree]
    parent = {p: paths[c[1]] if len(c) > 1 else None
              for p, c in zip(paths, polygon_chains(paths))}
    return tree, parent


def _cmd_diffs(args) -> int:
    from .pipelines.update import run_sequence
    from .sources.osmxml import parse_osm_xml
    from .sources.store import ElementStore
    from .state.manifest import CheckpointManifest

    store = ElementStore(args.store)
    tree, parent = _load_tree(args.polygons)
    changes = parse_osm_xml(args.input)
    m = CheckpointManifest(args.ckpt or os.path.join(args.output_dir, ".ckpt"))
    out = run_sequence(changes, store, tree, parent, args.output_dir, m, sequence=1)
    print(json.dumps({"assignments": out.num_rows, "partitions": len(m.done())}))
    return 0


def _cmd_update(args) -> int:
    from .pipelines.update import run_update
    from .sources.osmxml import parse_osm_xml
    from .sources.store import ElementStore
    from .state.manifest import CheckpointManifest

    store = ElementStore(args.store)
    tree, parent = _load_tree(args.polygons)
    changes_by_seq = {}
    for path in sorted(glob.glob(os.path.join(args.diff_dir, "*.osc*"))):
        mseq = re.search(r"(\d+)", os.path.basename(path))
        if mseq:
            changes_by_seq[int(mseq.group(1))] = parse_osm_xml(path)
    m = CheckpointManifest(args.ckpt)
    done = run_update(
        changes_by_seq, store, tree, parent, args.output_dir, m,
        max_state=args.max_state,
    )
    rows, nbytes = m.totals()
    print(json.dumps({"processed": done, "sequence": m.sequence,
                      "rows": rows, "bytes": nbytes}))
    return 0


def _cmd_replicate(args) -> int:
    """S9: download + sequential update from a (file:// or http)
    replication mirror (src/update.rs:30-146 semantics)."""
    from .sources.store import ElementStore
    from .state.manifest import CheckpointManifest
    from .state.replication import run_replication

    store = ElementStore(args.store)
    tree, parent = _load_tree(args.polygons)
    manifest = CheckpointManifest(args.ckpt)
    done = run_replication(
        store, tree, parent, args.diffs_dir, args.url, args.output_dir,
        manifest, max_state=args.max_state,
    )
    print(json.dumps({"processed": done, "sequence": manifest.sequence}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="osm_replication_rust_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("osmbin", help="element store init/import/update/read/check")
    b.add_argument("--dir", required=True)
    b.add_argument("--init", action="store_true")
    b.add_argument("--import", dest="import_file")
    b.add_argument("--update")
    b.add_argument("--read", nargs=2, metavar=("ELEM", "ID"))
    b.add_argument("--check", action="store_true")
    b.set_defaults(fn=_cmd_osmbin)

    x = sub.add_parser("osmxml", help="single-file convert / bbox / filter")
    x.add_argument("--input", required=True)
    x.add_argument("--output", required=True)
    x.add_argument("--bbox-dir")
    x.add_argument("--filter")
    x.set_defaults(fn=_cmd_osmxml)

    d = sub.add_parser("diffs", help="re-split one diff over a polygon tree")
    d.add_argument("--store", required=True)
    d.add_argument("--polygons", required=True)
    d.add_argument("--input", required=True)
    d.add_argument("--output-dir", required=True)
    d.add_argument("--ckpt")
    d.set_defaults(fn=_cmd_diffs)

    u = sub.add_parser("update", help="sequential replication loop")
    u.add_argument("--store", required=True)
    u.add_argument("--polygons", required=True)
    u.add_argument("--diff-dir", required=True)
    u.add_argument("--output-dir", required=True)
    u.add_argument("--ckpt", required=True)
    u.add_argument("--max-state", type=int)
    u.set_defaults(fn=_cmd_update)

    r = sub.add_parser(
        "replicate", help="S9 downloader + sequential update from a mirror"
    )
    r.add_argument("--store", required=True)
    r.add_argument("--polygons", required=True)
    r.add_argument("--diffs-dir", required=True)
    r.add_argument("--url", required=True, help="mirror base url (file:// or http)")
    r.add_argument("--output-dir", required=True)
    r.add_argument("--ckpt", required=True)
    r.add_argument("--max-state", type=int)
    r.set_defaults(fn=_cmd_replicate)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
