"""S9: replication downloader + sequential update loop.

Engine form of ``Update::update`` / ``Update::download`` /
``read_state*`` (``/root/reference/src/update.rs:30-247``):

- ``seq_split(n)``: AAA/BBB/CCC sequence path (src/update.rs:74-80).
- ``read_state(content)``: ``sequenceNumber=`` line parse
  (src/update.rs:175-182).
- ``read_state_from_url``: ``file://`` (or scheme-less) short-circuits
  to a local read (src/update.rs:158-162); http(s) fetches via the
  injected fetcher.
- ``download(url, filename)``: parent mkdir; ``file://`` copies with
  no retry (src/update.rs:189-199); http(s) retries 5 times with a 1 s
  sleep (src/update.rs:201-220) and preserves the RFC2822
  ``Last-Modified`` header as the file mtime (src/update.rs:221-245).
- ``run_replication``: the §3.1 phase-ordered micro-batch loop —
  local state -> remote state (clamped) -> per sequence: download diff
  + state, then ``run_sequence`` (bbox-annotate from the PRE-update
  store, polygon-tree filter to partitioned outputs, apply the diff to
  the store), whose hooks write the bbox diff, hard-link + symlink the
  bbox state pointer, and flip the planet ``state.txt`` symlink after
  the store mutation (the commit pointer, src/update.rs:138-143).

No network exists in this sandbox: the http path is exercised through
the injectable ``fetch`` callable (tests simulate failures, retries
and Last-Modified); ``file://`` mirrors run for real end-to-end.
"""

from __future__ import annotations

import email.utils
import os
import shutil
import time
from urllib.parse import urlparse


class StateError(Exception):
    pass


def seq_split(n: int) -> str:
    return f"{(n // 1_000_000) % 1000:03d}/{(n // 1_000) % 1000:03d}/{n % 1000:03d}"


def read_state(content: str, source: str) -> int:
    for line in content.splitlines():
        if line.startswith("sequenceNumber="):
            return int(line.split("=", 1)[1])
    raise StateError(f"no sequenceNumber in {source}")


def read_state_from_file(filename: str) -> int:
    if not os.path.exists(filename):
        raise StateError(f"state file not found: {filename}")
    with open(filename, encoding="utf-8") as f:
        return read_state(f.read(), filename)


def _file_url_path(url: str) -> str:
    """file://host/path or scheme-less -> local path (src/update.rs:160)."""
    u = urlparse(url)
    if u.scheme in ("", "file"):
        return f"/{u.netloc}{u.path}" if u.netloc else (u.path or url)
    raise ValueError(f"not a file url: {url}")


def _default_fetch(url: str) -> tuple[bytes, dict]:
    """HTTP GET -> (body, headers); swapped out in tests (no network
    in this sandbox)."""
    from urllib.request import Request, urlopen  # pragma: no cover

    req = Request(url, headers={"User-Agent": "osm-extract-replication"})
    with urlopen(req) as resp:  # pragma: no cover
        return resp.read(), dict(resp.headers)


def read_state_from_url(url: str, fetch=_default_fetch) -> int:
    u = urlparse(url)
    if u.scheme in ("", "file"):
        return read_state_from_file(_file_url_path(url))
    body, _headers = fetch(url)
    return read_state(body.decode("utf-8"), url)


def download(url: str, filename: str, fetch=_default_fetch,
             retries: int = 5, sleep_s: float = 1.0) -> None:
    """Fetch ``url`` into ``filename`` with the reference's semantics:
    file:// copies once (errors propagate immediately); http retries
    ``retries`` attempts with ``sleep_s`` between, then preserves the
    Last-Modified header as the file's mtime."""
    os.makedirs(os.path.dirname(filename) or ".", exist_ok=True)
    u = urlparse(url)
    if u.scheme in ("", "file"):
        shutil.copy(_file_url_path(url), filename)
        return
    body = None
    headers: dict = {}
    for attempt in range(retries):
        try:
            body, headers = fetch(url)
            break
        except Exception:
            if attempt == retries - 1:
                raise
            time.sleep(sleep_s)
    tmp = filename + "-tmp"
    with open(tmp, "wb") as f:
        f.write(body or b"")
    os.replace(tmp, filename)
    lm = {k.lower(): v for k, v in headers.items()}.get("last-modified")
    if lm:
        ts = email.utils.parsedate_to_datetime(lm).timestamp()
        os.utime(filename, (ts, ts))


def _symlink_state(state_file: str, split: str) -> None:
    """Replace ``state.txt`` with a symlink to <split>.state.txt —
    the atomic commit-pointer flip (src/update.rs:138-143)."""
    if os.path.lexists(state_file):
        os.remove(state_file)
    os.symlink(split + ".state.txt", state_file)


def run_replication(
    store,
    tree_polys,
    tree_parent,
    dir_diffs: str,
    url_diffs: str,
    out_dir: str,
    manifest,
    max_state: int | None = None,
    fetch=_default_fetch,
) -> list[int]:
    """Sequential replication from a (file:// or http) mirror.

    Returns the list of processed sequence numbers.  Each sequence runs
    through ``pipelines.update.run_sequence`` (phase order of
    src/update.rs:90-143); its hooks write the bbox-annotated diff and
    flip the bbox ``state.txt`` symlink, then flip the planet
    ``state.txt`` symlink after the store mutation, just before the
    checkpoint manifest commits."""
    import gzip

    from ..pipelines.update import run_sequence
    from ..sources.osmxml import elements_to_osc, parse_osm_xml

    state_file = os.path.join(dir_diffs, "planet", "minute", "state.txt")
    cur = read_state_from_file(state_file)
    remote = read_state_from_url(url_diffs + "state.txt", fetch=fetch)
    if max_state is not None:
        remote = min(remote, max_state)  # clamp (src/update.rs:60-62)
    if cur == remote:
        return []

    done: list[int] = []
    manifest.acquire_lock()
    try:
        for n in range(cur + 1, remote + 1):
            split = seq_split(n)
            orig_state = os.path.join(dir_diffs, "planet", "minute", split + ".state.txt")
            orig_diff = os.path.join(dir_diffs, "planet", "minute", split + ".osc.gz")
            bbox_state = os.path.join(dir_diffs, "bbox", "minute", split + ".state.txt")
            bbox_diff = os.path.join(dir_diffs, "bbox", "minute", split + ".osc.gz")

            download(url_diffs + split + ".osc.gz", orig_diff, fetch=fetch)
            download(url_diffs + split + ".state.txt", orig_state, fetch=fetch)

            def write_bbox_diff(annotated):
                os.makedirs(os.path.dirname(bbox_diff), exist_ok=True)
                with gzip.open(bbox_diff, "wt", encoding="utf-8") as f:
                    f.write(elements_to_osc(annotated, change=True, root="osm"))
                if not os.path.exists(bbox_state):
                    os.link(orig_state, bbox_state)  # hard link (src/update.rs:109)
                _symlink_state(
                    os.path.join(dir_diffs, "bbox", "minute", "state.txt"), split
                )

            run_sequence(
                parse_osm_xml(orig_diff), store, tree_polys, tree_parent,
                out_dir, manifest, n,
                on_annotated=write_bbox_diff,
                before_commit=lambda: _symlink_state(state_file, split),
            )
            done.append(n)
    finally:
        manifest.release_lock()
    return done
