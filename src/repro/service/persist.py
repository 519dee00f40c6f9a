"""On-disk workspace persistence: sessions that survive the process.

A persisted workspace is a directory under the server's ``--persist-dir``::

    <persist_dir>/<workspace>/
        manifest.json        # units (name + source), local crate, version
        cache/               # SummaryStore disk tier (records, summaries,
                             # focus tables), one JSON file per entry

The manifest holds everything needed to rebuild the *workspace* (the open
sources); the cache directory holds everything needed to make the rebuilt
session answer its first query **warm**.  Because cache keys are content
fingerprints, a restart re-derives the same fingerprints from the same
sources and the first ``analyze``/``slice``/``focus`` query is a disk hit —
no function is re-analysed unless its content actually changed between runs.

Manifest writes are atomic (write-to-temp + rename), so a crash mid-save
leaves the previous manifest intact; the cache tier is content-addressed and
therefore always safe to reuse partially.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List, Optional, Union

from repro.errors import QueryError
from repro.service.session import AnalysisSession
from repro.version import __version__

MANIFEST_NAME = "manifest.json"
CACHE_SUBDIR = "cache"
MANIFEST_FORMAT = 1

PathLike = Union[str, Path]


def workspace_dir(persist_dir: PathLike, name: str = "default") -> Path:
    """The directory holding one named workspace's manifest and cache tier."""
    return Path(persist_dir) / name


def cache_dir(persist_dir: PathLike, name: str = "default") -> Path:
    """The workspace's SummaryStore disk-tier directory."""
    return workspace_dir(persist_dir, name) / CACHE_SUBDIR


def has_workspace(persist_dir: PathLike, name: str = "default") -> bool:
    """Whether a saved manifest exists for ``name`` under ``persist_dir``."""
    return (workspace_dir(persist_dir, name) / MANIFEST_NAME).is_file()


def load_manifest(persist_dir: PathLike, name: str = "default") -> dict:
    """Read and validate one workspace manifest.

    Raises :class:`QueryError` (code ``unknown_workspace``) when the manifest
    is missing or unreadable — the error clients of ``workspace load`` see.
    """
    path = workspace_dir(persist_dir, name) / MANIFEST_NAME
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise QueryError(
            f"no saved workspace {name!r} under {str(persist_dir)!r}: {error}",
            code=QueryError.UNKNOWN_WORKSPACE,
        ) from None
    if not isinstance(data, dict) or not isinstance(data.get("units"), list):
        raise QueryError(
            f"workspace {name!r} has a malformed manifest",
            code=QueryError.UNKNOWN_WORKSPACE,
        )
    return data


def save_workspace(
    session: AnalysisSession, persist_dir: PathLike, name: str = "default"
) -> dict:
    """Persist ``session`` as workspace ``name`` under ``persist_dir``.

    Writes the manifest atomically and makes sure the workspace's cache
    directory holds the session's cached entries: if the session's store
    already uses that directory as its disk tier the entries were written
    through on ``put``; otherwise the in-memory tier is flushed into it.
    Returns a JSON-ready summary of what was saved.
    """
    wdir = workspace_dir(persist_dir, name)
    wdir.mkdir(parents=True, exist_ok=True)
    target_cache = cache_dir(persist_dir, name)

    store = session.store
    if store.disk_dir is not None and store.disk_dir.resolve() == target_cache.resolve():
        flushed = 0  # written through already
    else:
        flushed = store.flush_to(target_cache)

    manifest = {
        "format": MANIFEST_FORMAT,
        "version": __version__,
        "local_crate": session.local_crate,
        "generation": session.generation,
        "units": [{"name": n, "source": s} for n, s in session.units()],
    }
    path = wdir / MANIFEST_NAME
    tmp = wdir / (MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)

    return {
        "workspace": name,
        "path": str(wdir),
        "units": session.unit_names(),
        "functions": len(session.function_names()) if session.unit_names() else 0,
        "cache_entries": len(store),
        "cache_entries_flushed": flushed,
        "version": __version__,
    }


def load_workspace(
    persist_dir: PathLike,
    name: str = "default",
    max_entries: int = 4096,
) -> AnalysisSession:
    """Rebuild a saved workspace as a live :class:`AnalysisSession`.

    The returned session's store adopts the workspace's cache directory as
    its disk tier, so the first query over unchanged sources is served warm
    from disk rather than re-analysed.
    """
    manifest = load_manifest(persist_dir, name)
    session = AnalysisSession(
        cache_dir=str(cache_dir(persist_dir, name)),
        max_entries=max_entries,
        local_crate=str(manifest.get("local_crate", "main")),
    )
    units = [(str(u["name"]), str(u["source"])) for u in manifest["units"]]
    if units:
        session.open_units(units)
    return session


def open_or_create_workspace(
    persist_dir: PathLike,
    name: str = "default",
    max_entries: int = 4096,
    local_crate: str = "main",
) -> AnalysisSession:
    """Load workspace ``name`` if it was saved before, else create it empty.

    Either way the session writes through to the workspace's cache directory
    from the start — the server's standard way to obtain a durable session.
    """
    if has_workspace(persist_dir, name):
        return load_workspace(persist_dir, name, max_entries=max_entries)
    return AnalysisSession(
        cache_dir=str(cache_dir(persist_dir, name)),
        max_entries=max_entries,
        local_crate=local_crate,
    )


def list_workspaces(persist_dir: PathLike) -> List[dict]:
    """Summaries of every saved workspace under ``persist_dir``."""
    root = Path(persist_dir)
    if not root.is_dir():
        return []
    out: List[dict] = []
    for child in sorted(root.iterdir()):
        if not (child / MANIFEST_NAME).is_file():
            continue
        try:
            manifest = load_manifest(root, child.name)
        except QueryError:
            continue
        cache = child / CACHE_SUBDIR
        out.append(
            {
                "workspace": child.name,
                "units": [str(u.get("name")) for u in manifest["units"]],
                "local_crate": manifest.get("local_crate"),
                "version": manifest.get("version"),
                "cache_files": sum(1 for _ in cache.glob("*.json")) if cache.is_dir() else 0,
            }
        )
    return out
