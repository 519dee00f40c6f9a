"""Single source of truth for the package version.

The version lives in ``pyproject.toml`` (the packaging metadata); everything
else — ``repro.__version__``, ``repro version`` / ``repro --version``, the
server hello message, and the protocol's ``version``/``ping`` methods — reads
it from here so the number can never fork between the CLI, the protocol
docs, and the published package.

Resolution order:

1. ``pyproject.toml`` next to the source tree (the in-repo case, where the
   package is driven via ``PYTHONPATH=src`` and may not be installed),
2. installed distribution metadata (``importlib.metadata``), for wheels that
   do not ship ``pyproject.toml``,
3. a sentinel fallback, so the version is always a string.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Optional

DIST_NAME = "repro-flowistry"

_FALLBACK = "0.0.0+unknown"


def _version_from_pyproject() -> Optional[str]:
    """Read ``[project] version`` from the repository's ``pyproject.toml``.

    Guards on the project *name*: a vendored copy of this package can sit
    under some other project's root (the ``PYTHONPATH=src`` layout), in
    which case ``parents[2]/pyproject.toml`` belongs to that project and
    must not be trusted.
    """
    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    try:
        text = pyproject.read_text(encoding="utf-8")
    except OSError:
        return None
    try:  # tomllib is stdlib from 3.11; fall back to a regex before that.
        import tomllib

        project = tomllib.loads(text).get("project", {})
        if project.get("name") != DIST_NAME:
            return None
        version = project.get("version")
        return str(version) if version else None
    except Exception:
        if not re.search(
            rf'^name\s*=\s*"{re.escape(DIST_NAME)}"', text, flags=re.MULTILINE
        ):
            return None
        match = re.search(r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE)
        return match.group(1) if match else None


def _version_from_metadata() -> Optional[str]:
    """Read the installed distribution's version, if the package is installed."""
    try:
        from importlib import metadata

        return metadata.version(DIST_NAME)
    except Exception:
        return None


def get_version() -> str:
    """The package version string (never raises)."""
    return _version_from_pyproject() or _version_from_metadata() or _FALLBACK


__version__ = get_version()
