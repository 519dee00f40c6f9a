"""Replay the transcripts of ``docs/PROTOCOL.md`` against a live session, and
compare its param tables with the protocol's ``PARAMS``.

Every fenced block tagged ``transcript`` in the protocol reference is
executed here: ``>`` lines are sent through a fresh
:class:`~repro.service.server.ConnectionHandler` (the same mux the socket
server uses, so the ``workspace`` method is available), and the JSON on
each ``<`` line must be a recursive *subset* of the actual response.

Subset semantics: documented objects may omit fields (the volatile
``stats`` block, the release-dependent ``version`` strings); documented
lists must match the actual list exactly in length, element-wise by the
same rule.  This is precisely the compatibility contract the doc promises
clients ("responses grow additively; ignore unknown fields"), so the doc
cannot rot without this test failing.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.service.protocol import PARAMS, REQUIRED
from repro.service.server import ConnectionHandler, WorkspaceRegistry

PROTOCOL_MD = Path(__file__).resolve().parents[1] / "docs" / "PROTOCOL.md"

BLOCK_RE = re.compile(r"```transcript\n(.*?)```", re.DOTALL)


def extract_transcripts():
    """One ``[(request_json, expected_json), ...]`` list per transcript block."""
    text = PROTOCOL_MD.read_text(encoding="utf-8")
    blocks = []
    for match in BLOCK_RE.finditer(text):
        steps = []
        pending_request = None
        for line in match.group(1).splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("> "):
                assert pending_request is None, "two requests without a response"
                pending_request = json.loads(line[2:])
            elif line.startswith("< "):
                assert pending_request is not None, "response without a request"
                steps.append((pending_request, json.loads(line[2:])))
                pending_request = None
            else:
                raise AssertionError(f"transcript line must start with > or <: {line!r}")
        assert pending_request is None, "request without a response"
        blocks.append(steps)
    return blocks


def assert_subset(expected, actual, path="$"):
    """``expected`` must be contained in ``actual`` (see module docstring)."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: expected object, got {type(actual).__name__}"
        for key, value in expected.items():
            assert key in actual, f"{path}: missing key {key!r} (actual keys: {sorted(actual)})"
            assert_subset(value, actual[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list), f"{path}: expected array, got {type(actual).__name__}"
        assert len(expected) == len(actual), (
            f"{path}: array length {len(actual)} != documented {len(expected)}"
        )
        for index, (exp, act) in enumerate(zip(expected, actual)):
            assert_subset(exp, act, f"{path}[{index}]")
    else:
        assert expected == actual, f"{path}: documented {expected!r} but got {actual!r}"


TRANSCRIPTS = extract_transcripts()


def test_protocol_doc_has_transcripts():
    assert len(TRANSCRIPTS) >= 7, "docs/PROTOCOL.md lost its transcript blocks"
    assert sum(len(block) for block in TRANSCRIPTS) >= 25


@pytest.mark.parametrize("index", range(len(TRANSCRIPTS)))
def test_transcript_replays(index):
    handler = ConnectionHandler(WorkspaceRegistry())
    for step, (request, expected) in enumerate(TRANSCRIPTS[index]):
        actual = handler.handle_message(request)
        where = f"block {index}, step {step}, request {json.dumps(request)[:80]}"
        assert_subset(expected, actual, path=where)


def documented_params():
    """``{method: {param: (type, default)}}`` from the tables under "Params"."""
    text = PROTOCOL_MD.read_text(encoding="utf-8")
    section = text.split("\n### Params\n", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for block in section.split("\n#### ")[1:]:
        heading, _, body = block.partition("\n")
        rows = {}
        for line in body.splitlines():
            if line.startswith("| `"):
                name, kind, default = [cell.strip() for cell in line.strip("|").split("|")][:3]
                rows[name.strip("`")] = (kind, default)
        for method in re.findall(r"`(\w+)`", heading):
            documented[method] = rows
    return documented


def documented_default(default):
    if default is REQUIRED:
        return "required"
    return "—" if default is None else f"`{json.dumps(default)}`"


def test_param_tables_match_the_schema():
    assert documented_params() == {
        method: {
            name: (kind.name, documented_default(default))
            for name, (kind, default) in schema.items()
        }
        for method, schema in PARAMS.items()
    }
