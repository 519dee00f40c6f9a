"""The three workloads of the pipeline benchmark, driven through the public
:class:`~repro.service.session.AnalysisSession` API.

Each workload turns the generator's strings into a set-up step and a list of
ops.  ``prepare`` runs outside the timed region (it only assembles strings);
``run`` is exactly what one op times.  Answers are reduced to canonical
dictionaries and digested, so the timed process keeps no parsed object of
its own between ops.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Tuple

from repro.service.session import AnalysisSession

# Response keys that describe the cache rather than the answer.
VOLATILE_KEYS = ("cache", "stats")


def answer_digest(answer: dict) -> str:
    """sha256 over the canonical JSON of an answer (16 hex digits)."""
    payload = json.dumps(answer, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def cold_answer(analyze: dict) -> dict:
    """The cache-independent part of an ``analyze()`` response."""
    return {
        "condition": analyze["condition"],
        "functions": {
            name: info["dependency_sizes"] for name, info in analyze["functions"].items()
        },
    }


def focus_answer(focus: dict) -> dict:
    """A ``focus()`` response without its cache bookkeeping."""
    return {key: value for key, value in focus.items() if key not in VOLATILE_KEYS}


def _open_workspace(units: List[Tuple[str, str]], queries: List[List[str]]) -> AnalysisSession:
    """A session over ``units`` with every listed focus table filled by querying."""
    session = AnalysisSession()
    session.open_units(units)
    for fn_name, variable in queries:
        session.focus(function=fn_name, variable=variable)
    return session


class ColdBatch:
    """Each op opens one program in a fresh session, then ``warm()`` and
    ``analyze()``: nothing is cached, and programs with 24 or more functions
    reach the scheduler's process pool."""

    name = "cold_batch"
    setup_reps = 7

    def __init__(self, inputs: dict):
        self.programs = inputs["programs"]
        self.ops = inputs["ops"]
        self.warmup = inputs["warmup"]

    def rounds(self) -> List[List[int]]:
        return [list(range(len(self.ops)))]

    def setup(self):
        # Prime lazy imports and first-call paths on one fixed program,
        # filling its cache by querying (never through warm()'s pool).
        session = AnalysisSession(local_crate=self.warmup["crate"])
        session.open_unit("main.mrs", self.warmup["source"])
        session.analyze()
        return None

    def prepare(self, op: dict):
        program = self.programs[op["program"]]
        return program["crate"], program["source"]

    def run(self, state, prepared) -> dict:
        crate, source = prepared
        session = AnalysisSession(local_crate=crate)
        session.open_unit("main.mrs", source)
        session.warm()
        return cold_answer(session.analyze())

    def expected(self, op: dict) -> str:
        return self.programs[op["program"]]["expected"]


class EditFocus:
    """One long-lived session per round; each op is a one-line literal
    change (``update_unit``) to the text the previous op left, re-answered
    by ``focus`` at the edited line."""

    name = "edit_focus"
    setup_reps = 1  # per round: every round starts from a fresh session

    def __init__(self, inputs: dict):
        self.units = [(name, text) for name, text in inputs["units"]]
        self.queries = inputs["setup_queries"]
        self.ops = inputs["ops"]
        self._rounds = inputs["rounds"]

    def rounds(self) -> List[List[int]]:
        return self._rounds

    def setup(self):
        return _open_workspace(self.units, self.queries)

    def prepare(self, op: dict):
        return op["unit"], op["source"], op["line"], op["col"]

    def run(self, session: AnalysisSession, prepared) -> dict:
        unit, text, line, col = prepared
        session.update_unit(unit, text)
        return focus_answer(session.focus(line=line, col=col, unit=unit))

    def expected(self, op: dict) -> str:
        return op["expected"]


class WarmFocus:
    """One session whose focus tables were all filled at set-up; each op is
    a cursor-addressed ``focus`` served from the store."""

    name = "warm_focus"
    setup_reps = 5

    def __init__(self, inputs: dict):
        self.units = [(name, text) for name, text in inputs["units"]]
        self.queries = inputs["setup_queries"]
        self.cursors = inputs["cursors"]
        self.ops = inputs["ops"]

    def rounds(self) -> List[List[int]]:
        return [list(range(len(self.ops)))]

    def setup(self):
        return _open_workspace(self.units, self.queries)

    def prepare(self, op: dict):
        cursor = self.cursors[op["cursor"]]
        return cursor["unit"], cursor["line"], cursor["col"]

    def run(self, session: AnalysisSession, prepared) -> dict:
        unit, line, col = prepared
        return focus_answer(session.focus(line=line, col=col, unit=unit))

    def expected(self, op: dict) -> str:
        return self.cursors[op["cursor"]]["expected"]


WORKLOADS = {cls.name: cls for cls in (ColdBatch, EditFocus, WarmFocus)}
