"""A dropped session, and a generation an edit replaces, are freed by
reference counting alone.

Nothing on the pipeline forms a reference cycle: a summary provider holds
the parts of its engine it reads rather than the engine, and signature
elision uses no self-referencing closure.  So with the cyclic collector
switched off, a session that opened, warmed and analysed a program leaves
nothing for ``gc.collect()`` to find, and its engines die the moment the
last reference to them goes.  Whole-program engines are checked too: their
summary provider memoises callee summaries.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.config import MODULAR, WHOLE_PROGRAM
from repro.fuzz.generator import generate
from repro.service.session import AnalysisSession

PROGRAM = generate(3)
# A one-literal edit inside a body, as an editor makes it.
EDIT = ("let mut acc = a + 7;", "let mut acc = a + 9;")

CONDITIONS = pytest.mark.parametrize(
    "config", [MODULAR, WHOLE_PROGRAM], ids=["modular", "whole_program"]
)


def _analysed_session(config) -> AnalysisSession:
    session = AnalysisSession(local_crate=PROGRAM.crate_name)
    session.open_unit("main", PROGRAM.source)
    session.warm(config)
    assert session.analyze(config=config)["functions"]
    return session


def _edited_source() -> str:
    old, new = EDIT
    assert old in PROGRAM.source
    return PROGRAM.source.replace(old, new, 1)


@pytest.fixture
def collector_off(config):
    """Switch the cyclic collector off around one test.

    One uncounted run of the same scenario comes first, so one-time work
    (lazy imports, first-call caches) is not counted against the test.
    """
    session = _analysed_session(config)
    session.update_unit("main", _edited_source())
    del session
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@CONDITIONS
def test_dropped_session_leaves_no_cyclic_garbage(config, collector_off):
    gc.collect()  # whatever the test runner left since the fixture
    session = _analysed_session(config)
    del session
    assert gc.collect() == 0


@CONDITIONS
def test_dropped_session_frees_its_engine_at_once(config, collector_off):
    session = _analysed_session(config)
    engine = weakref.ref(session.engine(config))
    assert engine() is not None
    del session
    assert engine() is None


@CONDITIONS
def test_edit_frees_the_previous_generation_at_once(config, collector_off):
    session = _analysed_session(config)
    gc.collect()  # count only what the edit leaves
    previous = weakref.ref(session.engine(config))
    # The edit keeps every other function's signature, which must not keep
    # the check that elaborated it alive.
    previous_check = weakref.ref(session._checked)
    result = session.update_unit("main", _edited_source())
    assert result["body_changed"]
    assert previous() is None
    assert previous_check() is None
    assert gc.collect() == 0
    assert session.analyze(config=config)["functions"]
