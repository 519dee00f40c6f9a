"""Differential property tests: bitset engine ≡ object referee engine.

The production bitset substrate is only allowed to be *fast*; every
observable result must be identical to the object domain the tests keep as
referee.  For every crate of the (scaled-down) evaluation corpus and every
one of the 2³ analysis conditions of Table 2, the bitset engine is run over
every local function and compared against the object referee on:

* the tracked places and exit-Θ dependency sets (``exit_theta.items()``),
* the fixpoint's iteration count,
* the per-variable dependency sizes (the Figure 2 measurement),
* the Θ annotations rendered per location (Figure 1 printouts),
* the serialised :class:`~repro.service.cache.FunctionRecord` (the service's
  ``analyze`` answer), which must be the referee's ``dependency_sizes()``, and
* the serialised :class:`~repro.focus.table.FocusTable` (focus/slice
  answers).

A wider but shallower sweep then drives 200 generated fuzz programs through
both engines under both Modular and Whole-program, comparing exit-Θ and sizes —
the breadth axis the hand-written corpus cannot cover.

Warm-vs-cold byte-equality of service answers is covered separately by
``test_service_cache.py``; this file pins the engine axis.
"""

import dataclasses

import pytest

from repro.core.config import MODULAR, WHOLE_PROGRAM, all_conditions
from repro.core.engine import FlowEngine
from repro.eval.corpus import generate_corpus, generate_fuzz_corpus
from repro.focus.table import FocusTable
from repro.service.cache import FunctionRecord

CORPUS = generate_corpus(scale=0.06)


@pytest.mark.parametrize(
    "condition", all_conditions(), ids=lambda c: c.name or "Modular"
)
def test_indexed_engines_match_object_engine_on_corpus(condition):
    for crate in CORPUS:
        object_engine = FlowEngine.from_source(
            crate.source, config=dataclasses.replace(condition, engine="object")
        )
        bitset_engine = FlowEngine.from_source(
            crate.source, config=dataclasses.replace(condition, engine="bitset")
        )
        for fn_name in object_engine.local_function_names():
            obj = object_engine.analyze_function(fn_name)
            idx = bitset_engine.analyze_function(fn_name)
            context = (condition.name, crate.name, fn_name)

            assert dict(obj.exit_theta.items()) == dict(idx.exit_theta.items()), context
            # Both domains detect change by the same in-place join, so the
            # runs visit the same blocks the same number of times.
            assert obj.fixpoint.iterations == idx.fixpoint.iterations, context
            assert obj.dependency_sizes() == idx.dependency_sizes(), context
            assert obj.annotations() == idx.annotations(), context

            record = FunctionRecord.from_result(idx).to_json_dict()
            assert record == obj.dependency_sizes(), context

            obj_table = FocusTable.build(obj).to_json_dict()
            idx_table = FocusTable.build(idx).to_json_dict()
            assert obj_table == idx_table, context


@pytest.mark.parametrize(
    "config", [MODULAR, WHOLE_PROGRAM], ids=["Modular", "Whole-program"]
)
def test_engines_agree_on_fuzz_sweep(config):
    """200 generated programs through both engines: exit-Θ and sizes identical."""
    engines = ("object", "bitset")
    for crate in generate_fuzz_corpus(count=200, seed=0, size="small"):
        results = {}
        for engine_name in engines:
            engine = FlowEngine.from_source(
                crate.source, config=dataclasses.replace(config, engine=engine_name)
            )
            results[engine_name] = {
                fn_name: (
                    dict(
                        (result := engine.analyze_function(fn_name)).exit_theta.items()
                    ),
                    result.dependency_sizes(),
                )
                for fn_name in engine.local_function_names()
            }
        assert results["bitset"] == results["object"], (config.name, crate.name)


def test_engine_field_is_validated():
    with pytest.raises(ValueError):
        dataclasses.replace(all_conditions()[0], engine="quantum")
