"""Tests for the program-level FlowEngine API."""

import gc
import weakref

import pytest

from repro import analyze_source
from repro.core.config import AnalysisConfig, all_conditions, condition_name
from repro.core.engine import FlowEngine, analyze_program
from repro.errors import AnalysisError
from repro.lang.parser import parse_program

from helpers import GET_COUNT_SOURCE, HELPER_CALLER_SOURCE


def test_analyze_source_returns_program_result():
    result = analyze_source(HELPER_CALLER_SOURCE)
    assert set(result.function_names()) == {"helper", "caller"}
    sizes = result.dependency_sizes()
    assert ("caller", "x") in sizes
    assert result.total_variables() == len(sizes)


def test_analyze_program_equivalent_to_engine():
    program = parse_program(GET_COUNT_SOURCE)
    via_helper = analyze_program(program)
    engine = FlowEngine.from_program(parse_program(GET_COUNT_SOURCE))
    via_engine = engine.analyze_local_crate()
    assert set(via_helper.function_names()) == set(via_engine.function_names())


def test_engine_keeps_no_function_result():
    engine = FlowEngine.from_source(GET_COUNT_SOURCE)
    first = engine.analyze_function("get_count")
    second = engine.analyze_function("get_count")
    assert first is not second
    assert first.dependency_sizes() == second.dependency_sizes()
    released = weakref.ref(first)
    del first
    gc.collect()
    assert released() is None


def test_engine_rejects_unknown_function():
    engine = FlowEngine.from_source(GET_COUNT_SOURCE)
    with pytest.raises(AnalysisError, match="no body available for function 'not_a_function'"):
        engine.analyze_function("not_a_function")


def test_engine_rejects_extern_function():
    engine = FlowEngine.from_source(GET_COUNT_SOURCE)
    with pytest.raises(AnalysisError, match="no body available for function 'insert'"):
        engine.analyze_function("insert")


def test_local_function_names_excludes_dependency_crate():
    source = """
    crate deps { fn dep_fn() -> u32 { 1 } }
    crate app { fn app_fn() -> u32 { dep_fn() } }
    """
    engine = FlowEngine.from_program(parse_program(source, local_crate="app"))
    assert engine.local_function_names() == ["app_fn"]
    # analyze_all also covers dependency-crate bodies.
    all_results = engine.analyze_all()
    assert set(all_results.function_names()) == {"app_fn", "dep_fn"}


def test_call_graph_is_available_from_engine():
    engine = FlowEngine.from_source(HELPER_CALLER_SOURCE)
    assert engine.call_graph.callees("caller") == ["helper"]


def test_all_conditions_covers_grid_of_eight():
    conditions = all_conditions()
    assert len(conditions) == 8
    names = {condition_name(c) for c in conditions}
    assert "Modular" in names
    assert "Whole-program+Mut-blind+Ref-blind" in names


def test_condition_names_match_paper_labels():
    assert condition_name(AnalysisConfig()) == "Modular"
    assert condition_name(AnalysisConfig(whole_program=True)) == "Whole-program"
    assert condition_name(AnalysisConfig(mut_blind=True)) == "Mut-blind"
    assert condition_name(AnalysisConfig(ref_blind=True)) == "Ref-blind"
    assert "modular calls" in AnalysisConfig().describe()


def test_mutable_ref_paths_identifies_mut_params():
    engine = FlowEngine.from_source(GET_COUNT_SOURCE)
    paths = engine.mutable_ref_paths("insert")
    assert 0 in paths
    assert engine.mutable_ref_paths("contains_key") == {}


def test_results_are_per_configuration():
    modular = FlowEngine.from_source(HELPER_CALLER_SOURCE, config=AnalysisConfig())
    whole = FlowEngine.from_source(
        HELPER_CALLER_SOURCE, config=AnalysisConfig(whole_program=True)
    )
    sizes_modular = modular.analyze_function("caller").dependency_sizes()
    sizes_whole = whole.analyze_function("caller").dependency_sizes()
    assert sizes_modular["x"] > sizes_whole["x"]
