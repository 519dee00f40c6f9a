"""The oracle battery: all-pass on generated programs, failure plumbing."""

from __future__ import annotations

import json

import pytest

from repro.fuzz.generator import generate_program
from repro.fuzz.oracles import (
    DEFAULT_ORACLES,
    INJECTED_ORACLES,
    OracleVerdict,
    first_failure,
    oracle_names,
    prepare,
    run_battery,
)

SWEEP = 10  # tier-1 sweep; CI's mass-eval-smoke job runs 500


# ---------------------------------------------------------------------------
# The battery passes on generated programs
# ---------------------------------------------------------------------------


def test_battery_passes_on_a_seed_sweep():
    for seed in range(SWEEP):
        program = generate_program(seed)
        verdicts = run_battery(program.source, program.crate_name, seed=seed)
        assert [v.oracle for v in verdicts] == list(DEFAULT_ORACLES)
        failing = first_failure(verdicts)
        assert failing is None, (
            f"seed {seed}: {failing.oracle} failed: {failing.detail}"
        )


def test_battery_respects_oracle_selection():
    program = generate_program(0)
    verdicts = run_battery(
        program.source, program.crate_name, oracles=["validate", "focus_agreement"]
    )
    assert [v.oracle for v in verdicts] == ["validate", "focus_agreement"]
    assert all(v.ok for v in verdicts)


def test_unknown_oracle_name_is_rejected():
    from repro.errors import ReproError

    with pytest.raises(ReproError, match="unknown oracle"):
        run_battery("fn f() -> u32 { 1 }", oracles=["no_such_oracle"])


def test_oracle_names_lists_injected_variants():
    names = oracle_names(include_injected=True)
    assert set(DEFAULT_ORACLES) <= set(names)
    for injected in INJECTED_ORACLES:
        assert f"injected:{injected}" in names


# ---------------------------------------------------------------------------
# Front-end failures become validate verdicts (the crash oracle)
# ---------------------------------------------------------------------------


def test_parse_failure_is_a_validate_verdict():
    verdicts = run_battery("fn f( {", crate_name="main")
    assert len(verdicts) == 1
    verdict = verdicts[0]
    assert verdict.oracle == "validate" and not verdict.ok
    assert verdict.kind() == "ParseError"


def test_type_failure_is_a_validate_verdict_with_kind():
    verdicts = run_battery("fn f() -> u32 { true }", crate_name="main")
    assert not verdicts[0].ok
    assert verdicts[0].kind() == "TypeError_"


def test_verdict_json_shape():
    verdict = OracleVerdict("validate", ok=False, detail="ParseError: nope")
    data = json.loads(json.dumps(verdict.to_json_dict()))
    assert data == {"oracle": "validate", "ok": False, "detail": "ParseError: nope"}


# ---------------------------------------------------------------------------
# Injected oracles (the pipeline self-test hooks)
# ---------------------------------------------------------------------------


def test_injected_while_loop_fires_only_on_loops():
    with_loop = """
    fn f(n: u32) -> u32 {
        let mut i = 0;
        while i < n % 4 {
            i = i + 1;
        }
        i
    }
    """
    without_loop = "fn f(n: u32) -> u32 { n + 1 }"
    failing = run_battery(with_loop, "main", oracles=["injected:while_loop"])
    assert not failing[0].ok and failing[0].kind() == "injected_while_loop"
    passing = run_battery(without_loop, "main", oracles=["injected:while_loop"])
    assert passing[0].ok


def test_injected_deref_write_fires_on_deref_assignment():
    source = """
    fn f(a: u32) -> u32 {
        let mut x = a;
        let r = &mut x;
        *r = 7;
        x
    }
    """
    failing = run_battery(source, "main", oracles=["injected:deref_write"])
    assert not failing[0].ok and failing[0].kind() == "injected_deref_write"


# ---------------------------------------------------------------------------
# Individual oracle behaviours worth pinning
# ---------------------------------------------------------------------------


def test_noninterference_oracle_runs_ref_param_functions():
    """Functions with reference parameters are interpreted, not skipped."""
    program = generate_program(1)
    prep = prepare(program.source, program.crate_name)
    entry_fns = [
        fn for fn in prep.checked.program.local.functions()
        if fn.name.startswith("entry_") and fn.body is not None
    ]
    assert entry_fns
    verdicts = run_battery(
        program.source, program.crate_name, oracles=["noninterference"], seed=1
    )
    assert verdicts[0].ok, verdicts[0].detail


def test_cache_oracle_passes_and_uses_the_store():
    program = generate_program(2)
    verdicts = run_battery(
        program.source, program.crate_name, oracles=["cache_equality"]
    )
    assert verdicts[0].ok, verdicts[0].detail


def test_session_snapshot_is_cold_warm_byte_identical():
    """The session-level primitive behind the cache oracle."""
    from repro.service.cache import SummaryStore
    from repro.service.session import AnalysisSession

    program = generate_program(4)
    store = SummaryStore(max_entries=1 << 12)

    def snap() -> bytes:
        session = AnalysisSession(store=store, local_crate=program.crate_name)
        session.open_unit("fuzz", program.source)
        return json.dumps(
            session.snapshot(max_variables_per_function=4), sort_keys=True
        ).encode()

    assert snap() == snap()
    assert store.stats.to_dict()["hits"] > 0
