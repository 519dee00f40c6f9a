"""Session-level tests: cache correctness, incremental edits, query parity.

The two property-style tests encode the PR's headline guarantees over a
randomly chosen generated corpus crate:

* warm-cache results are byte-equal to cold results under all four primary
  conditions, and
* editing one function's body invalidates exactly its reverse-call-graph
  cone under the whole-program condition and only the function itself under
  the modular condition.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from helpers import GET_COUNT_SOURCE, HELPER_CALLER_SOURCE

from repro.apps.slicer import ProgramSlicer
from repro.core.config import MODULAR, MUT_BLIND, REF_BLIND, WHOLE_PROGRAM
from repro.errors import ReproError
from repro.eval.corpus import generate_corpus
from repro.lang.parser import parse_program
from repro.lang.typeck import check_program
from repro.mir.callgraph import build_call_graph
from repro.mir.lower import lower_program
from repro.service.cache import SummaryStore
from repro.service.session import AnalysisSession


PRIMARY_CONDITIONS = [MODULAR, WHOLE_PROGRAM, MUT_BLIND, REF_BLIND]

IFC_SOURCE = """
struct Password { value: u32 }
extern fn insecure_print(x: u32);

fn leak(p: &Password) {
    insecure_print(p.value);
}

fn fine(x: u32) {
    insecure_print(x);
}
"""


@pytest.fixture(scope="module")
def small_corpus():
    return generate_corpus(scale=0.08)


def crate_lowered(crate):
    checked = check_program(parse_program(crate.source, local_crate=crate.name))
    return checked, lower_program(checked)


def insert_probe(crate, fn_name: str) -> str:
    """Insert a fresh statement at the top of ``fn_name``'s body: an edit
    that changes exactly one function's lowered body."""
    _checked, lowered = crate_lowered(crate)
    body = lowered.body(fn_name)
    lines = crate.source.splitlines()
    lines.insert(body.span.start_line, "        let edit_probe = 424242;")
    return "\n".join(lines)


class TestWarmEqualsCold:
    def test_warm_cache_results_equal_cold_under_all_conditions(self, small_corpus):
        rng = random.Random(20260728)
        crate = rng.choice(small_corpus)
        store = SummaryStore()

        for config in PRIMARY_CONDITIONS:
            cold = AnalysisSession(store=store, local_crate=crate.name)
            cold.open_unit(crate.name, crate.source)
            cold_response = cold.analyze(config=config)
            assert cold_response["cache_hits"] == 0

            warm = AnalysisSession(store=store, local_crate=crate.name)
            warm.open_unit(crate.name, crate.source)
            warm_response = warm.analyze(config=config)

            assert warm_response["cache_hits"] == len(warm_response["functions"])
            for name, cold_entry in cold_response["functions"].items():
                assert (
                    warm_response["functions"][name]["dependency_sizes"]
                    == cold_entry["dependency_sizes"]
                )


class TestEditInvalidation:
    def test_edit_invalidates_exactly_the_reverse_cone(self, small_corpus):
        rng = random.Random(20260728)
        # A crate and function with a non-trivial reverse cone.
        candidates = []
        for crate in small_corpus:
            _checked, lowered = crate_lowered(crate)
            graph = build_call_graph(lowered)
            for body in lowered.bodies.values():
                if body.crate != crate.name:
                    continue
                if graph.transitive_callers(body.fn_name):
                    candidates.append((crate, body.fn_name))
        assert candidates, "corpus generated no called local functions"
        crate, edited_fn = rng.choice(candidates)

        _checked, lowered = crate_lowered(crate)
        graph = build_call_graph(lowered)
        local = {b.fn_name for b in lowered.bodies.values() if b.crate == crate.name}
        expected_cone = ({edited_fn} | graph.transitive_callers(edited_fn)) & local

        session = AnalysisSession(local_crate=crate.name)
        session.open_unit(crate.name, crate.source)
        session.analyze(config=MODULAR)
        session.analyze(config=WHOLE_PROGRAM)

        report = session.update_unit(crate.name, insert_probe(crate, edited_fn))
        assert report["body_changed"] == [edited_fn]
        assert report["sig_changed"] == []

        modular_evict = set(report["invalidation"]["modular"]["evict"])
        whole_evict = set(report["invalidation"]["whole_program"]["evict"])
        # Modular results invalidate only the edited function — the paper's
        # modularity payoff.  Whole-program results lose the whole cone.
        assert modular_evict == {edited_fn}
        assert whole_evict == {edited_fn} | graph.transitive_callers(edited_fn)

        # Re-analysis misses exactly the cone and hits everything else.
        modular_after = session.analyze(config=MODULAR)
        modular_misses = {
            name
            for name, entry in modular_after["functions"].items()
            if entry["cache"] == "miss"
        }
        assert modular_misses == {edited_fn}

        whole_after = session.analyze(config=WHOLE_PROGRAM)
        whole_misses = {
            name
            for name, entry in whole_after["functions"].items()
            if entry["cache"] == "miss"
        }
        assert whole_misses == expected_cone

    def test_edit_releases_the_previous_program_generation(self):
        session = AnalysisSession()
        session.open_unit("main", HELPER_CALLER_SOURCE)
        session.analyze(config=MODULAR)
        session.analyze(config=WHOLE_PROGRAM)
        session.focus(function="caller", variable="x")
        previous = weakref.ref(session._lowered)

        session.update_unit("main", HELPER_CALLER_SOURCE.replace("y + 1", "y + 2"))
        gc.collect()
        # Results computed before the edit refer to the old bodies; nothing
        # the session keeps may hold that generation alive.
        assert previous() is None

    def test_failed_open_does_not_poison_the_workspace(self):
        session = AnalysisSession()
        session.open_unit("good", "fn f(x: u32) -> u32 { x }")
        with pytest.raises(Exception):
            session.open_unit("bad", "fn broken( {")
        # The broken unit is rolled back and the session keeps working —
        # including across a later edit, which re-joins all units.
        assert session.unit_names() == ["good"]
        assert session.analyze()["functions"]["f"]["cache"] == "miss"
        session.update_unit("good", "fn f(x: u32) -> u32 { x + 1 }")
        assert session.analyze()["functions"]["f"]["cache"] == "miss"

    def test_failed_edit_keeps_previous_source(self):
        session = AnalysisSession()
        session.open_unit("main", HELPER_CALLER_SOURCE)
        generation = session.generation
        with pytest.raises(Exception):
            session.update_unit("main", "fn nope(")
        assert session.generation == generation
        assert session.analyze(function="caller")["functions"]["caller"]

    def test_unchanged_reopen_is_not_an_edit(self):
        session = AnalysisSession()
        session.open_unit("main", HELPER_CALLER_SOURCE)
        session.analyze()
        report = session.open_unit("main", HELPER_CALLER_SOURCE)
        assert report["body_changed"] == []
        assert report["evicted_entries"] == 0
        assert session.analyze()["cache_hits"] == 2


class TestSummaryDeterminism:
    """Warm answers must equal cold ones even when the whole-program
    recursion hits its depth bound or breaks a call cycle: summaries whose
    computation was truncated are context-dependent and must never be
    served from the cache to a different analysis root."""

    CHAIN = (
        "\n".join(
            f"fn f{i}(x: u32) -> u32 {{\n    f{i + 1}(x) + {i}\n}}" for i in range(3)
        )
        + "\nfn f3(x: u32) -> u32 {\n    x * 2\n}"
    )

    CYCLE = """
fn ping(x: u32) -> u32 { if x > 0 { pong(x - 1) } else { 0 } }
fn pong(x: u32) -> u32 { ping(x) + 1 }
fn via_ping(x: u32) -> u32 { ping(x) }
fn via_pong(x: u32) -> u32 { pong(x) }
"""

    @staticmethod
    def _sizes(session, function, config):
        return session.analyze(function=function, config=config)["functions"][function][
            "dependency_sizes"
        ]

    def test_depth_truncated_summaries_are_not_served_to_other_roots(self):
        from repro.core.config import AnalysisConfig

        config = AnalysisConfig(whole_program=True, max_whole_program_depth=2)
        warmed = AnalysisSession()
        warmed.open_unit("main", self.CHAIN)
        self._sizes(warmed, "f0", config)  # fills the store via f0's cone
        warm = self._sizes(warmed, "f1", config)

        fresh = AnalysisSession()
        fresh.open_unit("main", self.CHAIN)
        assert warm == self._sizes(fresh, "f1", config)

    def test_cycle_broken_summaries_are_not_served_to_other_roots(self):
        warmed = AnalysisSession()
        warmed.open_unit("main", self.CYCLE)
        self._sizes(warmed, "via_ping", WHOLE_PROGRAM)
        warm = self._sizes(warmed, "via_pong", WHOLE_PROGRAM)

        fresh = AnalysisSession()
        fresh.open_unit("main", self.CYCLE)
        assert warm == self._sizes(fresh, "via_pong", WHOLE_PROGRAM)

    def test_results_are_independent_of_query_order(self):
        """A store warmed in a different order must not change any answer:
        serving a deep callee's complete summary where a cold recursion would
        have hit the depth bound is refused (height check)."""
        from repro.core.config import AnalysisConfig

        config = AnalysisConfig(whole_program=True, max_whole_program_depth=2)
        names = ["f0", "f1", "f2", "f3"]

        baseline = {}
        for name in names:
            solo = AnalysisSession()
            solo.open_unit("main", self.CHAIN)
            baseline[name] = self._sizes(solo, name, config)

        # Bottom-up warm-up stores complete summaries for the deep functions
        # first; top-down queries must still match the cold baseline.
        shared = AnalysisSession()
        shared.open_unit("main", self.CHAIN)
        for name in reversed(names):
            assert self._sizes(shared, name, config) == baseline[name]
        for name in names:
            assert self._sizes(shared, name, config) == baseline[name]


class TestQueries:
    def test_slice_matches_program_slicer(self):
        session = AnalysisSession()
        session.open_unit("main", HELPER_CALLER_SOURCE)
        slicer = ProgramSlicer(HELPER_CALLER_SOURCE)

        for direction in ("backward", "forward"):
            response = session.slice("caller", "r", direction=direction)
            reference = (
                slicer.backward_slice("caller", "r")
                if direction == "backward"
                else slicer.forward_slice("caller", "r")
            )
            assert response["size"] == reference.size()
            assert set(response["lines"]) == set(reference.relevant_lines)

    def test_backward_slice_served_from_cache_matches_fresh(self):
        session = AnalysisSession()
        session.open_unit("main", GET_COUNT_SOURCE)
        cold = session.slice("get_count", "k")
        warm = session.slice("get_count", "k")
        assert cold["cache"] == "miss"
        assert warm["cache"] == "hit"
        assert warm["lines"] == cold["lines"]
        assert warm["size"] == cold["size"]

    def test_ifc_query_reports_violations(self):
        session = AnalysisSession()
        session.open_unit("main", IFC_SOURCE)
        response = session.ifc(secret_types=["Password"], sinks=["insecure_print"])
        assert response["count"] == 1
        assert "leak" in response["violations"][0]

    def test_analyze_unknown_function_raises(self):
        session = AnalysisSession()
        session.open_unit("main", HELPER_CALLER_SOURCE)
        with pytest.raises(ReproError):
            session.analyze(function="nope")

    def test_query_before_open_raises(self):
        with pytest.raises(ReproError):
            AnalysisSession().analyze()

    def test_warm_fills_store_for_later_queries(self):
        session = AnalysisSession()
        session.open_unit("main", HELPER_CALLER_SOURCE)
        batch = session.warm()
        assert batch["computed"] == 2
        response = session.analyze()
        assert response["cache_hits"] == 2


class TestDiskTier:
    def test_cold_process_restart_served_from_disk(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = AnalysisSession(cache_dir=cache_dir)
        first.open_unit("main", HELPER_CALLER_SOURCE)
        assert first.analyze()["cache_hits"] == 0

        # A brand-new session+store over the same directory: memory tier is
        # empty, every answer comes off disk.
        second = AnalysisSession(cache_dir=cache_dir)
        second.open_unit("main", HELPER_CALLER_SOURCE)
        response = second.analyze()
        assert response["cache_hits"] == 2
        assert second.store.stats.disk_hits == 2
