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

import copy
import gc
import random
import sys
import threading
import weakref

import pytest

from helpers import GET_COUNT_SOURCE, HELPER_CALLER_SOURCE, place_expr_cursors

from repro.apps.slicer import ProgramSlicer
from repro.core.analysis import FunctionFlowAnalysis
from repro.core.config import MODULAR, MUT_BLIND, REF_BLIND, WHOLE_PROGRAM, AnalysisConfig
from repro.errors import ReproError
from repro.eval.corpus import generate_corpus
from repro.lang.parser import parse_program
from repro.lang.typeck import check_program
from repro.mir.callgraph import build_call_graph
from repro.mir.lower import lower_program
from repro.service.cache import KIND_FOCUS, SummaryStore
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


# Several functions with field, loop and branch flow: the shared-session
# stress test's workspace.
WORKSPACE_SOURCE = """\
struct Pair { a: u32, b: u32 }

fn sum(p: &Pair) -> u32 {
    let s = p.a + p.b;
    s
}

fn scale(p: &mut Pair, k: u32) -> u32 {
    p.a = p.a * k;
    p.b = p.b * k;
    sum(p)
}

fn pick(c: bool, x: u32, y: u32) -> u32 {
    let mut r = x;
    if c {
        r = y;
    }
    r + 1
}

fn count(n: u32) -> u32 {
    let mut i = 0;
    let mut acc = 0;
    while i < n {
        acc = acc + i;
        i = i + 1;
    }
    acc
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
        edited_body = weakref.ref(session._lowered.body("helper"))

        session.update_unit("main", HELPER_CALLER_SOURCE.replace("y + 1", "y + 2"))
        gc.collect()
        # Results computed before the edit refer to the old bodies; nothing
        # the session keeps may hold that generation alive, nor the edited
        # function's old body, which the new generation does not reuse.
        assert previous() is None
        assert edited_body() is None

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
    served from the engine's memo to a different analysis root, and an edit
    must leave no summary of the previous generation behind."""

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

    # Two edits of CHAIN: f0's literal, and f3's body, which stops reading
    # its parameter and so changes every whole-program answer up the chain.
    EDITS = {"f0": ("f1(x) + 0", "f1(x) + 5"), "f3": ("x * 2", "7")}

    @staticmethod
    def _sizes(session, function, config):
        return session.analyze(function=function, config=config)["functions"][function][
            "dependency_sizes"
        ]

    @pytest.mark.parametrize("depth", [None, 2], ids=["default_depth", "depth2"])
    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_whole_program_answers_after_an_edit_equal_a_fresh_session(self, edit, depth):
        config = AnalysisConfig(whole_program=True)
        if depth is not None:
            config = AnalysisConfig(whole_program=True, max_whole_program_depth=depth)
        names = ["f0", "f1", "f2", "f3"]
        edited = self.CHAIN.replace(*self.EDITS[edit])
        assert edited != self.CHAIN

        session = AnalysisSession()
        session.open_unit("main", self.CHAIN)
        for name in names:
            self._sizes(session, name, config)
        session.update_unit("main", edited)

        fresh = AnalysisSession()
        fresh.open_unit("main", edited)
        for name in names:
            assert self._sizes(session, name, config) == self._sizes(fresh, name, config), name

    @pytest.mark.parametrize(
        "edit,runs",
        [
            ("f0", ["f0", "f1", "f2", "f3"]),
            ("f3", ["f0", "f1", "f1", "f2", "f2", "f3", "f3"]),
        ],
    )
    def test_whole_program_requery_after_an_edit_recomputes_callee_summaries(
        self, monkeypatch, edit, runs
    ):
        """Callee summaries live in one generation's engine, not in the
        store: after an edit of f0, re-querying every function serves
        f1..f3 from their records but analyses f0's callees again for its
        summary.  After an edit of f3 every record is stale: f0's cone
        runs four fixpoints, then f1, f2 and f3 one each as roots."""
        session = AnalysisSession()
        session.open_unit("main", self.CHAIN)
        names = session.function_names()
        for name in names:
            self._sizes(session, name, WHOLE_PROGRAM)
        session.update_unit("main", self.CHAIN.replace(*self.EDITS[edit]))

        ran = []
        real_run = FunctionFlowAnalysis.run

        def counting_run(analysis):
            ran.append(analysis.body.fn_name)
            return real_run(analysis)

        monkeypatch.setattr(FunctionFlowAnalysis, "run", counting_run)
        for name in names:
            self._sizes(session, name, WHOLE_PROGRAM)
        assert sorted(ran) == runs

    def test_depth_truncated_summaries_are_not_served_to_other_roots(self):
        config = AnalysisConfig(whole_program=True, max_whole_program_depth=2)
        warmed = AnalysisSession()
        warmed.open_unit("main", self.CHAIN)
        self._sizes(warmed, "f0", config)  # memoises f0's cone in the engine
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
        """An engine warmed in a different order must not change any answer:
        serving a deep callee's complete summary where a cold recursion would
        have hit the depth bound is refused (height check)."""
        config = AnalysisConfig(whole_program=True, max_whole_program_depth=2)
        names = ["f0", "f1", "f2", "f3"]

        baseline = {}
        for name in names:
            solo = AnalysisSession()
            solo.open_unit("main", self.CHAIN)
            baseline[name] = self._sizes(solo, name, config)

        # Bottom-up warm-up memoises complete summaries for the deep functions
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

    def test_each_miss_analyses_once_and_no_result_outlives_its_request(self, monkeypatch):
        """The store is the session's only cache: a miss runs one fixpoint
        and stores what it derived, a hit runs none, and no flow result
        stays alive once its request returns."""
        results = []
        real_run = FunctionFlowAnalysis.run

        def recording_run(analysis):
            result = real_run(analysis)
            results.append(weakref.ref(result))
            return result

        monkeypatch.setattr(FunctionFlowAnalysis, "run", recording_run)
        session = AnalysisSession()
        session.open_unit("main", HELPER_CALLER_SOURCE)
        requests = [
            lambda: session.analyze(function="caller"),
            lambda: session.focus(function="caller", variable="x"),
            lambda: session.slice("caller", "x"),
        ]
        runs = []
        for _ in range(2):
            before = len(results)
            for request in requests:
                request()
                gc.collect()
                assert all(ref() is None for ref in results)
            runs.append(len(results) - before)
        # The record miss and the focus-table miss; the slice is served
        # from the table, and the repeat from the store.
        assert runs == [2, 0]


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


class TestSharedSessionFocus:
    def test_concurrent_warm_focus_matches_serial_and_leaves_store_intact(self):
        """Reader threads share one session and the store's dicts: every
        warm answer equals the serial one, and no stored table is mutated.
        They start on a generation whose cursor index nobody has built, so
        they also race to build its tables."""
        session = AnalysisSession()
        session.open_unit("main", WORKSPACE_SOURCE)
        cursors = place_expr_cursors(WORKSPACE_SOURCE)

        def answer(line, col):
            response = session.focus(line=line, col=col)
            assert response["cache"] == "hit"
            return {k: v for k, v in response.items() if k not in ("cache", "stats")}

        for line, col in cursors:
            session.focus(line=line, col=col)  # fills every function's table
        serial = {cursor: answer(*cursor) for cursor in cursors}
        keys = [
            session._fingerprints.key(KIND_FOCUS, fn_name, MODULAR)
            for fn_name in session.function_names()
        ]
        stored = [session.store.get(key) for key in keys]
        assert all(value is not None for value in stored)
        copies = copy.deepcopy(stored)

        # A new generation with the same functions: every table stays warm,
        # and its cursor index is not built yet.
        session.update_unit("main", WORKSPACE_SOURCE + "\n// a new generation\n")
        index = session._cursor_index
        assert index._functions is None and index._lines == {}

        workers = 8  # more threads than cores, so readers are preempted mid-query
        barrier = threading.Barrier(workers)
        lock = threading.Lock()
        inside = [0]
        peak = [0]
        mismatches = []
        errors = []

        def worker():
            try:
                barrier.wait(timeout=30)
                for _ in range(10):
                    for cursor in cursors:
                        with lock:
                            inside[0] += 1
                            peak[0] = max(peak[0], inside[0])
                        try:
                            got = answer(*cursor)
                        finally:
                            with lock:
                                inside[0] -= 1
                        if got != serial[cursor]:
                            mismatches.append(cursor)
            except Exception as error:  # reported by the assertions below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)

        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert mismatches == []
        assert [session.store.get(key) for key in keys] == copies
        assert peak[0] > 1, "the threads never overlapped inside focus"
        assert session._cursor_index is index and index._functions is not None
        assert sorted(index._lines) == session.function_names()
