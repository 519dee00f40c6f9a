"""Tests for the program slicer application (Figure 5a)."""

import pytest

from repro.apps.slicer import ProgramSlicer, SliceDirection
from repro.errors import AnalysisError


SOURCE = """
struct File;
struct Stats { bytes: u32, elapsed: u32 }

extern fn read_chunk(f: &mut File) -> u32;
extern fn now() -> u32;
extern fn log_progress(code: u32);

fn process(f: &mut File, limit: u32) -> u32 {
    let start = now();
    let mut checksum = 0;
    let mut stats = Stats { bytes: 0, elapsed: 0 };
    let mut count = 0;
    while count < limit {
        let chunk = read_chunk(f);
        checksum = checksum + chunk;
        stats.bytes = stats.bytes + chunk;
        log_progress(count);
        count = count + 1;
    }
    stats.elapsed = now() - start;
    checksum
}
"""


@pytest.fixture(scope="module")
def slicer():
    return ProgramSlicer(SOURCE)


def line_containing(text):
    for index, line in enumerate(SOURCE.splitlines(), start=1):
        if text in line:
            return index
    raise AssertionError(f"no line containing {text!r}")


def test_backward_slice_includes_data_dependencies(slicer):
    result = slicer.backward_slice("process", "checksum")
    assert result.direction is SliceDirection.BACKWARD
    assert result.contains_line(line_containing("let chunk = read_chunk(f);"))
    assert result.contains_line(line_containing("checksum = checksum + chunk;"))


def test_backward_slice_includes_loop_condition(slicer):
    result = slicer.backward_slice("process", "checksum")
    assert result.contains_line(line_containing("while count < limit"))


def test_backward_slice_excludes_unrelated_concerns(slicer):
    result = slicer.backward_slice("process", "checksum")
    assert not result.contains_line(line_containing("stats.elapsed = now() - start;"))
    assert not result.contains_line(line_containing("log_progress(count);"))


def test_backward_slice_on_stats_includes_timing(slicer):
    result = slicer.backward_slice("process", "stats")
    assert result.contains_line(line_containing("stats.elapsed = now() - start;"))
    assert result.contains_line(line_containing("let start = now();"))


def test_forward_slice_of_start_reaches_elapsed_only(slicer):
    result = slicer.forward_slice("process", "start")
    assert result.direction is SliceDirection.FORWARD
    assert result.contains_line(line_containing("stats.elapsed = now() - start;"))
    assert not result.contains_line(line_containing("checksum = checksum + chunk;"))


def test_forward_slice_of_chunk_reaches_checksum_and_stats(slicer):
    result = slicer.forward_slice("process", "chunk")
    assert result.contains_line(line_containing("checksum = checksum + chunk;"))
    assert result.contains_line(line_containing("stats.bytes = stats.bytes + chunk;"))


def test_render_fades_non_slice_lines(slicer):
    result = slicer.backward_slice("process", "checksum")
    rendered = slicer.render(result)
    lines = rendered.splitlines()
    elapsed_line = lines[line_containing("stats.elapsed") - 1]
    checksum_line = lines[line_containing("checksum = checksum + chunk;") - 1]
    assert elapsed_line.startswith("  ~ ")
    assert not checksum_line.startswith("  ~ ")


def test_render_marks_criterion_definition(slicer):
    result = slicer.backward_slice("process", "checksum")
    rendered = slicer.render(result)
    criterion_line = rendered.splitlines()[line_containing("let mut checksum = 0;") - 1]
    assert criterion_line.startswith(">>> ")


def test_removable_lines_are_outside_the_slice(slicer):
    removable = slicer.removable_lines("process", "checksum")
    assert line_containing("log_progress(count);") in removable
    assert line_containing("checksum = checksum + chunk;") not in removable


def test_unknown_variable_raises(slicer):
    with pytest.raises((AnalysisError, KeyError)):
        slicer.backward_slice("process", "nope")


@pytest.mark.parametrize("method", ["backward_slice", "forward_slice", "removable_lines"])
def test_unknown_function_or_variable_raises_the_same_errors(slicer, method):
    with pytest.raises(AnalysisError, match="no body available for function 'nowhere'"):
        getattr(slicer, method)("nowhere", "checksum")
    with pytest.raises(AnalysisError, match="has no variable 'nope'"):
        getattr(slicer, method)("process", "nope")


def test_slice_size_reported(slicer):
    result = slicer.backward_slice("process", "checksum")
    assert result.size() == len(result.locations)
    assert result.size() > 0
