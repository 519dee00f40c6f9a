"""Referee tests for the session's incremental rebuild.

An edit re-parses only the units whose text or first line changed, and in
such a unit only the runs of top-level items (or ``crate`` blocks) on the
lines it changed; every other item is kept as the served declaration, with
its signature while no struct changed, and, while no struct or signature
changed, with that function's checked form, lowered body and body
fingerprint.  After every step these tests compare the edited session with
a fresh session opened on the same units: the whole-workspace snapshot
digest under the Modular and Whole-program conditions, the focus answer at
every place-expression cursor of every function, addressed relative to its
unit, and each unit's parse against a fresh parse of its text.
"""

from __future__ import annotations

import copy
import dataclasses
import random
import re

import pytest

from helpers import place_expr_cursors

from repro.core.config import MODULAR, WHOLE_PROGRAM
from repro.errors import ParseError, QueryError, ReproError, TypeCheckError
from repro.fuzz.generator import generate_source, profile
from repro.lang import ast
from repro.lang.parser import parse_program
from repro.lang.typeck import TypeChecker
from repro.lang.types import Type
from repro.obs import start_trace
from repro.service.session import AnalysisSession


UNIT_A = """\
struct S { a: u32, b: u32 }

fn bump(t: u32) -> u32 {
    let k = t + 1;
    k * 2
}

fn first<'a, 'b>(x: &'a u32, y: &'b u32) -> &'a u32 {
    x
}
"""

UNIT_B = """\
fn build(t: u32) -> u32 {
    let r = S { a: t, b: 0 };
    let x = r.b;
    x + bump(t) + h(t)
}

fn h(x: u32) -> u32 { x }
"""

UNIT_C = """\
fn pick(p: u32, q: u32) -> u32 {
    let rp = first(&p, &q);
    *rp + bump(q)
}
"""

WORKSPACE = [("a", UNIT_A), ("b", UNIT_B), ("c", UNIT_C)]

# The cursor on the field of `r.b` in unit b.
FIELD_CURSOR = {"unit": "b", "line": 3, "col": 15}

REORDERED_A = UNIT_A.replace("struct S { a: u32, b: u32 }", "struct S { b: u32, a: u32 }")


def unit_cursors(units):
    """Every place-expression cursor of the workspace as ``(unit, line,
    col)``, with ``line`` relative to the unit."""
    starts = []
    offset = 0
    for name, source in units:
        starts.append((offset, name))
        offset += source.count("\n") + 1
    cursors = []
    for line, col in place_expr_cursors("\n".join(source for _, source in units)):
        start, name = max(entry for entry in starts if entry[0] < line)
        cursors.append((name, line - start, col))
    return cursors


def focus_answers(session, cursors):
    answers = {}
    for unit, line, col in cursors:
        try:
            out = session.focus(line=line, col=col, unit=unit)
        except QueryError as error:
            answers[unit, line, col] = error.code
        else:
            answers[unit, line, col] = {
                key: value for key, value in out.items() if key not in ("cache", "stats")
            }
    return answers


def parse_dump(value):
    """A canonical form of a parse: every field but node ids and the
    checker's annotations (an expression's ``ty``, a field access's
    ``field_index``).  Types are rendered as text, because the checker
    resolves a ``let``'s declared type in place."""
    if isinstance(value, ast.Node):
        return (type(value).__name__,) + tuple(
            (item.name, parse_dump(getattr(value, item.name)))
            for item in dataclasses.fields(value)
            if item.name not in ("node_id", "field_index")
            and not (item.name == "ty" and isinstance(value, ast.Expr))
        )
    if isinstance(value, Type):
        return value.pretty()
    if isinstance(value, (list, tuple)):
        return tuple(parse_dump(item) for item in value)
    return value


def assert_parses_match_fresh(session):
    for name, source in session.units():
        first_line = session._unit_lines[name][0] + 1
        served = session._parsed[name][2]
        assert parse_dump(served) == parse_dump(parse_program(source, first_line=first_line)), name


def assert_matches_fresh(session):
    units = session.units()
    assert_parses_match_fresh(session)
    fresh = AnalysisSession(local_crate=session.local_crate)
    fresh.open_units(units)
    for config in (MODULAR, WHOLE_PROGRAM):
        assert session.snapshot_digest(config) == fresh.snapshot_digest(config), config
    cursors = unit_cursors(units)
    assert focus_answers(session, cursors) == focus_answers(fresh, cursors)


def assert_fails_like_fresh(session, edit, units):
    """``edit()`` fails as a fresh session opened on ``units`` fails: the
    same exception type, message and span."""
    with pytest.raises(ReproError) as edited:
        edit()
    with pytest.raises(ReproError) as fresh:
        AnalysisSession(local_crate=session.local_crate).open_units(units)
    assert type(edited.value) is type(fresh.value)
    assert str(edited.value) == str(fresh.value)
    assert getattr(edited.value, "span", None) == getattr(fresh.value, "span", None)


def edited_session():
    session = AnalysisSession()
    session.open_units(WORKSPACE)
    # Fill the store, so later steps are served partly from it.
    assert_matches_fresh(session)
    return session


def field_target(session):
    return session.focus(**FIELD_CURSOR)["target"]


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def test_body_literal_edit():
    session = edited_session()
    report = session.update_unit("a", UNIT_A.replace("t + 1", "t + 7"))
    assert report["body_changed"] == ["bump"]
    assert_matches_fresh(session)


def test_struct_field_reorder_rechecks_other_units():
    # `==` on struct types is nominal: only a structural comparison sees
    # the reorder and re-checks `build`, whose `r.b` is now field 0.
    session = edited_session()
    assert field_target(session) == "r.1"
    session.update_unit("a", REORDERED_A)
    assert field_target(session) == "r.0"
    assert_matches_fresh(session)


def test_extern_added_above_a_function():
    # `extern` lies outside the function's span, which starts at `fn`: `h`
    # keeps its text and span but must not keep its served declaration.
    session = edited_session()
    session.update_unit("b", UNIT_B.replace("}\n\nfn h", "}\nextern\nfn h"))
    assert session._checked.program.function("h").is_extern
    assert_matches_fresh(session)


def test_line_inserted_at_the_top_of_the_first_unit():
    session = edited_session()
    session.update_unit("a", "// a new first line\n" + UNIT_A)
    assert_matches_fresh(session)


def test_line_appended_to_the_last_unit():
    session = edited_session()
    session.update_unit("c", UNIT_C + "fn seven() -> u32 { 7 }\n")
    assert_matches_fresh(session)


def test_lifetime_only_signature_change():
    session = edited_session()
    report = session.update_unit("a", UNIT_A.replace("-> &'a u32", "-> &'b u32"))
    assert report["sig_changed"] == ["first"]
    assert_matches_fresh(session)


def test_elided_reference_added_to_one_signature_changes_only_that_signature():
    session = AnalysisSession()
    session.open_units([
        ("a", "fn a(x: u32) -> u32 { x }"),
        ("b", "fn b(p: &u32) -> u32 { *p }\nfn c(q: &mut u32, r: &u32) {\n    *q = *r;\n}"),
    ])
    session.warm()
    report = session.update_unit("a", "fn a(x: &u32) -> u32 { *x }")
    assert report["sig_changed"] == ["a"]
    assert report["evicted_entries"] == 1
    assert_matches_fresh(session)


def test_function_moved_to_another_unit():
    session = edited_session()
    moved = "fn h(x: u32) -> u32 { x }\n"
    session.open_units([("b", UNIT_B.replace("\n" + moved, "")), ("c", moved + UNIT_C)])
    assert_matches_fresh(session)


def test_whitespace_only_change_inside_a_body():
    session = edited_session()
    session.update_unit("a", UNIT_A.replace("let k = t + 1;", "let  k  =  t + 1;"))
    assert_matches_fresh(session)


def test_closing_a_middle_unit():
    session = edited_session()
    session.close_unit("b")
    assert session.unit_names() == ["a", "c"]
    assert_matches_fresh(session)


def test_failed_edit_then_good_edit():
    session = edited_session()
    with pytest.raises(TypeCheckError):
        session.update_unit("a", UNIT_A.replace("t + 1", "t + true"))
    assert_matches_fresh(session)
    session.update_unit("a", UNIT_A.replace("t + 1", "t + 3"))
    assert_matches_fresh(session)


def counted_checks(monkeypatch):
    """A list that gains an entry each time ``TypeChecker.check`` runs."""
    calls = []
    check = TypeChecker.check

    def counted(self):
        calls.append(self.program)
        return check(self)

    monkeypatch.setattr(TypeChecker, "check", counted)
    return calls


def test_type_error_in_one_body_checks_once(monkeypatch):
    # The environment is unchanged, so the failing check re-checks no body
    # the served generation shares.
    session = edited_session()
    calls = counted_checks(monkeypatch)
    with pytest.raises(TypeCheckError):
        session.update_unit("a", UNIT_A.replace("t + 1", "t + true"))
    assert len(calls) == 1
    assert_matches_fresh(session)


def test_failed_edit_in_a_changed_environment_checks_once(monkeypatch):
    # The failing check re-annotated `build` (shared with the served
    # generation) for the reordered struct before it failed.  The cursor
    # reads the places the served lowering recorded, not those
    # annotations, so nothing is checked again and it still answers `r.1`.
    session = edited_session()
    assert field_target(session) == "r.1"
    calls = counted_checks(monkeypatch)
    with pytest.raises(TypeCheckError):
        session.update_unit("a", REORDERED_A.replace("t + 1", "t + true"))
    assert len(calls) == 1
    assert field_target(session) == "r.1"
    assert_matches_fresh(session)


# ---------------------------------------------------------------------------
# Item-level re-parse
# ---------------------------------------------------------------------------

# `extern` belongs to `h`, but sits on the line that closes `b`.
EXTERN_ON_BRACE_LINE = """\
fn b(x: u32) -> u32 {
    x + 1
} extern
fn h(x: u32) -> u32 {
    x + 2
}
"""

TWO_ON_ONE_LINE = "fn p(a: u32) -> u32 { a + 1 } fn q(b: u32) -> u32 { b * 2 }\n"

CRATE_BLOCK = """\
crate dep {
    fn g(x: u32) -> u32 {
        x + 1
    }
    fn k(x: u32) -> u32 { x }
}
fn top(y: u32) -> u32 {
    y
}
"""

THREE_FUNCTIONS = """\
fn one(a: u32) -> u32 {
    a + 1
}

fn two(a: u32) -> u32 {
    a + 2
}

fn three(a: u32) -> u32 {
    a + 3
}
"""


def test_extern_on_the_closing_brace_line_of_the_previous_item():
    # Parsed alone, the lines of `h` would give `h` without `extern`: the
    # item `b` that shares its first line is parsed again with it.
    session = AnalysisSession()
    session.open_units([("a", UNIT_A), ("t", EXTERN_ON_BRACE_LINE)])
    work = traced_rebuild(session, "t", EXTERN_ON_BRACE_LINE.replace("x + 2", "x + 3"))
    assert session._checked.program.function("h").is_extern
    assert work["items_parsed"] == 2
    assert_matches_fresh(session)


def test_second_of_two_items_on_one_line():
    session = AnalysisSession()
    session.open_units([("a", UNIT_A), ("o", TWO_ON_ONE_LINE)])
    report = session.update_unit("o", TWO_ON_ONE_LINE.replace("b * 2", "b * 3"))
    assert report["body_changed"] == ["q"]
    assert_matches_fresh(session)


def test_edit_inside_a_crate_block():
    session = AnalysisSession()
    session.open_units([("a", UNIT_A), ("d", CRATE_BLOCK)])
    top = session._checked.program.function("top")
    work = traced_rebuild(session, "d", CRATE_BLOCK.replace("x + 1", "x + 5"))
    assert work["items_parsed"] == 1
    assert session._checked.program.function("top") is top
    assert_matches_fresh(session)


def test_comment_only_edit_between_two_items():
    session = edited_session()
    work = traced_rebuild(session, "b", UNIT_B.replace("}\n\nfn h", "}\n// h\nfn h"))
    assert work == {
        "units_parsed": 1,
        "items_parsed": 0,
        "signatures_elaborated": 0,
        "functions_checked": 0,
        "bodies_lowered": 0,
    }
    assert_matches_fresh(session)


def test_edits_at_two_distant_lines_keep_the_functions_between():
    session = AnalysisSession()
    session.open_units([("a", UNIT_A), ("n", THREE_FUNCTIONS)])
    two = session._lowered.bodies["two"]
    edited = THREE_FUNCTIONS.replace("a + 1", "a + 10").replace("a + 3", "a + 30")
    work = traced_rebuild(session, "n", edited)
    assert work["items_parsed"] == 2
    assert work["bodies_lowered"] == 2
    assert session._lowered.bodies["two"] is two
    assert session.last_plans[False].to_json_dict()["evict"] == {
        "one": "edited", "three": "edited"
    }
    assert_matches_fresh(session)


# Unit b ending, with no trailing newline as an editor may leave a file, on
# the closing-brace line of a function that `build` calls (`h`) or that
# nothing calls (`spare`).
H_LAST = UNIT_B.replace("fn h(x: u32) -> u32 { x }\n", "fn h(x: u32) -> u32 {\n    x\n}")
SPARE_LAST = UNIT_B + "fn spare(y: u32) -> u32 {\n    y\n}"

# Unit b's served text and an edit of it that does not parse.
BROKEN_EDITS = {
    "deleted_brace": (
        UNIT_B,
        UNIT_B.replace("    x + bump(t) + h(t)\n}\n", "    x + bump(t) + h(t)\n\n"),
    ),
    "stray_at": (UNIT_B, UNIT_B.replace("let x = r.b;", "let x = r.b; @")),
    "lone_quote": (UNIT_B, UNIT_B.replace("let x = r.b;", "let x = ' r.b;")),
    # The new text is a line prefix of the served one (two backspaces at
    # the end of the file): the function the cut splits must be parsed
    # again, not dropped.
    "cut_called_function": (H_LAST, H_LAST[: -len("\n}")]),
    "cut_uncalled_function": (SPARE_LAST, SPARE_LAST[: -len("\n}")]),
}


@pytest.mark.parametrize("name", sorted(BROKEN_EDITS))
def test_broken_edit_fails_like_a_fresh_open(name):
    served, broken = BROKEN_EDITS[name]
    assert broken != served
    workspace = [(unit, served if unit == "b" else text) for unit, text in WORKSPACE]
    session = AnalysisSession()
    session.open_units(workspace)
    cursors = unit_cursors(workspace)
    before = focus_answers(session, cursors)
    units = [(unit, broken if unit == "b" else text) for unit, text in workspace]
    assert_fails_like_fresh(session, lambda: session.update_unit("b", broken), units)
    assert session.units() == workspace
    assert focus_answers(session, cursors) == before
    assert_matches_fresh(session)


# ---------------------------------------------------------------------------
# Units hold whole items
# ---------------------------------------------------------------------------


def test_an_item_cannot_span_two_units():
    # Joined, the two new units would parse: each unit must parse alone.
    session = AnalysisSession()
    session.open_units(WORKSPACE)
    generation = session.generation
    with pytest.raises(ParseError):
        session.open_units([("d", "crate dep {\nfn g() -> u32 { 1 }"), ("e", "}")])
    assert session.generation == generation
    assert session.units() == WORKSPACE
    assert field_target(session) == "r.1"


# ---------------------------------------------------------------------------
# The work a rebuild does
# ---------------------------------------------------------------------------


WORK = (
    "units_parsed", "items_parsed", "signatures_elaborated", "functions_checked", "bodies_lowered"
)


def traced_work(rebuild):
    with start_trace("rebuild") as trace:
        rebuild()
    (span,) = trace.to_dict()["root"]["children"]
    assert span["name"] == "rebuild"
    return {key: span["attrs"][key] for key in WORK}


def traced_rebuild(session, unit, source):
    return traced_work(lambda: session.update_unit(unit, source))


def test_rebuild_span_counts_the_work_done():
    session = AnalysisSession()
    # A cold open parses every item: `S`, `bump`, `first`, `build`, `h`.
    work = traced_work(lambda: session.open_units([("a", UNIT_A), ("b", UNIT_B)]))
    assert [work[key] for key in WORK] == [2, 5, 4, 4, 4]
    work = traced_rebuild(session, "a", UNIT_A.replace("t + 1", "t + 7"))
    assert [work[key] for key in WORK] == [1, 1, 1, 1, 1]
    # A struct edit changes every signature's and every function's
    # environment (this one also reverts the literal edit in `bump`, so two
    # items are parsed).
    work = traced_rebuild(session, "a", REORDERED_A)
    assert [work[key] for key in WORK] == [1, 2, 4, 4, 4]
    # A signature edit elaborates that signature alone, but re-checks and
    # re-lowers every function, whose environment it changed.
    work = traced_rebuild(
        session, "b", UNIT_B.replace("fn h(x: u32) -> u32 { x }", "fn h(y: u32) -> u32 { y }")
    )
    assert [work[key] for key in WORK] == [1, 1, 1, 4, 4]


def test_unchanged_functions_keep_their_bodies():
    session = AnalysisSession()
    session.open_units(WORKSPACE)
    before = dict(session._lowered.bodies)
    session.update_unit("a", UNIT_A.replace("t + 1", "t + 7"))
    after = session._lowered.bodies
    assert [name for name in after if after[name] is not before[name]] == ["bump"]


# ---------------------------------------------------------------------------
# Seeded sweep over fuzz programs
# ---------------------------------------------------------------------------

LITERAL = re.compile(r"(?<![\w.])\d+\b")
# A line that declares a function or a struct, and a `u32` or `&u32`
# parameter, return or field type on it.
SIGNATURE_LINE = re.compile(r"^ *(?:extern fn|fn|struct) .*$", re.M)
DECLARED_U32 = re.compile(r"(?:: |-> )(&?u32)\b")
PARAMETER = re.compile(r"[(,] ?(\w+): ")


def fuzz_workspace(seed):
    """A fuzz program's local items, unwrapped to top level and split at
    item boundaries into three units; each unit is a list of items."""
    source = generate_source(seed, profile("small", crate_name="fz"))
    start = source.index("crate fz {")
    extern_start = source.index("crate extfuzz {")
    body = source[start:extern_start].rstrip().splitlines()[1:-1]
    items = []
    for line in body:
        line = line[4:] if line.startswith("    ") else line
        if not line.strip():
            continue
        if line.startswith(("fn ", "struct ")):
            items.append(line)
        else:
            items[-1] += "\n" + line
    items.append(source[extern_start:].strip())
    cut = len(items) // 3
    return [items[:cut], items[cut : 2 * cut], items[2 * cut :]]


def unit_texts(workspace):
    return [(f"u{index}", "\n".join(items)) for index, items in enumerate(workspace)]


def random_edit(rng, workspace):
    """Apply one random edit in place; return the indices of changed units.

    A ``line`` edit deletes, duplicates or swaps lines of one unit, so it
    can leave the unit broken; that unit's items become its lines.  A
    ``signature`` edit toggles one declared type between ``u32`` and
    ``&u32``; it mostly fails to check, but not where nothing uses the type
    (an uncalled extern function's parameter).  A ``rename`` edit renames a
    parameter throughout its function, a signature edit that checks.
    """
    kind = rng.choice(("literal", "blank", "move", "line", "signature", "rename"))
    if kind == "line":
        unit = rng.choice([unit for unit in range(3) if workspace[unit]])
        lines = "\n".join(workspace[unit]).split("\n")
        index = rng.randrange(len(lines))
        action = rng.choice(("delete", "duplicate", "swap"))
        if action == "delete":
            del lines[index]
        elif action == "duplicate":
            lines.insert(index, lines[index])
        else:
            other = rng.randrange(len(lines))
            lines[index], lines[other] = lines[other], lines[index]
        workspace[unit] = lines
        return [unit]
    if kind == "literal":
        spots = [
            (unit, index)
            for unit, items in enumerate(workspace)
            for index, item in enumerate(items)
            if LITERAL.search(item)
        ]
        unit, index = rng.choice(spots)
        item = workspace[unit][index]
        match = rng.choice(list(LITERAL.finditer(item)))
        bumped = str(int(match.group()) + 1)
        workspace[unit][index] = item[: match.start()] + bumped + item[match.end() :]
        return [unit]
    if kind == "signature":
        spots = [
            (unit, index, line.start() + match.start(1), line.start() + match.end(1))
            for unit, items in enumerate(workspace)
            for index, item in enumerate(items)
            for line in SIGNATURE_LINE.finditer(item)
            for match in DECLARED_U32.finditer(line.group())
        ]
        unit, index, start, end = rng.choice(spots)
        item = workspace[unit][index]
        declared = item[start:end]
        toggled = declared[1:] if declared.startswith("&") else "&" + declared
        workspace[unit][index] = item[:start] + toggled + item[end:]
        return [unit]
    if kind == "rename":
        spots = [
            (unit, index, match.group(1))
            for unit, items in enumerate(workspace)
            for index, item in enumerate(items)
            if item.startswith("fn ")
            for match in PARAMETER.finditer(item.split("\n", 1)[0])
        ]
        unit, index, name = rng.choice(spots)
        workspace[unit][index] = re.sub(rf"\b{name}\b", f"{name}_r", workspace[unit][index])
        return [unit]
    if kind == "blank":
        unit = rng.randrange(3)
        workspace[unit].insert(rng.randint(0, len(workspace[unit])), "")
        return [unit]
    source = rng.choice([unit for unit in range(3) if workspace[unit]])
    target = rng.choice([unit for unit in range(3) if unit != source])
    item = workspace[source].pop(rng.randrange(len(workspace[source])))
    workspace[target].insert(rng.randint(0, len(workspace[target])), item)
    return [source, target]


def cut_last_line(rng, workspace):
    """Delete the last line of one unit, as two backspaces at the end of a
    file with no trailing newline do; return the index of that unit."""
    unit = rng.choice([unit for unit in range(3) if workspace[unit]])
    workspace[unit] = "\n".join(workspace[unit]).split("\n")[:-1]
    return [unit]


@pytest.mark.parametrize("seed", range(20))
def test_seeded_edit_sweep(seed):
    rng = random.Random(seed)
    workspace = fuzz_workspace(seed)
    session = AnalysisSession()
    session.open_units(unit_texts(workspace))
    for edit in [random_edit] * 5 + [cut_last_line]:
        before = copy.deepcopy(workspace)
        changed = edit(rng, workspace)
        texts = unit_texts(workspace)
        try:
            session.open_units([texts[unit] for unit in changed])
        except ReproError:
            # Both fail alike, and the session serves the workspace before.
            assert_fails_like_fresh(
                session, lambda: session.open_units([texts[unit] for unit in changed]), texts
            )
            workspace[:] = before
            assert session.units() == unit_texts(workspace)
        assert_matches_fresh(session)
