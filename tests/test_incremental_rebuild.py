"""Referee tests for the session's incremental rebuild.

An edit re-parses only the units whose text or first line changed, keeps the
declaration of every function whose text and position are unchanged, and,
while no struct or signature changed, that function's checked form, lowered
body and body fingerprint too.  After every step these tests compare the
edited session with a fresh session opened on the same units: the
whole-workspace snapshot digest under the Modular and Whole-program
conditions, and the focus answer at every place-expression cursor of every
function, addressed relative to its unit.
"""

from __future__ import annotations

import random
import re

import pytest

from helpers import place_expr_cursors

from repro.core.config import MODULAR, WHOLE_PROGRAM
from repro.errors import ParseError, QueryError, TypeCheckError
from repro.fuzz.generator import generate_source, profile
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


def assert_matches_fresh(session):
    units = session.units()
    fresh = AnalysisSession(local_crate=session.local_crate)
    fresh.open_units(units)
    for config in (MODULAR, WHOLE_PROGRAM):
        assert session.snapshot_digest(config) == fresh.snapshot_digest(config), config
    cursors = unit_cursors(units)
    assert focus_answers(session, cursors) == focus_answers(fresh, cursors)


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


def test_failed_edit_keeps_the_served_annotations():
    # The failing check re-annotated `build` (shared with the served
    # generation) for the reordered struct before it failed.
    session = edited_session()
    assert field_target(session) == "r.1"
    with pytest.raises(TypeCheckError):
        session.update_unit("a", REORDERED_A.replace("t + 1", "t + true"))
    assert field_target(session) == "r.1"
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


def traced_rebuild(session, unit, source):
    with start_trace("update") as trace:
        session.update_unit(unit, source)
    (rebuild,) = trace.to_dict()["root"]["children"]
    assert rebuild["name"] == "rebuild"
    attrs = rebuild["attrs"]
    return attrs["units_parsed"], attrs["functions_checked"], attrs["bodies_lowered"]


def test_rebuild_span_counts_the_work_done():
    session = AnalysisSession()
    session.open_units([("a", UNIT_A), ("b", UNIT_B)])
    assert traced_rebuild(session, "a", UNIT_A.replace("t + 1", "t + 7")) == (1, 1, 1)
    # A struct edit changes every function's environment.
    assert traced_rebuild(session, "a", REORDERED_A) == (1, 4, 4)


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
    """Apply one random edit in place; return the indices of changed units."""
    kind = rng.choice(("literal", "blank", "move"))
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
    if kind == "blank":
        unit = rng.randrange(3)
        workspace[unit].insert(rng.randint(0, len(workspace[unit])), "")
        return [unit]
    source = rng.choice([unit for unit in range(3) if workspace[unit]])
    target = rng.choice([unit for unit in range(3) if unit != source])
    item = workspace[source].pop(rng.randrange(len(workspace[source])))
    workspace[target].insert(rng.randint(0, len(workspace[target])), item)
    return [source, target]


@pytest.mark.parametrize("seed", range(20))
def test_seeded_edit_sweep(seed):
    rng = random.Random(seed)
    workspace = fuzz_workspace(seed)
    session = AnalysisSession()
    session.open_units(unit_texts(workspace))
    for _ in range(5):
        changed = random_edit(rng, workspace)
        texts = unit_texts(workspace)
        session.open_units([texts[unit] for unit in changed])
        assert_matches_fresh(session)
