"""Shared sources and construction helpers for the test suite.

These used to live in ``conftest.py``, but test modules importing them via
``from conftest import ...`` broke as soon as another ``conftest.py``
(``benchmarks/``) shadowed the name on ``sys.path``.  Import them explicitly
from this module instead.
"""

from __future__ import annotations

import multiprocessing
from typing import List, Tuple

import pytest

from repro.core.config import AnalysisConfig
from repro.core.engine import FlowEngine
from repro.lang import ast
from repro.lang.parser import parse_program
from repro.lang.typeck import check_program
from repro.mir.lower import lower_program


# Parallel-equivalence tests assert the pool really ran; they can only do so
# where worker processes can be forked.
requires_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process pools need the fork start method",
)


# The paper's Figure 1 example, used across many tests.
GET_COUNT_SOURCE = """
struct HashMap;

extern fn contains_key(h: &HashMap, k: u32) -> bool;
extern fn insert(h: &mut HashMap, k: u32, v: u32);
extern fn get(h: &HashMap, k: u32) -> u32;

fn get_count(h: &mut HashMap, k: u32) -> u32 {
    if !contains_key(h, k) {
        insert(h, k, 0);
        0
    } else {
        get(h, k)
    }
}
"""

# A program exercising Modular vs Whole-program differences: `helper` does
# not mutate its &mut argument and its result depends only on `y`.
HELPER_CALLER_SOURCE = """
fn helper(x: &mut u32, y: u32) -> u32 {
    y + 1
}

fn caller(a: u32, b: u32) -> u32 {
    let mut x = a;
    let r = helper(&mut x, b);
    x + r
}
"""


def checked_from(source: str):
    """Parse + type check helper used by many tests."""
    return check_program(parse_program(source))


def lowered_from(source: str):
    """Parse + check + lower helper used by many tests."""
    checked = checked_from(source)
    return checked, lower_program(checked)


def analyze(source: str, fn_name: str, config: AnalysisConfig | None = None):
    """End-to-end helper: analyse one function of a source snippet."""
    engine = FlowEngine.from_source(source, config=config)
    return engine.analyze_function(fn_name)


def place_expr_cursors(source: str) -> List[Tuple[int, int]]:
    """Every distinct cursor on a place expression of ``source``'s bodies.

    Each place expression contributes its first and its last character, so
    a field access yields both its base (the ``p`` of ``p.x``) and the field.
    """
    cursors = set()
    for fn in checked_from(source).program.all_functions():
        if fn.body is None:
            continue
        for expr in ast.walk_block(fn.body):
            if expr.is_place():
                cursors.add((expr.span.start_line, expr.span.start_col))
                cursors.add((expr.span.end_line, expr.span.end_col - 1))
    return sorted(cursors)
