"""Seeded inputs for the pipeline benchmark, with referee answer digests.

Everything a timed run needs is made here, from the seed alone, and handed
over as plain strings and digests: program sources, workspace unit texts,
one-line edits and cursor positions.  Every op's expected answer digest
comes from the independent referee — the ``engine="object"`` analysis run
cold in a fresh :class:`AnalysisSession` per input state — never from the
incremental path the benchmark times.

For the default seed the committed digests in ``perfbench/expected/`` take
precedence over the referee, so a change that moves both engines alike (the
spans or the lowering they share) still fails the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.config import AnalysisConfig
from repro.errors import ReproError
from repro.eval.corpus import PAPER_CRATE_SPECS, generate_crate_source
from repro.fuzz.generator import generate_source, profile
from repro.service.session import AnalysisSession

from ops import answer_digest, cold_answer, focus_answer

DEFAULT_SEED = 0
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

REFEREE = AnalysisConfig(engine="object")
POOL_THRESHOLD = 24  # BatchScheduler's default parallel_threshold
WORKSPACE_DRAFTS = 16

# Workload shapes.  ``full`` is what the benchmark measures; ``tiny`` keeps
# the same structure at a size the self-tests can afford.
SHAPES = {
    "full": {
        # cold_batch: three program classes; a quarter of the ops open a
        # small program, half a medium one and a quarter a large one, at or
        # above the scheduler's pool threshold.  Each class is one mode of
        # the latency distribution: p50 falls in the middle of the medium
        # mode, p90 inside the large (pool) mode.  Each class holds enough
        # programs that its median barely depends on the seed's draw.
        "cold_small": [("fuzz", "small", 0)] * 4
        + [("template", 0.15, name) for name in ("rayon", "rocket", "rustls", "hyper")],
        "cold_medium": [("fuzz", "medium", 0)] * 12,
        "cold_large": [
            ("template", 0.5, name)
            for name in ("rayon", "rustls", "sccache", "image", "hyper") * 2
        ],
        # edit_focus: depslib plus four template crates (25.2 KB).  Short
        # rounds keep the collection pauses, which grow with every retained
        # generation, from ramping across a round and dragging p90 along.
        "edit_crates": ("rustls", "rocket", "hyper", "image"),
        "edit_scale": 0.2,
        "edit_bytes": 25_200,
        "edit_round": 13,
        # warm_focus: depslib plus all ten template crates (63 KB).
        "warm_crates": tuple(spec.name for spec in PAPER_CRATE_SPECS),
        "warm_scale": 0.16,
        "warm_bytes": 63_000,
        "warm_cursors": 400,
    },
    "tiny": {
        "cold_small": [("fuzz", "small", 0)],
        "cold_medium": [("template", 0.15, "rustls")],
        "cold_large": [("fuzz", "medium", 12)],
        "edit_crates": ("rustls", "hyper"),
        "edit_scale": 0.15,
        "edit_bytes": 10_000,
        "edit_round": 4,
        "warm_crates": ("rustls", "hyper"),
        "warm_scale": 0.15,
        "warm_bytes": 10_000,
        "warm_cursors": 12,
    },
}

_KEYWORDS = {"let", "mut", "if", "else", "while", "return", "true", "false", "fn"}
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"(?<![A-Za-z0-9_])(\d+)(?![A-Za-z0-9_])")


def input_digest(*parts: str) -> str:
    """Content address of one op's input (the key of the committed digests)."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\0")
    return hasher.hexdigest()[:24]


# -- sources -------------------------------------------------------------------


def _spec(name: str, seed: int, scale: float):
    base = next(spec for spec in PAPER_CRATE_SPECS if spec.name == name)
    return replace(base, seed=base.seed * 1000 + seed).scaled(scale)


def _split_template(source: str, crate: str) -> Tuple[str, str]:
    """(depslib block, the crate's items unwrapped to top level)."""
    start = source.index(f"crate {crate} {{")
    deps = source[:start].strip() + "\n"
    block = source[start:].rstrip().splitlines()
    assert block[-1] == "}", "template crates end with their closing brace"
    items = [line[4:] if line.startswith("    ") else line for line in block[1:-1]]
    return deps, "\n".join(items).strip("\n") + "\n"


def _program(kind, size, variant, seed: int, index: int) -> Tuple[str, str]:
    """(local crate, source) of one cold_batch program.

    Fuzz programs take a size profile (``variant`` > 0 overrides the entry
    count); template crates take a scale and the crate they imitate.
    """
    if kind == "fuzz":
        name = f"fz{index}"
        config = profile(size, crate_name=name)
        if variant:
            config = replace(config, n_entries=variant)
        return name, generate_source(seed * 7919 + index, config)
    spec = _spec(variant, seed + index, size)
    return spec.name, generate_crate_source(spec)


def _workspace(crates, scale: float, seed: int, target_bytes: int) -> List[Tuple[str, str]]:
    """``depslib`` plus ``crates`` unwrapped to top-level units.

    A template's size varies by about ±10% from seed to seed, and rebuilding
    or opening a workspace costs time in proportion to its bytes.  Of
    :data:`WORKSPACE_DRAFTS` seeded drafts, the one closest to
    ``target_bytes`` is kept, so the seed changes the code but hardly its
    amount.
    """
    drafts = []
    for draft in range(WORKSPACE_DRAFTS):
        units: List[Tuple[str, str]] = []
        deps = ""
        for name in crates:
            source = generate_crate_source(_spec(name, seed * WORKSPACE_DRAFTS + draft, scale))
            deps, items = _split_template(source, name)
            units.append((f"{name}.mrs", items))
        drafts.append([("depslib.mrs", deps)] + units)
    return min(drafts, key=lambda units: abs(sum(len(text) for _, text in units) - target_bytes))


# -- referee ---------------------------------------------------------------------


def _referee_session(units: List[Tuple[str, str]], local_crate: str = "main") -> AnalysisSession:
    session = AnalysisSession(local_crate=local_crate)
    session.open_units(units)
    return session


_FN_RE = re.compile(r"fn\s+([A-Za-z_][A-Za-z0-9_]*)")


def _function_bodies(text: str) -> List[Tuple[str, List[int]]]:
    """Per function of ``text``: its name and the 1-based lines strictly
    inside its body."""
    bodies: List[Tuple[str, List[int]]] = []
    depth = 0
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if depth == 0 and stripped.startswith("fn ") and stripped.endswith("{"):
            bodies.append((_FN_RE.match(stripped).group(1), []))
        elif bodies and depth >= 1 and stripped and stripped != "}":
            bodies[-1][1].append(number)
        depth += line.count("{") - line.count("}")
    return bodies


def _cursor_on_line(session, unit: str, line: int, text: str) -> Optional[Tuple[int, dict]]:
    """The first identifier column on ``line`` that focus resolves, with its answer.

    The store is emptied before every query, so each answer is tabulated
    afresh from the referee's own result and never decoded from a table an
    earlier query stored.
    """
    for match in _IDENT_RE.finditer(text):
        if match.group(0) in _KEYWORDS:
            continue
        col = match.start() + 1
        session.store.clear()
        try:
            answer = session.focus(line=line, col=col, unit=unit, config=REFEREE)
        except ReproError:
            continue
        return col, answer
    return None


# -- workloads -------------------------------------------------------------------


def cold_batch(seed: int, n_ops: int, shape: dict) -> dict:
    rng = random.Random(f"cold_batch:{seed}")
    programs = []
    classes = {}
    for group in ("cold_small", "cold_medium", "cold_large"):
        large = group == "cold_large"
        classes[group] = []
        for kind, size, variant in shape[group]:
            index = len(programs)
            crate, source = _program(kind, size, variant, seed, index)
            session = _referee_session([("main.mrs", source)], local_crate=crate)
            functions = len(session.function_names())
            if (functions >= POOL_THRESHOLD) != large:
                raise RuntimeError(
                    f"program {index} has {functions} functions; expected it "
                    f"{'at or above' if large else 'below'} {POOL_THRESHOLD}"
                )
            answer = cold_answer(session.analyze(config=REFEREE))
            del session
            programs.append({
                "crate": crate,
                "source": source,
                "functions": functions,
                "class": group,
                "input": input_digest("cold_batch", crate, source),
                "referee": answer_digest(answer),
            })
            classes[group].append(index)
    n_large, n_medium = n_ops // 4, n_ops // 2
    picks = []
    for group, count in (("cold_large", n_large), ("cold_medium", n_medium),
                         ("cold_small", n_ops - n_large - n_medium)):
        members = classes[group]
        picks += [members[i % len(members)] for i in range(count)]
    rng.shuffle(picks)
    # Set-up primes the pipeline on one fixed program, the same for every
    # seed, so set-up time does not depend on the draw.
    warmup = generate_source(0, profile("medium", crate_name="warmup"))
    return {
        "programs": programs,
        "warmup": {"crate": "warmup", "source": warmup},
        "ops": [{"program": p} for p in picks],
    }


def edit_focus(seed: int, n_ops: int, shape: dict) -> dict:
    rng = random.Random(f"edit_focus:{seed}")
    units = _workspace(shape["edit_crates"], shape["edit_scale"], seed, shape["edit_bytes"])
    candidates = []
    for unit, text in units[1:]:
        lines = text.splitlines()
        for _, body in _function_bodies(text):
            for number in body:
                if _INT_RE.search(lines[number - 1]):
                    candidates.append((unit, number))
    # Edits accumulate: each op changes the text the previous op left, and a
    # literal only ever grows, so no input state repeats within a round.
    # Every round starts again from the generated workspace in a fresh
    # session, which bounds how far the texts and the heap drift.
    ops: List[dict] = []
    rounds: List[List[int]] = []
    while len(ops) < n_ops:
        texts = dict(units)
        start = len(ops)
        while len(ops) < min(n_ops, start + shape["edit_round"]):
            unit, number = candidates[rng.randrange(len(candidates))]
            lines = texts[unit].splitlines()
            line = lines[number - 1]
            literal = list(_INT_RE.finditer(line))[-1]
            new_value = int(literal.group(1)) + rng.randint(1, 9)
            lines[number - 1] = line[: literal.start()] + str(new_value) + line[literal.end():]
            edited = "\n".join(lines) + "\n"
            state = [(name, edited if name == unit else texts[name]) for name, _ in units]
            found = _cursor_on_line(_referee_session(state), unit, number, lines[number - 1])
            if found is None:
                continue
            texts[unit] = edited
            col, answer = found
            ops.append({
                "unit": unit,
                "source": edited,
                "line": number,
                "col": col,
                "input": input_digest("edit_focus", unit, str(number), str(col),
                                      *(text for _, text in state)),
                "referee": answer_digest(focus_answer(answer)),
            })
        rounds.append(list(range(start, len(ops))))
    return {
        "units": [list(u) for u in units],
        "setup_queries": _setup_queries(_referee_session(units)),
        "ops": ops,
        "rounds": rounds,
    }


def _setup_queries(session: AnalysisSession) -> List[List[str]]:
    """One (function, variable) focus query per local function."""
    queries = []
    for fn_name in session.function_names():
        variables = sorted(session.variables_of(fn_name))
        if variables:
            queries.append([fn_name, variables[0]])
    return queries


def warm_focus(seed: int, n_ops: int, shape: dict) -> dict:
    rng = random.Random(f"warm_focus:{seed}")
    units = _workspace(shape["warm_crates"], shape["warm_scale"], seed, shape["warm_bytes"])
    session = _referee_session(units)
    bodies = [
        (unit, lines, name, body)
        for unit, text in units[1:]
        for lines in [text.splitlines()]
        for name, body in _function_bodies(text)
    ]
    # The same number of cursors in every function, and fixed op shares for
    # three classes of functions.  Template crates hold small helpers and
    # much larger `*_work_*` functions; the workers are split at their median
    # focus-table size (locals plus dependency-set sizes).  20% of the ops
    # query helpers, 60% the smaller workers and 20% the larger ones, so p50
    # is the median of the smaller workers' latencies and p90 the median of
    # the larger workers', never a boundary between two modes.
    per_function = max(1, -(-shape["warm_cursors"] // len(bodies)))
    size = {}
    for _, _, name, _ in bodies:
        deps = session.analyze(function=name, config=REFEREE)["functions"][name]
        size[name] = len(deps["dependency_sizes"]) + sum(deps["dependency_sizes"].values())
    workers = sorted(
        (i for i, body in enumerate(bodies) if "_work_" in body[2]),
        key=lambda i: (size[bodies[i][2]], i),
    )
    class_of = {i: 0 for i in range(len(bodies))}
    for rank, index in enumerate(workers):
        class_of[index] = 1 if 2 * rank < len(workers) else 2
    all_text = "".join(text for _, text in units)
    cursors = []
    classes = {0: [], 1: [], 2: []}
    for index, (unit, lines, _, body) in enumerate(bodies):
        numbers = list(body)
        rng.shuffle(numbers)
        found_here = 0
        for number in numbers:
            if found_here == per_function:
                break
            found = _cursor_on_line(session, unit, number, lines[number - 1])
            if found is None:
                continue
            col, answer = found
            found_here += 1
            classes[class_of[index]].append(len(cursors))
            cursors.append({
                "unit": unit,
                "line": number,
                "col": col,
                "input": input_digest("warm_focus", unit, str(number), str(col), all_text),
                "referee": answer_digest(focus_answer(answer)),
            })
    picks = []
    for group, count in ((2, n_ops // 5), (1, 3 * n_ops // 5), (0, n_ops - 4 * n_ops // 5)):
        picks += [classes[group][i % len(classes[group])] for i in range(count)]
    rng.shuffle(picks)
    return {
        "units": [list(u) for u in units],
        "setup_queries": _setup_queries(session),
        "cursors": cursors,
        "ops": [{"cursor": pick} for pick in picks],
    }


WORKLOADS = {"cold_batch": cold_batch, "edit_focus": edit_focus, "warm_focus": warm_focus}


def expected_path(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.json"


def load_expected(workload: str) -> Dict[str, str]:
    """The committed input-digest → answer-digest map of the default seed."""
    path = expected_path(workload)
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["answers"]


def generate(workload: str, seed: int, n_ops: int, size: str = "full") -> dict:
    """All inputs of one run, with each op's expected digest resolved."""
    inputs = WORKLOADS[workload](seed, n_ops, SHAPES[size])
    committed = load_expected(workload) if seed == DEFAULT_SEED and size == "full" else {}
    for item in _checked_items(workload, inputs):
        item["expected"] = committed.get(item["input"], item["referee"])
        item["committed"] = item["input"] in committed
    inputs.update(workload=workload, seed=seed, size=size)
    return inputs


def _checked_items(workload: str, inputs: dict) -> List[dict]:
    """The records that carry an input digest and a referee digest."""
    if workload == "cold_batch":
        return inputs["programs"]
    if workload == "edit_focus":
        return inputs["ops"]
    return inputs["cursors"]


def write_expected(workload: str, inputs: dict) -> Path:
    """Commit the referee digests of ``inputs`` as the default seed's answers."""
    answers = {item["input"]: item["referee"] for item in _checked_items(workload, inputs)}
    path = expected_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"workload": workload, "seed": DEFAULT_SEED, "answers": dict(sorted(answers.items()))}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path
