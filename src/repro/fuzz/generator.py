"""Seeded, grammar-directed random program generation.

Unlike :mod:`repro.eval.corpus` — which mimics the code-style profiles of the
paper's ten crates — this generator aims for *feature diversity*: structs,
shared and mutable references, field projections, borrows with derefs,
branches, bounded loops, acyclic call chains, crate-boundary (extern) calls,
tuples, and early returns, all mixed by tunable probabilities.  Every
generated program is well-typed by construction (the seed-sweep test enforces
it) and the output is **byte-identical per (seed, config)**: generation draws
exclusively from one :class:`random.Random` stream over ordered pools, so a
seed in a bug report replays the exact program anywhere.

The generator also records a *feature histogram* per program (how many
loops/borrows/extern calls/... were emitted), which the mass-evaluation
runner aggregates per feature so corpus diversity is measurable rather than
asserted (``repro eval report``).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

GENERATOR_VERSION = 1


def count_loc(text: str) -> int:
    """Non-blank source lines — the single LOC metric the subsystem reports
    (programs, reductions, artifacts all use this one)."""
    return sum(1 for line in text.splitlines() if line.strip())

#: Extern (signature-only) scalar helpers: they model crate-boundary calls —
#: the modular analysis sees only these signatures — while staying trivially
#: interpretable (the oracle battery supplies pure implementations).
EXTERN_CRATE = """crate extfuzz {
    extern fn ext_mix(a: u32, b: u32) -> u32;
    extern fn ext_scale(x: u32, k: u32) -> u32;
    extern fn ext_pick(c: bool, a: u32, b: u32) -> u32;
    extern fn ext_probe(x: u32) -> bool;
}"""

EXTERN_FUNCTIONS = ("ext_mix", "ext_scale", "ext_pick", "ext_probe")

#: Every feature tag the generator can emit — the complete ``note()``
#: vocabulary, in sorted order.  The mass-evaluation harness uses this as
#: the corpus-level coverage target: at scale, every one of these buckets
#: must be non-empty, or the corpus is not exercising the whole grammar.
#: Keep in sync with the ``note(...)`` calls below (a test sweeps seeds and
#: asserts the emitted set equals exactly this tuple).
GENERATOR_FEATURES: Tuple[str, ...] = (
    "arith",
    "bool_let",
    "borrow_mut",
    "borrow_shared",
    "branch",
    "call_extern",
    "call_local",
    "deref_read",
    "deref_write",
    "div_rem",
    "early_return",
    "entry",
    "field_read",
    "field_write",
    "getter",
    "if_else",
    "if_expr",
    "loop",
    "mixer",
    "mixer_call",
    "mut_ref_param",
    "reassign",
    "setter",
    "shared_ref_param",
    "struct_def",
    "struct_literal",
    "tuple",
)


@dataclass(frozen=True)
class GeneratorConfig:
    """Size and feature knobs for one generated program."""

    crate_name: str = "fuzzed"
    # Item counts.
    n_structs: int = 2
    n_helpers: int = 3
    n_getters: int = 2
    n_setters: int = 2
    n_mixers: int = 1
    n_entries: int = 3
    # Struct and body shape.
    struct_fields: Tuple[int, int] = (2, 4)
    entry_statements: Tuple[int, int] = (4, 10)
    helper_statements: Tuple[int, int] = (1, 4)
    # Entry-function parameter shape.
    p_shared_ref_param: float = 0.7
    p_mut_ref_param: float = 0.6
    # Per-statement feature probabilities (renormalised by the roll table).
    p_branch: float = 0.18
    p_loop: float = 0.10
    p_call: float = 0.18
    p_extern_call: float = 0.12
    p_borrow: float = 0.10
    p_struct_ops: float = 0.16
    p_tuple: float = 0.06
    p_early_return: float = 0.04
    include_extern_crate: bool = True

    def to_json_dict(self) -> Dict[str, object]:
        out = asdict(self)
        out["struct_fields"] = list(self.struct_fields)
        out["entry_statements"] = list(self.entry_statements)
        out["helper_statements"] = list(self.helper_statements)
        return out

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "GeneratorConfig":
        kwargs = dict(data)
        for key in ("struct_fields", "entry_statements", "helper_statements"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]


#: Named size profiles for fuzz sweeps (``repro eval run --size``).
SIZE_PROFILES: Dict[str, GeneratorConfig] = {
    "small": GeneratorConfig(),
    "medium": GeneratorConfig(
        n_structs=3, n_helpers=5, n_getters=3, n_setters=3, n_mixers=2,
        n_entries=6, entry_statements=(8, 18),
    ),
    "large": GeneratorConfig(
        n_structs=4, n_helpers=8, n_getters=4, n_setters=4, n_mixers=3,
        n_entries=14, entry_statements=(14, 30), helper_statements=(2, 6),
    ),
}


@dataclass
class GeneratedProgram:
    """One generated program: provenance, source text, feature histogram."""

    seed: int
    config: GeneratorConfig
    source: str
    features: Dict[str, int] = field(default_factory=dict)

    @property
    def crate_name(self) -> str:
        return self.config.crate_name

    def loc(self) -> int:
        """Non-blank source lines (the same LOC metric Table 1 uses)."""
        return count_loc(self.source)


class _ProgramBuilder:
    """Accumulates one generated program (all rng draws happen in emit order)."""

    def __init__(self, seed: int, config: GeneratorConfig):
        self.seed = seed
        self.config = config
        self.rng = random.Random(seed)
        self.lines: List[str] = []
        self.features: Dict[str, int] = {}
        self.struct_names: List[str] = []
        self.struct_fields: Dict[str, List[str]] = {}
        self.helpers: List[str] = []
        self.getters: List[Tuple[str, str]] = []
        self.setters: List[Tuple[str, str]] = []
        self.mixers: List[Tuple[str, str, str]] = []

    # -- bookkeeping -------------------------------------------------------------

    def emit(self, text: str = "") -> None:
        self.lines.append(text)

    def note(self, feature: str, count: int = 1) -> None:
        self.features[feature] = self.features.get(feature, 0) + count

    # -- items -------------------------------------------------------------------

    def gen_structs(self) -> None:
        for index in range(max(1, self.config.n_structs)):
            name = f"S{index}"
            lo, hi = self.config.struct_fields
            fields = [f"f{i}" for i in range(self.rng.randint(lo, hi))]
            self.struct_names.append(name)
            self.struct_fields[name] = fields
            rendered = ", ".join(f"{fld}: u32" for fld in fields)
            self.emit(f"    struct {name} {{ {rendered} }}")
            self.note("struct_def")
        self.emit()

    def gen_helpers(self) -> None:
        # helper_i may only call helper_j with j < i, so call chains are
        # acyclic and the whole-program recursion always terminates.
        for index in range(self.config.n_helpers):
            name = f"helper_{index}"
            self.emit(f"    fn {name}(a: u32, b: u32) -> u32 {{")
            pool = ["a", "b"]
            lo, hi = self.config.helper_statements
            for stmt_index in range(self.rng.randint(lo, hi)):
                v = f"h{stmt_index}"
                roll = self.rng.random()
                x, y = self.rng.choice(pool), self.rng.choice(pool)
                if roll < 0.3 and self.helpers:
                    callee = self.rng.choice(self.helpers)
                    self.emit(f"        let {v} = {callee}({x}, {y});")
                    self.note("call_local")
                elif roll < 0.45 and self.config.include_extern_crate:
                    self.emit(f"        let {v} = ext_mix({x}, {y});")
                    self.note("call_extern")
                elif roll < 0.65:
                    k = self.rng.randint(2, 9)
                    self.emit(f"        let {v} = if {x} > {k} {{ {y} + {k} }} else {{ {x} * 2 }};")
                    self.note("if_expr")
                else:
                    op = self.rng.choice(["+", "*", "-"])
                    self.emit(f"        let {v} = {x} {op} {y};")
                    self.note("arith")
                pool.append(v)
            self.emit(f"        {self.rng.choice(pool)} + 1")
            self.emit("    }")
            self.emit()
            self.helpers.append(name)

    def gen_accessors(self) -> None:
        for index in range(self.config.n_getters):
            struct = self.rng.choice(self.struct_names)
            fields = self.struct_fields[struct]
            name = f"get_{index}"
            self.getters.append((name, struct))
            self.emit(f"    fn {name}(s: &{struct}) -> u32 {{")
            if self.rng.random() < 0.5 and len(fields) > 1:
                a, b = self.rng.sample(fields, 2)
                self.emit(f"        s.{a} + s.{b}")
            else:
                self.emit(f"        s.{self.rng.choice(fields)}")
            self.emit("    }")
            self.emit()
            self.note("getter")
        for index in range(self.config.n_setters):
            struct = self.rng.choice(self.struct_names)
            fld = self.rng.choice(self.struct_fields[struct])
            name = f"set_{index}"
            self.setters.append((name, struct))
            self.emit(f"    fn {name}(s: &mut {struct}, v: u32) {{")
            if self.rng.random() < 0.4:
                self.emit(f"        if v > {self.rng.randint(3, 40)} {{")
                self.emit(f"            s.{fld} = v;")
                self.emit("        }")
                self.note("branch")
            else:
                self.emit(f"        s.{fld} = v;")
            self.emit("    }")
            self.emit()
            self.note("setter")
        for index in range(self.config.n_mixers):
            src = self.rng.choice(self.struct_names)
            dst = self.rng.choice(self.struct_names)
            src_fld = self.rng.choice(self.struct_fields[src])
            dst_fld = self.rng.choice(self.struct_fields[dst])
            name = f"mix_{index}"
            self.mixers.append((name, src, dst))
            threshold = self.rng.randint(1, 9)
            self.emit(f"    fn {name}(src: &{src}, dst: &mut {dst}, k: u32) -> bool {{")
            self.emit(f"        if k == {threshold} {{")
            self.emit("            return false;")
            self.emit("        }")
            self.emit(f"        dst.{dst_fld} = src.{src_fld} + k;")
            self.emit("        true")
            self.emit("    }")
            self.emit()
            self.note("mixer")

    # -- entry functions -----------------------------------------------------------

    def gen_entries(self) -> None:
        for index in range(max(1, self.config.n_entries)):
            self._gen_entry(index)

    def _gen_entry(self, index: int) -> None:
        rng = self.rng
        params = ["a: u32", "b: u32", "c: bool"]
        shared_struct: Optional[str] = None
        mut_struct: Optional[str] = None
        if rng.random() < self.config.p_shared_ref_param:
            shared_struct = rng.choice(self.struct_names)
            params.append(f"sp: &{shared_struct}")
            self.note("shared_ref_param")
        if rng.random() < self.config.p_mut_ref_param:
            mut_struct = rng.choice(self.struct_names)
            params.append(f"mp: &mut {mut_struct}")
            self.note("mut_ref_param")
        name = f"entry_{index}"
        self.emit(f"    fn {name}({', '.join(params)}) -> u32 {{")

        state = _EntryState(
            scalars=["a", "b"],
            mut_scalars=[],
            bools=["c"],
            shared_struct=shared_struct,
            mut_struct=mut_struct,
        )
        self.emit(f"        let mut acc = a + {rng.randint(1, 9)};")
        state.scalars.append("acc")
        state.mut_scalars.append("acc")

        lo, hi = self.config.entry_statements
        for _ in range(rng.randint(lo, hi)):
            self._gen_statement(state, depth=0)

        tail = rng.choice(state.scalars)
        if rng.random() < 0.5:
            self.emit(f"        acc + {tail}")
        else:
            self.emit(f"        {tail}")
        self.emit("    }")
        self.emit()
        self.note("entry")

    def _gen_statement(self, state: "_EntryState", depth: int, indent: str = "        ") -> None:
        rng = self.rng
        cfg = self.config
        x, y = rng.choice(state.scalars), rng.choice(state.scalars)
        fresh = state.fresh

        weights = [
            ("branch", cfg.p_branch if depth < 2 else 0.0),
            ("loop", cfg.p_loop if depth == 0 else 0.0),
            ("call", cfg.p_call),
            ("extern", cfg.p_extern_call if cfg.include_extern_crate else 0.0),
            ("borrow", cfg.p_borrow),
            ("struct", cfg.p_struct_ops),
            ("tuple", cfg.p_tuple),
            ("early_return", cfg.p_early_return if depth == 0 else 0.0),
            ("arith", 0.25),
            ("bool", 0.08),
        ]
        total = sum(w for _, w in weights)
        roll = rng.random() * total
        kind = weights[-1][0]
        for candidate, weight in weights:
            if roll < weight:
                kind = candidate
                break
            roll -= weight

        if kind == "arith":
            v = fresh("v")
            op = rng.choice(["+", "*", "-", "%", "/"])
            if op in ("%", "/"):
                self.emit(f"{indent}let {v} = {x} {op} {rng.randint(2, 9)};")
                self.note("div_rem")
            else:
                self.emit(f"{indent}let {v} = {x} {op} {y};")
                self.note("arith")
            state.scalars.append(v)
            if state.mut_scalars and rng.random() < 0.4:
                target = rng.choice(state.mut_scalars)
                self.emit(f"{indent}{target} = {target} + {v};")
                self.note("reassign")
        elif kind == "bool":
            p = fresh("p")
            choice = rng.random()
            if choice < 0.4:
                self.emit(f"{indent}let {p} = {x} < {y};")
            elif choice < 0.7 and state.bools:
                q = rng.choice(state.bools)
                self.emit(f"{indent}let {p} = {q} && {x} <= {rng.randint(5, 60)};")
            else:
                q = rng.choice(state.bools)
                self.emit(f"{indent}let {p} = !{q};")
            state.bools.append(p)
            self.note("bool_let")
        elif kind == "branch":
            cond = self._condition(state)
            self.emit(f"{indent}if {cond} {{")
            for _ in range(rng.randint(1, 2)):
                self._gen_statement(state.nested(), depth + 1, indent + "    ")
            if rng.random() < 0.6:
                self.emit(f"{indent}}} else {{")
                for _ in range(rng.randint(1, 2)):
                    self._gen_statement(state.nested(), depth + 1, indent + "    ")
                self.note("if_else")
            self.emit(f"{indent}}}")
            self.note("branch")
        elif kind == "loop":
            i = fresh("i")
            bound = rng.randint(3, 8)
            target = rng.choice(state.mut_scalars) if state.mut_scalars else None
            self.emit(f"{indent}let mut {i} = 0;")
            self.emit(f"{indent}while {i} < {x} % {bound} {{")
            if target is not None:
                self.emit(f"{indent}    {target} = {target} + {i} + {y};")
            self.emit(f"{indent}    {i} = {i} + 1;")
            self.emit(f"{indent}}}")
            state.scalars.append(i)
            self.note("loop")
        elif kind == "call":
            pool: List[Tuple[str, str]] = [("helper", h) for h in self.helpers]
            if state.shared_struct is not None:
                pool.extend(
                    ("getter_param", g) for g, struct in self.getters
                    if struct == state.shared_struct
                )
            if state.mut_struct is not None:
                pool.extend(
                    ("setter_param", s) for s, struct in self.setters
                    if struct == state.mut_struct
                )
            for g, struct in self.getters:
                if struct in state.structs:
                    pool.append(("getter_local:" + struct, g))
            for s, struct in self.setters:
                if struct in state.structs:
                    pool.append(("setter_local:" + struct, s))
            if not pool:
                v = fresh("v")
                self.emit(f"{indent}let {v} = {x} + {y};")
                state.scalars.append(v)
                self.note("arith")
                return
            role, callee = rng.choice(pool)
            if role == "helper":
                v = fresh("hc")
                self.emit(f"{indent}let {v} = {callee}({x}, {y});")
                state.scalars.append(v)
            elif role == "getter_param":
                v = fresh("gp")
                self.emit(f"{indent}let {v} = {callee}(sp) + {x};")
                state.scalars.append(v)
            elif role == "setter_param":
                self.emit(f"{indent}{callee}(mp, {x});")
            elif role.startswith("getter_local:"):
                struct_var = state.structs[role.split(":", 1)[1]]
                v = fresh("gl")
                self.emit(f"{indent}let {v} = {callee}(&{struct_var});")
                state.scalars.append(v)
            else:
                struct_var = state.structs[role.split(":", 1)[1]]
                self.emit(f"{indent}{callee}(&mut {struct_var}, {x});")
            self.note("call_local")
        elif kind == "extern":
            choice = rng.random()
            if choice < 0.4:
                v = fresh("e")
                self.emit(f"{indent}let {v} = ext_mix({x}, {y});")
                state.scalars.append(v)
            elif choice < 0.6:
                v = fresh("e")
                self.emit(f"{indent}let {v} = ext_scale({x}, {rng.randint(1, 7)});")
                state.scalars.append(v)
            elif choice < 0.8:
                v = fresh("e")
                cond = rng.choice(state.bools)
                self.emit(f"{indent}let {v} = ext_pick({cond}, {x}, {y});")
                state.scalars.append(v)
            else:
                p = fresh("ep")
                self.emit(f"{indent}let {p} = ext_probe({x});")
                state.bools.append(p)
            self.note("call_extern")
        elif kind == "borrow":
            if state.mut_scalars and rng.random() < 0.6:
                target = rng.choice(state.mut_scalars)
                r = fresh("rm")
                self.emit(f"{indent}let {r} = &mut {target};")
                self.emit(f"{indent}*{r} = {x} + {rng.randint(1, 9)};")
                self.note("borrow_mut")
                self.note("deref_write")
            else:
                r = fresh("rs")
                v = fresh("d")
                self.emit(f"{indent}let {r} = &{x};")
                self.emit(f"{indent}let {v} = *{r} + {y};")
                state.scalars.append(v)
                self.note("borrow_shared")
                self.note("deref_read")
        elif kind == "struct":
            self._gen_struct_op(state, indent)
        elif kind == "tuple":
            t = fresh("t")
            v = fresh("tv")
            self.emit(f"{indent}let {t} = ({x}, {y});")
            self.emit(f"{indent}let {v} = {t}.0 + {t}.1;")
            state.scalars.append(v)
            self.note("tuple")
        elif kind == "early_return":
            cond = self._condition(state)
            self.emit(f"{indent}if {cond} {{")
            self.emit(f"{indent}    return {x} + {rng.randint(0, 9)};")
            self.emit(f"{indent}}}")
            self.note("early_return")

    def _gen_struct_op(self, state: "_EntryState", indent: str) -> None:
        rng = self.rng
        fresh = state.fresh
        x = rng.choice(state.scalars)
        options = ["new_local"]
        if state.structs:
            options.extend(["local_read", "local_write"])
        if state.shared_struct is not None:
            options.append("param_read")
        if state.mut_struct is not None:
            options.extend(["param_write", "param_read_mut"])
        if self.mixers and state.structs:
            options.append("mixer")
        choice = rng.choice(options)
        if choice == "new_local":
            struct = rng.choice(self.struct_names)
            var = fresh("st")
            literal = self._struct_literal(struct, state)
            self.emit(f"{indent}let mut {var} = {literal};")
            state.structs[struct] = var
            self.note("struct_literal")
        elif choice == "local_read":
            struct = rng.choice(sorted(state.structs))
            var = state.structs[struct]
            fld = rng.choice(self.struct_fields[struct])
            v = fresh("fr")
            self.emit(f"{indent}let {v} = {var}.{fld} + {x};")
            state.scalars.append(v)
            self.note("field_read")
        elif choice == "local_write":
            struct = rng.choice(sorted(state.structs))
            var = state.structs[struct]
            fld = rng.choice(self.struct_fields[struct])
            self.emit(f"{indent}{var}.{fld} = {x};")
            self.note("field_write")
        elif choice == "param_read":
            fld = rng.choice(self.struct_fields[state.shared_struct])
            v = fresh("pr")
            self.emit(f"{indent}let {v} = sp.{fld} + {x};")
            state.scalars.append(v)
            self.note("field_read")
        elif choice == "param_read_mut":
            fld = rng.choice(self.struct_fields[state.mut_struct])
            v = fresh("mr")
            self.emit(f"{indent}let {v} = mp.{fld} + {x};")
            state.scalars.append(v)
            self.note("field_read")
        elif choice == "param_write":
            fld = rng.choice(self.struct_fields[state.mut_struct])
            self.emit(f"{indent}mp.{fld} = {x};")
            self.note("field_write")
        else:  # mixer
            name, src_struct, dst_struct = rng.choice(self.mixers)
            src_literal = self._struct_literal(src_struct, state)
            src_var = fresh("ms")
            dst_var = fresh("md")
            dst_literal = self._struct_literal(dst_struct, state)
            ok = fresh("ok")
            self.emit(f"{indent}let {src_var} = {src_literal};")
            self.emit(f"{indent}let mut {dst_var} = {dst_literal};")
            self.emit(f"{indent}let {ok} = {name}(&{src_var}, &mut {dst_var}, {x});")
            self.emit(f"{indent}if {ok} {{")
            if state.mut_scalars:
                target = rng.choice(state.mut_scalars)
                self.emit(f"{indent}    {target} = {target} + 1;")
            self.emit(f"{indent}}}")
            state.bools.append(ok)
            self.note("mixer_call")

    def _condition(self, state: "_EntryState") -> str:
        rng = self.rng
        if state.bools and rng.random() < 0.5:
            return rng.choice(state.bools)
        x = rng.choice(state.scalars)
        op = rng.choice(["<", ">", "<=", ">=", "==", "!="])
        return f"{x} {op} {rng.randint(0, 50)}"

    def _struct_literal(self, struct: str, state: "_EntryState") -> str:
        parts = []
        for fld in self.struct_fields[struct]:
            if self.rng.random() < 0.5 and state.scalars:
                parts.append(f"{fld}: {self.rng.choice(state.scalars)}")
            else:
                parts.append(f"{fld}: {self.rng.randint(0, 30)}")
        return f"{struct} {{ {', '.join(parts)} }}"

    # -- top level --------------------------------------------------------------------

    def build(self) -> GeneratedProgram:
        header = (
            f"// repro.fuzz generated program (generator v{GENERATOR_VERSION}, "
            f"seed={self.seed})"
        )
        self.emit(header)
        # The fuzzed crate comes first: the parser's local-crate fallback
        # picks the first crate, so an exported .mrs file analyses its
        # generated functions under bare `repro analyze FILE` too.
        self.emit(f"crate {self.config.crate_name} {{")
        self.gen_structs()
        self.gen_helpers()
        self.gen_accessors()
        self.gen_entries()
        self.emit("}")
        if self.config.include_extern_crate:
            self.emit(EXTERN_CRATE)
        source = "\n".join(self.lines) + "\n"
        return GeneratedProgram(
            seed=self.seed,
            config=self.config,
            source=source,
            features=dict(sorted(self.features.items())),
        )


@dataclass
class _EntryState:
    """Per-entry generation pools (ordered lists keep draws deterministic)."""

    scalars: List[str]
    mut_scalars: List[str]
    bools: List[str]
    shared_struct: Optional[str]
    mut_struct: Optional[str]
    structs: Dict[str, str] = field(default_factory=dict)  # struct name -> local var
    counter: List[int] = field(default_factory=lambda: [0])

    def fresh(self, prefix: str) -> str:
        self.counter[0] += 1
        return f"{prefix}{self.counter[0]}"

    def nested(self) -> "_EntryState":
        """The state visible inside a nested block.

        Bindings introduced inside the block must not leak into the outer
        pools (the block scopes them out), but mutations through already
        visible names are fine — so nested statements share the counter and
        the struct map is copied.
        """
        return _EntryState(
            scalars=list(self.scalars),
            mut_scalars=list(self.mut_scalars),
            bools=list(self.bools),
            shared_struct=self.shared_struct,
            mut_struct=self.mut_struct,
            structs=dict(self.structs),
            counter=self.counter,
        )


def generate(seed: int, config: Optional[GeneratorConfig] = None) -> GeneratedProgram:
    """Generate one program (deterministic, byte-identical per seed+config)."""
    return _ProgramBuilder(seed, config or GeneratorConfig()).build()


def generate_program(seed: int, config: Optional[GeneratorConfig] = None) -> GeneratedProgram:
    """Alias of :func:`generate` (the name the corpus sweeps use)."""
    return generate(seed, config)


def generate_source(seed: int, config: Optional[GeneratorConfig] = None) -> str:
    """Generated source text only."""
    return generate(seed, config).source


def profile(size: str, crate_name: Optional[str] = None) -> GeneratorConfig:
    """The named size profile, optionally rebound to another crate name."""
    if size not in SIZE_PROFILES:
        raise KeyError(f"unknown fuzz size profile {size!r} (expected one of "
                       f"{sorted(SIZE_PROFILES)})")
    config = SIZE_PROFILES[size]
    if crate_name is not None:
        config = replace(config, crate_name=crate_name)
    return config
