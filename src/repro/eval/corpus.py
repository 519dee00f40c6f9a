"""Synthetic crate generation: the substituted evaluation dataset.

The paper's dataset (Table 1) is ten real Rust crates totalling ~287k lines.
We cannot compile Rust, so each crate is replaced by a deterministic,
seed-driven MiniRust crate whose *code-style profile* mirrors what the
paper's qualitative analysis (Section 5.3) says drives precision differences:

* **Permission pass-through helpers** (like ``image::crop``): take ``&mut``
  but never write through it — the source of Modular vs Whole-program
  differences.
* **Partially-used inputs** (like nalgebra's
  ``solve_lower_triangular_with_diag_mut``): the return value depends on a
  strict subset of the arguments.
* **Immutable-reference-heavy APIs** (like hyper): many calls take ``&`` —
  the source of Mut-blind differences.
* **Disjoint ``&mut`` parameters** (like rg3d's
  ``link_child_with_parent_component``): distinct lifetimes, same type — the
  source of Ref-blind differences.
* **Crate-boundary calls**: most call chains hit an extern (signature-only)
  dependency, reproducing the 96% boundary-crossing rate of Section 5.4.2.

Each :class:`CrateSpec` controls the mix; :data:`PAPER_CRATE_SPECS` lists ten
profiles named after the paper's crates, scaled down so the whole evaluation
runs in minutes of pure Python rather than hours of rustc.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.lang.ast import Program
from repro.lang.parser import parse_program


# ---------------------------------------------------------------------------
# Crate specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrateSpec:
    """Generation parameters for one synthetic crate."""

    name: str
    seed: int
    # How many functions of each flavour to generate.
    n_structs: int = 4
    n_compute_helpers: int = 6
    n_getters: int = 4
    n_setters: int = 4
    n_passthrough: int = 2
    n_partial: int = 2
    n_disjoint: int = 2
    n_workers: int = 20
    # Worker-body shape.
    worker_statements: Tuple[int, int] = (8, 18)
    # Probability that a call inside a worker targets an extern (dependency
    # crate) function rather than a local helper.
    p_extern_call: float = 0.55
    # Probability that a worker reads data through shared references
    # (immutable-API-heavy crates like hyper set this high).
    p_shared_read: float = 0.5
    # Probability that a worker uses the pass-through/partial helpers
    # (drives Modular vs Whole-program differences).
    p_modularity_sensitive: float = 0.25
    # Probability that a worker manipulates two same-typed &mut references
    # (drives Ref-blind differences).
    p_aliasing_sensitive: float = 0.2
    # Paper-reported metadata used by Table 2 rendering.
    description: str = ""
    features: str = "none"
    commit: str = ""

    def scaled(self, scale: float) -> "CrateSpec":
        """A proportionally smaller/larger version of this spec."""

        def s(value: int, minimum: int = 1) -> int:
            return max(minimum, int(round(value * scale)))

        return replace(
            self,
            n_structs=s(self.n_structs, 2),
            n_compute_helpers=s(self.n_compute_helpers),
            n_getters=s(self.n_getters),
            n_setters=s(self.n_setters),
            n_passthrough=s(self.n_passthrough),
            n_partial=s(self.n_partial),
            n_disjoint=s(self.n_disjoint),
            n_workers=s(self.n_workers, 2),
        )

    def total_functions(self) -> int:
        return (
            self.n_compute_helpers
            + self.n_getters
            + self.n_setters
            + self.n_passthrough
            + self.n_partial
            + self.n_disjoint
            + self.n_workers
        )


#: Ten profiles named after the crates in Table 1.  The knobs are chosen so
#: the *relative* characteristics match the paper's qualitative discussion
#: (hyper is immutable-reference heavy, rg3d has many disjoint &mut pairs,
#: rav1e and RustPython are the largest, etc.).  Sizes are scaled down ~25x.
PAPER_CRATE_SPECS: Tuple[CrateSpec, ...] = (
    CrateSpec(
        name="rayon", seed=101, n_workers=26, n_compute_helpers=8,
        p_extern_call=0.5, p_shared_read=0.45, p_modularity_sensitive=0.2,
        p_aliasing_sensitive=0.15,
        description="Data parallelism library", features="all",
        commit="c571f8ffb4f74c8c09b4e1e6d9979b71b4414d07",
    ),
    CrateSpec(
        name="rocket", seed=102, n_workers=22, n_getters=6,
        p_extern_call=0.6, p_shared_read=0.55, p_modularity_sensitive=0.2,
        p_aliasing_sensitive=0.12,
        description="Web backend framework", features="none",
        commit="8d4d01106e2e10b08100805d40bfa19a7357e900",
    ),
    CrateSpec(
        name="rustls", seed=103, n_workers=28, n_setters=6,
        p_extern_call=0.55, p_shared_read=0.5, p_modularity_sensitive=0.22,
        p_aliasing_sensitive=0.15,
        description="TLS implementation", features="all",
        commit="cdf1dada21a537e141d0c6dde9c5685bb43fbc0e",
    ),
    CrateSpec(
        name="sccache", seed=104, n_workers=30, n_compute_helpers=8,
        p_extern_call=0.65, p_shared_read=0.5, p_modularity_sensitive=0.2,
        p_aliasing_sensitive=0.12,
        description="Distributed build cache", features="none",
        commit="3f318a8675e4c3de4f5e8ab2d086189f2ae5f5cf",
    ),
    CrateSpec(
        name="nalgebra", seed=105, n_workers=34, n_partial=5, n_compute_helpers=10,
        p_extern_call=0.45, p_shared_read=0.45, p_modularity_sensitive=0.3,
        p_aliasing_sensitive=0.15,
        description="Numerics library", features="rand, arbitrary, sparse, debug, io, libm",
        commit="984bb1a63943aa68b6f26ff4a6acf8f68b833b70",
    ),
    CrateSpec(
        name="image", seed=106, n_workers=30, n_passthrough=5,
        p_extern_call=0.5, p_shared_read=0.4, p_modularity_sensitive=0.32,
        p_aliasing_sensitive=0.15,
        description="Image processing library", features="none",
        commit="e916e9dda5f4253f6cc4557b0fe5fa3876ac18e5",
    ),
    CrateSpec(
        name="hyper", seed=107, n_workers=28, n_getters=8,
        p_extern_call=0.6, p_shared_read=0.75, p_modularity_sensitive=0.2,
        p_aliasing_sensitive=0.1,
        description="HTTP server", features="full",
        commit="ed2fdb7b6a2963cea7577df05ddc41c56fee7246",
    ),
    CrateSpec(
        name="rg3d", seed=108, n_workers=44, n_disjoint=6, n_setters=8,
        p_extern_call=0.5, p_shared_read=0.45, p_modularity_sensitive=0.22,
        p_aliasing_sensitive=0.35,
        description="3D game engine", features="all",
        commit="ca7b85f2b30e45b82caee0591ee1abf65bb3eb00",
    ),
    CrateSpec(
        name="rav1e", seed=109, n_workers=48, n_compute_helpers=12,
        worker_statements=(10, 20),
        p_extern_call=0.5, p_shared_read=0.5, p_modularity_sensitive=0.22,
        p_aliasing_sensitive=0.18,
        description="Video encoder", features="none",
        commit="1b6643324752785e7cd6ad0b19257f3c3a9b2c6a",
    ),
    CrateSpec(
        name="rustpython", seed=110, n_workers=52, n_setters=8, n_getters=8,
        p_extern_call=0.6, p_shared_read=0.55, p_modularity_sensitive=0.22,
        p_aliasing_sensitive=0.18,
        description="Python interpreter", features="compiler",
        commit="9143e51b7524a5084d5ed230b1f2f5b0610ac58b",
    ),
)


# ---------------------------------------------------------------------------
# Generated artefacts
# ---------------------------------------------------------------------------


@dataclass
class GeneratedCrate:
    """A generated crate: its spec, source text, and parsed program."""

    spec: CrateSpec
    source: str
    program: Program

    @property
    def name(self) -> str:
        return self.spec.name

    def loc(self) -> int:
        """Non-blank lines of generated source (the Table 1 LOC metric)."""
        return sum(1 for line in self.source.splitlines() if line.strip())


# ---------------------------------------------------------------------------
# Source generation
# ---------------------------------------------------------------------------


_DEP_CRATE_TEMPLATE = """
crate depslib {
    struct Vec;
    struct Buffer;
    struct Reader;
    struct Writer;
    struct Registry;

    extern fn vec_new() -> Vec;
    extern fn vec_push(v: &mut Vec, x: u32);
    extern fn vec_get(v: &Vec, i: u32) -> u32;
    extern fn vec_len(v: &Vec) -> u32;
    extern fn vec_clear(v: &mut Vec);
    extern fn buf_write(b: &mut Buffer, x: u32);
    extern fn buf_peek(b: &Buffer) -> u32;
    extern fn buf_ready(b: &Buffer) -> bool;
    extern fn read_next(r: &mut Reader) -> u32;
    extern fn reader_done(r: &Reader) -> bool;
    extern fn emit(w: &mut Writer, x: u32);
    extern fn flush(w: &mut Writer);
    extern fn registry_lookup(reg: &Registry, key: u32) -> u32;
    extern fn registry_store(reg: &mut Registry, key: u32, value: u32);
    extern fn checksum(a: u32, b: u32) -> u32;
    extern fn clamp(x: u32, low: u32, high: u32) -> u32;
    extern fn log_event(code: u32);
}
"""

# Extern helpers grouped by how they interact with references; the worker
# generator mixes these with local helpers.
_EXTERN_READERS = [
    ("vec_get", "vec", "idx"),
    ("vec_len", "vec", None),
    ("buf_peek", "buf", None),
    ("registry_lookup", "reg", "idx"),
]
_EXTERN_MUTATORS = [
    ("vec_push", "vec", "val"),
    ("buf_write", "buf", "val"),
    ("registry_store", "reg", "key_val"),
    ("emit", "writer", "val"),
]
_EXTERN_PURE = ["checksum", "clamp"]


class _CrateBuilder:
    """Accumulates the generated items of one crate."""

    def __init__(self, spec: CrateSpec):
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.lines: List[str] = []
        self.struct_names: List[str] = []
        self.struct_fields: Dict[str, List[str]] = {}
        # Local helper inventories: (function name, struct it operates on).
        self.compute_helpers: List[str] = []
        self.getters: List[Tuple[str, str]] = []
        self.setters: List[Tuple[str, str]] = []
        self.passthroughs: List[Tuple[str, str]] = []
        self.partials: List[Tuple[str, str]] = []
        self.disjoints: List[Tuple[str, str]] = []
        # Signature-only functions declared in the local crate (other modules
        # or trait objects whose bodies are unavailable): they take shared
        # references, so Mut-blind must assume they mutate their argument.
        self.auditors: List[Tuple[str, str]] = []

    # -- emission helpers -------------------------------------------------------

    def emit(self, text: str = "") -> None:
        self.lines.append(text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"

    # -- structs -------------------------------------------------------------------

    def gen_structs(self) -> None:
        prefix = self.spec.name.capitalize().replace("-", "")
        for index in range(self.spec.n_structs):
            name = f"{prefix}State{index}"
            n_fields = self.rng.randint(2, 4)
            fields = [f"f{fi}" for fi in range(n_fields)]
            self.struct_names.append(name)
            self.struct_fields[name] = fields
            rendered = ", ".join(f"{fld}: u32" for fld in fields)
            self.emit(f"    struct {name} {{ {rendered} }}")
        self.emit()

    def gen_auditors(self) -> None:
        """Signature-only validators over each struct (callee bodies unseen)."""
        for index, struct in enumerate(self.struct_names):
            name = f"{self.spec.name}_audit_{index}"
            self.auditors.append((name, struct))
            self.emit(f"    extern fn {name}(s: &{struct}, code: u32) -> u32;")
        self.emit()

    def _any_struct(self) -> str:
        return self.rng.choice(self.struct_names)

    def _field_of(self, struct: str) -> str:
        return self.rng.choice(self.struct_fields[struct])

    # -- helper functions ----------------------------------------------------------------

    def gen_compute_helpers(self) -> None:
        for index in range(self.spec.n_compute_helpers):
            name = f"{self.spec.name}_compute_{index}"
            self.compute_helpers.append(name)
            op = self.rng.choice(["+", "*", "+", "-"])
            bias = self.rng.randint(1, 9)
            self.emit(f"    fn {name}(a: u32, b: u32) -> u32 {{")
            if self.rng.random() < 0.5:
                self.emit(f"        let mut acc = a {op} b;")
                self.emit(f"        if acc > {bias * 10} {{")
                self.emit(f"            acc = acc - {bias};")
                self.emit("        } else {")
                self.emit(f"            acc = acc + {bias};")
                self.emit("        }")
                self.emit("        acc")
            else:
                self.emit(f"        let mut acc = {bias};")
                self.emit("        let mut i = 0;")
                self.emit(f"        while i < b % {bias + 2} {{")
                self.emit(f"            acc = acc {op} a;")
                self.emit("            i = i + 1;")
                self.emit("        }")
                self.emit("        acc")
            self.emit("    }")
            self.emit()

    def gen_getters(self) -> None:
        for index in range(self.spec.n_getters):
            struct = self._any_struct()
            fld = self._field_of(struct)
            name = f"{self.spec.name}_get_{index}"
            self.getters.append((name, struct))
            self.emit(f"    fn {name}(s: &{struct}) -> u32 {{")
            if self.rng.random() < 0.4:
                other = self._field_of(struct)
                self.emit(f"        s.{fld} + s.{other}")
            else:
                self.emit(f"        s.{fld}")
            self.emit("    }")
            self.emit()

    def gen_setters(self) -> None:
        for index in range(self.spec.n_setters):
            struct = self._any_struct()
            fld = self._field_of(struct)
            name = f"{self.spec.name}_set_{index}"
            self.setters.append((name, struct))
            self.emit(f"    fn {name}(s: &mut {struct}, v: u32) {{")
            if self.rng.random() < 0.4:
                self.emit(f"        if v > {self.rng.randint(2, 40)} {{")
                self.emit(f"            s.{fld} = v;")
                self.emit("        }")
            else:
                self.emit(f"        s.{fld} = v;")
            self.emit("    }")
            self.emit()

    def gen_passthroughs(self) -> None:
        # The image::crop pattern: take &mut, return a mutable view, never
        # actually write.  Modular must assume mutation; Whole-program sees none.
        for index in range(self.spec.n_passthrough):
            struct = self._any_struct()
            fld = self._field_of(struct)
            name = f"{self.spec.name}_view_{index}"
            self.passthroughs.append((name, struct))
            self.emit(f"    fn {name}(s: &mut {struct}) -> &mut u32 {{")
            self.emit(f"        &mut s.{fld}")
            self.emit("    }")
            self.emit()

    def gen_partials(self) -> None:
        # The nalgebra pattern: the returned flag depends only on one scalar
        # argument, not on the references.
        for index in range(self.spec.n_partial):
            struct = self._any_struct()
            fld = self._field_of(struct)
            name = f"{self.spec.name}_try_apply_{index}"
            self.partials.append((name, struct))
            threshold = self.rng.randint(1, 8)
            self.emit(
                f"    fn {name}(src: &{struct}, dst: &mut {struct}, diag: u32) -> bool {{"
            )
            self.emit(f"        if diag == {threshold} {{")
            self.emit("            return false;")
            self.emit("        }")
            self.emit(f"        dst.{fld} = src.{fld} + diag;")
            self.emit("        true")
            self.emit("    }")
            self.emit()

    def gen_disjoints(self) -> None:
        # The rg3d pattern: two &mut of the same type, only one is written.
        for index in range(self.spec.n_disjoint):
            struct = self._any_struct()
            fld = self._field_of(struct)
            name = f"{self.spec.name}_link_{index}"
            self.disjoints.append((name, struct))
            self.emit(
                f"    fn {name}(parent: &mut {struct}, child: &mut {struct}, h: u32) {{"
            )
            self.emit(f"        parent.{fld} = parent.{fld} + h;")
            self.emit("    }")
            self.emit()

    # -- worker functions -------------------------------------------------------------------

    def gen_workers(self) -> None:
        for index in range(self.spec.n_workers):
            self._gen_worker(index)

    def _gen_worker(self, index: int) -> None:
        rng = self.rng
        spec = self.spec
        struct = self._any_struct()
        struct2 = self._any_struct()
        name = f"{spec.name}_work_{index}"

        self.emit(
            f"    fn {name}(seed: u32, limit: u32, state: &mut {struct}, "
            f"config: &{struct2}, vec: &mut Vec, buf: &Buffer) -> u32 {{"
        )
        fields = self.struct_fields[struct]
        fields2 = self.struct_fields[struct2]
        locals_pool = ["seed", "limit"]
        counter = 0

        def fresh(prefix: str = "v") -> str:
            nonlocal counter
            counter += 1
            return f"{prefix}{counter}"

        n_statements = rng.randint(*spec.worker_statements)
        emitted_loop = False

        # A few leading locals so later statements always have operands.
        lead = fresh("acc")
        self.emit(f"        let mut {lead} = seed + {rng.randint(1, 12)};")
        locals_pool.append(lead)
        lead2 = fresh("aux")
        self.emit(f"        let mut {lead2} = limit;")
        locals_pool.append(lead2)

        # Most workers start by probing their inputs through *shared*
        # references (validate the config, peek at the buffer, measure the
        # vector).  Under the Mut-blind ablation each of these calls is
        # assumed to mutate its referent, so every later read through the
        # same reference picks up extra dependencies — this is the
        # ``read_until`` pattern from Section 5.3.2.
        if rng.random() < 0.8:
            v = fresh("probe")
            choice = rng.random()
            getter_candidates = [g for g in self.getters if g[1] == struct2]
            if choice < 0.45 and getter_candidates:
                helper, _ = rng.choice(getter_candidates)
                self.emit(f"        let {v} = {helper}(config) + {lead};")
            elif choice < 0.75:
                self.emit(f"        let {v} = buf_peek(buf) + seed;")
            else:
                self.emit(f"        let {v} = vec_len(vec) + limit;")
            locals_pool.append(v)

        for statement_index in range(n_statements):
            roll = rng.random()
            a = rng.choice(locals_pool)
            b = rng.choice(locals_pool)
            late = statement_index >= n_statements // 2
            if roll < 0.14:
                # Pure local arithmetic.
                v = fresh()
                op = rng.choice(["+", "*", "-", "%"])
                if op == "%":
                    self.emit(f"        let {v} = {a} % ({b} + 1);")
                else:
                    self.emit(f"        let {v} = {a} {op} {b};")
                locals_pool.append(v)
            elif roll < 0.34:
                # Read from references (shared or mutable state); about half
                # the time the read feeds the running accumulator so its
                # dependencies propagate into everything downstream.
                v = fresh("r")
                if rng.random() < spec.p_shared_read:
                    self.emit(f"        let {v} = config.{rng.choice(fields2)} + {a};")
                else:
                    self.emit(f"        let {v} = state.{rng.choice(fields)} + {a};")
                locals_pool.append(v)
                if rng.random() < 0.5:
                    self.emit(f"        {lead} = {lead} + {v};")
            elif roll < 0.44:
                # Call into the dependency crate (a crate-boundary call).
                if rng.random() < 0.5:
                    fn = rng.choice(_EXTERN_PURE)
                    v = fresh("c")
                    if fn == "clamp":
                        self.emit(f"        let {v} = clamp({a}, 1, {b} + 2);")
                    else:
                        self.emit(f"        let {v} = checksum({a}, {b});")
                    locals_pool.append(v)
                else:
                    choice = rng.random()
                    if choice < 0.4:
                        self.emit(f"        vec_push(vec, {a});")
                    elif choice < 0.7:
                        v = fresh("g")
                        self.emit(f"        let {v} = vec_get(vec, {a} % 8);")
                        locals_pool.append(v)
                    else:
                        v = fresh("p")
                        self.emit(f"        let {v} = buf_peek(buf) + {b};")
                        locals_pool.append(v)
            elif roll < 0.44 + spec.p_extern_call * 0.18:
                # Validate the shared config through a signature-only function
                # from another module (the read_until/Fn-callback pattern of
                # Section 5.3.2): only the ownership information in the
                # signature tells the analysis that `config` is not mutated.
                auditors = [aud for aud in self.auditors if aud[1] == struct2]
                if auditors and rng.random() < 0.7:
                    auditor, _ = rng.choice(auditors)
                    v = fresh("audit")
                    self.emit(f"        let {v} = {auditor}(config, {a});")
                    locals_pool.append(v)
                    if rng.random() < 0.5:
                        self.emit(f"        {lead2} = {lead2} + {v};")
                else:
                    self.emit(f"        log_event({a});")
            elif roll < 0.62:
                # Call a local helper; favour simple ones, sometimes the
                # modularity-sensitive ones.  The modularity-sensitive calls
                # are biased to the second half of the body so the places they
                # (spuriously, under Modular) mutate already carry sizeable
                # dependency sets, as in the paper's large functions.
                if late and rng.random() < spec.p_modularity_sensitive and (
                    self.passthroughs or self.partials
                ):
                    if self.partials and rng.random() < 0.5:
                        helper, helper_struct = rng.choice(self.partials)
                        tmp_name = fresh("ok")
                        # Build a fresh local struct of the right type to use
                        # as the shared source argument.  Constant-only fields
                        # keep the spurious (Modular-only) inputs small, as in
                        # the paper's real code where the extra flow is a tiny
                        # fraction of an already-large dependency set.
                        lit = self._struct_literal(helper_struct, [], rng)
                        src_var = fresh("srcs")
                        self.emit(f"        let {src_var} = {lit};")
                        if helper_struct == struct:
                            self.emit(
                                f"        let {tmp_name} = {helper}(&{src_var}, state, {lead});"
                            )
                        else:
                            dst_var = fresh("dsts")
                            self.emit(f"        let mut {dst_var} = {lit};")
                            self.emit(
                                f"        let {tmp_name} = {helper}(&{src_var}, &mut {dst_var}, {lead});"
                            )
                        self.emit(f"        if {tmp_name} {{")
                        self.emit(f"            {lead} = {lead} + 1;")
                        self.emit("        }")
                    elif self.passthroughs:
                        candidates = [p for p in self.passthroughs if p[1] == struct]
                        if candidates:
                            helper, _ = rng.choice(candidates)
                            v = fresh("view")
                            self.emit(f"        let {v} = {helper}(state);")
                            if rng.random() < 0.5:
                                w = fresh("seen")
                                self.emit(f"        let {w} = *{v} + {a};")
                                locals_pool.append(w)
                            else:
                                self.emit(f"        *{v} = {a};")
                        else:
                            self.emit(f"        {lead} = {lead} + {a};")
                elif self.compute_helpers:
                    helper = rng.choice(self.compute_helpers)
                    v = fresh("h")
                    self.emit(f"        let {v} = {helper}({a}, {b});")
                    locals_pool.append(v)
            elif roll < 0.72:
                # Call a local getter/setter on the struct references.
                if rng.random() < 0.5 and self.getters:
                    candidates = [g for g in self.getters if g[1] == struct2]
                    if candidates:
                        helper, _ = rng.choice(candidates)
                        v = fresh("got")
                        self.emit(f"        let {v} = {helper}(config);")
                        locals_pool.append(v)
                    else:
                        v = fresh("got")
                        self.emit(f"        let {v} = config.{rng.choice(fields2)};")
                        locals_pool.append(v)
                elif self.setters:
                    candidates = [s for s in self.setters if s[1] == struct]
                    if candidates:
                        helper, _ = rng.choice(candidates)
                        self.emit(f"        {helper}(state, {a});")
                    else:
                        self.emit(f"        state.{rng.choice(fields)} = {a};")
            elif roll < 0.72 + spec.p_aliasing_sensitive * 0.2:
                # Two same-typed locals passed as disjoint &mut (Ref-blind food).
                if self.disjoints:
                    candidates = [d for d in self.disjoints if d[1] == struct]
                    helper = rng.choice(candidates)[0] if candidates else None
                else:
                    helper = None
                first = fresh("nodea")
                second = fresh("nodeb")
                lit1 = self._struct_literal(struct, locals_pool, rng)
                lit2 = self._struct_literal(struct, locals_pool, rng)
                self.emit(f"        let mut {first} = {lit1};")
                self.emit(f"        let mut {second} = {lit2};")
                if helper is not None:
                    self.emit(f"        {helper}(&mut {first}, &mut {second}, {a});")
                else:
                    self.emit(f"        {first}.{rng.choice(fields)} = {a};")
                v = fresh("chk")
                self.emit(f"        let {v} = {second}.{rng.choice(fields)};")
                locals_pool.append(v)
            elif roll < 0.84:
                # Direct mutation of the &mut state argument.
                fld = rng.choice(fields)
                self.emit(f"        state.{fld} = state.{fld} + {a};")
            elif roll < 0.92 and not emitted_loop:
                # A bounded loop mixing reads and accumulation.
                emitted_loop = True
                i = fresh("i")
                self.emit(f"        let mut {i} = 0;")
                self.emit(f"        while {i} < limit % {rng.randint(3, 9)} {{")
                self.emit(f"            {lead} = {lead} + vec_get(vec, {i});")
                self.emit(f"            {i} = {i} + 1;")
                self.emit("        }")
            else:
                # A branch over a comparison.
                threshold = rng.randint(1, 50)
                fld = rng.choice(fields)
                self.emit(f"        if {a} > {threshold} {{")
                self.emit(f"            {lead2} = {lead2} + {b};")
                self.emit("        } else {")
                self.emit(f"            state.{fld} = {b};")
                self.emit("        }")

        # A trailing read through the shared references: combined with the
        # probe call above, this guarantees the Mut-blind ablation has
        # somewhere to show up even in short workers.
        tail = fresh("tailread")
        self.emit(f"        let {tail} = config.{rng.choice(fields2)} + {lead2};")
        locals_pool.append(tail)

        result = rng.choice([lead, lead2, tail, rng.choice(locals_pool)])
        self.emit(f"        {result} + state.{rng.choice(fields)}")
        self.emit("    }")
        self.emit()

    def _struct_literal(self, struct: str, locals_pool: Sequence[str], rng: random.Random) -> str:
        parts = []
        for fld in self.struct_fields[struct]:
            if rng.random() < 0.5 and locals_pool:
                parts.append(f"{fld}: {rng.choice(list(locals_pool))}")
            else:
                parts.append(f"{fld}: {rng.randint(0, 30)}")
        return f"{struct} {{ {', '.join(parts)} }}"

    # -- top level --------------------------------------------------------------------------------

    def build(self) -> str:
        self.emit(_DEP_CRATE_TEMPLATE.strip())
        self.emit()
        self.emit(f"crate {self.spec.name} {{")
        self.gen_structs()
        self.gen_auditors()
        self.gen_compute_helpers()
        self.gen_getters()
        self.gen_setters()
        self.gen_passthroughs()
        self.gen_partials()
        self.gen_disjoints()
        self.gen_workers()
        self.emit("}")
        return self.source()


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def generate_crate_source(spec: CrateSpec) -> str:
    """Generate MiniRust source text for ``spec`` (deterministic in the seed)."""
    return _CrateBuilder(spec).build()


def generate_crate(spec: CrateSpec) -> GeneratedCrate:
    """Generate and parse one crate (local crate = the spec's name)."""
    source = generate_crate_source(spec)
    program = parse_program(source, local_crate=spec.name)
    return GeneratedCrate(spec=spec, source=source, program=program)


def generate_corpus(
    scale: float = 1.0, specs: Optional[Sequence[CrateSpec]] = None
) -> List[GeneratedCrate]:
    """Generate the full 10-crate corpus (optionally scaled down for tests)."""
    chosen = specs if specs is not None else PAPER_CRATE_SPECS
    return [generate_crate(spec.scaled(scale)) for spec in chosen]


def generate_fuzz_corpus(
    count: int = 6, seed: int = 0, size: str = "medium"
) -> List[GeneratedCrate]:
    """A corpus of :mod:`repro.fuzz` generated crates, template-corpus shaped.

    Each crate is one seeded fuzz program (grammar-directed, feature-diverse)
    wrapped in the :class:`GeneratedCrate` interface, so the differential
    engine tests run over program shapes — deep borrow chains, dense
    branching, generated call graphs — that the hand-built template corpus
    never produces, at any ``count``.
    """
    from repro.fuzz.generator import generate_program, profile

    crates: List[GeneratedCrate] = []
    for index in range(max(0, count)):
        name = f"fuzz{index}"
        program = generate_program(seed + index, profile(size, crate_name=name))
        spec = CrateSpec(
            name=name,
            seed=seed + index,
            description=f"repro.fuzz generated workload (size={size})",
            features="fuzz",
        )
        crates.append(
            GeneratedCrate(
                spec=spec,
                source=program.source,
                program=parse_program(program.source, local_crate=name),
            )
        )
    return crates


# ---------------------------------------------------------------------------
# Corpus ingestion (the mass-evaluation harness's input layer)
# ---------------------------------------------------------------------------

CORPUS_MANIFEST_NAME = "corpus_manifest.json"
CORPUS_MANIFEST_KIND = "repro-eval-corpus"
CORPUS_MANIFEST_VERSION = 1

#: Characters allowed in on-disk artifact names derived from program names.
_SAFE_NAME_RE = re.compile(r"[^A-Za-z0-9._-]+")


def program_digest(source: str) -> str:
    """Content digest of one program: sha256 over the exact UTF-8 bytes.

    Byte-stable by construction — the same source text digests identically
    on every platform and run, which is what makes digests usable as the
    corpus dedup key and as cross-run verdict join keys.
    """
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def safe_artifact_path(root, name: str, suffix: str = "") -> Path:
    """A path for ``name`` strictly inside ``root`` (created idempotently).

    Program names may come from arbitrary ``.mrs`` file stems; a hostile or
    merely odd name (``../evil``, ``a/b``, absolute paths) must never escape
    the user-supplied output root.  Separators and any character outside
    ``[A-Za-z0-9._-]`` are flattened to ``_``, leading dots are stripped (so
    ``..`` cannot survive), and the result is verified to resolve inside
    ``root`` — if it somehow does not, we refuse rather than write.
    """
    directory = Path(root)
    directory.mkdir(parents=True, exist_ok=True)
    flat = _SAFE_NAME_RE.sub("_", str(name).replace("/", "_").replace("\\", "_"))
    flat = flat.lstrip(".") or "program"
    candidate = directory / f"{flat}{suffix}"
    resolved_root = directory.resolve()
    resolved = candidate.resolve()
    if resolved != resolved_root and resolved_root not in resolved.parents:
        raise ReproError(
            f"artifact name {name!r} escapes the output root {str(root)!r}"
        )
    return candidate


@dataclass
class CorpusProgram:
    """One deduplicated corpus member: provenance plus content digest."""

    name: str
    source: str
    digest: str
    origin: str  # "fuzz" | "file:<basename>"
    crate_name: str = "fuzzed"
    seed: int = 0
    features: Optional[Dict[str, int]] = None  # generator histogram, if known

    def loc(self) -> int:
        return sum(1 for line in self.source.splitlines() if line.strip())

    def manifest_entry(self) -> dict:
        return {
            "name": self.name,
            "digest": self.digest,
            "origin": self.origin,
            "crate": self.crate_name,
            "seed": self.seed,
            "loc": self.loc(),
            "features": dict(sorted(self.features.items())) if self.features else None,
        }


@dataclass
class Corpus:
    """A deduplicated program set with an order-independent manifest."""

    programs: List[CorpusProgram]
    duplicates: int = 0

    def __len__(self) -> int:
        return len(self.programs)

    def total_loc(self) -> int:
        return sum(program.loc() for program in self.programs)

    def manifest(self) -> dict:
        """The canonical corpus manifest (sorted by digest, so the same
        *set* of programs yields the same manifest in any ingestion order)."""
        return {
            "kind": CORPUS_MANIFEST_KIND,
            "version": CORPUS_MANIFEST_VERSION,
            "programs": [program.manifest_entry() for program in self.programs],
            "count": len(self.programs),
            "duplicates": self.duplicates,
            "total_loc": self.total_loc(),
        }

    def manifest_digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.manifest(), sort_keys=True).encode("utf-8")
        ).hexdigest()

    def write_manifest(self, directory) -> Path:
        path = safe_artifact_path(directory, CORPUS_MANIFEST_NAME)
        path.write_text(
            json.dumps(self.manifest(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path


def write_corpus_files(programs: Sequence[CorpusProgram], directory) -> None:
    """Write ``programs`` as ``NAME.mrs`` files plus their ``corpus_manifest.json``
    (each program's content digest and feature histogram) — the layout
    :func:`load_corpus_dir` ingests, so an exported fuzz sweep keeps its
    per-feature breakdowns when it is evaluated again as a ``--dir``."""
    corpus = dedup_programs(programs)
    for program in corpus.programs:
        path = safe_artifact_path(directory, program.name, suffix=".mrs")
        path.write_text(program.source, encoding="utf-8")
    corpus.write_manifest(directory)


def dedup_programs(programs: Iterable[CorpusProgram]) -> Corpus:
    """Deduplicate by content digest, order-independently.

    When the same bytes arrive under several names, the representative is
    the one with the lexicographically smallest ``(name, origin)`` — so any
    permutation of the same input set produces an identical corpus.
    """
    by_digest: Dict[str, CorpusProgram] = {}
    duplicates = 0
    for program in programs:
        existing = by_digest.get(program.digest)
        if existing is None:
            by_digest[program.digest] = program
            continue
        duplicates += 1
        if (program.name, program.origin) < (existing.name, existing.origin):
            # Keep the richer feature histogram regardless of which name wins.
            if program.features is None and existing.features is not None:
                program = replace_features(program, existing.features)
            by_digest[program.digest] = program
        elif existing.features is None and program.features is not None:
            by_digest[program.digest] = replace_features(existing, program.features)
    ordered = sorted(by_digest.values(), key=lambda p: p.digest)
    return Corpus(programs=ordered, duplicates=duplicates)


def replace_features(program: CorpusProgram, features: Dict[str, int]) -> CorpusProgram:
    return CorpusProgram(
        name=program.name,
        source=program.source,
        digest=program.digest,
        origin=program.origin,
        crate_name=program.crate_name,
        seed=program.seed,
        features=dict(features),
    )


def fuzz_sweep_programs(
    count: int, seed: int = 0, size: str = "small"
) -> List[CorpusProgram]:
    """A seed sweep of :mod:`repro.fuzz` generated programs as corpus members."""
    from repro.fuzz.generator import generate_program, profile

    config = profile(size)
    out: List[CorpusProgram] = []
    for index in range(max(0, count)):
        generated = generate_program(seed + index, config)
        out.append(
            CorpusProgram(
                name=f"fuzz_{size}_seed{generated.seed}",
                source=generated.source,
                digest=program_digest(generated.source),
                origin="fuzz",
                crate_name=config.crate_name,
                seed=generated.seed,
                features=dict(generated.features),
            )
        )
    return out


def load_corpus_dir(directory, crate_name: str = "fuzzed") -> List[CorpusProgram]:
    """Ingest every ``*.mrs`` file under ``directory`` (sorted, recursive).

    If a ``corpus_manifest.json`` sits alongside (as written by
    ``repro eval run --export-corpus`` and into every ``--out-dir``), its
    per-digest feature histograms and seeds are re-attached — matching on
    content digest, so a stale manifest can never mislabel a program.
    """
    root = Path(directory)
    if not root.is_dir():
        raise ReproError(f"corpus directory {str(directory)!r} does not exist")
    by_digest: Dict[str, dict] = {}
    manifest_path = root / CORPUS_MANIFEST_NAME
    if manifest_path.is_file():
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            for entry in manifest.get("programs", []):
                if isinstance(entry, dict) and entry.get("digest"):
                    by_digest[entry["digest"]] = entry
        except (ValueError, OSError):
            by_digest = {}  # a corrupt manifest only costs the histograms
    out: List[CorpusProgram] = []
    for path in sorted(root.rglob("*.mrs")):
        source = path.read_text(encoding="utf-8")
        digest = program_digest(source)
        entry = by_digest.get(digest, {})
        out.append(
            CorpusProgram(
                name=path.stem,
                source=source,
                digest=digest,
                origin=f"file:{path.name}",
                crate_name=entry.get("crate", crate_name),
                seed=int(entry.get("seed", 0)),
                features=entry.get("features") or None,
            )
        )
    return out


def ingest_corpus(
    count: int = 0,
    seed: int = 0,
    size: str = "small",
    dirs: Sequence = (),
) -> Corpus:
    """The mass-evaluation input pipeline: fuzz sweep + committed directories,
    deduplicated by content digest into one canonical corpus."""
    programs = fuzz_sweep_programs(count, seed=seed, size=size)
    for directory in dirs:
        programs.extend(load_corpus_dir(directory))
    return dedup_programs(programs)
