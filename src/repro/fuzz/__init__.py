"""``repro.fuzz`` — differential fuzzing and metamorphic testing.

The paper's claim is that modular, ownership-based information flow is sound
and precise across real programs; the rest of this repository tests that
claim against one hand-built corpus and fixed unit tests.  This subsystem
turns scenario diversity into a machine-checked property:

* :mod:`repro.fuzz.generator` — a seeded, grammar-directed random program
  generator producing well-typed multi-function MiniRust programs
  (byte-identical output per seed),
* :mod:`repro.fuzz.oracles` — the metamorphic/differential oracle battery
  run on every generated program (engine equivalence, cache byte-equality,
  interpreter-backed noninterference, focus-table agreement, MIR validity),
* :mod:`repro.fuzz.reduce` — a delta-debugging shrinker that minimises a
  failing program while preserving the oracle verdict,
* :mod:`repro.fuzz.artifact` — the self-contained repro artifact format
  and its replay (``repro fuzz repro ARTIFACT.json``).

The batch runner that drives the battery over a corpus, shrinking each
failure into an artifact, is :mod:`repro.eval.massrun` (``repro eval run``).
"""

from repro.fuzz.generator import (
    SIZE_PROFILES,
    GeneratedProgram,
    GeneratorConfig,
    generate_program,
    generate_source,
)
from repro.fuzz.oracles import (
    DEFAULT_ORACLES,
    OracleVerdict,
    run_battery,
)
from repro.fuzz.reduce import ReductionResult, shrink

__all__ = [
    "DEFAULT_ORACLES",
    "GeneratedProgram",
    "GeneratorConfig",
    "OracleVerdict",
    "ReductionResult",
    "SIZE_PROFILES",
    "generate_program",
    "generate_source",
    "run_battery",
    "shrink",
]
