"""Repro artifacts: the one on-disk format for an oracle failure, and replay.

``repro eval run`` shrinks every program that fails the oracle battery and
writes it as a self-contained ``repro-fuzz-artifact`` (version 1) JSON file
under ``OUT_DIR/failures/``; ``repro fuzz repro ARTIFACT.json`` re-runs the
recorded oracle on the stored program.  This module is the only code that
knows the format, so every artifact ever written keeps replaying.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from repro.errors import ReproError
from repro.fuzz.generator import GENERATOR_VERSION, count_loc
from repro.fuzz.oracles import OracleVerdict, run_battery

ARTIFACT_KIND = "repro-fuzz-artifact"
ARTIFACT_VERSION = 1


def write_repro_artifact(
    directory,
    *,
    name: str,
    seed: int,
    oracle: str,
    detail: str,
    source: str,
    size: str = "small",
    crate_name: str = "fuzzed",
    original_loc: Optional[int] = None,
    generator_config: Optional[dict] = None,
    reduction: Optional[dict] = None,
) -> str:
    """Write one self-contained repro artifact as ``NAME.json``; returns its path.

    ``source`` is the program to replay (the shrunk one, when shrinking
    ran), and ``reduction`` the shrinker's statistics.  The file name is
    routed through the path-traversal guard: artifact names derived from
    corpus program names can never escape ``directory``.
    """
    from repro.eval.corpus import safe_artifact_path

    artifact = {
        "kind": ARTIFACT_KIND,
        "version": ARTIFACT_VERSION,
        "generator_version": GENERATOR_VERSION,
        "seed": seed,
        "size": size,
        "crate_name": crate_name,
        "oracle": oracle,
        "detail": detail,
        "source": source,
        "original_loc": original_loc if original_loc is not None else count_loc(source),
    }
    if generator_config is not None:
        artifact["generator_config"] = generator_config
    if reduction is not None:
        artifact["reduction"] = reduction
    path = safe_artifact_path(directory, name, suffix=".json")
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Artifact replay (``repro fuzz repro``)
# ---------------------------------------------------------------------------


@dataclass
class ReplayOutcome:
    """The result of replaying a repro artifact."""

    artifact: dict
    verdicts: List[OracleVerdict]
    reproduced: bool


def load_artifact(path) -> dict:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if data.get("kind") != ARTIFACT_KIND:
        raise ReproError(
            f"{path} is not a repro fuzz artifact (kind={data.get('kind')!r})"
        )
    return data


def replay_artifact(path) -> ReplayOutcome:
    """Re-run the recorded oracle on the artifact's (shrunk) program."""
    artifact = load_artifact(path)
    oracle = artifact["oracle"]
    expected_kind = str(artifact.get("detail", "")).split(":", 1)[0]
    verdicts = run_battery(
        artifact["source"],
        crate_name=artifact.get("crate_name", "fuzzed"),
        oracles=[oracle],
        seed=int(artifact.get("seed", 0)),
    )
    reproduced = any(
        not verdict.ok
        and verdict.oracle == oracle
        and (not expected_kind or verdict.kind() == expected_kind)
        for verdict in verdicts
    )
    return ReplayOutcome(artifact=artifact, verdicts=verdicts, reproduced=reproduced)
