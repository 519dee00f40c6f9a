"""Corpus ingestion properties: digests, dedup, and the path-traversal guard.

The mass-evaluation harness is only trustworthy if its corpus layer is:
digests must be byte-stable across runs (they key dedup, manifests, and
cross-run program identity), dedup must be order-independent (the same set
of ``.mrs`` files in any order yields the identical manifest), and every
program-derived file name must land inside the output root it was given.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.errors import ReproError
from repro.eval.corpus import (
    CORPUS_MANIFEST_NAME,
    Corpus,
    CorpusProgram,
    dedup_programs,
    fuzz_sweep_programs,
    ingest_corpus,
    load_corpus_dir,
    program_digest,
    safe_artifact_path,
)

# ---------------------------------------------------------------------------
# Digest stability
# ---------------------------------------------------------------------------


def test_program_digest_byte_stable_across_runs():
    source = "fn main() { let x = 1; }\n"
    assert program_digest(source) == program_digest(source)
    # Known-answer: the digest is plain sha256 over UTF-8 bytes, so it can
    # never drift without a deliberate format break.
    import hashlib

    assert program_digest(source) == hashlib.sha256(source.encode("utf-8")).hexdigest()


def test_program_digest_distinguishes_whitespace():
    assert program_digest("fn main() {}\n") != program_digest("fn main() {}")


def test_fuzz_sweep_digests_stable_across_processes_equivalent():
    # Two independent sweeps over the same (seed, size) are byte-identical,
    # so their digests agree program-for-program.
    first = fuzz_sweep_programs(5, seed=3)
    second = fuzz_sweep_programs(5, seed=3)
    assert [p.digest for p in first] == [p.digest for p in second]
    assert all(p.digest == program_digest(p.source) for p in first)


# ---------------------------------------------------------------------------
# Order-independent dedup
# ---------------------------------------------------------------------------


def _member(name, source, origin="dir", **kwargs):
    return CorpusProgram(
        name=name,
        source=source,
        digest=program_digest(source),
        origin=origin,
        **kwargs,
    )


def test_dedup_is_order_independent():
    members = [
        _member(f"prog_{i}", f"fn main() {{ let x = {i}; }}\n") for i in range(8)
    ]
    members.append(_member("dup_a", members[0].source))
    members.append(_member("dup_b", members[3].source))
    baseline = dedup_programs(list(members)).manifest()
    rng = random.Random(0)
    for _ in range(10):
        shuffled = list(members)
        rng.shuffle(shuffled)
        assert dedup_programs(shuffled).manifest() == baseline


def test_dedup_counts_duplicates_and_keeps_canonical_representative():
    a = _member("zeta", "fn main() { }\n")
    b = _member("alpha", "fn main() { }\n")
    corpus = dedup_programs([a, b])
    assert len(corpus) == 1
    assert corpus.duplicates == 1
    # Representative choice is content-determined, not input-order-determined.
    assert corpus.programs[0].name == "alpha"
    assert dedup_programs([b, a]).manifest() == corpus.manifest()


def test_corpus_dir_manifest_identical_for_any_write_order(tmp_path):
    programs = fuzz_sweep_programs(6, seed=0)
    orders = [list(programs), list(reversed(programs))]
    manifests = []
    for index, order in enumerate(orders):
        root = tmp_path / f"corpus_{index}"
        root.mkdir()
        for program in order:
            (root / f"{program.name}.mrs").write_text(
                program.source, encoding="utf-8"
            )
        manifests.append(dedup_programs(load_corpus_dir(root)).manifest())
    # Names/digests/features identical regardless of on-disk creation order.
    assert manifests[0] == manifests[1]


def test_manifest_digest_tracks_content():
    corpus_a = dedup_programs(fuzz_sweep_programs(4, seed=0))
    corpus_b = dedup_programs(fuzz_sweep_programs(4, seed=0))
    corpus_c = dedup_programs(fuzz_sweep_programs(4, seed=1))
    assert corpus_a.manifest_digest() == corpus_b.manifest_digest()
    assert corpus_a.manifest_digest() != corpus_c.manifest_digest()


# ---------------------------------------------------------------------------
# Directory ingestion + manifest round-trip
# ---------------------------------------------------------------------------


def test_load_corpus_dir_reattaches_manifest_features(tmp_path):
    programs = fuzz_sweep_programs(3, seed=0)
    corpus = dedup_programs(programs)
    for program in programs:
        (tmp_path / f"{program.name}.mrs").write_text(
            program.source, encoding="utf-8"
        )
    corpus.write_manifest(tmp_path)
    loaded = load_corpus_dir(tmp_path)
    by_digest = {p.digest: p for p in loaded}
    for program in programs:
        assert by_digest[program.digest].features == program.features
        assert by_digest[program.digest].seed == program.seed


def test_load_corpus_dir_tolerates_corrupt_manifest(tmp_path):
    (tmp_path / "ok.mrs").write_text("fn main() { }\n", encoding="utf-8")
    (tmp_path / CORPUS_MANIFEST_NAME).write_text("{not json", encoding="utf-8")
    loaded = load_corpus_dir(tmp_path)
    assert len(loaded) == 1
    assert loaded[0].features in (None, {})


def test_load_corpus_dir_missing_directory_raises(tmp_path):
    with pytest.raises(ReproError):
        load_corpus_dir(tmp_path / "nope")


def test_ingest_corpus_merges_sweep_and_dirs(tmp_path):
    programs = fuzz_sweep_programs(2, seed=0)
    for program in programs:
        (tmp_path / f"{program.name}.mrs").write_text(
            program.source, encoding="utf-8"
        )
    (tmp_path / "extra.mrs").write_text(
        "fn main() { let q = 7; }\n", encoding="utf-8"
    )
    merged = ingest_corpus(count=2, seed=0, dirs=[tmp_path])
    # Sweep programs duplicate the on-disk copies; only the extra survives
    # alongside the two unique bodies.
    assert len(merged) == 3
    assert merged.duplicates == 2


def test_write_manifest_round_trips_as_json(tmp_path):
    corpus = dedup_programs(fuzz_sweep_programs(3, seed=0))
    path = corpus.write_manifest(tmp_path)
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["kind"] == "repro-eval-corpus"
    assert data["count"] == 3
    assert [entry["digest"] for entry in data["programs"]] == [
        p.digest for p in corpus.programs
    ]


# ---------------------------------------------------------------------------
# Output-root containment (the path-traversal guard)
# ---------------------------------------------------------------------------


def test_safe_artifact_path_creates_root_idempotently(tmp_path):
    root = tmp_path / "a" / "b"
    first = safe_artifact_path(root, "report", suffix=".json")
    second = safe_artifact_path(root, "report", suffix=".json")
    assert first == second
    assert root.is_dir()


def test_safe_artifact_path_flattens_separators_and_dotdot(tmp_path):
    for hostile in ("../evil", "../../etc/passwd", "a/b/../c", "..\\evil"):
        path = safe_artifact_path(tmp_path, hostile, suffix=".json")
        assert path.resolve().is_relative_to(tmp_path.resolve())
        assert "/" not in path.name and "\\" not in path.name
        assert not path.name.startswith(".")


def test_safe_artifact_path_never_escapes_root_via_absolute_name(tmp_path):
    path = safe_artifact_path(tmp_path, "/etc/passwd", suffix=".json")
    assert path.resolve().is_relative_to(tmp_path.resolve())


def test_hostile_program_name_lands_inside_out_dir(tmp_path):
    # The end-to-end version of the guard: a corpus member whose *name*
    # attempts traversal still writes its failure artifact under out_dir.
    from repro.fuzz.artifact import write_repro_artifact

    artifact = write_repro_artifact(
        tmp_path / "failures",
        seed=0,
        oracle="validate",
        detail="x",
        source="fn main() { }\n",
        name="../../escape",
    )
    import pathlib

    assert pathlib.Path(artifact).resolve().is_relative_to(tmp_path.resolve())
