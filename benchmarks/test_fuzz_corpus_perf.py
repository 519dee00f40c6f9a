"""The fig2 engine comparison over the fuzz-generated corpus.

The template corpus (``repro.eval.corpus``) mirrors the paper's ten crates;
the fuzz corpus (``repro.eval.corpus.generate_fuzz_corpus``) reaches program
shapes the templates never produce — generated call graphs, borrow/deref
chains, dense branching — at whatever scale the seed range allows.  This
benchmark runs the same measurement protocol as the engine-speedup gate on
that workload and archives ``fuzz_engine_speedup.json`` as a CI artifact, so
the substrate's behaviour on adversarial program shapes is trended per
commit alongside the template numbers.

``compare_engines`` asserts bitset/object dependency-size equality while it
measures, so this is also a differential-engine pass over the fuzz corpus.
"""

import os

from bench_utils import write_json_report, write_report

from repro.core.config import MODULAR, WHOLE_PROGRAM
from repro.eval.perf import compare_engines_on_fuzz_corpus, render_engine_report


def _fuzz_bench_count() -> int:
    return int(os.environ.get("REPRO_FUZZ_BENCH_COUNT", "6"))


def test_fuzz_corpus_engine_comparison(report_dir):
    comparisons = [
        compare_engines_on_fuzz_corpus(
            count=_fuzz_bench_count(), seed=0, size="medium", config=config, rounds=2
        )
        for config in (MODULAR, WHOLE_PROGRAM)
    ]

    for comparison in comparisons:
        assert comparison.functions > 0
        # The indexed substrate must not regress on generated shapes; the
        # hard ≥2× gate lives with the template corpus, this one guards
        # against the fuzz workload finding a pathological slowdown.
        assert comparison.speedup >= 1.0, (
            f"bitset engine slower than object on the fuzz corpus "
            f"({comparison.condition}: {comparison.speedup:.2f}x)"
        )

    report = "Fuzz-generated corpus (generate_fuzz_corpus):\n\n"
    report += render_engine_report(comparisons)
    write_report(report_dir, "fuzz_engine_speedup", report)
    write_json_report(
        report_dir,
        "fuzz_engine_speedup",
        {"fuzz_corpus": [cmp.to_json_dict() for cmp in comparisons]},
    )
