"""Gate a change on perfbench's end-to-end bounds, measured against its parent.

Usage, from the root of the change's checkout::

    python3 .github/scripts/perfbench_gate.py PARENT_DIR

PARENT_DIR is a checkout of the parent commit, for example one made with
``git worktree add``.  The benchmark command, run length, workloads and
end-to-end bounds come from the change's BENCHMARK.json.  Every workload
runs in PAIRS pairs of parent and change runs, alternating which side goes
first, so that both sides see the same stretch of machine time.  Each run
uses the benchmark's default seed, whose expected answers are committed.

Exit status 1 means one of: a run exited non-zero; the change failed a
larger share of its ops than the parent; or a change median is worse than
the parent median by more than the metric's bound.  Standard library only,
and Python 3.9 compatible, so it runs before anything is installed.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 5
SIDES = ("parent", "change")


def run(directory, command, workload, seconds):
    """One benchmark run; its last stdout line, parsed, or None if it failed."""
    argv = list(command) + ["--workload", workload, "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=str(directory), stdout=subprocess.PIPE,
                          universal_newlines=True)
    if proc.returncode != 0:
        print(proc.stdout)
        print(f"error: `{' '.join(argv)}` in {directory} exited {proc.returncode}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def judge(workload, results, end_to_end):
    """Print the workload's table; returns True when the change fails the gate."""
    failed = False
    print(f"\n{workload} ({PAIRS} pairs, medians)")
    print(f"  {'metric':<18} {'parent':>10} {'change':>10} {'ratio':>7} {'bound':>7}  verdict")
    share = {
        side: sum(r["failed"] for r in results[side])
        / sum(r["attempted"] for r in results[side])
        for side in SIDES
    }
    verdict = "FAIL" if share["change"] > share["parent"] else "ok"
    failed |= verdict == "FAIL"
    print(f"  {'failed_share':<18} {share['parent']:>10.4f} {share['change']:>10.4f} "
          f"{'-':>7} {'parent':>7}  {verdict}")
    for metric in end_to_end:
        name = metric["name"]
        parent, change = (
            statistics.median(r["metrics"][name]["value"] for r in results[side])
            for side in SIDES
        )
        ratio = change / parent
        worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
        verdict = "FAIL" if worse > metric["bound"] else "ok"
        failed |= verdict == "FAIL"
        print(f"  {name:<18} {parent:>10.4f} {change:>10.4f} {ratio:>7.3f} "
              f"{metric['bound']:>7.2f}  {verdict}")
    return failed


def main(argv):
    if len(argv) != 2:
        print(__doc__)
        return 2
    dirs = {"parent": Path(argv[1]).resolve(), "change": Path.cwd()}
    spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    failed = False
    for workload in (entry["name"] for entry in spec["workloads"]):
        results = {side: [] for side in SIDES}
        for pair in range(PAIRS):
            for side in SIDES if pair % 2 == 0 else reversed(SIDES):
                print(f"{workload} pair {pair + 1}/{PAIRS}: {side}", flush=True)
                result = run(dirs[side], spec["command"], workload, spec["run_seconds"])
                if result is None:
                    return 1
                results[side].append(result)
        failed |= judge(workload, results, spec["end_to_end"])
    print("\nperfbench gate: " + ("FAILED" if failed else "ok"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
