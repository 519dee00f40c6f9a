"""Pipeline benchmark: cold_batch, edit_focus and warm_focus through AnalysisSession.

Usage (from the repository root)::

    python3 perfbench/run.py --workload edit_focus --seed 3 --seconds 15 --trace 0

One process, one client, a closed loop with no extra threads.  Inputs come
from ``perfbench/gen.py`` (run in a child process and cached under
``.perfbench/inputs``), so the timed process holds only strings and digests.
Every op's answer is checked against its expected digest.  The last line of
standard output is one JSON object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a separate traced pass
(its Chrome trace goes to ``.perfbench/traces``).  See DESIGN.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
for _path in (str(HERE), str(SRC)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from measure import beyond, median, percentile, probe, slowdown, speed_factor  # noqa: E402

DEFAULT_SECONDS = 15
# Ops per measured second on the reference VM; the op count depends only on
# ``--seconds``, never on the clock, so every run has the same shape.
# edit_focus runs whole rounds and needs 100 ops for 10 samples beyond p90:
# 6.9 × 15 s = 8 rounds of 13 ops, about 20 s at reference speed.
OPS_PER_SECOND = {"cold_batch": 10.0, "edit_focus": 6.9, "warm_focus": 200.0}
TINY_OPS = {"cold_batch": 8, "edit_focus": 8, "warm_focus": 40}
# Timed speed-probe runs after each op, and before and after each set-up.
PROBES_PER_OP = {"cold_batch": 4, "edit_focus": 4, "warm_focus": 1}
SETUP_PROBES = 16


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold_batch", "edit_focus", "warm_focus"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the self-tests")
    parser.add_argument("--emit-inputs", metavar="PATH",
                        help="generate the run's inputs into PATH and exit")
    parser.add_argument("--write-expected", action="store_true",
                        help="commit the referee digests of this run's inputs "
                             "as the default seed's expected answers")
    return parser.parse_args(argv)


def op_count(workload: str, seconds: float, size: str) -> int:
    if size == "tiny":
        return TINY_OPS[workload]
    return max(100, math.ceil(OPS_PER_SECOND[workload] * seconds))


def code_digest() -> str:
    """Digest of everything generated inputs depend on."""
    hasher = hashlib.sha256()
    files = [HERE / "gen.py", HERE / "ops.py"] + sorted(HERE.glob("expected/*.json"))
    files += sorted(SRC.glob("repro/**/*.py"))
    for path in files:
        hasher.update(str(path.relative_to(ROOT)).encode("utf-8"))
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:12]


def load_inputs(args, n_ops: int) -> dict:
    """The run's inputs, generated in a child process on first use."""
    name = f"{args.workload}-s{args.seed}-{args.size}-n{n_ops}-{code_digest()}.json"
    path = WORK_DIR / "inputs" / name
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.with_suffix(f".{os.getpid()}.tmp")
        command = [
            sys.executable, str(Path(__file__).resolve()), "--emit-inputs", str(partial),
            "--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size, "--seconds", str(args.seconds),
        ]
        subprocess.run(command, check=True, timeout=170)
        os.replace(partial, path)
    return json.loads(path.read_text(encoding="utf-8"))


# -- measurement -----------------------------------------------------------------


class PassResult:
    def __init__(self) -> None:
        self.latencies = []  # raw seconds, op order
        self.probes = []  # speed-probe durations after the ops
        self.setups = []  # (raw seconds, probe durations around that set-up)
        self.attempted = 0
        self.failed = 0
        self.live_objects_end = 0

    def normalised(self):
        factor = speed_factor(self.probes)
        return [raw / factor for raw in self.latencies]

    def setup_s(self) -> float:
        """Median set-up time, each set-up scaled by the probes around it
        (set-ups run before the ops, when the VM's speed may differ)."""
        return median([raw / speed_factor(probes) for raw, probes in self.setups])


def run_pass(workload, tracer=None, setup_reps=None) -> PassResult:
    """Set up and time every op of ``workload`` once, checking each answer."""
    from ops import answer_digest

    result = PassResult()
    per_op = PROBES_PER_OP[workload.name]
    errors_shown = 0
    index = 0
    state = None
    for round_ops in workload.rounds():
        for _ in range(setup_reps or workload.setup_reps):
            state = None
            gc.collect()
            around = []
            probe(around, SETUP_PROBES)
            started = time.perf_counter()
            state = workload.setup()
            elapsed = time.perf_counter() - started
            probe(around, SETUP_PROBES)
            result.setups.append((elapsed, around))
        gc.collect()
        for op_index in round_ops:
            op = workload.ops[op_index]
            prepared = workload.prepare(op)
            answer = None
            if tracer is not None:
                tracer.begin_op(index)
            started = time.perf_counter()
            try:
                answer = workload.run(state, prepared)
            except Exception:  # an op that raises counts as failed; keep going
                if errors_shown < 3:
                    traceback.print_exc(file=sys.stderr)
                    errors_shown += 1
            elapsed = time.perf_counter() - started
            if tracer is not None:
                tracer.end_op()
            result.attempted += 1
            if answer is None or answer_digest(answer) != workload.expected(op):
                result.failed += 1
            result.latencies.append(elapsed)
            probe(result.probes, per_op)
            index += 1
    if tracer is not None:
        result.live_objects_end = len(gc.get_objects())
    state = None
    return result


def end_to_end(result: PassResult) -> dict:
    norm = result.normalised()
    return {
        "setup_s": (result.setup_s(), "s"),
        "latency_p50_ms": (percentile(norm, 0.5) * 1000.0, "ms"),
        "latency_p90_ms": (percentile(norm, 0.9) * 1000.0, "ms"),
        "throughput_ops_s": (len(norm) / sum(norm), "ops/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def print_summary(workload: str, result: PassResult, metrics: dict) -> None:
    raw = result.latencies
    print(f"workload {workload}: {len(raw)} ops, {len(result.setups)} set-ups, "
          f"{beyond(raw, 0.9)} samples beyond p90")
    print(f"  times are reference-speed: wall time / {speed_factor(result.probes):.3f} "
          f"(probe slow-down {slowdown(result.probes):.3f})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<18} {value:>12.4f} {unit}")
    print(f"  {'error_rate':<18} {result.failed / max(1, result.attempted):>12.4f} "
          f"({result.failed} of {result.attempted} ops failed)")
    print(f"  raw wall: setup_s {median([raw for raw, _ in result.setups]):.4f}, "
          f"p50 {percentile(raw, 0.5) * 1000:.3f} ms, p90 {percentile(raw, 0.9) * 1000:.3f} ms, "
          f"{len(raw) / sum(raw):.3f} ops/s")


def print_layers(metrics: dict) -> None:
    from tracing import COUNTS, LAYERS

    print(f"  {'layer':<26} {'self_ms/op':>11} {'calls/op':>10} {'share':>7}")
    for layer in sorted(LAYERS, key=lambda name: -metrics[f"{name}.share"][0]):
        print(f"  {layer:<26} {metrics[f'{layer}.self_ms'][0]:>11.3f} "
              f"{metrics[f'{layer}.calls'][0]:>10.2f} {metrics[f'{layer}.share'][0]:>7.3f}")
    for name in COUNTS:
        value, unit = metrics[name]
        print(f"  {name:<30} {value:>12.4f} {unit}")


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing makes set iteration, and with it allocation
        # and collection order, identical from run to run.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())]
                  + sys.argv[1:], env)
    if not (SRC / "repro" / "service" / "session.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    import gen
    from ops import WORKLOADS

    n_ops = op_count(args.workload, args.seconds, args.size)
    if args.emit_inputs:
        inputs = gen.generate(args.workload, args.seed, n_ops, args.size)
        Path(args.emit_inputs).write_text(json.dumps(inputs), encoding="utf-8")
        return 0
    if args.write_expected:
        inputs = gen.generate(args.workload, gen.DEFAULT_SEED, n_ops, args.size)
        print(gen.write_expected(args.workload, inputs))
        return 0

    inputs = load_inputs(args, n_ops)
    workload = WORKLOADS[args.workload](inputs)
    del inputs
    if not args.trace:
        result = run_pass(workload)
        metrics = end_to_end(result)
        print_summary(args.workload, result, metrics)
        emit(result.failed == 0, result.attempted, result.failed, metrics)
        return 0

    from tracing import LayerTracer

    untraced = run_pass(workload)
    tracer = LayerTracer()
    tracer.install()
    try:
        traced = run_pass(workload, tracer=tracer, setup_reps=1)
    finally:
        tracer.uninstall()
    overhead = sum(traced.normalised()) / sum(untraced.normalised())
    metrics = tracer.metrics(traced.live_objects_end, overhead)
    print_summary(args.workload, untraced, end_to_end(untraced))
    print_layers(metrics)
    trace_path = WORK_DIR / "traces" / f"{args.workload}-s{args.seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(tracer.chrome_trace()), encoding="utf-8")
    print(f"  chrome trace: {trace_path.relative_to(ROOT)}")
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    emit(failed == 0, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
