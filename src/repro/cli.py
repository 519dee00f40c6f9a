"""Command-line interface for the reproduction.

Mirrors how Flowistry is driven in practice (a cargo subcommand plus an IDE
extension) with a small set of subcommands over MiniRust source files:

* ``repro mir FILE [--function NAME]`` — print the lowered MIR,
* ``repro analyze FILE [--function NAME] [--whole-program|--mut-blind|--ref-blind]``
  — print Figure-1 style Θ annotations and per-variable dependency sizes,
* ``repro slice FILE --function NAME --variable VAR [--forward]`` — print a
  slice rendered against the source,
* ``repro stats FILE [--function NAME]`` — per-function interning-table
  sizes, exit-Θ bitset density, and fixpoint iteration counts (debugging
  aid for the indexed dataflow substrate),
* ``repro ifc FILE --secret-type T ... --sink F ...`` — run the IFC checker,
* ``repro eval run [--count K --seed N --dir DIR --workers W --gate]`` — run
  a corpus (a seeded fuzz sweep and/or ``.mrs`` directories) through the
  five-oracle battery, shrinking each failure to a minimal repro artifact
  (exit 1 on any failure); ``repro eval report REPORT.json`` re-renders the
  aggregate report,
* ``repro fuzz repro ART.json`` — replay a repro artifact,
* ``repro corpus [--scale S] [--crate NAME]`` — generate the evaluation corpus,
* ``repro experiment [--scale S]`` — run the Section 5 experiment and print
  the headline comparison,
* ``repro focus FILE --line L --col C [--direction fwd|bwd|both]`` — resolve a
  cursor to its enclosing place and print span-precise forward/backward
  information-flow highlights (the paper's IDE "focus mode"),
* ``repro serve [FILE]`` — run the incremental analysis service: line-delimited
  JSON requests on stdin (or ``--input``), one JSON response per line;
  ``--port`` runs the **concurrent socket server** (the same protocol,
  thread-pool connection handling, shared RW-locked sessions) with
  ``--workers`` and ``--persist-dir`` for durable workspaces,
* ``repro workspace save|load|list`` — persist an analysis workspace to disk
  (manifest + warm cache tier) and restore or inspect it later,
* ``repro query FILE`` — one-shot service query (``analyze``/``slice``/
  ``focus``/``ifc``/``stats``); ``--repeat`` demonstrates warm-cache hits,
* ``repro version`` (or ``repro --version``) — the package version, as also
  reported in the server hello message.

The CLI is intentionally thin: every subcommand is a few lines over the
public library API, and each handler returns an exit code so it can be tested
without spawning processes.  ``docs/PROTOCOL.md`` documents the wire
protocols; ``docs/ARCHITECTURE.md`` maps the layers.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.apps.ifc import IfcChecker, IfcPolicy, render_report
from repro.apps.slicer import ProgramSlicer
from repro.core.config import AnalysisConfig
from repro.core.engine import FlowEngine
from repro.errors import ReproError
from repro.mir.pretty import pretty_body
from repro.version import __version__


def _config_from_args(args: argparse.Namespace) -> AnalysisConfig:
    return AnalysisConfig(
        whole_program=getattr(args, "whole_program", False),
        mut_blind=getattr(args, "mut_blind", False),
        ref_blind=getattr(args, "ref_blind", False),
    )


def _read_source(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _add_condition_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--whole-program",
        action="store_true",
        help="recurse into callee bodies within the crate (evaluation condition)",
    )
    parser.add_argument(
        "--mut-blind",
        action="store_true",
        help="ablation: ignore mutability qualifiers on references",
    )
    parser.add_argument(
        "--ref-blind",
        action="store_true",
        help="ablation: ignore lifetimes (type-based aliasing)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Flowistry-style modular information flow analysis for MiniRust",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro-flowistry {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mir = sub.add_parser("mir", help="print the lowered MIR of a file")
    mir.add_argument("file")
    mir.add_argument("--function", help="only this function (default: all)")

    analyze = sub.add_parser("analyze", help="print Θ annotations and dependency sizes")
    analyze.add_argument("file")
    analyze.add_argument("--function", help="only this function (default: all)")
    _add_condition_flags(analyze)

    slice_cmd = sub.add_parser("slice", help="slice a function on a variable")
    slice_cmd.add_argument("file")
    slice_cmd.add_argument("--function", required=True)
    slice_cmd.add_argument("--variable", required=True)
    slice_cmd.add_argument("--forward", action="store_true", help="forward slice")
    _add_condition_flags(slice_cmd)

    focus = sub.add_parser(
        "focus", help="cursor-driven span-precise slicing (IDE focus mode)"
    )
    focus.add_argument("file")
    focus.add_argument("--line", type=int, help="1-based cursor line")
    focus.add_argument("--col", type=int, help="1-based cursor column")
    focus.add_argument("--function", help="query by name instead of cursor")
    focus.add_argument("--variable", help="query by name instead of cursor")
    focus.add_argument(
        "--direction",
        default="both",
        choices=["fwd", "bwd", "both", "forward", "backward"],
        help="which flow direction to highlight",
    )
    focus.add_argument("--json", action="store_true", help="print the raw response")
    focus.add_argument("--color", action="store_true", help="ANSI highlights")
    _add_condition_flags(focus)

    stats = sub.add_parser(
        "stats",
        help="per-function interning-table sizes, bitset density, and "
             "fixpoint iteration counts",
    )
    stats.add_argument("file", help="MiniRust file")
    stats.add_argument("--function", help="only this function (default: all)")
    stats.add_argument("--json", action="store_true", help="machine-readable output")
    _add_condition_flags(stats)

    ifc = sub.add_parser("ifc", help="check information flow policies")
    ifc.add_argument("file")
    ifc.add_argument("--secret-type", action="append", default=[], dest="secret_types")
    ifc.add_argument("--secret-variable", action="append", default=[], dest="secret_variables",
                     help="NAME or FUNCTION:NAME")
    ifc.add_argument("--sink", action="append", default=[], dest="sinks",
                     help="function treated as an insecure operation")

    fuzz = sub.add_parser(
        "fuzz",
        help="`repro fuzz repro ARTIFACT.json` replays a shrunk repro artifact "
             "(fuzz sweeps run with `repro eval run --count N`)",
    )
    fuzz.add_argument(
        "repro_args", nargs="*", metavar="repro ARTIFACT",
        help="the literal word `repro` followed by an artifact path",
    )
    fuzz.add_argument("--json", action="store_true",
                      help="print the replay verdicts as JSON")

    corpus = sub.add_parser("corpus", help="generate the synthetic evaluation corpus")
    corpus.add_argument("--scale", type=float, default=0.25)
    corpus.add_argument("--crate", help="print the source of just this crate")

    experiment = sub.add_parser("experiment", help="run the Section 5 experiment")
    experiment.add_argument("--scale", type=float, default=0.2)

    serve_cmd = sub.add_parser(
        "serve", help="incremental analysis service over line-delimited JSON stdio"
    )
    serve_cmd.add_argument(
        "file", nargs="?", help="MiniRust file opened as the initial workspace unit"
    )
    serve_cmd.add_argument("--local-crate", default="main")
    serve_cmd.add_argument("--cache-dir", help="directory for the JSON on-disk cache tier")
    serve_cmd.add_argument("--max-entries", type=int, default=4096,
                           help="in-memory LRU capacity of the summary store")
    serve_cmd.add_argument("--input",
                           help="read requests from this file instead of stdin")
    serve_cmd.add_argument("--port", type=int,
                           help="run the concurrent socket server on this TCP port "
                                "(0 = ephemeral; the bound port is printed in the banner)")
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address for --port mode (default: 127.0.0.1)")
    serve_cmd.add_argument("--workers", type=int, default=8,
                           help="connection thread-pool size in --port mode")
    serve_cmd.add_argument("--persist-dir",
                           help="workspace persistence root: sessions are restored from "
                                "it on start and saved to it on shutdown, so a restarted "
                                "server answers its first query warm")
    serve_cmd.add_argument("--log-level", default="quiet",
                           choices=["quiet", "info", "debug"],
                           help="socket mode: access-log verbosity (one structured "
                                "line per request to stderr; default quiet)")
    serve_cmd.add_argument("--trace-dir",
                           help="socket mode: write one rotated Chrome-trace JSON "
                                "file per request into this directory")
    serve_cmd.add_argument("--workspace", default="default",
                           help="name of the (persistent) workspace to serve")

    workspace = sub.add_parser(
        "workspace", help="save, restore, and inspect persistent analysis workspaces"
    )
    wsub = workspace.add_subparsers(dest="ws_command", required=True)
    ws_save = wsub.add_parser("save", help="analyse FILEs and persist the workspace")
    ws_save.add_argument("files", nargs="+", help="MiniRust files opened as units")
    ws_save.add_argument("--persist-dir", required=True)
    ws_save.add_argument("--workspace", default="default")
    ws_save.add_argument("--local-crate", default="main")
    ws_save.add_argument("--warm", action="store_true",
                         help="batch-analyse every function before saving, so the "
                              "cache tier is fully populated")
    ws_load = wsub.add_parser("load", help="restore a saved workspace and print its state")
    ws_load.add_argument("--persist-dir", required=True)
    ws_load.add_argument("--workspace", default="default")
    ws_load.add_argument("--analyze", action="store_true",
                         help="run a workspace-wide analyze after loading (shows the "
                              "warm cache serving the first query)")
    ws_list = wsub.add_parser("list", help="list the workspaces saved under a directory")
    ws_list.add_argument("--persist-dir", required=True)

    trace_cmd = sub.add_parser(
        "trace",
        help="run a traced analysis of a file and print the span tree",
    )
    trace_cmd.add_argument("file")
    trace_cmd.add_argument("--function", help="only this function (default: all)")
    trace_cmd.add_argument("--local-crate", default="main")
    trace_cmd.add_argument("--json", action="store_true",
                           help="print the span tree as JSON instead of text")
    trace_cmd.add_argument("--min-self-ms", type=float, default=0.0,
                           help="hide spans with self time below this many "
                                "milliseconds (structure above kept spans "
                                "survives; default: 0 = show all)")
    trace_cmd.add_argument("--depth", type=int, default=None,
                           help="hide spans nested deeper than DEPTH "
                                "(root is depth 0; default: unlimited)")
    trace_cmd.add_argument("--chrome", metavar="PATH",
                           help="also write flamegraph-ready Chrome trace-event "
                                "JSON (chrome://tracing / Perfetto) to PATH")
    _add_condition_flags(trace_cmd)

    bench = sub.add_parser(
        "bench",
        help="render the benchmark history ledger with regression verdicts "
             "(subcommand: report)",
    )
    bench.add_argument("--ledger-dir", default="benchmarks/reports/history",
                       help="history ledger directory (default benchmarks/reports/history)")
    bsub = bench.add_subparsers(dest="bench_command", required=True)
    bench_report_cmd = bsub.add_parser(
        "report", help="render per-metric trajectories with regression verdicts"
    )
    bench_report_cmd.add_argument("--json", action="store_true",
                                  help="machine-readable report")
    bench_report_cmd.add_argument("--gate", action="store_true",
                                  help="exit 1 if any gated metric regressed")

    eval_cmd = sub.add_parser(
        "eval",
        help="mass evaluation: batch-run program corpora through the full "
             "oracle battery with aggregate gates (subcommands: run, report)",
    )
    esub = eval_cmd.add_subparsers(dest="eval_command", required=True)
    eval_run = esub.add_parser(
        "run",
        help="ingest a corpus (fuzz sweep and/or .mrs directories), fan it "
             "across workers, shrink each failure to a repro artifact, write "
             "the aggregate report (exit 1 on any oracle failure)",
    )
    eval_run.add_argument("--count", type=int, default=0,
                          help="fuzz seed-sweep size; program i uses seed+i "
                               "(default: 0 = only --dir corpora)")
    eval_run.add_argument("--seed", type=int, default=0,
                          help="first sweep seed (default: 0)")
    eval_run.add_argument("--size", default="small",
                          choices=["small", "medium", "large"],
                          help="generator size profile for the sweep (default: small)")
    eval_run.add_argument("--dir", action="append", default=[], dest="dirs",
                          metavar="DIR",
                          help="directory of committed .mrs programs to ingest "
                               "(repeatable; recursive)")
    eval_run.add_argument("--workers", type=int, default=0,
                          help="process-pool workers; 0 or 1 = serial (default: 0)")
    eval_run.add_argument("--chunk-size", type=int, default=8,
                          help="programs per shard (default: 8)")
    eval_run.add_argument("--oracles",
                          help="comma-separated oracle subset (default: all five)")
    eval_run.add_argument("--inject", metavar="NAME",
                          help="add a synthetic always-wrong oracle (exercises "
                               "the shrink/repro pipeline; see docs/FUZZING.md)")
    eval_run.add_argument("--out-dir", default="benchmarks/reports/massrun",
                          help="report + manifest + failure artifacts root "
                               "(created idempotently; default: "
                               "benchmarks/reports/massrun)")
    eval_run.add_argument("--ledger-dir", metavar="DIR",
                          help="append a massrun row to this bench-history "
                               "ledger (default: no row)")
    eval_run.add_argument("--export-corpus", metavar="DIR",
                          help="also write the sweep's programs as .mrs files "
                               "plus their corpus manifest")
    eval_run.add_argument("--gate", action="store_true",
                          help="also exit 1 on an empty feature bucket "
                               "(any oracle failure always exits 1)")
    eval_run.add_argument("--json", action="store_true",
                          help="print the aggregate report as JSON")
    eval_report_cmd = esub.add_parser(
        "report", help="render a previously written mass-evaluation report"
    )
    eval_report_cmd.add_argument(
        "report", nargs="?",
        default="benchmarks/reports/massrun/massrun_report.json",
        help="report path (default: benchmarks/reports/massrun/massrun_report.json)",
    )
    eval_report_cmd.add_argument("--json", action="store_true",
                                 help="print the report JSON verbatim")
    eval_report_cmd.add_argument("--gate", action="store_true",
                                 help="exit 1 if the report would fail the gate")

    metrics_cmd = sub.add_parser(
        "metrics",
        help="fetch the metrics snapshot from a live `repro serve --port` server",
    )
    metrics_cmd.add_argument("--host", default="127.0.0.1")
    metrics_cmd.add_argument("--port", type=int, required=True)
    metrics_cmd.add_argument("--prometheus", action="store_true",
                             help="Prometheus text exposition instead of JSON")

    sub.add_parser("version", help="print the package version")

    query = sub.add_parser("query", help="one-shot query against the analysis service")
    query.add_argument("file")
    query.add_argument("--method", default="analyze",
                       choices=["analyze", "slice", "focus", "ifc", "warm", "stats"])
    query.add_argument("--function", help="restrict analyze / target slice or focus")
    query.add_argument("--variable", help="slice/focus criterion variable")
    query.add_argument("--forward", action="store_true", help="forward slice")
    query.add_argument("--line", type=int, help="focus cursor line (1-based)")
    query.add_argument("--col", type=int, help="focus cursor column (1-based)")
    query.add_argument("--secret-type", action="append", default=[], dest="secret_types")
    query.add_argument("--sink", action="append", default=[], dest="sinks")
    query.add_argument("--local-crate", default="main")
    query.add_argument("--cache-dir", help="directory for the JSON on-disk cache tier")
    query.add_argument("--repeat", type=int, default=1,
                       help="send the query N times (shows warm-cache hits)")
    _add_condition_flags(query)

    return parser


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _selected_functions(engine: FlowEngine, only: Optional[str]) -> List[str]:
    if only is not None:
        if engine.body(only) is None:
            raise ReproError(f"no function named {only!r} with a body")
        return [only]
    return engine.local_function_names()


def cmd_mir(args: argparse.Namespace, out) -> int:
    engine = FlowEngine.from_source(_read_source(args.file))
    for name in _selected_functions(engine, args.function):
        out.write(pretty_body(engine.body(name)) + "\n\n")
    return 0


def cmd_analyze(args: argparse.Namespace, out) -> int:
    source = _read_source(args.file)
    config = _config_from_args(args)
    engine = FlowEngine.from_source(source, config=config)
    for name in _selected_functions(engine, args.function):
        result = engine.analyze_function(name)
        out.write(f"// condition: {result.config.name}\n")
        out.write(pretty_body(result.body, result.annotations()) + "\n")
        out.write("// dependency-set sizes at exit:\n")
        for variable, size in sorted(result.dependency_sizes().items()):
            out.write(f"//   {variable}: {size}\n")
        out.write("\n")
    return 0


def cmd_slice(args: argparse.Namespace, out) -> int:
    source = _read_source(args.file)
    slicer = ProgramSlicer(source, config=_config_from_args(args))
    if args.forward:
        result = slicer.forward_slice(args.function, args.variable)
    else:
        result = slicer.backward_slice(args.function, args.variable)
    out.write(
        f"// {result.direction.value} slice of `{args.variable}` in {args.function}: "
        f"{result.size()} locations\n"
    )
    out.write(slicer.render(result) + "\n")
    return 0


_DIRECTION_ALIASES = {"fwd": "forward", "bwd": "backward"}


def cmd_focus(args: argparse.Namespace, out) -> int:
    import json

    from repro.focus.render import render_focus_response
    from repro.service.session import AnalysisSession

    by_cursor = args.line is not None and args.col is not None
    by_name = args.function is not None and args.variable is not None
    if not by_cursor and not by_name:
        raise ReproError("`focus` needs --line and --col, or --function and --variable")

    source = _read_source(args.file)
    session = AnalysisSession()
    session.open_unit("main", source)
    direction = _DIRECTION_ALIASES.get(args.direction, args.direction)
    response = session.focus(
        line=args.line if by_cursor else None,
        col=args.col if by_cursor else None,
        function=args.function if by_name else None,
        variable=args.variable if by_name else None,
        direction=direction,
        config=_config_from_args(args),
    )
    if args.json:
        out.write(json.dumps(response, sort_keys=True) + "\n")
    else:
        out.write(render_focus_response(source, response, color=args.color) + "\n")
    return 0


def cmd_stats(args: argparse.Namespace, out) -> int:
    import json

    config = _config_from_args(args)
    engine = FlowEngine.from_source(_read_source(args.file), config=config)
    rows = []
    for name in _selected_functions(engine, args.function):
        result = engine.analyze_function(name)
        domain = result.transfer.domain
        matrix = result.exit_theta.matrix
        num_places, num_locations = len(domain.places), len(domain.locations)
        rows.append({
            "function": name,
            "blocks": len(result.body.blocks),
            "instructions": result.body.num_instructions(),
            "interned_places": num_places,
            "interned_locations": num_locations,
            "exit_rows": len(matrix),
            "exit_bits": matrix.popcount_total(),
            "exit_density": round(matrix.density(num_places, num_locations), 4),
            "fixpoint_iterations": result.fixpoint.iterations,
        })
    if args.json:
        out.write(json.dumps({"condition": config.name, "functions": rows},
                             indent=2, sort_keys=True) + "\n")
        return 0
    out.write(f"// condition: {config.name}\n")
    header = (
        f"{'function':<28} {'blocks':>6} {'instrs':>6} {'places':>6} "
        f"{'locs':>5} {'rows':>5} {'bits':>6} {'density':>8} {'iters':>5}\n"
    )
    out.write(header)
    for row in rows:
        out.write(
            f"{row['function']:<28} {row['blocks']:>6} {row['instructions']:>6} "
            f"{row['interned_places']:>6} {row['interned_locations']:>5} "
            f"{row['exit_rows']:>5} {row['exit_bits']:>6} "
            f"{row['exit_density']:>8.4f} {row['fixpoint_iterations']:>5}\n"
        )
    return 0


def cmd_ifc(args: argparse.Namespace, out) -> int:
    policy = IfcPolicy.from_specs(args.secret_types, args.secret_variables, args.sinks)
    violations = IfcChecker.from_source(_read_source(args.file), policy).check_all()
    out.write(render_report(violations) + "\n")
    return 1 if violations else 0


def cmd_fuzz(args: argparse.Namespace, out) -> int:
    """``repro fuzz repro ARTIFACT``: re-run the recorded oracle on the
    shrunk program.  Exit 0 when the failure reproduces as recorded, 1 when
    it no longer does (fixed or flaky)."""
    import json

    from repro.errors import render_error_with_source
    from repro.fuzz.artifact import replay_artifact

    if len(args.repro_args) != 2 or args.repro_args[0] != "repro":
        raise ReproError(
            "usage: `repro fuzz repro ARTIFACT.json` replays a shrunk repro "
            "artifact (fuzz sweeps run with `repro eval run --count N`)"
        )
    artifact_path = args.repro_args[1]
    outcome = replay_artifact(artifact_path)
    artifact = outcome.artifact
    if args.json:
        out.write(json.dumps({
            "artifact": artifact_path,
            "oracle": artifact["oracle"],
            "seed": artifact["seed"],
            "reproduced": outcome.reproduced,
            "verdicts": [v.to_json_dict() for v in outcome.verdicts],
        }, indent=2, sort_keys=True) + "\n")
        return 0 if outcome.reproduced else 1

    out.write(
        f"replaying artifact {artifact_path} "
        f"(seed {artifact['seed']}, oracle {artifact['oracle']})\n\n"
    )
    out.write(artifact["source"].rstrip("\n") + "\n\n")
    for verdict in outcome.verdicts:
        status = "FAIL" if not verdict.ok else "pass"
        out.write(f"[{status}] {verdict.oracle}: {verdict.detail or 'ok'}\n")
        # Front-end failures carry a span inside the detail; re-run the
        # pipeline to surface line:column plus the offending source lines.
        if not verdict.ok and verdict.oracle == "validate":
            from repro.fuzz.oracles import prepare

            try:
                prepare(artifact["source"], artifact.get("crate_name", "fuzzed"))
            except ReproError as error:
                out.write(
                    render_error_with_source(
                        error, artifact["source"], filename=artifact_path
                    ) + "\n"
                )
    out.write(
        "\nverdict: "
        + ("reproduced as recorded\n" if outcome.reproduced else "did NOT reproduce\n")
    )
    return 0 if outcome.reproduced else 1


def cmd_corpus(args: argparse.Namespace, out) -> int:
    from repro.eval.corpus import generate_corpus

    corpus = generate_corpus(scale=args.scale)
    if args.crate is not None:
        matches = [c for c in corpus if c.name == args.crate]
        if not matches:
            raise ReproError(f"no crate named {args.crate!r} in the corpus")
        out.write(matches[0].source)
        return 0
    from repro.eval.report import render_table1

    out.write(render_table1(corpus) + "\n")
    return 0


def cmd_experiment(args: argparse.Namespace, out) -> int:
    from repro.eval.corpus import generate_corpus
    from repro.eval.experiments import primary_experiment_conditions, run_conditions
    from repro.eval.report import render_boundary_study, render_summary_table

    corpus = generate_corpus(scale=args.scale)
    data = run_conditions(corpus, primary_experiment_conditions())
    out.write(render_summary_table(data) + "\n\n")
    out.write(render_boundary_study(data) + "\n")
    return 0


def _serve_socket(args: argparse.Namespace, out) -> int:
    """The ``serve --port`` path: the concurrent thread-pool socket server."""
    import json
    import time

    from repro.service.server import ThreadedAnalysisServer

    if args.log_level != "quiet":
        import logging

        access = logging.getLogger("repro.access")
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(message)s"))
        access.addHandler(handler)
        access.setLevel(logging.INFO if args.log_level == "info" else logging.DEBUG)
        access.propagate = False

    server = ThreadedAnalysisServer(
        host=args.host,
        port=args.port,
        workers=args.workers,
        persist_dir=args.persist_dir,
        max_entries=args.max_entries,
        local_crate=args.local_crate,
        default_workspace=args.workspace,
        log_level=args.log_level,
        trace_dir=args.trace_dir,
    )
    if args.file is not None:
        handle = server.registry.handle(args.workspace)
        with handle.lock.write_locked():
            handle.session.open_unit("main", _read_source(args.file))
            server.registry.note_mutation(handle)
    server.start()
    out.write(json.dumps(server.hello(), sort_keys=True) + "\n")
    try:
        out.flush()
    except (AttributeError, OSError):
        pass
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def cmd_serve(args: argparse.Namespace, out) -> int:
    from repro.service.persist import open_or_create_workspace, save_workspace
    from repro.service.protocol import serve
    from repro.service.session import AnalysisSession

    if args.port is not None:
        # Flags that only make sense for the stdio loop must not be
        # silently dropped in socket mode.
        for flag, value in (("--cache-dir", args.cache_dir),
                            ("--input", args.input)):
            if value:
                raise ReproError(
                    f"{flag} is a stdio-mode flag and has no effect with --port; "
                    "use --persist-dir for the socket server's disk tier"
                )
        return _serve_socket(args, out)

    for flag, value in (("--log-level", args.log_level if args.log_level != "quiet" else None),
                        ("--trace-dir", args.trace_dir)):
        if value:
            raise ReproError(
                f"{flag} is a socket-mode flag and has no effect without --port"
            )

    if args.persist_dir is not None:
        session = open_or_create_workspace(
            args.persist_dir,
            args.workspace,
            max_entries=args.max_entries,
            local_crate=args.local_crate,
        )
    else:
        session = AnalysisSession(
            cache_dir=args.cache_dir,
            max_entries=args.max_entries,
            local_crate=args.local_crate,
        )
    if args.file is not None:
        session.open_unit("main", _read_source(args.file))
    try:
        if args.input is not None:
            with open(args.input, "r", encoding="utf-8") as in_stream:
                return serve(in_stream, out, session)
        return serve(sys.stdin, out, session)
    finally:
        if args.persist_dir is not None:
            save_workspace(session, args.persist_dir, args.workspace)


def cmd_workspace(args: argparse.Namespace, out) -> int:
    import json

    from repro.service.persist import list_workspaces, load_workspace, save_workspace
    from repro.service.session import AnalysisSession

    if args.ws_command == "save":
        session = AnalysisSession(local_crate=args.local_crate)
        # Unit names default to basenames; if two files share one, fall back
        # to the paths as given so neither silently overwrites the other.
        names = [Path(path).name for path in args.files]
        if len(set(names)) != len(names):
            names = list(args.files)
        session.open_units(
            (name, _read_source(path)) for name, path in zip(names, args.files)
        )
        if args.warm:
            session.warm()
        summary = save_workspace(session, args.persist_dir, args.workspace)
        out.write(json.dumps(summary, sort_keys=True) + "\n")
        return 0
    if args.ws_command == "load":
        session = load_workspace(args.persist_dir, args.workspace)
        report = {
            "workspace": args.workspace,
            "units": session.unit_names(),
            "functions": len(session.function_names()),
        }
        if args.analyze:
            result = session.analyze()
            report["analyze"] = {
                "cache_hits": result["cache_hits"],
                "cache_misses": result["cache_misses"],
            }
        report["stats"] = session.store.stats.to_dict()
        out.write(json.dumps(report, sort_keys=True) + "\n")
        return 0
    out.write(json.dumps(list_workspaces(args.persist_dir), sort_keys=True) + "\n")
    return 0


def cmd_version(args: argparse.Namespace, out) -> int:
    out.write(f"repro-flowistry {__version__}\n")
    return 0


def cmd_query(args: argparse.Namespace, out) -> int:
    import json

    from repro.service.protocol import AnalysisService
    from repro.service.session import AnalysisSession

    session = AnalysisSession(cache_dir=args.cache_dir, local_crate=args.local_crate)
    session.open_unit("main", _read_source(args.file))
    service = AnalysisService(session)

    condition = {
        "whole_program": args.whole_program,
        "mut_blind": args.mut_blind,
        "ref_blind": args.ref_blind,
    }
    params: dict = {"condition": condition}
    if args.method == "analyze":
        if args.function:
            params["function"] = args.function
    elif args.method == "slice":
        if not args.function or not args.variable:
            raise ReproError("`query --method slice` needs --function and --variable")
        params.update(
            function=args.function,
            variable=args.variable,
            direction="forward" if args.forward else "backward",
        )
    elif args.method == "focus":
        if args.line is not None and args.col is not None:
            params.update(line=args.line, col=args.col)
        elif args.function and args.variable:
            params.update(function=args.function, variable=args.variable)
        else:
            raise ReproError(
                "`query --method focus` needs --line and --col, or --function and --variable"
            )
    elif args.method == "ifc":
        params.update(secret_types=args.secret_types, sinks=args.sinks)
    elif args.method == "stats":
        params = {}

    failed = False
    for index in range(max(1, args.repeat)):
        response = service.handle({"id": index + 1, "method": args.method, "params": params})
        out.write(json.dumps(response, sort_keys=True) + "\n")
        failed = failed or not response.get("ok", False)
    return 1 if failed else 0


def cmd_trace(args: argparse.Namespace, out) -> int:
    """Traced one-shot analysis: span tree to stdout, optional Chrome export."""
    import json

    from repro.obs import filter_span_tree, render_span_tree, start_trace
    from repro.obs.export import write_chrome_trace
    from repro.service.session import AnalysisSession

    session = AnalysisSession(local_crate=args.local_crate)
    config = _config_from_args(args)
    with start_trace("analyze") as trace:
        session.open_unit("main", _read_source(args.file))
        session.analyze(function=args.function, config=config)
    if trace is None:
        out.write("error: observability is disabled in this process\n")
        return 2
    tree = trace.to_dict()
    hidden = 0
    min_self_ms = getattr(args, "min_self_ms", 0.0) or 0.0
    max_depth = getattr(args, "depth", None)
    if min_self_ms > 0.0 or max_depth is not None:
        tree["root"], hidden = filter_span_tree(
            tree["root"], min_self_ms=min_self_ms, max_depth=max_depth
        )
    if args.json:
        out.write(json.dumps(tree, sort_keys=True) + "\n")
    else:
        out.write(f"trace {trace.trace_id}\n")
        out.write(render_span_tree(tree["root"]) + "\n")
        out.write(
            "{} spans, {:.3f}ms total\n".format(
                len(trace.spans()), trace.root.duration_ms
            )
        )
        if hidden:
            out.write(f"({hidden} span(s) hidden by --min-self-ms/--depth)\n")
    if args.chrome:
        path = write_chrome_trace(args.chrome, trace)
        out.write(f"chrome trace written to {path}\n")
    return 0


def cmd_metrics(args: argparse.Namespace, out) -> int:
    """Scrape a live socket server's ``metrics`` method."""
    import json
    import socket as socket_module

    from repro.obs.export import render_prometheus

    try:
        conn = socket_module.create_connection((args.host, args.port), timeout=10.0)
    except OSError as error:
        raise ReproError(
            f"cannot connect to {args.host}:{args.port}: {error}"
        ) from error
    with conn:
        rfile = conn.makefile("r", encoding="utf-8", newline="\n")
        wfile = conn.makefile("w", encoding="utf-8", newline="\n")
        hello = json.loads(rfile.readline())
        if "hello" not in hello:
            out.write(f"error: unexpected greeting: {hello}\n")
            return 2
        wfile.write(json.dumps({"id": 1, "method": "metrics"}) + "\n")
        wfile.flush()
        response = json.loads(rfile.readline())
    if not response.get("ok"):
        out.write(f"error: {response.get('error')}\n")
        return 2
    result = response["result"]
    if args.prometheus:
        out.write(render_prometheus(result))
    else:
        out.write(json.dumps(result, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_bench(args: argparse.Namespace, out) -> int:
    """``repro bench report``: ledger trajectories, verdicts and the gate."""
    import json

    from repro.eval.bench import bench_report, render_bench_report
    from repro.obs.history import HistoryLedger

    report = bench_report(HistoryLedger(args.ledger_dir))
    if args.json:
        out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        out.write(render_bench_report(report) + "\n")
    if args.gate and not report["gate"]["ok"]:
        return 1
    return 0

def cmd_eval(args: argparse.Namespace, out) -> int:
    """``repro eval`` family: mass-run corpora, render aggregate reports."""
    import json

    from repro.eval.massrun import (
        MassRunConfig,
        gate_problems,
        load_report,
        render_mass_report,
        run_mass_evaluation,
    )

    if args.eval_command == "report":
        data = load_report(args.report)
        if args.json:
            out.write(json.dumps(data, sort_keys=True, indent=2) + "\n")
        else:
            out.write(render_mass_report(data) + "\n")
        if args.gate:
            problems = gate_problems(data)
            if problems:
                for problem in problems:
                    out.write(f"gate: {problem}\n")
                return 1
            out.write("gate: ok\n")
        return 0

    config = MassRunConfig(
        count=args.count,
        seed=args.seed,
        size=args.size,
        dirs=list(args.dirs),
        workers=args.workers,
        chunk_size=args.chunk_size,
        oracles=args.oracles.split(",") if args.oracles else None,
        inject=args.inject,
        out_dir=args.out_dir,
        ledger_dir=args.ledger_dir,
        export_dir=args.export_corpus,
    )
    report = run_mass_evaluation(config)
    data = report.to_json_dict()
    if args.json:
        out.write(json.dumps(data, sort_keys=True, indent=2) + "\n")
    else:
        out.write(render_mass_report(data) + "\n")
        out.write(f"\nreport: {report.report_path}\n")
        if report.ledger is not None:
            out.write(
                "ledger: {} ({} record(s), run {})\n".format(
                    report.ledger["ledger"],
                    report.ledger["records"],
                    report.ledger["run_id"],
                )
            )
    if args.gate:
        problems = gate_problems(data)
        if problems:
            for problem in problems:
                out.write(f"gate: {problem}\n")
            return 1
        out.write("gate: ok\n")
    return 1 if report.failures else 0


_HANDLERS = {
    "mir": cmd_mir,
    "analyze": cmd_analyze,
    "slice": cmd_slice,
    "focus": cmd_focus,
    "stats": cmd_stats,
    "ifc": cmd_ifc,
    "fuzz": cmd_fuzz,
    "corpus": cmd_corpus,
    "experiment": cmd_experiment,
    "serve": cmd_serve,
    "trace": cmd_trace,
    "bench": cmd_bench,
    "eval": cmd_eval,
    "metrics": cmd_metrics,
    "workspace": cmd_workspace,
    "version": cmd_version,
    "query": cmd_query,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        return handler(args, out)
    except ReproError as error:
        # Span-carrying failures (parse/typecheck/lowering) print with
        # line:column and a source excerpt when the input file is at hand.
        from repro.errors import render_error_with_source

        file_path = getattr(args, "file", None)
        if not error.span.is_dummy() and file_path:
            try:
                source = _read_source(file_path)
            except OSError:
                source = None
            if source is not None:
                out.write(
                    render_error_with_source(error, source, filename=file_path) + "\n"
                )
                return 2
        out.write(f"error: {error}\n")
        return 2
    except FileNotFoundError as error:
        out.write(f"error: {error}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
