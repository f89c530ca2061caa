"""Command-line interface.

Installed as the ``repro`` console script::

    repro check robots.txt GPTBot /art/         # allow/deny + winning rule
    repro classify robots.txt                   # restriction level per AI agent
    repro lint robots.txt                       # author-mistake findings
    repro compare robots.txt                    # compliant vs legacy parser
    repro aitxt ai.txt /gallery/piece.png       # ai.txt training permission
    repro agents                                # the Table 1 registry
    repro experiment figure2 [--fast]           # run a paper experiment
    repro reproduce --workers 4 [--fast]        # run the whole battery
    repro chaos --plan flaky-resets --seed 0    # fault-inject, assert no drift
    repro stats results --critical-path         # where did the time go?
    repro stats --diff base/ candidate/         # CI regression gate
    repro dashboard results --category news     # agent x month operator view
    repro serve-metrics results                 # Prometheus /metrics endpoint
    repro alerts results --rules slo.toml       # SLO gate; exit 1 on firing
    repro logs results/logs top path            # query the wide-event store
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .agents.darkvisitors import AI_USER_AGENT_TOKENS, build_registry
from .columnar import atomic_write
from .core.aitxt import AiTxtPolicy
from .core.classify import classify
from .core.diagnostics import lint
from .core.legacy import LegacyPolicy
from .core.policy import RobotsPolicy
from .report.tables import render_table

__all__ = ["main", "build_parser"]

#: Experiments runnable from the CLI (the orchestrator registry keys,
#: spelled out so the lightweight subcommands never import the heavy
#: report stack just to build the argparse tree).
EXPERIMENT_IDS = [
    "table1", "table2", "table3", "figure2", "figure3", "figure4",
    "sec22", "sec62", "sec63", "sec81", "appb2", "survey",
    "tables9_12", "crosstabs", "taxonomy", "category",
    "behavioral", "selective",
]

#: Named population strata (mirrors repro.web.tranco.STRATUM_SIZES,
#: spelled out for the same lightweight-argparse reason).
STRATUM_IDS = ["top-1k", "top-10k", "top-100k", "top-1m"]

#: Dimensions ``repro logs`` can group/rank by (mirrors
#: repro.obs.logql.DIMENSIONS, spelled out for the same reason).
LOG_DIMENSIONS = ["agent", "category", "host", "month", "outcome", "path", "status"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the ``repro`` tool."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="robots.txt / AI-crawler tooling from the IMC'25 reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="may <agent> fetch <path> under this robots.txt?")
    check.add_argument("robots_file")
    check.add_argument("agent")
    check.add_argument("path")

    cls = sub.add_parser("classify", help="restriction level per AI user agent")
    cls.add_argument("robots_file")
    cls.add_argument("agents", nargs="*", help="agents to classify (default: the 24 Table 1 agents)")
    cls.add_argument("--include-wildcard", action="store_true",
                     help="count User-agent: * rules too (ablation mode)")

    lint_cmd = sub.add_parser("lint", help="find author mistakes in a robots.txt")
    lint_cmd.add_argument("robots_file")

    compare = sub.add_parser("compare", help="compliant vs buggy-legacy parser verdicts")
    compare.add_argument("robots_file")
    compare.add_argument("--paths", nargs="*", default=["/", "/page", "/images/a.png"])
    compare.add_argument("--agents", nargs="*", default=["GPTBot", "CCBot", "anybot"])

    aitxt = sub.add_parser("aitxt", help="may content at <path> be used for AI training?")
    aitxt.add_argument("aitxt_file")
    aitxt.add_argument("path")

    sub.add_parser("agents", help="print the Table 1 AI user-agent registry")

    experiment = sub.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument("experiment_id", choices=EXPERIMENT_IDS)
    experiment.add_argument("--fast", action="store_true",
                            help="use a small population for a quick run")

    reproduce = sub.add_parser(
        "reproduce",
        help="run the whole experiment battery over one shared world",
    )
    reproduce.add_argument("--fast", action="store_true",
                           help="use a small population for a quick run")
    reproduce.add_argument("--workers", type=int, default=1,
                           help="experiment worker pool size (results are "
                                "bit-identical for any count)")
    reproduce.add_argument("--only", nargs="*", metavar="ID",
                           choices=EXPERIMENT_IDS, default=None,
                           help="run only these experiments")
    reproduce.add_argument("--telemetry-dir", metavar="DIR", default=None,
                           help="also write METRICS.json, SERIES.json and "
                                "TRACE.jsonl into DIR")
    reproduce.add_argument("--profile", action="store_true",
                           help="attach tracemalloc/cProfile samplers to "
                                "pipeline phases; prints a per-phase summary "
                                "and writes PROFILE.json into "
                                "--telemetry-dir when given")
    reproduce.add_argument("--incremental", action="store_true",
                           help="reuse unchanged experiment results from the "
                                "persistent store; re-run only experiments "
                                "whose inputs changed")
    reproduce.add_argument("--incremental-dir", metavar="DIR",
                           default=".repro-cache",
                           help="incremental store directory "
                                "(default: .repro-cache)")
    reproduce.add_argument("--explain-invalidation", action="store_true",
                           help="report, per experiment, whether it was "
                                "assembled from the store or re-run and why "
                                "(implies --incremental)")
    reproduce.add_argument("--set", metavar="KEY.PARAM=VALUE", action="append",
                           dest="param_edits", default=None,
                           help="override a declared experiment parameter "
                                "(e.g. --set table1.months=4); invalidates "
                                "exactly that experiment's cached result")
    reproduce.add_argument("--strata", nargs="+", metavar="STRATUM",
                           choices=STRATUM_IDS, default=None,
                           help="run the streaming figure battery over these "
                                "population strata (sharded columnar archives) "
                                "instead of the registry battery")
    reproduce.add_argument("--shards", type=int, default=0,
                           help="shard count for strata archives "
                                "(0 = sized automatically)")
    reproduce.add_argument("--archive-dir", metavar="DIR",
                           default=".repro-archives",
                           help="per-stratum archive root for --strata "
                                "(default: .repro-archives); matching "
                                "archives are reopened without re-crawling")
    reproduce.add_argument("--log-dir", metavar="DIR", default=None,
                           help="also archive every simulated request as a "
                                "sharded columnar log store under DIR and "
                                "derive per-(agent, host) traffic features "
                                "(FEATURES.json); query with `repro logs`")

    chaos_cmd = sub.add_parser(
        "chaos",
        help="run experiments under a fault plan; assert byte-identical results",
    )
    chaos_cmd.add_argument("--plan", default="flaky-resets",
                           help="named fault plan (default: flaky-resets; "
                                "see repro.net.chaos.NAMED_PLANS)")
    chaos_cmd.add_argument("--seed", type=int, default=0,
                           help="seed for the plan's per-host fault sampling")
    chaos_cmd.add_argument("--experiments", nargs="*", metavar="ID",
                           choices=EXPERIMENT_IDS,
                           default=["figure2", "sec62"],
                           help="experiments to compare under faults "
                                "(default: figure2 sec62)")
    chaos_cmd.add_argument("--fast", action="store_true",
                           help="use a small population for a quick run")
    chaos_cmd.add_argument("--no-retries", action="store_true",
                           help="disable all retry/confirmation hardening: "
                                "shows what the fault plan does to an "
                                "unprotected pipeline (expect drift)")
    chaos_cmd.add_argument("--results-dir", metavar="DIR", default=None,
                           help="also write baseline/ and chaos/ result "
                                "texts into DIR for inspection")

    stats = sub.add_parser(
        "stats",
        help="analyze a telemetry directory (tables, critical path, run diffs)",
    )
    stats.add_argument("telemetry", nargs="?", default="results",
                       help="telemetry directory or METRICS.json path "
                            "(default: results)")
    stats.add_argument("--section", choices=["counters", "gauges", "histograms"],
                       default=None, help="print only one metrics section")
    stats.add_argument("--critical-path", action="store_true",
                       help="print the slowest span chain from TRACE.jsonl")
    stats.add_argument("--utilization", action="store_true",
                       help="print the experiment-worker concurrency timeline")
    stats.add_argument("--folded", metavar="PATH", default=None,
                       help="write flamegraph-style folded stacks to PATH")
    stats.add_argument("--diff", nargs=2, metavar=("BASELINE", "CANDIDATE"),
                       default=None,
                       help="structurally diff two telemetry directories; "
                            "exits 1 on regressions (CI gate)")
    stats.add_argument("--threshold", type=float, default=0.25,
                       help="relative-change threshold for --diff "
                            "(default: 0.25)")
    stats.add_argument("--from-logs", action="store_true",
                       help="treat TELEMETRY as a wide-event log store "
                            "directory and summarize its records instead "
                            "of reading METRICS.json")

    dashboard = sub.add_parser(
        "dashboard",
        help="per-agent monthly traffic/block matrix from SERIES.json",
    )
    dashboard.add_argument("telemetry", nargs="?", default="results",
                           help="telemetry directory containing SERIES.json "
                                "(default: results)")
    dashboard.add_argument("--category", default=None,
                           help="restrict to one site_category cohort")
    dashboard.add_argument("--from-logs", action="store_true",
                           help="treat TELEMETRY as a wide-event log store "
                                "directory and rebuild the matrix from raw "
                                "records instead of SERIES.json")

    serve = sub.add_parser("serve", help="serve a directory over localhost HTTP")
    serve.add_argument("directory")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--requests", type=int, default=None,
                       help="exit after N requests (default: run until Ctrl-C)")

    serve_metrics = sub.add_parser(
        "serve-metrics",
        help="Prometheus /metrics + /healthz over a telemetry export "
             "or the live in-process registries",
    )
    serve_metrics.add_argument("telemetry", nargs="?", default=None,
                               help="telemetry directory with METRICS.json/"
                                    "SERIES.json to serve statically "
                                    "(default: scrape the live in-process "
                                    "registries instead)")
    serve_metrics.add_argument("--port", type=int, default=0,
                               help="TCP port (default: 0 = ephemeral)")
    serve_metrics.add_argument("--requests", type=int, default=None,
                               help="exit after N requests "
                                    "(default: run until Ctrl-C)")
    serve_metrics.add_argument("--interval", type=float, default=5.0,
                               help="live-mode scrape interval in seconds "
                                    "(default: 5)")
    serve_metrics.add_argument("--jsonl", metavar="PATH", default=None,
                               help="live mode: also append each scrape's "
                                    "deltas to PATH as OTLP-style JSONL")

    alerts_cmd = sub.add_parser(
        "alerts",
        help="evaluate SLO/alert rules over a telemetry export; "
             "exit 1 when any rule fires (CI gate)",
    )
    alerts_cmd.add_argument("telemetry", nargs="?", default="results",
                            help="telemetry directory containing METRICS.json "
                                 "and SERIES.json (default: results)")
    alerts_cmd.add_argument("--rules", metavar="FILE", required=True,
                            help="declarative rule file (TOML [[rule]] tables "
                                 "or JSON {\"rules\": [...]})")
    alerts_cmd.add_argument("--baseline", metavar="DIR", default=None,
                            help="baseline telemetry directory for drift "
                                 "rules (required by kind=drift)")
    alerts_cmd.add_argument("--log-store", metavar="DIR", default=None,
                            help="wide-event log store directory "
                                 "(required by kind=log_volume)")

    logs = sub.add_parser(
        "logs",
        help="query the request-plane wide-event log store",
    )
    logs.add_argument("log_dir",
                      help="log-store directory written by "
                           "`repro reproduce --log-dir`")
    logs_sub = logs.add_subparsers(dest="logs_command", required=True)

    def _add_log_filters(command: argparse.ArgumentParser) -> None:
        command.add_argument("--agent", default=None,
                             help="keep one agent label (e.g. GPTBot)")
        command.add_argument("--host", default=None, help="keep one host")
        command.add_argument("--outcome", default=None,
                             help="keep one outcome (served, blocked_403, ...)")
        command.add_argument("--site-category", dest="category", default=None,
                             help="keep one site category cohort")
        command.add_argument("--month", type=int, default=None,
                             help="keep one simulated month index")
        command.add_argument("--robots-only", action="store_true",
                             help="keep robots.txt fetches only")

    logs_query = logs_sub.add_parser(
        "query", help="print matching records in global-sequence order")
    _add_log_filters(logs_query)
    logs_query.add_argument("--limit", type=int, default=20,
                            help="stop after N records (default: 20)")

    logs_top = logs_sub.add_parser(
        "top", help="rank the most-requested values of one dimension")
    logs_top.add_argument("dimension", choices=LOG_DIMENSIONS)
    _add_log_filters(logs_top)
    logs_top.add_argument("-k", type=int, default=10,
                          help="list the top K values (default: 10)")

    logs_timeline = logs_sub.add_parser(
        "timeline", help="per-agent monthly request-count matrix")
    _add_log_filters(logs_timeline)

    logs_sub.add_parser(
        "verify",
        help="re-hash every shard and check record geometry/ordering")

    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        return handle.read()


def _cmd_check(args: argparse.Namespace) -> int:
    policy = RobotsPolicy(_read(args.robots_file))
    verdict = policy.verdict(args.agent, args.path)
    status = "ALLOWED" if verdict.allowed else "DISALLOWED"
    rule = (
        f' (matched rule: {"Allow" if verdict.rule.allow else "Disallow"}: '
        f"{verdict.rule.path!r}, line {verdict.rule.line_number})"
        if verdict.rule
        else " (no matching rule; protocol default)"
    )
    print(f"{args.agent} -> {args.path}: {status}{rule}")
    return 0 if verdict.allowed else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    text = _read(args.robots_file)
    agents = args.agents or AI_USER_AGENT_TOKENS
    rows = []
    for agent in agents:
        result = classify(text, agent, require_explicit=not args.include_wildcard)
        rows.append((agent, result.level.name, result.explicit, result.explicit_allow))
    print(render_table(["agent", "level", "explicit rule", "explicit allow"], rows))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    findings = lint(_read(args.robots_file))
    if not findings:
        print("no findings")
        return 0
    rows = [(f.line_number or "-", f.severity.value, f.code, f.message) for f in findings]
    print(render_table(["line", "severity", "code", "message"], rows))
    return 1 if any(f.severity.value in ("warning", "error") for f in findings) else 0


def _cmd_compare(args: argparse.Namespace) -> int:
    text = _read(args.robots_file)
    compliant = RobotsPolicy(text)
    legacy = LegacyPolicy(text)
    rows = []
    disagreements = 0
    for agent in args.agents:
        for path in args.paths:
            a = compliant.is_allowed(agent, path)
            b = legacy.is_allowed(agent, path)
            if a != b:
                disagreements += 1
            rows.append((agent, path, "allow" if a else "deny",
                         "allow" if b else "deny", "" if a == b else "<-- differs"))
    print(render_table(["agent", "path", "RFC 9309", "legacy parser", ""], rows))
    print(f"\n{disagreements} disagreement(s)")
    return 0


def _cmd_aitxt(args: argparse.Namespace) -> int:
    policy = AiTxtPolicy(_read(args.aitxt_file))
    permitted = policy.may_train(args.path)
    print(f"{args.path}: training use {'PERMITTED' if permitted else 'NOT permitted'}")
    return 0 if permitted else 1


def _cmd_agents(_: argparse.Namespace) -> int:
    registry = build_registry()
    rows = [
        (a.token, a.category.value, a.company, a.publishes_ips.value,
         a.claims_respect.value, a.respects_in_practice.value)
        for a in registry
    ]
    print(render_table(
        ["User Agent", "Category", "Company", "Publish IP", "Claims Respect",
         "Respects (paper)"],
        rows,
    ))
    return 0


def _fast_config():
    from .web.population import PopulationConfig

    return PopulationConfig(universe_size=1200, list_size=800, top5k_cut=100,
                            audit_size=300)


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .report.orchestrator import run_one

    result = run_one(
        args.experiment_id, config=_fast_config() if args.fast else None
    )
    print(result.text)
    print("\nmetrics:")
    for name, value in sorted(result.metrics.items()):
        print(f"  {name} = {value:.4f}")
    return 0


def _parse_param_edits(items):
    """``KEY.PARAM=VALUE`` strings -> ``{key: {param: value}}``.

    Values parse as JSON when possible (``4``, ``true``, ``"x"``) and
    fall back to the raw string otherwise.
    """
    import json

    overrides = {}
    for item in items:
        head, sep, raw = item.partition("=")
        key, dot, param = head.partition(".")
        if not sep or not dot or not key or not param:
            raise ValueError(
                f"malformed --set {item!r}; expected KEY.PARAM=VALUE"
            )
        try:
            value = json.loads(raw)
        except ValueError:
            value = raw
        overrides.setdefault(key, {})[param] = value
    return overrides


#: Human explanations for RunReport.incremental dispositions.
_DISPOSITION_NOTES = {
    "hit": "assembled from store (inputs unchanged)",
    "run:first": "ran (no stored result)",
    "run:invalidated": "ran (config/parameter inputs changed)",
    "bypassed:chaos": "store bypassed (fault plan armed)",
}


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .net.logstore import LogStoreError
    from .report.orchestrator import run_all
    from .web.archive import ArchiveError

    incremental = args.incremental or args.explain_invalidation
    if args.strata and (incremental or args.only or args.param_edits):
        print("repro reproduce: --strata runs the streaming archive battery "
              "and cannot combine with --only/--incremental/--set",
              file=sys.stderr)
        return 2
    try:
        param_overrides = (
            _parse_param_edits(args.param_edits) if args.param_edits else None
        )
    except ValueError as exc:
        print(f"repro reproduce: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_all(
            config=_fast_config() if args.fast else None,
            workers=args.workers,
            experiments=args.only,
            collect_workers=args.workers,
            telemetry_dir=args.telemetry_dir,
            incremental=args.incremental_dir if incremental else None,
            param_overrides=param_overrides,
            strata=args.strata,
            shards=args.shards,
            archive_dir=args.archive_dir,
            profile=args.profile,
            log_dir=args.log_dir,
        )
    except (ArchiveError, LogStoreError) as exc:
        # Archive/log-store problems (truncation, digest mismatch,
        # missing shards) surface as one operator-facing line, never a
        # traceback.
        print(f"repro reproduce: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        print(f"repro reproduce: {exc}", file=sys.stderr)
        return 2
    for result in report.results:
        print(f"== {result.title} ==")
        print(result.text)
        print()
    print(f"ran {len(report.results)} experiment(s) "
          f"[mode={report.mode}, workers={report.workers}] "
          f"world {report.world_seconds:.1f}s, total {report.total_seconds:.1f}s")
    for entry in report.to_timings()["experiments"]:
        print(f"  {entry['key']:12s} {entry['seconds']:.2f}s")
    if report.incremental:
        reran = [k for k, v in report.incremental.items() if v.startswith("run:")]
        hits = sum(1 for v in report.incremental.values() if v == "hit")
        print(f"incremental: {hits} from store, {len(reran)} re-ran "
              f"[{args.incremental_dir}]")
    if args.explain_invalidation:
        print("invalidation report:")
        for key, disposition in report.incremental.items():
            note = _DISPOSITION_NOTES.get(disposition, disposition)
            print(f"  {key:12s} {disposition:16s} {note}")
    if args.profile and report.profiler is not None:
        print("profile (per phase):")
        for line in report.profiler.summary_lines():
            print(f"  {line}")
    if args.telemetry_dir:
        print(f"telemetry: {args.telemetry_dir}/METRICS.json, "
              f"{args.telemetry_dir}/SERIES.json, "
              f"{args.telemetry_dir}/TRACE.jsonl "
              f"({len(report.spans)} spans)"
              + (f", {args.telemetry_dir}/PROFILE.json" if args.profile else ""))
    if args.log_dir:
        features_dir = args.telemetry_dir or args.log_dir
        print(f"log store: {args.log_dir} "
              f"(features: {features_dir}/FEATURES.json; "
              f"behavioral verdicts: {features_dir}/BEHAVIORAL.json; "
              f"query with `repro logs {args.log_dir} ...`)")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Graceful degradation as a testable invariant.

    Runs the requested experiments twice over fresh (uncached) worlds --
    once fault-free, once under the named fault plan -- and compares the
    result texts byte for byte.  With the retry/confirmation hardening
    active, a healable plan must produce zero drift (exit 0); with
    ``--no-retries`` the same faults are expected to leak into the
    results (exit 1), which is the point of the demonstration.
    """
    from contextlib import nullcontext
    from pathlib import Path

    from .net.chaos import plan, plan_names, retries_disabled
    from .obs.metrics import shared_registry
    from .report.orchestrator import run_all
    from .web.worldstore import WorldStore

    try:
        fault_plan = plan(args.plan)
    except KeyError:
        print(f"repro chaos: unknown plan {args.plan!r}; "
              f"known plans: {', '.join(plan_names())}", file=sys.stderr)
        return 2

    config = _fast_config() if args.fast else None
    keys = args.experiments

    # Fresh stores on both sides: the content-addressed world cache must
    # never hand a fault-free world to the chaos run or vice versa.
    print(f"baseline run ({len(keys)} experiment(s), fault-free)...")
    baseline = run_all(config, experiments=keys, store=WorldStore())

    registry = shared_registry()
    before_errors = registry.counter_totals("net.errors")
    hardening = retries_disabled() if args.no_retries else nullcontext()
    print(f"chaos run (plan={fault_plan.name!r}, seed={args.seed}, "
          f"retries {'DISABLED' if args.no_retries else 'enabled'})...")
    with hardening:
        chaotic = run_all(
            config,
            experiments=keys,
            store=WorldStore(),
            fault_plan=fault_plan,
            chaos_seed=args.seed,
        )

    faults = registry.counter_totals("chaos.faults")
    after_errors = registry.counter_totals("net.errors")
    print("\nfaults injected:")
    for key, value in faults.items():
        if value:
            print(f"  {key} = {value}")
    if not any(faults.values()):
        print("  (none -- plan matched no hosts at this scale/seed)")
    error_delta = {
        key: after_errors.get(key, 0) - before_errors.get(key, 0)
        for key in after_errors
        if after_errors.get(key, 0) != before_errors.get(key, 0)
    }
    if error_delta:
        print("transport errors during chaos run:")
        for key, value in sorted(error_delta.items()):
            print(f"  {key} = +{value}")

    if args.results_dir:
        for label, report in (("baseline", baseline), ("chaos", chaotic)):
            directory = Path(args.results_dir) / label
            directory.mkdir(parents=True, exist_ok=True)
            for result in report.results:
                atomic_write(
                    directory / f"{result.experiment_id}.txt", result.text + "\n"
                )
        print(f"result texts written under {args.results_dir}/")

    drifted = []
    for base_result, chaos_result in zip(baseline.results, chaotic.results):
        identical = base_result.text == chaos_result.text
        status = "identical" if identical else "DRIFTED"
        print(f"  {base_result.experiment_id:12s} {status}")
        if not identical:
            drifted.append(base_result.experiment_id)

    if drifted:
        print(f"\nRESULT: DRIFT in {', '.join(drifted)} "
              f"under plan {fault_plan.name!r}"
              + (" (expected: retries disabled)" if args.no_retries else ""))
        return 1
    print(f"\nRESULT: OK -- results byte-identical under plan "
          f"{fault_plan.name!r} (seed {args.seed})")
    return 0


def _print_metrics_tables(payload: dict, source: str, section) -> None:
    sections = [section] if section else ["counters", "gauges", "histograms"]
    print(f"metrics export: {source} "
          f"(schema v{payload.get('schema_version', '?')})")
    if "counters" in sections:
        rows = sorted(payload.get("counters", {}).items())
        print(f"\ncounters ({len(rows)}):")
        print(render_table(["counter", "total"], rows) if rows else "  (none)")
    if "gauges" in sections:
        rows = [(name, f"{value:g}")
                for name, value in sorted(payload.get("gauges", {}).items())]
        print(f"\ngauges ({len(rows)}):")
        print(render_table(["gauge", "value"], rows) if rows else "  (none)")
    if "histograms" in sections:
        rows = []
        for name, hist in sorted(payload.get("histograms", {}).items()):
            count = hist.get("count", 0)
            total = hist.get("sum", 0.0)
            mean = total / count if count else 0.0
            rows.append((name, count, f"{total:g}", f"{mean:.2f}"))
        print(f"\nhistograms ({len(rows)}):")
        print(render_table(["histogram", "count", "sum", "mean"], rows)
              if rows else "  (none)")


def _print_diff(diff) -> None:
    if diff.timing_regressions:
        rows = [(name, f"{a:.3f}", f"{b:.3f}", f"+{(b - a) / a * 100.0:.0f}%")
                for name, a, b in diff.timing_regressions]
        print(f"timing regressions ({len(rows)}):")
        print(render_table(["span", "baseline s", "candidate s", "change"], rows))
    if diff.timing_improvements:
        rows = [(name, f"{a:.3f}", f"{b:.3f}", f"{(b - a) / a * 100.0:.0f}%")
                for name, a, b in diff.timing_improvements]
        print(f"\ntiming improvements ({len(rows)}):")
        print(render_table(["span", "baseline s", "candidate s", "change"], rows))
    drift = [("counter", *row) for row in diff.counter_drift]
    drift += [("series", *row) for row in diff.series_drift]
    if drift:
        rows = [(kind, key, f"{a:g}", f"{b:g}") for kind, key, a, b in drift]
        print(f"\nmetric drift ({len(rows)}):")
        print(render_table(["kind", "key", "baseline", "candidate"], rows))
    for label, keys in (("removed", diff.removed), ("added", diff.added)):
        if keys:
            print(f"\n{label} keys ({len(keys)}):")
            for key in keys:
                print(f"  {key}")
    if diff.has_regressions:
        print("\nRESULT: REGRESSED "
              f"(threshold {diff.threshold:.0%}; see above)")
    else:
        print(f"\nRESULT: OK (no drift beyond {diff.threshold:.0%})")


def _print_cache_effectiveness(payload) -> None:
    """Incremental cache effectiveness, when the run recorded any.

    Reads the ``incremental.*`` counters (experiment-level store
    decisions), the ``delta.*`` gauges, and the
    ``measure.policy_cache.persistent_hits`` gauge (body-level
    persistent probes) out of a METRICS.json payload.
    """
    counters = payload.get("counters", {})
    gauges = payload.get("gauges", {})
    hits = counters.get("incremental.hits", 0)
    misses = counters.get("incremental.misses", 0)
    invalidations = counters.get("incremental.invalidations", 0)
    decisions = hits + misses + invalidations
    persistent = gauges.get("measure.policy_cache.persistent_hits", 0)
    if not decisions and not persistent:
        return
    print("\nincremental cache effectiveness:")
    if decisions:
        print(f"  experiments: {hits}/{decisions} from store "
              f"({misses} first-run, {invalidations} invalidated)")
    if persistent:
        print(f"  body verdicts: {persistent:.0f} persistent hits")


def _parse_rendered_labels(key: str, prefix: str) -> dict:
    """``name{a=1,b=x}`` -> ``{"a": "1", "b": "x"}`` for *prefix* keys."""
    body = key[len(prefix) + 1 : -1]
    return dict(part.split("=", 1) for part in body.split(",") if "=" in part)


def _print_shard_balance(payload) -> None:
    """Per-shard site balance and archive volume, when a run sharded.

    Reads the ``shard.sites{shard=...,stage=...}`` counters (one per
    shard per pipeline stage) and the ``archive.bytes_written`` family
    out of a METRICS.json payload.  Silent when the run never sharded.
    """
    counters = payload.get("counters", {})
    stages: dict = {}
    for key, total in counters.items():
        if key.startswith("shard.sites{"):
            labels = _parse_rendered_labels(key, "shard.sites")
            stage = labels.get("stage", "?")
            stages.setdefault(stage, {})[int(labels.get("shard", -1))] = total
    archive_bytes = sum(
        total for key, total in counters.items()
        if key == "archive.bytes_written" or key.startswith("archive.bytes_written{")
    )
    if not stages and not archive_bytes:
        return
    print("\nshard balance:")
    for stage in sorted(stages):
        sites = [stages[stage][shard] for shard in sorted(stages[stage])]
        total = sum(sites)
        mean = total / len(sites) if sites else 0.0
        skew = max(sites) / mean if mean else 0.0
        print(f"  {stage}: {total} sites over {len(sites)} shard(s), "
              f"peak {max(sites)} ({skew:.2f}x mean)")
    if archive_bytes:
        print(f"  archive: {archive_bytes} bytes written")


def _print_archive_probes(payload) -> None:
    """Per-shard archive residency, when a strata run published probes.

    Reads the ``archive.*{shard=...}`` gauge families (data bytes on
    disk, mmap'd bytes currently mapped, body-cache occupancy) written
    by ``ArchiveSet.publish_probes``.  Silent when the run never opened
    a sharded archive.
    """
    gauges = payload.get("gauges", {})
    shards: dict = {}
    for key, value in gauges.items():
        if key.startswith("archive.") and "{" in key:
            name = key.partition("{")[0]
            field = name[len("archive."):]
            labels = _parse_rendered_labels(key, name)
            shard = labels.get("shard")
            if shard is None:
                continue
            label = (labels.get("stratum", ""), shard)
            shards.setdefault(label, {})[field] = value
    if not shards:
        return
    print("\narchive probes (per shard):")
    rows = []
    for (stratum, shard), fields in sorted(shards.items()):
        rows.append((
            stratum or "-",
            shard,
            f"{fields.get('data_bytes', 0):.0f}",
            f"{fields.get('mapped_bytes', 0):.0f}",
            f"{fields.get('body_cache_entries', 0):.0f}",
            f"{fields.get('body_cache_chars', 0):.0f}",
        ))
    print(render_table(
        ["stratum", "shard", "data B", "mapped B", "cached bodies", "cached chars"],
        rows,
    ))


def _print_profile(directory) -> None:
    """The PROFILE.json phase table, when the run profiled.

    Silent when the directory has no (or a corrupt) profile artifact --
    profiling is opt-in and most telemetry exports won't carry one.
    """
    from .obs.analyze import TelemetryError
    from .obs.profile import load_profile

    try:
        payload = load_profile(directory / "PROFILE.json")
    except TelemetryError:
        return
    phases = payload.get("phases", [])
    if not phases:
        return
    print(f"\nprofile ({len(phases)} phase(s)):")
    rows = []
    for phase in phases:
        peak = phase.get("memory_peak_bytes")
        delta = phase.get("memory_delta_bytes")
        cpu = phase.get("cpu_seconds")
        rows.append((
            phase.get("name", "?"),
            f"{phase.get('seconds', 0.0):.3f}",
            f"{peak / 1e6:.2f}" if peak is not None else "-",
            f"{delta / 1e6:+.2f}" if delta is not None else "-",
            f"{cpu:.3f}" if cpu is not None else "-",
        ))
    print(render_table(
        ["phase", "wall s", "peak MB", "delta MB", "cpu s"], rows
    ))


def _print_behavioral(directory) -> None:
    """The BEHAVIORAL.json verdict summary, when the run exported one.

    Silent when the directory has no (or a corrupt) verdict artifact --
    only runs with a log store produce it.
    """
    import json

    path = directory / "BEHAVIORAL.json"
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return
    summary = payload.get("summary", {})
    if not summary:
        return
    total = sum(summary.values())
    print(f"\nbehavioral verdicts ({total} (agent, host) pair(s)):")
    rows = [(verdict, count) for verdict, count in sorted(summary.items())]
    print(render_table(["verdict", "pairs"], rows))
    gated = [
        (agent, host, entry["verdict"], entry["score"],
         " ".join(entry.get("signals", ())))
        for agent, hosts in sorted(payload.get("verdicts", {}).items())
        for host, entry in sorted(hosts.items())
        if entry.get("verdict") != "allow"
    ]
    if gated:
        print(f"\ngated pairs ({len(gated)}):")
        print(render_table(["agent", "host", "verdict", "score", "signals"],
                           gated))


def _cmd_stats_from_logs(target: str) -> int:
    """``repro stats --from-logs``: summarize a log store's records."""
    from .net.logstore import LogStore, LogStoreError
    from .obs.logql import LogFilter, group_by, query, top_k

    try:
        with LogStore.open(target) as store:
            digest = store.config_digest[:12] if store.config_digest else "-"
            print(f"log store: {target} ({store.n_records} record(s), "
                  f"{store.n_shards} shard(s), config {digest})")
            outcomes = group_by(store, ("outcome",))
            robots = len(query(store, LogFilter(robots_only=True)))
            agents = top_k(store, "agent", k=10)
    except LogStoreError as exc:
        print(f"repro stats: {exc}", file=sys.stderr)
        return 2

    rows = [(outcome, count) for (outcome,), count in outcomes.items()]
    print(f"\noutcomes ({len(rows)}):")
    print(render_table(["outcome", "requests"], rows) if rows else "  (none)")
    print(f"\nrobots.txt fetches: {robots}")
    print(f"\ntop agents ({len(agents)}):")
    print(render_table(["agent", "requests"], agents) if agents else "  (none)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .obs.analyze import (
        TelemetryError,
        critical_path,
        diff_runs,
        folded_stacks,
        load_metrics,
        load_trace,
        worker_utilization,
    )

    if args.from_logs:
        return _cmd_stats_from_logs(args.telemetry)

    try:
        if args.diff is not None:
            diff = diff_runs(args.diff[0], args.diff[1],
                             threshold=args.threshold)
            _print_diff(diff)
            return 1 if diff.has_regressions else 0

        target = Path(args.telemetry)
        metrics_path = target / "METRICS.json" if target.is_dir() else target
        trace_path = metrics_path.parent / "TRACE.jsonl"

        wants_trace = args.critical_path or args.utilization or args.folded
        if not wants_trace:
            payload = load_metrics(metrics_path)
            _print_metrics_tables(payload, str(metrics_path), args.section)
            _print_cache_effectiveness(payload)
            _print_shard_balance(payload)
            _print_archive_probes(payload)
            _print_profile(metrics_path.parent)
            _print_behavioral(metrics_path.parent)
            return 0

        records = load_trace(trace_path)
        if args.critical_path:
            chain = critical_path(records)
            print(f"critical path ({len(chain)} spans, "
                  f"{sum(float(r.get('duration_seconds', 0.0)) for r in chain[:1]):.3f}s root):")
            for depth, record in enumerate(chain):
                print(f"  {'  ' * depth}{record.get('name', '?')} "
                      f"{float(record.get('duration_seconds', 0.0)):.3f}s")
            try:
                _print_cache_effectiveness(load_metrics(metrics_path))
            except TelemetryError:
                pass  # a trace without metrics is still analyzable
        if args.utilization:
            timeline = worker_utilization(records)
            rows = [(f"{seg['start']:.3f}", f"{seg['end']:.3f}", seg["active"])
                    for seg in timeline]
            print(f"\nworker utilization ({len(rows)} intervals):")
            print(render_table(["start s", "end s", "active"], rows)
                  if rows else "  (no experiment spans)")
        if args.folded:
            lines = folded_stacks(records)
            atomic_write(args.folded, "\n".join(lines) + "\n")
            print(f"\nwrote {len(lines)} folded stack lines to {args.folded}")
        return 0
    except TelemetryError as exc:
        print(f"repro stats: {exc}", file=sys.stderr)
        return 2


def _dashboard_matrix_from_logs(target: str, category):
    """The dashboard's ``{agent: {month: cell}}`` shape from raw records.

    Returns ``(matrix, source_label)`` or raises SystemExit-free errors
    via the ``(None, exit_code)`` convention the caller unwraps.
    """
    from .net.logstore import LogStore, LogStoreError
    from .obs.analyze import BLOCKED_OUTCOMES
    from .obs.logql import LogFilter, group_by

    try:
        with LogStore.open(target) as store:
            if category is not None:
                known = sorted(
                    value for (value,) in group_by(store, ("category",))
                )
                if category not in known:
                    vocabulary = ", ".join(known) if known else "(none recorded)"
                    print(f"repro dashboard: unknown category "
                          f"{category!r}; known categories: {vocabulary}",
                          file=sys.stderr)
                    return None, 2
            counts = group_by(
                store,
                ("agent", "month", "outcome"),
                LogFilter(category=category) if category else None,
            )
    except LogStoreError as exc:
        print(f"repro dashboard: {exc}", file=sys.stderr)
        return None, 2

    matrix: dict = {}
    for (agent, month, outcome), n in counts.items():
        cell = matrix.setdefault(agent, {}).setdefault(
            month, {"requests": 0, "blocked": 0, "challenged": 0}
        )
        cell["requests"] += n
        if outcome in BLOCKED_OUTCOMES:
            cell["blocked"] += n
        elif outcome == "challenged":
            cell["challenged"] += n
    return matrix, 0


def _cmd_dashboard(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .crawlers.commoncrawl import month_label
    from .obs.analyze import (
        TelemetryError,
        dashboard_matrix,
        known_categories,
        load_series,
    )

    cohort = f"site_category={args.category}" if args.category else "all sites"
    if args.from_logs:
        matrix, code = _dashboard_matrix_from_logs(args.telemetry, args.category)
        if matrix is None:
            return code
        source = f"log store {args.telemetry}"
    else:
        try:
            series_path = Path(args.telemetry) / "SERIES.json"
            payload = load_series(series_path)
            if args.category is not None:
                known = known_categories(payload)
                if args.category not in known:
                    vocabulary = ", ".join(known) if known else "(none recorded)"
                    print(f"repro dashboard: unknown category "
                          f"{args.category!r}; known categories: {vocabulary}",
                          file=sys.stderr)
                    return 2
            matrix = dashboard_matrix(payload, category=args.category)
        except TelemetryError as exc:
            print(f"repro dashboard: {exc}", file=sys.stderr)
            return 2
        source = str(series_path)

    if not matrix:
        print(f"no {'records' if args.from_logs else 'sim.requests series'} "
              f"for {cohort} in {source}")
        return 0

    months = sorted({m for rows in matrix.values() for m in rows})
    print(f"operator dashboard ({cohort}); cells are "
          "requests / blocked / challenged per simulated month")
    table_rows = []
    for agent in sorted(matrix):
        row = [agent]
        for month in months:
            cell = matrix[agent].get(month)
            row.append(
                f"{cell['requests']}/{cell['blocked']}/{cell['challenged']}"
                if cell else "-"
            )
        table_rows.append(tuple(row))
    headers = ["agent"] + [month_label(m) if m >= 0 else "?" for m in months]
    print(render_table(headers, table_rows))
    try:
        from .obs.analyze import load_metrics

        _print_shard_balance(load_metrics(Path(args.telemetry) / "METRICS.json"))
    except TelemetryError:
        pass  # a series-only telemetry dir is still a valid dashboard
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from .net.realserver import RealHttpServer
    from .net.server import Website

    site = Website.from_directory(args.directory)
    with RealHttpServer(site, port=args.port) as server:
        print(f"serving {args.directory} at http://{server.address}/ "
              f"({len(site.pages)} pages)")
        try:
            while True:
                if args.requests is not None and len(site.access_log) >= args.requests:
                    break
                time.sleep(0.05)
        except KeyboardInterrupt:
            pass
    print(f"served {len(site.access_log)} request(s)")
    return 0


def _cmd_serve_metrics(args: argparse.Namespace) -> int:
    """Prometheus text exposition over HTTP, static or live.

    With a telemetry directory: serve its METRICS.json/SERIES.json
    exactly as written (the rendered counter totals are byte-for-byte
    the export's).  Without one: scrape the live in-process registries
    every ``--interval`` seconds and serve the latest cumulative state,
    optionally streaming each scrape's deltas to ``--jsonl``.
    """
    import time
    from pathlib import Path

    from .obs.analyze import TelemetryError, load_metrics, load_series
    from .obs.live import JsonlSink, LiveTelemetry, MetricsHTTPServer

    live = None
    if args.telemetry is not None:
        directory = Path(args.telemetry)
        try:
            metrics_payload = load_metrics(directory / "METRICS.json")
            series_payload = load_series(directory / "SERIES.json")
        except TelemetryError as exc:
            print(f"repro serve-metrics: {exc}", file=sys.stderr)
            return 2
        source = lambda: (metrics_payload, series_payload)  # noqa: E731
        health = lambda: {"mode": "static", "telemetry": str(directory)}  # noqa: E731
        server = MetricsHTTPServer(source, health=health, port=args.port)
        label = f"static export from {directory}"
    else:
        live = LiveTelemetry()
        if args.jsonl:
            live.add_sink(JsonlSink(args.jsonl))
        server = live.serve(port=args.port)
        live.start(interval_seconds=args.interval)
        label = f"live registries (scrape every {args.interval:g}s)"

    if live is None:
        server.start()
    print(f"serving {label} at {server.url}/metrics "
          f"(health: {server.url}/healthz)")
    try:
        while True:
            if args.requests is not None and server.request_count >= args.requests:
                break
            time.sleep(0.05)
    except KeyboardInterrupt:
        pass
    finally:
        if live is not None:
            live.stop()
        server.stop()
    print(f"handled {server.request_count} request(s)")
    return 0


def _cmd_alerts(args: argparse.Namespace) -> int:
    """The SLO gate: evaluate declarative rules over a telemetry export.

    Exit codes follow the CI-gate convention: 0 clean, 1 when any rule
    fires, 2 for operator errors (bad rule file, missing telemetry,
    drift rules without a ``--baseline``).
    """
    from pathlib import Path

    from .obs.alerts import AlertEngine, AlertError, load_rules
    from .obs.analyze import TelemetryError, load_metrics, load_series

    try:
        rules = load_rules(args.rules)
    except AlertError as exc:
        print(f"repro alerts: {exc}", file=sys.stderr)
        return 2

    directory = Path(args.telemetry)
    try:
        metrics_payload = load_metrics(directory / "METRICS.json")
        series_payload = load_series(directory / "SERIES.json")
        baseline_metrics = baseline_series = None
        if args.baseline:
            baseline = Path(args.baseline)
            baseline_metrics = load_metrics(baseline / "METRICS.json")
            baseline_series = load_series(baseline / "SERIES.json")
    except TelemetryError as exc:
        print(f"repro alerts: {exc}", file=sys.stderr)
        return 2

    log_timelines = None
    if args.log_store:
        from .net.logstore import LogStore, LogStoreError
        from .obs.logql import timelines

        try:
            with LogStore.open(args.log_store) as store:
                log_timelines = timelines(store)
        except LogStoreError as exc:
            print(f"repro alerts: {exc}", file=sys.stderr)
            return 2

    engine = AlertEngine(rules, baseline_metrics=baseline_metrics,
                         baseline_series=baseline_series)
    try:
        events = engine.evaluate(metrics=metrics_payload,
                                 series=series_payload,
                                 log_timelines=log_timelines)
    except AlertError as exc:
        print(f"repro alerts: {exc}", file=sys.stderr)
        return 2

    print(f"evaluated {len(rules)} rule(s) against {directory}"
          + (f" (baseline: {args.baseline})" if args.baseline else "")
          + (f" (log store: {args.log_store})" if args.log_store else ""))
    if not events:
        print("RESULT: OK -- no alerts fired")
        return 0
    for event in events:
        print(f"  [{event.severity.upper():5s}] {event.rule}: {event.message}")
    print(f"RESULT: FIRING -- {len(events)} alert(s)")
    return 1


def _cmd_logs(args: argparse.Namespace) -> int:
    """Operator console over the wide-event log store.

    Every subcommand is a pure function of the archive bytes, so
    identical stores always print identical output.  Exit codes: 0 on
    success, 2 for operator errors (missing/corrupt store) as one
    stderr line.
    """
    from .crawlers.commoncrawl import month_label
    from .net.logstore import LogStore, LogStoreError
    from .obs.logql import LogFilter, query, timelines, top_k

    where = LogFilter(
        agent=getattr(args, "agent", None),
        host=getattr(args, "host", None),
        outcome=getattr(args, "outcome", None),
        category=getattr(args, "category", None),
        month=getattr(args, "month", None),
        robots_only=getattr(args, "robots_only", False),
    )
    try:
        with LogStore.open(args.log_dir) as store:
            if args.logs_command == "verify":
                store.verify()
                print(f"OK -- {store.n_records} record(s) across "
                      f"{store.n_shards} shard(s) verified")
                return 0

            if args.logs_command == "query":
                records = query(store, where, limit=max(args.limit, 0))
                if not records:
                    print("no matching records")
                    return 0
                rows = [
                    (r.seq, month_label(r.month) if r.month >= 0 else "?",
                     r.agent, r.host, r.path, r.status, r.outcome)
                    for r in records
                ]
                print(render_table(
                    ["seq", "month", "agent", "host", "path", "status",
                     "outcome"],
                    rows,
                ))
                print(f"\n{len(records)} record(s) "
                      f"(of {store.n_records} in the store)")
                return 0

            if args.logs_command == "top":
                ranked = top_k(store, args.dimension, k=args.k, where=where)
                if not ranked:
                    print("no matching records")
                    return 0
                print(render_table([args.dimension, "requests"], ranked))
                return 0

            lines = timelines(store, where)
    except LogStoreError as exc:
        print(f"repro logs: {exc}", file=sys.stderr)
        return 2

    if not lines:
        print("no matching records")
        return 0
    months = sorted({m for per_month in lines.values() for m in per_month})
    rows = [
        tuple([agent] + [str(lines[agent].get(m, "-")) for m in months])
        for agent in lines
    ]
    headers = ["agent"] + [month_label(m) if m >= 0 else "?" for m in months]
    print("requests per agent per simulated month")
    print(render_table(headers, rows))
    return 0


_HANDLERS = {
    "check": _cmd_check,
    "classify": _cmd_classify,
    "lint": _cmd_lint,
    "compare": _cmd_compare,
    "aitxt": _cmd_aitxt,
    "agents": _cmd_agents,
    "experiment": _cmd_experiment,
    "reproduce": _cmd_reproduce,
    "chaos": _cmd_chaos,
    "stats": _cmd_stats,
    "dashboard": _cmd_dashboard,
    "serve": _cmd_serve,
    "serve-metrics": _cmd_serve_metrics,
    "alerts": _cmd_alerts,
    "logs": _cmd_logs,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
