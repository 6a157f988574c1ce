"""Command-line interface: ``rtlfixer``.

Subcommands:

* ``fix <file.v>``      -- debug a Verilog file with RTLFixer;
* ``compile <file.v>``  -- show compiler diagnostics (pick a flavour);
* ``dataset <out.json>``-- build the VerilogEval-syntax-equivalent
  dataset and save it as JSON;
* ``report``            -- run the full reproduction report (every
  table/figure), optionally fanned out with ``--jobs`` and made
  durable/resumable with ``--run-dir`` / ``--resume``.  Exit codes:
  0 success, 2 durable-run misuse, 3 failed work units were isolated,
  4 the circuit breaker tripped, 128+signum interrupted (first
  SIGINT/SIGTERM drains and checkpoints; a second aborts hard);
* ``serve``             -- run the repair service: an overload-safe
  asyncio HTTP/JSON front-end with bounded admission, per-tenant
  weighted fairness, per-request deadlines, SSE progress streaming,
  and two-stage graceful drain on SIGTERM (``--run-dir``/``--resume``
  make drained results replayable);
* ``fuzz``              -- fuzz the compiler front-end and the
  simulation sandbox, verifying the never-crash/never-hang invariants
  plus the engine sandbox-differential and cache/chaos transparency
  (``--seed``/``--iterations``).
"""

from __future__ import annotations

import argparse
import sys

from .scope import scoped


def _llm_line(ledger: dict, routing_text: str) -> str:
    """The ``# llm:`` stderr accounting line (fix and report share it)."""
    return (
        f"# llm: pool {routing_text}; {ledger['calls']} call(s), "
        f"{ledger['total_tokens']} tokens (~${ledger['cost_usd']:.4f}); "
        f"escalations={ledger['escalations']} failovers={ledger['failovers']} "
        f"hedges={ledger['hedges']} throttled={ledger['throttled']} "
        f"failures={ledger['failures']}"
    )


def _cmd_fix(args: argparse.Namespace) -> int:
    from .core import RTLFixer

    with open(args.file) as f:
        code = f.read()
    fixer = RTLFixer(
        prompting=args.prompting,
        compiler=args.compiler,
        use_rag=not args.no_rag and args.compiler != "simple",
        tier=args.tier,
        seed=args.seed,
        max_retries=args.max_retries,
        step_timeout=args.step_timeout,
        llm_pool=args.llm_pool,
        llm_escalate_after=args.llm_escalate_after,
        llm_hedge=args.llm_hedge,
        sim_limits=args.sim_limits,
    )
    counter = None
    fields = {}
    if args.llm_pool:
        from .runtime import TokenCounter

        counter = fields["token_counter"] = TokenCounter()
    with scoped(**fields):
        result = fixer.fix(code)
    if counter is not None:
        print(
            _llm_line(counter.as_dict(), fixer.model.routing.describe()),
            file=sys.stderr,
        )
    if args.transcript:
        print(result.transcript.render())
        print()
    if result.success:
        print(f"# fixed in {result.iterations} iteration(s)")
        print(result.final_code)
        return 0
    print("# could not fix; final attempt was:")
    print(result.final_code)
    return 1


def _cmd_compile(args: argparse.Namespace) -> int:
    from .diagnostics import compile_source

    with open(args.file) as f:
        code = f.read()
    result = compile_source(code, name=args.file, flavor=args.compiler)
    if result.ok:
        print("compile OK")
        return 0
    print(result.log)
    return 1


def _cmd_dataset(args: argparse.Namespace) -> int:
    from .dataset import build_syntax_dataset, verilogeval

    dataset = build_syntax_dataset(
        verilogeval(),
        samples_per_problem=args.samples,
        target_size=args.size,
        seed=args.seed,
    )
    dataset.save(args.out)
    stats = dataset.stats
    print(f"wrote {len(dataset)} entries to {args.out}")
    print(
        f"sampled={stats.sampled} failing={stats.failing_kept} "
        f"clusters={stats.clusters}"
    )
    for category, count in dataset.category_histogram().items():
        print(f"  {category}: {count}")
    return 0


def _job_count(text: str) -> int:
    """argparse type for ``--jobs``: a non-negative int (0 = all CPUs)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = all CPUs), got {value}"
        )
    return value


#: ``report`` exit codes beyond the usual 0/1 (documented in README):
#: misuse of the durable-run machinery (bad --resume, manifest mismatch).
EXIT_CHECKPOINT_MISUSE = 2
#: the run finished but isolated at least one failed work unit.
EXIT_FAILED_UNITS = 3
#: the circuit breaker tripped (trials were skipped fail-fast).
EXIT_BREAKER_TRIPPED = 4


def _cmd_report(args: argparse.Namespace) -> int:
    import signal as _signal

    from .errors import CheckpointError, RunInterrupted
    from .eval.report import ReportScale, run_full_report
    from .runtime import GracefulShutdown, atomic_write_text

    if args.resume and not args.run_dir:
        print("error: --resume requires --run-dir", file=sys.stderr)
        return EXIT_CHECKPOINT_MISUSE
    if args.breaker_threshold > 0 and args.on_error != "collect":
        print(
            "error: --breaker-threshold requires --on-error collect "
            "(skipped trials are collected records, not exceptions)",
            file=sys.stderr,
        )
        return EXIT_CHECKPOINT_MISUSE
    scale = ReportScale(
        dataset_size=args.dataset_size,
        dataset_samples_per_problem=args.dataset_samples,
        repeats=args.repeats,
        n_samples=args.n_samples,
        sim_samples=args.sim_samples,
        include_gpt4=not args.no_gpt4,
        simfix_samples_per_problem=args.simfix_samples,
        table4_samples_per_problem=args.table4_samples,
    )
    try:
        with GracefulShutdown() as shutdown:
            report = run_full_report(
                scale=scale,
                jobs=args.jobs,
                on_error=args.on_error,
                progress=lambda stage: print(f"[{stage}]", file=sys.stderr),
                run_dir=args.run_dir,
                resume=args.resume,
                breaker_threshold=args.breaker_threshold,
                should_stop=shutdown.requested,
                llm_pool=args.llm_pool,
                llm_escalate_after=args.llm_escalate_after,
                llm_hedge=args.llm_hedge,
            )
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT_MISUSE
    except RunInterrupted as exc:
        signum = shutdown.signum or exc.signum or _signal.SIGINT
        hint = (
            f"; resume with: rtlfixer report --run-dir {args.run_dir} --resume"
            if args.run_dir
            else "; pass --run-dir to make interrupted runs resumable"
        )
        print(f"# interrupted: {exc}{hint}", file=sys.stderr)
        return 128 + int(signum)
    if args.json:
        atomic_write_text(args.json, report.to_json())
        print(f"wrote {args.json}")
    else:
        print(report.to_markdown())
    stats = report.cache
    print(
        f"# compile cache: {stats['hits']} hits, {stats['misses']} misses, "
        f"{stats['evictions']} evictions, "
        f"{stats['compiles_avoided']} compiles avoided "
        f"(hit rate {stats['hit_rate']:.1%})",
        file=sys.stderr,
    )
    sim = report.sim
    print(
        f"# sim: engine={sim['engine']}, {sim['hits']} verdict-cache hits, "
        f"{sim['misses']} misses, {sim['simulations_avoided']} testbench "
        f"runs avoided (hit rate {sim['hit_rate']:.1%}), "
        f"limits={sim.get('limit_verdicts', 0)} "
        f"crashed={sim.get('crashed_verdicts', 0)} "
        f"watchdog={sim.get('watchdog_fires', 0)} "
        f"sim-deadlines={sim.get('deadline_fires', 0)}",
        file=sys.stderr,
    )
    if report.llm:
        print(_llm_line(report.llm, report.llm["routing"]), file=sys.stderr)
    if args.run_dir:
        print(
            f"# durable run: {report.resume.get('replayed', 0)} trial(s) "
            f"replayed from the journal, {report.resume.get('executed', 0)} "
            f"executed ({args.run_dir})",
            file=sys.stderr,
        )
    if report.breaker_tripped:
        print(
            f"# circuit breaker TRIPPED {report.breaker['trips']} time(s): "
            f"{report.breaker['skipped']} trial(s) skipped fail-fast "
            f"(final state: {report.breaker['state']})",
            file=sys.stderr,
        )
    if args.on_error == "collect":
        detail = ", ".join(f"{k}={v}" for k, v in report.failures.items())
        print(
            f"# failures: {report.failed_units} work unit(s) isolated "
            f"({detail})",
            file=sys.stderr,
        )
    if report.breaker_tripped:
        return EXIT_BREAKER_TRIPPED
    if report.failed_units:
        return EXIT_FAILED_UNITS
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.scheduler import SchedulerConfig
    from .service.server import RepairServer, ServerConfig

    weights: dict[str, float] = {}
    for item in args.weight or []:
        name, sep, value = item.partition("=")
        if not sep or not name:
            print(f"error: --weight wants TENANT=WEIGHT, got {item!r}",
                  file=sys.stderr)
            return 2
        try:
            weights[name] = float(value)
        except ValueError:
            print(f"error: --weight {item!r}: weight must be a number",
                  file=sys.stderr)
            return 2
    chaos = None
    if args.chaos_outage:
        start_text, sep, count_text = args.chaos_outage.partition(":")
        try:
            if not sep:
                raise ValueError
            chaos = (int(start_text), int(count_text))
        except ValueError:
            print(
                f"error: --chaos-outage wants START:COUNT, got "
                f"{args.chaos_outage!r}",
                file=sys.stderr,
            )
            return 2
    from .errors import CheckpointError

    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            scheduler=SchedulerConfig(
                capacity=args.capacity,
                max_queue_per_tenant=args.queue_per_tenant,
                max_queued=args.max_queued,
                tenant_rate=args.tenant_rate,
                tenant_burst=args.tenant_burst,
                weights=weights,
                default_deadline_s=args.default_deadline,
            ),
            breaker_threshold=args.breaker_threshold,
            probe_interval=args.probe_interval,
            run_dir=args.run_dir,
            resume=args.resume,
            max_retries=args.max_retries,
            step_timeout=args.step_timeout,
            llm_pool=args.llm_pool,
            work_delay=args.work_delay,
            chaos_outage=chaos,
        )
        server = RepairServer(config)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT_MISUSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return server.run()


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .runtime.faults import FaultInjector, FaultSpec
    from .runtime.fuzz import FuzzConfig, run_fuzz

    injector = None
    if args.chaos_rate > 0:
        injector = FaultInjector(
            seed=args.seed,
            compiler=FaultSpec(rate=args.chaos_rate, kind="garbage"),
            # The same rate drives the simulator seam, so the fuzzer's
            # sim-chaos-transparency invariant is exercised in one run.
            sim=FaultSpec(rate=args.chaos_rate, kind="garbage"),
        )
    report = run_fuzz(
        FuzzConfig(
            seed=args.seed,
            iterations=args.iterations,
            per_input_budget=args.per_input_budget,
            injector=injector,
        )
    )
    print(report.summary())
    return 0 if report.ok else 1


def _sim_limits_spec(text: str):
    """argparse type for ``--sim-limits``: a parsed SimLimits."""
    from .sim.limits import parse_sim_limits

    try:
        return parse_sim_limits(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_sim_limits_arg(parser: argparse.ArgumentParser) -> None:
    """The ``--sim-limits`` sandbox flag, shared by fix/report/serve."""
    parser.add_argument(
        "--sim-limits", type=_sim_limits_spec, default=None, metavar="SPEC",
        help="simulation sandbox budgets: 'default', 'fuzz', or "
        "comma-separated key=value overrides (keys: cycles, events, "
        "stmts, trace-entries, trace-bytes, display, wall; e.g. "
        "'cycles=2000,wall=5').  Budget overflows come back as typed "
        "limit verdicts instead of hangs or crashes",
    )


def _add_llm_pool_args(parser: argparse.ArgumentParser) -> None:
    """The ``--llm-*`` pool flags, shared by ``fix`` and ``report``."""
    parser.add_argument(
        "--llm-pool", metavar="SPEC", default=None,
        help="route model calls through a backend pool: comma-separated "
        "name=tier escalation ladder, weakest first (e.g. "
        "'cheap=gpt-3.5-sim,strong=gpt-4-sim'); *-sim tiers run the "
        "offline simulated backend, other names the OpenAI API "
        "(requires OPENAI_API_KEY).  Accounting is printed as a "
        "'# llm:' line on stderr",
    )
    parser.add_argument(
        "--llm-escalate-after", type=int, default=0, metavar="K",
        help="climb one pool rung after K failed agent iterations (the "
        "paper's gpt-3.5 -> gpt-4 axis as a runtime policy; 0 = never "
        "escalate, outage failover still applies)",
    )
    parser.add_argument(
        "--llm-hedge", type=float, default=0.0, metavar="RATE",
        help="seeded fraction of pool calls duplicated to the next rung "
        "for tail latency; the primary's reply is always preferred, so "
        "results never change (0 disables)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the rtlfixer argument parser."""
    parser = argparse.ArgumentParser(
        prog="rtlfixer",
        description="RTLFixer: automatic Verilog syntax-error fixing "
        "(DAC 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fix = sub.add_parser("fix", help="debug a Verilog file")
    fix.add_argument("file")
    fix.add_argument("--prompting", choices=["react", "oneshot"], default="react")
    fix.add_argument("--compiler", choices=["simple", "iverilog", "quartus"],
                     default="quartus")
    fix.add_argument("--no-rag", action="store_true")
    fix.add_argument("--tier", default="gpt-3.5-sim")
    fix.add_argument("--seed", type=int, default=0)
    fix.add_argument("--transcript", action="store_true",
                     help="print the ReAct Thought/Action/Observation trace")
    fix.add_argument(
        "--max-retries", type=int, default=2,
        help="bounded retries for transient model faults, with "
        "deterministic exponential backoff (0 disables the retry layer)",
    )
    fix.add_argument(
        "--step-timeout", type=float, default=None, metavar="SECONDS",
        help="per-model-call timeout budget; over-budget calls count as "
        "retryable timeouts (default: unlimited)",
    )
    _add_sim_limits_arg(fix)
    _add_llm_pool_args(fix)
    fix.set_defaults(func=_cmd_fix)

    comp = sub.add_parser("compile", help="compile and show diagnostics")
    comp.add_argument("file")
    comp.add_argument("--compiler", choices=["simple", "iverilog", "quartus"],
                      default="iverilog")
    comp.set_defaults(func=_cmd_compile)

    ds = sub.add_parser("dataset", help="build the VerilogEval-syntax dataset")
    ds.add_argument("out")
    ds.add_argument("--samples", type=int, default=20)
    ds.add_argument("--size", type=int, default=212)
    ds.add_argument("--seed", type=int, default=0)
    ds.set_defaults(func=_cmd_dataset)

    rep = sub.add_parser(
        "report",
        help="run the full reproduction report (all tables and figures)",
    )
    rep.add_argument(
        "--jobs", type=_job_count, default=1,
        help="parallel workers for experiment fan-out "
        "(1 = serial, 0 = all CPUs; results are identical at any job count)",
    )
    rep.add_argument(
        "--on-error", choices=["raise", "collect"], default="raise",
        help="failure handling for experiment work units: 'raise' aborts "
        "on the first failure (pending units are cancelled), 'collect' "
        "isolates failed units as per-unit failure records and finishes "
        "the run (counts are reported per stage)",
    )
    rep.add_argument("--json", metavar="OUT",
                     help="write the report as JSON here instead of markdown "
                     "(written atomically: write-temp-then-rename)")
    rep.add_argument(
        "--run-dir", metavar="DIR", default=None,
        help="make the run durable: journal every completed trial into "
        "DIR (crash-safe, fsync'd) and write DIR/report.json on success; "
        "a killed run can be continued with --resume",
    )
    rep.add_argument(
        "--resume", action="store_true",
        help="resume a previous --run-dir run: replay journaled trials "
        "and execute only the remainder (the final report is "
        "byte-identical to an uninterrupted run)",
    )
    rep.add_argument(
        "--breaker-threshold", type=int, default=0, metavar="N",
        help="arm a circuit breaker: after N consecutive non-transient "
        "trial failures the rest of the run is skipped fail-fast "
        "(requires --on-error collect; 0 disables; exit code 4 when "
        "tripped)",
    )
    rep.add_argument("--dataset-size", type=int, default=212)
    rep.add_argument("--dataset-samples", type=int, default=20)
    rep.add_argument("--repeats", type=int, default=3)
    rep.add_argument("--n-samples", type=int, default=10)
    rep.add_argument("--sim-samples", type=int, default=24)
    rep.add_argument("--simfix-samples", type=int, default=2)
    rep.add_argument("--table4-samples", type=int, default=2,
                     help="logic-buggy samples per problem for the Table-4 "
                     "functional-repair workload")
    rep.add_argument("--no-gpt4", action="store_true",
                     help="skip the GPT-4 ablation rows")
    rep.add_argument(
        "--sim-engine", choices=["compiled", "interp"], default=None,
        help="simulation engine for all testbench runs: 'compiled' "
        "(closure-lowered two-state fast path, the default) or 'interp' "
        "(the reference AST-walking 4-state interpreter); both produce "
        "bit-identical verdicts",
    )
    _add_sim_limits_arg(rep)
    _add_llm_pool_args(rep)
    rep.set_defaults(func=_cmd_report)

    srv = sub.add_parser(
        "serve",
        help="run the repair service: an overload-safe async HTTP/JSON "
        "front-end with admission control, per-request deadlines, SSE "
        "progress streaming and graceful drain on SIGTERM",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8357,
                     help="listen port (0 = pick a free port; the bound "
                     "address is printed as a 'SERVING http://...' line)")
    srv.add_argument("--capacity", type=int, default=2, metavar="N",
                     help="concurrent repair workers (the in-flight limit)")
    srv.add_argument("--queue-per-tenant", type=int, default=8, metavar="N",
                     help="bounded per-tenant queue depth; submissions "
                     "beyond it are shed with reason tenant_queue_full")
    srv.add_argument("--max-queued", type=int, default=64, metavar="N",
                     help="server-wide bound on total queued jobs")
    srv.add_argument("--tenant-rate", type=float, default=0.0, metavar="RPS",
                     help="per-tenant admission quota in jobs/second "
                     "(token bucket; 0 = unlimited)")
    srv.add_argument("--tenant-burst", type=int, default=8, metavar="N",
                     help="per-tenant quota burst (bucket capacity)")
    srv.add_argument("--weight", action="append", metavar="TENANT=W",
                     help="scheduling weight for a tenant (repeatable); "
                     "under contention a weight-2 tenant drains twice as "
                     "fast as a weight-1 tenant (default weight: 1)")
    srv.add_argument("--default-deadline", type=float, default=None,
                     metavar="SECONDS",
                     help="deadline applied to requests that do not set "
                     "deadline_s (default: none)")
    srv.add_argument("--breaker-threshold", type=int, default=5, metavar="N",
                     help="consecutive backend failures that trip the "
                     "circuit breaker; while open, submissions shed with "
                     "reason breaker_open (0 disables)")
    srv.add_argument("--probe-interval", type=int, default=3, metavar="N",
                     help="every Nth breaker denial converts into a "
                     "half-open heal probe")
    srv.add_argument("--run-dir", metavar="DIR", default=None,
                     help="journal every terminal result into DIR; a "
                     "drained/killed server restarted with --resume "
                     "answers resubmitted jobs from the journal with "
                     "digest-identical results")
    srv.add_argument("--resume", action="store_true",
                     help="continue an existing --run-dir journal")
    srv.add_argument("--max-retries", type=int, default=2,
                     help="per-job retry budget for transient backend "
                     "faults")
    srv.add_argument("--step-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="per-model-call timeout applied to every job")
    srv.add_argument("--llm-pool", metavar="SPEC", default=None,
                     help="LLM backend pool spec applied to every job "
                     "(same syntax as fix/report --llm-pool)")
    srv.add_argument("--work-delay", type=float, default=0.0,
                     metavar="SECONDS",
                     help="artificial deadline-aware work per job; makes "
                     "overload/drain drills deterministic (0 disables)")
    srv.add_argument("--chaos-outage", metavar="START:COUNT", default=None,
                     help="chaos drill: dispatched jobs [START, "
                     "START+COUNT) fail as a backend outage; the service "
                     "must shed, trip the breaker, and heal via a probe")
    _add_sim_limits_arg(srv)
    srv.set_defaults(func=_cmd_serve)

    fz = sub.add_parser(
        "fuzz",
        help="fuzz the compiler front-end (never-crash/never-hang check)",
    )
    fz.add_argument("--seed", type=int, default=0,
                    help="fuzzing seed; same seed => identical mutation "
                    "sequence and verdicts")
    fz.add_argument("--iterations", type=int, default=200,
                    help="number of fuzzed inputs to compile")
    fz.add_argument(
        "--per-input-budget", type=float, default=2.0, metavar="SECONDS",
        help="wall-clock ceiling per fuzzed input; slower counts as a hang",
    )
    fz.add_argument(
        "--chaos-rate", type=float, default=0.0, metavar="RATE",
        help="also splice chaos-harness garbage into this fraction of "
        "inputs and draw simulator-seam faults at the same rate "
        "(0 disables the fault-injection integration)",
    )
    fz.set_defaults(func=_cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    # --sim-engine / --sim-limits scope the command's simulations
    # ambiently: report trial keys and serve job keys stay budget-free,
    # so journal replay works across budget changes (the deadline
    # rationale).
    fields = {}
    if getattr(args, "sim_engine", None):
        fields["sim_engine"] = args.sim_engine
    if getattr(args, "sim_limits", None) is not None:
        fields["sim_limits"] = args.sim_limits
    with scoped(**fields):
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
