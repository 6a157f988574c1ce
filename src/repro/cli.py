"""Command-line interface: ``rtlfixer``.

Subcommands:

* ``fix <file.v>``      -- debug a Verilog file with RTLFixer;
* ``compile <file.v>``  -- show compiler diagnostics (pick a flavour);
* ``dataset <out.json>``-- build the VerilogEval-syntax-equivalent
  dataset and save it as JSON;
* ``report``            -- run the full reproduction report (every
  table/figure), optionally fanned out with ``--jobs`` and made
  durable/resumable with ``--run-dir`` / ``--resume``.  Exit codes:
  0 success, 2 durable-run misuse or a bad option value, 3 failed
  work units were isolated, 4 the circuit breaker tripped, 128+signum
  interrupted (first SIGINT/SIGTERM drains and checkpoints; a second
  aborts hard);
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
from typing import Callable

from .scope import scoped


def _cmd_fix(args: argparse.Namespace) -> Callable[[], int]:
    from .core import RTLFixer

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
    )

    def run() -> int:
        with open(args.file) as f:
            code = f.read()
        counter = None
        fields = {}
        if args.llm_pool:
            from .runtime.accounting import TokenCounter, render_line

            counter = fields["token_counter"] = TokenCounter()
        with scoped(**fields):
            result = fixer.fix(code)
        if counter is not None:
            ledger = {**fixer.model.routing.manifest(), **counter.as_dict()}
            print(render_line("llm", ledger), file=sys.stderr)
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

    return run


def _cmd_compile(args: argparse.Namespace) -> Callable[[], int]:
    from .diagnostics import compile_source

    def run() -> int:
        with open(args.file) as f:
            code = f.read()
        result = compile_source(code, name=args.file, flavor=args.compiler)
        if result.ok:
            print("compile OK")
            return 0
        print(result.log)
        return 1

    return run


def _cmd_dataset(args: argparse.Namespace) -> Callable[[], int]:
    from .dataset import build_syntax_dataset, verilogeval

    def run() -> int:
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

    return run


def _positive_int(text: str) -> int:
    """argparse type for ``dataset``'s counts, which no option object
    holds: an int >= 1 (at 0 curation has nothing to sample or keep)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


#: ``report`` exit codes beyond the usual 0/1 (documented in README):
#: misuse of the durable-run machinery (bad --resume, manifest mismatch).
EXIT_CHECKPOINT_MISUSE = 2
#: the run finished but isolated at least one failed work unit.
EXIT_FAILED_UNITS = 3
#: the circuit breaker tripped (trials were skipped fail-fast).
EXIT_BREAKER_TRIPPED = 4


def _cmd_report(args: argparse.Namespace) -> Callable[[], int]:
    import signal as _signal

    from .core.config import RTLFixerConfig
    from .errors import CheckpointError, RunInterrupted
    from .eval.report import ReportScale, run_full_report
    from .llm.pool import routing_from_config
    from .runtime import (
        CircuitBreaker, GracefulShutdown, atomic_write_text, resolve_jobs,
    )

    if args.resume and not args.run_dir:
        raise ValueError("--resume requires --run-dir")
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
    jobs = resolve_jobs(args.jobs)
    # The pool flags mean what they mean for ``fix``: the routing of a
    # fixer config that carries them.
    routing = routing_from_config(RTLFixerConfig(
        llm_pool=args.llm_pool, llm_escalate_after=args.llm_escalate_after
    ))
    breaker = None
    if args.breaker_threshold:  # 0 = off; CircuitBreaker checks the rest
        breaker = CircuitBreaker(args.breaker_threshold)
        if args.on_error != "collect":
            raise ValueError(
                "--breaker-threshold requires --on-error collect "
                "(skipped trials are collected records, not exceptions)"
            )

    def run() -> int:
        try:
            with GracefulShutdown() as shutdown:
                report = run_full_report(
                    scale=scale,
                    jobs=jobs,
                    on_error=args.on_error,
                    progress=lambda stage: print(f"[{stage}]", file=sys.stderr),
                    run_dir=args.run_dir,
                    resume=args.resume,
                    breaker=breaker,
                    should_stop=shutdown.requested,
                    routing=routing,
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
        for line in report.summary_lines():
            print(line, file=sys.stderr)
        if report.breaker_tripped:
            return EXIT_BREAKER_TRIPPED
        if report.failed_units:
            return EXIT_FAILED_UNITS
        return 0

    return run


def _cmd_serve(args: argparse.Namespace) -> Callable[[], int]:
    from .core.config import RTLFixerConfig
    from .service.scheduler import SchedulerConfig
    from .service.server import RepairServer, ServerConfig

    config = ServerConfig(
        host=args.host,
        port=args.port,
        scheduler=SchedulerConfig(
            capacity=args.capacity,
            max_queue_per_tenant=args.queue_per_tenant,
            max_queued=args.max_queued,
            tenant_rate=args.tenant_rate,
            tenant_burst=args.tenant_burst,
            weights=dict(args.weight or ()),
            default_deadline_s=args.default_deadline,
        ),
        breaker_threshold=args.breaker_threshold,
        probe_interval=args.probe_interval,
        run_dir=args.run_dir,
        resume=args.resume,
        fixer=RTLFixerConfig(
            max_retries=args.max_retries,
            step_timeout=args.step_timeout,
            llm_pool=args.llm_pool,
        ),
        work_delay=args.work_delay,
        chaos_outage=args.chaos_outage,
    )
    return RepairServer(config).run


def _weight(text: str) -> tuple:
    """argparse type for ``--weight``: a ``(tenant, weight)`` pair
    (SchedulerConfig checks the weight)."""
    name, sep, value = text.partition("=")
    try:
        if sep and name:
            return name, float(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"wants TENANT=WEIGHT with a numeric weight, got {text!r}"
    )


def _outage(text: str) -> tuple:
    """argparse type for ``--chaos-outage``: a ``(first_job, job_count)``
    pair (ServerConfig checks the window)."""
    start, sep, count = text.partition(":")
    try:
        if sep:
            return int(start), int(count)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"wants START:COUNT, got {text!r}")


def _cmd_fuzz(args: argparse.Namespace) -> Callable[[], int]:
    from .runtime.faults import FaultInjector, FaultSpec
    from .runtime.fuzz import FuzzConfig, run_fuzz

    injector = None
    if args.chaos_rate:  # 0 disables; FaultSpec checks the rest
        injector = FaultInjector(
            seed=args.seed,
            compiler=FaultSpec(rate=args.chaos_rate, kind="garbage"),
            # The same rate drives the simulator seam, so the fuzzer's
            # sim-chaos-transparency invariant is exercised in one run.
            sim=FaultSpec(rate=args.chaos_rate, kind="garbage"),
        )
    config = FuzzConfig(
        seed=args.seed,
        iterations=args.iterations,
        per_input_budget=args.per_input_budget,
        injector=injector,
    )

    def run() -> int:
        report = run_fuzz(config)
        print(report.summary())
        return 0 if report.ok else 1

    return run


def _sim_limits_spec(text: str):
    """argparse type for ``--sim-limits``: a parsed SimLimits."""
    from .sim.limits import parse_sim_limits

    try:
        return parse_sim_limits(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


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
    _add_llm_pool_args(fix)
    fix.set_defaults(func=_cmd_fix)

    comp = sub.add_parser("compile", help="compile and show diagnostics")
    comp.add_argument("file")
    comp.add_argument("--compiler", choices=["simple", "iverilog", "quartus"],
                      default="iverilog")
    comp.set_defaults(func=_cmd_compile)

    ds = sub.add_parser("dataset", help="build the VerilogEval-syntax dataset")
    ds.add_argument("out")
    ds.add_argument("--samples", type=_positive_int, default=20)
    ds.add_argument("--size", type=_positive_int, default=212)
    ds.add_argument("--seed", type=int, default=0)
    ds.set_defaults(func=_cmd_dataset)

    rep = sub.add_parser(
        "report",
        help="run the full reproduction report (all tables and figures)",
    )
    rep.add_argument(
        "--jobs", type=int, default=1,
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
        "--sim-limits", type=_sim_limits_spec, default=None, metavar="SPEC",
        help="simulation sandbox budgets: 'default', 'fuzz', or "
        "comma-separated key=value overrides (keys: cycles, events, "
        "stmts, trace-entries, trace-bytes, display, wall; e.g. "
        "'cycles=2000,wall=5').  Budget overflows come back as typed "
        "limit verdicts instead of hangs or crashes",
    )
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
    srv.add_argument("--weight", action="append", type=_weight,
                     metavar="TENANT=W",
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
    srv.add_argument("--chaos-outage", type=_outage, default=None,
                     metavar="START:COUNT",
                     help="chaos drill: dispatched jobs [START, "
                     "START+COUNT) fail as a backend outage; the service "
                     "must shed, trip the breaker, and heal via a probe")
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
    from .errors import CheckpointError, LLMError

    args = build_parser().parse_args(argv)
    try:
        # A command builds its option objects, each of which checks the
        # values it consumes, and returns its work.  A value they reject
        # is a usage error; nothing has run yet.
        work = args.func(args)
    except (ValueError, LLMError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # report --sim-limits scopes the run's simulations ambiently: trial
    # keys stay budget-free, so journal replay works across budget
    # changes (the deadline rationale).
    fields = {}
    if getattr(args, "sim_limits", None) is not None:
        fields["sim_limits"] = args.sim_limits
    with scoped(**fields):
        return work()


if __name__ == "__main__":
    sys.exit(main())
