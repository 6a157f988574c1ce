"""Fault-injection (chaos) suite: retry/backoff, deterministic fault
injection, failure-isolating parallel runs, and regression tests for the
seed-cloning / executor-shutdown / rule-fix-accounting bugfixes.

Everything here is marked ``chaos`` so ``scripts/bench.sh`` (and
``pytest -m chaos``) can run the fault paths as a selectable suite.
"""

import hashlib
import pickle
import time
from collections import Counter

import pytest

from repro.agents.react import ReActAgent
from repro.core import RTLFixer, RTLFixerConfig
from repro import errors
from repro.dataset import build_syntax_dataset, verilogeval
from repro.diagnostics import Compiler
from repro.errors import (
    InjectedFault,
    LLMTimeoutError,
    RetryExhaustedError,
    TransientError,
)
from repro.eval.runner import run_fix_experiment
from repro.llm import SimulatedLLM
from repro.llm.base import RepairStep
from repro.rag.guidance_data import build_default_database
from repro.runtime import (
    GARBAGE_CODE,
    CircuitBreaker,
    CompileCache,
    FaultInjector,
    FaultSpec,
    Guard,
    ParallelRunner,
    RetryPolicy,
    WorkFailure,
    cached_compile,
    call_with_retry,
    guidance_key,
)
from repro.runtime.executor import chunk_size
from repro.scope import scoped

pytestmark = pytest.mark.chaos

BROKEN = (
    "module top_module(input [7:0] in, output reg [7:0] out);\n"
    "always @(posedge clk) out <= in;\nendmodule\n"
)
GOOD = "module m(input a, output y);\nassign y = a;\nendmodule\n"


@pytest.fixture(scope="module")
def tiny_dataset():
    return build_syntax_dataset(
        verilogeval(), samples_per_problem=3, seed=0, target_size=12
    )


class _FlakyModel:
    """RepairModel whose ``step`` raises transiently N times, then
    delegates to a SimulatedLLM."""

    def __init__(self, failures: int, seed: int = 0):
        self.failures = failures
        self.remaining = failures
        self.inner = SimulatedLLM(seed=seed)
        self.seed = seed

    name = "flaky"

    def with_seed(self, seed):
        return _FlakyModel(self.failures, seed=seed)

    def start(self, code, flavor, use_rag):
        self.session = self.inner.start(code, flavor, use_rag)
        return self

    def step(self, code, feedback, guidance):
        if self.remaining > 0:
            self.remaining -= 1
            raise InjectedFault("flaky step")
        return self.session.step(code, feedback, guidance)


# ---------------------------------------------------------------------------
# RetryPolicy / call_with_retry
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_deterministic_at_fixed_seed(self):
        policy = RetryPolicy(max_retries=5, seed=42)
        assert list(policy.delays("k")) == list(policy.delays("k"))

    def test_backoff_varies_with_seed_and_key(self):
        a = list(RetryPolicy(max_retries=5, seed=1).delays("k"))
        b = list(RetryPolicy(max_retries=5, seed=2).delays("k"))
        c = list(RetryPolicy(max_retries=5, seed=1).delays("other"))
        assert a != b and a != c

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(
            max_retries=8, base_delay=0.1, max_delay=1.0, jitter=0.0, seed=0
        )
        delays = list(policy.delays())
        assert delays[:4] == pytest.approx([0.1, 0.2, 0.4, 0.8])
        assert all(d <= 1.0 for d in delays)

    def test_jitter_bounds(self):
        policy = RetryPolicy(max_retries=20, base_delay=1.0, max_delay=1.0, jitter=0.5)
        for delay in policy.delays("j"):
            assert 0.75 <= delay <= 1.25

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0)


class TestCallWithRetry:
    def test_happy_path_never_sleeps(self):
        sleeps = []
        result = call_with_retry(
            lambda: 7, RetryPolicy(max_retries=3), sleep=sleeps.append
        )
        assert result == 7 and sleeps == []

    def test_retry_then_succeed(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] <= 2:
                raise InjectedFault("transient")
            return "ok"

        sleeps = []
        policy = RetryPolicy(max_retries=3, seed=9)
        assert call_with_retry(flaky, policy, key="x", sleep=sleeps.append) == "ok"
        assert calls["n"] == 3
        assert sleeps == list(policy.delays("x"))[:2]  # the exact schedule

    def test_retry_exhaustion(self):
        def always_fail():
            raise InjectedFault("permanent")

        policy = RetryPolicy(max_retries=2)
        with pytest.raises(RetryExhaustedError) as info:
            call_with_retry(always_fail, policy, sleep=lambda _: None)
        assert info.value.attempts == 3
        assert isinstance(info.value.last_error, InjectedFault)
        assert isinstance(info.value.__cause__, TransientError)

    def test_non_transient_errors_propagate_immediately(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise ValueError("a real bug")

        with pytest.raises(ValueError):
            call_with_retry(broken, RetryPolicy(max_retries=5), sleep=lambda _: None)
        assert calls["n"] == 1  # never retried

    def test_timeout_budget_counts_as_transient(self):
        ticks = iter([0.0, 10.0, 10.0, 10.1])  # 1st call takes 10s, 2nd 0.1s
        policy = RetryPolicy(max_retries=2, timeout=1.0)
        result = call_with_retry(
            lambda: "slow-then-fast", policy,
            sleep=lambda _: None, clock=lambda: next(ticks),
        )
        assert result == "slow-then-fast"

    def test_timeout_exhaustion(self):
        clock = iter(float(i * 10) for i in range(100))
        policy = RetryPolicy(max_retries=1, timeout=1.0)
        with pytest.raises(RetryExhaustedError) as info:
            call_with_retry(
                lambda: "never fast enough", policy,
                sleep=lambda _: None, clock=lambda: next(clock),
            )
        assert isinstance(info.value.last_error, LLMTimeoutError)


class TestRetryingWrappers:
    def test_retrying_model_recovers_flaky_steps(self):
        model = Guard(
            _FlakyModel(failures=2), RetryPolicy(max_retries=2, seed=0),
            sleep=lambda _: None,
        )
        agent = ReActAgent(model=model, compiler=Compiler("quartus"))
        result = agent.run(BROKEN)
        assert result.success  # the two transient faults were retried away

    def test_retrying_model_exhausts_on_permanent_fault(self):
        injector = FaultInjector(seed=0, llm=FaultSpec(rate=1.0, kind="exception"))
        model = Guard(
            SimulatedLLM(), RetryPolicy(max_retries=1, seed=0), injector,
            sleep=lambda _: None,
        )
        agent = ReActAgent(model=model, compiler=Compiler("quartus"))
        with pytest.raises(RetryExhaustedError):
            agent.run(BROKEN)

    def test_retrying_model_is_transparent_on_happy_path(self):
        plain = RTLFixer(max_retries=0).fix(BROKEN)
        wrapped = RTLFixer(max_retries=3).fix(BROKEN)
        assert wrapped.success == plain.success
        assert wrapped.final_code == plain.final_code
        assert wrapped.iterations == plain.iterations

    def test_retrying_model_with_seed_reseeds_inner(self):
        model = Guard(SimulatedLLM(seed=0), RetryPolicy(seed=0))
        reseeded = model.with_seed(5)
        assert reseeded.inner.seed == 5
        assert reseeded.policy.seed == 5
        assert reseeded.inner.tier == model.inner.tier

    def test_retrying_compiler_retries_injected_faults(self):
        injector = FaultInjector(
            seed=3, compiler=FaultSpec(rate=1.0, transient_failures=1)
        )
        compiler = Guard(
            Compiler("quartus"), RetryPolicy(max_retries=2, seed=0), injector,
            sleep=lambda _: None,
        )
        assert compiler.flavor == "quartus"
        assert compiler.compile(GOOD).ok  # one fault, one retry, success


# ---------------------------------------------------------------------------
# FaultInjector / chaos wrappers
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def test_decisions_deterministic(self):
        a = FaultInjector(seed=11, llm=FaultSpec(rate=0.5))
        b = FaultInjector(seed=11, llm=FaultSpec(rate=0.5))
        keys = [f"unit-{i}" for i in range(50)]
        assert [a.decide("llm.step", k) for k in keys] == [
            b.decide("llm.step", k) for k in keys
        ]

    def test_rate_extremes(self):
        never = FaultInjector(seed=0, llm=FaultSpec(rate=0.0))
        always = FaultInjector(seed=0, llm=FaultSpec(rate=1.0))
        assert all(never.decide("llm.step", f"k{i}") is None for i in range(20))
        assert all(
            always.decide("llm.step", f"k{i}") == "exception" for i in range(20)
        )

    def test_transient_faults_clear_after_n(self):
        injector = FaultInjector(
            seed=0, llm=FaultSpec(rate=1.0, transient_failures=2)
        )
        decisions = [injector.decide("llm.step", "same-key") for _ in range(4)]
        assert decisions == ["exception", "exception", None, None]

    def test_unconfigured_site_never_faults(self):
        injector = FaultInjector(seed=0, llm=FaultSpec(rate=1.0))
        assert injector.decide("compiler.compile", "k") is None

    def test_fire_raises_by_kind(self):
        boom = FaultInjector(seed=0, llm=FaultSpec(rate=1.0, kind="exception"))
        slow = FaultInjector(seed=0, llm=FaultSpec(rate=1.0, kind="timeout"))
        with pytest.raises(InjectedFault):
            boom.fire("llm.step", "k")
        with pytest.raises(LLMTimeoutError):
            slow.fire("llm.step", "k")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(rate=0.5, kind="gremlins")


class TestChaosWrappers:
    def test_garbage_steps_survived_by_agent_loop(self):
        injector = FaultInjector(seed=0, llm=FaultSpec(rate=1.0, kind="garbage"))
        model = Guard(SimulatedLLM(), injector=injector)
        agent = ReActAgent(model=model, compiler=Compiler("quartus"), max_iterations=3)
        result = agent.run(BROKEN)
        assert not result.success  # garbage can't fix anything...
        assert result.iterations == 3  # ...but the loop stays bounded and alive

    def test_chaos_compiler_poisons_feedback(self):
        injector = FaultInjector(
            seed=0, compiler=FaultSpec(rate=1.0, kind="garbage")
        )
        chaos = Guard(Compiler("quartus"), injector=injector)
        assert not chaos.compile(GOOD).ok  # clean code, poisoned diagnostics


# ---------------------------------------------------------------------------
# Failure-isolating executor
# ---------------------------------------------------------------------------


class TestCollectMode:
    @pytest.mark.parametrize("jobs", [1, 3], ids=["serial", "process"])
    def test_collect_isolates_worker_crashes(self, jobs):
        with ParallelRunner(jobs=jobs) as runner:
            results = runner.map(_fail_on_multiples_of_three, list(range(10)),
                                 on_error="collect")
        failures = [r for r in results if isinstance(r, WorkFailure)]
        values = [r for r in results if not isinstance(r, WorkFailure)]
        assert [f.index for f in failures] == [0, 3, 6, 9]
        assert all(f.error_type == "RuntimeError" for f in failures)
        assert all("unit 3 poisoned" in f.message for f in failures[1:2])
        assert values == [i * i for i in range(10) if i % 3]

    def test_collect_reports_progress_for_failures_too(self):
        events = []
        with ParallelRunner(jobs=2) as runner:
            runner.map(
                _fail_on_multiples_of_three, list(range(6)),
                progress=lambda d, t, item: events.append((d, t)),
                on_error="collect",
            )
        assert [d for d, _ in events] == list(range(1, 7))

    def test_collect_failures_carry_diagnostics(self):
        runner = ParallelRunner(jobs=1)
        [failure] = runner.map(_fail_on_multiples_of_three, [3], on_error="collect")
        assert isinstance(failure, WorkFailure)
        assert "RuntimeError" in failure.describe()
        assert "unit 3 poisoned" in failure.traceback
        assert failure.item_repr == "3"

    def test_unknown_on_error_rejected(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=1).map(_square, [1], on_error="ignore")

    def test_process_collect_survives_retry_exhaustion(self):
        """A RetryExhaustedError raised in a process worker must come
        home as that unit's failure record, not break the pool."""
        with ParallelRunner(jobs=2) as runner:
            results = runner.map(_exhaust_on_multiples_of_four, list(range(40)),
                                 on_error="collect")
        failures = [r for r in results if isinstance(r, WorkFailure)]
        assert [f.index for f in failures] == list(range(0, 40, 4))
        assert {f.error_type for f in failures} == {"RetryExhaustedError"}
        assert [r for r in results if not isinstance(r, WorkFailure)] == [
            i * i for i in range(40) if i % 4
        ]

    def test_raise_mode_unchanged(self):
        with ParallelRunner(jobs=2) as runner, pytest.raises(RuntimeError):
            runner.map(_fail_on_multiples_of_three, [3, 1, 2])

    def test_process_chunks_match_serial(self):
        """A process map ships units in chunks, yet publishes, fails and
        books them unit by unit, as the serial map does."""
        items = list(range(100))
        size = chunk_size(len(items), 2)
        assert size > 1 and len(items) >= 3 * size
        runs = []
        for jobs in (1, 2):
            cache, published, ticks = CompileCache(), [], []
            with scoped(compile_cache=cache), ParallelRunner(jobs=jobs) as runner:
                slots = runner.map(
                    _compile_then_fail_on_sevens, items, on_error="collect",
                    on_result=lambda index, item, result: published.append(index),
                    progress=lambda done, total, item: ticks.append((done, total)),
                )
            stats = cache.stats
            runs.append(dict(
                slots=slots,
                failures=[r.index for r in slots if isinstance(r, WorkFailure)],
                published=sorted(published),
                ticks=ticks,
                lookups=stats.hits + stats.misses + stats.coalesced + stats.uncacheable,
            ))
        serial, parallel = runs
        assert serial["failures"] == list(range(0, 100, 7))
        assert serial["published"] == items
        assert serial["ticks"] == [(done, 100) for done in range(1, 101)]
        assert serial["lookups"] == 100
        assert parallel == serial


def _sample_errors() -> list:
    """One instance of every exception in :mod:`repro.errors`."""
    return [
        errors.ReproError("base"),
        errors.SimulationError("no settle", phase="cycle"),
        errors.SimLimitExceeded("simulated cycles", 6, phase="cycle"),
        errors.DatasetError("bad id"),
        errors.RetrievalError("no index"),
        errors.LLMError("no backend"),
        errors.TransientError("hiccup"),
        errors.LLMTimeoutError("slow"),
        errors.InjectedFault("chaos"),
        errors.DeadlineExceededError("late", stage="queued"),
        errors.CheckpointError("clobber"),
        errors.CircuitOpenError("open"),
        errors.RunInterrupted("stop", done=3, total=9, signum=15),
        errors.RetryExhaustedError("gave up", attempts=3,
                                   last_error=errors.InjectedFault("down")),
    ]


class TestErrorsPickle:
    def test_samples_cover_every_error_type(self):
        defined = {
            value for value in vars(errors).values()
            if isinstance(value, type) and issubclass(value, errors.ReproError)
        }
        assert {type(exc) for exc in _sample_errors()} == defined

    @pytest.mark.parametrize(
        "exc", _sample_errors(), ids=lambda exc: type(exc).__name__
    )
    def test_round_trips_with_attributes(self, exc):
        """Process workers send failures home pickled."""
        exc.unit_counters = "rides along"
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is type(exc)
        assert clone.args == exc.args and str(clone) == str(exc)
        state, cloned = vars(exc), vars(clone)
        assert cloned.keys() == state.keys()
        for name, value in state.items():
            if isinstance(value, BaseException):
                assert repr(cloned[name]) == repr(value), name
            else:
                assert cloned[name] == value, name


class TestPromptAbort:
    """Regression: on_error='raise' must cancel pending units instead of
    draining the whole queue before surfacing the failure."""

    def test_failure_aborts_without_draining_queue(self):
        items = [("fail", 0.0)] + [("sleep", 0.2)] * 20
        started = time.monotonic()
        with ParallelRunner(jobs=2) as runner, pytest.raises(RuntimeError):
            runner.map(_fail_or_sleep, items)
        elapsed = time.monotonic() - started
        # Draining would cost ~20*0.2/2 = 2s; cancellation leaves only
        # the in-flight units (<= 2 workers * 0.2s) plus overhead.
        assert elapsed < 1.5

    def test_success_path_still_bit_identical(self):
        with ParallelRunner(jobs=3) as runner:
            assert runner.map(_square, range(20)) == [i * i for i in range(20)]


# ---------------------------------------------------------------------------
# Regression: seed-cloning must carry an injected model
# ---------------------------------------------------------------------------


class TestWithSeedCarriesModel:
    def test_injected_model_survives_with_seed(self):
        chaos = Guard(
            SimulatedLLM(), injector=FaultInjector(seed=7, llm=FaultSpec(rate=1.0))
        )
        fixer = RTLFixer(model=chaos, max_retries=0)
        reseeded = fixer.with_seed(3)
        assert isinstance(reseeded.injected_model, Guard)
        assert reseeded.injected_model.inner.seed == 3
        # The regression: the chaos model used to be silently replaced
        # by a fresh SimulatedLLM, so faults vanished on repeated trials.
        with pytest.raises(InjectedFault):
            reseeded.fix(BROKEN)

    def test_model_without_with_seed_is_reused(self):
        class _Static:
            """Model with no reseeding hook."""

            name = "static"

            def start(self, code, flavor, use_rag):
                return self

            def step(self, code, feedback, guidance):
                return RepairStep(thought="noop", code=code, declared_done=True)

        model = _Static()
        fixer = RTLFixer(model=model)
        assert fixer.with_seed(9).injected_model is model

    def test_default_model_still_rebuilt_from_config(self):
        fixer = RTLFixer()
        reseeded = fixer.with_seed(4)
        assert reseeded.injected_model is None
        assert reseeded.model.seed == 4


# ---------------------------------------------------------------------------
# Regression: rule-fix repairs must appear in the transcript
# ---------------------------------------------------------------------------


class TestRuleFixAccounting:
    def test_rule_fix_recorded_as_transcript_step(self):
        raw = f"Sure!\n```verilog\n{GOOD}```\n"
        result = RTLFixer().fix(raw)
        assert result.success and result.iterations == 0
        assert result.rule_fixed
        actions = [t.action for t in result.transcript.turns]
        assert actions == ["RuleFix", "Finish"]
        assert "rule-based" in result.transcript.turns[-1].thought.lower()

    def test_clean_input_has_no_rule_fix_step(self):
        result = RTLFixer().fix(GOOD)
        assert result.success and not result.rule_fixed
        assert [t.action for t in result.transcript.turns] == ["Finish"]

    def test_oneshot_records_rule_fix_too(self):
        raw = f"```verilog\n{GOOD}```"
        result = RTLFixer(prompting="oneshot").fix(raw)
        assert result.rule_fixed
        assert [t.action for t in result.transcript.turns] == ["RuleFix"]


# ---------------------------------------------------------------------------
# Acceptance: Table-1-shaped chaos run with failure isolation
# ---------------------------------------------------------------------------


class TestChaosExperimentRun:
    """An LLM injected to hard-fail on a fraction of trials must not
    sink the experiment: failures are isolated, named exactly, and the
    surviving units are bit-identical to a serial run at any job count."""

    def _chaos_fixer(self) -> RTLFixer:
        chaos = Guard(
            SimulatedLLM(),
            injector=FaultInjector(seed=13, llm=FaultSpec(rate=0.3, kind="exception")),
        )
        return RTLFixer(
            config=RTLFixerConfig(max_retries=0), model=chaos
        )

    def test_chaos_run_completes_and_is_deterministic(self, tiny_dataset):
        fixer = self._chaos_fixer()
        first = run_fix_experiment(
            tiny_dataset, fixer, repeats=2, on_error="collect"
        )
        second = run_fix_experiment(
            tiny_dataset, fixer, repeats=2, on_error="collect"
        )
        assert first.failures, "fault rate 0.3 must fail some trials"
        assert first.failures == second.failures
        assert first.fixed_counts == second.fixed_counts
        assert all(
            f.error_type in ("InjectedFault", "RetryExhaustedError")
            for f in first.failures
        )

    @pytest.mark.parametrize("jobs", [4], ids=["process-4"])
    def test_parallel_chaos_matches_serial(self, tiny_dataset, jobs):
        fixer = self._chaos_fixer()
        serial = run_fix_experiment(
            tiny_dataset, fixer, repeats=2, on_error="collect"
        )
        parallel = run_fix_experiment(
            tiny_dataset, fixer, repeats=2, on_error="collect", jobs=jobs,
        )
        assert parallel.failures == serial.failures  # exactly the same units
        assert parallel.fixed_counts == serial.fixed_counts
        assert parallel.iterations == serial.iterations
        assert parallel.rate == serial.rate

    def test_retries_heal_transient_chaos(self, tiny_dataset):
        flaky = Guard(
            SimulatedLLM(),
            injector=FaultInjector(
                seed=13, llm=FaultSpec(rate=0.3, kind="exception",
                                       transient_failures=1),
            ),
        )
        fixer = RTLFixer(config=RTLFixerConfig(max_retries=2), model=flaky)
        run = run_fix_experiment(
            tiny_dataset, fixer, repeats=1, on_error="collect"
        )
        assert run.failures == []  # every transient fault retried away

    def test_raise_mode_aborts_chaos_run(self, tiny_dataset):
        fixer = self._chaos_fixer()
        with pytest.raises(InjectedFault):
            run_fix_experiment(tiny_dataset, fixer, repeats=2, on_error="raise")


class TestVerdictChaosTransparency:
    """Verdict memoization must be invisible to chaos engineering: fault
    injection perturbs the source text, hence the design digest, hence
    the verdict key -- garbled and clean designs can never alias."""

    CLEAN = (
        "module m(input clk, input [3:0] d, output reg [3:0] q);\n"
        "always @(posedge clk) q <= q ^ d;\nendmodule\n"
    )

    def test_chaos_garbled_design_cannot_alias_clean_verdicts(self):
        from repro.sim import verdict_key

        injector = FaultInjector(
            seed=1, compiler=FaultSpec(rate=1.0, kind="garbage")
        )
        chaos = Guard(Compiler("quartus"), injector=injector)
        clean = Compiler("quartus").compile(self.CLEAN)
        garbled = chaos.compile(self.CLEAN)
        assert clean.ok and clean.elaborated.digest is not None
        # Garbage never compiles clean, so the garbled design has no
        # content digest and its verdicts are uncacheable -- it cannot
        # hit (or poison) a clean design's cache entry.
        assert not garbled.ok
        assert garbled.elaborated is None or garbled.elaborated.digest is None
        assert verdict_key("diff", (None, None), "compiled", None, 8, 0) is None
        # And any *textual* perturbation that does compile re-keys: the
        # digest tracks the preprocessed source.
        tweaked = Compiler("quartus").compile(self.CLEAN.replace("^", "&"))
        assert tweaked.ok
        assert tweaked.elaborated.digest != clean.elaborated.digest
        clean_key = verdict_key(
            "diff", (clean.elaborated.digest,) * 2, "compiled", None, 8, 0
        )
        tweaked_key = verdict_key(
            "diff", (tweaked.elaborated.digest,) * 2, "compiled", None, 8, 0
        )
        assert None not in (clean_key, tweaked_key)
        assert clean_key != tweaked_key

    def test_chaos_run_deterministic_with_shared_verdict_cache(self, tiny_dataset):
        from repro.sim import VerdictCache

        chaos = Guard(
            SimulatedLLM(),
            injector=FaultInjector(seed=13, llm=FaultSpec(rate=0.3, kind="exception")),
        )
        fixer = RTLFixer(config=RTLFixerConfig(max_retries=0), model=chaos)
        with scoped(verdict_cache=None):
            baseline = run_fix_experiment(
            tiny_dataset, fixer, repeats=2, on_error="collect"
        )
        cache = VerdictCache()
        with scoped(verdict_cache=cache):
            cold = run_fix_experiment(
            tiny_dataset, fixer, repeats=2, on_error="collect"
        )
            warm = run_fix_experiment(
            tiny_dataset, fixer, repeats=2, on_error="collect"
        )
        # Memoized verdicts change nothing observable, faults included.
        for run in (cold, warm):
            assert run.failures == baseline.failures
            assert run.fixed_counts == baseline.fixed_counts
            assert run.iterations == baseline.iterations


class TestSandboxChaos:
    """Chaos at the simulator seam (``sim.diff`` / ``sim.feedback``):
    injected faults are transient, isolated per trial, invisible to the
    verdict cache, and never counted by the circuit breaker."""

    PAIR = (
        "module m(input [3:0] a, output [3:0] y);\n"
        "assign y = a;\nendmodule\n"
    )

    @pytest.fixture(scope="class")
    def design(self):
        result = Compiler("quartus").compile(self.PAIR)
        assert result.ok
        return result.elaborated

    def test_transient_sim_fault_clears_on_retry(self, design):
        from repro.sim.testbench import run_differential

        injector = FaultInjector(
            seed=0,
            sim=FaultSpec(rate=1.0, kind="exception", transient_failures=1),
        )
        with scoped(verdict_cache=None, sim_injector=injector):
            with pytest.raises(InjectedFault):
                run_differential(design, design, samples=8)
            # Same work unit, same injector: the transient has cleared.
            assert run_differential(design, design, samples=8).passed

    def test_sim_faults_isolated_per_trial_under_collect(self, design):
        from repro.sim.testbench import run_differential

        injector = FaultInjector(seed=3, sim=FaultSpec(rate=0.4))
        runner = ParallelRunner(jobs=1)

        def trial(seed: int) -> bool:
            return run_differential(design, design, samples=8, seed=seed).passed

        with scoped(verdict_cache=None, sim_injector=injector):
            results = runner.map(trial, list(range(12)), on_error="collect")
        failures = [r for r in results if isinstance(r, WorkFailure)]
        values = [r for r in results if not isinstance(r, WorkFailure)]
        # Deterministic at this seed: some trials fault, the rest finish.
        assert failures and len(failures) < 12
        assert all(f.error_type == "InjectedFault" for f in failures)
        assert all(values)

    def test_garbage_sim_verdict_never_cached(self, design):
        from repro.sim import VerdictCache
        from repro.sim.testbench import run_differential

        injector = FaultInjector(seed=1, sim=FaultSpec(rate=1.0, kind="garbage"))
        cache = VerdictCache()
        with scoped(verdict_cache=cache):
            with scoped(sim_injector=injector):
                garbled = run_differential(design, design, samples=8)
            assert garbled.verdict.injected and not garbled.passed
            assert len(cache) == 0, "fabricated verdicts must not be memoized"
            # The chaos scope is gone: the same triple now records (and
            # replays) the genuine verdict.
            assert run_differential(design, design, samples=8).passed
            assert len(cache) == 1
            assert run_differential(design, design, samples=8).passed

    def test_transient_sim_faults_never_breaker_counted(self, design):
        from repro.sim.testbench import run_differential

        breaker = CircuitBreaker(failure_threshold=2)
        injector = FaultInjector(seed=0, sim=FaultSpec(rate=1.0))
        with scoped(verdict_cache=None, sim_injector=injector):
            for seed in range(4):
                try:
                    run_differential(design, design, samples=8, seed=seed)
                except InjectedFault as exc:
                    breaker.record_failure(exc)
        # Four consecutive transient sim faults: the retry layer's job,
        # not consecutive-failure evidence.
        assert breaker.trips == 0
        assert breaker.consecutive_failures == 0

    def test_chaos_faults_counted_in_sandbox_stats(self, design):
        from repro.sim.sandbox import SandboxStats
        from repro.sim.testbench import run_differential

        injector = FaultInjector(seed=0, sim=FaultSpec(rate=1.0))
        stats = SandboxStats()
        with scoped(verdict_cache=None, sandbox_stats=stats):
            with scoped(sim_injector=injector):
                with pytest.raises(InjectedFault):
                    run_differential(design, design, samples=8)
        assert stats.chaos_faults == 1
        assert stats.crashed_verdicts == 0, "chaos is not a sandbox crash"

    def test_both_engines_draw_the_same_fault(self, design):
        from repro.sim.testbench import run_differential

        outcomes: dict[str, list[str]] = {"interp": [], "compiled": []}
        for engine in outcomes:
            for seed in range(8):
                injector = FaultInjector(seed=7, sim=FaultSpec(rate=0.5))
                with scoped(verdict_cache=None, sim_injector=injector):
                    try:
                        run_differential(
                            design, design, samples=4, seed=seed, engine=engine
                        )
                        outcomes[engine].append("ok")
                    except InjectedFault:
                        outcomes[engine].append("fault")
        # The fault key excludes the engine, so the decision sequence is
        # engine-independent (the fuzz sandbox-differential relies on it)
        # -- and at rate 0.5 both outcomes actually occur.
        assert outcomes["interp"] == outcomes["compiled"]
        assert set(outcomes["interp"]) == {"ok", "fault"}


def _square(x: int) -> int:
    """Square (top-level so process-pool workers can pickle it)."""
    return x * x


def _fail_on_multiples_of_three(x: int) -> int:
    """Worker that crashes on multiples of three."""
    if x % 3 == 0:
        raise RuntimeError("unit 3 poisoned" if x == 3 else f"unit {x} poisoned")
    return x * x


def _exhaust_on_multiples_of_four(x: int) -> int:
    """Worker whose retries run out on multiples of four."""
    if x % 4 == 0:
        raise RetryExhaustedError(f"unit {x} exhausted", attempts=3,
                                  last_error=InjectedFault("down"))
    return x * x


def _compile_then_fail_on_sevens(x: int) -> int:
    """Worker that compiles through the scoped cache, then crashes on
    multiples of seven."""
    cached_compile(f"module m{x % 5}(input a, output y);\nassign y = a;\nendmodule\n")
    if x % 7 == 0:
        raise RuntimeError(f"unit {x} poisoned")
    return x * x


def _fail_or_sleep(item: tuple) -> str:
    """Worker that either fails immediately or sleeps (for abort timing)."""
    kind, duration = item
    if kind == "fail":
        raise RuntimeError("fast failure")
    time.sleep(duration)
    return kind


# ---------------------------------------------------------------------------
# Content-key regressions: guidance
# ---------------------------------------------------------------------------


class TestContentKeying:
    """Regressions for aliasable chaos/retry keys: two model turns that
    differ only in their retrieved guidance must not share one fault
    decision, one transient-recovery budget or one backoff schedule."""

    def test_guidance_key_sees_entries_and_order(self):
        entries = build_default_database().for_compiler("quartus")[:2]
        assert guidance_key([]) != guidance_key(entries[:1])
        assert guidance_key(entries[:1]) != guidance_key(entries[1:2])
        assert guidance_key(entries) != guidance_key(list(reversed(entries)))
        assert guidance_key(entries) == guidance_key(list(entries))

    def test_chaos_session_budgets_are_per_guidance(self):
        entries = build_default_database().for_compiler("quartus")[:2]
        injector = FaultInjector(
            seed=0,
            llm=FaultSpec(rate=1.0, kind="exception", transient_failures=1),
        )
        model = Guard(SimulatedLLM(), injector=injector)
        with pytest.raises(InjectedFault):
            model.start(BROKEN, "quartus", True)  # start faults once too
        session = model.start(BROKEN, "quartus", True)
        variants = [[], entries[:1], entries[1:2], entries]
        for guidance in variants:
            with pytest.raises(InjectedFault):
                session.step(BROKEN, "", list(guidance))
            # Same turn retried: the budget for *this* key is spent.
            step = session.step(BROKEN, "", list(guidance))
            assert step.code
        llm_keys = [k for k in injector._raised if k[0] == "llm.step"]
        assert len(llm_keys) == len(variants)

    def test_backoff_schedules_differ_per_key(self):
        entries = build_default_database().for_compiler("quartus")[:2]
        policy = RetryPolicy(max_retries=4, jitter=0.5, seed=0)
        first = list(policy.delays("step|" + guidance_key(entries[:1])))
        second = list(policy.delays("step|" + guidance_key(entries[1:2])))
        assert first != second
        # ...but the schedule for one key is reproducible.
        assert first == list(
            policy.delays("step|" + guidance_key(list(entries[:1])))
        )


def _guarded(inner, policy, injector):
    """``inner`` under retry with chaos drawn inside the retry loop."""
    return Guard(inner, policy, injector, sleep=lambda _s: None)


class TestSeamKeys:
    """Pins the exact fault ``(site, key)`` and backoff key every guarded
    seam draws, plus the digest of one small retried chaos run.  The
    expected strings are literals: any change to how a seam keys its
    faults or its backoff schedule changes which calls fault and how
    long they sleep, so it must show up here."""

    def test_seam_keys_and_chaos_run_digest(self, monkeypatch, tiny_dataset):
        from repro.rag.retrievers import make_retriever
        from repro.repair import result_digest

        fired, delayed = [], []
        fire, delays = FaultInjector.fire, RetryPolicy.delays

        def recording_fire(self, site, key):
            fired.append((site, key))
            return fire(self, site, key)

        def recording_delays(self, key=""):
            delayed.append(key)
            return delays(self, key)

        monkeypatch.setattr(FaultInjector, "fire", recording_fire)
        monkeypatch.setattr(RetryPolicy, "delays", recording_delays)

        policy = RetryPolicy(max_retries=2, seed=0)
        quiet = FaultInjector(seed=0)
        entries = build_default_database().for_compiler("quartus")[:1]
        session = _guarded(SimulatedLLM(seed=3), policy, quiet).start(
            BROKEN, "quartus", True
        )
        session.step(BROKEN, "feedback", [])
        session.step(BROKEN, "feedback", entries)
        _guarded(Compiler("quartus"), policy, quiet).compile(GOOD)
        code = "696b4be5c4e22be0"  # digest of BROKEN
        step = f"{code}|59bda3f8ee98128d"  # ...and of "feedback"
        assert fired == [
            ("llm.start", f"3|{code}"),
            ("llm.step", f"3|{code}|{step}|af5570f5a1810b7a"),
            ("llm.step", f"3|{code}|{step}|0b66459350ad82b6"),
            ("compiler.compile", "c9cc98bfcd43b379"),
        ]
        assert delayed == [
            f"start|{code}",
            f"step|{step}|af5570f5a1810b7a",
            f"step|{step}|0b66459350ad82b6",
            "compile|c9cc98bfcd43b379",
        ]

        # A small retried chaos run: every transient fault heals, and the
        # transcripts plus the fault ledger hash to a fixed digest.
        injector = FaultInjector(
            seed=11,
            llm=FaultSpec(rate=0.5, transient_failures=1),
            compiler=FaultSpec(rate=0.5, transient_failures=1),
        )
        agent = ReActAgent(
            model=_guarded(SimulatedLLM(), policy, injector),
            compiler=_guarded(Compiler("quartus"), policy, injector),
            retriever=make_retriever(
                "exact", build_default_database(), "quartus"
            ),
        )
        digests = [result_digest(agent.run(e.code)) for e in tiny_dataset.entries[:4]]
        assert injector._raised, "the run must draw some transient faults"
        ledger = "\n".join(digests) + repr(sorted(injector._raised.items()))
        assert hashlib.sha256(ledger.encode()).hexdigest()[:16] == "5ce390776848bac0"


class _FlakyOnce:
    """Delegates to ``inner``, but the first attempt of every call raises
    one transient fault (attempts alternate fail, succeed); a session it
    opens is flaky the same way."""

    def __init__(self, inner):
        self.inner = inner
        self.attempts = 0

    def _flake(self) -> None:
        self.attempts += 1
        if self.attempts % 2:
            raise TransientError("flaky backend")

    def start(self, code, flavor, use_rag):
        self._flake()
        return _FlakyOnce(self.inner.start(code, flavor, use_rag))

    def step(self, code, feedback, guidance):
        self._flake()
        return self.inner.step(code, feedback, guidance)

    def compile(self, code):
        self._flake()
        return self.inner.compile(code)


class TestLazyRetryKey:
    """Retry without chaos builds a seam's backoff key only when a retry
    needs it: the same key as under chaos on a fault, nothing hashed on
    a fault-free call."""

    def test_fault_builds_the_pinned_keys(self, monkeypatch):
        delayed = []
        delays = RetryPolicy.delays

        def recording_delays(self, key=""):
            delayed.append(key)
            return delays(self, key)

        monkeypatch.setattr(RetryPolicy, "delays", recording_delays)
        policy = RetryPolicy(max_retries=2, seed=0)
        entries = build_default_database().for_compiler("quartus")[:1]
        model = Guard(
            _FlakyOnce(SimulatedLLM(seed=3)), policy, sleep=lambda _s: None
        )
        session = model.start(BROKEN, "quartus", True)
        session.step(BROKEN, "feedback", [])
        session.step(BROKEN, "feedback", entries)
        compiler = Guard(
            _FlakyOnce(Compiler("quartus")), policy, sleep=lambda _s: None
        )
        assert compiler.compile(GOOD).ok
        # The literals pinned by TestSeamKeys, one per faulted call.
        code = "696b4be5c4e22be0"
        step = f"{code}|59bda3f8ee98128d"
        assert delayed == [
            f"start|{code}",
            f"step|{step}|af5570f5a1810b7a",
            f"step|{step}|0b66459350ad82b6",
            "compile|c9cc98bfcd43b379",
        ]

    def test_fault_free_call_hashes_nothing(self, monkeypatch):
        import repro.runtime.retry as retry_mod

        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            retry_mod, "content_digest",
            counting("content_digest", retry_mod.content_digest),
        )
        monkeypatch.setattr(
            retry_mod, "guidance_key",
            counting("guidance_key", retry_mod.guidance_key),
        )
        monkeypatch.setattr(
            RetryPolicy, "delays", counting("delays", RetryPolicy.delays)
        )
        policy = RetryPolicy(max_retries=2, seed=0)
        entries = build_default_database().for_compiler("quartus")[:1]
        session = Guard(SimulatedLLM(seed=3), policy).start(BROKEN, "quartus", True)
        session.step(BROKEN, "feedback", [])
        session.step(BROKEN, "feedback", entries)
        assert Guard(Compiler("quartus"), policy).compile(GOOD).ok
        assert session.session_key == ""
        assert calls == Counter()
