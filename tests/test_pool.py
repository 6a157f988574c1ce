"""LLM backend pool suite: the accounting ledger, spec parsing,
pooled simulated steps and the chat wire format, tier routing, escalation-after-K,
failover under chaos outages, and the determinism contract (pooled ==
direct, bit-identical at any job count).

The chaos-marked classes (``pytest -m chaos``) drill an outage of each
tier, with the circuit breaker armed for the no-rung-left case.
"""

import dataclasses
import hashlib
import json
import pickle
import sys
import threading

import pytest

from repro.core import RTLFixer, RTLFixerConfig
from repro.dataset import build_syntax_dataset, verilogeval
from repro.errors import LLMError, RetryExhaustedError
from repro.eval.runner import run_fix_experiment
from repro.llm import SimulatedLLM
from repro.llm.backends import OpenAIChatClient
from repro.llm.base import ChatMessage, RepairStep
from repro.llm.openai_stub import parse_pool_reply, render_repair_reply
from repro.llm.pool import (
    BackendSpec,
    PooledRepairModel,
    PooledRepairSession,
    RoutingSpec,
    routing_from_config,
)
from repro.rag.database import GuidanceDatabase
from repro.rag.guidance_data import build_default_database
from repro.runtime import (
    GARBAGE_CODE,
    CircuitBreaker,
    FaultSpec,
    RunContext,
    TokenCounter,
    estimate_tokens,
)
from repro.runtime.accounting import FOLD_AT, get_active_token_counter
from repro.runtime.checkpoint import config_digest
from repro.scope import scoped

BROKEN = (
    "module top_module(input [7:0] in, output reg [7:0] out);\n"
    "always @(posedge clk) out <= in;\nendmodule\n"
)

#: A sample the simulated model keeps failing on: every ReAct round
#: recompiles dirty, which is what drives escalation and many calls.
HARD = "module top(input a, input b, output y)\n  assign y = a & b;\nendmodule\n"

POOL = "cheap=gpt-3.5-sim,strong=gpt-4-sim"


@pytest.fixture(scope="module")
def tiny_dataset():
    return build_syntax_dataset(
        verilogeval(), samples_per_problem=3, seed=0, target_size=12
    )


class TestTokenCounter:
    def test_ledger_rolls_up_across_backends(self):
        counter = TokenCounter()
        counter.record_call("cheap", 100, 20, 0.001)
        counter.record_call("strong", 50, 10, 0.01, failover=True, escalated=True)
        counter.record_failure("cheap")
        ledger = counter.as_dict()
        assert ledger["calls"] == 2
        assert ledger["total_tokens"] == 180
        assert ledger["cost_usd"] == pytest.approx(0.011)
        assert ledger["backends"]["strong"]["failovers"] == 1
        assert ledger["backends"]["strong"]["escalations"] == 1
        assert ledger["failures"] == 1

    def test_concurrent_bookings_all_land(self):
        """Threads booking into one ledger while it folds (every
        FOLD_AT bookings) lose no call."""
        counter = TokenCounter()
        per_thread = FOLD_AT // 2

        def book():
            for _ in range(per_thread):
                counter.record_call("cheap", 3, 1, 0.5)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=book) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        ledger = counter.as_dict()
        assert ledger["calls"] == 8 * per_thread
        assert ledger["prompt_tokens"] == 3 * 8 * per_thread
        assert ledger["cost_usd"] == 0.5 * 8 * per_thread

    def test_merge_books_after_own_calls(self):
        """A merged ledger's calls land as if made after this one's."""
        costs = [3.1, 3.1, 0.0021, 0.7, 0.2]  # order-sensitive float sum
        serial, home, unit = TokenCounter(), TokenCounter(), TokenCounter()
        for i, cost in enumerate(costs):
            serial.record_call("cheap", 1, 1, cost)
            (home if i < 2 else unit).record_call("cheap", 1, 1, cost)
        home.merge(unit.bookings)
        assert home.usage("cheap") == serial.usage("cheap")

    def test_use_token_counter_scopes_the_active_ledger(self):
        outer = get_active_token_counter()
        ledger = TokenCounter()
        with scoped(token_counter=ledger):
            assert get_active_token_counter() is ledger
        assert get_active_token_counter() is outer

    def test_estimate_tokens(self):
        assert estimate_tokens("") == 0
        assert estimate_tokens("abcd") == 1
        assert estimate_tokens("abcde") == 2


class TestRoutingSpec:
    def test_parse_named_ladder(self):
        routing = RoutingSpec.parse(POOL, escalate_after=3)
        assert [m.name for m in routing.members] == ["cheap", "strong"]
        assert [m.tier for m in routing.members] == ["gpt-3.5-sim", "gpt-4-sim"]
        assert routing.escalate_after == 3

    def test_parse_bare_tier_names_member_after_itself(self):
        routing = RoutingSpec.parse("gpt-3.5-sim")
        assert routing.members[0].name == "gpt-3.5-sim"
        assert routing.members[0].tier == "gpt-3.5-sim"

    def test_prices_by_tier_family(self):
        cheap, strong = RoutingSpec.parse(POOL).members
        assert cheap.prices == (0.0005, 0.0015)
        assert strong.prices == (0.03, 0.06)

    def test_manifest_names_ladder_and_policy(self):
        assert RoutingSpec.parse(POOL, escalate_after=2).manifest() == {
            "pool": "cheap=gpt-3.5-sim,strong=gpt-4-sim", "escalate_after": 2,
        }

    def test_validation(self):
        with pytest.raises(LLMError):
            RoutingSpec.parse("")
        with pytest.raises(LLMError):
            RoutingSpec.parse("a=gpt-3.5-sim,a=gpt-4-sim")  # duplicate name
        with pytest.raises(LLMError):
            RoutingSpec.parse(POOL, escalate_after=-1)
        with pytest.raises(LLMError):
            BackendSpec(name="bad name", tier="gpt-3.5-sim")

    def test_routing_from_config_prefers_config_pool(self):
        config = RTLFixerConfig(llm_pool=POOL, llm_escalate_after=2)
        routing = routing_from_config(config)
        assert routing.escalate_after == 2
        assert len(routing.members) == 2
        assert routing_from_config(RTLFixerConfig()) is None


class TestSimulatedRoundTrip:
    """A simulated member steps the agent's own inputs: pooled steps ==
    direct steps, bitwise; and the chat wire format round-trips a step."""

    def _steps(self, session, guidance):
        feedbacks = ["", "syntax error near 'endmodule'\n", "error: giberish"]
        return [
            session.step(BROKEN, feedback, list(guidance))
            for feedback in feedbacks
        ]

    def test_pooled_steps_equal_direct_steps(self):
        guidance = build_default_database().for_compiler("quartus")[:2]
        direct = SimulatedLLM(seed=7).start(BROKEN, "quartus", True)
        pooled_model = PooledRepairModel(
            RoutingSpec.parse("cheap=gpt-3.5-sim"), seed=7
        )
        pooled = pooled_model.start(BROKEN, "quartus", True)
        for mine, theirs in zip(
            self._steps(pooled, guidance),
            self._steps(direct, guidance),
        ):
            assert mine == theirs  # thought, code, declared_done, used_guidance

    def test_reply_render_parse_round_trip(self):
        guidance = build_default_database().for_compiler("iverilog")[:3]
        step = RepairStep(
            thought="Fix the missing semicolon.",
            code="module m();\nendmodule\n",
            declared_done=True,
            used_guidance=tuple(guidance[:2]),
        )
        parsed = parse_pool_reply(render_repair_reply(step), list(guidance))
        assert parsed == step

    def test_garbled_reply_becomes_the_step_code(self):
        parsed = parse_pool_reply("@@@ chaos: garbled model reply @@@", [])
        assert parsed.code == "@@@ chaos: garbled model reply @@@"
        assert not parsed.declared_done

    def test_sessions_are_per_start_not_per_code(self):
        # Two conversations about the same code must not share live
        # session state (the direct path starts fresh every fix()).
        model = PooledRepairModel(RoutingSpec.parse("cheap=gpt-3.5-sim"), seed=7)
        first = model.start(BROKEN, "quartus", False)
        second = model.start(BROKEN, "quartus", False)
        assert first.token != second.token
        assert first.step(BROKEN, "", []) == second.step(BROKEN, "", [])


class TestRoutingPolicy:
    def test_base_index_matches_requested_tier(self):
        routing = RoutingSpec.parse(POOL)
        assert routing.base_index("gpt-3.5-sim") == 0
        assert routing.base_index("gpt-4-sim") == 1
        assert routing.base_index("gpt-4-turbo-sim") == 1  # family fallback
        assert routing.base_index("unknown-tier") == 0

    def test_escalation_climbs_after_k_failures(self):
        routing = RoutingSpec.parse(POOL, escalate_after=2)
        session = PooledRepairModel(routing, seed=1).start(BROKEN, "quartus", False)
        assert session.member_index == 0
        session.observe(False)
        assert session.member_index == 0
        session.observe(False)
        assert session.member_index == 1  # climbed after K=2 failures
        for _ in range(10):
            session.observe(False)
        assert session.member_index == 1  # clamped at the top rung

    def test_no_escalation_when_disabled(self):
        routing = RoutingSpec.parse(POOL)  # escalate_after=0
        session = PooledRepairModel(routing, seed=1).start(BROKEN, "quartus", False)
        for _ in range(10):
            session.observe(False)
        assert session.member_index == 0

    def test_escalated_run_reaches_strong_backend(self):
        counter = TokenCounter()
        routing = RoutingSpec.parse(POOL, escalate_after=2)
        with scoped(llm_routing=routing, token_counter=counter):
            RTLFixer(seed=3).fix(HARD)
        ledger = counter.as_dict()
        # K=2 on a never-healing sample: exactly two cheap rounds, then
        # every remaining round lands on the strong rung.
        assert ledger["backends"]["cheap"]["calls"] == 2
        assert ledger["backends"]["strong"]["calls"] == 8
        assert ledger["escalations"] == 8
        assert ledger["backends"]["strong"]["calls"] == ledger["escalations"]

    @pytest.mark.parametrize("case", ["healthy_escalating", "cheap_outage"])
    def test_pooled_ledger_is_pinned(self, case):
        # Per-backend ledgers of two fixed pooled runs: any change to
        # who answers, what is booked where, or what it costs moves them.
        keys = ("calls", "prompt_tokens", "completion_tokens", "cost_usd",
                "escalations", "failovers", "failures")
        if case == "healthy_escalating":
            routing = RoutingSpec.parse(POOL, escalate_after=2)
            code, iterations, final_code = HARD, 10, HARD
            expected = {
                "cheap": (2, 714, 172, 0.000615, 0, 0, 0),
                "strong": (8, 2856, 688, 0.12696, 8, 0, 0),
            }
        else:
            routing = dataclasses.replace(
                RoutingSpec.parse(POOL),
                chaos={"cheap": FaultSpec(rate=1.0, kind="exception")},
            )
            code, iterations = BROKEN, 1
            final_code = (
                "module top_module(\n  input clk,input [7:0] in, "
                "output reg [7:0] out);\n"
                "always @(posedge clk) out <= in;\nendmodule\n"
            )
            expected = {
                "cheap": (0, 0, 0, 0.0, 0, 0, 1),
                "strong": (1, 425, 88, 0.01803, 0, 1, 0),
            }
        counter = TokenCounter()
        with scoped(llm_routing=routing, token_counter=counter):
            result = RTLFixer(seed=3).fix(code)
        backends = counter.as_dict()["backends"]
        assert {
            name: tuple(usage[key] for key in keys)
            for name, usage in backends.items()
        } == expected
        assert result.iterations == iterations
        assert result.final_code == final_code

    def test_observe_signal_survives_retry_wrapper(self):
        # RTLFixer puts the pooled model behind a retry Guard by
        # default; the escalation signal must pass through it.
        routing = RoutingSpec.parse(POOL, escalate_after=1)
        counter = TokenCounter()
        with scoped(llm_routing=routing, token_counter=counter):
            fixer = RTLFixer(seed=3, max_retries=2)
            assert type(fixer.agent.model).__name__ == "Guard"
            fixer.fix(HARD)
        assert counter.as_dict()["escalations"] >= 1


class TestPooledDeterminism:
    def test_pooled_equals_direct_fix(self):
        direct = RTLFixer(seed=5).fix(BROKEN)
        with scoped(llm_routing=RoutingSpec.parse(POOL)):
            pooled = RTLFixer(seed=5).fix(BROKEN)
        assert pooled.success == direct.success
        assert pooled.iterations == direct.iterations
        assert pooled.final_code == direct.final_code
        assert pooled.transcript.render() == direct.transcript.render()

    def test_pooled_experiment_matches_direct(self, tiny_dataset):
        direct = run_fix_experiment(tiny_dataset, RTLFixer(), repeats=1)
        with scoped(llm_routing=RoutingSpec.parse(POOL)):
            pooled = run_fix_experiment(tiny_dataset, RTLFixer(), repeats=1)
        assert pooled.fixed_counts == direct.fixed_counts
        assert pooled.iterations == direct.iterations

    def test_pooled_equals_direct_with_custom_guidance(self):
        # Entries from outside the default guidance database reach a
        # pooled simulated member as they are, category included.
        database = GuidanceDatabase([
            dataclasses.replace(entry, guidance=entry.guidance + " (site note)")
            for entry in build_default_database()
        ])
        direct = RTLFixer(database=database, compiler="iverilog", seed=3).fix(HARD)
        with scoped(llm_routing=RoutingSpec.parse(POOL)):
            pooled = RTLFixer(
                database=database, compiler="iverilog", seed=3
            ).fix(HARD)
        assert pooled.transcript.render() == direct.transcript.render()
        assert pooled.final_code == direct.final_code

    @pytest.mark.parametrize("jobs", [2], ids=["process-2"])
    def test_pooled_parallel_matches_serial(self, tiny_dataset, jobs):
        with scoped(llm_routing=RoutingSpec.parse(POOL, escalate_after=2)):
            serial = run_fix_experiment(tiny_dataset, RTLFixer(), repeats=1)
            parallel = run_fix_experiment(
                tiny_dataset, RTLFixer(), repeats=1, jobs=jobs,
            )
        assert parallel.fixed_counts == serial.fixed_counts
        assert parallel.iterations == serial.iterations

    def test_parallel_ledger_matches_serial(self, tiny_dataset):
        """Process workers book into their own copy of the ledger; their
        bookings must still reach the run's, as a serial run's do."""
        ledgers = []
        for jobs in (1, 2):
            counter = TokenCounter()
            with scoped(
                llm_routing=RoutingSpec.parse(POOL, escalate_after=1),
                token_counter=counter,
            ):
                run_fix_experiment(
                    tiny_dataset, RTLFixer(compiler="iverilog", use_rag=False),
                    repeats=2, jobs=jobs,
                )
            ledgers.append(counter.as_dict())
        serial, parallel = ledgers
        assert serial["calls"] > 0 and serial["escalations"] > 0
        assert parallel == serial

    def test_pooled_model_pickles_by_config(self):
        model = PooledRepairModel(
            RoutingSpec.parse(POOL, escalate_after=2), seed=9
        )
        clone = pickle.loads(pickle.dumps(model))
        assert clone.routing == model.routing
        assert clone.seed == 9
        assert clone.start(BROKEN, "quartus", False).step(BROKEN, "", []) == \
            model.start(BROKEN, "quartus", False).step(BROKEN, "", [])

    def test_config_digest_treats_pool_knobs_correctly(self):
        base = RTLFixerConfig()
        assert config_digest(base) != config_digest(RTLFixerConfig(llm_pool=POOL))
        assert config_digest(RTLFixerConfig(llm_pool=POOL)) != config_digest(
            RTLFixerConfig(llm_pool=POOL, llm_escalate_after=2)
        )


@pytest.mark.chaos
class TestPoolChaos:
    """Offline outage drills of each pool rung."""

    def _outage(self, member: str, escalate_after: int = 0) -> RoutingSpec:
        return dataclasses.replace(
            RoutingSpec.parse(POOL, escalate_after=escalate_after),
            chaos={member: FaultSpec(rate=1.0, kind="exception")},
        )

    def test_cheap_outage_fails_over_to_strong(self):
        counter = TokenCounter()
        with scoped(llm_routing=self._outage("cheap"), token_counter=counter):
            result = RTLFixer(seed=3).fix(BROKEN)
        ledger = counter.as_dict()
        assert result.iterations >= 1  # the run completed via failover
        assert ledger["backends"]["cheap"]["failures"] >= 1
        assert ledger["failovers"] >= 1
        assert ledger["backends"]["strong"]["calls"] == ledger["failovers"]

    def test_cheap_outage_run_isolates_no_failures(self, tiny_dataset):
        counter = TokenCounter()
        with scoped(llm_routing=self._outage("cheap"), token_counter=counter):
            run = run_fix_experiment(
                tiny_dataset, RTLFixer(), repeats=1, on_error="collect"
            )
        assert run.failures == []  # failover healed every trial
        assert counter.as_dict()["failovers"] >= 1

    def test_whole_ladder_outage_raises_last_error(self):
        routing = dataclasses.replace(
            RoutingSpec.parse(POOL),
            chaos={
                "cheap": FaultSpec(rate=1.0, kind="exception"),
                "strong": FaultSpec(rate=1.0, kind="exception"),
            },
        )
        with scoped(llm_routing=routing):
            model = RTLFixer(seed=3, max_retries=1).agent.model
            session = model.start(BROKEN, "quartus", False)
            with pytest.raises(RetryExhaustedError):
                session.step(BROKEN, "", [])

    def test_strong_tier_outage_trips_breaker(self, tiny_dataset):
        # A gpt-4 run whose only rung is down: no failover possible, so
        # the breaker must trip and skip the rest of the run fail-fast.
        routing = dataclasses.replace(
            RoutingSpec.parse(POOL),
            chaos={"strong": FaultSpec(rate=1.0, kind="exception")},
        )
        with scoped(llm_routing=routing):
            fixer = RTLFixer(tier="gpt-4-sim", max_retries=1)
            run = run_fix_experiment(
                tiny_dataset, fixer, repeats=1, on_error="collect",
                ctx=RunContext(breaker=CircuitBreaker(3)),
            )
        assert run.failures, "strong-tier outage must fail trials"
        skipped = [f for f in run.failures if f.error_type == "CircuitOpenError"]
        assert skipped, "the breaker must skip trials fail-fast"

    def test_member_garbage_garbles_or_passes_through(self):
        # A garbage fault at a member's step seam answers with the
        # guard's garbled step, booked like any reply; a member without
        # chaos answers as the direct model does.
        routing = dataclasses.replace(
            RoutingSpec.parse(POOL),
            chaos={"cheap": FaultSpec(rate=1.0, kind="garbage")},
        )
        counter = TokenCounter()
        with scoped(token_counter=counter):
            garbled = PooledRepairModel(routing, seed=3).start(
                BROKEN, "quartus", False
            ).step(BROKEN, "", [])
            clean = PooledRepairModel(RoutingSpec.parse(POOL), seed=3).start(
                BROKEN, "quartus", False
            ).step(BROKEN, "", [])
        assert garbled.code == GARBAGE_CODE
        assert not garbled.declared_done
        direct = SimulatedLLM(seed=3).start(BROKEN, "quartus", False)
        assert clean == direct.step(BROKEN, "", [])
        ledger = counter.as_dict()
        assert ledger["backends"]["cheap"]["calls"] == 2
        assert ledger["failures"] == 0

    def test_transient_outage_healed_by_member_retry(self):
        routing = dataclasses.replace(
            RoutingSpec.parse(POOL),
            chaos={
                "cheap": FaultSpec(
                    rate=1.0, kind="exception", transient_failures=1
                )
            },
        )
        counter = TokenCounter()
        with scoped(llm_routing=routing, token_counter=counter):
            result = RTLFixer(seed=3).fix(BROKEN)
        ledger = counter.as_dict()
        assert result.iterations >= 1
        # Every fault cleared inside the member's retry wrapper: the
        # strong rung never answered for the cheap one.
        assert ledger["failovers"] == 0
        assert ledger["backends"]["cheap"]["failures"] == 0


class TestOpenAIAdapter:
    def test_offline_guard_fails_fast_without_key(self, monkeypatch):
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        client = OpenAIChatClient(model="gpt-4")
        with pytest.raises(LLMError, match="no API key"):
            client.complete([ChatMessage(role="user", content="hi")])

    def test_real_tier_in_pool_fails_over_to_simulated(self, monkeypatch):
        # A misconfigured real backend degrades into failover, not a
        # crashed run: the simulated rung answers.
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        routing = RoutingSpec.parse("real=gpt-3.5-turbo,fallback=gpt-3.5-sim")
        counter = TokenCounter()
        with scoped(llm_routing=routing, token_counter=counter):
            result = RTLFixer(seed=3, tier="gpt-3.5-turbo").fix(BROKEN)
        assert result.iterations >= 1
        ledger = counter.as_dict()
        assert ledger["backends"]["real"]["failures"] >= 1
        assert ledger["backends"]["fallback"]["calls"] >= 1

    def test_chat_member_turn_is_pinned(self, monkeypatch):
        # A chat member sends the paper prompt plus the session header,
        # parses the reply into the step, and books the wire text.
        fixed = (
            "module top_module(input clk, input [7:0] in, "
            "output reg [7:0] out);\n"
            "always @(posedge clk) out <= in;\nendmodule"
        )
        reply = (
            "Thought: The clock is used but never declared; add it as an "
            "input.\nAction: Finish[answer]\nUsed-Guidance: 1\n"
            f"```verilog\n{fixed}\n```"
        )
        sent, steps = [], []

        def fake_complete(self, messages, temperature=0.4):
            sent.append(([[m.role, m.content] for m in messages], temperature))
            return reply

        pooled_step = PooledRepairSession.step

        def recording_step(self, *args):
            steps.append(pooled_step(self, *args))
            return steps[-1]

        monkeypatch.setattr(OpenAIChatClient, "complete", fake_complete)
        monkeypatch.setattr(PooledRepairSession, "step", recording_step)
        counter = TokenCounter()
        routing = RoutingSpec.parse("real=gpt-3.5-turbo")
        with scoped(llm_routing=routing, token_counter=counter):
            result = RTLFixer(seed=3).fix(BROKEN)
        assert hashlib.sha256(json.dumps(sent).encode()).hexdigest() == (
            "08674843d10981348bdc5d5919ce245972fdc7621ce7a281e8dc1502b17da7ee"
        )
        guidance = next(
            entry for entry in build_default_database().for_compiler("quartus")
            if entry.guidance.startswith("Check if 'clk' is an input.")
        )
        assert steps == [RepairStep(
            thought="The clock is used but never declared; add it as an input.",
            code=fixed,
            declared_done=True,
            used_guidance=(guidance,),
        )]
        assert counter.as_dict()["backends"] == {"real": {
            "calls": 1, "prompt_tokens": 425, "completion_tokens": 58,
            "total_tokens": 483, "cost_usd": 0.000299, "failovers": 0,
            "escalations": 0, "failures": 0,
        }}
        assert (result.success, result.iterations) == (True, 1)
