"""Multi-provider LLM backend pool with tier-aware routing (§ design:
the paper's gpt-3.5 → gpt-4 capability axis as a *runtime policy*).

The pool puts N configured backends behind the single
:class:`~repro.llm.base.RepairModel` surface the agents already use:

* **members** -- an ordered escalation ladder of named backends
  (:class:`BackendSpec`), weakest/cheapest first.  Each member is itself
  a :class:`~repro.llm.base.RepairModel` (:class:`PoolMember`: the
  simulated model stepped in process, or an OpenAI chat client behind
  :class:`~repro.llm.openai_stub.ChatRepairModel`) behind a
  :class:`~repro.runtime.retry.Guard` (retries, plus optional fault
  injection for offline outage testing);
* **routing** -- a session starts on the member matching the requested
  tier and *escalates* one rung after every ``escalate_after`` failed
  ReAct iterations (the agent reports outcomes through the duck-typed
  ``session.observe(ok)`` seam), reproducing the paper's "move the hard
  residue to the stronger model" axis at run time;
* **failover** -- a member whose retry budget exhausts hands the call to
  the next stronger member, so a provider outage degrades into extra
  cost instead of a failed run;
* **accounting** -- every call books estimated tokens / cost /
  escalations / failovers into the process-active
  :class:`~repro.runtime.accounting.TokenCounter` (surfaced as
  ``report.telemetry["llm"]`` and the ``# llm:`` CLI line), counted over the
  turn's wire text (:mod:`repro.llm.openai_stub`).

Determinism contract: which member answers and what it replies are pure
functions of ``(routing spec, seed, conversation content, observed
failures)``.  A simulated member is stepped with the very code,
feedback and guidance entries the agent passed, so a pooled run over
simulated members is bit-identical to the direct
:class:`~repro.llm.SimulatedLLM` path at any ``--jobs``, whatever the
guidance database.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import LLMError, RetryExhaustedError, TransientError
from ..rag.database import GuidanceEntry
from ..scope import current
from ..runtime.accounting import (
    TokenCounter,
    estimate_tokens,
    get_active_token_counter,
    tier_family,
)
from ..runtime.checkpoint import content_digest
from ..runtime.faults import FaultInjector, FaultSpec
from ..runtime.retry import Guard, RetryPolicy
from .backends.openai import OpenAIChatClient
from .base import RepairStep
from .openai_stub import ChatRepairModel, build_pool_messages, render_repair_reply
from .simulated import SimulatedLLM

SleepFn = Callable[[float], None]
ClockFn = Callable[[], float]

#: Per-1K-token (prompt, completion) USD prices by tier family --
#: the public OpenAI prices contemporary with the paper, which is what
#: makes simulated cost accounting comparable across tiers.
TIER_PRICES: dict[str, tuple[float, float]] = {
    "gpt-3.5": (0.0005, 0.0015),
    "gpt-4": (0.03, 0.06),
}


@dataclass(frozen=True)
class BackendSpec:
    """One configured pool member: a display name plus its model tier.

    Simulated tiers (``*-sim``) resolve to
    :class:`~repro.llm.SimulatedLLM`; anything else is treated as a
    real OpenAI-compatible model name.
    """

    name: str
    tier: str

    def __post_init__(self) -> None:
        if not self.name or any(c in self.name for c in ",=|\n "):
            raise LLMError(f"invalid backend name {self.name!r}")
        if not self.tier or any(c in self.tier for c in ",=|\n "):
            raise LLMError(f"invalid backend tier {self.tier!r}")

    @property
    def prices(self) -> tuple[float, float]:
        return TIER_PRICES[tier_family(self.tier)]


@dataclass(frozen=True)
class RoutingSpec:
    """The full pool configuration: members + policy knobs.

    ``members`` is the escalation ladder, weakest first.  ``chaos`` is
    a test-only knob mapping member names to
    :class:`~repro.runtime.faults.FaultSpec`, so offline suites can
    declare "the cheap tier is down" for pools built deep inside
    ``RTLFixer`` (via ``scoped(llm_routing=...)``).
    """

    members: tuple[BackendSpec, ...]
    #: Escalate one ladder rung after this many failed agent iterations
    #: (0 = never escalate; failover on outage still applies).
    escalate_after: int = 0
    #: Retry budget of each member's guard.
    max_retries: int = 2
    #: name -> FaultSpec chaos injection per member (offline testing).
    chaos: Optional[dict] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.members:
            raise LLMError("a pool needs at least one backend")
        names = [m.name for m in self.members]
        if len(set(names)) != len(names):
            raise LLMError(f"duplicate backend names in pool: {names}")
        if self.escalate_after < 0:
            raise LLMError("escalate_after must be >= 0 (0 = never)")

    @staticmethod
    def parse(
        spec: str,
        *,
        escalate_after: int = 0,
        max_retries: int = 2,
    ) -> "RoutingSpec":
        """Parse the CLI/config pool string.

        Format: comma-separated ``name=tier`` members, weakest first,
        e.g. ``cheap=gpt-3.5-sim,strong=gpt-4-sim``; a bare ``tier``
        names the member after itself.
        """
        members = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" in part:
                name, _, tier = part.partition("=")
                members.append(BackendSpec(name=name.strip(), tier=tier.strip()))
            else:
                members.append(BackendSpec(name=part, tier=part))
        return RoutingSpec(
            members=tuple(members),
            escalate_after=escalate_after,
            max_retries=max_retries,
        )

    def base_index(self, tier: str) -> int:
        """The ladder rung a session of ``tier`` starts on: the first
        member of that exact tier, else of the same family, else 0."""
        for i, member in enumerate(self.members):
            if member.tier == tier:
                return i
        family = tier_family(tier)
        for i, member in enumerate(self.members):
            if tier_family(member.tier) == family:
                return i
        return 0

    def manifest(self) -> dict:
        """The result-relevant routing, the ladder and the escalation
        policy: a pooled report's manifest entry and the head of every
        ``# llm:`` line."""
        return {
            "pool": ",".join(f"{m.name}={m.tier}" for m in self.members),
            "escalate_after": self.escalate_after,
        }


class PoolMember:
    """One rung of the ladder: a structured repair model behind its guard.

    A ``*-sim`` tier steps :class:`~repro.llm.SimulatedLLM` in process;
    any other tier is an OpenAI-compatible model behind
    :class:`~repro.llm.openai_stub.ChatRepairModel`.  The
    :class:`~repro.runtime.retry.Guard` is the one the direct path
    uses: it retries transient faults and draws the member's
    ``RoutingSpec.chaos`` faults at the ``start``/``step`` seams.
    """

    def __init__(
        self,
        spec: BackendSpec,
        routing: RoutingSpec,
        seed: int,
        temperature: float,
        clock: ClockFn,
        sleep: SleepFn,
    ):
        self.spec = spec
        self.seed = seed
        self.temperature = temperature
        chaos: Optional[FaultSpec] = (routing.chaos or {}).get(spec.name)
        self.injector: Optional[FaultInjector] = (
            None if chaos is None else FaultInjector(seed=seed, llm=chaos)
        )
        self.policy: Optional[RetryPolicy] = None
        if routing.max_retries > 0:
            self.policy = RetryPolicy(max_retries=routing.max_retries, seed=seed)
        self._clock = clock
        self._sleep = sleep

    def start(self, code: str, flavor: str, use_rag: bool, token: str) -> Guard:
        """This rung's guarded session of the pooled conversation
        ``token`` (which a chat member sends in every prompt)."""
        tier = self.spec.tier
        if tier.endswith("-sim"):
            model = SimulatedLLM(tier, self.temperature, self.seed)
        else:
            model = ChatRepairModel(
                OpenAIChatClient(model=tier), self.temperature, token
            )
        guarded = Guard(
            model, self.policy, self.injector,
            sleep=self._sleep, clock=self._clock,
        )
        return guarded.start(code, flavor, use_rag)

    def cost(self, prompt_tokens: int, completion_tokens: int) -> float:
        prompt_price, completion_price = self.spec.prices
        return (
            prompt_tokens / 1000.0 * prompt_price
            + completion_tokens / 1000.0 * completion_price
        )


class PooledRepairModel:
    """:class:`~repro.llm.base.RepairModel` over a ladder of guarded
    pool members -- what ``RTLFixer`` builds when a pool is configured,
    in place of a bare :class:`~repro.llm.SimulatedLLM`."""

    def __init__(
        self,
        routing: RoutingSpec,
        tier: str = "gpt-3.5-sim",
        temperature: float = 0.4,
        seed: int = 0,
        clock: ClockFn = time.monotonic,
        sleep: SleepFn = time.sleep,
    ):
        self.routing = routing
        self.tier = tier
        self.temperature = temperature
        self.seed = seed
        self._clock = clock
        self._sleep = sleep
        self.members = [
            PoolMember(spec, routing, seed, temperature, clock, sleep)
            for spec in routing.members
        ]
        self._starts = 0
        self._lock = threading.Lock()

    def with_seed(self, seed: int) -> "PooledRepairModel":
        return PooledRepairModel(
            self.routing, tier=self.tier, temperature=self.temperature,
            seed=seed, clock=self._clock, sleep=self._sleep,
        )

    def start(self, code: str, flavor: str, use_rag: bool) -> "PooledRepairSession":
        with self._lock:
            self._starts += 1
            ordinal = self._starts
        return PooledRepairSession(self, code, flavor, use_rag, ordinal)

    def __getstate__(self) -> dict:
        # Rebuildable from config: the lock stays behind.
        return {
            "routing": self.routing,
            "tier": self.tier,
            "temperature": self.temperature,
            "seed": self.seed,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            state["routing"],
            tier=state["tier"],
            temperature=state["temperature"],
            seed=state["seed"],
        )


class EscalatingSession:
    """Rung choice, escalation and token booking of a pooled session.

    The one base of :class:`PooledRepairSession` and
    :class:`~repro.llm.simfix.PooledLogicSession`.  A session starts on
    ``base``, the ladder rung of its model's tier
    (:meth:`RoutingSpec.base_index`).  The agent reports every
    iteration's outcome via :meth:`observe`; after each block of
    ``routing.escalate_after`` failures the session climbs one rung up
    ``routing.members``.
    """

    def __init__(self, routing: RoutingSpec, tier: str):
        self.routing = routing
        self.base = routing.base_index(tier)
        self.failed_rounds = 0

    def observe(self, success: bool) -> None:
        """The agent's per-iteration outcome (escalation signal)."""
        if not success:
            self.failed_rounds += 1

    @property
    def member_index(self) -> int:
        """The ladder rung the next step will start on."""
        if self.routing.escalate_after <= 0:
            return self.base
        climb = self.failed_rounds // self.routing.escalate_after
        return min(self.base + climb, len(self.routing.members) - 1)

    def book(self, index: int, prompt_tokens: int, completion_tokens: int,
             cost_usd: float, *, counter: Optional[TokenCounter] = None,
             failover: bool = False) -> None:
        """Book one completed call on rung ``index``.

        Every call but a failover runs on the rung :attr:`member_index`
        chose, so each one above ``base`` is an escalation.
        """
        if counter is None:
            counter = get_active_token_counter()
        counter.record_call(
            self.routing.members[index].name, prompt_tokens,
            completion_tokens, cost_usd, failover=failover,
            escalated=not failover and index > self.base,
        )


class PooledRepairSession(EscalatingSession):
    """One debugging conversation routed through the pool."""

    def __init__(self, model: PooledRepairModel, code: str, flavor: str,
                 use_rag: bool, ordinal: int):
        super().__init__(model.routing, model.tier)
        self.model = model
        self.flavor = flavor
        self.use_rag = use_rag
        # The token names this conversation in every booked prompt; the
        # start ordinal keeps two conversations about the same code
        # distinct.
        self.token = (
            f"{model.seed}.{ordinal}.{model.tier}."
            f"{flavor}.{int(use_rag)}.{content_digest(code)}"
        )
        #: rung -> that member's live guarded session.
        self._sessions: dict[int, Guard] = {}

    def step(self, code: str, feedback: str,
             guidance: list[GuidanceEntry]) -> RepairStep:
        """One routed turn, failing over up the ladder.

        The turn starts on the escalation-chosen rung; on failure it
        walks strictly upward (weaker members cannot answer for
        stronger ones).  A rung's session starts from the code of the
        first turn it answers.  Every answered turn is booked; raises
        the last member's error when the whole ladder is down.
        """
        counter = get_active_token_counter()
        index = self.member_index
        members = self.model.members
        for i in range(index, len(members)):
            member = members[i]
            session = self._sessions.get(i)
            try:
                if session is None:
                    session = member.start(
                        code, self.flavor, self.use_rag, self.token
                    )
                step = session.step(code, feedback, guidance)
            except (TransientError, RetryExhaustedError, LLMError) as exc:
                counter.record_failure(member.spec.name)
                last_error = exc
                continue
            self._sessions[i] = session
            prompt_tokens = sum(
                estimate_tokens(message.content)
                for message in build_pool_messages(
                    code, feedback, guidance, session=self.token,
                    flavor=self.flavor, use_rag=self.use_rag,
                )
            )
            reply = step.reply
            if reply is None:
                reply = render_repair_reply(step)
            completion_tokens = estimate_tokens(reply)
            self.book(
                i, prompt_tokens, completion_tokens,
                member.cost(prompt_tokens, completion_tokens),
                counter=counter, failover=i > index,
            )
            return step
        # A ladder is never empty (RoutingSpec), so some member failed.
        raise last_error


def routing_from_config(config) -> Optional[RoutingSpec]:
    """The routing an :class:`~repro.core.RTLFixer` should use:
    ``config.llm_pool`` (with the config's policy knobs) when set,
    else the runtime scope's ``llm_routing`` spec (:mod:`repro.scope`):
    tests and experiment drivers scope a RoutingSpec and every RTLFixer
    built inside it (forked process workers included) routes its model
    through a pool, with no plumbing through call signatures."""
    if getattr(config, "llm_pool", None):
        return RoutingSpec.parse(
            config.llm_pool,
            escalate_after=config.llm_escalate_after,
            max_retries=config.max_retries,
        )
    return current().get("llm_routing")


__all__ = [
    "BackendSpec",
    "EscalatingSession",
    "PoolMember",
    "PooledRepairModel",
    "PooledRepairSession",
    "RoutingSpec",
    "TIER_PRICES",
    "routing_from_config",
]
