"""Unit tests for the repair service: deadlines, deadline-aware
retries, the lock-guarded circuit breaker, non-blocking quota buckets,
weighted fair admission, the wire protocol, and the stats ledger."""

import asyncio
import threading

import pytest

from repro.errors import (
    DeadlineExceededError,
    LLMTimeoutError,
    RetryExhaustedError,
    TransientError,
)
from repro.runtime.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.runtime.limiter import TokenBucket
from repro.runtime.retry import RetryPolicy, call_with_retry
from repro.service import Deadline, current_deadline, use_deadline
from repro.service.protocol import (
    RepairRequest,
    ShedReason,
    fixed_response,
    http_status,
    result_digest,
    sse_event,
)
from repro.service.scheduler import (
    AdmissionController,
    Job,
    SchedulerConfig,
    ServiceStats,
)


class FakeClock:
    """A manually-advanced monotonic clock."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_budget_counts_down_on_the_injected_clock(self):
        clock = FakeClock()
        deadline = Deadline(10.0, clock=clock)
        assert deadline.remaining() == pytest.approx(10.0)
        clock.advance(4.0)
        assert deadline.remaining() == pytest.approx(6.0)
        assert not deadline.expired()
        clock.advance(7.0)
        assert deadline.expired()
        assert deadline.remaining() == pytest.approx(-1.0)

    def test_check_raises_typed_error_with_stage(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        deadline.check("early")  # not expired: no raise
        clock.advance(2.0)
        with pytest.raises(DeadlineExceededError) as excinfo:
            deadline.check("react-iteration")
        assert excinfo.value.stage == "react-iteration"
        assert "react-iteration" in str(excinfo.value)

    def test_allows_refuses_sleeps_past_expiry(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        assert deadline.allows(0.5)
        assert not deadline.allows(1.5)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_non_finite_budget_rejected(self):
        # A NaN deadline never expires, yet refuses every backoff.
        for budget in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                Deadline(budget)

    def test_serve_rejects_non_finite_budgets_at_startup(
        self, monkeypatch, capsys
    ):
        # ``serve --default-deadline nan`` / ``--step-timeout nan``:
        # refused when the server is configured (the CLI exits 2), not
        # on every request that would build its Deadline or config.
        from repro.cli import main
        from repro.service.server import RepairServer

        monkeypatch.setattr(
            RepairServer, "run", lambda self: pytest.fail("server started")
        )
        for budget in ("nan", "inf", "0"):
            with pytest.raises(ValueError):
                SchedulerConfig(default_deadline_s=float(budget))
            assert main(["serve", "--port", "0", "--step-timeout", budget]) == 2
            assert "step_timeout" in capsys.readouterr().err

    def test_serve_rejects_bad_llm_pool_at_startup(self):
        # ``serve --llm-pool x=gpt-3.5-sim,x=gpt-4-sim``: every request's
        # fixer would fail to parse the ladder (a 500 that feeds the
        # breaker), so the template's spec is refused when the server is
        # configured.
        from repro.core.config import RTLFixerConfig
        from repro.errors import LLMError
        from repro.service.server import ServerConfig

        def server(pool):
            return ServerConfig(fixer=RTLFixerConfig(llm_pool=pool))

        with pytest.raises(LLMError, match="duplicate backend names"):
            server("x=gpt-3.5-sim,x=gpt-4-sim")
        with pytest.raises(LLMError, match="invalid backend name"):
            server("bad name=gpt-3.5-sim")
        server("cheap=gpt-3.5-sim,strong=gpt-4-sim")

    def test_ambient_scope_nests_and_restores(self):
        assert current_deadline() is None
        outer = Deadline(10.0)
        inner = Deadline(5.0)
        with use_deadline(outer):
            assert current_deadline() is outer
            with use_deadline(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer
        assert current_deadline() is None

    def test_none_scope_is_accepted(self):
        with use_deadline(None):
            assert current_deadline() is None


class TestRetryDeadlineInteraction:
    def test_expired_deadline_is_never_dispatched(self):
        """An already-expired deadline fails before the first attempt."""
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(2.0)
        calls = []
        with use_deadline(deadline):
            with pytest.raises(DeadlineExceededError) as excinfo:
                call_with_retry(
                    lambda: calls.append(1),
                    RetryPolicy(max_retries=3),
                    sleep=lambda s: None,
                )
        assert calls == []  # zero attempts: expired budgets are not retried
        assert excinfo.value.stage == "retry-dispatch"

    def test_backoff_that_would_outlive_deadline_is_refused(self):
        """The loop raises instead of sleeping past the deadline."""
        clock = FakeClock()
        deadline = Deadline(0.01, clock=clock)
        attempts = []

        def flaky():
            attempts.append(1)
            raise TransientError("hiccup")

        with use_deadline(deadline):
            with pytest.raises(DeadlineExceededError) as excinfo:
                call_with_retry(
                    flaky,
                    RetryPolicy(max_retries=5, base_delay=1.0, jitter=0.0),
                    sleep=lambda s: None,
                )
        assert len(attempts) == 1  # dispatched once, refused the backoff
        assert excinfo.value.stage == "retry-backoff"
        assert isinstance(excinfo.value.__cause__, TransientError)

    def test_percall_timeout_with_live_deadline_still_retries(self):
        """A per-call overrun is transient while the deadline has room:
        the next attempt dispatches (the two budgets stay distinct)."""
        clock = FakeClock()
        deadline = Deadline(100.0, clock=clock)
        outcomes = iter([2.0, 0.1])  # first call slow, second fast

        def call():
            clock.advance(next(outcomes))
            return "ok"

        with use_deadline(deadline):
            result = call_with_retry(
                call,
                RetryPolicy(max_retries=2, timeout=1.0, base_delay=0.0,
                            jitter=0.0),
                sleep=lambda s: None,
                clock=clock,
            )
        assert result == "ok"

    def test_call_that_runs_the_deadline_out_is_typed_deadline(self):
        """When a slow call exhausts the *request* budget, the outcome is
        DeadlineExceededError, not a retryable timeout."""
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)

        def slow():
            clock.advance(5.0)
            return "late"

        with use_deadline(deadline):
            with pytest.raises(DeadlineExceededError) as excinfo:
                call_with_retry(
                    slow,
                    RetryPolicy(max_retries=3, timeout=0.5),
                    sleep=lambda s: None,
                    clock=clock,
                )
        assert excinfo.value.stage == "retry-call"

    def test_no_deadline_scope_behaves_as_before(self):
        """Without an ambient deadline the loop exhausts its budget the
        classic way."""
        def flaky():
            raise TransientError("hiccup")

        with pytest.raises(RetryExhaustedError):
            call_with_retry(
                flaky, RetryPolicy(max_retries=2), sleep=lambda s: None
            )

    def test_percall_timeout_still_surfaces_as_llm_timeout(self):
        clock = FakeClock()

        def slow():
            clock.advance(2.0)
            return "late"

        with pytest.raises(RetryExhaustedError) as excinfo:
            call_with_retry(
                slow,
                RetryPolicy(max_retries=0, timeout=1.0),
                sleep=lambda s: None,
                clock=clock,
            )
        assert isinstance(excinfo.value.last_error, LLMTimeoutError)


class TestBreakerAdmit:
    def _tripped(self, probe_interval=3) -> CircuitBreaker:
        breaker = CircuitBreaker(
            failure_threshold=2, probe_interval=probe_interval
        )
        breaker.record_failure(ValueError("boom"))
        breaker.record_failure(ValueError("boom"))
        assert breaker.state == OPEN
        return breaker

    def test_closed_admits_without_probe(self):
        breaker = CircuitBreaker(failure_threshold=2)
        assert breaker.admit() == (True, False)

    def test_open_denies_then_probes_on_interval(self):
        breaker = self._tripped(probe_interval=3)
        assert breaker.admit() == (False, False)
        assert breaker.admit() == (False, False)
        allowed, is_probe = breaker.admit()  # third denial converts
        assert (allowed, is_probe) == (True, True)
        assert breaker.state == HALF_OPEN

    def test_probe_success_closes(self):
        breaker = self._tripped(probe_interval=1)
        _, is_probe = breaker.admit()
        assert is_probe
        breaker.record_success(probe=True)
        assert breaker.state == CLOSED

    def test_probe_failure_reopens(self):
        breaker = self._tripped(probe_interval=1)
        breaker.admit()
        breaker.record_failure(ValueError("still down"), probe=True)
        assert breaker.state == OPEN

    def test_uncounted_transient_probe_failure_reopens_without_tally(self):
        """A probe that dies for an unrelated transient reason (e.g. its
        deadline expired in the queue) must still settle the breaker."""
        breaker = self._tripped(probe_interval=1)
        tally = breaker.consecutive_failures
        breaker.admit()
        breaker.record_failure(TransientError("probe expired"), probe=True)
        assert breaker.state == OPEN
        assert breaker.consecutive_failures == tally

    def test_concurrent_admits_grant_at_most_one_probe(self):
        """The atomicity contract: many racing admitters, one probe."""
        breaker = self._tripped(probe_interval=1)
        probes = []
        barrier = threading.Barrier(8)

        def admitter():
            barrier.wait()
            for _ in range(50):
                _, is_probe = breaker.admit()
                if is_probe:
                    probes.append(threading.get_ident())

        threads = [threading.Thread(target=admitter) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Exactly one probe while half-open; the rest were denied.
        assert len(probes) == 1
        assert breaker.state == HALF_OPEN

    def test_concurrent_record_calls_keep_tally_consistent(self):
        breaker = CircuitBreaker(failure_threshold=10 ** 9)
        barrier = threading.Barrier(8)

        def recorder():
            barrier.wait()
            for _ in range(200):
                breaker.record_failure(ValueError("x"), probe=False)

        threads = [threading.Thread(target=recorder) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert breaker.consecutive_failures == 8 * 200


class TestTokenBucketTryAcquire:
    def test_unlimited_always_grants(self):
        bucket = TokenBucket(0.0)
        assert all(bucket.try_acquire() for _ in range(100))
        assert bucket.refusals == 0

    def test_refuses_when_empty_and_counts(self):
        clock = FakeClock()
        bucket = TokenBucket(1.0, burst=2, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()  # bucket drained: refuse, no debt
        assert bucket.refusals == 1

    def test_refill_restores_tokens(self):
        clock = FakeClock()
        bucket = TokenBucket(2.0, burst=2, clock=clock)
        bucket.try_acquire()
        bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(0.5)  # 2 tokens/s * 0.5s = 1 token back
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_idle_time_refills_up_to_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(1.0, burst=2, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        clock.advance(100.0)  # long idle: refills to burst, not beyond
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(1.0)
        assert bucket.try_acquire()

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(-1.0)
        with pytest.raises(ValueError):
            TokenBucket(1.0, burst=0)


def make_job(tenant: str, seed: int = 0, deadline=None) -> Job:
    """A minimal scheduler job for admission tests."""
    request = RepairRequest(tenant=tenant, code="module m; endmodule",
                            seed=seed)
    return Job(job_id=f"{tenant}-{seed}", request=request,
               config=None, key=f"key-{tenant}-{seed}", deadline=deadline)


def drain_order(controller: AdmissionController) -> list:
    """Dequeue every job (drain mode) and return the tenant order."""
    controller.start_drain()

    async def pull():
        order = []
        while True:
            job = await controller.next_job()
            if job is None:
                return order
            order.append(job.request.tenant)

    return asyncio.run(pull())


class TestAdmissionController:
    def _controller(self, **kwargs) -> AdmissionController:
        clock = kwargs.pop("clock", FakeClock())
        config = SchedulerConfig(**kwargs)
        return AdmissionController(config, clock=clock)

    def test_admit_then_fair_drain(self):
        controller = self._controller()
        for index in range(3):
            assert controller.admit(make_job("a", index)) is None
        assert controller.queued == 3

    def test_tenant_queue_bound_sheds_typed(self):
        controller = self._controller(max_queue_per_tenant=2)
        assert controller.admit(make_job("a", 0)) is None
        assert controller.admit(make_job("a", 1)) is None
        assert controller.admit(make_job("a", 2)) == ShedReason.TENANT_QUEUE_FULL
        # Another tenant still has room: bounds are per-tenant.
        assert controller.admit(make_job("b", 0)) is None

    def test_server_queue_bound_sheds_typed(self):
        controller = self._controller(max_queue_per_tenant=8, max_queued=3)
        assert controller.admit(make_job("a", 0)) is None
        assert controller.admit(make_job("b", 0)) is None
        assert controller.admit(make_job("c", 0)) is None
        assert controller.admit(make_job("d", 0)) == ShedReason.SERVER_QUEUE_FULL

    def test_tenant_quota_sheds_typed(self):
        clock = FakeClock()
        controller = self._controller(
            tenant_rate=1.0, tenant_burst=2, clock=clock
        )
        assert controller.admit(make_job("a", 0)) is None
        assert controller.admit(make_job("a", 1)) is None
        assert controller.admit(make_job("a", 2)) == ShedReason.TENANT_QUOTA
        clock.advance(1.0)  # one token refills
        assert controller.admit(make_job("a", 3)) is None

    def test_draining_sheds_everything(self):
        controller = self._controller()
        controller.start_drain()
        assert controller.admit(make_job("a", 0)) == ShedReason.DRAINING

    def test_breaker_open_sheds_typed(self):
        breaker = CircuitBreaker(failure_threshold=1, probe_interval=3)
        breaker.record_failure(ValueError("down"))
        controller = AdmissionController(SchedulerConfig(), breaker=breaker)
        assert controller.admit(make_job("a", 0)) == ShedReason.BREAKER_OPEN

    def test_breaker_probe_job_is_marked_and_queued(self):
        breaker = CircuitBreaker(failure_threshold=1, probe_interval=1)
        breaker.record_failure(ValueError("down"))
        controller = AdmissionController(SchedulerConfig(), breaker=breaker)
        job = make_job("a", 0)
        assert controller.admit(job) is None  # denial #1 converts to probe
        assert job.probe is True
        assert controller.queued == 1

    def test_quota_checked_before_breaker_probe(self):
        """A submission the quota would shed must never consume the
        breaker's probe (the probe would be lost)."""
        breaker = CircuitBreaker(failure_threshold=1, probe_interval=1)
        breaker.record_failure(ValueError("down"))
        clock = FakeClock()
        controller = AdmissionController(
            SchedulerConfig(tenant_rate=1.0, tenant_burst=1),
            breaker=breaker, clock=clock,
        )
        job_a = make_job("a", 0)
        assert controller.admit(job_a) is None  # takes quota + probe
        assert job_a.probe
        # Quota now empty: shed reason is quota, and the breaker was not
        # consulted (state unchanged, no extra denials tallied).
        snapshot = breaker.snapshot()
        assert controller.admit(make_job("a", 1)) == ShedReason.TENANT_QUOTA
        assert breaker.snapshot() == snapshot

    def test_weighted_fair_drain_order(self):
        """Weight 2 drains twice per weight-1 dispatch, ties by name."""
        controller = self._controller(weights={"heavy": 2.0, "light": 1.0})
        for index in range(4):
            controller.admit(make_job("heavy", index))
        for index in range(2):
            controller.admit(make_job("light", index))
        order = drain_order(controller)
        # Stride schedule (pass += 1/weight, min pass next, ties by
        # name): heavy lands at 0.5/1.0/1.5/2.0, light at 1.0/2.0 --
        # heavy gets two dispatches for every one of light's.
        assert order == ["heavy", "light", "heavy", "heavy", "light", "heavy"]
        assert order.count("heavy") == 2 * order.count("light")

    def test_equal_weights_round_robin(self):
        controller = self._controller()
        for index in range(2):
            controller.admit(make_job("a", index))
            controller.admit(make_job("b", index))
        assert drain_order(controller) == ["a", "b", "a", "b"]

    def test_idle_tenant_reenters_at_current_vtime(self):
        """A tenant that was idle while others drained does not hoard
        credit: it resumes sharing, not monopolising."""
        controller = self._controller()
        for index in range(4):
            controller.admit(make_job("busy", index))

        async def scenario():
            order = []
            for _ in range(3):  # busy drains 3 jobs while idle is absent
                job = await controller.next_job()
                order.append(job.request.tenant)
            for index in range(3):  # idle shows up late with a burst
                controller.admit(make_job("idle", index))
            controller.start_drain()
            while True:
                job = await controller.next_job()
                if job is None:
                    return order
                order.append(job.request.tenant)

        order = asyncio.run(scenario())
        # The late tenant interleaves from now on instead of draining
        # its whole burst first.
        assert order[:3] == ["busy", "busy", "busy"]
        assert order[3:5] != ["idle", "idle"]

    def test_next_job_returns_none_only_when_drained_and_empty(self):
        controller = self._controller()
        controller.admit(make_job("a", 0))
        controller.start_drain()

        async def pull_all():
            first = await controller.next_job()
            second = await controller.next_job()
            return first, second

        first, second = asyncio.run(pull_all())
        assert first is not None and first.request.tenant == "a"
        assert second is None


class TestServiceStats:
    def test_ledger_counts_by_reason_and_tenant(self):
        stats = ServiceStats()
        stats.record_submitted("a")
        stats.record_admitted("a")
        stats.record_outcome("a", "fixed")
        stats.record_submitted("b")
        stats.record_shed("b", ShedReason.TENANT_QUOTA)
        snapshot = stats.as_dict()
        assert snapshot["admitted"] == 1
        assert snapshot["fixed"] == 1
        assert snapshot["shed"] == {ShedReason.TENANT_QUOTA: 1}
        assert snapshot["total_shed"] == 1
        assert snapshot["tenants"]["a"]["admitted"] == 1
        assert snapshot["tenants"]["b"]["shed"] == 1

    def test_outcome_statuses_bucketed(self):
        stats = ServiceStats()
        for status in ("fixed", "not_fixed", "deadline_exceeded",
                       "backend_error", "error"):
            stats.record_outcome("t", status)
        snapshot = stats.as_dict()
        assert snapshot["fixed"] == 1
        assert snapshot["not_fixed"] == 1
        assert snapshot["deadline_expired"] == 1
        assert snapshot["backend_errors"] == 1
        assert snapshot["crashed"] == 1
        assert snapshot["completed"] == 5


class TestProtocol:
    def test_round_trip_minimal_request(self):
        request = RepairRequest.from_json(
            b'{"code": "module m; endmodule"}'
        )
        assert request.tenant == "default"
        assert request.seed == 0
        assert request.deadline_s is None

    def test_unknown_field_is_rejected(self):
        with pytest.raises(ValueError, match="tennant"):
            RepairRequest.from_json(
                b'{"code": "m", "tennant": "typo"}'
            )

    def test_empty_code_rejected(self):
        with pytest.raises(ValueError, match="code"):
            RepairRequest.from_json(b'{"code": "   "}')

    def test_bad_json_rejected(self):
        with pytest.raises(ValueError, match="JSON"):
            RepairRequest.from_json(b"not json")

    def test_bool_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            RepairRequest.from_json(b'{"code": "m", "seed": true}')

    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline_s"):
            RepairRequest.from_json(b'{"code": "m", "deadline_s": -1}')

    @pytest.mark.parametrize("field, value", [
        ("tier", "5"),
        ("prompting", "null"),
        ("compiler", "[\"quartus\"]"),
        ("stream", "\"no\""),
        ("use_rag", "\"false\""),
        ("use_rag", "0"),
        ("deadline_s", "NaN"),
        ("deadline_s", "Infinity"),
        ("deadline_s", "true"),
        ("max_iterations", "true"),
    ])
    def test_wrong_json_type_rejected(self, field, value):
        """A field of the wrong JSON type is a 400 at admission: it must
        not die in a worker, flip a boolean by truthiness, or set a
        deadline that never expires."""
        body = f'{{"code": "m", "{field}": {value}}}'.encode()
        with pytest.raises(ValueError, match=field):
            RepairRequest.from_json(body)

    def test_json_booleans_and_numbers_admitted(self):
        request = RepairRequest.from_json(
            b'{"code": "m", "stream": true, "use_rag": false, '
            b'"deadline_s": 2, "max_iterations": 3, "tier": "gpt-4-sim"}'
        )
        assert request.stream is True and request.use_rag is False
        assert request.deadline_s == 2.0 and request.max_iterations == 3
        assert request.tier == "gpt-4-sim"

    def test_bad_config_combo_is_a_value_error(self):
        """An invalid config knob is a ValueError when the request is
        applied to the server's template config, which the server does
        in its answered path: a 400 at admission, not a 500 in a
        worker."""
        from repro.core.config import RTLFixerConfig

        for field, value in (("prompting", '"chain-of-thought"'),
                             ("tier", '"bogus"'), ("max_iterations", "0")):
            body = f'{{"code": "m", "{field}": {value}}}'.encode()
            request = RepairRequest.from_json(body)
            with pytest.raises(ValueError, match=field):
                request.apply(RTLFixerConfig())

    def test_served_config_equals_direct_config(self):
        """The server applies each request to its template config; the
        result equals the request's direct config with the same
        execution knobs, field for field."""
        from repro.core.config import RTLFixerConfig
        from repro.service.server import ServerConfig

        pool = "cheap=gpt-3.5-sim,strong=gpt-4-sim"
        server = ServerConfig(fixer=RTLFixerConfig(max_retries=1, llm_pool=pool))
        request = RepairRequest.from_json(
            b'{"code": "m", "seed": 7, "compiler": "simple", "tier": "gpt-4-sim"}'
        )
        assert request.apply(server.fixer) == request.to_config(
            max_retries=1, step_timeout=None, llm_pool=pool
        )

    def test_rag_is_coerced_off_for_simple_feedback(self):
        """RAG needs a compiler log to retrieve against; with 'simple'
        feedback the request's use_rag is coerced off instead of
        erroring (the Table 1 rule applied at the protocol edge)."""
        request = RepairRequest.from_json(
            b'{"code": "m", "compiler": "simple", "use_rag": true}'
        )
        assert request.to_config().use_rag is False

    def test_to_config_excludes_deadline(self):
        """The deadline is ambient, not config: journal keys must not
        depend on the request's budget."""
        import dataclasses

        with_deadline = RepairRequest(
            tenant="t", code="m", deadline_s=5.0
        ).to_config()
        without = RepairRequest(tenant="t", code="m").to_config()
        assert dataclasses.asdict(with_deadline) == dataclasses.asdict(without)

    def test_result_digest_covers_content_not_telemetry(self):
        fast = fixed_response("job-1", "t", True, 2, "module m; endmodule",
                              queue_wait_s=0.0, exec_s=0.001)
        slow = fixed_response("job-9", "t", True, 2, "module m; endmodule",
                              replayed=True, queue_wait_s=9.0, exec_s=5.0)
        assert fast["result_digest"] == slow["result_digest"]
        different = fixed_response("job-1", "t", True, 3,
                                   "module m; endmodule")
        assert different["result_digest"] != fast["result_digest"]

    def test_http_status_mapping(self):
        assert http_status({"status": "fixed"}) == 200
        assert http_status({"status": "not_fixed"}) == 200
        assert http_status({"status": "overloaded"}) == 429
        assert http_status({"status": "deadline_exceeded"}) == 504
        assert http_status({"status": "backend_error"}) == 502
        assert http_status({"status": "error"}) == 500

    def test_sse_framing(self):
        frame = sse_event("iteration", {"index": 1})
        assert frame == b'event: iteration\ndata: {"index":1}\n\n'

    def test_shed_reasons_are_exhaustive(self):
        assert set(ShedReason.ALL) == {
            "tenant_queue_full", "server_queue_full", "tenant_quota",
            "breaker_open", "draining",
        }


class TestErrorsTaxonomy:
    def test_deadline_error_is_not_transient(self):
        """The retry layer keys on this: expired deadlines never retry."""
        assert not issubclass(DeadlineExceededError, TransientError)


class TestAgentDeadlineAndObserver:
    BROKEN = (
        "module top_module(input [7:0] in, output [7:0] out);\n"
        "assign out[8] = in[0];\nendmodule\n"
    )

    def test_react_loop_stops_mid_run_on_expired_deadline(self):
        from repro.core import RTLFixer

        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(2.0)  # expire before the first iteration
        # max_retries=0 keeps the retry wrapper out, so the deadline
        # fires at the agent's own per-iteration seam.
        fixer = RTLFixer(max_retries=0)
        with use_deadline(deadline):
            with pytest.raises(DeadlineExceededError) as excinfo:
                fixer.fix(self.BROKEN)
        assert excinfo.value.stage == "react-iteration"

    def test_oneshot_stops_on_expired_deadline(self):
        from repro.core import RTLFixer

        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(2.0)
        fixer = RTLFixer(prompting="oneshot", max_retries=0)
        with use_deadline(deadline):
            with pytest.raises(DeadlineExceededError) as excinfo:
                fixer.fix(self.BROKEN)
        assert excinfo.value.stage == "oneshot-iteration"

    def test_retry_layer_sees_deadline_before_the_agent_does(self):
        """With the retry wrapper on (the default), an expired deadline
        is caught even earlier -- at retry dispatch."""
        from repro.core import RTLFixer

        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        clock.advance(2.0)
        fixer = RTLFixer()
        with use_deadline(deadline):
            with pytest.raises(DeadlineExceededError) as excinfo:
                fixer.fix(self.BROKEN)
        assert excinfo.value.stage == "retry-dispatch"

    def test_on_turn_observer_sees_every_transcript_turn(self):
        from repro.core import RTLFixer

        fixer = RTLFixer()
        seen = []
        fixer.agent.on_turn = seen.append
        result = fixer.fix(self.BROKEN)
        assert result.success
        assert len(seen) == len(result.transcript.turns)
        assert [turn.index for turn in seen] == [
            turn.index for turn in result.transcript.turns
        ]

    def test_config_deadline_scopes_ambient_deadline(self):
        from repro.core import RTLFixer

        fixer = RTLFixer(deadline_s=3600.0)
        result = fixer.fix(self.BROKEN)
        assert result.success  # an ample budget changes nothing

    def test_batch_runs_have_no_deadline(self):
        from repro.core import RTLFixer

        fixer = RTLFixer()
        result = fixer.fix(self.BROKEN)
        assert result.success
