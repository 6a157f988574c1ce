"""Tests for the durable-run subsystem: the crash-safe trial journal,
content-addressed checkpoints and resume, the circuit breaker, graceful
shutdown, atomic writes, and compile-cache single-flight coalescing."""

import json
import os
import signal
import threading
import zlib

import pytest

from repro.core.config import RTLFixerConfig
from repro.core.fixer import RTLFixer
from repro.dataset import build_syntax_dataset, verilogeval
from repro.errors import (
    CheckpointError,
    RetryExhaustedError,
    RunInterrupted,
    TransientError,
)
from repro.eval.runner import run_fix_experiment
from repro.runtime import (
    CircuitBreaker,
    GracefulShutdown,
    Journal,
    Memo,
    ParallelRunner,
    RunContext,
    RunState,
    WorkFailure,
    atomic_write_json,
    atomic_write_text,
    config_digest,
    decode_payload,
    encode_payload,
    unit_key,
)
from repro.runtime.journal import decode_line, encode_record


@pytest.fixture(scope="module")
def tiny_dataset():
    """A 6-entry dataset shared by the durable run_fix_experiment tests."""
    return build_syntax_dataset(
        verilogeval(), samples_per_problem=2, seed=0, target_size=6
    )


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------


class TestJournal:
    def test_append_and_reopen(self, tmp_path):
        """Appended records come back verbatim on reopen."""
        path = tmp_path / "j.jsonl"
        with Journal(str(path)) as journal:
            journal.append({"key": "a", "result": 1})
            journal.append({"key": "b", "result": [1, 2]})
            assert len(journal) == 2
        with Journal(str(path)) as journal:
            assert [r["key"] for r in journal] == ["a", "b"]
            assert journal.recovery.truncated_bytes == 0

    def test_record_roundtrip(self):
        """encode_record/decode_line invert each other (the journal
        strips the line terminator before decoding)."""
        record = {"key": "k", "result": {"x": [1, 2.5, None, True]}}
        assert decode_line(encode_record(record).rstrip(b"\n")) == record

    def test_crc_rejects_corruption(self):
        """A flipped byte in the body invalidates the record."""
        line = bytearray(encode_record({"key": "k"}).rstrip(b"\n"))
        assert decode_line(bytes(line)) is not None
        line[12] ^= 0xFF
        assert decode_line(bytes(line)) is None

    def test_torn_tail_truncated_on_open(self, tmp_path):
        """A partial final line (crash mid-append) is truncated away and
        the valid prefix survives."""
        path = tmp_path / "j.jsonl"
        with Journal(str(path)) as journal:
            journal.append({"key": "a"})
            journal.append({"key": "b"})
        whole = path.read_bytes()
        path.write_bytes(whole[:-7])  # tear the last record
        with Journal(str(path)) as journal:
            assert [r["key"] for r in journal] == ["a"]
            assert journal.recovery.truncated_bytes > 0
            assert journal.recovery.reason == "torn-tail"
            # and the file itself was repaired: appends go after "a"
            journal.append({"key": "c"})
        with Journal(str(path)) as journal:
            assert [r["key"] for r in journal] == ["a", "c"]

    def test_corrupt_middle_record_truncates_suffix(self, tmp_path):
        """Bit-rot in an *interior* record drops it and everything after
        (suffix records are unreachable without a trusted predecessor)."""
        path = tmp_path / "j.jsonl"
        with Journal(str(path)) as journal:
            journal.append({"key": "a"})
            journal.append({"key": "b"})
            journal.append({"key": "c"})
        lines = path.read_bytes().splitlines(keepends=True)
        second = bytearray(lines[1])
        second[4] = ord(b"0") if second[4] != ord(b"0") else ord(b"1")
        path.write_bytes(lines[0] + bytes(second) + lines[2])
        with Journal(str(path)) as journal:
            assert [r["key"] for r in journal] == ["a"]
            assert journal.recovery.reason == "corrupt-record"

    def test_crc_is_crc32_of_body(self):
        """The leading 8 hex chars are exactly crc32 of the JSON body."""
        line = encode_record({"key": "a"})
        crc_hex, _, body = line.partition(b" ")
        assert int(crc_hex, 16) == zlib.crc32(body.rstrip(b"\n"))


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------


class TestAtomicWrite:
    def test_text_roundtrip(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "hello\n")
        assert path.read_text() == "hello\n"

    def test_overwrites_atomically(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(str(path), "one")
        atomic_write_text(str(path), "two")
        assert path.read_text() == "two"

    def test_no_temp_litter(self, tmp_path):
        atomic_write_text(str(tmp_path / "out.txt"), "x")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_json_sorted_and_newline_terminated(self, tmp_path):
        path = tmp_path / "o.json"
        atomic_write_json(str(path), {"b": 1, "a": 2})
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')


# ---------------------------------------------------------------------------
# Payload codec / keys
# ---------------------------------------------------------------------------


class TestCodecAndKeys:
    def test_primitives_and_tuples_roundtrip(self):
        value = (True, 3, 2.5, "s", None, [1, (2, 3)], {"k": (4,)})
        assert decode_payload(encode_payload(value)) == value
        assert isinstance(decode_payload(encode_payload(value)), tuple)

    def test_dataclass_roundtrip(self):
        failure = WorkFailure(index=3, error_type="RuntimeError", message="boom")
        restored = decode_payload(encode_payload(failure))
        assert restored == failure
        assert isinstance(restored, WorkFailure)

    def test_non_repro_dataclass_refused(self):
        payload = {"__dataclass__": "os:stat_result", "fields": {}}
        with pytest.raises(CheckpointError):
            decode_payload(payload)

    def test_unencodable_type_refused(self):
        with pytest.raises(CheckpointError):
            encode_payload(object())

    def test_config_digest_pinned(self):
        """Every durable run's journal keys embed the config digest: a
        field added to or removed from the config must not move it."""
        assert config_digest(RTLFixerConfig()) == "d644ae0348537b76"
        assert config_digest(
            RTLFixerConfig(prompting="oneshot", compiler="iverilog", seed=3)
        ) == "7fe22e4b10568014"

    def test_unit_key_separates_stages_and_parts(self):
        assert unit_key("a", x=1) != unit_key("b", x=1)
        assert unit_key("a", x=1) != unit_key("a", x=2)
        assert unit_key("a", x=1) == unit_key("a", x=1)


# ---------------------------------------------------------------------------
# RunState / manifest
# ---------------------------------------------------------------------------


class TestRunState:
    def test_record_and_replay(self, tmp_path):
        key = unit_key("t", x=1)
        with RunState(str(tmp_path / "run")) as state:
            assert not state.completed(key)
            state.record(key, (True, 4), stage="t")
            assert state.completed(key)
        with RunState(str(tmp_path / "run")) as state:
            assert state.completed(key)
            assert state.result(key) == (True, 4)

    def test_skipped_records_not_replayed(self, tmp_path):
        """SKIPPED (breaker-denied) trials are journaled for the record
        but must re-execute on resume."""
        key = unit_key("t", x=1)
        skipped = WorkFailure.skipped_unit(0, "item")
        with RunState(str(tmp_path / "run")) as state:
            state.record(key, skipped, stage="t", skipped=True)
        with RunState(str(tmp_path / "run")) as state:
            assert not state.completed(key)

    def test_manifest_mismatch_fails_fast(self, tmp_path):
        run_dir = str(tmp_path / "run")
        with RunState(run_dir) as state:
            state.ensure_manifest({"scale": 1})
        with RunState(run_dir) as state:
            with pytest.raises(CheckpointError, match="different configuration"):
                state.ensure_manifest({"scale": 2}, resume=True)

    def test_refuses_to_clobber_without_resume(self, tmp_path):
        run_dir = str(tmp_path / "run")
        with RunState(run_dir) as state:
            state.ensure_manifest({"scale": 1})
            state.record(unit_key("t", x=1), 1)
        with RunState(run_dir) as state:
            with pytest.raises(CheckpointError, match="--resume"):
                state.ensure_manifest({"scale": 1}, resume=False)
            state.ensure_manifest({"scale": 1}, resume=True)  # ok


# ---------------------------------------------------------------------------
# Durable map (RunContext)
# ---------------------------------------------------------------------------


class TestDurableMap:
    def test_resume_skips_completed(self, tmp_path):
        """Second run over the same keys replays the journal and calls
        the work function zero times."""
        items = list(range(5))
        keys = [unit_key("sq", x=i) for i in items]
        calls = []

        def square(x):
            calls.append(x)
            return x * x

        with RunState(str(tmp_path / "run")) as state:
            ctx = RunContext(state=state)
            first = ctx.map(square, items, keys=keys, stage="sq")
        assert first == [0, 1, 4, 9, 16]
        assert len(calls) == 5

        with RunState(str(tmp_path / "run")) as state:
            ctx = RunContext(state=state)
            second = ctx.map(square, items, keys=keys, stage="sq")
        assert second == first
        assert len(calls) == 5  # nothing re-executed
        assert ctx.replayed == 5 and ctx.executed == 0

    def test_partial_journal_executes_remainder(self, tmp_path):
        """With only some keys journaled, exactly the rest dispatches."""
        items = list(range(6))
        keys = [unit_key("sq", x=i) for i in items]
        with RunState(str(tmp_path / "run")) as state:
            for i in (0, 2, 4):
                state.record(keys[i], i * i, stage="sq")
        calls = []

        def square(x):
            calls.append(x)
            return x * x

        with RunState(str(tmp_path / "run")) as state:
            ctx = RunContext(state=state)
            results = ctx.map(
                square, items, keys=keys, stage="sq"
            )
        assert results == [i * i for i in items]
        assert sorted(calls) == [1, 3, 5]
        assert ctx.replayed == 3 and ctx.executed == 3

    def test_collected_failures_reindexed_globally(self, tmp_path):
        """A WorkFailure produced in the todo-subset map carries its
        *global* submission index, both in results and in the journal."""
        items = list(range(4))
        keys = [unit_key("f", x=i) for i in items]
        with RunState(str(tmp_path / "run")) as state:
            state.record(keys[0], 0, stage="f")  # index 0 already done

        def sometimes(x):
            if x == 2:
                raise RuntimeError("boom")
            return x

        with RunState(str(tmp_path / "run")) as state:
            ctx = RunContext(state=state)
            results = ctx.map(
                sometimes, items, keys=keys,
                stage="f", on_error="collect",
            )
        failure = results[2]
        assert isinstance(failure, WorkFailure)
        assert failure.index == 2  # not its todo-local index (1)

    def test_failed_trials_reexecute_on_resume(self, tmp_path):
        """A journaled real failure (e.g. retries exhausted against a
        temporary outage) is not a completed trial: resume retries it,
        so a run that limped through an outage heals."""
        items = list(range(3))
        keys = [unit_key("f", x=i) for i in items]
        healthy = {"ok": False}

        def flaky(x):
            if x == 1 and not healthy["ok"]:
                raise RetryExhaustedError("backend outage", attempts=3)
            return x * 10

        with RunState(str(tmp_path / "run")) as state:
            ctx = RunContext(state=state)
            first = ctx.map(
                flaky, items, keys=keys,
                stage="f", on_error="collect",
            )
        assert isinstance(first[1], WorkFailure)

        healthy["ok"] = True  # the outage clears before the resume
        with RunState(str(tmp_path / "run")) as state:
            assert not state.completed(keys[1])
            ctx = RunContext(state=state)
            resumed = ctx.map(
                flaky, items, keys=keys,
                stage="f", on_error="collect",
            )
        assert resumed == [0, 10, 20]
        # The failure is not "done": only the two successes replay.
        assert ctx.replayed == 2 and ctx.executed == 1

    def test_failure_then_success_replays_success(self, tmp_path):
        """After a failed trial is retried successfully, a further
        resume replays the success (latest record wins the index)."""
        items = [0]
        keys = [unit_key("f", x=0)]
        with RunState(str(tmp_path / "run")) as state:
            state.record(
                keys[0],
                WorkFailure(index=0, error_type="RetryExhaustedError",
                            message="outage"),
                stage="f",
            )
            state.record(keys[0], 42, stage="f")
        with RunState(str(tmp_path / "run")) as state:
            assert state.completed(keys[0])
            assert state.result(keys[0]) == 42

    def test_interrupt_then_resume_is_identical(self, tmp_path):
        """Kill (via should_stop) mid-map, resume, and the merged result
        equals an uninterrupted run."""
        items = list(range(8))
        keys = [unit_key("sq", x=i) for i in items]
        flag = {"stop": False}

        def square(x):
            if x == 3:
                flag["stop"] = True  # request shutdown mid-run
            return x * x

        with RunState(str(tmp_path / "run")) as state:
            ctx = RunContext(state=state, should_stop=lambda: flag["stop"])
            with pytest.raises(RunInterrupted):
                ctx.map(square, items, keys=keys)

        with RunState(str(tmp_path / "run")) as state:
            ctx = RunContext(state=state)
            results = ctx.map(square, items, keys=keys)
        assert results == [i * i for i in items]
        assert 0 < ctx.replayed < len(items)
        assert ctx.replayed + ctx.executed == len(items)

    def test_stateless_context_is_plain_map(self):
        ctx = RunContext()
        results = ctx.map(
            lambda x: x + 1, [1, 2, 3]
        )
        assert results == [2, 3, 4]
        assert ctx.executed == 3 and ctx.replayed == 0

    def test_key_count_mismatch_rejected(self, tmp_path):
        with RunState(str(tmp_path / "run")) as state:
            ctx = RunContext(state=state)
            with pytest.raises(CheckpointError, match="one key per item"):
                ctx.map(str, [1, 2], keys=["only-one"])


# ---------------------------------------------------------------------------
# Durable run_fix_experiment (driver-level resume)
# ---------------------------------------------------------------------------


class TestDurableFixExperiment:
    def test_run_dir_resume_matches_fresh(self, tiny_dataset, tmp_path):
        """A journaled run_fix_experiment replays to the same result."""
        run_dir = str(tmp_path / "run")
        fixer = RTLFixer(max_iterations=2)
        with RunState(run_dir) as state:
            first = run_fix_experiment(
                tiny_dataset, fixer, repeats=2, ctx=RunContext(state=state)
            )
        journal = Journal(os.path.join(run_dir, "journal.jsonl"))
        assert len(journal) == len(tiny_dataset) * 2
        journal.close()
        with RunState(run_dir) as state:
            ctx = RunContext(state=state)
            resumed = run_fix_experiment(tiny_dataset, fixer, repeats=2, ctx=ctx)
        assert ctx.replayed == len(tiny_dataset) * 2 and ctx.executed == 0
        fresh = run_fix_experiment(tiny_dataset, fixer, repeats=2)
        assert resumed.fixed_counts == fresh.fixed_counts == first.fixed_counts
        assert resumed.iterations == fresh.iterations


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure(RuntimeError("x"))
        assert breaker.state == "closed"
        breaker.record_failure(RuntimeError("x"))
        assert breaker.state == "open" and breaker.trips == 1

    def test_success_resets_tally(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure(RuntimeError("x"))
        breaker.record_success()
        breaker.record_failure(RuntimeError("x"))
        assert breaker.state == "closed"

    def test_bare_transient_not_counted(self):
        """Transients belong to the retry layer; only exhausted retries
        (RetryExhaustedError, not transient) count toward a trip."""
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure(TransientError("hiccup"))
        assert breaker.state == "closed"
        breaker.record_failure(RetryExhaustedError("gave up", attempts=3))
        assert breaker.state == "open"

    def test_half_open_probe_recovers(self):
        breaker = CircuitBreaker(failure_threshold=1, probe_interval=2)
        breaker.record_failure(RuntimeError("x"))
        assert not breaker.admit()[0]  # denial 1
        assert breaker.admit()[0]  # denial 2 converts to a half-open probe
        assert breaker.state == "half_open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.admit()[0]

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, probe_interval=1)
        breaker.record_failure(RuntimeError("x"))
        assert breaker.admit()[0]  # immediate probe
        breaker.record_failure(RuntimeError("still down"))
        assert breaker.state == "open"
        assert breaker.trips == 2

    def test_no_probe_when_disabled(self):
        breaker = CircuitBreaker(failure_threshold=1, probe_interval=None)
        breaker.record_failure(RuntimeError("x"))
        assert not any(breaker.admit()[0] for _ in range(100))

    def test_executor_skips_fail_fast(self):
        """Once tripped, remaining units become SKIPPED slots without
        running."""
        breaker = CircuitBreaker(failure_threshold=2, probe_interval=None)
        calls = []

        def failing(x):
            calls.append(x)
            raise RuntimeError("down")

        results = ParallelRunner(jobs=1).map(
            failing, list(range(6)), on_error="collect", breaker=breaker
        )
        assert len(calls) == 2  # threshold reached, rest skipped
        assert all(isinstance(r, WorkFailure) for r in results)
        assert [r.skipped for r in results] == [False, False, True, True, True, True]
        assert results[2].error_type == "CircuitOpenError"
        assert "skipped" in results[2].describe()

    def test_breaker_requires_collect(self):
        with pytest.raises(ValueError, match="collect"):
            ParallelRunner(jobs=1).map(
                str, [1], on_error="raise", breaker=CircuitBreaker()
            )

    def test_snapshot_shape(self):
        snapshot = CircuitBreaker(failure_threshold=2).snapshot()
        assert snapshot["state"] == "closed"
        assert set(snapshot) >= {"state", "trips", "skipped"}

    def test_transient_probe_failure_settles_half_open(self):
        """A bare-transient probe failure must re-open the breaker, not
        leave it wedged half-open forever (which starves dispatch)."""
        breaker = CircuitBreaker(failure_threshold=1, probe_interval=1)
        breaker.record_failure(RuntimeError("x"))
        assert breaker.admit()[0]  # immediate probe
        assert breaker.probing
        breaker.record_failure(TransientError("hiccup"))
        assert breaker.state == "open"  # settled, not stuck half_open
        assert breaker.consecutive_failures == 1  # transient not tallied
        assert breaker.admit()[0]  # probing resumes on the next interval

    def test_non_probe_failure_while_probing_only_tallies(self):
        """While a half-open probe is in flight, a counted failure from
        another already-in-flight unit must not trip the breaker or
        discard the probe's pending outcome."""
        breaker = CircuitBreaker(failure_threshold=1, probe_interval=1)
        breaker.record_failure(RuntimeError("x"))
        assert breaker.admit()[0]  # probe dispatched
        trips = breaker.trips
        breaker.record_failure(RuntimeError("straggler"), probe=False)
        assert breaker.state == "half_open"
        assert breaker.trips == trips  # telemetry not inflated
        breaker.record_success(probe=True)  # the probe's own outcome
        assert breaker.state == "closed"

    def test_non_probe_success_leaves_probe_to_settle(self):
        """A straggler success while half-open resets the tally but does
        not close the breaker; the probe still settles the state."""
        breaker = CircuitBreaker(failure_threshold=1, probe_interval=1)
        breaker.record_failure(RuntimeError("x"))
        assert breaker.admit()[0]
        breaker.record_success(probe=False)
        assert breaker.state == "half_open" and breaker.probing
        assert breaker.consecutive_failures == 0
        breaker.record_failure(RuntimeError("still down"), probe=True)
        assert breaker.state == "open"

    def test_serial_run_survives_transient_probe_failures(self):
        """End-to-end serial regression: once tripped, transient probe
        failures keep the probe cadence going instead of silently
        skipping every remaining trial."""
        breaker = CircuitBreaker(failure_threshold=1, probe_interval=2)

        def failing(x):
            if x == 0:
                raise RuntimeError("down")  # trips the breaker
            raise TransientError("hiccup")  # every probe stays transient

        results = ParallelRunner(jobs=1).map(
            failing, list(range(6)), on_error="collect", breaker=breaker
        )
        assert all(isinstance(r, WorkFailure) for r in results)
        # denial, probe, denial, probe, ... -- probes keep executing
        assert [r.skipped for r in results] == [
            False, True, False, True, False, True
        ]

    def test_pool_probe_transient_failure_fills_every_slot(self):
        """Pool-backend regression: a transient probe failure must not
        wedge the breaker half-open and leave undispatched units as
        silent None slots in the result list."""
        breaker = CircuitBreaker(failure_threshold=1, probe_interval=1)
        with ParallelRunner(jobs=4) as runner:
            results = runner.map(
                _down_then_transient, list(range(12)), on_error="collect",
                breaker=breaker,
            )
        assert len(results) == 12
        assert all(isinstance(r, WorkFailure) for r in results)  # no Nones


# ---------------------------------------------------------------------------
# Graceful shutdown
# ---------------------------------------------------------------------------


class TestGracefulShutdown:
    def test_first_signal_sets_flag(self):
        notices = []
        shutdown = GracefulShutdown(notify=notices.append, hard_exit=lambda c: None)
        assert not shutdown.requested()
        shutdown.handler(signal.SIGINT)
        assert shutdown.requested()
        assert shutdown.signum == signal.SIGINT
        assert "resumable" in notices[0]

    def test_second_signal_hard_exits(self):
        codes = []
        shutdown = GracefulShutdown(notify=lambda m: None, hard_exit=codes.append)
        shutdown.handler(signal.SIGTERM)
        shutdown.handler(signal.SIGTERM)
        assert codes == [128 + signal.SIGTERM]

    def test_handlers_installed_and_restored(self):
        before = signal.getsignal(signal.SIGINT)
        with GracefulShutdown() as shutdown:
            assert signal.getsignal(signal.SIGINT) == shutdown.handler
        assert signal.getsignal(signal.SIGINT) == before

    def test_map_drains_then_raises(self):
        """should_stop mid-run stops dispatch and raises RunInterrupted
        with progress attached."""
        shutdown = GracefulShutdown(notify=lambda m: None, hard_exit=lambda c: None)
        seen = []

        def work(x):
            seen.append(x)
            if x == 1:
                shutdown.handler(signal.SIGINT)
            return x

        with pytest.raises(RunInterrupted) as info:
            ParallelRunner(jobs=1).map(
                work, list(range(5)), should_stop=shutdown.requested
            )
        assert seen == [0, 1]
        assert info.value.done == 2 and info.value.total == 5


# ---------------------------------------------------------------------------
# Single-flight coalescing of the shared memo store
# ---------------------------------------------------------------------------


class TestCacheCoalescing:
    """Single-flight misses of the shared :class:`Memo` store."""

    def test_concurrent_misses_compile_once(self):
        """N threads racing on a cold key produce one compute and N-1
        coalesced waits, and every call counts exactly once."""
        started = threading.Event()
        release = threading.Event()
        computed = []

        def slow_compute():
            computed.append(1)
            started.set()
            release.wait(timeout=10)
            return object()

        memo = Memo()
        results = []

        def lookup():
            results.append(memo.get_or_compute("key", slow_compute))

        leader = threading.Thread(target=lookup)
        leader.start()
        assert started.wait(timeout=10)
        waiters = [threading.Thread(target=lookup) for _ in range(3)]
        for thread in waiters:
            thread.start()
        # give the waiters time to reach event.wait()
        deadline = 100
        while memo.stats.coalesced < 3 and deadline:
            deadline -= 1
            threading.Event().wait(0.01)
        release.set()
        leader.join(timeout=10)
        for thread in waiters:
            thread.join(timeout=10)
        assert len(computed) == 1  # compute ran once for the key
        assert memo.stats.misses == 1
        assert memo.stats.coalesced == 3
        assert memo.stats.hits == 0  # waiters take the leader's value
        stats = memo.stats
        assert stats.hits + stats.misses + stats.coalesced == len(results) == 4
        assert len({id(r) for r in results}) == 1  # all the same object

    def test_coalesced_in_stats_dict(self):
        assert list(Memo().stats.as_dict()) == [
            "hits", "misses", "evictions", "coalesced_waits", "uncacheable",
            "hit_rate",
        ]

    def test_leader_failure_releases_waiters(self):
        """If the leader's compute raises, waiters do not deadlock: one
        becomes the next leader."""
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("injected leader crash")
            return "value"

        memo = Memo()
        with pytest.raises(RuntimeError):
            memo.get_or_compute("key", flaky)
        assert memo.get_or_compute("key", flaky) == "value"  # no stuck event
        assert len(attempts) == 2


def _down_then_transient(x: int) -> int:
    """Worker whose first unit trips a breaker and every later one fails
    transiently (top-level so process-pool workers can pickle it)."""
    if x == 0:
        raise RuntimeError("down")
    raise TransientError("hiccup")
