"""Service integration drills: sustained 2x-capacity overload (typed
sheds, zero crashes, every admitted job completes), a mid-load backend
outage (shed + heal, never crash), deadline expiry under queueing, and
the SIGTERM drain / ``--resume`` replay contract against a real
``rtlfixer serve`` subprocess (mirroring ``test_resume_integration``)."""

import asyncio
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service.client import ServiceClient
from repro.service.protocol import ShedReason
from repro.service.scheduler import SchedulerConfig
from repro.service.server import RepairServer, ServerConfig

FIXABLE = (
    "module top_module(input [7:0] in, output [7:0] out);\n"
    "assign out[8] = in[0];\nendmodule\n"
)


async def _with_server(config: ServerConfig, scenario) -> tuple:
    """Run ``scenario(client, server)`` against an in-process server,
    then drain; returns (scenario result, final stats payload)."""
    server = RepairServer(config)
    serve_task = asyncio.create_task(server.serve())
    for _ in range(200):
        await asyncio.sleep(0.01)
        if server.port:
            break
    client = ServiceClient("127.0.0.1", server.port, timeout=120.0)
    try:
        result = await scenario(client, server)
        _, stats = await client.stats()
    finally:
        server.request_drain()
        await serve_task
    return result, stats


class TestStreamedOneShot:
    def test_oneshot_stream_emits_iteration_events(self):
        """A streamed One-shot request reports its turns as SSE
        ``iteration`` events, like a ReAct request."""
        config = ServerConfig(port=0, scheduler=SchedulerConfig(capacity=1))

        async def scenario(client, server):
            return [
                (event, payload)
                async for event, payload in client.repair_stream(
                    code=FIXABLE, prompting="oneshot"
                )
            ]

        events, _ = asyncio.run(_with_server(config, scenario))
        names = [event for event, _ in events]
        assert names[0] == "accepted" and names[-1] == "result"
        iterations = [payload for event, payload in events
                      if event == "iteration"]
        assert iterations
        assert iterations[-1]["action"] == "Compiler"
        assert events[-1][1]["iterations"] == 1


class TestRequestConfig:
    def test_knob_the_config_rejects_is_a_400(self):
        """A request knob the fixer config rejects is answered 400 in
        the request's answered path: never a dropped connection, a 500
        or a crash count."""
        config = ServerConfig(port=0, scheduler=SchedulerConfig(capacity=1))

        async def scenario(client, server):
            return await client.repair(code=FIXABLE, tier="bogus")

        (status, body), stats = asyncio.run(_with_server(config, scenario))
        assert status == 400 and body["status"] == "bad_request"
        assert "tier" in body["message"]
        assert stats["service"]["submitted"] == 0
        assert stats["service"]["crashed"] == 0


@pytest.mark.slow
class TestOverloadDrill:
    def test_2x_capacity_sheds_typed_and_never_crashes(self):
        """The acceptance drill: offered load ~2x what capacity + queue
        bounds can hold; rejections are typed 429s, every admitted job
        completes, nothing crashes."""
        config = ServerConfig(
            port=0,
            scheduler=SchedulerConfig(
                capacity=2, max_queue_per_tenant=3, max_queued=6
            ),
            work_delay=0.08,
        )

        async def scenario(client, server):
            async def one(index):
                status, result = await client.repair(
                    code=FIXABLE, tenant=f"tenant-{index % 3}", seed=index
                )
                return status, result

            # capacity 2 + 6 queue slots, 24 concurrent submissions:
            # a sustained ~2x+ overload by construction.
            return await asyncio.gather(*(one(i) for i in range(24)))

        outcomes, stats = asyncio.run(_with_server(config, scenario))
        service = stats["service"]
        admitted = [r for s, r in outcomes if s == 200]
        shed = [r for s, r in outcomes if s == 429]
        assert shed, "an overloaded server must shed"
        assert admitted, "an overloaded server must still serve"
        # Every rejection is typed with a machine-readable reason.
        for rejection in shed:
            assert rejection["status"] == "overloaded"
            assert rejection["reason"] in ShedReason.ALL
        # Every admitted job reached a terminal result; none crashed.
        for result in admitted:
            assert result["status"] in ("fixed", "not_fixed")
        assert service["crashed"] == 0
        assert service["completed"] == service["admitted"]
        assert service["total_shed"] == len(shed)

    def test_deadline_expires_while_queued_is_typed_504(self):
        """A job whose budget dies in the queue is answered
        deadline_exceeded without burning a worker slot."""
        config = ServerConfig(
            port=0,
            scheduler=SchedulerConfig(
                capacity=1, max_queue_per_tenant=8, max_queued=8
            ),
            work_delay=0.2,
        )

        async def scenario(client, server):
            async def one(index, deadline_s):
                return await client.repair(
                    code=FIXABLE, tenant="t", seed=index,
                    deadline_s=deadline_s,
                )

            # A slow head-of-line job, then tight-deadline followers
            # that cannot possibly dequeue in time.
            return await asyncio.gather(
                one(0, 30.0), one(1, 0.05), one(2, 0.05)
            )

        outcomes, stats = asyncio.run(_with_server(config, scenario))
        statuses = sorted(result["status"] for _, result in outcomes)
        assert statuses.count("deadline_exceeded") >= 1
        expired = [r for s, r in outcomes if s == 504]
        for result in expired:
            assert result["stage"] in ("queued", "simulated-work",
                                       "retry-dispatch", "react-iteration")
        assert stats["service"]["crashed"] == 0

    def test_chaos_outage_sheds_heals_and_never_crashes(self):
        """Mid-load backend outage: jobs fail as backend errors, the
        breaker trips (later submissions shed typed), and once the
        window passes a probe heals the service."""
        config = ServerConfig(
            port=0,
            scheduler=SchedulerConfig(
                capacity=1, max_queue_per_tenant=32, max_queued=32
            ),
            breaker_threshold=2,
            probe_interval=2,
            chaos_outage=(2, 4),
        )

        async def scenario(client, server):
            outcomes = []
            for index in range(20):
                status, result = await client.repair(
                    code=FIXABLE, tenant="t", seed=index
                )
                outcomes.append((status, result))
            return outcomes

        outcomes, stats = asyncio.run(_with_server(config, scenario))
        service = stats["service"]
        statuses = [result["status"] for _, result in outcomes]
        assert service["crashed"] == 0
        assert service["backend_errors"] >= 2, "outage must bite"
        assert service["shed"].get(ShedReason.BREAKER_OPEN, 0) > 0, \
            "an open breaker must shed typed"
        # Healed: jobs succeed again after the outage window.
        assert statuses[-1] == "fixed"
        assert stats["breaker"]["state"] == "closed"


def _env() -> dict:
    """Subprocess environment with the library importable."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _start_server(run_dir: str, resume: bool) -> tuple:
    """Spawn a journaled serve subprocess; returns (proc, port)."""
    cmd = [
        sys.executable, "-m", "repro.cli", "serve",
        "--port", "0", "--capacity", "2", "--work-delay", "0.15",
        "--run-dir", run_dir,
    ]
    if resume:
        cmd.append("--resume")
    proc = subprocess.Popen(
        cmd, env=_env(), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if line.startswith("SERVING"):
            return proc, int(line.rsplit(":", 1)[1].strip())
        if not line and proc.poll() is not None:
            break
    proc.kill()
    pytest.fail("serve subprocess never printed its SERVING line")


@pytest.mark.slow
class TestDrainResume:
    def test_sigterm_mid_load_drains_then_resume_replays_identical(
        self, tmp_path
    ):
        """The drain acceptance scenario: SIGTERM while jobs are in
        flight; every submission gets a typed answer; exit 0; a resumed
        server replays completed jobs digest-identically."""
        run_dir = str(tmp_path / "service-run")
        proc, port = _start_server(run_dir, resume=False)

        async def fire_and_kill():
            client = ServiceClient("127.0.0.1", port, timeout=120.0)

            async def one(index):
                try:
                    status, result = await client.repair(
                        code=FIXABLE, tenant="drill", seed=index
                    )
                    return {"index": index, "http": status, **result}
                except (ConnectionError, OSError,
                        asyncio.IncompleteReadError) as exc:
                    return {"index": index, "status": "dropped",
                            "error": str(exc)}

            tasks = [asyncio.create_task(one(i)) for i in range(10)]
            await asyncio.sleep(0.4)  # let some jobs land, some queue
            proc.send_signal(signal.SIGTERM)
            return await asyncio.gather(*tasks)

        try:
            answers = asyncio.run(fire_and_kill())
            assert proc.wait(timeout=120) == 0  # clean drain exits 0
        finally:
            if proc.poll() is None:
                proc.kill()

        dropped = [a for a in answers if a["status"] == "dropped"]
        assert not dropped, f"drain dropped answers: {dropped}"
        completed = {a["index"]: a for a in answers
                     if a["status"] in ("fixed", "not_fixed")}
        for shed in (a for a in answers if a["status"] == "overloaded"):
            assert shed["reason"] in ShedReason.ALL
        assert completed, "some jobs must have completed before the drain"

        # Resume: completed jobs replay from the journal, digest-identical.
        proc2, port2 = _start_server(run_dir, resume=True)

        async def resubmit():
            client = ServiceClient("127.0.0.1", port2, timeout=120.0)
            results = {}
            for index in sorted(completed):
                _, result = await client.repair(
                    code=FIXABLE, tenant="drill", seed=index
                )
                results[index] = result
            return results

        try:
            replays = asyncio.run(resubmit())
            proc2.send_signal(signal.SIGTERM)
            assert proc2.wait(timeout=120) == 0
        finally:
            if proc2.poll() is None:
                proc2.kill()

        for index, replay in replays.items():
            assert replay["replayed"] is True
            assert (replay["result_digest"]
                    == completed[index]["result_digest"])

    def test_resume_without_flag_refuses_existing_journal(self, tmp_path):
        """A journaled run directory is never silently clobbered: the
        second server must be told --resume (checkpoint-misuse exit)."""
        run_dir = str(tmp_path / "service-run")
        proc, port = _start_server(run_dir, resume=False)

        async def one_job():
            client = ServiceClient("127.0.0.1", port, timeout=120.0)
            return await client.repair(code=FIXABLE, tenant="t", seed=0)

        try:
            status, _ = asyncio.run(one_job())
            assert status == 200
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=120) == 0
        finally:
            if proc.poll() is None:
                proc.kill()

        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve",
             "--port", "0", "--run-dir", run_dir],
            env=_env(), capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert "--resume" in result.stderr
