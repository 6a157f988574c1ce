"""Semantics of the process-wide runtime scope.

The ambient caches, ledgers and simulation settings are process-wide
state, not per-context state: threads the caller starts (the repair
service's executor threads) must see what it scoped, leaving a scope
restores only the fields it set, and a disabling scope nested inside an
enabling one restores the outer value.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.diagnostics import compile_source
from repro.runtime import CompileCache, cached_compile
from repro.runtime.cache import DEFAULT_CACHE, get_active_cache
from repro.scope import current, scoped
from repro.sim import DEFAULT_SIM_LIMITS, SimLimits, make_simulator, run_differential
from repro.sim.verdict import (
    DEFAULT_VERDICT_CACHE,
    VerdictCache,
    get_active_verdict_cache,
)

ADDER = (
    "module m(input [3:0] a, input [3:0] b, output [4:0] y);\n"
    "assign y = a + b;\n"
    "endmodule\n"
)
XOR = (
    "module m(input [3:0] a, input [3:0] b, output [3:0] y);\n"
    "assign y = a ^ b;\n"
    "endmodule\n"
)


def _compile_and_simulate(code: str) -> bool:
    """One worker unit: a cached compile plus a memoized self-check."""
    design = cached_compile(code).elaborated
    return run_differential(design, design, samples=4).passed


def _lookups(stats) -> int:
    return stats.hits + stats.misses


class TestThreadWorkersSeeTheCallersScope:
    def test_threads_count_into_scoped_caches(self):
        compile_cache = CompileCache()
        verdicts = VerdictCache()
        default_compiles = _lookups(DEFAULT_CACHE.stats)
        default_verdicts = _lookups(DEFAULT_VERDICT_CACHE.stats)
        with scoped(compile_cache=compile_cache, verdict_cache=verdicts):
            with ThreadPoolExecutor(max_workers=2) as pool:
                results = list(
                    pool.map(_compile_and_simulate, [ADDER, XOR, ADDER, XOR])
                )
        assert results == [True] * 4
        assert compile_cache.stats.misses >= 2
        assert _lookups(compile_cache.stats) + compile_cache.stats.coalesced == 4
        assert verdicts.stats.misses >= 2
        assert _lookups(verdicts.stats) == 4
        assert _lookups(DEFAULT_CACHE.stats) == default_compiles
        assert _lookups(DEFAULT_VERDICT_CACHE.stats) == default_verdicts


class TestPerFieldRestore:
    def test_leaving_inner_cache_scope_keeps_limits_set_inside(self):
        outer, inner = CompileCache(), CompileCache()
        design = compile_source(ADDER).elaborated
        tight = SimLimits(max_settle_passes=7)
        limits = scoped(sim_limits=tight)
        try:
            with scoped(compile_cache=outer):
                with scoped(compile_cache=inner):
                    limits.__enter__()
                    assert get_active_cache() is inner
                assert get_active_cache() is outer
                assert make_simulator(design).sim_tracker.limits is tight
            assert get_active_cache() is DEFAULT_CACHE
            assert make_simulator(design).sim_tracker.limits is tight
        finally:
            limits.__exit__(None, None, None)
        assert make_simulator(design).sim_tracker.limits is DEFAULT_SIM_LIMITS


class TestDisableNestedInEnable:
    def test_no_verdict_cache_inside_use_verdict_cache(self):
        verdicts = VerdictCache()
        design = compile_source(XOR).elaborated
        with scoped(verdict_cache=verdicts):
            with scoped(verdict_cache=None):
                assert get_active_verdict_cache() is None
                assert run_differential(design, design, samples=4).passed
            assert _lookups(verdicts.stats) == 0
            assert get_active_verdict_cache() is verdicts
            assert run_differential(design, design, samples=4).passed
        assert verdicts.stats.misses == 1
        assert get_active_verdict_cache() is DEFAULT_VERDICT_CACHE


class TestScopeRecord:
    def test_unknown_field_is_a_type_error(self):
        with pytest.raises(TypeError, match="compile_cahce"):
            with scoped(compile_cahce=None):
                pass
        assert "compile_cahce" not in current()

    def test_failed_check_swaps_nothing(self):
        with pytest.raises(ValueError):
            with scoped(compile_cache=None, sim_limits="cycles=9"):
                pass
        assert get_active_cache() is DEFAULT_CACHE
        assert "sim_limits" not in current()
