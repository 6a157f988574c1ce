"""Tests for the runtime subsystem: the content-addressed compile cache
and the deterministic parallel experiment executor."""

import os
from collections import Counter

import pytest

from repro.core.fixer import RTLFixer
from repro.dataset import ProblemSet, build_syntax_dataset, verilogeval
from repro.diagnostics import compile_source
from repro.eval import run_table2
from repro.eval.runner import run_fix_experiment
from repro.runtime import (
    CacheStats,
    CompileCache,
    Memo,
    ParallelRunner,
    cached_compile,
    compile_key,
    resolve_jobs,
)
from repro.runtime.cache import get_active_cache
from repro.scope import scoped
from repro.verilog.limits import ResourceLimits

GOOD = "module m(input a, output y);\nassign y = a;\nendmodule\n"
BROKEN = (
    "module top_module(input [7:0] in, output reg [7:0] out);\n"
    "always @(posedge clk) out <= in;\nendmodule\n"
)


@pytest.fixture(scope="module")
def tiny_dataset():
    return build_syntax_dataset(
        verilogeval(), samples_per_problem=3, seed=0, target_size=12
    )


@pytest.fixture(scope="module")
def tiny_problems():
    full = verilogeval()
    picked = [full.get(pid) for pid in ("mux2to1", "counter4_reset", "popcount8")]
    return ProblemSet(name="tiny", problems=picked)


class TestCompileKey:
    def test_flavors_share_one_key(self):
        """The flavor only picks the renderer, so it is no part of the
        content address: every flavor of a source shares one key."""
        cache = CompileCache()
        cache.compile(BROKEN, flavor="iverilog")
        cache.compile(BROKEN, flavor="quartus")
        assert len(cache) == 1 and compile_key(BROKEN) in cache

    def test_name_and_includes_participate(self):
        assert compile_key(GOOD, name="a.v") != compile_key(GOOD, name="b.v")
        assert compile_key(GOOD) != compile_key(
            GOOD, include_files={"inc.vh": "`define X 1\n"}
        )

    def test_stable_for_identical_inputs(self):
        assert compile_key(GOOD) == compile_key(GOOD)

    def test_pinned_key_bytes(self):
        """Every journal, cache and report keyed by compile results uses
        these exact bytes: a faster key must produce the same digest."""
        source = "module m(input a, output b);\n  assign b = a;\nendmodule\n"
        includes = {"inc.vh": "`define W 4\n", "a.vh": "`define X 1\n"}
        tight = ResourceLimits(max_tokens=5, max_parse_depth=8)
        assert compile_key(source) == (
            "170255d8d5125314a8302360735538564607d020e75b1c26946c56e9a54b6c85"
        )
        assert compile_key(source, name="a.v") == (
            "05c5f9fc56d0b02647b7792007b790efb4191569e1806e61a9b0317183ecb150"
        )
        assert compile_key(source, limits=tight) == (
            "551727032cca4c60d2bbc0a69d38cfad889958d4632d6045684893fd87694545"
        )
        assert compile_key(source, include_files=includes) == (
            "0f9372e021fa9e936cf8acec7998a6961018e39144a48e2115e3c8819b2e261d"
        )
        # Repeated calls (a memoized prefix, if any) give the same bytes.
        assert compile_key(source, limits=tight) == compile_key(
            source, limits=ResourceLimits(max_tokens=5, max_parse_depth=8)
        )


class TestMemo:
    """The bounded single-flight store behind every memo (single-flight
    itself is covered by ``test_durable.TestCacheCoalescing``)."""

    def test_lru_eviction(self):
        memo = Memo(maxsize=2)
        computed = []

        def compute(key):
            computed.append(key)
            return key.upper()

        for key in ("a", "b", "c"):
            memo.get_or_compute(key, compute, key)
        assert len(memo) == 2
        assert memo.stats.evictions == 1
        assert "a" not in memo  # oldest entry evicted
        assert memo.get_or_compute("a", compute, "a") == "A"
        assert computed == ["a", "b", "c", "a"]  # recomputed after eviction

    def test_lru_recency_order(self):
        memo = Memo(maxsize=2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # refresh a; b is now the LRU entry
        memo.put("c", 3)
        assert "a" in memo and "c" in memo and "b" not in memo
        assert memo.stats == CacheStats(hits=1, evictions=1)

    def test_clear_resets(self):
        memo = Memo()
        memo.put("a", 1)
        memo.get("a")
        memo.clear()
        assert len(memo) == 0 and memo.stats.lookups == 0

    def test_rejects_silly_maxsize(self):
        with pytest.raises(ValueError):
            Memo(maxsize=0)

    def test_none_key_counts_only_uncacheable(self):
        memo = Memo()
        memo.put(None, 1)
        memo.put("a", None)
        assert memo.get(None) is None
        assert memo.stats == CacheStats(uncacheable=1)
        assert len(memo) == 0


class TestCompileCache:
    def test_hit_miss_accounting(self):
        cache = CompileCache()
        first = cache.compile(GOOD)
        second = cache.compile(GOOD)
        assert first is second
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_flavors_share_one_entry(self):
        cache = CompileCache()
        iv = cache.compile(BROKEN, flavor="iverilog")
        qu = cache.compile(BROKEN, flavor="quartus")
        # One analysis: the second flavor is a hit on the first's entry.
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert iv.flavor == "iverilog" and qu.flavor == "quartus"
        assert iv.log != qu.log
        assert "Error (10161)" in qu.log  # Quartus tag, iverilog has none
        # Each flavor gets the same view again on a repeat.
        assert cache.compile(BROKEN, flavor="quartus") is qu
        assert cache.compile(BROKEN, flavor="iverilog") is iv
        assert compile_key(BROKEN) in cache

    def test_log_renders_once(self, monkeypatch):
        import repro.diagnostics.compiler as compiler_mod

        renders = []
        render = compiler_mod.render_log
        monkeypatch.setattr(
            compiler_mod, "render_log",
            lambda result: renders.append(result.flavor) or render(result),
        )
        result = CompileCache().compile(BROKEN, flavor="quartus")
        assert result.log is result.log
        assert renders == ["quartus"]

    def test_held_state_stays_within_maxsize(self):
        # Nothing the cache or its stats hold may grow with the number
        # of distinct sources ever seen (a long-lived server's cache).
        cache = CompileCache(maxsize=2)
        for i in range(10):
            cache.compile(f"module m{i}; endmodule\n")
        held = [*vars(cache).values(), *vars(cache.stats).values()]
        sizes = [len(v) for v in held if isinstance(v, (dict, list, set))]
        assert sizes and max(sizes) <= 2
        assert cache.stats.misses == 10 and cache.stats.evictions == 8


class TestActiveCachePlumbing:
    def test_default_cache_active(self):
        assert get_active_cache() is not None

    def test_use_compile_cache_scopes_and_restores(self):
        before = get_active_cache()
        cache = CompileCache()
        with scoped(compile_cache=cache):
            assert get_active_cache() is cache
            cached_compile(GOOD)
            assert cache.stats.misses == 1
        assert get_active_cache() is before

    def test_no_compile_cache_disables(self):
        with scoped(compile_cache=None):
            assert get_active_cache() is None
            result = cached_compile(GOOD)  # falls through, still compiles
            assert result.ok

    def test_set_active_cache_returns_previous(self):
        fresh = CompileCache()
        previous = get_active_cache()
        with scoped(compile_cache=fresh):
            assert get_active_cache() is fresh
        assert get_active_cache() is previous


class TestParallelRunner:
    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        with pytest.raises(ValueError):
            resolve_jobs(-1)

    def test_auto_backend_selection(self):
        """``jobs`` alone picks in-process or worker processes."""
        assert set(ParallelRunner(jobs=1).map(_pid, range(4))) == {os.getpid()}
        with ParallelRunner(jobs=2) as runner:
            assert os.getpid() not in runner.map(_pid, range(4))

    def test_map_preserves_submission_order(self):
        for jobs in (1, 3):
            with ParallelRunner(jobs=jobs) as runner:
                assert runner.map(_square, range(20)) == [i * i for i in range(20)]

    def test_progress_reports_every_unit(self):
        events = []
        with ParallelRunner(jobs=2) as runner:
            runner.map(
                _square, range(7), progress=lambda d, t, item: events.append((d, t))
            )
        assert [d for d, _ in events] == list(range(1, 8))
        assert all(t == 7 for _, t in events)

    def test_worker_exceptions_propagate(self):
        with ParallelRunner(jobs=2) as runner:
            with pytest.raises(ZeroDivisionError):
                runner.map(_reciprocal, [1, 0, 2])

    def test_one_pool_serves_every_map(self):
        """Every map runs on the same two worker processes."""
        with ParallelRunner(jobs=2) as runner:
            pids = set(runner.map(_pid, range(8))) | set(runner.map(_pid, range(8)))
        assert len(pids) <= 2


class TestDeterminism:
    """Parallel execution must be bit-identical to serial at equal seed."""

    def test_fix_experiment_parallel_matches_serial(self, tiny_dataset):
        fixer = RTLFixer()
        serial = run_fix_experiment(tiny_dataset, fixer, repeats=2)
        parallel = run_fix_experiment(tiny_dataset, fixer, repeats=2, jobs=4)
        assert parallel.fixed_counts == serial.fixed_counts
        assert parallel.iterations == serial.iterations
        assert parallel.rate == serial.rate
        assert parallel.label == serial.label and parallel.trials == serial.trials

    def test_fix_experiment_oneshot_parallel_matches_serial(self, tiny_dataset):
        fixer = RTLFixer(prompting="oneshot", compiler="iverilog", use_rag=False)
        serial = run_fix_experiment(tiny_dataset, fixer, repeats=2)
        parallel = run_fix_experiment(tiny_dataset, fixer, repeats=2, jobs=3)
        assert parallel.fixed_counts == serial.fixed_counts
        assert parallel.iterations == serial.iterations

    def test_table2_parallel_matches_serial(self, tiny_problems):
        serial = run_table2(tiny_problems, n_samples=4, sim_samples=8)
        parallel = run_table2(tiny_problems, n_samples=4, sim_samples=8, jobs=4)
        for benchmark in serial.outcomes:
            assert [vars(o) for o in parallel.outcomes[benchmark]] == [
                vars(o) for o in serial.outcomes[benchmark]
            ]

    def test_jobs_zero_means_all_cpus(self, tiny_dataset):
        fixer = RTLFixer()
        serial = run_fix_experiment(tiny_dataset, fixer, repeats=1)
        auto = run_fix_experiment(tiny_dataset, fixer, repeats=1, jobs=0)
        assert auto.fixed_counts == serial.fixed_counts


class TestPerTrialProgress:
    def test_serial_progress_is_per_trial(self, tiny_dataset):
        events = []
        fixer = RTLFixer()
        run_fix_experiment(
            tiny_dataset, fixer, repeats=2,
            progress=lambda done, total: events.append((done, total)),
        )
        total = len(tiny_dataset) * 2
        assert len(events) == total
        assert events == [(i + 1, total) for i in range(total)]

    def test_parallel_progress_is_per_trial(self, tiny_dataset):
        events = []
        fixer = RTLFixer()
        run_fix_experiment(
            tiny_dataset, fixer, repeats=2, jobs=4,
            progress=lambda done, total: events.append((done, total)),
        )
        total = len(tiny_dataset) * 2
        assert [d for d, _ in events] == list(range(1, total + 1))


class TestFlavorViews:
    """The cache holds one analysis per source and hands each flavor a
    view of it: every view must equal a cold compile at its flavor."""

    FLAVORS = ("simple", "iverilog", "quartus")

    @pytest.mark.parametrize("first", FLAVORS)
    def test_views_match_cold_compiles(self, tiny_dataset, first):
        sources = list(dict.fromkeys(
            [entry.code for entry in tiny_dataset.entries] + [BROKEN, GOOD]
        ))
        order = (first,) + tuple(f for f in self.FLAVORS if f != first)
        cache = CompileCache()
        for code in sources:
            views = {flavor: cache.compile(code, flavor=flavor) for flavor in order}
            entry = views[first]
            for flavor, view in views.items():
                cold = compile_source(code, flavor=flavor)
                assert (
                    view.flavor, view.ok, view.crashed, view.categories, view.log
                ) == (
                    cold.flavor, cold.ok, cold.crashed, cold.categories, cold.log
                )
                assert view.diagnostics is entry.diagnostics
                assert view.design is entry.design
                assert view.elaborated is entry.elaborated
                assert cache.compile(code, flavor=flavor) is view
        # One miss per source; the other flavors and the repeats all hit.
        assert cache.stats.misses == len(sources)
        assert cache.stats.hits == 5 * len(sources)


    def test_threads_share_one_analysis(self):
        # Serve workers race on the first view of an entry: a race may
        # build two equal views, never a wrong flavor or a second entry.
        import sys
        import threading

        sources = [BROKEN, GOOD, BROKEN.replace("clk", "clock")]
        cold = {
            (code, flavor): compile_source(code, flavor=flavor).log
            for code in sources for flavor in self.FLAVORS
        }
        cache = CompileCache()
        errors = []

        def worker(offset):
            try:
                for round_ in range(30):
                    for i, code in enumerate(sources):
                        flavor = self.FLAVORS[(offset + round_ + i) % 3]
                        view = cache.compile(code, flavor=flavor)
                        assert view.flavor == flavor
                        assert view.log == cold[code, flavor]
            except AssertionError as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(n,)) for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache) == len(sources) and cache.stats.misses == len(sources)
        stats = cache.stats
        assert stats.hits + stats.misses + stats.coalesced == 8 * 30 * len(sources)


class TestReferenceCompilationCaching:
    def test_table2_compiles_each_reference_once(self, tiny_problems, monkeypatch):
        import repro.diagnostics.compiler as compiler_mod

        cold = Counter()
        compile_cold = compiler_mod.compile_source

        def spy_cold(code, flavor="iverilog", **kwargs):
            cold[compile_key(code, **kwargs)] += 1
            return compile_cold(code, flavor=flavor, **kwargs)

        monkeypatch.setattr(compiler_mod, "compile_source", spy_cold)
        with scoped(compile_cache=CompileCache()):
            run_table2(tiny_problems, n_samples=4, sim_samples=8)
        for problem in tiny_problems:
            assert cold[compile_key(problem.reference)] == 1, problem.id

    def test_warm_table2_rerun_has_zero_redundant_compiles(self, tiny_problems):
        cache = CompileCache()
        with scoped(compile_cache=cache):
            run_table2(tiny_problems, n_samples=4, sim_samples=8)
            cold_misses = cache.stats.misses
            run_table2(tiny_problems, n_samples=4, sim_samples=8)
            assert cache.stats.misses == cold_misses
            assert cache.stats.hits > cold_misses


def _square(x: int) -> int:
    """Square (top-level so process-pool workers can pickle it)."""
    return x * x


def _reciprocal(x: int) -> float:
    """1/x, used to exercise worker-exception propagation."""
    return 1 / x


def _pid(_: int) -> int:
    """The process a unit ran in."""
    return os.getpid()
