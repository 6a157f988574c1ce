"""Deterministic corpus fuzzer for the compiler front-end.

The crash-proofing contract of :func:`repro.diagnostics.compile_source`
-- *never crash, never hang, always return diagnostics* -- is only
credible if it is continuously exercised against adversarial input.
This module is the built-in prosecutor: a seeded mutation fuzzer that
drives the full pipeline (lexer, preprocessor, parser, elaborator)
under deliberately tight :data:`~repro.verilog.limits.FUZZ_LIMITS` and
cross-checks the invariants the rest of the system relies on:

1. **no uncaught exception** -- every input yields a
   :class:`~repro.diagnostics.compiler.CompileResult`;
2. **renderer agreement** -- the iverilog- and Quartus-styled runs of
   the same input agree on pass/fail and on the ``crashed`` flag, and
   both render their logs without raising;
3. **cache transparency** -- compiling through a fresh
   :class:`~repro.runtime.cache.CompileCache` returns the same verdict
   as the uncached run (checked on a deterministic subsample);
4. **bounded time** -- each input compiles within a wall-clock budget;
5. **simulator differential** -- every successfully elaborated input is
   simulated a few seeded steps (including deliberate all-X stimulus, so
   the two-state fast path's demotion machinery is exercised) on both
   the interpreting :class:`~repro.sim.simulator.Simulator` and the
   compiled :class:`~repro.sim.engine.CompiledSimulator`; per-signal
   state, memories, ``$display`` logs and raised
   :class:`~repro.errors.SimulationError` messages must be identical.
   Simulation-oriented mutators (:data:`SIM_MUTATORS`) additionally
   perturb the stimulus shape -- cycle-count scaling, extra X-injection
   cycles, random bit flips -- so the check covers more than the default
   4-step schedule;
6. **sandbox differential** -- both engines run under the tight
   :data:`~repro.sim.limits.FUZZ_SIM_LIMITS` sandbox budgets and must
   agree on the sandbox *category* (``ok``/``fail``/``limit``/
   ``crashed``) and on the exhausted budget kind (runs cut off by the
   nondeterministic wall-clock watchdog are exempt from comparison);
7. **sim-cache / sim-chaos transparency** -- on a deterministic
   subsample, the differential testbench is run twice against a fresh
   :class:`~repro.sim.verdict.VerdictCache`: repeated verdicts must
   agree, ``limit``/``crashed``/chaos-injected verdicts must never be
   memoized, and an injected simulator fault must leave the cache empty.

Determinism is the backbone: iteration ``i`` of seed ``s`` derives all
randomness from ``random.Random(f"fuzz|{s}|{i}")``, so a failing
iteration can be replayed in isolation and two runs with the same seed
produce byte-identical mutation sequences and verdicts
(:meth:`FuzzReport.digest` is the cheap equality witness).  The chaos
harness plugs in through an optional
:class:`~repro.runtime.faults.FaultInjector`: seams drawn as
``garbage`` splice the canonical chaos junk into the fuzzed source, so
fault-injection and fuzzing compose in one run.

Exposed on the CLI as ``rtlfixer fuzz --seed N --iterations K``.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from random import Random
from typing import Callable, Optional

from ..scope import scoped
from ..verilog.limits import FUZZ_LIMITS, ResourceLimits
from .faults import GARBAGE_CODE, FaultInjector

#: Small, varied Verilog snippets the mutators start from.  Mostly
#: well-formed (mutations break them in interesting ways), plus a few
#: already-broken entries so error-recovery paths get fuzzed too.
SEED_CORPUS: tuple[str, ...] = (
    "module top_module(input a, input b, output out);\n"
    "  assign out = a & b;\n"
    "endmodule\n",
    "module top_module(input clk, input d, output reg q);\n"
    "  always @(posedge clk) q <= d;\n"
    "endmodule\n",
    "module top_module(input [7:0] in, output [7:0] out);\n"
    "  assign out = {in[0], in[7:1]};\n"
    "endmodule\n",
    "module m #(parameter W = 4)(input [W-1:0] d, output [W-1:0] q);\n"
    "  genvar i;\n"
    "  generate for (i = 0; i < W; i = i + 1) begin : g\n"
    "    assign q[i] = d[W-1-i];\n"
    "  end endgenerate\n"
    "endmodule\n",
    "`define WIDTH 8\n"
    "module m(input [`WIDTH-1:0] a, output reg [`WIDTH-1:0] b);\n"
    "  always @(*) begin\n"
    "    case (a)\n"
    "      8'h00: b = 8'hff;\n"
    "      default: b = a;\n"
    "    endcase\n"
    "  end\n"
    "endmodule\n",
    "module m(input wire x, output wire y)\n"
    "  assign y = x\n"
    "endmodule\n",
    "module m(input a, output reg q);\n"
    "  always @(posedge clk) begin\n"
    "    q <= a;\n"
    "endmodule\n",
    "module m; wire w = 3'b012; endmodule\n",
)

#: Token soup spliced into sources by the token mutator.
_SPLICE_TOKENS: tuple[str, ...] = (
    "module", "endmodule", "begin", "end", "always", "assign", "posedge",
    "case", "endcase", "if", "else", "wire", "reg", "input", "output",
    ";", ",", "(", ")", "[", "]", "{", "}", "@", "#", "=", "<=", "?", ":",
    "8'hff", "3'b01x", "'", "`", "\\", "$display", "generate", "for",
    "\x00", "é", "//", "/*", "*/", '"',
)

Mutator = Callable[[Random, str, dict], str]


def _mut_byte_splice(rng: Random, code: str, includes: dict) -> str:
    """Overwrite or insert a few random bytes at random positions."""
    chars = list(code) or [" "]
    for _ in range(rng.randint(1, 8)):
        pos = rng.randrange(len(chars))
        ch = chr(rng.choice((rng.randint(0, 127), rng.randint(0, 0x2FF))))
        if rng.random() < 0.5:
            chars[pos] = ch
        else:
            chars.insert(pos, ch)
    return "".join(chars)


def _mut_token_splice(rng: Random, code: str, includes: dict) -> str:
    """Insert random Verilog-ish tokens at random positions."""
    parts = [code]
    for _ in range(rng.randint(1, 5)):
        victim = parts.pop(rng.randrange(len(parts)))
        cut = rng.randrange(len(victim) + 1)
        token = rng.choice(_SPLICE_TOKENS)
        parts.extend([victim[:cut], f" {token} ", victim[cut:]])
    return "".join(parts)


def _mut_truncate(rng: Random, code: str, includes: dict) -> str:
    """Cut the source off mid-construct."""
    if not code:
        return code
    return code[: rng.randrange(len(code))]


def _mut_duplicate(rng: Random, code: str, includes: dict) -> str:
    """Duplicate a random slice (repeated modules, doubled headers...)."""
    if not code:
        return code
    lo = rng.randrange(len(code))
    hi = rng.randrange(lo, min(len(code), lo + 512) + 1)
    return code[:hi] + code[lo:hi] + code[hi:]


def _mut_macro_bomb(rng: Random, code: str, includes: dict) -> str:
    """Prepend an exponentially fanning (or cyclic) ``\\`define`` chain."""
    depth = rng.randint(3, 12)
    lines = ["`define F0 x"]
    for i in range(1, depth):
        lines.append(f"`define F{i} `F{i - 1} `F{i - 1}")
    if rng.random() < 0.3:  # close the loop: a macro cycle
        lines[0] = f"`define F0 `F{depth - 1}"
    lines.append(f"`define BOOM `F{depth - 1}")
    return "\n".join(lines) + "\nmodule b; wire w = `BOOM; endmodule\n" + code


def _mut_include_bomb(rng: Random, code: str, includes: dict) -> str:
    """Add mutually-recursive ``\\`include`` files to the file map."""
    chain = rng.randint(2, 5)
    for i in range(chain):
        includes[f"f{i}.vh"] = (
            f'`include "f{(i + 1) % chain}.vh"\n`define I{i} {i}\n'
        )
    return '`include "f0.vh"\n' + code


def _mut_paren_nest(rng: Random, code: str, includes: dict) -> str:
    """Append an expression wrapped in deeply nested parentheses."""
    depth = rng.randint(16, 2000)
    expr = "(" * depth + "1" + ")" * depth
    return code + f"\nmodule p(output o); assign o = {expr}; endmodule\n"


def _mut_ident_blowup(rng: Random, code: str, includes: dict) -> str:
    """Append a declaration with an absurdly long identifier."""
    name = "x" * rng.randint(256, 20000)
    return code + f"\nmodule q; wire {name}; endmodule\n"


#: Name -> mutator registry; names appear in reports and failure replays.
MUTATORS: dict[str, Mutator] = {
    "byte_splice": _mut_byte_splice,
    "token_splice": _mut_token_splice,
    "truncate": _mut_truncate,
    "duplicate": _mut_duplicate,
    "macro_bomb": _mut_macro_bomb,
    "include_bomb": _mut_include_bomb,
    "paren_nest": _mut_paren_nest,
    "ident_blowup": _mut_ident_blowup,
}

#: Every this-many iterations, additionally cross-check cache vs no-cache.
_CACHE_CHECK_EVERY = 7


@dataclass(frozen=True)
class StimulusPlan:
    """Shape of one simulator-differential run's stimulus.

    Derived per iteration from the seeded sim RNG by the simulation
    mutators (:data:`SIM_MUTATORS`); a pure value so a failing iteration
    replays bit-identically.
    """

    #: Clock/evaluation steps to drive.
    steps: int = 4
    #: Cycles whose every input is driven all-X (fast-path demotion).
    x_cycles: tuple[int, ...] = (2,)
    #: Random single-bit flips applied to the drawn vectors.
    perturb: int = 0


SimMutator = Callable[[Random, StimulusPlan], StimulusPlan]


def _sim_mut_cycle_scale(rng: Random, plan: StimulusPlan) -> StimulusPlan:
    """Scale the driven cycle count up (testbench cycle-count scaling)."""
    return replace(plan, steps=min(64, plan.steps * rng.choice((2, 4, 8))))


def _sim_mut_x_inject(rng: Random, plan: StimulusPlan) -> StimulusPlan:
    """Drive all inputs X on an extra random cycle."""
    extra = rng.randrange(max(plan.steps, 1))
    return replace(plan, x_cycles=tuple(sorted(set(plan.x_cycles) | {extra})))


def _sim_mut_stim_perturb(rng: Random, plan: StimulusPlan) -> StimulusPlan:
    """Flip a few random stimulus bits after the base vectors are drawn."""
    return replace(plan, perturb=plan.perturb + rng.randint(1, 4))


#: Simulation-oriented mutator registry (stimulus perturbation, cycle
#: scaling, X injection); names land in ``mutator_counts``.
SIM_MUTATORS: dict[str, SimMutator] = {
    "sim_cycle_scale": _sim_mut_cycle_scale,
    "sim_stim_perturb": _sim_mut_stim_perturb,
    "sim_x_inject": _sim_mut_x_inject,
}


def _derive_sim_plan(rng: Random) -> tuple[StimulusPlan, tuple[str, ...]]:
    """Draw 0-2 simulation mutators and fold them into a plan."""
    plan = StimulusPlan()
    names = sorted(SIM_MUTATORS)
    picked = tuple(rng.choice(names) for _ in range(rng.randint(0, 2)))
    for name in picked:
        plan = SIM_MUTATORS[name](rng, plan)
    return plan, picked


@dataclass(frozen=True)
class FuzzConfig:
    """Parameters of one fuzzing run."""

    seed: int = 0
    iterations: int = 200
    #: Resource budgets applied to every fuzzed compile (tight by
    #: default so adversarial inputs are cut off quickly).
    limits: ResourceLimits = FUZZ_LIMITS
    #: Wall-clock ceiling per fuzzed input, in seconds; an iteration
    #: slower than this is recorded as a hang failure.
    per_input_budget: float = 2.0
    #: Optional chaos integration: a fault injector whose ``compiler``
    #: seam, when drawn as ``garbage``, splices chaos junk into the
    #: fuzzed source before compiling.
    injector: Optional[FaultInjector] = None

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.per_input_budget <= 0:
            raise ValueError("per_input_budget must be > 0")


@dataclass(frozen=True)
class FuzzFailure:
    """One invariant violation found by the fuzzer."""

    iteration: int
    invariant: str
    detail: str
    mutations: tuple[str, ...]
    #: Head of the offending source, enough to reproduce with the seed.
    snippet: str

    def describe(self) -> str:
        """One-line human-readable account of the violation."""
        muts = "+".join(self.mutations) or "(corpus)"
        return (
            f"iteration {self.iteration} [{muts}] violated "
            f"{self.invariant}: {self.detail}"
        )


@dataclass
class FuzzReport:
    """Outcome of :func:`run_fuzz`: verdicts, failures, statistics."""

    config: FuzzConfig
    #: Per-iteration verdict strings (status + error categories), in
    #: iteration order -- the determinism witness.
    verdicts: list[str] = field(default_factory=list)
    #: Per-iteration "+"-joined mutator names, in iteration order.
    mutations: list[str] = field(default_factory=list)
    failures: list[FuzzFailure] = field(default_factory=list)
    #: How often each mutator ran.
    mutator_counts: dict[str, int] = field(default_factory=dict)
    #: Count of results per status letter (P=pass, F=fail, C=crashed).
    status_counts: dict[str, int] = field(default_factory=dict)
    elapsed: float = 0.0
    slowest: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every invariant held on every iteration."""
        return not self.failures

    def digest(self) -> str:
        """SHA-256 over the mutation and verdict sequences.

        Two runs with the same config must produce the same digest;
        comparing digests is how reproducibility is asserted without
        shipping the full sequences around.
        """
        hasher = hashlib.sha256()
        for mutation, verdict in zip(self.mutations, self.verdicts):
            hasher.update(mutation.encode())
            hasher.update(b"\x00")
            hasher.update(verdict.encode())
            hasher.update(b"\x00")
        return hasher.hexdigest()

    def summary(self) -> str:
        """Multi-line human-readable run summary."""
        lines = [
            f"fuzz seed={self.config.seed} iterations={len(self.verdicts)} "
            f"elapsed={self.elapsed:.2f}s slowest={self.slowest * 1000:.0f}ms",
            "status: " + (
                " ".join(
                    f"{status}={count}"
                    for status, count in sorted(self.status_counts.items())
                ) or "(none)"
            ),
            "mutators: " + (
                " ".join(
                    f"{name}={count}"
                    for name, count in sorted(self.mutator_counts.items())
                ) or "(none)"
            ),
            f"digest: {self.digest()}",
        ]
        if self.failures:
            lines.append(f"FAILURES ({len(self.failures)}):")
            lines.extend("  " + failure.describe() for failure in self.failures)
        else:
            lines.append("all invariants held")
        return "\n".join(lines)


def _verdict(result) -> str:
    """Compact stable verdict for one CompileResult."""
    if result.crashed:
        status = "C"
    elif result.ok:
        status = "P"
    else:
        status = "F"
    cats = ",".join(c.value for c in result.categories)
    return f"{status}:{cats}" if cats else status


def _fuzz_one(
    config: FuzzConfig, iteration: int
) -> tuple[str, dict[str, str], tuple[str, ...], str]:
    """Derive iteration ``iteration``'s input:
    (code, includes, mutations, base snippet).

    Pure function of (seed, iteration) -- this is what makes any failing
    iteration individually replayable.  ``base`` is the unmutated corpus
    snippet the input was derived from; the sandbox differential falls
    back to it when the mutated input no longer elaborates.
    """
    rng = Random(f"fuzz|{config.seed}|{iteration}")
    base = rng.choice(SEED_CORPUS)
    code = base
    includes: dict[str, str] = {}
    names = sorted(MUTATORS)
    picked = tuple(
        rng.choice(names) for _ in range(rng.randint(1, 3))
    )
    for name in picked:
        code = MUTATORS[name](rng, code, includes)
    if config.injector is not None:
        kind = config.injector.decide(
            "compiler.fuzz", f"{config.seed}|{iteration}"
        )
        if kind == "garbage":
            code = GARBAGE_CODE + "\n" + code
    return code, includes, picked, base


def _compare_sandbox_verdicts(verdicts: dict, where: str) -> Optional[tuple[str, str]]:
    """Compare per-engine sandbox verdicts; a failure is a
    ``(invariant, detail)`` pair.  Wall-clock watchdog cutoffs are the
    one nondeterministic budget, so either engine hitting one exempts
    the comparison."""
    if any(v.kind == "wall clock" for v in verdicts.values()):
        return None
    if set(verdicts) != {"interp", "compiled"}:
        missing = "interp" if "interp" in verdicts else "compiled"
        only = verdicts.get("interp") or verdicts.get("compiled")
        return (
            "sandbox-differential",
            f"only {missing} left the sandbox at {where}: {only.summary()}",
        )
    iv, cv = verdicts["interp"], verdicts["compiled"]
    if (iv.category, iv.kind) != (cv.category, cv.kind):
        return (
            "sandbox-differential",
            f"categories differ at {where}: interp={iv.summary()!r} "
            f"compiled={cv.summary()!r}",
        )
    if iv.category == "fail" and iv.detail != cv.detail:
        return (
            "simulator-differential",
            f"{where} errors differ: interp={iv.detail!r} "
            f"compiled={cv.detail!r}",
        )
    return None


def _sim_differential(
    design, limits, rng: Random, plan: Optional[StimulusPlan] = None
) -> Optional[tuple[str, str]]:
    """Cross-check interpreted vs compiled simulation of ``design``.

    Both engines run under :data:`~repro.sim.limits.FUZZ_SIM_LIMITS`
    with a fresh budget tracker each.  Returns ``None`` when the engines
    agree, or an ``(invariant, detail)`` pair: ``sandbox-differential``
    when the sandbox categories/kinds diverge, ``simulator-differential``
    when state, memories, display logs or failure messages do.
    """
    from ..sim.engine import CompiledSimulator
    from ..sim.limits import FUZZ_SIM_LIMITS
    from ..sim.sandbox import classify_exception, run_sandboxed
    from ..sim.simulator import Simulator
    from ..sim.values import Logic

    plan = plan if plan is not None else StimulusPlan()

    sims = {}
    verdicts = {}
    for name, cls in (("interp", Simulator), ("compiled", CompiledSimulator)):
        sim, verdict = run_sandboxed(
            lambda c=cls: c(design, limits=limits, sim_limits=FUZZ_SIM_LIMITS),
            name,
        )
        if verdict is not None:
            verdicts[name] = verdict
        else:
            sims[name] = sim
    if verdicts:
        return _compare_sandbox_verdicts(verdicts, "construction")

    interp, compiled = sims["interp"], sims["compiled"]
    ports = interp.inputs
    stim_seq: list[dict] = []
    for cycle in range(plan.steps):
        stimulus: dict = {}
        for port in ports:
            if cycle in plan.x_cycles:
                stimulus[port.name] = Logic.all_x(port.width)
            else:
                stimulus[port.name] = rng.getrandbits(port.width)
        stim_seq.append(stimulus)
    int_slots = [
        (cycle, port)
        for cycle, stimulus in enumerate(stim_seq)
        for port in ports
        if isinstance(stimulus[port.name], int)
    ]
    for _ in range(plan.perturb if int_slots else 0):
        cycle, port = int_slots[rng.randrange(len(int_slots))]
        stim_seq[cycle][port.name] ^= 1 << rng.randrange(max(port.width, 1))

    for cycle, stimulus in enumerate(stim_seq):
        step_verdicts = {}
        for name, sim in (("interp", interp), ("compiled", compiled)):
            _, verdict = run_sandboxed(
                lambda s=sim: s.step(dict(stimulus)), name
            )
            if verdict is not None:
                step_verdicts[name] = verdict
        if step_verdicts:
            violation = _compare_sandbox_verdicts(step_verdicts, f"step {cycle}")
            return violation
        if dict(interp.state.values) != dict(compiled.state.values):
            diverged = sorted(
                name
                for name, value in interp.state.values.items()
                if compiled.state.values.get(name) != value
            )
            return (
                "simulator-differential",
                f"state diverged at step {cycle}: {diverged[:4]}",
            )
        if interp.state.arrays != compiled.state.arrays:
            return ("simulator-differential", f"memories diverged at step {cycle}")
        if interp.display_log != compiled.display_log:
            return (
                "simulator-differential", f"$display logs diverged at step {cycle}"
            )
    return None


def _sim_cache_check(design, injector) -> Optional[tuple[str, str]]:
    """Run the sandboxed differential testbench twice against a fresh
    verdict cache (with any configured chaos injector scoped in) and
    check the memoization rules: repeated verdicts agree, uncacheable
    (``limit``/``crashed``/injected) verdicts are never stored, and an
    injected raising fault leaves the cache empty."""
    from ..errors import TransientError
    from ..sim.limits import FUZZ_SIM_LIMITS
    from ..sim.testbench import run_differential
    from ..sim.verdict import VerdictCache

    sim_cache = VerdictCache()
    with scoped(verdict_cache=sim_cache, sim_injector=injector):
        try:
            first = run_differential(
                design, design, samples=4, sim_limits=FUZZ_SIM_LIMITS
            )
            second = run_differential(
                design, design, samples=4, sim_limits=FUZZ_SIM_LIMITS
            )
        except TransientError:
            # An injected simulator fault raised; nothing may have been
            # memoized on the way out.
            if len(sim_cache):
                return (
                    "sim-chaos-transparency",
                    "injected sim fault left entries in the verdict cache",
                )
            return None
    injected = (first.verdict is not None and first.verdict.injected) or (
        second.verdict is not None and second.verdict.injected
    )
    if not injected:
        first_cat = first.verdict.category if first.verdict else None
        second_cat = second.verdict.category if second.verdict else None
        if (first.passed, first_cat) != (second.passed, second_cat):
            return (
                "sim-cache-transparency",
                f"repeated verdicts differ: ({first.passed}, {first_cat}) "
                f"!= ({second.passed}, {second_cat})",
            )
    uncacheable = all(
        result.verdict is None or not result.verdict.cacheable
        for result in (first, second)
    )
    if uncacheable and len(sim_cache):
        return (
            "sim-cache-transparency",
            "uncacheable (limit/crashed/injected) verdict was memoized",
        )
    return None


def run_fuzz(config: FuzzConfig | None = None) -> FuzzReport:
    """Run the fuzzer and return a :class:`FuzzReport`.

    Never raises for input-triggered reasons: invariant violations are
    collected as :class:`FuzzFailure` records (``report.ok`` is the
    pass/fail signal), so the harness itself honours the never-crash
    contract it is checking.
    """
    from ..diagnostics.compiler import compile_source
    from .cache import CompileCache

    config = config if config is not None else FuzzConfig()
    report = FuzzReport(config=config)
    start = time.monotonic()

    # Mutated inputs rarely survive elaboration, so the sandbox
    # differential would starve if it only ran on them.  Each corpus
    # snippet's clean design is compiled once and reused as the
    # fallback simulation target (None = snippet itself is broken).
    base_designs: dict[str, object] = {}

    for iteration in range(config.iterations):
        code, includes, picked, base = _fuzz_one(config, iteration)
        label = "+".join(picked)
        report.mutations.append(label)
        for name in picked:
            report.mutator_counts[name] = report.mutator_counts.get(name, 0) + 1

        def fail(invariant: str, detail: str) -> None:
            report.failures.append(
                FuzzFailure(
                    iteration=iteration,
                    invariant=invariant,
                    detail=detail,
                    mutations=picked,
                    snippet=code[:120],
                )
            )

        tick = time.monotonic()
        results = {}
        try:
            with scoped(compile_cache=None):
                for flavor in ("iverilog", "quartus"):
                    result = compile_source(
                        code,
                        flavor=flavor,
                        include_files=includes or None,
                        limits=config.limits,
                    )
                    if not isinstance(result.log, str):
                        fail("render", f"{flavor} log is not a string")
                    results[flavor] = result
        except BaseException as exc:  # the one thing that must not happen
            fail("no-exception", f"{type(exc).__name__}: {exc}")
            report.verdicts.append("X")
            continue
        took = time.monotonic() - tick
        report.slowest = max(report.slowest, took)
        if took > config.per_input_budget:
            fail(
                "bounded-time",
                f"{took:.2f}s > {config.per_input_budget:.2f}s budget",
            )

        iv, qu = results["iverilog"], results["quartus"]
        if (iv.ok, iv.crashed) != (qu.ok, qu.crashed):
            fail(
                "flavor-agreement",
                f"iverilog (ok={iv.ok}, crashed={iv.crashed}) != "
                f"quartus (ok={qu.ok}, crashed={qu.crashed})",
            )

        design = iv.elaborated if iv.ok else None
        if design is None:
            if base not in base_designs:
                base_result = compile_source(base, limits=config.limits)
                base_designs[base] = (
                    base_result.elaborated if base_result.ok else None
                )
            design = base_designs[base]
        if design is not None:
            sim_rng = Random(f"simdiff|{config.seed}|{iteration}")
            plan, sim_picked = _derive_sim_plan(sim_rng)
            for name in sim_picked:
                report.mutator_counts[name] = (
                    report.mutator_counts.get(name, 0) + 1
                )
            try:
                violation = _sim_differential(
                    design, config.limits, sim_rng, plan
                )
                if violation is not None:
                    fail(*violation)
            except BaseException as exc:
                fail(
                    "no-exception",
                    f"sim path: {type(exc).__name__}: {exc}",
                )

        verdict = _verdict(iv)
        report.verdicts.append(verdict)
        status = verdict.split(":", 1)[0]
        report.status_counts[status] = report.status_counts.get(status, 0) + 1

        if iteration % _CACHE_CHECK_EVERY == 0:
            try:
                cache = CompileCache(maxsize=8)
                first = cache.compile(
                    code, include_files=includes or None, limits=config.limits
                )
                second = cache.compile(
                    code, include_files=includes or None, limits=config.limits
                )
                if second is not first:
                    fail("cache-identity", "second lookup missed the cache")
                if _verdict(first) != verdict:
                    fail(
                        "cache-transparency",
                        f"cached verdict {_verdict(first)!r} != "
                        f"uncached {verdict!r}",
                    )
            except BaseException as exc:
                fail("no-exception", f"cache path: {type(exc).__name__}: {exc}")

        if (
            iteration % _CACHE_CHECK_EVERY == 3
            and iv.ok
            and iv.elaborated is not None
        ):
            try:
                violation = _sim_cache_check(iv.elaborated, config.injector)
                if violation is not None:
                    fail(*violation)
            except BaseException as exc:
                fail(
                    "no-exception",
                    f"sim cache path: {type(exc).__name__}: {exc}",
                )

    report.elapsed = time.monotonic() - start
    return report
