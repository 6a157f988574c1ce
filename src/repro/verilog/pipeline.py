"""Staged compilation pipeline with session-scoped incremental reuse.

The agents' inner loop is dominated by recompiles of *nearly identical*
source: each ReAct iteration edits a few lines and (before this module)
re-ran the whole preprocess → lex → parse → elaborate chain from
scratch, because the whole-result :class:`~repro.runtime.CompileCache`
only helps on exact matches.  This module breaks the front-end into
explicit stages with content-addressed, immutable :class:`Artifact`\\ s
so the *unchanged prefix* of an edited source is reused:

* **preprocess** -- keyed by the raw text + include set; cheap, reruns
  on any edit, but its unchanged *output prefix* is what unlocks the
  downstream reuse.
* **lex** -- keyed by the preprocessed text.  On a miss, the session
  additionally *resumes* the previous compile's token stream: tokens
  that end comfortably inside the common prefix of the old and new text
  are kept verbatim and the lexer (which is stateless between tokens)
  restarts at the last kept token's end -- producing exactly the cold
  token list.
* **parse** -- keyed by the preprocessed text, computed *per module
  segment*: the token stream is split at every ``module`` keyword, and
  each segment is cached under a digest of the text up to the next
  boundary plus the parser state entering the segment (error count,
  recovery flag).  Editing module B therefore reuses module A's parse
  artifact.  A monitor (:class:`_SegmentParser`) detects any read past
  the segment boundary and refuses to cache such segments, so recovery
  paths that look ahead never produce context-dependent artifacts.
* **elaborate** -- keyed by the preprocessed text (whole design).
* **render** -- assembles the :class:`~repro.diagnostics.compiler.CompileResult`;
  actual log rendering stays lazy (and flavour switching on identical
  source is pure re-rendering: every analysis stage hits).
* **sim-lower** -- not run by the compile pipeline itself: the compiled
  simulation engine (:func:`repro.sim.compile.lowered_for`) hangs this
  sixth stage off **elaborate**'s output, caching each design's lowered
  closure tables in the active :class:`StageCache` under the design
  digest stamped by :func:`~repro.diagnostics.engine.DiagnosticEngine`.

Equivalence guarantee
---------------------

A :class:`CompileSession` compile is **bit-identical** to a cold
:func:`~repro.diagnostics.compiler.compile_source` run on the same
``(code, name, flavor, include_files, limits)``: same diagnostics (text,
codes, spans, order), same ``CompileResult`` fields, same rendered log.
The key arguments: stage budgets are disjoint per
:class:`~repro.verilog.limits.LimitTracker` kind, so per-stage fresh
trackers behave exactly like the cold run's shared tracker; segment
digests pin the entire text up to the boundary, so every reused span
resolves to identical offsets/lines/text; and any read past a boundary
taints the segment out of the cache.  The guarantee is continuously
prosecuted by the ``pipeline-differential`` fuzz invariant
(:mod:`repro.runtime.fuzz`) and by ``scripts/pipeline_diff.py`` over the
full dataset.
"""

from __future__ import annotations

import hashlib
import sys
import threading
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Protocol

from ..diagnostics.codes import ErrorCategory
from ..diagnostics.diagnostic import Diagnostic
from ..diagnostics.engine import DiagnosticEngine
from ..scope import current
from . import ast
from .elaborate import elaborate
from .lexer import Lexer
from .limits import DEFAULT_LIMITS, LimitTracker, ResourceLimits
from .parser import Parser, _GiveUp
from .preprocessor import preprocess
from .source import SourceFile, Span
from .tokens import Token, TokenKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..diagnostics.compiler import CompileResult

#: Default LRU bound of a :class:`StageCache` (artifacts are small:
#: token tuples, per-module ASTs, diagnostic tuples).
DEFAULT_STAGE_MAXSIZE = 4096

#: How many characters past a token's end the lexer may have peeked
#: while producing it (longest multi-char operator probe is 4 chars from
#: the token start, number lookahead is 2 past the end).  A reused token
#: must end at least this far inside the old/new common prefix so its
#: bytes *and* every byte the lexer examined are identical.
_LEX_LOOKAHEAD = 4


def _digest(*parts: object) -> str:
    """SHA-256 content address over string-coerced ``parts``."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(str(part).encode("utf-8", "replace"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def _common_prefix_len(a: str, b: str) -> int:
    """Length of the longest common prefix of ``a`` and ``b``."""
    n = min(len(a), len(b))
    if a[:n] == b[:n]:
        return n
    lo, hi = 0, n
    while lo < hi:  # binary search over C-speed slice compares
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


@dataclass(frozen=True)
class Artifact:
    """One immutable stage output, content-addressed by ``key``.

    ``payload`` is a stage-specific tuple (token stream, parsed module +
    exit state, elaborated design, ...); ``diagnostics`` are the
    diagnostics that stage emitted while producing it, in emission
    order.  Artifacts are treated as immutable by every consumer -- the
    same contract the whole-result :class:`~repro.runtime.CompileCache`
    already relies on.
    """

    stage: str
    key: str
    payload: tuple
    diagnostics: tuple = ()


@dataclass
class PipelineStats:
    """Per-stage cache and timing counters for one :class:`StageCache`.

    Volatile telemetry, surfaced next to
    :class:`~repro.runtime.CacheStats` in ``run_full_report`` /
    ``rtlfixer report`` and deliberately excluded from ``to_json`` (a
    resumed run must stay byte-identical).
    """

    #: pipeline compiles that reported into this cache.
    compiles: int = 0
    #: stage name -> artifact-cache hits.
    hits: dict = field(default_factory=dict)
    #: stage name -> artifact-cache misses.
    misses: dict = field(default_factory=dict)
    #: LRU evictions across all stages.
    evictions: int = 0
    #: stage name -> cumulative wall-clock seconds spent in that stage.
    seconds: dict = field(default_factory=dict)
    #: lex runs that resumed the previous token stream mid-source.
    incremental_lexes: int = 0
    #: tokens reused verbatim by incremental lex runs.
    tokens_reused: int = 0
    #: module segments replayed from cached parse artifacts.
    segments_reused: int = 0
    #: module segments actually parsed (cache misses / uncacheable).
    segments_parsed: int = 0

    def note(self, stage: str, hit: bool) -> None:
        """Count one artifact lookup for ``stage``."""
        counter = self.hits if hit else self.misses
        counter[stage] = counter.get(stage, 0) + 1

    @property
    def lookups(self) -> int:
        """Total artifact-cache consultations across stages."""
        return sum(self.hits.values()) + sum(self.misses.values())

    @property
    def hit_rate(self) -> float:
        """Fraction of artifact lookups served from the cache."""
        total = self.lookups
        return sum(self.hits.values()) / total if total else 0.0

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (used by ``run_full_report``)."""
        return {
            "compiles": self.compiles,
            "stage_hits": dict(sorted(self.hits.items())),
            "stage_misses": dict(sorted(self.misses.items())),
            "stage_seconds": {
                name: round(secs, 4)
                for name, secs in sorted(self.seconds.items())
            },
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
            "incremental_lexes": self.incremental_lexes,
            "tokens_reused": self.tokens_reused,
            "segments_reused": self.segments_reused,
            "segments_parsed": self.segments_parsed,
        }


class StageCache:
    """LRU-bounded, thread-safe store of per-stage :class:`Artifact`\\ s.

    The stage-granular sibling of the whole-result
    :class:`~repro.runtime.CompileCache`: entries are keyed by
    ``stage × content digest of that stage's inputs``, so *partially*
    changed sources still hit for their unchanged stages/segments.
    """

    def __init__(self, maxsize: int = DEFAULT_STAGE_MAXSIZE):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.stats = PipelineStats()
        self._entries: "OrderedDict[tuple[str, str], Artifact]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, stage: str, key: str) -> Optional[Artifact]:
        """The cached artifact for ``stage``/``key``, or None (counted)."""
        with self._lock:
            artifact = self._entries.get((stage, key))
            if artifact is not None:
                self._entries.move_to_end((stage, key))
            self.stats.note(stage, hit=artifact is not None)
            return artifact

    def put(self, artifact: Artifact) -> None:
        """Store ``artifact`` under its stage and key (LRU-evicting)."""
        with self._lock:
            self._entries[(artifact.stage, artifact.key)] = artifact
            self._entries.move_to_end((artifact.stage, artifact.key))
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def note_compile(self, timings: dict) -> None:
        """Fold one pipeline compile's per-stage wall times into stats."""
        with self._lock:
            self.stats.compiles += 1
            for stage, seconds in timings.items():
                self.stats.seconds[stage] = (
                    self.stats.seconds.get(stage, 0.0) + seconds
                )

    def clear(self) -> None:
        """Drop all artifacts and reset the statistics."""
        with self._lock:
            self._entries.clear()
            self.stats = PipelineStats()


#: The process-wide default stage cache, active from import time (the
#: same always-on posture as the whole-result compile cache).
DEFAULT_STAGE_CACHE = StageCache()


@dataclass
class PipelineState:
    """Mutable dataflow record threaded through the stages of one
    :class:`CompileSession` compile (inputs at the top, stage outputs
    filled in as the pipeline advances)."""

    raw: SourceFile
    flavor: str
    include_files: Optional[dict]
    engine: DiagnosticEngine
    cache: Optional[StageCache]
    #: preprocess output (the file every later stage consumes).
    pre: Optional[SourceFile] = None
    #: lex output (immutable token tuple).
    tokens: Optional[tuple] = None
    #: whether lexing emitted zero diagnostics (gates incremental reuse).
    lex_clean: bool = False
    #: parse output.
    design: Optional[ast.Design] = None
    #: elaborate output (None when the design is empty or broken).
    elaborated: Optional[Any] = None
    #: final assembled result (set by the render stage).
    result: Optional["CompileResult"] = None


class Stage(Protocol):
    """The pipeline stage protocol.

    A stage reads its inputs from the :class:`PipelineState`, reports
    every diagnostic into the state's
    :class:`~repro.diagnostics.engine.DiagnosticEngine` (stage
    provenance included), and writes its outputs back onto the state.
    Cacheable stages digest their inputs into an :class:`Artifact` key
    and consult the active :class:`StageCache` before computing.
    """

    name: str

    def run(self, session: "CompileSession", state: PipelineState) -> None:
        """Advance ``state`` through this stage."""
        ...


class _CachedStage:
    """Shared memoization skeleton for the cacheable analysis stages:
    digest inputs, consult the stage cache, compute on miss, apply."""

    name = "?"

    def key(self, session: "CompileSession", state: PipelineState) -> str:
        """Content address of this stage's inputs."""
        raise NotImplementedError

    def compute(
        self, session: "CompileSession", state: PipelineState, key: str
    ) -> Artifact:
        """Produce the artifact for a cache miss."""
        raise NotImplementedError

    def apply(
        self, session: "CompileSession", state: PipelineState, artifact: Artifact
    ) -> None:
        """Install a (fresh or cached) artifact into the state and
        forward its diagnostics to the engine."""
        raise NotImplementedError

    def run(self, session: "CompileSession", state: PipelineState) -> None:
        """Memoized stage execution under the engine's stage scope."""
        with state.engine.stage(self.name):
            key = self.key(session, state)
            artifact = None
            if state.cache is not None:
                artifact = state.cache.get(self.name, key)
            if artifact is None:
                artifact = self.compute(session, state, key)
                if state.cache is not None:
                    state.cache.put(artifact)
            self.apply(session, state, artifact)


class PreprocessStage(_CachedStage):
    """Directive expansion; keyed by the raw text and include set."""

    name = "preprocess"

    def key(self, session: "CompileSession", state: PipelineState) -> str:
        include_parts: list = []
        for inc_name in sorted(state.include_files or {}):
            include_parts.append(inc_name)
            include_parts.append(state.include_files[inc_name])
        return _digest(
            self.name, session.name, repr(session.limits), state.raw.text,
            *include_parts,
        )

    def compute(
        self, session: "CompileSession", state: PipelineState, key: str
    ) -> Artifact:
        """Run the preprocessor under a fresh tracker (its budget kinds
        -- macro/include -- are touched by no other stage, so a fresh
        tracker is indistinguishable from the cold run's shared one)."""
        pre = preprocess(
            state.raw,
            include_files=state.include_files,
            tracker=session.tracker(),
        )
        return Artifact(self.name, key, (pre.source,), tuple(pre.diagnostics))

    def apply(
        self, session: "CompileSession", state: PipelineState, artifact: Artifact
    ) -> None:
        """Publish the preprocessed source + diagnostics."""
        state.pre = artifact.payload[0]
        state.engine.extend(self.name, artifact.diagnostics)


class LexStage(_CachedStage):
    """Tokenization; keyed by the preprocessed text, with incremental
    resume against the session's previous compile on a miss."""

    name = "lex"

    def key(self, session: "CompileSession", state: PipelineState) -> str:
        return _digest(self.name, session.name, repr(session.limits), state.pre.text)

    def compute(
        self, session: "CompileSession", state: PipelineState, key: str
    ) -> Artifact:
        """Lex the preprocessed text, resuming mid-source when possible.

        Reuse requires the previous lex to have been diagnostic-free and
        each kept token to end ``_LEX_LOOKAHEAD`` characters inside the
        old/new common prefix -- then its bytes *and* every byte the
        lexer peeked at are identical, so keeping it verbatim and
        restarting the (stateless-between-tokens) lexer at its end
        reproduces the cold token stream exactly.  The token budget is
        pre-charged for kept tokens so exhaustion behaves cold-identically.
        """
        pre = state.pre
        memo = session._memo
        if memo is not None and memo.lex_clean and len(memo.tokens) > 1:
            prefix_len = _common_prefix_len(memo.pre_text, pre.text)
            kept = 0
            for token in memo.tokens:
                if (
                    token.kind is TokenKind.EOF
                    or token.span.end + _LEX_LOOKAHEAD > prefix_len
                ):
                    break
                kept += 1
            if kept:
                tracker = session.tracker()
                sink: list[Diagnostic] = []
                # Cold lexing charges one token-budget unit per token,
                # kept ones included; pre-charge them.  (This cannot
                # exhaust: the previous clean lex charged at least as
                # much under the same limits.)
                if tracker.charge("tokens", kept):
                    resume_at = memo.tokens[kept - 1].span.end
                    tail = Lexer(
                        pre, sink, tracker=tracker, start=resume_at
                    ).tokenize()
                    if state.cache is not None:
                        state.cache.stats.incremental_lexes += 1
                        state.cache.stats.tokens_reused += kept
                    return Artifact(
                        self.name, key,
                        (memo.tokens[:kept] + tuple(tail),), tuple(sink),
                    )
        sink = []
        tokens = tuple(Lexer(pre, sink, tracker=session.tracker()).tokenize())
        return Artifact(self.name, key, (tokens,), tuple(sink))

    def apply(
        self, session: "CompileSession", state: PipelineState, artifact: Artifact
    ) -> None:
        """Publish the token stream + lex diagnostics."""
        state.tokens = artifact.payload[0]
        state.lex_clean = not artifact.diagnostics
        state.engine.extend(self.name, artifact.diagnostics)


class ParseStage(_CachedStage):
    """Parsing; whole-design artifact keyed by the preprocessed text,
    computed per module segment with prefix-digest segment caching."""

    name = "parse"

    def key(self, session: "CompileSession", state: PipelineState) -> str:
        return _digest(self.name, session.name, repr(session.limits), state.pre.text)

    def compute(
        self, session: "CompileSession", state: PipelineState, key: str
    ) -> Artifact:
        """Replicate ``Parser.parse_design`` with per-segment caching.

        The token stream is segmented at every ``module`` keyword.  A
        segment's cache key digests: its start index, its boundary
        index, the parser state entering it (error count + recovery
        flag) and the *entire text up to the boundary token* -- equal
        digests therefore imply identical token prefixes (absolute
        positions included), so a cached segment's exit state and module
        AST splice in exactly.  Segments that read past their boundary
        (detected by :class:`_SegmentParser`) or that run to EOF are
        computed exactly and never cached.  Duplicate-module handling
        and the give-up ceiling run in this driver, outside the
        artifacts, exactly as the cold parser does.
        """
        tokens = state.tokens
        cache = state.cache
        text = state.pre.text
        sink: list[Diagnostic] = []
        parser = _SegmentParser(tokens, sink, session.tracker())
        design = ast.Design()
        boundaries = [
            index
            for index, token in enumerate(tokens)
            if token.kind is TokenKind.KEYWORD and token.value == "module"
        ]
        try:
            while not parser.at_eof():
                if not parser.cur.is_keyword("module"):
                    parser.syntax_near()
                    parser.advance()
                    continue
                seg_start = parser.pos
                nxt = bisect_right(boundaries, seg_start)
                boundary = boundaries[nxt] if nxt < len(boundaries) else None
                seg_key = None
                if boundary is not None and cache is not None:
                    prefix = text[: tokens[boundary].span.start]
                    seg_key = _digest(
                        "parse.segment", session.name, repr(session.limits),
                        seg_start, boundary, parser._error_count,
                        parser._just_recovered,
                        hashlib.sha256(
                            prefix.encode("utf-8", "replace")
                        ).hexdigest(),
                    )
                    hit = cache.get("parse.segment", seg_key)
                    if hit is not None:
                        module, end_pos, errors_out, recovered_out, gave_up = (
                            hit.payload
                        )
                        sink.extend(hit.diagnostics)
                        parser.pos = end_pos
                        parser._error_count = errors_out
                        parser._just_recovered = recovered_out
                        cache.stats.segments_reused += 1
                        if gave_up:
                            raise _GiveUp()
                        self._install(design, module, parser)
                        continue
                watermark = len(sink)
                parser.begin_segment(boundary)
                module = None
                gave_up = False
                try:
                    module = parser.parse_module()
                except _GiveUp:
                    gave_up = True
                touched = parser.end_segment()
                if seg_key is not None and not touched:
                    cache.put(
                        Artifact(
                            "parse.segment", seg_key,
                            (
                                module, parser.pos, parser._error_count,
                                parser._just_recovered, gave_up,
                            ),
                            tuple(sink[watermark:]),
                        )
                    )
                if cache is not None:
                    cache.stats.segments_parsed += 1
                if gave_up:
                    raise _GiveUp()
                self._install(design, module, parser)
        except _GiveUp:
            pass
        return Artifact(self.name, key, (design,), tuple(sink))

    @staticmethod
    def _install(design: ast.Design, module: ast.Module, parser: Parser) -> None:
        """Add a parsed module to the design, duplicate-checked exactly
        like ``Parser.parse_design`` (the duplicate diagnostic counts
        toward the parser's give-up ceiling)."""
        if module.name not in design.modules:
            design.modules[module.name] = module
            if design.top is None:
                design.top = module.name
        else:
            parser.error(
                ErrorCategory.DUPLICATE_DECL, module.span,
                name=module.name, what="module",
            )

    def apply(
        self, session: "CompileSession", state: PipelineState, artifact: Artifact
    ) -> None:
        """Publish the design + parse diagnostics."""
        state.design = artifact.payload[0]
        state.engine.extend(self.name, artifact.diagnostics)


class ElaborateStage(_CachedStage):
    """Elaboration; whole-design artifact keyed by the preprocessed text.
    Skipped (with the cold path's empty-design diagnostic) when parsing
    produced no modules."""

    name = "elaborate"

    def key(self, session: "CompileSession", state: PipelineState) -> str:
        return _digest(self.name, session.name, repr(session.limits), state.pre.text)

    def compute(
        self, session: "CompileSession", state: PipelineState, key: str
    ) -> Artifact:
        """Elaborate the parsed design under a fresh tracker (instance/
        statement budgets are exclusive to this stage)."""
        sink: list[Diagnostic] = []
        elaborated = elaborate(state.design, sink, tracker=session.tracker())
        return Artifact(self.name, key, (elaborated,), tuple(sink))

    def apply(
        self, session: "CompileSession", state: PipelineState, artifact: Artifact
    ) -> None:
        """Publish the elaborated design + elaboration diagnostics."""
        state.elaborated = artifact.payload[0]
        state.engine.extend(self.name, artifact.diagnostics)

    def run(self, session: "CompileSession", state: PipelineState) -> None:
        """Run elaboration, or emit the empty-design diagnostic exactly
        as the cold path does when no module parsed."""
        if not state.design.modules:
            if state.engine.empty:
                state.engine.emit(
                    "parse",
                    Diagnostic(
                        ErrorCategory.SYNTAX_NEAR, None, {"near": "empty design"}
                    ),
                )
            return
        super().run(session, state)


class RenderStage:
    """Result assembly.  Log rendering itself stays lazy on
    :class:`~repro.diagnostics.compiler.CompileResult` (flavour
    switching over identical analysis artifacts is pure re-rendering)."""

    name = "render"

    def run(self, session: "CompileSession", state: PipelineState) -> None:
        """Assemble the final deduplicated result from the engine."""
        with state.engine.stage(self.name):
            state.result = state.engine.result(
                state.pre, state.flavor,
                design=state.design, elaborated=state.elaborated,
            )


class _SegmentParser(Parser):
    """A :class:`Parser` instrumented with a segment-boundary monitor.

    While a segment is active, any *effective* token access at an index
    strictly beyond the boundary marks the segment as *touched* (context-
    dependent) and its artifact is not cached.  Reading the boundary
    token itself is safe: the segment digest pins the entire text before
    it, so in any replay context the boundary token is the same
    ``module`` keyword at the same offset.
    """

    def __init__(self, tokens, sink, tracker):
        super().__init__(list(tokens), sink, tracker=tracker)
        self._boundary = sys.maxsize
        self._touched = False

    def begin_segment(self, boundary: Optional[int]) -> None:
        """Arm the monitor for a segment ending at token ``boundary``
        (None = EOF segment: everything is in-bounds but uncacheable)."""
        self._boundary = boundary if boundary is not None else sys.maxsize
        self._touched = False

    def end_segment(self) -> bool:
        """Disarm the monitor; True if the segment read past its boundary."""
        touched = self._touched
        self._boundary = sys.maxsize
        return touched

    @property
    def cur(self) -> Token:
        """The current token (monitored)."""
        if self.pos > self._boundary:
            self._touched = True
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        """Lookahead (monitored at the clamped effective index)."""
        idx = min(self.pos + offset, len(self.tokens) - 1)
        if idx > self._boundary:
            self._touched = True
        return self.tokens[idx]


@dataclass(frozen=True)
class _SessionMemo:
    """What a session remembers from its previous successful compile to
    enable mid-source lex resumption."""

    pre_text: str
    tokens: tuple
    lex_clean: bool


class CompileSession:
    """A stateful compile pipeline an agent holds across iterations.

    Each :meth:`compile` runs the staged pipeline, consulting the active
    :class:`StageCache` for per-stage artifacts and the session's own
    memory of the previous token stream for incremental lexing.  Results
    are bit-identical to cold
    :func:`~repro.diagnostics.compiler.compile_source` runs -- the
    session is purely an accelerator (see the module docstring for the
    equivalence argument).  Thread-safe; crash/limit escalation flows
    through the same :class:`~repro.diagnostics.engine.DiagnosticEngine`
    boundary as the cold path.
    """

    def __init__(
        self, name: str = "main.v", limits: Optional[ResourceLimits] = None
    ):
        self.name = name
        #: Budgets for every compile (normalized like ``compile_source``).
        self.limits = limits if limits is not None else DEFAULT_LIMITS
        self._lock = threading.RLock()
        self._memo: Optional[_SessionMemo] = None
        self._stages: tuple = (
            PreprocessStage(), LexStage(), ParseStage(), ElaborateStage(),
            RenderStage(),
        )

    def tracker(self) -> LimitTracker:
        """A fresh per-stage tracker over this session's limits."""
        return LimitTracker(limits=self.limits)

    def reset(self) -> None:
        """Forget the previous compile (disables the next incremental lex)."""
        with self._lock:
            self._memo = None

    def compile(
        self,
        code: str,
        flavor: str = "iverilog",
        include_files: Optional[dict] = None,
    ) -> "CompileResult":
        """Compile ``code`` through the staged pipeline.

        Same never-crash boundary as ``compile_source``: cooperative
        ``ResourceLimitExceeded`` unwinds become RESOURCE_LIMIT
        diagnostics, anything else becomes an INTERNAL diagnostic on a
        ``crashed=True`` result (and drops the session's warm state --
        a failed pipeline leaves nothing trustworthy to resume from).
        """
        with self._lock:
            cache = current().get("stage_cache", DEFAULT_STAGE_CACHE)
            engine = DiagnosticEngine()
            state = PipelineState(
                raw=SourceFile(self.name, code), flavor=flavor,
                include_files=include_files, engine=engine, cache=cache,
            )
            head = Span(state.raw, 0, min(1, len(code))) if code else None
            try:
                result = self._run(state)
            except Exception as exc:
                self._memo = None
                from ..errors import ResourceLimitExceeded

                if isinstance(exc, ResourceLimitExceeded):
                    engine.limit_violation(exc, head)
                else:
                    engine.internal_error(exc, head)
                result = engine.result(state.raw, flavor)
            if cache is not None:
                cache.note_compile(engine.timings)
            return result

    def _run(self, state: PipelineState) -> "CompileResult":
        """Drive the stage list over ``state`` (the staged counterpart
        of the cold path's ``_run_pipeline``)."""
        engine = state.engine
        with engine.stage("driver"):
            tracker = self.tracker()
            if not tracker.charge(
                "source bytes", len(state.raw.text.encode("utf-8", "replace"))
            ):
                tracker.report_overflow(
                    "source bytes",
                    Span(state.raw, 0, 1) if state.raw.text else None,
                    engine.sink("driver"),
                )
                return engine.result(state.raw, state.flavor)
        for stage in self._stages:
            stage.run(self, state)
        self._memo = _SessionMemo(
            pre_text=state.pre.text, tokens=state.tokens,
            lex_clean=state.lex_clean,
        )
        return state.result


def result_fingerprint(result: "CompileResult") -> tuple:
    """A canonical, directly-comparable projection of a CompileResult.

    Covers everything the bit-identical equivalence guarantee promises:
    the rendered log, ok/crashed flags, source identity, and for every
    diagnostic its category, span (file name, offsets, line, covered
    text) and stringified args.  Used by the ``pipeline-differential``
    fuzz invariant and ``scripts/pipeline_diff.py`` to hold warm
    :class:`CompileSession` compiles against cold ``compile_source``.
    """

    def span_fp(span) -> Optional[tuple]:
        if span is None:
            return None
        return (span.file.name, span.start, span.end, span.line, span.text)

    return (
        result.flavor,
        result.ok,
        result.crashed,
        result.log,
        result.source.name,
        result.source.text,
        tuple(
            (
                diag.category.name,
                span_fp(diag.span),
                tuple(sorted((k, str(v)) for k, v in diag.args.items())),
                diag.severity.name,
            )
            for diag in result.diagnostics
        ),
        tuple(sorted(result.design.modules)) if result.design is not None else None,
        result.design.top if result.design is not None else None,
        tuple(sorted(result.elaborated.modules))
        if result.elaborated is not None
        else None,
    )
