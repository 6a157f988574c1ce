"""Durable run state: content-addressed trial checkpoints over a journal.

This layers resumability on top of :mod:`repro.runtime.journal`:

* **trial keys** (:func:`unit_key`) are content addresses -- a SHA-256
  over the stage name and everything that determines a trial's result
  (problem id, per-trial seed, the fixer-config digest, sample counts).
  Two runs with the same configuration derive the same keys, so a
  journal written by a killed run is directly addressable by its resumed
  successor;
* **config digests** (:func:`config_digest`) cover every field of an
  :class:`~repro.core.config.RTLFixerConfig`, each of which can change
  a trial's result.  Worker count and failure policy are not config
  fields at all (they never change results: the determinism contract),
  so a run may be resumed with a different ``--jobs`` and still replay
  its journal;
* **payload codec** (:func:`encode_payload` / :func:`decode_payload`)
  round-trips work-unit results -- primitives, tuples, dataclasses
  (tagged by module-qualified name, restricted to this library) --
  through JSON bit-exactly, so a replayed trial is indistinguishable
  from a re-executed one;
* :class:`RunState` owns a run directory (journal, checkpoint manifest,
  final report) and answers "is this trial already done?";
* :class:`RunContext` bundles the run state with the graceful-shutdown
  flag, the circuit breaker and the run's one
  :class:`~repro.runtime.ParallelRunner`, and provides the **durable
  map**: the resume-aware wrapper every experiment driver routes its
  :meth:`~repro.runtime.ParallelRunner.map` calls through.  Completed
  trials are replayed from the journal; only the remainder dispatches;
  every fresh result is journaled the moment it reaches the parent.

SKIPPED trials (circuit-breaker denials) and real failures (collected
:class:`~repro.runtime.WorkFailure` records, e.g. retries exhausted
against a temporary outage) are journaled for the record but never
treated as completed: a resumed run re-executes them, because the
outage behind them is expected to have cleared -- resuming is how a
run that limped through an outage heals.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from ..errors import CheckpointError
from .executor import ParallelRunner, WorkFailure, resolve_jobs
from .journal import Journal
from .persist import atomic_write_json, atomic_write_text

if TYPE_CHECKING:  # typing only: avoid runtime cycles
    from ..core.config import RTLFixerConfig
    from .breaker import CircuitBreaker

#: Run-directory artifact names.
JOURNAL_FILE = "journal.jsonl"
MANIFEST_FILE = "manifest.json"
REPORT_FILE = "report.json"


def _canonical(payload: Any) -> str:
    """Canonical JSON used for hashing (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_digest(text: str) -> str:
    """Short SHA-256 content address of a string (e.g. source code)."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def config_digest(config: "RTLFixerConfig") -> str:
    """Digest of a fixer config.

    Every field (prompting, compiler, tier, temperature, seed, retry
    budget, compile limits, pool spec, ...) participates, because each
    can change a trial's outcome.
    """
    fields = dataclasses.asdict(config)
    return hashlib.sha256(_canonical(fields).encode()).hexdigest()[:16]


def unit_key(stage: str, **parts: Any) -> str:
    """Content-addressed trial id: SHA-256 over stage + named parts.

    Parts must be JSON-serializable (problem ids, seeds, digests,
    sample counts).  The full hex digest is used so keys never collide
    across stages or configurations.
    """
    return hashlib.sha256(
        _canonical({"stage": stage, "parts": parts}).encode()
    ).hexdigest()


# ---------------------------------------------------------------------------
# Payload codec
# ---------------------------------------------------------------------------

_DC_TAG = "__dataclass__"
_TUPLE_TAG = "__tuple__"


def _replayable(record: dict) -> bool:
    """Whether a journal record is a completed trial fit for replay.

    Skipped trials (breaker denials) and real failures (collected
    ``WorkFailure`` records) re-execute on resume instead of replaying.
    Failures are recognised by the ``failed`` flag; the payload-tag
    check keeps journals written before the flag existed honest too.
    """
    if record.get("skipped") or record.get("failed"):
        return False
    result = record.get("result")
    if isinstance(result, dict):
        tag = result.get(_DC_TAG)
        if isinstance(tag, str) and tag.endswith(":WorkFailure"):
            return False
    return True


def encode_payload(value: Any) -> Any:
    """Encode a work-unit result into JSON-serializable form.

    Supports primitives, lists, tuples (tagged, so they round-trip as
    tuples), string-keyed dicts, and dataclass instances (tagged by
    ``module:qualname`` and encoded field-by-field).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {
            _DC_TAG: f"{cls.__module__}:{cls.__qualname__}",
            "fields": {
                f.name: encode_payload(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [encode_payload(item) for item in value]}
    if isinstance(value, list):
        return [encode_payload(item) for item in value]
    if isinstance(value, dict):
        encoded = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise CheckpointError(
                    f"journal payloads require string dict keys, got {key!r}"
                )
            encoded[key] = encode_payload(item)
        return encoded
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise CheckpointError(
        f"cannot journal a result of type {type(value).__name__}"
    )


def _resolve_dataclass(tag: str) -> type:
    """Import the dataclass a ``module:qualname`` tag names (repro-only)."""
    module_name, _, qualname = tag.partition(":")
    if not module_name.startswith("repro"):
        raise CheckpointError(f"refusing to decode non-repro type {tag!r}")
    try:
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as exc:
        raise CheckpointError(f"cannot resolve journaled type {tag!r}: {exc}")
    if not dataclasses.is_dataclass(obj):
        raise CheckpointError(f"journaled type {tag!r} is not a dataclass")
    return obj


def decode_payload(value: Any) -> Any:
    """Invert :func:`encode_payload` bit-exactly."""
    if isinstance(value, dict):
        if _DC_TAG in value:
            cls = _resolve_dataclass(value[_DC_TAG])
            fields = {
                name: decode_payload(item)
                for name, item in value.get("fields", {}).items()
            }
            return cls(**fields)
        if _TUPLE_TAG in value:
            return tuple(decode_payload(item) for item in value[_TUPLE_TAG])
        return {key: decode_payload(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_payload(item) for item in value]
    return value


# ---------------------------------------------------------------------------
# Run state
# ---------------------------------------------------------------------------


class RunState:
    """A run directory: journal + manifest + completed-trial index.

    >>> state = RunState("runs/nightly")
    >>> state.completed(key)        # already journaled?
    >>> state.record(key, result)   # durable the moment this returns
    """

    def __init__(self, run_dir: str, fsync: bool = True):
        """Open (creating or recovering) the run directory's journal."""
        self.run_dir = run_dir
        os.makedirs(run_dir, exist_ok=True)
        self.fsync = fsync
        self.journal = Journal(os.path.join(run_dir, JOURNAL_FILE), fsync=fsync)
        #: trial key -> encoded result, from replayed journal records
        #: (skipped and failed records are excluded: they re-execute).
        self._completed: dict[str, Any] = {}
        for record in self.journal:
            if not _replayable(record):
                continue
            key = record.get("key")
            if isinstance(key, str):
                self._completed[key] = record.get("result")

    @property
    def manifest_path(self) -> str:
        """Path of the checkpoint manifest inside the run directory."""
        return os.path.join(self.run_dir, MANIFEST_FILE)

    def ensure_manifest(self, manifest: dict, resume: bool = False) -> None:
        """Validate (or create) the run's checkpoint manifest.

        A manifest pins the run's identity -- config/scale digests --
        so ``--resume`` against a directory written with a different
        configuration fails fast instead of mixing incompatible trials.
        Refuses to reuse a directory with journaled trials unless
        ``resume`` is set (never silently clobber a previous run).
        """
        if os.path.exists(self.manifest_path):
            with open(self.manifest_path) as handle:
                existing = json.load(handle)
            if existing != manifest:
                raise CheckpointError(
                    f"run directory {self.run_dir!r} was written with a "
                    "different configuration; resume with the original "
                    "settings or use a fresh --run-dir "
                    f"(manifest {self.manifest_path})"
                )
            if not resume and len(self.journal):
                raise CheckpointError(
                    f"run directory {self.run_dir!r} already holds "
                    f"{len(self.journal)} journaled trial(s); pass --resume "
                    "to continue it or use a fresh --run-dir"
                )
        else:
            atomic_write_json(self.manifest_path, manifest, fsync=self.fsync)

    def completed(self, key: str) -> bool:
        """Whether a (non-skipped) result for ``key`` is journaled."""
        return key in self._completed

    def result(self, key: str) -> Any:
        """Decode the journaled result for a completed trial key."""
        return decode_payload(self._completed[key])

    def record(self, key: str, result: Any, stage: str = "",
               skipped: bool = False) -> None:
        """Durably journal one trial result (the commit point).

        Skipped trials and real failures (non-skipped
        :class:`~repro.runtime.WorkFailure` results) are journaled for
        the record but kept out of the completed index, so a resumed
        run re-executes them instead of replaying the outage.
        """
        failed = isinstance(result, WorkFailure) and not skipped
        encoded = encode_payload(result)
        self.journal.append({
            "key": key,
            "stage": stage,
            "skipped": bool(skipped),
            "failed": failed,
            "result": encoded,
        })
        if not skipped and not failed:
            self._completed[key] = encoded

    def write_report(self, text: str) -> None:
        """Atomically persist the final report JSON into the run dir."""
        atomic_write_text(
            os.path.join(self.run_dir, REPORT_FILE), text, fsync=self.fsync
        )

    def close(self) -> None:
        """Close the journal handle."""
        self.journal.close()

    def __enter__(self) -> "RunState":
        """Context-manager support."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Close on scope exit."""
        self.close()


# ---------------------------------------------------------------------------
# Run context: the durable map
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class RunContext:
    """Everything a driver needs for a durable, interruptible run.

    ``state`` enables journal replay/recording (None = stateless),
    ``breaker`` gates dispatch on outage detection, ``should_stop`` is
    the graceful-shutdown flag.  ``RunContext()`` (all defaults) is a
    no-op context: drivers route unconditionally through :meth:`map`
    and pay nothing when durability is off.  The context owns the run's
    worker pool until :meth:`close` (or the end of its ``with`` block).
    """

    state: Optional[RunState] = None
    breaker: Optional["CircuitBreaker"] = None
    should_stop: Optional[Callable[[], bool]] = None
    #: Trials served from the journal instead of re-executed.
    replayed: int = 0
    #: Trials actually dispatched this session.
    executed: int = 0
    _runner: Optional[ParallelRunner] = dataclasses.field(
        default=None, init=False, repr=False
    )

    def close(self) -> None:
        """Shut the run's worker pool down."""
        if self._runner is not None:
            self._runner.close()
            self._runner = None

    def __enter__(self) -> "RunContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        keys: Optional[Sequence[str]] = None,
        stage: str = "",
        on_error: str = "raise",
        progress: Optional[Callable[[int, int, Any], None]] = None,
        jobs: Optional[int] = None,
    ) -> list:
        """Resume-aware :meth:`~repro.runtime.ParallelRunner.map` over
        ``jobs`` workers.  Every map shares the context's runner, so its
        pool's workers keep their caches from stage to stage; a
        different ``jobs`` replaces it.

        With run state and ``keys`` (one content-addressed key per
        item), journaled trials are replayed in place and only the
        remainder dispatches; fresh results (including collected
        :class:`~repro.runtime.WorkFailure` records, re-indexed to their
        global slots) are journaled as they complete.  Without state it
        degrades to a plain map that still honours the breaker and the
        shutdown flag.
        """
        items = list(items)
        state = self.state if keys is not None else None
        if state is not None and len(keys) != len(items):
            raise CheckpointError(
                f"durable map needs one key per item "
                f"(got {len(keys)} keys for {len(items)} items)"
            )
        results: list[Any] = [None] * len(items)
        #: Global indices of the items still to run.
        todo: list[int] = []
        for index in range(len(items)):
            if state is not None and state.completed(keys[index]):
                results[index] = state.result(keys[index])
                self.replayed += 1
            else:
                todo.append(index)

        def reindex(local: int, result: Any) -> Any:
            """Map a todo-local WorkFailure back to its global slot."""
            if isinstance(result, WorkFailure):
                return dataclasses.replace(result, index=todo[local])
            return result

        def on_result(local: int, item: Any, result: Any) -> None:
            """Journal one fresh result at its commit point."""
            result = reindex(local, result)
            state.record(
                keys[todo[local]], result, stage=stage,
                skipped=getattr(result, "skipped", False),
            )

        if self._runner is None or self._runner.jobs != resolve_jobs(jobs):
            self.close()
            self._runner = ParallelRunner(jobs)
        mapped = self._runner.map(
            fn, [items[index] for index in todo], progress=progress,
            on_error=on_error, on_result=on_result if state is not None else None,
            should_stop=self.should_stop, breaker=self.breaker,
        )
        self.executed += len(todo)
        for local, result in enumerate(mapped):
            results[todo[local]] = reindex(local, result)
        return results

    def stats(self) -> dict:
        """Replay/execution telemetry for the whole run so far."""
        return {"replayed": self.replayed, "executed": self.executed}
