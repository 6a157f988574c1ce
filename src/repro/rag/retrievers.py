"""Retrievers over the guidance database.

The paper: "common retrievers such as pattern-matching, fuzzy search, or
similarity search with a vector database are suitable. In our
experiments, we opted for an exact match to error tags for simplicity."

All four options are implemented; the exact-tag retriever is the default
used by the experiments, the rest feed the retriever ablation bench.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Protocol

from ..diagnostics import QUARTUS_TAG_RE, QUARTUS_TAG_TO_CATEGORY, ErrorCategory
from ..errors import RetrievalError
from .database import GuidanceDatabase, GuidanceEntry


@dataclass(frozen=True)
class Retrieved:
    entry: GuidanceEntry
    score: float


class Retriever(Protocol):
    """Given a compiler log, return relevant guidance entries."""

    def retrieve(self, log: str, k: int = 3) -> list[Retrieved]: ...


#: Words common to nearly every compiler message; they carry no signal
#: for similarity scoring.
_STOPWORDS = frozenset(
    """error verilog hdl at the is not in file line main v sv a an of to
    and or for was 5 error(s) tmp work check that every with""".split()
)


def _words(text: str) -> list[str]:
    return [
        w for w in re.findall(r"[a-z0-9']+", text.lower()) if w not in _STOPWORDS
    ]


class ExactTagRetriever:
    """Match on compiler error tags (the paper's choice).

    For Quartus logs the numeric tag ``Error (NNNNN)`` identifies the
    category exactly; for iverilog logs, category-specific message
    fragments serve as the tags.
    """

    _IVERILOG_TAGS: dict[str, ErrorCategory] = {
        "unable to bind": ErrorCategory.UNDECLARED_ID,
        "unknown module type": ErrorCategory.UNDECLARED_ID,
        "is out of range": ErrorCategory.INDEX_RANGE,
        "not a valid l-value": ErrorCategory.INVALID_LVALUE,
        "malformed number": ErrorCategory.BAD_LITERAL,
        "is not a port of": ErrorCategory.PORT_MISMATCH,
        "already been declared": ErrorCategory.DUPLICATE_DECL,
        "syntax error": ErrorCategory.SYNTAX_NEAR,
        "i give up": ErrorCategory.SYNTAX_NEAR,
    }

    def __init__(self, database: GuidanceDatabase, compiler: str):
        self.compiler = compiler
        self.entries = database.for_compiler(compiler)
        if not self.entries:
            raise RetrievalError(f"database holds no {compiler!r} entries")

    def categories_in_log(self, log: str) -> list[ErrorCategory]:
        found: list[ErrorCategory] = []
        if self.compiler == "quartus":
            for tag_text in QUARTUS_TAG_RE.findall(log):
                category = QUARTUS_TAG_TO_CATEGORY.get(int(tag_text))
                if category is not None and category not in found:
                    found.append(category)
        else:
            lowered = log.lower()
            for fragment, category in self._IVERILOG_TAGS.items():
                if fragment in lowered and category not in found:
                    found.append(category)
        return found

    def retrieve(self, log: str, k: int = 3) -> list[Retrieved]:
        out: list[Retrieved] = []
        for category in self.categories_in_log(log):
            for entry in self.entries:
                if entry.category is category:
                    out.append(Retrieved(entry=entry, score=1.0))
            if len(out) >= k:
                break
        return out[:k]


class FuzzyRetriever:
    """Score entries by the fraction of log words appearing in the
    entry's pattern (simple token recall)."""

    def __init__(self, database: GuidanceDatabase, compiler: str):
        self.entries = database.for_compiler(compiler)

    def retrieve(self, log: str, k: int = 3) -> list[Retrieved]:
        log_words = set(_words(log))
        if not log_words:
            return []
        scored = []
        for entry in self.entries:
            pattern_words = set(_words(entry.log_pattern))
            if not pattern_words:
                continue
            overlap = len(log_words & pattern_words) / len(pattern_words)
            scored.append(Retrieved(entry=entry, score=overlap))
        scored.sort(key=lambda r: -r.score)
        return [r for r in scored[:k] if r.score > 0.2]


class JaccardRetriever:
    """Jaccard similarity of word sets between log and pattern."""

    def __init__(self, database: GuidanceDatabase, compiler: str):
        self.entries = database.for_compiler(compiler)

    def retrieve(self, log: str, k: int = 3) -> list[Retrieved]:
        log_words = set(_words(log))
        scored = []
        for entry in self.entries:
            pattern_words = set(_words(entry.log_pattern))
            union = log_words | pattern_words
            if not union:
                continue
            score = len(log_words & pattern_words) / len(union)
            scored.append(Retrieved(entry=entry, score=score))
        scored.sort(key=lambda r: -r.score)
        return [r for r in scored[:k] if r.score > 0.05]


class TfIdfRetriever:
    """Cosine similarity over TF-IDF bags -- the 'vector database'
    stand-in (no embedding model available offline)."""

    def __init__(self, database: GuidanceDatabase, compiler: str):
        self.entries = database.for_compiler(compiler)
        docs = [_words(e.log_pattern + " " + e.guidance) for e in self.entries]
        self._idf: dict[str, float] = {}
        n_docs = max(len(docs), 1)
        df: Counter = Counter()
        for doc in docs:
            df.update(set(doc))
        for word, count in df.items():
            self._idf[word] = math.log((1 + n_docs) / (1 + count)) + 1.0
        self._vectors = [self._vectorize(doc) for doc in docs]

    def _vectorize(self, words: list[str]) -> dict[str, float]:
        tf = Counter(words)
        vec = {
            w: count * self._idf.get(w, 1.0) for w, count in tf.items()
        }
        norm = math.sqrt(sum(v * v for v in vec.values())) or 1.0
        return {w: v / norm for w, v in vec.items()}

    def retrieve(self, log: str, k: int = 3) -> list[Retrieved]:
        query = self._vectorize(_words(log))
        scored = []
        for entry, vec in zip(self.entries, self._vectors):
            score = sum(weight * vec.get(word, 0.0) for word, weight in query.items())
            scored.append(Retrieved(entry=entry, score=score))
        scored.sort(key=lambda r: -r.score)
        return [r for r in scored[:k] if r.score > 0.05]


RETRIEVER_KINDS = {
    "exact": ExactTagRetriever,
    "fuzzy": FuzzyRetriever,
    "jaccard": JaccardRetriever,
    "tfidf": TfIdfRetriever,
}


def make_retriever(
    kind: str, database: GuidanceDatabase, compiler: str
) -> Retriever:
    """Construct a retriever by kind name (see RETRIEVER_KINDS)."""
    try:
        cls = RETRIEVER_KINDS[kind]
    except KeyError:
        raise RetrievalError(
            f"unknown retriever kind {kind!r}; options: {sorted(RETRIEVER_KINDS)}"
        ) from None
    return cls(database, compiler)
