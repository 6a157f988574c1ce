"""DBSCAN clustering over Jaccard distance (§3.4 of the paper).

The dataset curation groups similar erroneous implementations with
DBSCAN using Jaccard distance on token shingles, then keeps one
representative per cluster so the final dataset covers *diverse* syntax
errors instead of 50 copies of the same slip.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass

_TOKEN_RE = re.compile(r"[A-Za-z_]\w*|\d+|[^\sA-Za-z0-9_]")


def tokenize_for_similarity(code: str) -> list[str]:
    """Lightweight tokenization used only for similarity (not parsing)."""
    return _TOKEN_RE.findall(code)


def shingles(code: str, k: int = 3) -> frozenset[tuple[str, ...]]:
    """k-token shingle set of a piece of code."""
    tokens = tokenize_for_similarity(code)
    if len(tokens) < k:
        return frozenset([tuple(tokens)]) if tokens else frozenset()
    return frozenset(tuple(tokens[i : i + k]) for i in range(len(tokens) - k + 1))


def jaccard_distance(a: frozenset, b: frozenset) -> float:
    """1 - |a ∩ b| / |a ∪ b|; distance 0 for two empty sets."""
    if not a and not b:
        return 0.0
    union = len(a | b)
    if union == 0:
        return 0.0
    return 1.0 - len(a & b) / union


@dataclass
class DBSCANResult:
    labels: list[int]  # cluster id per item; -1 = noise

    @property
    def n_clusters(self) -> int:
        return len({l for l in self.labels if l != -1})

    def representatives(self) -> list[int]:
        """First member of each cluster plus every noise point, in
        first-appearance order."""
        seen: set[int] = set()
        reps: list[int] = []
        for i, label in enumerate(self.labels):
            if label == -1:
                reps.append(i)
            elif label not in seen:
                seen.add(label)
                reps.append(i)
        return reps


def dbscan(
    points: list[frozenset],
    eps: float = 0.3,
    min_samples: int = 2,
) -> DBSCANResult:
    """Classic DBSCAN over a precomputable Jaccard metric.

    O(n^2) distance evaluation -- fine for dataset-curation sizes
    (hundreds of samples per problem at most).
    """
    n = len(points)
    labels = [-2] * n  # -2 unvisited, -1 noise

    def neighbours(i: int) -> list[int]:
        return [
            j for j in range(n) if j != i and jaccard_distance(points[i], points[j]) <= eps
        ]

    cluster = 0
    for i in range(n):
        if labels[i] != -2:
            continue
        nbrs = neighbours(i)
        if len(nbrs) + 1 < min_samples:
            labels[i] = -1
            continue
        labels[i] = cluster
        queue = deque(nbrs)
        while queue:
            j = queue.popleft()
            if labels[j] == -1:
                labels[j] = cluster
            if labels[j] != -2:
                continue
            labels[j] = cluster
            j_nbrs = neighbours(j)
            if len(j_nbrs) + 1 >= min_samples:
                queue.extend(j_nbrs)
        cluster += 1
    return DBSCANResult(labels=labels)


def cluster_codes(
    codes: list[str], eps: float = 0.3, min_samples: int = 2, k: int = 3
) -> DBSCANResult:
    """Cluster source strings by Jaccard distance of token shingles."""
    return dbscan([shingles(c, k) for c in codes], eps=eps, min_samples=min_samples)
