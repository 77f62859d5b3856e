"""Independent reference implementations used to check the stats engine.

Deliberately written with different mechanics than the library: dictionary
position averaging instead of a sweep for ranks, textbook formulas with
plain sums for Pearson, numpy matrix algebra for permutation enumeration,
a double loop for A12, and a naive recompute-everything recursion for the
exhaustive Scott-Knott grouping. exact_permutation_p_loop is the library's
former one-permutation-at-a-time enumeration, kept as the bit-exact
reference for its vectorised replacement; classify_message_loop is the
former stem-by-stem keyword matcher, kept the same way; read_history_loop
is the former one-json.loads-per-line cache reader, the reference for the
scanner-based one.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import statistics
from math import fsum

import numpy as np

from beliefminer.ingest import CacheError, ChangeRecord
from beliefminer.labeling import KeywordSet
from beliefminer.stats import Treatment, split_is_distinct


def rank_brute(values):
    """Average ranks via first/last sorted-position lookup."""
    ordered = sorted(values)
    first: dict[float, int] = {}
    last: dict[float, int] = {}
    for position, value in enumerate(ordered):
        first.setdefault(value, position)
        last[value] = position
    return [(first[v] + last[v]) / 2 + 1 for v in values]


def pearson_brute(a, b):
    n = len(a)
    mean_a = sum(a) / n
    mean_b = sum(b) / n
    num = sum((x - mean_a) * (y - mean_b) for x, y in zip(a, b))
    den = (
        sum((x - mean_a) ** 2 for x in a) * sum((y - mean_b) ** 2 for y in b)
    ) ** 0.5
    return num / den if den else 0.0


def spearman_brute(x, y):
    return pearson_brute(rank_brute(x), rank_brute(y))


def _rho_matrix(rank_x: np.ndarray, permuted_y: np.ndarray) -> np.ndarray:
    dx = rank_x - rank_x.mean()
    dy = permuted_y - permuted_y.mean(axis=1, keepdims=True)
    num = dy @ dx
    den = np.sqrt((dx @ dx) * (dy * dy).sum(axis=1))
    return num / den


def exact_permutation_p(x, y, eps: float = 1e-12) -> float:
    """Two-sided permutation p by full enumeration (matrix form)."""
    rank_x = np.asarray(rank_brute(x), dtype=float)
    rank_y = np.asarray(rank_brute(y), dtype=float)
    observed = abs(pearson_brute(list(rank_x), list(rank_y)))
    perms = np.array(list(itertools.permutations(rank_y)), dtype=float)
    rhos = _rho_matrix(rank_x, perms)
    return float(np.mean(np.abs(rhos) >= observed - eps))


def exact_permutation_p_loop(rank_x, rank_y, rho, eps: float = 1e-12) -> float:
    """Two-sided permutation p over already-ranked inputs, one permutation
    of the centred y ranks at a time, with the library's guard band."""
    n = len(rank_x)
    mean_x = fsum(rank_x) / n
    mean_y = fsum(rank_y) / n
    dx = [v - mean_x for v in rank_x]
    dy = [v - mean_y for v in rank_y]
    den = math.sqrt(fsum(v * v for v in dx) * fsum(v * v for v in dy))
    threshold = abs(rho) - eps
    hits = 0
    total = 0
    for perm in itertools.permutations(dy):
        total += 1
        num = sum(a * b for a, b in zip(dx, perm))
        if abs(num / den) >= threshold:
            hits += 1
    return hits / total


def classify_message_loop(message, keywords=None):
    """(is_bug_fix, matched_stems) by testing every distinct stem against
    every token of the message."""
    if keywords is None:
        keywords = KeywordSet()
    tokens = set(re.split(r"[^a-z0-9]+", message.lower()))
    tokens.discard("")
    matched = sorted(
        stem
        for stem in set(keywords.stems)
        if any(token.startswith(stem) for token in tokens)
    )
    return bool(matched), matched


def mc_permutation_p(x, y, samples: int = 20000, seed: int = 0, eps: float = 1e-12) -> float:
    """Monte-Carlo estimate of the permutation p for sizes where full
    enumeration is impractical."""
    rng = np.random.default_rng(seed)
    rank_x = np.asarray(rank_brute(x), dtype=float)
    rank_y = np.asarray(rank_brute(y), dtype=float)
    observed = abs(pearson_brute(list(rank_x), list(rank_y)))
    perms = rng.permuted(np.tile(rank_y, (samples, 1)), axis=1)
    rhos = _rho_matrix(rank_x, perms)
    return float(np.mean(np.abs(rhos) >= observed - eps))


def a12_brute(m, n):
    """O(|m|*|n|) pairwise count."""
    wins = 0.0
    for a in m:
        for b in n:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(m) * len(n))


def scott_knott_brute(
    treatments: list[Treatment],
    seed: int,
    iterations: int = 512,
    a12_threshold: float = 0.56,
) -> list[list[str]]:
    """Exhaustive contiguous-split grouping sharing only the keep-rule."""
    ordered = sorted(
        treatments, key=lambda t: (statistics.median(t.measurements), t.label)
    )
    groups: list[list[str]] = []

    def recurse(chunk: list[Treatment]) -> None:
        if len(chunk) < 2:
            groups.append([t.label for t in chunk])
            return
        pooled = [v for t in chunk for v in t.measurements]
        grand_mean = statistics.fmean(pooled)
        best_split = None
        best_e = None
        for split in range(1, len(chunk)):
            left = [v for t in chunk[:split] for v in t.measurements]
            right = [v for t in chunk[split:] for v in t.measurements]
            e = (len(left) / len(pooled)) * (
                statistics.fmean(left) - grand_mean
            ) ** 2 + (len(right) / len(pooled)) * (
                statistics.fmean(right) - grand_mean
            ) ** 2
            if best_e is None or e > best_e:
                best_e = e
                best_split = split
        left = [v for t in chunk[:best_split] for v in t.measurements]
        right = [v for t in chunk[best_split:] for v in t.measurements]
        if split_is_distinct(left, right, seed, iterations, a12_threshold):
            recurse(chunk[:best_split])
            recurse(chunk[best_split:])
        else:
            groups.append([t.label for t in chunk])

    recurse(ordered)
    return groups


_HISTORY_FIELDS = {
    "commit_id",
    "commit_time",
    "author",
    "file_path",
    "insertions",
    "deletions",
    "is_bug_fix",
}


def read_history_loop(path):
    """History cache reader: json.loads per non-blank line, then the key set
    check, the field conversions and the churn check, in that order."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CacheError(path, line_no, f"invalid JSON: {exc.msg}") from exc
            if not isinstance(obj, dict) or set(obj) != _HISTORY_FIELDS:
                raise CacheError(path, line_no, "unexpected history record fields")
            try:
                record = ChangeRecord(
                    commit_id=str(obj["commit_id"]),
                    commit_time=int(obj["commit_time"]),
                    author=str(obj["author"]),
                    file_path=str(obj["file_path"]),
                    insertions=int(obj["insertions"]),
                    deletions=int(obj["deletions"]),
                    is_bug_fix=bool(obj["is_bug_fix"]),
                )
            except (TypeError, ValueError) as exc:
                raise CacheError(path, line_no, f"bad field value: {exc}") from exc
            if record.insertions < 0 or record.deletions < 0:
                raise CacheError(path, line_no, "negative churn")
            records.append(record)
    return records
