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
pattern-matching one, and write_history_json the former dict-per-record
encoder, the byte-exact reference for the template writer; the metric_*
functions are the former one-walk-per-belief metrics, the reference for
metrics.compute_all's single grouped pass; post_defects_scan is the
former record-by-record defect count, the reference for count_post_defects'
bisection over fix_times; assess_project_batched is the
former assess_project, which held every window's vectors and built the
populations last, the reference for the one-window-at-a-time scoring;
bootstrap_reached_two_arrays is the former bootstrap, which drew both
sides' int64 indices before gathering either, the exact reference for the
one-side-at-a-time int32 draws; bootstrap_one_shot_means and
bootstrap_reached_one_shot are the former one-side-at-a-time bootstrap,
which drew each side's whole iterations x size matrix in one call, the
bit-exact reference for the blocked draws;
rank_with_ties_loop and pearson_fsum are the former sweep ranks and fsum
Pearson, the bit-exact reference for spearman's numpy ranks and centred
sums; rank_with_ties is the list API over those numpy ranks, which the
tests compare with the references.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import re
import statistics
from collections import Counter, defaultdict
from math import fsum
from pathlib import Path

import numpy as np

from beliefminer.analysis import (
    BeliefPopulation,
    ProjectAssessment,
    WindowRow,
    belief_population,
)
from beliefminer.config import DEFAULTS, SECONDS_PER_DAY, Config
from beliefminer.ingest import CacheError, ChangeRecord
from beliefminer.labeling import KeywordSet
from beliefminer.metrics import BELIEF_IDS, BeliefVector, compute_all
from beliefminer.stats import Treatment, _average_ranks, split_is_distinct
from beliefminer.windowing import (
    DefectCounts,
    ReleaseWindow,
    build_windows,
    qualify_window,
)


def rank_with_ties(values: list[float]) -> list[float]:
    """1-based average ranks; tied values share the mean of their positions."""
    if not values:
        raise ValueError("cannot rank an empty list")
    return _average_ranks(values).tolist()


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


def rank_with_ties_loop(values: list[float]) -> list[float]:
    """1-based average ranks by one sweep over the sorted positions."""
    n = len(values)
    order = sorted(range(n), key=values.__getitem__)
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        average = (i + j + 2) / 2  # mean of 1-based positions i..j
        for k in range(i, j + 1):
            ranks[order[k]] = average
        i = j + 1
    return ranks


def pearson_fsum(a: list[float], b: list[float]) -> float:
    n = len(a)
    mean_a = fsum(a) / n
    mean_b = fsum(b) / n
    da = [v - mean_a for v in a]
    db = [v - mean_b for v in b]
    num = fsum(x * y for x, y in zip(da, db))
    den = math.sqrt(fsum(x * x for x in da) * fsum(y * y for y in db))
    if den == 0.0:
        return 0.0
    return max(-1.0, min(1.0, num / den))


def spearman_rho_loop(x, y) -> float:
    return pearson_fsum(rank_with_ties_loop(list(x)), rank_with_ties_loop(list(y)))


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


def bootstrap_reached_two_arrays(m, n, iterations: int, seed: int) -> int:
    """Resampled absolute mean differences that reach the observed one, with
    every index of both sides drawn up front."""
    m_arr = np.asarray(m, dtype=float)
    n_arr = np.asarray(n, dtype=float)
    observed = abs(float(m_arr.mean()) - float(n_arr.mean()))
    pooled = np.concatenate([m_arr, n_arr])
    rng = np.random.default_rng(seed)
    idx_m = rng.integers(0, pooled.size, size=(iterations, m_arr.size))
    idx_n = rng.integers(0, pooled.size, size=(iterations, n_arr.size))
    diffs = np.abs(pooled[idx_m].mean(axis=1) - pooled[idx_n].mean(axis=1))
    return int(np.count_nonzero(diffs >= observed))


def bootstrap_one_shot_means(m, n, iterations: int, seed: int):
    """Each side's resampled means, m's then n's, from one iterations x size
    int32 index matrix per side."""
    pooled = np.concatenate([np.asarray(m, dtype=float), np.asarray(n, dtype=float)])
    rng = np.random.default_rng(seed)
    return tuple(
        pooled[rng.integers(0, pooled.size, size=(iterations, size), dtype=np.int32)].mean(axis=1)
        for size in (len(m), len(n))
    )


def bootstrap_reached_one_shot(m, n, iterations: int, seed: int) -> int:
    observed = abs(float(np.mean(m)) - float(np.mean(n)))
    m_means, n_means = bootstrap_one_shot_means(m, n, iterations, seed)
    return int(np.count_nonzero(np.abs(m_means - n_means) >= observed))


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


# Each history field with the JSON type its value must have: a string, an
# integer that is not true or false, or true or false.
_HISTORY_FIELDS = {
    "commit_id": "a string",
    "commit_time": "an integer",
    "author": "a string",
    "file_path": "a string",
    "insertions": "an integer",
    "deletions": "an integer",
    "is_bug_fix": "a boolean",
}


def _has_json_type(value, type_name):
    if type_name == "a string":
        return isinstance(value, str)
    if type_name == "an integer":
        return isinstance(value, int) and not isinstance(value, bool)
    return value is True or value is False


def read_history_loop(path):
    """History cache reader: json.loads per non-blank line, then the key set
    check, the JSON type of each field in field order and the churn check, in
    that order. A file
    that is not UTF-8 raises the first such error among the lines before its
    first undecodable line, or else CacheError at that line, whose reason is
    that of decoding that line alone."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _history_lines_loop(path, fh)
    except UnicodeDecodeError:
        pass
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        valid = data[: exc.start].decode("utf-8")
        line_no = len((data[: exc.start] + b"x").splitlines())
    # the whole lines of the text before the first undecodable byte
    _history_lines_loop(path, itertools.islice(io.StringIO(valid, newline=None), line_no - 1))
    try:
        data.splitlines()[line_no - 1].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CacheError(path, line_no, f"invalid UTF-8: {exc}") from None


def _history_lines_loop(path, lines):
    records = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CacheError(path, line_no, f"invalid JSON: {exc.msg}") from exc
        except RecursionError as exc:  # nested deeper than the decoder's stack
            raise CacheError(path, line_no, f"invalid JSON: {exc}") from exc
        except ValueError as exc:  # an integer longer than int() may convert
            raise CacheError(path, line_no, f"bad field value: {exc}") from exc
        if not isinstance(obj, dict) or set(obj) != set(_HISTORY_FIELDS):
            raise CacheError(path, line_no, "unexpected history record fields")
        for name, type_name in _HISTORY_FIELDS.items():
            if not _has_json_type(obj[name], type_name):
                raise CacheError(
                    path, line_no, f"bad field value: {name} = {obj[name]!r} is not {type_name}"
                )
        record = ChangeRecord(**obj)
        if record.insertions < 0 or record.deletions < 0:
            raise CacheError(path, line_no, "negative churn")
        records.append(record)
    return records


def write_history_json(records, path):
    """History cache writer: one dict per record through the JSON encoder,
    UTF-8, LF endings."""
    encode = json.JSONEncoder(ensure_ascii=False).encode
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(
                encode(
                    {
                        "commit_id": record.commit_id,
                        "commit_time": record.commit_time,
                        "author": record.author,
                        "file_path": record.file_path,
                        "insertions": record.insertions,
                        "deletions": record.deletions,
                        "is_bug_fix": record.is_bug_fix,
                    }
                )
            )
            fh.write("\n")


def _file_vector(
    belief_id: str, values: dict[str, float], defects: DefectCounts
) -> BeliefVector:
    ids = sorted(values)
    return BeliefVector(
        belief_id=belief_id,
        entity_ids=ids,
        x=[float(values[i]) for i in ids],
        y=[defects.per_file.get(i, 0) for i in ids],
    )


def metric_b1_hcm(
    window: ReleaseWindow, defects: DefectCounts, cfg: Config = DEFAULTS
) -> BeliefVector:
    """B1: decayed normalized change entropy accumulated per file.

    The pre period is cut into consecutive periods of cfg.period_days
    (oldest first, last one possibly short); a pre period shorter than one
    full period is cut into two equal halves instead. Period j gets the
    normalized Shannon entropy H_j of its per-file change proportions
    (H_j = 0 when only one file changed), and every file changed in j
    accrues w_j * H_j with w_j = exp(-decay_rate * (J - j)), so the newest
    period is undecayed and older periods fade geometrically.
    """
    if not window.pre_records:
        return BeliefVector("B1", [], [], [])
    span = window.pre_end - window.pre_start
    period_len = cfg.period_days * SECONDS_PER_DAY
    if span < period_len:
        total_periods = 2
        half = span / 2

        def period_of(commit_time: int) -> int:
            return 1 if commit_time - window.pre_start <= half else 2

    else:
        total_periods = (span + period_len - 1) // period_len

        def period_of(commit_time: int) -> int:
            elapsed = commit_time - window.pre_start
            return (elapsed + period_len - 1) // period_len

    changes_per_period: dict[int, Counter[str]] = defaultdict(Counter)
    for record in window.pre_records:
        changes_per_period[period_of(record.commit_time)][record.file_path] += 1

    values: dict[str, float] = defaultdict(float)
    for j, changes in changes_per_period.items():
        distinct = len(changes)
        if distinct <= 1:
            entropy = 0.0
        else:
            total = sum(changes.values())
            raw = -math.fsum(
                (count / total) * math.log2(count / total)
                for count in changes.values()
            )
            entropy = raw / math.log2(distinct)
        weight = math.exp(-cfg.decay_rate * (total_periods - j))
        for path in changes:
            values[path] += weight * entropy
    return _file_vector("B1", values, defects)


def metric_b2_developers(window: ReleaseWindow, defects: DefectCounts) -> BeliefVector:
    """B2: distinct commit authors per file."""
    authors: dict[str, set[str]] = defaultdict(set)
    for record in window.pre_records:
        authors[record.file_path].add(record.author)
    return _file_vector("B2", {f: len(a) for f, a in authors.items()}, defects)


def metric_churn(
    window: ReleaseWindow, defects: DefectCounts, direction: str
) -> BeliefVector:
    """B3 (direction "added") or B9 (direction "removed"): summed line churn
    per file over the pre period."""
    if direction not in ("added", "removed"):
        raise ValueError(f"direction must be 'added' or 'removed', got {direction!r}")
    values: dict[str, float] = defaultdict(float)
    for record in window.pre_records:
        amount = record.insertions if direction == "added" else record.deletions
        values[record.file_path] += amount
    return _file_vector("B3" if direction == "added" else "B9", values, defects)


def metric_recency(
    window: ReleaseWindow, defects: DefectCounts, fixes_only: bool
) -> BeliefVector:
    """B4 (all commits) or B6 (bug-fix commits only): latest touch time per
    file. For B6, files without a pre-period fix are excluded entirely."""
    latest: dict[str, int] = {}
    for record in window.pre_records:
        if fixes_only and not record.is_bug_fix:
            continue
        previous = latest.get(record.file_path)
        if previous is None or record.commit_time > previous:
            latest[record.file_path] = record.commit_time
    belief_id = "B6" if fixes_only else "B4"
    return _file_vector(belief_id, {f: float(t) for f, t in latest.items()}, defects)


def metric_b5_commit_churn(
    window: ReleaseWindow, defects: DefectCounts
) -> BeliefVector:
    """B5: per-commit total churn against the summed defect counts of the
    files the commit touched. A file touched by several commits contributes
    its defect count to each of them."""
    churn: dict[str, int] = defaultdict(int)
    defect_sum: dict[str, int] = defaultdict(int)
    for record in window.pre_records:
        churn[record.commit_id] += record.insertions + record.deletions
        defect_sum[record.commit_id] += defects.per_file.get(record.file_path, 0)
    ids = sorted(churn)
    return BeliefVector(
        belief_id="B5",
        entity_ids=ids,
        x=[float(churn[i]) for i in ids],
        y=[defect_sum[i] for i in ids],
    )


def metric_counts(
    window: ReleaseWindow, defects: DefectCounts, fixes_only: bool
) -> BeliefVector:
    """B7 (fix commits) or B8 (all commits): pre-period touch count per file.
    Unlike B6, a file with zero fixes keeps its zero."""
    counts: dict[str, float] = defaultdict(float)
    for record in window.pre_records:
        counts[record.file_path] += 0.0
        if record.is_bug_fix or not fixes_only:
            counts[record.file_path] += 1.0
    return _file_vector("B7" if fixes_only else "B8", counts, defects)


def metric_b10_minor_share(
    window: ReleaseWindow, defects: DefectCounts
) -> BeliefVector:
    """B10: percentage of a file's contributors whose churn share is below
    5%. Files whose pre-period churn is all zero score 0."""
    churn_by_author: dict[str, Counter[str]] = defaultdict(Counter)
    for record in window.pre_records:
        churn_by_author[record.file_path][record.author] += (
            record.insertions + record.deletions
        )
    values: dict[str, float] = {}
    for path, per_author in churn_by_author.items():
        total = sum(per_author.values())
        if total == 0:
            values[path] = 0.0
            continue
        minors = sum(1 for amount in per_author.values() if amount / total < 0.05)
        values[path] = 100.0 * minors / len(per_author)
    return _file_vector("B10", values, defects)


def post_defects_scan(window: ReleaseWindow, records) -> DefectCounts:
    """Bug-fix touches per pre-period file inside the post horizon
    (pre_end, post_end], by checking every record against the window."""
    counts = dict.fromkeys(window.files, 0)
    for record in records:
        if (
            record.is_bug_fix
            and window.pre_end < record.commit_time <= window.post_end
            and record.file_path in counts
        ):
            counts[record.file_path] += 1
    return DefectCounts(per_file=counts)


def assess_project_batched(
    project_id: str, records, releases, cfg: Config = DEFAULTS
) -> ProjectAssessment:
    """Assessment of one project that computes every qualified window's ten
    vectors first, each window's defects counted by scanning all records, and then
    builds each belief's population over all its windows at once."""
    window_rows = []
    per_belief = {belief: [] for belief in BELIEF_IDS}
    for window in build_windows(releases, records, cfg):
        qualified = qualify_window(window, cfg)
        window_rows.append(
            WindowRow(
                project_id,
                window.release.ordinal,
                window.release.release_time,
                window.distinct_files,
                window.right_censored,
                qualified,
            )
        )
        if qualified:
            defects = post_defects_scan(window, records)
            for vector in compute_all(window, defects, cfg):
                per_belief[vector.belief_id].append((window, vector))
    populations: dict[str, BeliefPopulation] = {
        belief: belief_population(project_id, belief, per_belief[belief], cfg)
        for belief in BELIEF_IDS
    }
    return ProjectAssessment(project_id, populations, window_rows)
