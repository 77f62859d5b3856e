"""The ten belief metrics, computed per entity within a release window.

Every metric produces a BeliefVector pairing the metric values x (F_BX)
with post-release defect counts y (F_D) over the same entities. Entities
are pre-period source files, except B5 where they are pre-period commits.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

from .config import DEFAULTS, SECONDS_PER_DAY, Config
from .ingest import ChangeRecord
from .windowing import DefectCounts, ReleaseWindow

BELIEF_IDS: tuple[str, ...] = (
    "B1",
    "B2",
    "B3",
    "B4",
    "B5",
    "B6",
    "B7",
    "B8",
    "B9",
    "B10",
)

@dataclass
class BeliefVector:
    """Paired metric values and defect counts for one belief in one window."""

    belief_id: str
    entity_ids: list[str]
    x: list[float]
    y: list[int]

    def __post_init__(self) -> None:
        if self.belief_id not in BELIEF_IDS:
            raise ValueError(f"unknown belief id: {self.belief_id}")
        if not (len(self.entity_ids) == len(self.x) == len(self.y)):
            raise ValueError("entity_ids, x and y must have equal length")
        if any(count < 0 for count in self.y):
            raise ValueError("defect counts must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.x)


def _records_by_file(window: ReleaseWindow) -> dict[str, list[ChangeRecord]]:
    grouped: dict[str, list[ChangeRecord]] = defaultdict(list)
    for record in window.pre_records:
        grouped[record.file_path].append(record)
    return grouped


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


def compute_all(
    window: ReleaseWindow,
    defects: DefectCounts,
    cfg: Config = DEFAULTS,
) -> list[BeliefVector]:
    """All ten belief vectors for one window, in B1..B10 order; B1 reads
    cfg.period_days and cfg.decay_rate."""
    return [
        metric_b1_hcm(window, defects, cfg),
        metric_b2_developers(window, defects),
        metric_churn(window, defects, "added"),
        metric_recency(window, defects, fixes_only=False),
        metric_b5_commit_churn(window, defects),
        metric_recency(window, defects, fixes_only=True),
        metric_counts(window, defects, fixes_only=True),
        metric_counts(window, defects, fixes_only=False),
        metric_churn(window, defects, "removed"),
        metric_b10_minor_share(window, defects),
    ]
