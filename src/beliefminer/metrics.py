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
        if self.y and min(self.y) < 0:
            raise ValueError("defect counts must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.x)


def _hcm(window: ReleaseWindow, cfg: Config) -> dict[str, float]:
    """B1 per file: decayed normalized change entropy, accumulated over the
    periods in the order they are first seen in the records.

    The pre period is cut into consecutive periods of cfg.period_days
    (oldest first, last one possibly short); a pre period shorter than one
    full period is cut into two equal halves instead. Period j gets the
    normalized Shannon entropy H_j of its per-file change proportions
    (H_j = 0 when only one file changed), and every file changed in j
    accrues w_j * H_j with w_j = exp(-decay_rate * (J - j)), so the newest
    period is undecayed and older periods fade geometrically.
    """
    start = window.pre_start
    span = window.pre_end - start
    period_len = cfg.period_days * SECONDS_PER_DAY
    times = [record.commit_time for record in window.pre_records]
    if span < period_len:
        total_periods = 2
        half = span / 2
        periods = [1 if t - start <= half else 2 for t in times]
    else:
        total_periods = (span + period_len - 1) // period_len
        periods = [(t - start + period_len - 1) // period_len for t in times]
    pair_counts = Counter(zip(periods, [r.file_path for r in window.pre_records]))
    changes_per_period: dict[int, list[tuple[str, int]]] = defaultdict(list)
    for (j, path), count in pair_counts.items():
        changes_per_period[j].append((path, count))
    values: dict[str, float] = defaultdict(float)
    for j, changes in changes_per_period.items():
        distinct = len(changes)
        if distinct <= 1:
            entropy = 0.0
        else:
            total = sum(count for _, count in changes)
            raw = -math.fsum(
                (count / total) * math.log2(count / total) for _, count in changes
            )
            entropy = raw / math.log2(distinct)
        weight = math.exp(-cfg.decay_rate * (total_periods - j))
        for path, _ in changes:
            values[path] += weight * entropy
    return values


def compute_all(
    window: ReleaseWindow,
    defects: DefectCounts,
    cfg: Config = DEFAULTS,
) -> list[BeliefVector]:
    """All ten belief vectors for one window, in B1..B10 order.

    One walk over the pre-period records groups them by file and sums B5's
    per-commit totals; every vector is read from that. Entities are the
    window's files (window.files), and the file-level vectors share one id list
    and one defect list; B5's entities are commits, and B6 keeps only files
    with a pre-period bug fix.

    - B1: decayed normalized change entropy (see _hcm; reads
      cfg.period_days and cfg.decay_rate).
    - B2: distinct commit authors.
    - B3 / B9: lines added / removed.
    - B4 / B6: latest touch time, by any commit / by a bug-fix commit.
    - B5: per-commit total churn against the summed defect counts of the
      files the commit touched; a file touched by several commits counts
      for each of them.
    - B7 / B8: touches by bug-fix commits (zeros kept) / by all commits.
    - B10: percentage of the file's contributors whose churn share is below
      5%; a file whose churn is all zero scores 0.
    """
    defect_of = defects.per_file.get
    ids = list(window.files)
    by_file: dict[str, list[ChangeRecord]] = {path: [] for path in ids}
    commit_churn: dict[str, int] = defaultdict(int)
    commit_defects: dict[str, int] = defaultdict(int)
    for record in window.pre_records:
        path = record.file_path
        by_file[path].append(record)
        commit = record.commit_id
        commit_churn[commit] += record.insertions + record.deletions
        commit_defects[commit] += defect_of(path, 0)
    y = [defect_of(path, 0) for path in ids]

    hcm = _hcm(window, cfg)
    developers, added, latest, fix_counts, touches, removed, minor_share = (
        [] for _ in range(7)
    )
    fixed_ids: list[str] = []
    latest_fix: list[float] = []
    fixed_y: list[int] = []
    for path, count in zip(ids, y):
        churn_by_author: dict[str, int] = {}
        lines_added = lines_removed = fixes = 0.0
        last = last_fix = None
        for record in by_file[path]:
            lines_added += record.insertions
            lines_removed += record.deletions
            author = record.author
            churn_by_author[author] = (
                churn_by_author.get(author, 0) + record.insertions + record.deletions
            )
            time = record.commit_time
            if last is None or time > last:
                last = time
            if record.is_bug_fix:
                fixes += 1.0
                if last_fix is None or time > last_fix:
                    last_fix = time
        developers.append(float(len(churn_by_author)))
        added.append(lines_added)
        removed.append(lines_removed)
        latest.append(float(last))
        fix_counts.append(fixes)
        touches.append(float(len(by_file[path])))
        if last_fix is not None:
            fixed_ids.append(path)
            latest_fix.append(float(last_fix))
            fixed_y.append(count)
        total = sum(churn_by_author.values())
        if total == 0 or len(churn_by_author) == 1:
            minor_share.append(0.0)  # a sole contributor is never a minor one
        else:
            minors = sum(1 for amount in churn_by_author.values() if amount / total < 0.05)
            minor_share.append(100.0 * minors / len(churn_by_author))

    commits = sorted(commit_churn)
    return [
        BeliefVector("B1", ids, [hcm[path] for path in ids], y),
        BeliefVector("B2", ids, developers, y),
        BeliefVector("B3", ids, added, y),
        BeliefVector("B4", ids, latest, y),
        BeliefVector(
            "B5",
            commits,
            [float(commit_churn[c]) for c in commits],
            [commit_defects[c] for c in commits],
        ),
        BeliefVector("B6", fixed_ids, latest_fix, fixed_y),
        BeliefVector("B7", ids, fix_counts, y),
        BeliefVector("B8", ids, touches, y),
        BeliefVector("B9", ids, removed, y),
        BeliefVector("B10", ids, minor_share, y),
    ]
