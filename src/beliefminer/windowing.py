"""Release window construction and post-release defect counting.

Each release r (except the first) gets a pre period (t_{r-1}, t_r] whose
source-file changes feed the metrics, and a post horizon (t_r, t_r + H]
whose bug-fix touches define the defect counts the metrics are correlated
against.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import compress, islice
from operator import attrgetter, eq

from .config import DEFAULTS, SECONDS_PER_DAY, Config
from .ingest import ChangeRecord, Release, is_source_file

logger = logging.getLogger(__name__)


@dataclass
class ReleaseWindow:
    """Pre-release change slice for one release.

    `files` holds the distinct paths of `pre_records`, sorted; it is derived
    here once and every reader of a window's file set reads it.
    """

    release: Release
    pre_start: int  # exclusive
    pre_end: int  # inclusive; equals the release time
    post_end: int  # inclusive end of the defect horizon
    pre_records: list[ChangeRecord] = field(default_factory=list)
    right_censored: bool = False
    files: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.files = tuple(sorted({r.file_path for r in self.pre_records}))

    @property
    def distinct_files(self) -> int:
        return len(self.files)


@dataclass
class DefectCounts:
    """Post-horizon bug-fix touch counts per pre-period file (F_D)."""

    per_file: dict[str, int]


def build_windows(
    releases: list[Release],
    records: list[ChangeRecord],
    cfg: Config = DEFAULTS,
) -> list[ReleaseWindow]:
    """Build one window per release after the first, each with a post
    horizon of cfg.post_days.

    Only source files (per cfg.extensions and the test-path filter) enter
    windows.
    A window is right-censored when its post horizon runs past the last
    mined commit, meaning late defects may not have been observed yet.
    Releases tagged at the same instant as their predecessor have an empty
    pre interval and produce no window.
    """
    if len(releases) < 2:
        return []
    ordered = sorted(releases, key=lambda r: r.ordinal)
    # The filter depends on the path alone, so it runs once per distinct path.
    paths = {r.file_path for r in records}
    extensions = frozenset(cfg.extensions)
    source_paths = {path for path in paths if is_source_file(path, extensions)}
    source = [r for r in records if r.file_path in source_paths]
    # In (commit_time, commit_id, file_path) order: by time, then each run of
    # equal times by the other two. Both sorts are stable, and only a run's
    # records get a key tuple, one run at a time.
    source.sort(key=attrgetter("commit_time"))
    times = [r.commit_time for r in source]
    by_commit_and_path = attrgetter("commit_id", "file_path")
    start = end = 0  # the open run of equal times, source[start:end]
    # each i whose record has the time of record i - 1
    for i in compress(range(1, len(times)), map(eq, times, islice(times, 1, None))):
        if i != end:
            source[start:end] = sorted(source[start:end], key=by_commit_and_path)
            start = i - 1
        end = i + 1
    source[start:end] = sorted(source[start:end], key=by_commit_and_path)
    last_time = max((r.commit_time for r in records), default=None)

    windows: list[ReleaseWindow] = []
    for previous, current in zip(ordered, ordered[1:]):
        if current.release_time <= previous.release_time:
            logger.warning(
                "release %s is not after %s; window skipped",
                current.tag_name,
                previous.tag_name,
            )
            continue
        pre_start = previous.release_time
        pre_end = current.release_time
        post_end = pre_end + cfg.post_days * SECONDS_PER_DAY
        lo = bisect_right(times, pre_start)
        hi = bisect_right(times, pre_end)
        pre = source[lo:hi]
        windows.append(
            ReleaseWindow(
                release=current,
                pre_start=pre_start,
                pre_end=pre_end,
                post_end=post_end,
                pre_records=pre,
                right_censored=last_time is None or post_end > last_time,
            )
        )
    return windows


def fix_times(records: list[ChangeRecord]) -> dict[str, list[int]]:
    """Each path's bug-fix commit times, in ascending order."""
    times: dict[str, list[int]] = {}
    for record in records:
        if record.is_bug_fix:
            times.setdefault(record.file_path, []).append(record.commit_time)
    for path_times in times.values():
        path_times.sort()
    return times


def count_post_defects(window: ReleaseWindow, fixes: dict[str, list[int]]) -> DefectCounts:
    """Count bug-fix touches per pre-period file inside the post horizon
    (pre_end, post_end], by bisection on each file's `fix_times`.

    Files absent from the pre period are ignored even if fixed later; files
    never fixed get an explicit zero.
    """
    counts = {}
    for path in window.files:
        times = fixes.get(path, ())
        counts[path] = bisect_right(times, window.post_end) - bisect_right(times, window.pre_end)
    return DefectCounts(per_file=counts)


def qualify_window(window: ReleaseWindow, cfg: Config = DEFAULTS) -> bool:
    """A window qualifies for assessment when at least cfg.min_files
    distinct source files changed before the release."""
    return window.distinct_files >= cfg.min_files
