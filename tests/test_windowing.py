"""Tests for release window construction and post-release defect counts."""

import logging
import random
from operator import attrgetter

from beliefminer.config import Config
from beliefminer.ingest import (
    ChangeRecord,
    Release,
    extract_releases,
    is_source_file,
    mine_repository,
)
from beliefminer.windowing import build_windows, count_post_defects, fix_times, qualify_window

from fixture_repo import DAY, T0
from oracles import post_defects_scan


def _rec(commit, time, path, fix=False, ins=1, dels=0, author="a@b"):
    return ChangeRecord(commit, time, author, path, ins, dels, fix)


def test_fixture_windows(fixture_repo):
    records = mine_repository(fixture_repo).records
    releases = extract_releases(fixture_repo)
    windows = build_windows(releases, records)
    assert [w.release.tag_name for w in windows] == ["v0.2", "v0.3", "v0.4", "v1.0"]
    assert [w.distinct_files for w in windows] == [2, 1, 2, 6]
    assert [qualify_window(w) for w in windows] == [False, False, False, True]
    # only the last window's horizon outruns the mined history
    assert [w.right_censored for w in windows] == [False, False, False, True]
    last = windows[-1]
    assert last.pre_start == T0 + 130 * DAY
    assert last.pre_end == T0 + 230 * DAY
    assert last.post_end == T0 + (230 + 182) * DAY


def test_fixture_defect_counts(fixture_repo):
    records = mine_repository(fixture_repo).records
    windows = build_windows(extract_releases(fixture_repo), records)
    counts = count_post_defects(windows[-1], fix_times(records))
    assert counts.per_file == {
        "core/app.py": 1,
        "core/io.py": 2,
        "core/parser.py": 1,
        "core/util.py": 0,
        "docs/guide.js": 0,
        "web/ui.ts": 1,
    }


def test_windows_keep_the_three_field_order_of_the_records():
    # equal times across commits and within one commit, a repeated
    # (commit, path) pair held by two distinct records, and non-source
    # paths, in scrambled order
    records = [
        _rec(commit, time, path, ins=ins)
        for time in (1000, 1500, 1500, 2000, 2600, 3000)
        for commit in (f"c{time % 7}", f"b{time % 5}", "a")
        for path in ("z.py", "a.py", "m/x.py", "tests/t.py", "doc.md")
        for ins in (1, 2)
    ]
    records.append(_rec("a", 1500, "a.py", ins=1))
    random.Random(4).shuffle(records)
    releases = [Release("r1", 999, 1), Release("r2", 2000, 2), Release("r3", 3000, 3)]
    windows = build_windows(releases, records, Config(post_days=1))
    got = [record for window in windows for record in window.pre_records]
    expected = sorted(
        (r for r in records if is_source_file(r.file_path)),
        key=attrgetter("commit_time", "commit_id", "file_path"),
    )
    assert len(got) == len(expected)
    assert all(a is b for a, b in zip(got, expected))
    assert [len(w.pre_records) for w in windows] == [73, 36]


def test_pre_interval_is_open_closed():
    releases = [Release("r1", 1000, 1), Release("r2", 2000, 2)]
    records = [
        _rec("c1", 1000, "edge/left.py"),  # exactly at t_{r-1}: excluded
        _rec("c2", 1001, "in/a.py"),
        _rec("c3", 2000, "in/b.py"),  # exactly at t_r: included
        _rec("c4", 2001, "late/c.py"),
    ]
    (window,) = build_windows(releases, records, Config(post_days=1))
    assert {r.file_path for r in window.pre_records} == {"in/a.py", "in/b.py"}
    assert window.distinct_files == 2


def test_post_horizon_is_open_closed():
    releases = [Release("r1", 0, 1), Release("r2", 1000, 2)]
    horizon_end = 1000 + 86400
    records = [
        _rec("c1", 500, "a.py"),
        _rec("c2", 1000, "a.py", fix=True),  # at the release instant: pre, not post
        _rec("c3", 1001, "a.py", fix=True),
        _rec("c4", horizon_end, "a.py", fix=True),  # inclusive end
        _rec("c5", horizon_end + 1, "a.py", fix=True),  # past the horizon
    ]
    (window,) = build_windows(releases, records, Config(post_days=1))
    counts = count_post_defects(window, fix_times(records))
    assert counts.per_file == {"a.py": 2}


def test_defects_only_for_pre_period_files():
    releases = [Release("r1", 0, 1), Release("r2", 100, 2)]
    records = [
        _rec("c1", 50, "seen.py"),
        _rec("c2", 150, "unseen.py", fix=True),
        _rec("c3", 160, "seen.py"),  # non-fix touch: not a defect
    ]
    (window,) = build_windows(releases, records, Config(post_days=1))
    counts = count_post_defects(window, fix_times(records))
    assert counts.per_file == {"seen.py": 0}


def test_non_source_records_never_enter_windows():
    releases = [Release("r1", 0, 1), Release("r2", 100, 2)]
    records = [
        _rec("c1", 50, "a.py"),
        _rec("c1", 50, "README.md"),
        _rec("c1", 50, "tests/test_a.py"),
    ]
    (window,) = build_windows(releases, records)
    assert [r.file_path for r in window.pre_records] == ["a.py"]


def test_first_release_gets_no_window():
    releases = [Release("r1", 100, 1), Release("r2", 200, 2), Release("r3", 300, 3)]
    windows = build_windows(releases, [_rec("c1", 150, "a.py")], Config(post_days=1))
    assert [w.release.tag_name for w in windows] == ["r2", "r3"]


def test_fewer_than_two_releases_yields_nothing():
    assert build_windows([], [_rec("c1", 1, "a.py")]) == []
    assert build_windows([Release("r1", 1, 1)], [_rec("c1", 1, "a.py")]) == []


def test_equal_time_release_skipped_with_warning(caplog):
    releases = [Release("r1", 100, 1), Release("r2", 100, 2), Release("r3", 200, 3)]
    with caplog.at_level(logging.WARNING):
        windows = build_windows(releases, [_rec("c1", 150, "a.py")], Config(post_days=1))
    assert [w.release.tag_name for w in windows] == ["r3"]
    assert any("r2" in message for message in caplog.messages)
    # r3's window still starts at r2's time
    assert windows[0].pre_start == 100


def test_right_censoring_uses_all_records():
    releases = [Release("r1", 0, 1), Release("r2", 100, 2)]
    horizon_end = 100 + 86400
    base = [_rec("c1", 50, "a.py")]
    # a later non-source record still proves the horizon was observable
    covered = base + [_rec("c2", horizon_end, "README.md")]
    (w1,) = build_windows(releases, base, Config(post_days=1))
    (w2,) = build_windows(releases, covered, Config(post_days=1))
    assert w1.right_censored is True
    assert w2.right_censored is False


def test_qualify_window_threshold():
    releases = [Release("r1", 0, 1), Release("r2", 100, 2)]
    records = [_rec("c1", 50, f"f{i}.py") for i in range(3)]
    (window,) = build_windows(releases, records, Config(post_days=1))
    assert qualify_window(window) is True
    assert qualify_window(window, Config(min_files=4)) is False


def test_defect_counts_empty_window():
    releases = [Release("r1", 0, 1), Release("r2", 100, 2)]
    (window,) = build_windows(releases, [], Config(post_days=1))
    assert count_post_defects(window, fix_times([])).per_file == {}
    # fixes in the horizon, but no source file changed before the release
    records = [_rec("c1", 150, "a.py", fix=True), _rec("c2", 50, "README.md")]
    (window,) = build_windows(releases, records, Config(post_days=1))
    assert window.files == ()
    assert _counts_both_ways(window, records) == {}


def _counts_both_ways(window, records):
    """count_post_defects over fix_times, checked against the record scan."""
    counts = count_post_defects(window, fix_times(records))
    assert counts == post_defects_scan(window, records)
    return counts.per_file


def test_fix_times_are_each_paths_fix_times_ascending():
    records = [
        _rec("c3", 30, "a.py", fix=True),
        _rec("c1", 10, "a.py", fix=True),
        _rec("c2", 20, "b.py"),
        _rec("c4", 10, "b.py", fix=True),
        _rec("c3", 30, "a.py", fix=True),
    ]
    assert fix_times(records) == {"a.py": [10, 30, 30], "b.py": [10]}
    assert fix_times([_rec("c1", 1, "a.py")]) == {}


def test_fixes_in_the_same_second_each_count():
    releases = [Release("r1", 0, 1), Release("r2", 100, 2)]
    records = [
        _rec("c1", 50, "a.py"),
        _rec("c2", 100 + DAY, "a.py", fix=True),  # both at the horizon's end
        _rec("c3", 100 + DAY, "a.py", fix=True),
        _rec("c4", 101, "a.py", fix=True),  # both just past the release
        _rec("c5", 101, "a.py", fix=True),
        _rec("c6", 100, "a.py", fix=True),  # both at the release: pre, not post
        _rec("c7", 100, "a.py", fix=True),
    ]
    (window,) = build_windows(releases, records, Config(post_days=1))
    assert _counts_both_ways(window, records) == {"a.py": 4}


def test_a_repeated_fix_record_counts_twice():
    releases = [Release("r1", 0, 1), Release("r2", 100, 2)]
    fix = _rec("c2", 150, "a.py", fix=True)
    records = [_rec("c1", 50, "a.py"), fix, fix]
    (window,) = build_windows(releases, records, Config(post_days=1))
    assert _counts_both_ways(window, records) == {"a.py": 2}


def test_non_fix_records_at_the_horizon_edges_never_count():
    releases = [Release("r1", 0, 1), Release("r2", 100, 2)]
    records = [
        _rec("c1", 50, "a.py"),
        _rec("c2", 100, "a.py"),
        _rec("c3", 101, "a.py"),
        _rec("c4", 100 + DAY, "a.py"),
        _rec("c5", 100 + DAY, "a.py", fix=True),
    ]
    (window,) = build_windows(releases, records, Config(post_days=1))
    assert _counts_both_ways(window, records) == {"a.py": 1}
