"""Tests for the ten belief metrics.

The fixture-repo expectations below were computed by hand from the
fixture's commit table (tests/fixture_repo.py) and are pinned: the v1.0
window covers days 130..230, its five pre-period commits touch six source
files, and the post horizon holds four fix commits.
"""

import math
import random

import pytest

from beliefminer.config import Config
from beliefminer.ingest import ChangeRecord, Release, extract_releases, mine_repository
from beliefminer.synthgen import ScenarioSpec, generate
from beliefminer.metrics import BELIEF_IDS, BeliefVector, compute_all
from beliefminer.windowing import (
    DefectCounts,
    ReleaseWindow,
    build_windows,
    count_post_defects,
    fix_times,
)

from fixture_repo import DAY, T0
from oracles import (
    metric_b1_hcm,
    metric_b2_developers,
    metric_b5_commit_churn,
    metric_b10_minor_share,
    metric_churn,
    metric_counts,
    metric_recency,
)


def _half_life(periods_back: int) -> float:
    return math.exp(-math.log(2) * periods_back)


@pytest.fixture(scope="module")
def v1_window(fixture_repo):
    records = mine_repository(fixture_repo).records
    windows = build_windows(extract_releases(fixture_repo), records)
    window = windows[-1]
    assert window.release.tag_name == "v1.0"
    return window, count_post_defects(window, fix_times(records))


_FILES = [
    "core/app.py",
    "core/io.py",
    "core/parser.py",
    "core/util.py",
    "docs/guide.js",
    "web/ui.ts",
]
_DEFECTS = [1, 2, 1, 0, 0, 1]


def test_fixture_b1_entropy(v1_window):
    window, defects = v1_window
    vec = metric_b1_hcm(window, defects)
    assert vec.entity_ids == _FILES
    assert vec.y == _DEFECTS
    # 100-day span, 14-day periods -> 8 periods; every active period holds
    # exactly two equally-changed files, so each period entropy is 1 and a
    # file's score is the sum of its periods' decay weights.
    expected = [
        _half_life(5) + _half_life(1),  # app: periods 3 and 7
        _half_life(5) + _half_life(0),  # io: periods 3 and 8
        _half_life(3),  # parser: period 5
        _half_life(3),  # util: period 5
        _half_life(6) + _half_life(1),  # guide: periods 2 and 7
        _half_life(6) + _half_life(0),  # ui: periods 2 and 8
    ]
    assert vec.x == pytest.approx(expected, abs=1e-15)


def test_fixture_b2_developers(v1_window):
    window, defects = v1_window
    vec = metric_b2_developers(window, defects)
    assert vec.entity_ids == _FILES
    assert vec.x == [2.0, 1.0, 1.0, 1.0, 1.0, 2.0]
    assert vec.y == _DEFECTS


def test_fixture_b3_lines_added(v1_window):
    window, defects = v1_window
    vec = metric_churn(window, defects, "added")
    assert vec.belief_id == "B3"
    assert vec.x == [3.0, 36.0, 12.0, 3.0, 45.0, 20.0]
    assert vec.y == _DEFECTS


def test_fixture_b9_lines_removed(v1_window):
    window, defects = v1_window
    vec = metric_churn(window, defects, "removed")
    assert vec.belief_id == "B9"
    assert vec.x == [2.0, 3.0, 4.0, 1.0, 2.0, 1.0]
    assert vec.y == _DEFECTS


def test_fixture_b4_recency(v1_window):
    window, defects = v1_window
    vec = metric_recency(window, defects, fixes_only=False)
    assert vec.belief_id == "B4"
    days = [215, 230, 190, 190, 215, 230]
    assert vec.x == [float(T0 + d * DAY) for d in days]
    assert vec.y == _DEFECTS


def test_fixture_b6_fix_recency_drops_unfixed_files(v1_window):
    window, defects = v1_window
    vec = metric_recency(window, defects, fixes_only=True)
    assert vec.belief_id == "B6"
    assert vec.entity_ids == ["core/app.py", "core/io.py", "docs/guide.js"]
    assert vec.x == [float(T0 + 215 * DAY), float(T0 + 160 * DAY), float(T0 + 215 * DAY)]
    assert vec.y == [1, 2, 0]
    assert vec.n == 3


def test_fixture_b5_commit_churn(v1_window):
    window, defects = v1_window
    vec = metric_b5_commit_churn(window, defects)
    assert vec.entity_ids == sorted(vec.entity_ids)
    assert vec.n == 5
    pairs = set(zip(vec.x, vec.y))
    # per commit: total churn vs summed defect counts of touched files
    assert pairs == {(58.0, 1), (34.0, 3), (20.0, 1), (8.0, 1), (12.0, 3)}


def test_fixture_b7_fix_counts_keep_zeroes(v1_window):
    window, defects = v1_window
    vec = metric_counts(window, defects, fixes_only=True)
    assert vec.belief_id == "B7"
    assert vec.entity_ids == _FILES
    assert vec.x == [2.0, 1.0, 0.0, 0.0, 1.0, 0.0]
    assert vec.y == _DEFECTS


def test_fixture_b8_commit_counts(v1_window):
    window, defects = v1_window
    vec = metric_counts(window, defects, fixes_only=False)
    assert vec.belief_id == "B8"
    assert vec.x == [2.0, 2.0, 1.0, 1.0, 2.0, 2.0]
    assert vec.y == _DEFECTS


def test_fixture_b10_no_minor_contributors(v1_window):
    window, defects = v1_window
    vec = metric_b10_minor_share(window, defects)
    assert vec.entity_ids == _FILES
    assert vec.x == [0.0] * 6
    assert vec.y == _DEFECTS


def test_compute_all_order_and_consistency(v1_window):
    window, defects = v1_window
    vectors = compute_all(window, defects)
    assert [v.belief_id for v in vectors] == list(BELIEF_IDS)
    for vec in vectors:
        if vec.belief_id in ("B5", "B6"):
            continue
        assert vec.entity_ids == _FILES
        assert vec.y == _DEFECTS


# --- synthetic windows ------------------------------------------------------


def _window(records, pre_start, pre_end, defects=None):
    from beliefminer.windowing import DefectCounts, ReleaseWindow

    window = ReleaseWindow(
        release=Release("vX", pre_end, 2),
        pre_start=pre_start,
        pre_end=pre_end,
        post_end=pre_end + 182 * DAY,
        pre_records=records,
    )
    if defects is None:
        defects = {path: 0 for path in {r.file_path for r in records}}
    return window, DefectCounts(per_file=defects)


def _rec(commit, time, path, fix=False, ins=1, dels=0, author="a@b"):
    return ChangeRecord(commit, time, author, path, ins, dels, fix)


def test_b1_single_file_has_zero_entropy():
    period = 14 * DAY
    records = [_rec("c1", 100, "a.py"), _rec("c2", period + 50, "a.py")]
    window, defects = _window(records, 0, 2 * period)
    vec = metric_b1_hcm(window, defects)
    assert vec.x == [0.0]


def test_b1_uniform_spread_scores_one():
    # four files changed once each in the newest period: entropy 1, weight 1
    period = 14 * DAY
    records = [_rec(f"c{i}", period + 10 + i, f"f{i}.py") for i in range(4)]
    window, defects = _window(records, 0, 2 * period)
    vec = metric_b1_hcm(window, defects)
    assert vec.x == [1.0, 1.0, 1.0, 1.0]


def test_b1_decay_across_periods():
    period = 14 * DAY
    records = [
        _rec("c1", 10, "a.py"),
        _rec("c1", 10, "b.py"),
        _rec("c2", period + 10, "b.py"),
        _rec("c2", period + 10, "c.py"),
    ]
    window, defects = _window(records, 0, 2 * period)
    vec = metric_b1_hcm(window, defects)
    by_id = dict(zip(vec.entity_ids, vec.x))
    assert by_id["a.py"] == pytest.approx(_half_life(1))
    assert by_id["b.py"] == pytest.approx(_half_life(1) + 1.0)
    assert by_id["c.py"] == pytest.approx(1.0)


def test_b1_period_boundaries_are_inclusive_on_the_left():
    period = 14 * DAY
    # elapsed exactly one period still belongs to period 1
    records = [
        _rec("c1", period, "a.py"),
        _rec("c1", period, "b.py"),
        _rec("c2", period + 1, "a.py"),
        _rec("c2", period + 1, "c.py"),
    ]
    window, defects = _window(records, 0, 2 * period)
    vec = metric_b1_hcm(window, defects)
    by_id = dict(zip(vec.entity_ids, vec.x))
    assert by_id["b.py"] == pytest.approx(_half_life(1))
    assert by_id["c.py"] == pytest.approx(1.0)


def test_b1_short_window_splits_into_halves():
    # ten-day span: two equal halves, the midpoint itself in the first
    span = 10 * DAY
    records = [
        _rec("c1", span // 2, "a.py"),
        _rec("c1", span // 2, "b.py"),
        _rec("c2", span // 2 + 1, "b.py"),
        _rec("c2", span // 2 + 1, "c.py"),
    ]
    window, defects = _window(records, 0, span)
    vec = metric_b1_hcm(window, defects)
    by_id = dict(zip(vec.entity_ids, vec.x))
    assert by_id["a.py"] == pytest.approx(0.5)
    assert by_id["b.py"] == pytest.approx(1.5)
    assert by_id["c.py"] == pytest.approx(1.0)


def test_b1_unequal_shares_entropy():
    # three changes to a, one to b: H = -(3/4 log2 3/4 + 1/4 log2 1/4)
    period = 14 * DAY
    records = [
        _rec("c1", period + 1, "a.py"),
        _rec("c2", period + 2, "a.py"),
        _rec("c3", period + 3, "a.py"),
        _rec("c4", period + 4, "b.py"),
    ]
    window, defects = _window(records, 0, 2 * period)
    vec = metric_b1_hcm(window, defects)
    expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert vec.x == pytest.approx([expected, expected])


def test_b1_three_files_normalized_by_log_count():
    period = 14 * DAY
    records = [
        _rec("c1", period + 1, "a.py"),
        _rec("c2", period + 2, "a.py"),
        _rec("c3", period + 3, "b.py"),
        _rec("c4", period + 4, "c.py"),
    ]
    window, defects = _window(records, 0, 2 * period)
    vec = metric_b1_hcm(window, defects)
    raw = -(0.5 * math.log2(0.5) + 2 * 0.25 * math.log2(0.25))
    expected = raw / math.log2(3)
    assert dict(zip(vec.entity_ids, vec.x))["a.py"] == pytest.approx(expected)


def test_b1_custom_config():
    period = 7 * DAY
    records = [
        _rec("c1", 10, "a.py"),
        _rec("c1", 10, "b.py"),
        _rec("c2", period + 10, "a.py"),
        _rec("c2", period + 10, "b.py"),
    ]
    window, defects = _window(records, 0, 2 * period)
    cfg = Config(period_days=7, decay_rate=1.0)
    vec = metric_b1_hcm(window, defects, cfg)
    assert vec.x == pytest.approx([math.exp(-1.0) + 1.0] * 2)


def test_hcm_config_validation():
    with pytest.raises(ValueError):
        Config(period_days=0)
    with pytest.raises(ValueError):
        Config(decay_rate=0.0)
    with pytest.raises(ValueError):
        Config(decay_rate=-1.0)


def test_b2_counts_distinct_authors():
    records = [
        _rec("c1", 1, "a.py", author="x@e"),
        _rec("c2", 2, "a.py", author="x@e"),
        _rec("c3", 3, "a.py", author="y@e"),
        _rec("c4", 4, "b.py", author="x@e"),
    ]
    window, defects = _window(records, 0, 100)
    vec = metric_b2_developers(window, defects)
    assert vec.x == [2.0, 1.0]


def test_churn_direction_validation(v1_window):
    window, defects = v1_window
    with pytest.raises(ValueError):
        metric_churn(window, defects, "sideways")


def test_b5_shared_file_defects_count_per_commit():
    records = [
        _rec("c1", 1, "a.py", ins=5, dels=5),
        _rec("c2", 2, "a.py", ins=1, dels=0),
    ]
    window, defects = _window(records, 0, 100, defects={"a.py": 3})
    vec = metric_b5_commit_churn(window, defects)
    assert vec.x == [10.0, 1.0]
    assert vec.y == [3, 3]


def test_b10_minor_share():
    # a.py: main author 97 lines, two minors at 1 and 2 of 100 -> 2 of 3
    records = [
        _rec("c1", 1, "a.py", ins=97, author="main@e"),
        _rec("c2", 2, "a.py", ins=1, author="m1@e"),
        _rec("c3", 3, "a.py", ins=2, author="m2@e"),
        _rec("c4", 4, "b.py", ins=0, dels=0, author="main@e"),
    ]
    window, defects = _window(records, 0, 100)
    vec = metric_b10_minor_share(window, defects)
    by_id = dict(zip(vec.entity_ids, vec.x))
    assert by_id["a.py"] == pytest.approx(100.0 * 2 / 3)
    assert by_id["b.py"] == 0.0  # zero total churn


def test_b10_share_boundary_is_strict():
    # exactly 5% is not a minor contributor
    records = [
        _rec("c1", 1, "a.py", ins=95, author="main@e"),
        _rec("c2", 2, "a.py", ins=5, author="edge@e"),
    ]
    window, defects = _window(records, 0, 100)
    vec = metric_b10_minor_share(window, defects)
    assert vec.x == [0.0]


def test_empty_window_vectors():
    window, defects = _window([], 0, 100)
    for vec in compute_all(window, defects):
        assert vec.n == 0
        assert vec.entity_ids == []


def test_belief_vector_validation():
    with pytest.raises(ValueError):
        BeliefVector("B99", [], [], [])
    with pytest.raises(ValueError):
        BeliefVector("B1", ["a"], [1.0, 2.0], [0])
    with pytest.raises(ValueError):
        BeliefVector("B1", ["a"], [1.0], [-1])
    vec = BeliefVector("B1", ["a", "b"], [1.0, 2.0], [0, 3])
    assert vec.n == 2


# --- compute_all against the one-walk-per-belief reference ---------------------


def _reference_vectors(window, defects, cfg):
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


def _assert_same_vectors(got, want):
    assert [v.belief_id for v in got] == [v.belief_id for v in want]
    for g, w in zip(got, want):
        assert g.entity_ids == w.entity_ids, g.belief_id
        assert g.y == w.y, g.belief_id
        # bit for bit: a last-bit change can make or break a rank tie
        assert [v.hex() for v in g.x] == [v.hex() for v in w.x], g.belief_id


def _random_window(rng):
    """A pre period with commit-time ties, zero-churn touches, commits by
    one author, a length below or above period_days, files never fixed,
    periods where one file changed alone, and records in time order or
    shuffled."""
    pre_start = 1_000_000
    span = rng.choice([1, 3 * DAY, 10 * DAY, 14 * DAY, 45 * DAY + 7, 200 * DAY])
    files = [f"src/f{i}.py" for i in range(rng.randint(1, 12))]
    authors = [f"dev{i}@x" for i in range(rng.randint(1, 4))]
    # a lone commit at the start often has a period, or a half, to itself
    lone = rng.random() < 0.3
    earliest = span // 2 + 1 if lone else 1
    times = [pre_start + rng.randint(earliest, span) for _ in range(rng.randint(1, 6))]
    # period edges: the midpoint of a short pre period, whole days
    times += [pre_start + t for t in (span // 2, DAY, 14 * DAY) if earliest <= t <= span]
    records = []
    if lone:
        records.append(ChangeRecord("c99", pre_start + 1, authors[0], "src/lone.py", 1, 1, False))
    for commit in range(rng.randint(1, 30)):
        when, author, fix = rng.choice(times), rng.choice(authors), rng.random() < 0.3
        for path in rng.sample(files, rng.randint(1, min(4, len(files)))):
            churn = (rng.choice([0, 0, 1, 2, 7, 95]), rng.choice([0, 0, 1, 5, 300]))
            records.append(ChangeRecord(f"c{commit:02d}", when, author, path, *churn, fix))
    if rng.random() < 0.5:
        rng.shuffle(records)
    else:
        records.sort(key=lambda r: (r.commit_time, r.commit_id, r.file_path))
    window = ReleaseWindow(
        release=Release("vX", pre_start + span, 2),
        pre_start=pre_start,
        pre_end=pre_start + span,
        post_end=pre_start + span + 182 * DAY,
        pre_records=records,
    )
    touched = sorted({r.file_path for r in records})
    defects = DefectCounts(per_file={path: rng.choice([0, 0, 1, 3]) for path in touched})
    return window, defects


@pytest.mark.parametrize("seed", range(4))
def test_compute_all_equals_reference_on_random_windows(seed):
    rng = random.Random(seed)
    seen = set()
    for _ in range(150):
        window, defects = _random_window(rng)
        cfg = rng.choice([Config(), Config(period_days=1, decay_rate=0.3)])
        vectors = compute_all(window, defects, cfg)
        _assert_same_vectors(vectors, _reference_vectors(window, defects, cfg))
        records = window.pre_records
        files = {r.file_path for r in records}
        fixed = {r.file_path for r in records if r.is_bug_fix}
        churn = dict.fromkeys(files, 0)
        commits_by_author = {}
        for r in records:
            churn[r.file_path] += r.insertions + r.deletions
            commits_by_author.setdefault(r.author, set()).add(r.commit_id)
        times = [r.commit_time for r in records]
        short = window.pre_end - window.pre_start < cfg.period_days * DAY
        features = {
            "short pre period": short,
            "long pre period": not short,
            "single file": len(files) == 1,
            "file changed only in single-file periods": len(files) > 1 and 0.0 in vectors[0].x,
            "zero churn": 0 in churn.values(),
            "unfixed file": bool(files - fixed),
            "no fix": not fixed,
            "author, several commits": any(len(c) > 1 for c in commits_by_author.values()),
            "shuffled": times != sorted(times),
        }
        seen |= {name for name, present in features.items() if present}
    assert seen == set(features)


def test_compute_all_equals_reference_on_synthetic_windows():
    spec = ScenarioSpec(releases=40, files_min=5, files_max=30, planted_belief="B3", noise_seed=7)
    records, releases = generate(spec)
    windows = build_windows(releases, records)
    assert len(windows) == 39
    for window in windows:
        defects = count_post_defects(window, fix_times(records))
        _assert_same_vectors(
            compute_all(window, defects), _reference_vectors(window, defects, Config())
        )


def test_compute_all_equals_reference_on_empty_window():
    window, defects = _window([], 0, 100)
    _assert_same_vectors(
        compute_all(window, defects), _reference_vectors(window, defects, Config())
    )
