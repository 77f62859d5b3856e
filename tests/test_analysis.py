"""Tests for population filtering, support analyses, and assessment CSVs."""

import logging
import math
import random
import weakref
from collections import defaultdict

import pytest

from beliefminer.analysis import (
    EXCLUDE_NOT_SIGNIFICANT,
    EXCLUDE_TOO_FEW,
    BeliefPopulation,
    SizeThresholds,
    SummaryRow,
    WindowRow,
    assess_project,
    belief_population,
    bucket_for,
    bucket_windows,
    coverage,
    growth_decay,
    prevalence,
    rank_beliefs,
    rank_beliefs_by_size,
    read_populations_csv,
    read_summary_csv,
    read_windows_csv,
    size_thresholds,
    summary_row,
    support_label,
    write_exclusions_csv,
    write_populations_csv,
    write_summary_csv,
    write_windows_csv,
)
from beliefminer import analysis, stats, windowing
from beliefminer.config import SECONDS_PER_DAY, Config
from beliefminer.ingest import (
    CacheError,
    ChangeRecord,
    Release,
    extract_releases,
    mine_repository,
    read_history,
    read_releases,
)
from beliefminer.metrics import BeliefVector, compute_all
from beliefminer.stats import SupportScore
from beliefminer.synthgen import ScenarioSpec, generate
from beliefminer.windowing import ReleaseWindow

from oracles import assess_project_batched, post_defects_scan


def _scored_window(ordinal, x, y, belief="B3"):
    release = Release(f"v{ordinal}", ordinal * 1000, ordinal)
    window = ReleaseWindow(
        release=release,
        pre_start=(ordinal - 1) * 1000,
        pre_end=ordinal * 1000,
        post_end=ordinal * 1000 + 50,
        pre_records=[],
    )
    ids = [f"f{i}" for i in range(len(x))]
    return window, BeliefVector(belief, ids, [float(v) for v in x], list(y))


def _score(rho, p=0.001, n=6, ordinal=2):
    return SupportScore(rho, p, n, ordinal)


def _population(scores, belief="B3", project="proj"):
    return BeliefPopulation(belief, project, list(scores))


# --- belief_population --------------------------------------------------------


def test_population_keeps_significant_scores():
    # six distinct monotone pairs: exact p = 2/6! < 0.01
    wv = _scored_window(2, range(6), range(6))
    population = belief_population("proj", "B3", [wv])
    assert len(population.scores) == 1
    score = population.scores[0]
    assert score.rho == pytest.approx(1.0)
    assert score.p_value == pytest.approx(2 / math.factorial(6))
    assert score.release_ordinal == 2
    assert population.exclusions == {EXCLUDE_TOO_FEW: 0, EXCLUDE_NOT_SIGNIFICANT: 0}


def test_population_drops_insignificant_scores():
    # five distinct monotone pairs: exact p = 2/5! ~ 0.017 >= 0.01
    wv = _scored_window(2, range(5), range(5))
    population = belief_population("proj", "B3", [wv])
    assert population.scores == []
    assert population.exclusions[EXCLUDE_NOT_SIGNIFICANT] == 1


def test_population_drops_small_windows_before_correlating():
    wv = _scored_window(2, range(3), range(3))
    population = belief_population("proj", "B3", [wv])
    assert population.scores == []
    assert population.exclusions[EXCLUDE_TOO_FEW] == 1
    assert population.exclusions[EXCLUDE_NOT_SIGNIFICANT] == 0


def test_population_alpha_and_min_n_are_tunable():
    five = _scored_window(2, range(5), range(5))
    relaxed = belief_population("proj", "B3", [five], Config(alpha=0.05))
    assert len(relaxed.scores) == 1
    three = _scored_window(3, range(3), range(3))
    small_ok = belief_population("proj", "B3", [three], Config(alpha=0.5, min_observations=2))
    assert len(small_ok.scores) == 1


def test_population_rejects_mismatched_vector():
    wv = _scored_window(2, range(6), range(6), belief="B4")
    with pytest.raises(ValueError):
        belief_population("proj", "B3", [wv])


def test_assess_project_matches_fixture_goldens(fixture_repo, data_dir):
    records = mine_repository(fixture_repo).records
    releases = extract_releases(fixture_repo)
    assessment = assess_project("fixture", records, releases)
    assert assessment.window_rows == read_windows_csv(
        data_dir / "fixture_assess" / "windows.csv"
    )
    populations = assessment.populations
    assert set(populations) == {f"B{i}" for i in range(1, 11)}
    assert all(p.scores == [] for p in populations.values())
    assert populations["B6"].exclusions == {
        EXCLUDE_TOO_FEW: 1,
        EXCLUDE_NOT_SIGNIFICANT: 0,
    }
    for belief in ("B1", "B2", "B3", "B4", "B5", "B7", "B8", "B9", "B10"):
        assert populations[belief].exclusions == {
            EXCLUDE_TOO_FEW: 0,
            EXCLUDE_NOT_SIGNIFICANT: 1,
        }


def _tied_history(seed, dense=False):
    """Shuffled records around releases whose post horizons overlap.

    Many commit times sit exactly on a window's pre_end or post_end; some
    fixes touch non-source paths, and src/late.py is only ever changed
    after the last release, so it is in no pre period. By default ten
    releases two days apart under a three-day horizon; dense gives thirty
    releases six hours apart under a 30-day horizon, so every horizon holds
    nearly every later fix, over forty files of which each window changes
    only some.
    """
    rng = random.Random(seed)
    if dense:
        count, spacing, post_days, files = 30, 6 * 3600, 30, 40
    else:
        count, spacing, post_days, files = 10, 2 * SECONDS_PER_DAY, 3, 6
    releases, time = [], 1_000_000
    for ordinal in range(1, count + 1):
        time += spacing + rng.randrange(-3, 4) * 3600
        releases.append(Release(f"v{ordinal}", time, ordinal))
    edges = [
        edge + shift
        for r in releases
        for edge in (r.release_time, r.release_time + post_days * SECONDS_PER_DAY)
        for shift in (-1, 0, 0, 0, 1)
    ]
    first, last = releases[0].release_time, releases[-1].release_time
    paths = [f"src/m{i}.py" for i in range(files)] + ["docs/notes.md", "tests/m0_test.py"]
    records = []
    for i in range(600):
        if rng.random() < 0.6:
            when = rng.choice(edges)
        else:
            when = rng.randint(first - 1, last + 9 * SECONDS_PER_DAY)
        author, path = f"dev{rng.randrange(5)}", rng.choice(paths)
        churn = (rng.randrange(9), rng.randrange(4))
        records.append(ChangeRecord(f"c{i}", when, author, path, *churn, rng.random() < 0.5))
    records += [
        ChangeRecord(f"late{i}", last + i * 3600, "dev0", "src/late.py", 1, 0, True)
        for i in range(1, 30)
    ]
    rng.shuffle(records)
    return records, releases, Config(post_days=post_days, min_files=1, min_observations=2)


def _check_horizon_counting(monkeypatch, seed, dense):
    records, releases, cfg = _tied_history(seed, dense)
    windows = windowing.build_windows(releases, records, cfg)
    assert len(windows) == len(releases) - 1
    fixes = windowing.fix_times(records)
    for window in windows:
        assert windowing.count_post_defects(window, fixes) == post_defects_scan(window, records)
    fixed = [r for r in records if r.is_bug_fix]
    assert any(r.commit_time == w.pre_end for w in windows for r in fixed)
    assert any(r.commit_time == w.post_end for w in windows for r in fixed)
    # fixes inside a horizon on files outside its window
    assert any(
        w.pre_end < r.commit_time <= w.post_end and r.file_path not in w.files
        for w in windows
        for r in fixed
    )
    if dense:
        # each horizon reaches past every later fix but those on far edges
        last = releases[-1].release_time
        assert all(w.post_end > last + 9 * SECONDS_PER_DAY for w in windows)

    # The same assessment as when every window's defects come from a scan of
    # all records.
    bisected = assess_project("p", records, releases, cfg)
    assert all(row.qualified for row in bisected.window_rows)
    monkeypatch.setattr(
        analysis, "count_post_defects", lambda window, _: post_defects_scan(window, records)
    )
    assert assess_project("p", records, releases, cfg) == bisected


@pytest.mark.parametrize("seed", range(5))
def test_assess_project_counts_defects_from_each_horizon_only(monkeypatch, seed):
    _check_horizon_counting(monkeypatch, seed, dense=False)


@pytest.mark.parametrize("seed", range(5))
def test_assess_project_counts_defects_with_dense_releases(monkeypatch, seed):
    _check_horizon_counting(monkeypatch, seed, dense=True)


def test_assess_project_shares_defect_ranks_within_the_project_only(monkeypatch):
    records, releases, cfg = _tied_history(0)
    calls = 0
    ranked_ys = defaultdict(set)  # release ordinal -> distinct y that spearman ranks
    real = analysis.belief_population

    def spy(project_id, belief_id, scored_windows, cfg):
        nonlocal calls
        calls += 1
        for window, vector in scored_windows:
            if vector.n >= cfg.min_observations and min(vector.y) != max(vector.y):
                ranked_ys[window.release.ordinal].add(tuple(vector.y))
        return real(project_id, belief_id, scored_windows, cfg)

    monkeypatch.setattr(analysis, "belief_population", spy)
    stats._y_side.cache_clear()
    assessment = assess_project("p", records, releases, cfg)
    # one call per (qualified window, belief); each window's distinct defect
    # vectors (its files', B5's and B6's) are ranked at most once, and the
    # cache keeps no more than four of them
    windows = sum(row.qualified for row in assessment.window_rows)
    assert calls == 10 * windows
    info = stats._y_side.cache_info()
    assert 0 < info.misses <= sum(len(ys) for ys in ranked_ys.values())
    assert info.hits > 0
    assert info.currsize <= 4


# --- assess_project against the batched reference ---------------------------------


def _assert_matches_batched(records, releases, cfg=Config()):
    """assess_project equals the reference that holds every vector and builds
    the populations last: each population's scores in order and its
    exclusion counts, and the window rows."""
    assessment = assess_project("p", records, releases, cfg)
    reference = assess_project_batched("p", records, releases, cfg)
    assert assessment.window_rows == reference.window_rows
    assert list(assessment.populations) == list(reference.populations)
    for belief, population in assessment.populations.items():
        expected = reference.populations[belief]
        assert population.scores == expected.scores, belief
        assert population.exclusions == expected.exclusions, belief
    assert assessment == reference
    return assessment


def _all_vectors(records, releases, cfg):
    fixes = windowing.fix_times(records)
    return [
        vector
        for window in windowing.build_windows(releases, records, cfg)
        if windowing.qualify_window(window, cfg)
        for vector in compute_all(window, windowing.count_post_defects(window, fixes), cfg)
    ]


def test_assess_project_matches_batched_on_fixture_caches(data_dir):
    records = read_history(data_dir / "fixture_history.jsonl")
    releases = read_releases(data_dir / "fixture_releases.jsonl")
    _assert_matches_batched(records, releases)


@pytest.mark.parametrize("belief", ["B3", "B9", None])
def test_assess_project_matches_batched_on_synth_project(belief):
    spec = ScenarioSpec(releases=16, files_min=6, files_max=30, planted_belief=belief)
    assessment = _assert_matches_batched(*generate(spec))
    assert sum(row.qualified for row in assessment.window_rows) == 15
    # significant scores kept and others dropped, in the same windows
    for population in assessment.populations.values():
        if population.belief_id == belief:
            assert population.scores and population.exclusions[EXCLUDE_NOT_SIGNIFICANT]


def test_assess_project_matches_batched_below_min_observations():
    records, releases = generate(ScenarioSpec(releases=12, files_min=4, files_max=12))
    cfg = Config(min_observations=7)
    assessment = _assert_matches_batched(records, releases, cfg)
    # some of a belief's windows below min_observations, and others scored
    too_few = [p.exclusions[EXCLUDE_TOO_FEW] for p in assessment.populations.values()]
    assert any(0 < count < 11 for count in too_few)
    assert any(p.scores for p in assessment.populations.values())


@pytest.mark.parametrize("seed", range(3))
def test_assess_project_matches_batched_with_constant_vectors(seed):
    # a sixth of the commits: many x vectors are constant, and a window
    # whose files have no fix in its horizon has an all-zero y
    records, releases, cfg = _tied_history(seed)
    records = [r for r in records if r.file_path != "src/late.py"][::6]
    vectors = _all_vectors(records, releases, cfg)
    assert any(v.n >= 2 and min(v.x) == max(v.x) for v in vectors)
    assert any(v.n >= 2 and min(v.y) == max(v.y) for v in vectors)
    assert any(v.n >= 2 and min(v.x) < max(v.x) and min(v.y) < max(v.y) for v in vectors)
    _assert_matches_batched(records, releases, cfg)


def test_assess_project_matches_batched_with_exact_p_values():
    spec = ScenarioSpec(
        releases=12, files_min=6, files_max=8, planted_belief="B8", planted_strength=1.0
    )
    assessment = _assert_matches_batched(*generate(spec))
    scores = [s for p in assessment.populations.values() for s in p.scores]
    assert scores and all(s.n <= stats.EXACT_P_MAX_N for s in scores)


def test_assess_project_drops_each_window_vectors_before_the_next(monkeypatch, data_dir):
    real = analysis.compute_all
    previous: list[weakref.ref] = []
    windows = 0

    def tracked(*args, **kwargs):
        nonlocal windows
        vectors = real(*args, **kwargs)
        assert [ref() for ref in previous] == [None] * len(previous)
        previous[:] = [weakref.ref(vector) for vector in vectors]
        windows += 1
        return vectors

    monkeypatch.setattr(analysis, "compute_all", tracked)
    spec = ScenarioSpec(releases=8, files_min=6, files_max=12, planted_belief="B3")
    assessment = assess_project("p", *generate(spec))
    assert windows == sum(row.qualified for row in assessment.window_rows) == 7
    assert len(previous) == 10
    assert [ref() for ref in previous] == [None] * 10


# --- labels, coverage, prevalence ----------------------------------------------


@pytest.mark.parametrize(
    "rho,label",
    [
        (0.0, "none"),
        (0.39, "none"),
        (0.40, "weak"),
        (0.49, "weak"),
        (0.50, "support"),
        (0.59, "support"),
        (0.60, "strong"),
        (0.69, "strong"),
        (0.70, "very_strong"),
        (1.0, "very_strong"),
        (-0.65, "strong"),  # magnitude decides
        (-1.0, "very_strong"),
    ],
)
def test_support_label_bands(rho, label):
    assert support_label(rho) == label


def test_support_label_validation():
    with pytest.raises(ValueError):
        support_label(1.5)
    with pytest.raises(ValueError):
        support_label(float("nan"))


def test_coverage_counts_median_magnitude():
    covered = _population([_score(0.5, ordinal=2), _score(0.3, ordinal=3), _score(0.6, ordinal=4)])
    below = _population([_score(0.3, ordinal=2), _score(0.2, ordinal=3)], belief="B4")
    empty = _population([], belief="B5")
    assert coverage([covered, below, empty]) == 1
    assert coverage([covered], Config(support_threshold=0.6)) == 0


def test_coverage_uses_magnitudes():
    negative = _population([_score(-0.5, ordinal=2), _score(-0.7, ordinal=3)])
    assert coverage([negative]) == 1


def test_prevalence_pools_all_scores():
    a = _population([_score(0.5, ordinal=2), _score(0.3, ordinal=3)])
    b = _population([_score(-0.9, ordinal=2)], belief="B4")
    c = _population([_score(0.1, ordinal=2)], belief="B5")
    assert prevalence([a, b, c]) == pytest.approx(100.0 * 2 / 4)
    assert prevalence([_population([])]) is None
    assert prevalence([]) is None


# --- rankings ------------------------------------------------------------------


def _spread(center, count, step=0.004):
    # tight, all-distinct cloud around a center
    return [center + step * (i - count // 2) for i in range(count)]


def test_rank_beliefs_orders_by_support(caplog):
    strong = [
        _population([_score(v, ordinal=i + 2) for i, v in enumerate(_spread(0.85, 10))], belief="B2")
    ]
    weak = [
        _population([_score(v, ordinal=i + 2) for i, v in enumerate(_spread(0.15, 10))], belief="B9")
    ]
    with caplog.at_level(logging.WARNING):
        groups = rank_beliefs(strong + weak, Config(seed=1))
    assert [g.rank for g in groups] == [1, 2]
    assert groups[0].treatments[0].label == "B9"
    assert groups[1].treatments[0].label == "B2"
    # eight beliefs have no scores and are dropped loudly, in one line
    assert caplog.messages == [
        "no significant scores, so not ranked: B1, B3, B4, B5, B6, B7, B8, B10"
    ]


def test_rank_beliefs_pools_across_projects():
    pops = [
        _population([_score(v, ordinal=i + 2) for i, v in enumerate(_spread(0.8, 6))], belief="B2", project="p1"),
        _population([_score(v, ordinal=i + 2) for i, v in enumerate(_spread(0.8, 6))], belief="B2", project="p2"),
    ]
    groups = rank_beliefs(pops, Config(seed=1))
    assert len(groups) == 1
    entry = groups[0].treatments[0]
    assert entry.label == "B2"


def test_rank_beliefs_empty():
    assert rank_beliefs([]) == []
    assert rank_beliefs([_population([])]) == []


def test_size_thresholds_from_data():
    thresholds = size_thresholds([4, 10, 18, 30, 40])
    assert thresholds.median_df == 18.0
    assert thresholds.q3_df == 30.0


def test_size_thresholds_replication_pins_median_only():
    thresholds = size_thresholds([5, 6, 7, 8], Config(replication_mode=True))
    assert thresholds.median_df == 18.0
    assert thresholds.q3_df == 7.25  # still the data's own Q3


def test_size_thresholds_validation():
    with pytest.raises(ValueError):
        size_thresholds([])


@pytest.mark.parametrize(
    "df,bucket",
    [
        (3, "unbucketed"),  # bare-minimum windows stay unbucketed
        (2, "unbucketed"),
        (4, "small"),
        (17, "small"),
        (18, "medium"),
        (29, "medium"),
        (30, "large"),
        (100, "large"),
    ],
)
def test_bucket_for(df, bucket):
    thresholds = SizeThresholds(median_df=18.0, q3_df=30.0)
    prefix = {"unbucketed": None, "small": "S", "medium": "M", "large": "L"}[bucket]
    assert bucket_for(df, thresholds) == prefix


def test_bucket_windows_uses_qualified_rows_only():
    rows = [
        WindowRow("p", 2, 100, 2, False, False),  # unqualified, ignored
        WindowRow("p", 3, 200, 4, False, True),
        WindowRow("p", 4, 300, 10, False, True),
        WindowRow("p", 5, 400, 18, False, True),
        WindowRow("p", 6, 500, 30, False, True),
        WindowRow("p", 7, 600, 40, False, True),
        WindowRow("p", 8, 700, 3, False, True),  # in the thresholds, unbucketed
    ]
    thresholds, assignment = bucket_windows(rows)
    # thresholds come from all six qualified D_F values [3,4,10,18,30,40]
    assert thresholds == SizeThresholds(median_df=14.0, q3_df=27.0)
    assert assignment == {
        ("p", 3): "S",
        ("p", 4): "S",
        ("p", 5): "M",
        ("p", 6): "L",
        ("p", 7): "L",
        ("p", 8): None,
    }


def test_bucket_windows_requires_qualified_rows():
    with pytest.raises(ValueError):
        bucket_windows([WindowRow("p", 2, 100, 2, False, False)])


def test_rank_beliefs_by_size_labels_and_drops(caplog):
    scores_small = [_score(v, ordinal=i + 2) for i, v in enumerate(_spread(0.82, 8))]
    scores_large = [_score(v, ordinal=i + 20) for i, v in enumerate(_spread(0.18, 8))]
    population = _population(scores_small + scores_large, belief="B3", project="p")
    buckets = {("p", s.release_ordinal): "S" for s in scores_small}
    buckets.update({("p", s.release_ordinal): "L" for s in scores_large})
    with caplog.at_level(logging.WARNING):
        groups = rank_beliefs_by_size([population], buckets, Config(seed=1))
    labels = [e.label for g in groups for e in g.treatments]
    assert sorted(labels) == ["L_B3", "S_B3"]
    assert groups[0].treatments[0].label == "L_B3"  # weaker support ranks lower
    # the 28 empty treatments, in label order, in one line
    unranked = [
        f"{prefix}_{belief}"
        for belief in ("B1", "B2", "B3", "B4", "B5", "B6", "B7", "B8", "B9", "B10")
        for prefix in "SML"
        if f"{prefix}_{belief}" not in ("S_B3", "L_B3")
    ]
    assert len(unranked) == 28
    assert caplog.messages == [f"no significant scores, so not ranked: {', '.join(unranked)}"]


def test_rank_beliefs_by_size_skips_unbucketed_scores():
    scores = [_score(0.5, ordinal=i + 2) for i in range(4)]
    population = _population(scores, belief="B3", project="p")
    buckets = {("p", s.release_ordinal): None for s in scores}
    assert rank_beliefs_by_size([population], buckets) == []
    # a score outside every bucketed window is an error, not a silent drop:
    # read_populations_csv rejects such rows before any ranking
    with pytest.raises(KeyError):
        rank_beliefs_by_size([population], {})


# --- trends --------------------------------------------------------------------


def test_growth_decay_growth():
    scores = [_score(0.4 + 0.1 * i, ordinal=i + 2) for i in range(5)]
    times = {i + 2: 1000 * (i + 2) for i in range(5)}
    result = growth_decay(_population(scores), times)
    assert result.trend == "growth"
    assert result.rho_time == pytest.approx(1.0)
    assert result.p_time == pytest.approx(2 / math.factorial(5))


def test_growth_decay_decay_uses_magnitudes():
    # raw rho rises toward zero but support magnitude falls
    scores = [_score(-0.9 + 0.1 * i, ordinal=i + 2) for i in range(5)]
    times = {i + 2: 1000 * (i + 2) for i in range(5)}
    result = growth_decay(_population(scores), times)
    assert result.trend == "decay"
    assert result.rho_time == pytest.approx(-1.0)


def test_growth_decay_neither_between_thresholds():
    values = [0.5, 0.8, 0.45, 0.75, 0.5, 0.7]
    scores = [_score(v, ordinal=i + 2) for i, v in enumerate(values)]
    times = {i + 2: 1000 * (i + 2) for i in range(6)}
    result = growth_decay(_population(scores), times)
    assert result.trend == "neither"
    assert result.rho_time is not None
    assert abs(result.rho_time) < 0.4


def test_growth_decay_too_few_scores():
    scores = [_score(0.5, ordinal=i + 2) for i in range(3)]
    times = {i + 2: 1000 * (i + 2) for i in range(3)}
    result = growth_decay(_population(scores), times)
    assert result == type(result)("B3", "proj", "neither", None, None)


# --- csv io --------------------------------------------------------------------


def test_populations_csv_round_trip(tmp_path):
    populations = [
        _population(
            [_score(0.5234567890123456, p=0.0012345, ordinal=2), _score(-0.75, ordinal=5)],
            belief="B3",
            project="p1",
        ),
        _population([_score(0.9, ordinal=3)], belief="B1", project="p0"),
    ]
    path = tmp_path / "populations.csv"
    write_populations_csv(populations, path)
    qualified = [("p0", 3), ("p1", 2), ("p1", 5)]
    windows = [WindowRow(p, ordinal, 0, 4, False, True) for p, ordinal in qualified]
    loaded = read_populations_csv(path, windows)
    assert [(p.project_id, p.belief_id) for p in loaded] == [("p0", "B1"), ("p1", "B3")]
    original = {(p.project_id, p.belief_id): p.scores for p in populations}
    for population in loaded:
        key = (population.project_id, population.belief_id)
        # repr round-trips floats exactly
        assert [(s.rho, s.p_value, s.n) for s in population.scores] == [
            (s.rho, s.p_value, s.n) for s in original[key]
        ]


def test_table_key_is_compared_parsed(tmp_path):
    path = tmp_path / "windows.csv"
    write_windows_csv([WindowRow("p", 5, 1000, 4, False, True)], path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("p,05,2000,4,0,1\n")  # ordinal 05 parses to 5
    with pytest.raises(CacheError) as excinfo:
        read_windows_csv(path)
    assert str(excinfo.value) == f"{path}:3: duplicate key ('p', 5), first on line 2"


def test_windows_csv_round_trip(tmp_path):
    rows = [
        WindowRow("p", 2, 1000, 5, False, True),
        WindowRow("p", 3, 2000, 2, True, False),
    ]
    path = tmp_path / "windows.csv"
    write_windows_csv(rows, path)
    assert read_windows_csv(path) == rows
    text = path.read_text(encoding="utf-8")
    assert "True" not in text  # booleans serialize as 0/1


def test_windows_csv_round_trip_negative_release_time(tmp_path):
    # a release tagged before 1970 is written with a minus sign and read back
    rows = [WindowRow("p", 1, -86400, 3, False, True), WindowRow("p", 2, 0, 4, False, True)]
    path = tmp_path / "windows.csv"
    write_windows_csv(rows, path)
    assert read_windows_csv(path) == rows


def test_exclusions_csv_contents(tmp_path):
    population = _population([], belief="B2", project="p")
    population.exclusions = {EXCLUDE_TOO_FEW: 3, EXCLUDE_NOT_SIGNIFICANT: 1}
    path = tmp_path / "exclusions.csv"
    write_exclusions_csv([population], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "project,belief,reason,count"
    assert "p,B2,too_few_observations,3" in lines
    assert "p,B2,not_significant,1" in lines


def test_summary_csv_round_trip(tmp_path):
    rows = [SummaryRow("p", 20, 0.45, 5, 3, 0.9034907597535934)]
    path = tmp_path / "summary.csv"
    write_summary_csv(rows, path)
    assert read_summary_csv(path) == rows


_SUMMARY_COUNTS = ("commits", "releases", "developers")
_SUMMARY_NUMBERS = ("bug_fix_fraction", "active_years")


def _summary_row(**values):
    fields = {
        "commits": 20,
        "bug_fix_fraction": 0.45,
        "releases": 5,
        "developers": 3,
        "active_years": 0.9,
        **values,
    }
    return summary_row("p", **fields)


@pytest.mark.parametrize(
    "field, value",
    [(name, value) for name in _SUMMARY_COUNTS for value in (0, 1)]
    + [(name, value) for name in _SUMMARY_NUMBERS for value in (0, 0.0, 1, 1.0)],
)
def test_summary_row_accepts_boundaries(field, value):
    checked = getattr(_summary_row(**{field: value}), field)
    assert checked == value
    assert type(checked) is (int if field in _SUMMARY_COUNTS else float)


@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param(name, value, id=f"{name}-{text}")
        for name in _SUMMARY_COUNTS
        for text, value in [("True", True), ("5.0", 5.0), ("-1", -1)]
    ]
    + [
        pytest.param(name, value, id=f"{name}-{text}")
        for name in _SUMMARY_NUMBERS
        for text, value in [
            ("True", True),
            ("-1", -1),
            ("-1e-9", -1e-9),
            ("nan", math.nan),
            ("inf", math.inf),
            ("10**400", 10**400),
        ]
    ]
    + [pytest.param("bug_fix_fraction", 1.0000001, id="bug_fix_fraction-1.0000001")],
)
def test_summary_row_rejects_out_of_range(field, value):
    rule = "non-negative integer" if field in _SUMMARY_COUNTS else "finite number in [0, "
    with pytest.raises(ValueError) as excinfo:
        _summary_row(**{field: value})
    assert str(excinfo.value).startswith(f"{field} = {value!r} is not a {rule}")
