"""Tests for the statistics engine.

Correctness is checked against independent reference implementations in
tests/oracles.py: dictionary-based average ranks, plain-sum Pearson, matrix
permutation enumeration, a pairwise O(mn) A12, and a recompute-everything
exhaustive Scott-Knott that shares only the keep-rule.
"""

import math
import tracemalloc

import numpy as np
import pytest

from beliefminer import stats
from beliefminer.stats import (
    EXACT_P_MAX_N,
    _permutation_p,
    _t_approximation_p,
    _y_side,
    GroupEntry,
    RankedGroup,
    SupportScore,
    Treatment,
    a12,
    bootstrap_different,
    derive_split_seed,
    quartiles,
    scott_knott,
    spearman,
    split_is_distinct,
)

from oracles import (
    a12_brute,
    bootstrap_one_shot_means,
    bootstrap_reached_one_shot,
    bootstrap_reached_two_arrays,
    exact_permutation_p,
    exact_permutation_p_loop,
    mc_permutation_p,
    rank_brute,
    rank_with_ties,
    rank_with_ties_loop,
    scott_knott_brute,
    spearman_brute,
    spearman_rho_loop,
)


# --- ranks -------------------------------------------------------------------


def test_rank_basic_and_ties():
    assert rank_with_ties([10.0, 20.0, 30.0]) == [1.0, 2.0, 3.0]
    assert rank_with_ties([30.0, 10.0, 20.0]) == [3.0, 1.0, 2.0]
    assert rank_with_ties([10.0, 20.0, 20.0, 30.0]) == [1.0, 2.5, 2.5, 4.0]
    assert rank_with_ties([5.0, 5.0, 5.0]) == [2.0, 2.0, 2.0]
    assert rank_with_ties([7.0]) == [1.0]
    with pytest.raises(ValueError):
        rank_with_ties([])


def test_rank_matches_oracle():
    rng = np.random.default_rng(101)
    for _ in range(300):
        n = int(rng.integers(1, 20))
        values = [float(v) for v in rng.integers(0, 6, n)]
        assert rank_with_ties(values) == rank_brute(values)


def test_rank_sum_invariant():
    rng = np.random.default_rng(102)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        values = [float(v) for v in rng.integers(0, 5, n)]
        assert sum(rank_with_ties(values)) == pytest.approx(n * (n + 1) / 2)


# --- spearman ----------------------------------------------------------------


def test_spearman_perfect_monotone():
    score = spearman([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 4.0, 8.0, 16.0, 32.0])
    assert score.rho == pytest.approx(1.0)
    # only the two extreme orderings of five distinct ranks reach |rho| = 1
    assert score.p_value == pytest.approx(2 / math.factorial(5))
    reverse = spearman([1.0, 2.0, 3.0, 4.0, 5.0], [5.0, 4.0, 3.0, 2.0, 1.0])
    assert reverse.rho == pytest.approx(-1.0)
    assert reverse.p_value == score.p_value


def test_spearman_constant_vector_convention():
    assert spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == SupportScore(0.0, 1.0, 3)
    assert spearman([1.0, 2.0, 3.0], [7.0, 7.0, 7.0]) == SupportScore(0.0, 1.0, 3)
    assert spearman([2.0, 2.0], [3.0, 3.0]).rho == 0.0


def test_spearman_monotone_transform_invariance():
    rng = np.random.default_rng(103)
    for _ in range(50):
        n = int(rng.integers(3, 12))
        x = [float(v) for v in rng.uniform(0.1, 10.0, n)]
        y = [float(v) for v in rng.uniform(0.1, 10.0, n)]
        base = spearman(x, y, exact_p=False).rho
        assert spearman([math.sqrt(v) for v in x], y, exact_p=False).rho == pytest.approx(base)
        assert spearman(x, [math.log(v) for v in y], exact_p=False).rho == pytest.approx(base)


def test_spearman_symmetry():
    rng = np.random.default_rng(104)
    for _ in range(50):
        n = int(rng.integers(3, 10))
        x = [float(v) for v in rng.integers(0, 8, n)]
        y = [float(v) for v in rng.integers(0, 8, n)]
        assert spearman(x, y).rho == pytest.approx(spearman(y, x).rho)


def test_spearman_rho_matches_oracle_with_ties():
    rng = np.random.default_rng(105)
    for _ in range(200):
        n = int(rng.integers(3, 15))
        x = [float(v) for v in rng.integers(0, 5, n)]
        y = [float(v) for v in rng.integers(0, 5, n)]
        if min(x) == max(x) or min(y) == max(y):
            continue
        got = spearman(x, y, exact_p=False).rho
        assert got == pytest.approx(spearman_brute(x, y), abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 8, 9, 40, 500, 4000])
def test_spearman_rho_is_bit_identical_to_loop_reference(n):
    rng = np.random.default_rng(n)
    for trial in range(20):
        spread = [2, 5, n, 10 * n][trial % 4]
        x = [float(v) for v in rng.integers(0, spread, n)]
        if trial % 5 == 0:
            x = [float(v) for v in rng.normal(1e9, 1e6, n)]
        y = [int(v) for v in rng.integers(0, spread, n)]
        assert rank_with_ties(x) == rank_with_ties_loop(x)
        assert rank_with_ties(y) == rank_with_ties_loop(y)
        if min(x) == max(x) or min(y) == max(y):
            continue
        got = spearman(x, y, exact_p=False).rho
        assert got.hex() == spearman_rho_loop(x, y).hex()


def test_shared_y_ranks_interleaved_calls_match_plain_calls():
    rng = np.random.default_rng(107)
    ys = [[int(v) for v in rng.integers(0, 4, n)] for n in (30, 30, 7)]
    calls = []
    for i in range(24):
        y = ys[i % 3]
        if i % 4 == 0:
            y = list(y)  # equal values in another list: the same cache entry
        x = [float(v) for v in rng.integers(0, 9, len(y))]
        calls.append((x, y))
    cold = []
    for x, y in calls:
        _y_side.cache_clear()
        cold.append(spearman(x, y))
    _y_side.cache_clear()
    warm = [spearman(x, y) for x, y in calls]
    assert _y_side.cache_info().misses == len(ys)
    assert warm == cold
    for (x, y), score in zip(calls, warm):
        assert score.rho == pytest.approx(spearman_brute(x, y), abs=1e-12)


def test_shared_y_ranks_follow_values_not_objects():
    x = [1.0, 5.0, 2.0, 4.0, 3.0, 6.0, 0.0, 9.0, 8.0, 7.0]
    y = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
    first = spearman(x, y, exact_p=False)
    y.reverse()  # same list, new values
    second = spearman(x, y, exact_p=False)
    assert second.rho == -first.rho
    assert second.rho == pytest.approx(spearman_brute(x, y), abs=1e-12)


def test_shared_y_ranks_are_bounded():
    rng = np.random.default_rng(108)
    _y_side.cache_clear()
    for n in range(3, 40):
        spearman([float(v) for v in range(n)], [int(v) for v in rng.integers(0, 5, n)])
    info = _y_side.cache_info()
    assert info.misses > info.maxsize == 4
    assert info.currsize <= 4


def test_shared_y_ranks_are_read_only():
    centred, sum_yy = _y_side((3, 0, 1, 1))
    assert centred.tolist() == [1.5, -1.5, 0.0, 0.0] and sum_yy == 4.5
    with pytest.raises(ValueError):
        centred[0] = 0.0


def test_exact_p_matches_enumeration_oracle():
    rng = np.random.default_rng(106)
    checked = 0
    while checked < 40:
        n = int(rng.integers(3, EXACT_P_MAX_N))
        x = [float(v) for v in rng.integers(0, 5, n)]
        y = [float(v) for v in rng.integers(0, 5, n)]
        if min(x) == max(x) or min(y) == max(y):
            continue
        got = spearman(x, y).p_value
        assert got == pytest.approx(exact_permutation_p(x, y), abs=1e-12)
        checked += 1


def test_exact_p_counts_tied_permutations():
    # duplicated y values make whole blocks of permutations tie exactly;
    # every tied block must count, so p stays a clean multiple of 1/n!
    x = [1.0, 2.0, 3.0, 4.0]
    y = [1.0, 1.0, 2.0, 2.0]
    score = spearman(x, y)
    assert score.p_value == pytest.approx(exact_permutation_p(x, y), abs=1e-12)
    hits = round(score.p_value * math.factorial(4))
    assert score.p_value == pytest.approx(hits / math.factorial(4))


def test_t_approximation_formula():
    x = [float(v) for v in range(10)]
    y = [0.0, 2.0, 1.0, 4.0, 3.0, 5.0, 7.0, 6.0, 9.0, 8.0]
    score = spearman(x, y)  # n = 10 > EXACT_P_MAX_N
    from scipy.stats import t as student_t

    t_stat = abs(score.rho) * math.sqrt((10 - 2) / (1 - score.rho**2))
    assert score.p_value == pytest.approx(2 * student_t.sf(t_stat, 8))


@pytest.mark.parametrize(
    "n, tied",
    [(n, False) for n in range(2, EXACT_P_MAX_N + 1)]
    + [(n, True) for n in range(3, EXACT_P_MAX_N + 1)],
)
def test_exact_p_equals_loop_reference(n, tied):
    # the vectorised count must equal the one-permutation-at-a-time loop
    # exactly, for both signs of rho, with and without tied ranks
    rng = np.random.default_rng(1000 + 10 * n + tied)
    signs = set()
    checked = 0
    while checked < 12:
        if tied:
            x = [float(v) for v in rng.integers(0, n - 1, n)]
            y = [float(v) for v in rng.integers(0, n - 1, n)]
        else:
            x = [float(v) for v in rng.permutation(n)]
            y = [float(v) for v in rng.permutation(n)]
        if min(x) == max(x) or min(y) == max(y):
            continue
        if tied and len(set(x)) == n and len(set(y)) == n:
            continue
        rank_x = rank_with_ties(x)
        rank_y = rank_with_ties(y)
        score = spearman(x, y)
        expected = exact_permutation_p_loop(rank_x, rank_y, score.rho)
        centred_x = np.array(rank_x) - (n + 1) / 2
        centred_y = np.array(rank_y) - (n + 1) / 2
        den = math.sqrt(math.fsum(centred_x * centred_x) * math.fsum(centred_y * centred_y))
        assert _permutation_p(centred_x, centred_y, den, score.rho) == expected
        assert score.p_value == expected
        signs.add(math.copysign(1.0, score.rho))
        checked += 1
    assert signs == {1.0, -1.0}


def test_t_approximation_equals_scipy_stats_sf():
    from scipy.stats import t as student_t

    for n in (3, 4, 9, 10, 17, 50, 300, 5000):
        for rho in np.linspace(-0.995, 0.995, 81):
            rho = float(rho)
            t_stat = abs(rho) * math.sqrt((n - 2) / (1.0 - rho * rho))
            assert _t_approximation_p(rho, n) == 2 * student_t.sf(t_stat, n - 2)


def test_t_approximation_near_exact_for_medium_n():
    rng = np.random.default_rng(107)
    worst = 0.0
    for trial in range(40):
        n = 8 + trial % 5
        x = [float(v) for v in rng.uniform(0, 1, n)]
        y = [float(v) for v in rng.uniform(0, 1, n)]
        approx = spearman(x, y, exact_p=False).p_value
        if n <= EXACT_P_MAX_N:
            reference = exact_permutation_p(x, y)
        else:
            reference = mc_permutation_p(x, y, samples=20000, seed=trial)
        worst = max(worst, abs(approx - reference))
    assert worst <= 0.05


def test_perfect_rho_gives_zero_t_p():
    x = [float(v) for v in range(12)]
    score = spearman(x, x)
    assert score.rho == 1.0
    assert score.p_value == 0.0


def test_spearman_validation():
    with pytest.raises(ValueError):
        spearman([1.0], [1.0])
    with pytest.raises(ValueError):
        spearman([1.0, 2.0], [1.0])


def test_support_score_validation():
    with pytest.raises(ValueError):
        SupportScore(1.5, 0.5, 5)
    with pytest.raises(ValueError):
        SupportScore(0.5, -0.1, 5)
    with pytest.raises(ValueError):
        SupportScore(0.5, 0.5, 1)
    score = SupportScore(0.5, 0.5, 5, release_ordinal=7)
    assert score.release_ordinal == 7


# --- a12 ---------------------------------------------------------------------


def test_a12_examples():
    assert a12([2.0, 3.0], [0.0, 1.0]) == 1.0
    assert a12([0.0, 1.0], [2.0, 3.0]) == 0.0
    assert a12([1.0, 1.0], [1.0, 1.0]) == 0.5
    assert a12([0.0, 2.0], [1.0]) == 0.5
    assert a12([1.0, 2.0, 3.0], [2.0]) == pytest.approx((1 + 0.5) / 3)


def test_a12_complement_is_exact():
    rng = np.random.default_rng(108)
    for _ in range(200):
        m = [float(v) for v in rng.integers(0, 6, int(rng.integers(1, 12)))]
        n = [float(v) for v in rng.integers(0, 6, int(rng.integers(1, 12)))]
        assert a12(m, n) + a12(n, m) == 1.0  # exact, not approximate


def test_a12_matches_pairwise_oracle():
    rng = np.random.default_rng(109)
    for _ in range(200):
        m = [float(v) for v in rng.normal(0, 1, int(rng.integers(1, 15)))]
        n = [float(v) for v in rng.normal(0, 1, int(rng.integers(1, 15)))]
        assert a12(m, n) == pytest.approx(a12_brute(m, n), abs=1e-12)


def test_a12_validation():
    with pytest.raises(ValueError):
        a12([], [1.0])
    with pytest.raises(ValueError):
        a12([1.0], [])


# --- bootstrap ---------------------------------------------------------------


def test_bootstrap_identical_samples_not_different():
    values = [5.0] * 10
    assert bootstrap_different(values, values, seed=1) is False


def test_bootstrap_separated_samples_different():
    m = [float(v) for v in range(10)]
    n = [float(v + 100) for v in range(10)]
    assert bootstrap_different(m, n, seed=1) is True


def test_bootstrap_deterministic():
    rng = np.random.default_rng(110)
    for trial in range(20):
        m = [float(v) for v in rng.normal(0, 1, 12)]
        n = [float(v) for v in rng.normal(0.8, 1, 12)]
        first = bootstrap_different(m, n, seed=trial)
        assert bootstrap_different(m, n, seed=trial) == first


def test_bootstrap_false_positive_rate():
    # both samples from one normal: reject rate must sit near alpha
    rng = np.random.default_rng(111)
    rejections = 0
    trials = 300
    for trial in range(trials):
        m = [float(v) for v in rng.normal(0, 1, 10)]
        n = [float(v) for v in rng.normal(0, 1, 10)]
        if bootstrap_different(m, n, seed=trial):
            rejections += 1
    assert rejections / trials <= 0.08


def test_bootstrap_power_on_shifted_samples():
    rng = np.random.default_rng(112)
    rejections = 0
    trials = 200
    for trial in range(trials):
        m = [float(v) for v in rng.normal(0, 1, 10)]
        n = [float(v) for v in rng.normal(2.0, 1, 10)]
        if bootstrap_different(m, n, seed=trial):
            rejections += 1
    assert rejections / trials >= 0.90


# (size of m, size of n): single values, balanced splits, lopsided ones like
# git-history's 650/48 root split, and pooled sizes of 2**k - 1 and 2**k + 1
_BOOTSTRAP_SIZES = [
    (1, 1), (2, 1), (1, 2), (6, 6), (40, 40), (650, 48), (48, 650),
    (3, 4), (4, 5), (31, 32), (32, 33), (100, 155), (128, 129),
]


@pytest.mark.parametrize("iterations", [100, 10_000])
@pytest.mark.parametrize("sizes", _BOOTSTRAP_SIZES, ids=lambda s: f"{s[0]}-{s[1]}")
def test_bootstrap_matches_two_array_oracle(sizes, iterations):
    # the same resampled means, so the same count reaching the observed
    # difference, under small seeds and 64-bit split seeds alike
    rng = np.random.default_rng(sizes[0] * 1000 + sizes[1])
    for seed in (0, 1, 7, 2**64 - 1):
        m = [float(v) for v in rng.uniform(-1, 1, sizes[0]).round(2)]
        n = [float(v) for v in rng.uniform(-0.9, 1, sizes[1]).round(2)]
        reached = stats._bootstrap_reached(m, n, iterations, seed)
        assert reached == bootstrap_reached_two_arrays(m, n, iterations, seed)
        assert bootstrap_different(m, n, iterations, seed) is (reached / iterations < 0.05)


# (size of m, size of n, iterations): pools of 2 to 33,002 values; with
# blocks of 2**15 cells, sides within one block (64 x 512 fills it
# exactly), sides of many blocks, a last block shorter than the rest
# (65 x 512, 1200 x 777) and a side wider than a block (one row per block)
_BLOCK_CASES = [
    (1, 1, 100), (1, 1, 512), (1, 1, 10_000), (3, 3, 10_000), (1, 2, 10_000),
    (40, 24, 512), (64, 64, 512), (65, 70, 512), (650, 48, 512), (48, 650, 512),
    (100, 155, 10_000), (700, 700, 100), (1200, 5, 777),
    (33_000, 2, 100),
]


@pytest.mark.parametrize("sizes", _BLOCK_CASES, ids=lambda c: "-".join(map(str, c)))
def test_blocked_bootstrap_equals_one_shot_draws(sizes):
    # Blocks give the same means as one iterations x size matrix per side
    # only while numpy's bounded int32 draws read the 32-bit stream on from
    # one call to the next; a numpy that buffered them per call fails here.
    m_size, n_size, iterations = sizes
    rng = np.random.default_rng(m_size * 1000 + n_size)
    for seed in (0, 7, 2**64 - 1):
        m = [float(v) for v in rng.uniform(-1, 1, m_size).round(2)]
        n = [float(v) for v in rng.uniform(-0.9, 1, n_size).round(2)]
        pooled = np.concatenate([m, n])
        draws = np.random.default_rng(seed)
        blocked = [stats._resampled_means(draws, pooled, iterations, len(s)) for s in (m, n)]
        for got, expected in zip(blocked, bootstrap_one_shot_means(m, n, iterations, seed)):
            assert got.tobytes() == expected.tobytes()
        reached = stats._bootstrap_reached(m, n, iterations, seed)
        assert reached == bootstrap_reached_one_shot(m, n, iterations, seed)


def _traced_peak(call) -> int:
    """Peak bytes traced by tracemalloc during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bootstrap_peak_is_one_block():
    rng = np.random.default_rng(1102)
    m = [float(v) for v in rng.normal(0.0, 1.0, 700)]
    n = [float(v) for v in rng.normal(0.1, 1.0, 700)]
    peak = _traced_peak(lambda: bootstrap_different(m, n, iterations=10_000, seed=3))
    assert peak < 2 << 20


def test_bootstrap_validation():
    with pytest.raises(ValueError):
        bootstrap_different([1.0], [2.0], iterations=99)
    with pytest.raises(ValueError):
        bootstrap_different([], [1.0])


# --- split seed and keep-rule --------------------------------------------------


def test_derive_split_seed_is_stable_and_data_sensitive():
    lower, upper = [1.0, 2.0], [3.0, 4.0]
    seed = derive_split_seed(42, lower, upper)
    assert seed == derive_split_seed(42, lower, upper)
    assert 0 <= seed < 2**64
    assert seed != derive_split_seed(43, lower, upper)
    assert seed != derive_split_seed(42, upper, lower)
    assert seed != derive_split_seed(42, [1.0, 2.5], upper)


def test_split_keep_rule_requires_a12_effect():
    # bootstrap separates both orientations, so the a12 gate decides:
    # the heavy-tailed side has the higher mean but loses most pairings
    tens = [10.0] * 20
    heavy = [0.0] * 12 + [120.0] * 8
    assert a12(heavy, tens) < 0.56
    assert a12(tens, heavy) >= 0.56
    assert split_is_distinct(tens, heavy, seed=7) is False
    assert split_is_distinct(heavy, tens, seed=7) is True


def test_split_keep_rule_requires_bootstrap():
    values = [1.0, 2.0, 3.0, 4.0]
    assert split_is_distinct(values, values, seed=0) is False


def test_split_keep_rule_skips_bootstrap_without_a12_effect(monkeypatch):
    calls = []
    original = stats._bootstrap_reached

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(stats, "_bootstrap_reached", counting)
    tens = [10.0] * 20
    heavy = [0.0] * 12 + [120.0] * 8
    assert split_is_distinct(tens, heavy, seed=7) is False
    assert calls == []
    assert split_is_distinct(heavy, tens, seed=7) is True
    assert len(calls) == 1
    # the iterations bound still holds on a split A12 would reject
    with pytest.raises(ValueError, match="iterations"):
        split_is_distinct(tens, heavy, seed=7, iterations=99)
    assert len(calls) == 1


# --- quartiles ---------------------------------------------------------------


def test_quartiles():
    assert quartiles([float(v) for v in range(1, 10)]) == (3.0, 5.0, 7.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert quartiles([5.0]) == (5.0, 5.0, 5.0)
    with pytest.raises(ValueError):
        quartiles([])


# --- scott-knott -------------------------------------------------------------


def test_scott_knott_single_treatment():
    groups = scott_knott([Treatment("only", [1.0, 2.0, 3.0])])
    assert len(groups) == 1
    assert groups[0].rank == 1
    assert groups[0].treatments[0].label == "only"
    assert groups[0].treatments[0].median == 2.0


def test_scott_knott_separates_distant_treatments():
    low = Treatment("low", [1.0, 1.1, 0.9, 1.2, 0.8, 1.0, 1.1, 0.95])
    high = Treatment("high", [9.0, 9.1, 8.9, 9.2, 8.8, 9.0, 9.1, 8.95])
    groups = scott_knott([high, low], seed=3)
    assert [g.rank for g in groups] == [1, 2]
    assert groups[0].treatments[0].label == "low"  # rank 1 = lowest median
    assert groups[1].treatments[0].label == "high"


def test_scott_knott_merges_identical_treatments():
    same = [1.0, 2.0, 3.0, 4.0, 5.0]
    groups = scott_knott([Treatment("b", same), Treatment("a", same)], seed=3)
    assert len(groups) == 1
    assert [e.label for e in groups[0].treatments] == ["a", "b"]  # label tie-break


def test_scott_knott_three_bands():
    rng = np.random.default_rng(113)
    treatments = [
        Treatment("lo", [float(v) for v in rng.normal(0, 0.3, 12)]),
        Treatment("mid", [float(v) for v in rng.normal(5, 0.3, 12)]),
        Treatment("hi", [float(v) for v in rng.normal(10, 0.3, 12)]),
    ]
    groups = scott_knott(treatments, seed=5)
    assert [g.rank for g in groups] == [1, 2, 3]
    assert [g.treatments[0].label for g in groups] == ["lo", "mid", "hi"]


def test_scott_knott_group_entries_carry_median_and_iqr():
    values = [1.0, 2.0, 3.0, 4.0]
    groups = scott_knott([Treatment("t", values)])
    entry = groups[0].treatments[0]
    q1, q2, q3 = quartiles(values)
    assert entry.median == q2
    assert entry.iqr == q3 - q1


def test_scott_knott_partition_invariants():
    rng = np.random.default_rng(114)
    for trial in range(40):
        k = int(rng.integers(1, 7))
        treatments = [
            Treatment(
                f"t{i:02d}",
                [float(v) for v in rng.normal(rng.uniform(0, 4), 0.5, int(rng.integers(4, 10)))],
            )
            for i in range(k)
        ]
        groups = scott_knott(treatments, seed=trial)
        assert [g.rank for g in groups] == list(range(1, len(groups) + 1))
        labels = [e.label for g in groups for e in g.treatments]
        assert sorted(labels) == sorted(t.label for t in treatments)
        medians = [e.median for g in groups for e in g.treatments]
        assert medians == sorted(medians)


def test_scott_knott_matches_exhaustive_oracle():
    rng = np.random.default_rng(115)
    for trial in range(60):
        k = int(rng.integers(2, 7))
        treatments = [
            Treatment(
                f"t{i:02d}",
                [float(rng.uniform(0, 3) + rng.normal(0, 0.6)) for _ in range(int(rng.integers(4, 12)))],
            )
            for i in range(k)
        ]
        got = [[e.label for e in g.treatments] for g in scott_knott(treatments, seed=trial)]
        assert got == scott_knott_brute(treatments, seed=trial)


def test_scott_knott_deterministic():
    rng = np.random.default_rng(116)
    treatments = [
        Treatment(f"t{i}", [float(v) for v in rng.normal(i * 0.8, 1.0, 10)])
        for i in range(5)
    ]
    first = scott_knott(treatments, seed=9)
    second = scott_knott(treatments, seed=9)
    assert first == second


def test_scott_knott_validation():
    with pytest.raises(ValueError):
        scott_knott([])


def test_treatment_validation_and_coercion():
    with pytest.raises(ValueError):
        Treatment("empty", [])
    t = Treatment("t", [1, 2, 3])
    assert t.measurements == (1.0, 2.0, 3.0)
    assert isinstance(t.measurements[0], float)


def test_ranked_group_shape():
    group = RankedGroup(rank=1, treatments=(GroupEntry("a", 1.0, 0.5),))
    assert group.rank == 1
    assert group.treatments[0].iqr == 0.5
