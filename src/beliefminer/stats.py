"""Nonparametric statistics engine.

Spearman rank correlation with exact or t-approximated p-values,
Vargha-Delaney A12 effect size, a bootstrap difference-of-means test, and
Scott-Knott ranking built on the latter two. Everything is deterministic
given an explicit seed. The bootstrap's resamples are computed in blocks
of a fixed size, so its memory does not grow with iterations x pooled
values.

Only report ranks and bootstraps, so the modules behind them (numpy.random,
hashlib, statistics) are imported where they are used, not at start-up;
cli.cmd_report imports them before it reads its config.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import struct
import sys
import types
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import fsum

import numpy as np
import scipy

from .config import DEFAULTS


def _load_stdtr():
    """scipy's Student-t CDF ufunc, without importing scipy.special's package.

    That package's __init__ also loads scipy's array-API layer (numpy.f2py
    beneath it), about half of a stage's start-up, none of which stdtr
    needs. While a stand-in package of the same name sits in sys.modules,
    the compiled _ufuncs module imports on its own; the stand-in is then
    removed, so a later `import scipy.special` loads the real package, which
    reuses that module. It is the same ufunc object either way. Another
    scipy layout takes the plain import.
    """
    special = sys.modules.get("scipy.special")
    if special is not None:
        return special.stdtr
    stand_in = types.ModuleType("scipy.special")
    try:
        stand_in.__path__ = [os.path.join(path, "special") for path in scipy.__path__]
        sys.modules["scipy.special"] = stand_in
        from scipy.special._ufuncs import stdtr

        return stdtr
    except (ImportError, AttributeError):
        pass
    finally:
        if sys.modules.get("scipy.special") is stand_in:
            del sys.modules["scipy.special"]
    from scipy.special import stdtr

    return stdtr


stdtr = _load_stdtr()

# 8! = 40320 permutations, still enumerable. The smallest exact two-sided p
# is 2/n!, so at the default alpha = 0.01 a window with n <= 5 can never be
# significant (2/120 ~ 0.017); the filter stays p < alpha regardless.
EXACT_P_MAX_N = 8
BOOTSTRAP_ALPHA = 0.05

_PERM_EPS = 1e-12  # guard band so float noise cannot drop tied permutations
# Cells (one int32 index and one gathered float64 each) per bootstrap block:
# about 384 KB of resample matrices, whatever the iterations and pool size.
BOOTSTRAP_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class SupportScore:
    """One Spearman correlation outcome."""

    rho: float
    p_value: float
    n: int
    release_ordinal: int | None = None

    def __post_init__(self) -> None:
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho out of range: {self.rho}")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p_value out of range: {self.p_value}")
        if self.n < 2:
            raise ValueError("n must be >= 2")


@dataclass(frozen=True)
class Treatment:
    """A labeled sample entering Scott-Knott ranking."""

    label: str
    measurements: tuple[float, ...]

    def __init__(self, label: str, measurements) -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "measurements", tuple(float(v) for v in measurements))
        if not self.measurements:
            raise ValueError(f"treatment {label!r} has no measurements")


@dataclass(frozen=True)
class GroupEntry:
    label: str
    median: float
    iqr: float


@dataclass(frozen=True)
class RankedGroup:
    """One Scott-Knott rank; rank 1 holds the lowest medians."""

    rank: int
    treatments: tuple[GroupEntry, ...]


def _average_ranks(values) -> np.ndarray:
    """1-based average ranks as floats; tied values share the mean of their
    positions."""
    a = np.asarray(values, dtype=float)
    n = a.size
    order = a.argsort(kind="stable")
    ordered = a[order]
    # positions where a run of equal values starts, then n
    edges = np.ones(n + 1, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=edges[1:n])
    edges = edges.nonzero()[0]
    starts, ends = edges[:-1], edges[1:]
    ranks = np.empty(n)
    ranks[order] = ((starts + ends + 1) / 2).repeat(ends - starts)
    return ranks


def _centred(ranks: np.ndarray) -> tuple[np.ndarray, float]:
    """Average ranks minus their mean, and the sum of their squares.

    Average ranks are multiples of 0.5 whose mean is exactly (n+1)/2, so
    every centred rank and every product of two is exact in float64, and
    fsum gives the same correctly rounded sums whatever the order."""
    centred = ranks - (ranks.size + 1) / 2
    return centred, fsum((centred * centred).tolist())


# Keyed by y's values, so a hit can only save work, never change a result.
# Eight of a window's ten beliefs share its file-level defect vector, and a
# window correlates at most three distinct ones (its files', B5's commits'
# and B6's fixed files'), so each is ranked once per window.
@functools.lru_cache(maxsize=4)
def _y_side(y: tuple) -> tuple[np.ndarray, float]:
    """y's read-only centred average ranks and their sum of squares."""
    centred, sum_yy = _centred(_average_ranks(y))
    centred.setflags(write=False)
    return centred, sum_yy


@functools.lru_cache(maxsize=EXACT_P_MAX_N)
def _permutation_indices(n: int) -> np.ndarray:
    """Read-only (n!, n) matrix whose rows are the permutations of range(n)."""
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))),
        dtype=np.intp,
        count=math.factorial(n) * n,
    )
    perms = flat.reshape(-1, n)
    perms.setflags(write=False)
    return perms


def _permutation_p(
    centred_x: np.ndarray, centred_y: np.ndarray, den: float, rho: float
) -> float:
    """Two-sided exact p: share of y-rank permutations whose |rho| reaches
    the observed one (within a guard band well below rank-rho resolution).
    The arguments are spearman's centred ranks, its rho denominator and rho.

    Every centred rank is a multiple of 0.5 (see _centred), so every centred
    product is a multiple of 0.25 and each numerator is exact in float64
    whatever the summation order; the hit count cannot depend on how the
    matrix product is evaluated."""
    perms = _permutation_indices(len(centred_x))
    nums = centred_y[perms] @ centred_x
    hits = int(np.count_nonzero(np.abs(nums / den) >= abs(rho) - _PERM_EPS))
    return hits / len(perms)


def _t_approximation_p(rho: float, n: int) -> float:
    denominator = 1.0 - rho * rho
    if denominator <= 0.0:
        return 0.0
    t_stat = abs(rho) * math.sqrt((n - 2) / denominator)
    # the same call scipy.stats.t.sf makes, without its argument handling
    return float(2.0 * stdtr(n - 2, -t_stat))


def spearman(
    x: list[float],
    y: list[float],
    exact_p: bool = True,
    release_ordinal: int | None = None,
) -> SupportScore:
    """Spearman correlation: Pearson over average ranks.

    A constant x or y vector yields rho = 0 and p = 1 by convention, so the
    rank spreads below are never zero. The p-value is an exact permutation
    enumeration when exact_p and n <= 8, otherwise the two-sided Student-t
    approximation.
    """
    n = len(x)
    if n != len(y):
        raise ValueError("x and y must have equal length")
    if n < 2:
        raise ValueError("need at least 2 observations")
    if min(x) == max(x) or min(y) == max(y):
        return SupportScore(0.0, 1.0, n, release_ordinal)
    centred_x, sum_xx = _centred(_average_ranks(x))
    centred_y, sum_yy = _y_side(tuple(y))
    den = math.sqrt(sum_xx * sum_yy)
    rho = max(-1.0, min(1.0, fsum((centred_x * centred_y).tolist()) / den))
    if exact_p and n <= EXACT_P_MAX_N:
        p_value = _permutation_p(centred_x, centred_y, den, rho)
    else:
        p_value = _t_approximation_p(rho, n)
    return SupportScore(rho, p_value, n, release_ordinal)


def a12(m: list[float], n: list[float]) -> float:
    """Vargha-Delaney A12: chance a random m value beats a random n value,
    ties counted half. Counts are exact integers, so a12(m,n) + a12(n,m)
    is exactly 1."""
    if not m or not n:
        raise ValueError("a12 requires two nonempty samples")
    sorted_n = sorted(n)
    greater = 0
    equal = 0
    for value in m:
        lo = bisect_left(sorted_n, value)
        hi = bisect_right(sorted_n, value)
        greater += lo
        equal += hi - lo
    return (greater + 0.5 * equal) / (len(m) * len(n))


def _resampled_means(
    rng: np.random.Generator, pooled: np.ndarray, iterations: int, size: int
) -> np.ndarray:
    """Means of `iterations` resamples of `size` pooled values.

    The resamples are drawn, gathered and averaged in blocks of whole rows,
    at most BOOTSTRAP_BLOCK_CELLS cells each (one row when size is larger).
    The bounded int32 draws read the generator's 32-bit stream on from one
    call to the next, and each row's mean is reduced on its own, so the
    blocks give the draws and the means of one iterations x size matrix,
    bit for bit, without holding it."""
    means = np.empty(iterations)
    rows = max(1, BOOTSTRAP_BLOCK_CELLS // size)
    for start in range(0, iterations, rows):
        stop = min(start + rows, iterations)
        # numpy draws a bounded integer below 2**32 from 32 bits whatever
        # the dtype, so int32 indices are the same draws as int64 ones
        idx = rng.integers(0, pooled.size, size=(stop - start, size), dtype=np.int32)
        pooled[idx].mean(axis=1, out=means[start:stop])
    return means


def _bootstrap_reached(m: list[float], n: list[float], iterations: int, seed: int) -> int:
    """How many of `iterations` pooled resamples reach the observed absolute
    difference of the two samples' means."""
    m_arr = np.asarray(m, dtype=float)
    n_arr = np.asarray(n, dtype=float)
    observed = abs(float(m_arr.mean()) - float(n_arr.mean()))
    pooled = np.concatenate([m_arr, n_arr])
    rng = np.random.default_rng(seed)
    # m's side is drawn first, then n's
    m_means = _resampled_means(rng, pooled, iterations, m_arr.size)
    diffs = np.abs(m_means - _resampled_means(rng, pooled, iterations, n_arr.size))
    return int(np.count_nonzero(diffs >= observed))


def _check_iterations(iterations: int) -> None:
    if iterations < 100:
        raise ValueError("iterations must be >= 100")


def bootstrap_different(
    m: list[float],
    n: list[float],
    iterations: int = DEFAULTS.bootstrap_iterations,
    seed: int = DEFAULTS.seed,
) -> bool:
    """Bootstrap difference-of-means test at significance 0.05.

    Both samples are redrawn from the pooled values (the null of a shared
    distribution); returns True when fewer than 5% of replicates reach the
    observed absolute mean difference.
    """
    _check_iterations(iterations)
    if not m or not n:
        raise ValueError("bootstrap requires two nonempty samples")
    return _bootstrap_reached(m, n, iterations, seed) / iterations < BOOTSTRAP_ALPHA


def derive_split_seed(seed: int, lower: list[float], upper: list[float]) -> int:
    """Stable per-split bootstrap seed from the global seed and the split's
    actual values, so identical splits reuse identical randomness no matter
    how the recursion reached them."""
    import hashlib

    digest = hashlib.blake2b(digest_size=8)
    digest.update(int(seed).to_bytes(8, "little", signed=True))
    digest.update(struct.pack("<I", len(lower)))
    digest.update(struct.pack(f"<{len(lower)}d", *lower))
    digest.update(struct.pack(f"<{len(upper)}d", *upper))
    return int.from_bytes(digest.digest(), "little")


def split_is_distinct(
    lower: list[float],
    upper: list[float],
    seed: int,
    iterations: int = DEFAULTS.bootstrap_iterations,
    a12_threshold: float = DEFAULTS.a12_threshold,
) -> bool:
    """Scott-Knott keep-rule: the split stands only if the bootstrap calls
    the sides different AND the upper side wins with at least a small A12
    effect.

    Both tests are pure and the split's seed comes from its own values, so
    the cheap A12 runs first and the bootstrap only on splits it passes;
    the iterations bound is checked before either."""
    _check_iterations(iterations)
    if a12(upper, lower) < a12_threshold:
        return False
    sub_seed = derive_split_seed(seed, lower, upper)
    return bootstrap_different(lower, upper, iterations, sub_seed)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) with inclusive linear interpolation."""
    import statistics

    if not values:
        raise ValueError("quartiles of an empty list")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _best_split_index(chunk: list[Treatment]) -> int:
    """Boundary index (into chunk) maximizing the between-side mean shift
    E = (ms/ls)(mu_m - mu)^2 + (ns/ls)(mu_n - mu)^2 over pooled values."""
    pooled_total = fsum(v for t in chunk for v in t.measurements)
    pooled_count = sum(len(t.measurements) for t in chunk)
    grand_mean = pooled_total / pooled_count
    best_index = 1
    best_e = -math.inf
    left_sum = 0.0
    left_count = 0
    for index in range(1, len(chunk)):
        left_sum += fsum(chunk[index - 1].measurements)
        left_count += len(chunk[index - 1].measurements)
        right_sum = pooled_total - left_sum
        right_count = pooled_count - left_count
        mean_left = left_sum / left_count
        mean_right = right_sum / right_count
        e = (left_count / pooled_count) * (mean_left - grand_mean) ** 2 + (
            right_count / pooled_count
        ) * (mean_right - grand_mean) ** 2
        if e > best_e:
            best_e = e
            best_index = index
    return best_index


def scott_knott(
    treatments: list[Treatment],
    seed: int = DEFAULTS.seed,
    iterations: int = DEFAULTS.bootstrap_iterations,
    a12_threshold: float = DEFAULTS.a12_threshold,
) -> list[RankedGroup]:
    """Rank treatments into statistically distinct groups.

    Treatments are sorted by median (label breaks ties), then recursively
    split at the boundary maximizing the expected mean shift; each split
    survives only if split_is_distinct accepts it. Rank 1 is the lowest
    median group.
    """
    import statistics

    if not treatments:
        raise ValueError("scott_knott requires at least one treatment")
    ordered = sorted(
        treatments, key=lambda t: (statistics.median(t.measurements), t.label)
    )
    groups: list[list[Treatment]] = []

    def partition(chunk: list[Treatment]) -> None:
        if len(chunk) < 2:
            groups.append(chunk)
            return
        split_at = _best_split_index(chunk)
        lower = [v for t in chunk[:split_at] for v in t.measurements]
        upper = [v for t in chunk[split_at:] for v in t.measurements]
        if split_is_distinct(lower, upper, seed, iterations, a12_threshold):
            partition(chunk[:split_at])
            partition(chunk[split_at:])
        else:
            groups.append(chunk)

    partition(ordered)
    ranked: list[RankedGroup] = []
    for position, group in enumerate(groups, start=1):
        entries = []
        for treatment in group:
            values = list(treatment.measurements)
            q1, q2, q3 = quartiles(values)
            entries.append(GroupEntry(treatment.label, q2, q3 - q1))
        ranked.append(RankedGroup(rank=position, treatments=tuple(entries)))
    return ranked
