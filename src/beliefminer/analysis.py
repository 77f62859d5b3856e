"""Belief support populations and the dataset-level analyses over them.

Builds per-(project, belief) populations of significant Spearman scores,
labels support strength, ranks beliefs overall and by release size, and
computes coverage, prevalence, and growth/decay trends. Also owns the CSV
serialization of assessment results.
"""

from __future__ import annotations

import csv
import logging
import math
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .config import DEFAULTS, Config
from .ingest import CacheError, ChangeRecord, Release, utf8_lines
from .metrics import BELIEF_IDS, BeliefVector, compute_all
from .stats import RankedGroup, SupportScore, Treatment, quartiles, scott_knott, spearman
from .windowing import ReleaseWindow, build_windows, count_post_defects, fix_times, qualify_window

logger = logging.getLogger(__name__)

REPLICATION_MEDIAN_DF = 18.0

LABEL_NONE = "none"
LABEL_WEAK = "weak"
LABEL_SUPPORT = "support"
LABEL_STRONG = "strong"
LABEL_VERY_STRONG = "very_strong"

EXCLUDE_TOO_FEW = "too_few_observations"
EXCLUDE_NOT_SIGNIFICANT = "not_significant"
_EXCLUSION_REASONS = (EXCLUDE_TOO_FEW, EXCLUDE_NOT_SIGNIFICANT)


@dataclass
class BeliefPopulation:
    """Significant Spearman scores for one belief in one project."""

    belief_id: str
    project_id: str
    scores: list[SupportScore]
    exclusions: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class SizeThresholds:
    """D_F cut points separating small/medium/large release windows."""

    median_df: float
    q3_df: float


@dataclass(frozen=True)
class TrendResult:
    """Support trajectory of one belief across one project's releases."""

    belief_id: str
    project_id: str
    trend: str  # growth | decay | neither
    rho_time: float | None
    p_time: float | None


class WindowRow(NamedTuple):
    """Flat per-window facts retained for reporting; a windows.csv row."""

    project_id: str
    release_ordinal: int
    release_time: int
    distinct_files: int
    right_censored: bool
    qualified: bool


class SummaryRow(NamedTuple):
    """Flat per-project totals retained for reporting; a summary.csv row."""

    project_id: str
    commits: int
    bug_fix_fraction: float
    releases: int
    developers: int
    active_years: float


def summary_row(
    project_id: str,
    commits: object,
    bug_fix_fraction: object,
    releases: object,
    developers: object,
    active_years: object,
) -> SummaryRow:
    """A project's summary row, checked by the one set of rules that holds
    for summary.json and summary.csv alike: each count is an int (not a
    bool) >= 0, bug_fix_fraction a finite number in [0, 1], and active_years
    a finite number >= 0, where an integer too large for a float is not
    finite. The fields are checked in column order and the first bad one
    raises ValueError; the two numbers are returned as floats."""

    def count(name: str, value: object) -> int:
        if type(value) is not int or value < 0:
            raise ValueError(f"{name} = {value!r} is not a non-negative integer")
        return value

    def number(name: str, value: object, high: float) -> float:
        try:
            real = float(value) if type(value) in (int, float) else math.nan
        except OverflowError:  # an integer beyond the float range
            real = math.inf
        if not (math.isfinite(real) and 0 <= real <= high):
            raise ValueError(f"{name} = {value!r} is not a finite number in [0, {high}]")
        return real

    return SummaryRow(
        project_id,
        count("commits", commits),
        number("bug_fix_fraction", bug_fix_fraction, 1.0),
        count("releases", releases),
        count("developers", developers),
        number("active_years", active_years, math.inf),
    )


@dataclass
class ProjectAssessment:
    project_id: str
    populations: dict[str, BeliefPopulation]
    window_rows: list[WindowRow]


def belief_population(
    project_id: str,
    belief_id: str,
    scored_windows: list[tuple[ReleaseWindow, BeliefVector]],
    cfg: Config = DEFAULTS,
) -> BeliefPopulation:
    """Correlate each window's vector and keep only significant scores.

    Windows with fewer than cfg.min_observations entities never reach the
    correlation; scores with p >= cfg.alpha are dropped. Both exclusions are
    counted by reason so reports can say why a release is missing.
    """
    scores: list[SupportScore] = []
    exclusions = dict.fromkeys(_EXCLUSION_REASONS, 0)
    for window, vector in scored_windows:
        if vector.belief_id != belief_id:
            raise ValueError(
                f"vector for {vector.belief_id} passed to {belief_id} population"
            )
        if vector.n < cfg.min_observations:
            exclusions[EXCLUDE_TOO_FEW] += 1
            continue
        score = spearman(
            vector.x,
            vector.y,
            exact_p=True,
            release_ordinal=window.release.ordinal,
        )
        if score.p_value >= cfg.alpha:
            exclusions[EXCLUDE_NOT_SIGNIFICANT] += 1
            continue
        scores.append(score)
    return BeliefPopulation(
        belief_id=belief_id,
        project_id=project_id,
        scores=scores,
        exclusions=exclusions,
    )


def assess_project(
    project_id: str,
    records: list[ChangeRecord],
    releases: list[Release],
    cfg: Config = DEFAULTS,
) -> ProjectAssessment:
    """Run windowing, metrics, and population construction for one project.

    Each qualified window is scored as soon as its ten vectors are computed,
    and the vectors are dropped before the next window's are, so one
    window's vectors are alive at a time.
    """
    windows = build_windows(releases, records, cfg)
    fixes = fix_times(records)
    window_rows: list[WindowRow] = []
    populations = {
        belief: BeliefPopulation(belief, project_id, [], dict.fromkeys(_EXCLUSION_REASONS, 0))
        for belief in BELIEF_IDS
    }
    for window in windows:
        qualified = qualify_window(window, cfg)
        window_rows.append(
            WindowRow(
                project_id=project_id,
                release_ordinal=window.release.ordinal,
                release_time=window.release.release_time,
                distinct_files=window.distinct_files,
                right_censored=window.right_censored,
                qualified=qualified,
            )
        )
        if qualified:
            _score_window(window, fixes, populations, cfg)
    return ProjectAssessment(
        project_id=project_id,
        populations=populations,
        window_rows=window_rows,
    )


def _score_window(
    window: ReleaseWindow,
    fixes: dict[str, list[int]],
    populations: dict[str, BeliefPopulation],
    cfg: Config,
) -> None:
    """Count one qualified window's defects, compute its ten vectors and add
    their scores and exclusions to the project's populations. The vectors
    live only inside this call."""
    defects = count_post_defects(window, fixes)
    for vector in compute_all(window, defects, cfg):
        population = populations[vector.belief_id]
        scored = belief_population(
            population.project_id, population.belief_id, [(window, vector)], cfg
        )
        population.scores += scored.scores
        for reason, count in scored.exclusions.items():
            population.exclusions[reason] += count


def support_label(rho: float) -> str:
    """Map |rho| to its support band: none below the default support
    threshold (0.40), then weak, support, strong, very_strong at
    0.50/0.60/0.70."""
    if not math.isfinite(rho):
        raise ValueError("rho must be finite")
    magnitude = abs(rho)
    if magnitude > 1.0:
        raise ValueError("rho must lie in [-1, 1]")
    if magnitude < DEFAULTS.support_threshold:
        return LABEL_NONE
    if magnitude < 0.50:
        return LABEL_WEAK
    if magnitude < 0.60:
        return LABEL_SUPPORT
    if magnitude < 0.70:
        return LABEL_STRONG
    return LABEL_VERY_STRONG


def coverage(populations: list[BeliefPopulation], cfg: Config = DEFAULTS) -> int:
    """Number of beliefs whose median |rho| reaches cfg.support_threshold.
    Empty populations never count."""
    covered = 0
    for population in populations:
        if not population.scores:
            continue
        magnitudes = sorted(abs(s.rho) for s in population.scores)
        _, median, _ = quartiles(magnitudes)
        if median >= cfg.support_threshold:
            covered += 1
    return covered


def prevalence(populations: list[BeliefPopulation], cfg: Config = DEFAULTS) -> float | None:
    """Percentage of pooled significant scores reaching
    cfg.support_threshold, or None when there are no scores at all."""
    pooled = [abs(s.rho) for p in populations for s in p.scores]
    if not pooled:
        return None
    reached = sum(1 for value in pooled if value >= cfg.support_threshold)
    return 100.0 * reached / len(pooled)


def _rank_pooled(
    pooled: dict[str, list[float]], labels: Iterable[str], cfg: Config
) -> list[RankedGroup]:
    """Scott-Knott over the pooled scores of `labels`, in that order, with
    the run's seed, bootstrap iterations and A12 threshold. Labels with no
    scores are dropped, and one warning names them all."""
    treatments: list[Treatment] = []
    unranked: list[str] = []
    for label in labels:
        if pooled.get(label):
            treatments.append(Treatment(label, pooled[label]))
        else:
            unranked.append(label)
    if unranked:
        logger.warning("no significant scores, so not ranked: %s", ", ".join(unranked))
    if not treatments:
        return []
    return scott_knott(
        treatments,
        seed=cfg.seed,
        iterations=cfg.bootstrap_iterations,
        a12_threshold=cfg.a12_threshold,
    )


def rank_beliefs(populations: list[BeliefPopulation], cfg: Config = DEFAULTS) -> list[RankedGroup]:
    """Scott-Knott over the ten beliefs' pooled |rho| scores across projects.
    Beliefs with no significant score anywhere are dropped with a warning."""
    pooled: dict[str, list[float]] = defaultdict(list)
    for population in populations:
        pooled[population.belief_id].extend(abs(s.rho) for s in population.scores)
    return _rank_pooled(pooled, BELIEF_IDS, cfg)


def size_thresholds(distinct_file_counts: list[int], cfg: Config = DEFAULTS) -> SizeThresholds:
    """Median and Q3 of the dataset's own D_F distribution.
    cfg.replication_mode pins the median cut to the published value of 18."""
    if not distinct_file_counts:
        raise ValueError("no windows to derive size thresholds from")
    _, median, q3 = quartiles([float(v) for v in distinct_file_counts])
    if cfg.replication_mode:
        median = REPLICATION_MEDIAN_DF
    return SizeThresholds(median_df=median, q3_df=q3)


def bucket_for(distinct_files: int, thresholds: SizeThresholds) -> str | None:
    """The size bucket's treatment prefix: S(mall), M(edium) or L(arge), or
    None for a window with the bare minimum of 3 files or fewer."""
    if distinct_files <= 3:
        return None
    if distinct_files < thresholds.median_df:
        return "S"
    if distinct_files < thresholds.q3_df:
        return "M"
    return "L"


def bucket_windows(
    window_rows: list[WindowRow], cfg: Config = DEFAULTS
) -> tuple[SizeThresholds, dict[tuple[str, int], str | None]]:
    """Assign each qualified window a size bucket from the dataset-wide D_F
    distribution. Windows with the bare minimum D_F = 3 map to None."""
    qualified = [row for row in window_rows if row.qualified]
    if not qualified:
        raise ValueError("no qualified windows to bucket")
    thresholds = size_thresholds([row.distinct_files for row in qualified], cfg)
    assignment = {
        (row.project_id, row.release_ordinal): bucket_for(
            row.distinct_files, thresholds
        )
        for row in qualified
    }
    return thresholds, assignment


def rank_beliefs_by_size(
    populations: list[BeliefPopulation],
    bucket_by_window: dict[tuple[str, int], str | None],
    cfg: Config = DEFAULTS,
) -> list[RankedGroup]:
    """Scott-Knott over up to 30 (size bucket x belief) treatments, labels
    like S_B5. Every score's window must be in bucket_by_window; unbucketed
    windows and empty combinations are dropped."""
    pooled: dict[str, list[float]] = defaultdict(list)
    for population in populations:
        for score in population.scores:
            prefix = bucket_by_window[population.project_id, score.release_ordinal]
            if prefix is not None:
                pooled[f"{prefix}_{population.belief_id}"].append(abs(score.rho))
    labels = [f"{prefix}_{belief}" for belief in BELIEF_IDS for prefix in "SML"]
    return _rank_pooled(pooled, labels, cfg)


def growth_decay(
    population: BeliefPopulation,
    release_times: dict[int, int],
    cfg: Config = DEFAULTS,
) -> TrendResult:
    """Correlate a belief's |rho| scores against their release dates, which
    release_times must hold for every score's ordinal.

    Growth when rho_time >= cfg.trend_threshold, decay when
    <= -cfg.trend_threshold; a population under cfg.min_observations
    scores is neither, with no correlation reported.
    No significance filter is applied to rho_time itself; its p-value is
    carried for the report.
    """
    dated = [(release_times[s.release_ordinal], abs(s.rho)) for s in population.scores]
    if len(dated) < cfg.min_observations:
        return TrendResult(
            population.belief_id, population.project_id, "neither", None, None
        )
    dated.sort()
    score = spearman([d[0] for d in dated], [d[1] for d in dated], exact_p=True)
    if score.rho >= cfg.trend_threshold:
        trend = "growth"
    elif score.rho <= -cfg.trend_threshold:
        trend = "decay"
    else:
        trend = "neither"
    return TrendResult(
        population.belief_id, population.project_id, trend, score.rho, score.p_value
    )


def _integer(text: str) -> int:
    """An integer as the writers spell it: ASCII digits after an optional
    minus (release times may be negative, and summary_row checks the sign of
    summary.csv's counts), so int()'s spaces and underscores are rejected."""
    if not (text.isascii() and (text.isdigit() or (text[:1] == "-" and text[1:].isdigit()))):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _count(text: str) -> int:
    """A non-negative integer as the writers spell it: ASCII digits only."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a non-negative integer: {text!r}")
    return int(text)


def _real(text: str) -> float:
    """A float as repr writes it: float()'s spaces, underscores and non-ASCII
    digits are rejected, and range checks are left to the row type."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"not a float: {text!r}")
    return float(text)


def _belief(text: str) -> str:
    if text not in BELIEF_IDS:
        raise ValueError(f"unknown belief {text!r}")
    return text


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"flag must be 0 or 1, not {text!r}")
    return text == "1"


class _Table(NamedTuple):
    """An assessment table: how many of its leading columns form its key,
    which no two rows share, and each column's name and the parser that
    reads its text back. A row type's fields follow the column order."""

    key: int
    columns: tuple[tuple[str, Callable[[str], object]], ...]


_POPULATIONS = _Table(3, (
    ("project", str),
    ("belief", _belief),
    ("release_ordinal", _count),
    ("rho", _real),
    ("p", _real),
    ("n", _count),
))
_WINDOWS = _Table(2, (
    ("project", str),
    ("release_ordinal", _count),
    ("release_time", _integer),
    ("distinct_files", _count),
    ("right_censored", _flag),
    ("qualified", _flag),
))
_EXCLUSIONS = _Table(3, (("project", str), ("belief", str), ("reason", str), ("count", _count)))
# summary.csv's columns only turn text into numbers; summary_row checks
# their ranges, as it does summary.json's.
_SUMMARY = _Table(1, (
    ("project", str),
    ("commits", _integer),
    ("bug_fix_fraction", _real),
    ("releases", _integer),
    ("developers", _integer),
    ("active_years", _real),
))


def write_csv(path: Path, columns: tuple[str, ...], rows: Iterable[Iterable]) -> None:
    """Write a header and rows as UTF-8 CSV with "\n" line ends; rows may be
    a generator, which is consumed as the file is written.

    Values are written as csv.writer spells them: a float by repr, None as
    an empty field, and everything else by str."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _write_table(path: Path, table: _Table, rows: Iterable[tuple]) -> None:
    """Write an assessment table, one tuple per row in column order; flags
    are written as 0/1, every other value as write_csv writes it."""
    write_csv(
        path,
        tuple(name for name, _ in table.columns),
        (tuple(int(v) if type(v) is bool else v for v in row) for row in rows),
    )


def _read_table(path: Path, table: _Table, row_type: Callable[..., object]) -> list:
    """Read an assessment table: row_type(*parsed fields) for each row.

    The header must be the table's columns and every row must hold one field
    per column; blank lines are skipped. A row's parsed key must differ from
    every earlier row's, which is checked once row_type has accepted the row.
    The first bad line raises CacheError.
    """
    columns = [name for name, _ in table.columns]
    parsers = [parse for _, parse in table.columns]
    rows = []
    first_line: dict[tuple, int] = {}
    reader = csv.reader(utf8_lines(path, newline=""))
    try:
        if next(reader, None) != columns:
            raise CacheError(path, 1, f"header is not {','.join(columns)}")
        for fields in reader:
            if not fields:
                continue
            if len(fields) != len(parsers):
                raise CacheError(
                    path, reader.line_num, f"{len(fields)} fields, expected {len(parsers)}"
                )
            values = [parse(text) for parse, text in zip(parsers, fields)]
            rows.append(row_type(*values))
            key = tuple(values[: table.key])
            earlier = first_line.setdefault(key, reader.line_num)
            if earlier != reader.line_num:
                reason = f"duplicate key {key}, first on line {earlier}"
                raise CacheError(path, reader.line_num, reason)
    except csv.Error as exc:
        raise CacheError(path, reader.line_num, str(exc)) from exc
    except ValueError as exc:
        raise CacheError(path, reader.line_num, f"bad field value: {exc}") from exc
    return rows


def write_populations_csv(populations: list[BeliefPopulation], path: Path) -> None:
    ordered = sorted(
        populations, key=lambda p: (p.project_id, BELIEF_IDS.index(p.belief_id))
    )
    _write_table(
        path,
        _POPULATIONS,
        (
            (
                population.project_id,
                population.belief_id,
                score.release_ordinal,
                score.rho,
                score.p_value,
                score.n,
            )
            for population in ordered
            for score in sorted(population.scores, key=lambda s: s.release_ordinal or 0)
        ),
    )


def read_populations_csv(path: Path, window_rows: list[WindowRow]) -> list[BeliefPopulation]:
    """Rebuild populations from populations.csv; exclusion counts are not
    round-tripped (they live in exclusions.csv). Each score passes
    SupportScore's range checks and then must sit in a qualified window of
    window_rows, the same assessment's windows.csv."""
    qualified = {(row.project_id, row.release_ordinal): row.qualified for row in window_rows}

    def scored(project, belief, ordinal, rho, p, n):
        score = SupportScore(rho, p, n, release_ordinal=ordinal)
        window_qualified = qualified.get((project, ordinal))
        if window_qualified is None:
            raise ValueError(f"release_ordinal {ordinal} of {project!r} is not in windows.csv")
        if not window_qualified:
            raise ValueError(f"release_ordinal {ordinal} of {project!r} is not a qualified window")
        return (project, belief), score

    rows = _read_table(path, _POPULATIONS, scored)
    grouped: dict[tuple[str, str], list[SupportScore]] = defaultdict(list)
    for key, score in rows:
        grouped[key].append(score)
    return [
        BeliefPopulation(belief_id, project_id, sorted(scores, key=lambda s: s.release_ordinal))
        for (project_id, belief_id), scores in sorted(grouped.items())
    ]


def write_windows_csv(window_rows: list[WindowRow], path: Path) -> None:
    ordered = sorted(window_rows, key=lambda r: (r.project_id, r.release_ordinal))
    _write_table(path, _WINDOWS, ordered)


def read_windows_csv(path: Path) -> list[WindowRow]:
    return _read_table(path, _WINDOWS, WindowRow)


def write_exclusions_csv(populations: list[BeliefPopulation], path: Path) -> None:
    ordered = sorted(
        populations, key=lambda p: (p.project_id, BELIEF_IDS.index(p.belief_id))
    )
    _write_table(
        path,
        _EXCLUSIONS,
        (
            (
                population.project_id,
                population.belief_id,
                reason,
                population.exclusions.get(reason, 0),
            )
            for population in ordered
            for reason in _EXCLUSION_REASONS
        ),
    )


def write_summary_csv(rows: list[SummaryRow], path: Path) -> None:
    _write_table(path, _SUMMARY, sorted(rows, key=lambda r: r.project_id))


def read_summary_csv(path: Path) -> list[SummaryRow]:
    return _read_table(path, _SUMMARY, summary_row)
