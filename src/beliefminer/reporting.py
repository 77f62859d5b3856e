"""Rendering of analysis results as markdown tables and plot-ready CSVs.

The report mirrors the structure of the original survey-replication write-up:
an overall Scott-Knott belief ranking, per-project coverage/prevalence, a
size-stratified ranking, belief trend proportions, and the dataset
distribution quintet. Every printed number also lands in a CSV.

The markdown table format (header row, alignment row, cell separator and the
escaping of ``|`` in a cell) is written once, in ``_table``; each
``render_*`` function only turns its rows into cells, and ``render_report``
joins its sections, each a heading and its parts, by one rule. The CSVs go
through ``analysis.write_csv``.
"""

from __future__ import annotations

import logging
import shutil
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import (
    BeliefPopulation,
    SizeThresholds,
    SummaryRow,
    TrendResult,
    WindowRow,
    bucket_windows,
    coverage,
    growth_decay,
    prevalence,
    rank_beliefs,
    rank_beliefs_by_size,
    read_populations_csv,
    read_summary_csv,
    read_windows_csv,
    write_csv,
)
from .config import DEFAULTS, Config
from .ingest import CacheError
from .metrics import BELIEF_IDS
from .stats import RankedGroup, quartiles

logger = logging.getLogger(__name__)

# Practitioner agreement with each belief in the original survey; attached
# to every belief row as display metadata.
AGREEMENT_PCT: dict[str, int] = {
    "B1": 76,
    "B2": 64,
    "B3": 61,
    "B4": 58,
    "B5": 57,
    "B6": 49,
    "B7": 48,
    "B8": 46,
    "B9": 35,
    "B10": 30,
}

BELIEF_TEXT: dict[str, str] = {
    "B1": "change-scattering entropy of the pre-release period",
    "B2": "distinct developers touching the file",
    "B3": "lines added to the file",
    "B4": "recency of the last change",
    "B5": "commit-level churn",
    "B6": "recency of the last bug fix",
    "B7": "pre-release bug-fix count",
    "B8": "pre-release commit count",
    "B9": "lines removed from the file",
    "B10": "share of minor contributors",
}

# Findings of the original 37-project corpus, shown as context only.
REFERENCE_COVERAGE_ALL10_PCT = 24
REFERENCE_B10_DECAY_PCT = 51
REFERENCE_DISTRIBUTION_MEDIANS = {
    "commits": "2304",
    "bug_fix_pct": "31",
    "releases": "60",
    "developers": "284",
    "active_years": "8",
}

_DISTRIBUTION_QUANTITIES = (
    ("commits", "Commits"),
    ("bug_fix_pct", "Bug-fix commits (%)"),
    ("releases", "Releases"),
    ("developers", "Developers"),
    ("active_years", "Active years"),
)


@dataclass
class Report:
    """Structured report content; rendering functions turn it into text."""

    project_ids: list[str]
    ranking: list[RankedGroup]
    size_ranking: list[RankedGroup]
    size_thresholds: SizeThresholds | None
    coverage_rows: list[tuple[str, int, float | None]]
    trends: list[TrendResult]
    trend_summary: list[tuple[str, float, float]]  # belief, growth %, decay %
    distribution_rows: list[tuple[str, float, float, float]]
    window_rows: list[WindowRow] = field(default_factory=list)
    contrary_counts: dict[str, int] = field(default_factory=dict)


def _annotate(label: str) -> str:
    """Attach the survey agreement percentage to a belief or bucket_belief
    treatment label."""
    belief = label.split("_", 1)[1] if "_" in label else label
    agreement = AGREEMENT_PCT.get(belief)
    return f"{label} ({agreement}%)" if agreement is not None else label


def _fmt(value: float) -> str:
    return f"{value:g}"


# Markdown alignment cells for a left- and a right-aligned column.
_LEFT, _RIGHT = "---", "---:"


def _table(columns: tuple[tuple[str, str], ...], rows: list[tuple], note: str = "") -> str:
    """The report's one markdown table format: a header row of the column
    titles, an alignment row, one row per tuple of cells, and the note, if
    any, after a blank line. A ``|`` in any cell is escaped as ``\\|``, so a
    cell such as a project id never splits its row."""

    def row(cells) -> str:
        return "| " + " | ".join(str(c).replace("|", "\\|") for c in cells) + " |"

    lines = [row(title for title, _ in columns), row(align for _, align in columns)]
    lines += map(row, rows)
    if note:
        lines += ["", note]
    return "\n".join(lines) + "\n"


def render_ranking(groups: list[RankedGroup]) -> str:
    """Markdown ranking table, highest rank (strongest support) first.
    Medians and IQRs are scaled x100 and rounded, matching the customary
    presentation; raw values stay in the CSVs."""
    if not groups:
        return "No significant scores; nothing to rank.\n"
    return _table(
        (("Rank", _RIGHT), ("Treatment", _LEFT), ("Median", _RIGHT), ("IQR", _RIGHT)),
        [
            (group.rank, _annotate(entry.label), round(entry.median * 100), round(entry.iqr * 100))
            for group in sorted(groups, key=lambda g: -g.rank)
            for entry in group.treatments
        ],
    )


def render_distribution(rows: list[tuple[str, float, float, float]]) -> str:
    """Markdown quartile table of the per-project dataset quintet."""
    if not rows:
        return "No project summaries available (no data).\n"
    labels = dict(_DISTRIBUTION_QUANTITIES)
    return _table(
        (("Quantity", _LEFT), ("Q1", _RIGHT), ("Median", _RIGHT), ("Q3", _RIGHT),
         ("Reference median", _RIGHT)),
        [
            (labels.get(key, key), _fmt(q1), _fmt(median), _fmt(q3),
             REFERENCE_DISTRIBUTION_MEDIANS.get(key, ""))
            for key, q1, median, q3 in rows
        ],
        "Reference medians describe the survey-replication corpus this tool"
        " mirrors, not the analyzed dataset.",
    )


def render_trends(summary: list[tuple[str, float, float]]) -> str:
    """Markdown growth/decay proportions per belief, highest decay first.
    ``summarize_trends`` gives a row per belief whenever a project was
    analyzed, so only a report of zero projects has no rows."""
    if not summary:
        return "No trend data (no project analyzed).\n"
    ordered = sorted(summary, key=lambda row: (-row[2], BELIEF_IDS.index(row[0])))
    return _table(
        (("Belief", _LEFT), ("Growth %", _RIGHT), ("Decay %", _RIGHT)),
        [(_annotate(b), f"{growth:.1f}", f"{decay:.1f}") for b, growth, decay in ordered],
        f"Reference corpus: B10 showed decay in {REFERENCE_B10_DECAY_PCT}% of projects.",
    )


def render_coverage(rows: list[tuple[str, int, float | None]]) -> str:
    if not rows:
        return "No projects analyzed.\n"
    return _table(
        (("Project", _LEFT), ("Covered beliefs (of 10)", _RIGHT), ("Prevalence %", _RIGHT)),
        [
            (project_id, covered, "n/a" if prevalence_pct is None else f"{prevalence_pct:.1f}")
            for project_id, covered, prevalence_pct in rows
        ],
        f"Reference corpus: {REFERENCE_COVERAGE_ALL10_PCT}% of projects"
        " covered all ten beliefs.",
    )


def render_legend() -> str:
    return _table(
        (("Belief", _LEFT), ("Metric", _LEFT), ("Survey agreement %", _RIGHT)),
        [(belief, BELIEF_TEXT[belief], AGREEMENT_PCT[belief]) for belief in BELIEF_IDS],
    )


def render_report(report: Report) -> str:
    """Assemble the full markdown report; pure and byte-stable. Each section
    is a heading and its parts, every one set off by a blank line."""
    windows_total = len(report.window_rows)
    qualified = sum(1 for row in report.window_rows if row.qualified)
    censored = sum(1 for row in report.window_rows if row.right_censored)
    named = f" ({', '.join(report.project_ids)})" if report.project_ids else ""
    contrary = ", ".join(f"{b}: {c}" for b, c in sorted(report.contrary_counts.items()) if c)
    ranking_parts = [
        "Scott-Knott groups over pooled per-release |rho| scores; a higher"
        " rank means stronger support. Values are x100.",
        render_ranking(report.ranking),
        contrary and f"Contrary evidence (significant negative rho): {contrary}.",
    ]
    thresholds = report.size_thresholds
    if thresholds is None:
        size_parts = ["No qualified windows; size buckets undefined."]
    else:
        median_df, q3_df = _fmt(thresholds.median_df), _fmt(thresholds.q3_df)
        size_parts = [
            f"Buckets from the dataset's D_F distribution: small 3 < D_F < {median_df},"
            f" medium {median_df} <= D_F < {q3_df}, large D_F >= {q3_df}."
            " Windows with exactly 3 files stay unbucketed.",
            render_ranking(report.size_ranking),
        ]
    counts = (
        f"Projects analyzed: {len(report.project_ids)}{named}\n"
        f"Release windows: {windows_total} built, {qualified} qualified,"
        f" {censored} right-censored."
    )
    sections = [
        ("# Belief support report", [counts]),
        ("## Dataset distribution", [render_distribution(report.distribution_rows)]),
        ("## Overall belief ranking", ranking_parts),
        ("## Coverage and prevalence", [render_coverage(report.coverage_rows)]),
        ("## Support by release size", size_parts),
        ("## Belief trends", [render_trends(report.trend_summary)]),
        ("## Belief legend", [render_legend()]),
    ]
    blocks = [block.rstrip("\n") for heading, parts in sections for block in (heading, *parts)]
    return "\n\n".join(filter(None, blocks)) + "\n"


def summarize_trends(
    trends: list[TrendResult], project_count: int
) -> list[tuple[str, float, float]]:
    """Per-belief percentage of projects showing growth and decay."""
    if project_count <= 0:
        return []
    growth: dict[str, int] = defaultdict(int)
    decay: dict[str, int] = defaultdict(int)
    for trend in trends:
        if trend.trend == "growth":
            growth[trend.belief_id] += 1
        elif trend.trend == "decay":
            decay[trend.belief_id] += 1
    return [
        (
            belief,
            100.0 * growth[belief] / project_count,
            100.0 * decay[belief] / project_count,
        )
        for belief in BELIEF_IDS
    ]


def distribution_rows(
    summaries: list[SummaryRow],
) -> list[tuple[str, float, float, float]]:
    """Quartiles of the five per-project quantities."""
    if not summaries:
        return []
    series = {
        "commits": [float(s.commits) for s in summaries],
        "bug_fix_pct": [100.0 * s.bug_fix_fraction for s in summaries],
        "releases": [float(s.releases) for s in summaries],
        "developers": [float(s.developers) for s in summaries],
        "active_years": [s.active_years for s in summaries],
    }
    rows = []
    for key, _ in _DISTRIBUTION_QUANTITIES:
        q1, median, q3 = quartiles(series[key])
        rows.append((key, q1, median, q3))
    return rows


def build_report(assess_dir: str | Path, cfg: Config = DEFAULTS) -> Report:
    """Assemble a Report from an assessment directory's windows.csv,
    summary.csv and populations.csv; each is required, and a missing one
    raises OSError. Every populations.csv row names a qualified window of
    windows.csv and every windows.csv project has a summary.csv row, so the
    projects are those of summary.csv."""
    assess_path = Path(assess_dir)
    if not assess_path.is_dir():
        raise FileNotFoundError(f"assessment directory not found: {assess_path}")
    window_rows = read_windows_csv(assess_path / "windows.csv")
    summaries = read_summary_csv(assess_path / "summary.csv")
    populations = read_populations_csv(assess_path / "populations.csv", window_rows)

    project_ids = sorted(s.project_id for s in summaries)
    missing = {w.project_id for w in window_rows}.difference(project_ids)
    if missing:
        reason = f"no row for windows.csv project {min(missing)!r}"
        raise CacheError(assess_path / "summary.csv", 1, reason)
    by_project: dict[str, list[BeliefPopulation]] = defaultdict(list)
    for population in populations:
        by_project[population.project_id].append(population)

    ranking = rank_beliefs(populations, cfg)

    qualified_rows = [row for row in window_rows if row.qualified]
    if qualified_rows:
        thresholds, bucket_map = bucket_windows(window_rows, cfg)
        size_ranking = rank_beliefs_by_size(populations, bucket_map, cfg)
    else:
        thresholds, size_ranking = None, []

    coverage_rows = []
    for project_id in project_ids:
        project_populations = by_project.get(project_id, [])
        coverage_rows.append(
            (
                project_id,
                coverage(project_populations, cfg),
                prevalence(project_populations, cfg),
            )
        )

    release_times: dict[str, dict[int, int]] = defaultdict(dict)
    for row in window_rows:
        release_times[row.project_id][row.release_ordinal] = row.release_time
    trends = [
        growth_decay(population, release_times[population.project_id], cfg)
        for population in populations
    ]
    trends.sort(key=lambda t: (t.project_id, BELIEF_IDS.index(t.belief_id)))

    contrary: dict[str, int] = defaultdict(int)
    for population in populations:
        for score in population.scores:
            if score.rho < 0:
                contrary[population.belief_id] += 1

    return Report(
        project_ids=project_ids,
        ranking=ranking,
        size_ranking=size_ranking,
        size_thresholds=thresholds,
        coverage_rows=coverage_rows,
        trends=trends,
        trend_summary=summarize_trends(trends, len(project_ids)),
        distribution_rows=distribution_rows(summaries),
        window_rows=window_rows,
        contrary_counts=dict(contrary),
    )


def _ranking_rows(groups: list[RankedGroup]) -> list[tuple[int, str, float, float]]:
    """(rank, treatment, median, iqr) for every treatment, lowest rank first."""
    return [
        (group.rank, entry.label, entry.median, entry.iqr)
        for group in sorted(groups, key=lambda g: g.rank)
        for entry in group.treatments
    ]


def write_report(report: Report, out_dir: str | Path, assess_dir: str | Path) -> None:
    """Write report.md and the machine-readable CSV companions, and copy the
    assessment's populations.csv, which build_report read, byte for byte,
    unless out_dir is the assessment directory."""
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    with open(out_path / "report.md", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_report(report))
    thresholds = report.size_thresholds
    cuts = (thresholds.median_df, thresholds.q3_df) if thresholds else (None, None)
    tables = {
        "ranking.csv": (("rank", "treatment", "median", "iqr"), _ranking_rows(report.ranking)),
        "buckets.csv": (
            ("rank", "treatment", "median", "iqr", "median_df", "q3_df"),
            [row + cuts for row in _ranking_rows(report.size_ranking)],
        ),
        "trends.csv": (("belief", "growth_pct", "decay_pct"), report.trend_summary),
        "trend_detail.csv": (
            ("project", "belief", "rho_time", "p_time", "trend"),
            [(t.project_id, t.belief_id, t.rho_time, t.p_time, t.trend) for t in report.trends],
        ),
        "distribution.csv": (("quantity", "q1", "median", "q3"), report.distribution_rows),
        "coverage.csv": (("project", "covered_beliefs", "prevalence_pct"), report.coverage_rows),
    }
    for name, (columns, rows) in tables.items():
        write_csv(out_path / name, columns, rows)
    source, target = Path(assess_dir) / "populations.csv", out_path / "populations.csv"
    if not (target.exists() and target.samefile(source)):
        shutil.copyfile(source, target)
