"""Rendering of analysis results as markdown tables and plot-ready CSVs.

The report mirrors the structure of the original survey-replication write-up:
an overall Scott-Knott belief ranking, per-project coverage/prevalence, a
size-stratified ranking, belief trend proportions, and the dataset
distribution quintet. Every printed number also lands in a CSV.
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


def render_ranking(groups: list[RankedGroup]) -> str:
    """Markdown ranking table, highest rank (strongest support) first.
    Medians and IQRs are scaled x100 and rounded, matching the customary
    presentation; raw values stay in the CSVs."""
    if not groups:
        return "No significant scores; nothing to rank.\n"
    lines = ["| Rank | Treatment | Median | IQR |", "| ---: | --- | ---: | ---: |"]
    for group in sorted(groups, key=lambda g: -g.rank):
        for entry in group.treatments:
            lines.append(
                f"| {group.rank} | {_annotate(entry.label)} "
                f"| {round(entry.median * 100)} | {round(entry.iqr * 100)} |"
            )
    return "\n".join(lines) + "\n"


def render_distribution(rows: list[tuple[str, float, float, float]]) -> str:
    """Markdown quartile table of the per-project dataset quintet."""
    if not rows:
        return "No project summaries available (no data).\n"
    labels = dict(_DISTRIBUTION_QUANTITIES)
    lines = [
        "| Quantity | Q1 | Median | Q3 | Reference median |",
        "| --- | ---: | ---: | ---: | ---: |",
    ]
    for key, q1, median, q3 in rows:
        reference = REFERENCE_DISTRIBUTION_MEDIANS.get(key, "")
        lines.append(
            f"| {labels.get(key, key)} | {_fmt(q1)} | {_fmt(median)} "
            f"| {_fmt(q3)} | {reference} |"
        )
    lines.append("")
    lines.append(
        "Reference medians describe the survey-replication corpus this tool"
        " mirrors, not the analyzed dataset."
    )
    return "\n".join(lines) + "\n"


def render_trends(summary: list[tuple[str, float, float]]) -> str:
    """Markdown growth/decay proportions per belief, highest decay first."""
    if not summary:
        return "No trend data (no project reached four significant scores).\n"
    ordered = sorted(
        summary, key=lambda row: (-row[2], BELIEF_IDS.index(row[0]))
    )
    lines = ["| Belief | Growth % | Decay % |", "| --- | ---: | ---: |"]
    for belief, growth_pct, decay_pct in ordered:
        lines.append(
            f"| {_annotate(belief)} | {growth_pct:.1f} | {decay_pct:.1f} |"
        )
    lines.append("")
    lines.append(
        f"Reference corpus: B10 showed decay in {REFERENCE_B10_DECAY_PCT}%"
        " of projects."
    )
    return "\n".join(lines) + "\n"


def render_coverage(rows: list[tuple[str, int, float | None]]) -> str:
    if not rows:
        return "No projects analyzed.\n"
    lines = [
        "| Project | Covered beliefs (of 10) | Prevalence % |",
        "| --- | ---: | ---: |",
    ]
    for project_id, covered, prevalence_pct in rows:
        shown = "n/a" if prevalence_pct is None else f"{prevalence_pct:.1f}"
        lines.append(f"| {project_id} | {covered} | {shown} |")
    lines.append("")
    lines.append(
        f"Reference corpus: {REFERENCE_COVERAGE_ALL10_PCT}% of projects"
        " covered all ten beliefs."
    )
    return "\n".join(lines) + "\n"


def render_legend() -> str:
    lines = [
        "| Belief | Metric | Survey agreement % |",
        "| --- | --- | ---: |",
    ]
    for belief in BELIEF_IDS:
        lines.append(f"| {belief} | {BELIEF_TEXT[belief]} | {AGREEMENT_PCT[belief]} |")
    return "\n".join(lines) + "\n"


def render_report(report: Report) -> str:
    """Assemble the full markdown report; pure and byte-stable."""
    windows_total = len(report.window_rows)
    qualified = sum(1 for row in report.window_rows if row.qualified)
    censored = sum(1 for row in report.window_rows if row.right_censored)
    parts = [
        "# Belief support report",
        "",
        f"Projects analyzed: {len(report.project_ids)}"
        + (f" ({', '.join(report.project_ids)})" if report.project_ids else ""),
        f"Release windows: {windows_total} built, {qualified} qualified, "
        f"{censored} right-censored.",
        "",
        "## Dataset distribution",
        "",
        render_distribution(report.distribution_rows).rstrip("\n"),
        "",
        "## Overall belief ranking",
        "",
        "Scott-Knott groups over pooled per-release |rho| scores; a higher"
        " rank means stronger support. Values are x100.",
        "",
        render_ranking(report.ranking).rstrip("\n"),
    ]
    negatives = {b: c for b, c in sorted(report.contrary_counts.items()) if c}
    if negatives:
        noted = ", ".join(f"{belief}: {count}" for belief, count in negatives.items())
        parts += [
            "",
            f"Contrary evidence (significant negative rho): {noted}.",
        ]
    parts += [
        "",
        "## Coverage and prevalence",
        "",
        render_coverage(report.coverage_rows).rstrip("\n"),
        "",
        "## Support by release size",
        "",
    ]
    if report.size_thresholds is None:
        parts.append("No qualified windows; size buckets undefined.")
    else:
        thresholds = report.size_thresholds
        parts += [
            f"Buckets from the dataset's D_F distribution: small 3 < D_F < "
            f"{_fmt(thresholds.median_df)}, medium {_fmt(thresholds.median_df)} <= D_F < "
            f"{_fmt(thresholds.q3_df)}, large D_F >= {_fmt(thresholds.q3_df)}. "
            "Windows with exactly 3 files stay unbucketed.",
            "",
            render_ranking(report.size_ranking).rstrip("\n"),
        ]
    parts += [
        "",
        "## Belief trends",
        "",
        render_trends(report.trend_summary).rstrip("\n"),
        "",
        "## Belief legend",
        "",
        render_legend().rstrip("\n"),
        "",
    ]
    return "\n".join(parts)


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
