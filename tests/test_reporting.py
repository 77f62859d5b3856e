"""Tests for markdown/CSV report rendering and assembly."""

import pytest

from beliefminer.analysis import SizeThresholds, SummaryRow, TrendResult, WindowRow
from beliefminer.reporting import (
    AGREEMENT_PCT,
    BELIEF_TEXT,
    Report,
    build_report,
    distribution_rows,
    render_coverage,
    render_distribution,
    render_legend,
    render_ranking,
    render_report,
    render_trends,
    summarize_trends,
    write_report,
)
from beliefminer.stats import GroupEntry, RankedGroup


def _group(rank, *entries):
    return RankedGroup(rank=rank, treatments=tuple(GroupEntry(*e) for e in entries))


def test_agreement_table_is_complete():
    assert set(AGREEMENT_PCT) == {f"B{i}" for i in range(1, 11)}
    assert AGREEMENT_PCT["B1"] == 76
    assert AGREEMENT_PCT["B10"] == 30
    assert set(BELIEF_TEXT) == set(AGREEMENT_PCT)


def test_render_ranking_orders_and_annotates():
    groups = [
        _group(1, ("B9", 0.151, 0.042)),
        _group(2, ("B1", 0.854, 0.118), ("B2", 0.833, 0.09)),
    ]
    text = render_ranking(groups)
    lines = text.splitlines()
    # strongest support first
    assert lines[2].startswith("| 2 | B1 (76%) |")
    assert lines[3].startswith("| 2 | B2 (64%) |")
    assert lines[4].startswith("| 1 | B9 (35%) |")
    # values are x100, rounded
    assert "| 85 | 12 |" in lines[2]
    assert "| 15 | 4 |" in lines[4]


def test_render_ranking_annotates_bucket_labels():
    text = render_ranking([_group(1, ("S_B5", 0.5, 0.1))])
    assert "S_B5 (57%)" in text


def test_render_ranking_empty():
    assert render_ranking([]) == "No significant scores; nothing to rank.\n"


def test_render_distribution():
    rows = [("commits", 120.0, 400.0, 900.0), ("active_years", 1.0, 2.5, 4.0)]
    text = render_distribution(rows)
    assert "| Commits | 120 | 400 | 900 | 2304 |" in text
    assert "| Active years | 1 | 2.5 | 4 | 8 |" in text
    assert "not the analyzed dataset" in text
    assert render_distribution([]).startswith("No project summaries")


def test_render_trends_sorted_by_decay():
    summary = [
        ("B1", 10.0, 0.0),
        ("B10", 0.0, 51.3),
        ("B2", 5.0, 20.0),
        ("B3", 0.0, 20.0),
    ]
    text = render_trends(summary)
    lines = [
        l for l in text.splitlines() if l.startswith("| B") and "(" in l
    ]
    assert lines[0].startswith("| B10 (30%) | 0.0 | 51.3 |")
    # equal decay falls back to belief order
    assert lines[1].startswith("| B2 (64%) | 5.0 | 20.0 |")
    assert lines[2].startswith("| B3 (61%) | 0.0 | 20.0 |")
    assert lines[3].startswith("| B1 (76%) | 10.0 | 0.0 |")
    assert "decay in 51%" in text
    assert render_trends([]).startswith("No trend data")


def test_render_coverage():
    text = render_coverage([("p1", 7, 62.5), ("p2", 0, None)])
    assert "| p1 | 7 | 62.5 |" in text
    assert "| p2 | 0 | n/a |" in text
    assert "24% of projects" in text
    assert render_coverage([]) == "No projects analyzed.\n"


def test_render_legend_lists_all_beliefs():
    text = render_legend()
    for belief, agreement in AGREEMENT_PCT.items():
        assert f"| {belief} | {BELIEF_TEXT[belief]} | {agreement} |" in text


def test_summarize_trends_percentages():
    trends = [
        TrendResult("B3", "p1", "growth", 0.8, 0.01),
        TrendResult("B3", "p2", "growth", 0.9, 0.01),
        TrendResult("B3", "p3", "decay", -0.8, 0.01),
        TrendResult("B10", "p1", "decay", -0.9, 0.01),
        TrendResult("B10", "p2", "neither", 0.1, 0.5),
    ]
    summary = summarize_trends(trends, project_count=4)
    as_dict = {belief: (g, d) for belief, g, d in summary}
    assert len(summary) == 10  # every belief reported, even all-zero
    assert as_dict["B3"] == (50.0, 25.0)
    assert as_dict["B10"] == (0.0, 25.0)
    assert as_dict["B1"] == (0.0, 0.0)
    assert summarize_trends(trends, project_count=0) == []


def test_distribution_rows_quartiles():
    summaries = [
        SummaryRow("p1", 100, 0.30, 10, 5, 2.0),
        SummaryRow("p2", 200, 0.40, 20, 15, 4.0),
        SummaryRow("p3", 300, 0.50, 30, 25, 6.0),
    ]
    rows = distribution_rows(summaries)
    as_dict = {key: (q1, med, q3) for key, q1, med, q3 in rows}
    assert as_dict["commits"] == (150.0, 200.0, 250.0)
    assert as_dict["bug_fix_pct"] == (35.0, 40.0, 45.0)
    assert as_dict["developers"] == (10.0, 15.0, 20.0)
    assert [row[0] for row in rows] == [
        "commits",
        "bug_fix_pct",
        "releases",
        "developers",
        "active_years",
    ]
    assert distribution_rows([]) == []


def test_render_report_mentions_contrary_evidence():
    base = dict(
        project_ids=["p"],
        ranking=[],
        size_ranking=[],
        size_thresholds=None,
        coverage_rows=[("p", 0, None)],
        trends=[],
        trend_summary=[],
        distribution_rows=[],
    )
    with_contrary = render_report(Report(**base, contrary_counts={"B4": 2, "B9": 0}))
    assert "Contrary evidence (significant negative rho): B4: 2." in with_contrary
    without = render_report(Report(**base))
    assert "Contrary evidence" not in without
    assert "No qualified windows; size buckets undefined." in without


def test_render_report_window_counts():
    report = Report(
        project_ids=["p"],
        ranking=[],
        size_ranking=[],
        size_thresholds=SizeThresholds(6.0, 6.0),
        coverage_rows=[],
        trends=[],
        trend_summary=[],
        distribution_rows=[],
        window_rows=[
            WindowRow("p", 2, 100, 5, True, True),
            WindowRow("p", 3, 200, 2, False, False),
        ],
    )
    text = render_report(report)
    assert "Release windows: 2 built, 1 qualified, 1 right-censored." in text
    assert "small 3 < D_F < 6, medium 6 <= D_F < 6, large D_F >= 6" in text


def test_render_report_is_stable():
    report = Report(
        project_ids=[],
        ranking=[],
        size_ranking=[],
        size_thresholds=None,
        coverage_rows=[],
        trends=[],
        trend_summary=[],
        distribution_rows=[],
    )
    assert render_report(report) == render_report(report)


def test_build_report_from_fixture_assessment(data_dir):
    report = build_report(data_dir / "fixture_assess")
    assert report.project_ids == ["fixture"]
    assert report.ranking == []
    assert report.size_ranking == []
    assert report.size_thresholds == SizeThresholds(6.0, 6.0)
    assert report.coverage_rows == [("fixture", 0, None)]
    assert len(report.window_rows) == 4
    assert report.contrary_counts == {}
    assert {(b, g, d) for b, g, d in report.trend_summary} == {
        (f"B{i}", 0.0, 0.0) for i in range(1, 11)
    }


def test_write_report_matches_fixture_goldens(tmp_path, data_dir):
    report = build_report(data_dir / "fixture_assess")
    out = tmp_path / "report"
    write_report(report, out, data_dir / "fixture_assess")
    golden_dir = data_dir / "fixture_report"
    golden_files = sorted(p.name for p in golden_dir.iterdir())
    produced = sorted(p.name for p in out.iterdir())
    assert produced == golden_files
    for name in golden_files:
        assert (out / name).read_bytes() == (golden_dir / name).read_bytes(), name
