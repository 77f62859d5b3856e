"""In-memory span tracing around beliefminer's layer boundaries.

The tracer wraps public functions where their callers look them up (for
example ``beliefminer.cli.read_history`` rather than the definition in
``beliefminer.ingest``), so the program's source stays untouched. Each call
records a span ``[id, name, start, end, parent]`` and, through an optional
hook, adds to named counters. Spans stay in memory until the stage ends.

``layer_metrics`` folds one pipeline's spans and counters into the
benchmark's per-layer metrics; ``self_times`` is the arithmetic behind every
``*_self_s`` metric.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import defaultdict
from typing import Callable

Span = list  # [id, name, start, end, parent id or None]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def inside(self, name: str) -> bool:
        """True while a span of this name is open."""
        return any(self.spans[i][1] == name for i in self._open)

    def wrap(self, owner, attr: str, name: str, hook: Callable | None = None) -> None:
        """Replace ``owner.attr`` with a wrapper recording a span per call.

        ``hook(tracer, args, kwargs, result)`` runs after the span closes.
        """
        target = getattr(owner, attr)
        spans, open_ids, clock = self.spans, self._open, self.clock

        @functools.wraps(target)
        def traced(*args, **kwargs):
            span = [len(spans), name, clock(), None, open_ids[-1] if open_ids else None]
            spans.append(span)
            open_ids.append(span[0])
            try:
                result = target(*args, **kwargs)
            finally:
                span[3] = clock()
                open_ids.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        setattr(owner, attr, traced)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name: each span's duration minus the part of its
    interval covered by its direct children, summed over spans of a name."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for span_id, name, start, end, _ in spans:
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo, hi = max(child_start, reach, start), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[name] += (end - start) - covered
    return dict(totals)


def durations(spans: list[Span]) -> dict[str, float]:
    """Total duration per span name."""
    totals: dict[str, float] = defaultdict(float)
    for _, name, start, end, _ in spans:
        totals[name] += end - start
    return dict(totals)


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary of an imported ``beliefminer``."""
    from beliefminer import analysis, cli, ingest, reporting, stats

    def git_hook(t, args, kwargs, out):
        t.counters["ingest.git_calls"] += 1
        t.counters["ingest.git_out_bytes"] += len(out.encode("utf-8"))

    def mine_hook(t, args, kwargs, result):
        t.counters["ingest.commits"] += result.commits_seen
        t.counters["ingest.records"] += len(result.records)
        t.counters["ingest.skipped_lines"] += result.skipped_lines

    def classify_hook(t, args, kwargs, result):
        t.counters["labeling.classify_calls"] += 1
        t.counters["labeling.fixes"] += bool(result[0])

    def write_history_hook(t, args, kwargs, result):
        t.counters["ingest.bytes_written"] += os.path.getsize(args[1])

    def read_history_hook(t, args, kwargs, records):
        t.counters["ingest.records_read"] += len(records)
        t.counters["ingest.bytes_read"] += os.path.getsize(args[0])

    def windows_hook(t, args, kwargs, windows):
        t.counters["windowing.windows"] += len(windows)
        t.counters["windowing.input_records"] += len(args[1])
        t.counters["windowing.window_records"] += sum(len(w.pre_records) for w in windows)

    def defects_hook(t, args, kwargs, defects):
        t.counters["windowing.records_scanned"] += len(args[1])
        t.counters["windowing.defect_touches"] += sum(defects.per_file.values())

    def vectors_hook(t, args, kwargs, vectors):
        t.counters["metrics.vectors"] += len(vectors)
        t.counters["metrics.entities"] += sum(v.n for v in vectors)

    def population_hook(t, args, kwargs, population):
        excluded = population.exclusions
        t.counters["analysis.significant_scores"] += len(population.scores)
        t.counters["analysis.excluded_too_few"] += excluded.get("too_few_observations", 0)
        t.counters["analysis.excluded_not_significant"] += excluded.get("not_significant", 0)

    def permutation_hook(t, args, kwargs, result):
        if t.inside("analysis.belief_population"):
            t.counters["stats.permutations"] += math.factorial(len(args[0]))

    def split_hook(t, args, kwargs, result):
        t.counters["stats.split_tests"] += 1

    wrap = tracer.wrap
    # git boundary and mining
    wrap(ingest, "_run_git", "ingest.git", git_hook)
    wrap(ingest, "classify_message", "labeling.classify", classify_hook)
    wrap(cli, "mine_repository", "ingest.mine_repository", mine_hook)
    wrap(cli, "extract_releases", "ingest.extract_releases")
    # cache I/O
    wrap(cli, "write_history", "ingest.write_history", write_history_hook)
    wrap(cli, "read_history", "ingest.read_history", read_history_hook)
    # assess
    wrap(cli, "assess_project", "analysis.assess_project")
    wrap(analysis, "build_windows", "windowing.build_windows", windows_hook)
    wrap(analysis, "count_post_defects", "windowing.count_post_defects", defects_hook)
    wrap(analysis, "compute_all", "metrics.compute_all", vectors_hook)
    wrap(analysis, "belief_population", "analysis.belief_population", population_hook)
    wrap(analysis, "spearman", "stats.spearman")
    wrap(stats, "_permutation_p", "stats.permutation_p", permutation_hook)
    wrap(stats, "_t_approximation_p", "stats.t_approximation_p")
    for writer in (
        "write_populations_csv",
        "write_windows_csv",
        "write_exclusions_csv",
        "write_summary_csv",
    ):
        wrap(cli, writer, "analysis.write_csv")
    # report
    wrap(cli, "build_report", "reporting.build_report")
    for reader in ("read_windows_csv", "read_summary_csv", "read_populations_csv"):
        wrap(reporting, reader, "reporting.read_csv")
    wrap(analysis, "scott_knott", "stats.scott_knott")
    wrap(stats, "split_is_distinct", "stats.split_test", split_hook)
    wrap(reporting, "growth_decay", "analysis.growth_decay")
    wrap(cli, "write_report", "reporting.write_report")
    wrap(reporting, "render_report", "reporting.render")


def spearman_split(spans: list[Span]) -> dict[str, float]:
    """Calls and time of assess's per-window Spearman calls by p-value path:
    a call is exact when it enumerated permutations and approximate when it
    used the t distribution (constant inputs take neither path). The
    report's trend tests are timed within ``analysis.growth_decay``."""
    path_of: dict[int, str] = {}
    for _, name, _, _, parent in spans:
        if name == "stats.permutation_p":
            path_of[parent] = "exact"
        elif name == "stats.t_approximation_p":
            path_of[parent] = "approx"
    out = {
        "stats.spearman_exact_calls": 0.0,
        "stats.spearman_exact_s": 0.0,
        "stats.spearman_approx_calls": 0.0,
        "stats.spearman_approx_s": 0.0,
    }
    names = {span[0]: span[1] for span in spans}
    for span_id, name, start, end, parent in spans:
        path = path_of.get(span_id)
        if path is not None and names.get(parent) == "analysis.belief_population":
            out[f"stats.spearman_{path}_calls"] += 1
            out[f"stats.spearman_{path}_s"] += end - start
    return out


def layer_metrics(spans: list[Span], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline (all its stages' spans)."""
    total = durations(spans)
    own = self_times(spans)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "ingest.git_wait_s": total.get("ingest.git", 0.0),
        "ingest.git_calls": counters.get("ingest.git_calls", 0.0),
        "ingest.git_out_bytes": counters.get("ingest.git_out_bytes", 0.0),
        "ingest.parse_self_s": own.get("ingest.mine_repository", 0.0),
        "ingest.commits": counters.get("ingest.commits", 0.0),
        "ingest.records": counters.get("ingest.records", 0.0),
        "ingest.skipped_lines": counters.get("ingest.skipped_lines", 0.0),
        "ingest.write_history_s": total.get("ingest.write_history", 0.0),
        "ingest.bytes_written": counters.get("ingest.bytes_written", 0.0),
        "ingest.read_history_s": total.get("ingest.read_history", 0.0),
        "ingest.records_read": counters.get("ingest.records_read", 0.0),
        "ingest.bytes_read": counters.get("ingest.bytes_read", 0.0),
        "labeling.classify_calls": counters.get("labeling.classify_calls", 0.0),
        "labeling.classify_s": total.get("labeling.classify", 0.0),
        "labeling.fix_share": ratio(
            counters.get("labeling.fixes", 0.0), counters.get("labeling.classify_calls", 0.0)
        ),
        "windowing.build_windows_s": total.get("windowing.build_windows", 0.0),
        "windowing.windows": counters.get("windowing.windows", 0.0),
        "windowing.source_share": ratio(
            counters.get("windowing.window_records", 0.0),
            counters.get("windowing.input_records", 0.0),
        ),
        "windowing.count_post_defects_s": total.get("windowing.count_post_defects", 0.0),
        "windowing.records_scanned": counters.get("windowing.records_scanned", 0.0),
        "windowing.defect_touches": counters.get("windowing.defect_touches", 0.0),
        "metrics.compute_all_s": total.get("metrics.compute_all", 0.0),
        "metrics.vectors": counters.get("metrics.vectors", 0.0),
        "metrics.entities": counters.get("metrics.entities", 0.0),
        "stats.permutations": counters.get("stats.permutations", 0.0),
        "stats.scott_knott_calls": float(sum(s[1] == "stats.scott_knott" for s in spans)),
        "stats.scott_knott_s": total.get("stats.scott_knott", 0.0),
        "stats.split_tests": counters.get("stats.split_tests", 0.0),
        "analysis.assess_project_self_s": own.get("analysis.assess_project", 0.0),
        "analysis.belief_population_self_s": own.get("analysis.belief_population", 0.0),
        "analysis.significant_scores": counters.get("analysis.significant_scores", 0.0),
        "analysis.excluded_too_few": counters.get("analysis.excluded_too_few", 0.0),
        "analysis.excluded_not_significant": counters.get(
            "analysis.excluded_not_significant", 0.0
        ),
        "analysis.write_csv_s": total.get("analysis.write_csv", 0.0),
        "analysis.growth_decay_s": total.get("analysis.growth_decay", 0.0),
        "reporting.read_csv_s": total.get("reporting.read_csv", 0.0),
        "reporting.build_report_self_s": own.get("reporting.build_report", 0.0),
        "reporting.render_s": total.get("reporting.render", 0.0),
        "reporting.write_report_s": own.get("reporting.write_report", 0.0),
    }
    metrics.update(spearman_split(spans))
    return metrics
