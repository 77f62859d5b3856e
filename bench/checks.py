"""Output checks for each stage, against the generator's ground truth.

Every check returns a list of failure messages (empty when the stage's
output is right). The truth comes from ``truth.json`` next to the inputs; no
check compares against output of the code under test, except that the
report's copy of ``populations.csv`` must equal the assessment's.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path

# A planted belief counts as recovered when it is significant and positive
# in at least this share of a project's windows.
RECOVERED_SHARE = 0.8
# A rank correlation this close to 1 is 1 up to floating-point rounding.
EXACT_RHO = 1.0 - 1e-9


def _expect(failures: list[str], what: str, got, want) -> None:
    if got != want:
        failures.append(f"{what}: got {got!r}, expected {want!r}")


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_mine(out: Path, truth: dict) -> list[str]:
    failures: list[str] = []
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    for key in ("commits", "bug_fix_commits", "releases", "developers",
                "first_commit_time", "last_commit_time"):
        _expect(failures, f"summary.json {key}", summary.get(key), truth[key])
    _expect(failures, "summary.json bug_fix_fraction", summary.get("bug_fix_fraction"),
            truth["bug_fix_commits"] / truth["commits"])
    touches: Counter[str] = Counter()
    commits, authors = set(), set()
    fixes = 0
    with open(out / "history.jsonl", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            touches[record["file_path"]] += 1
            commits.add(record["commit_id"])
            authors.add(record["author"])
            fixes += bool(record["is_bug_fix"])
    _expect(failures, "history.jsonl records", sum(touches.values()), truth["records"])
    _expect(failures, "history.jsonl fix records", fixes, truth["fix_records"])
    _expect(failures, "history.jsonl commits", len(commits), truth["commits"])
    _expect(failures, "history.jsonl authors", len(authors), truth["developers"])
    _expect(failures, "history.jsonl touches per file", dict(touches), truth["touches"])
    with open(out / "releases.jsonl", encoding="utf-8") as fh:
        _expect(failures, "releases.jsonl releases", sum(1 for _ in fh), truth["releases"])
    return failures


def _projects(truth: dict) -> dict[str, dict]:
    """Per-project truth; git-history is one project named after its cache."""
    return truth.get("projects") or {"caches": truth}


def check_assess(out: Path, truth: dict) -> list[str]:
    failures: list[str] = []
    projects = _projects(truth)
    windows = _rows(out / "windows.csv")
    populations = _rows(out / "populations.csv")
    for project_id, facts in projects.items():
        rows = sorted(
            (r for r in windows if r["project"] == project_id),
            key=lambda r: int(r["release_ordinal"]),
        )
        _expect(failures, f"{project_id} windows", len(rows), facts["windows"])
        _expect(failures, f"{project_id} distinct files per window",
                [int(r["distinct_files"]) for r in rows], facts["distinct_files"])
        _expect(failures, f"{project_id} qualified windows",
                sum(r["qualified"] == "1" for r in rows), facts["qualified_windows"])
        planted = facts.get("planted_belief")
        scores = [r for r in populations if r["project"] == project_id]
        support = Counter(r["belief"] for r in scores if float(r["rho"]) > 0)
        needed = RECOVERED_SHARE * facts["windows"]
        if planted is not None and support[planted] < needed:
            failures.append(
                f"{project_id}: planted {planted} significant in {support[planted]}"
                f" of {facts['windows']} windows"
            )
        if facts.get("exact_rho"):
            exact = sum(1 for r in scores if r["belief"] == planted and float(r["rho"]) > EXACT_RHO)
            _expect(failures, f"{project_id} windows where {planted} has rho 1",
                    exact, facts["windows"])
        if "planted_belief" in facts and planted is None:
            recovered = sorted(b for b, n in support.items() if n >= needed)
            if recovered:
                failures.append(f"{project_id}: null project supports {recovered}")
    _expect(failures, "summary.csv projects",
            sorted(r["project"] for r in _rows(out / "summary.csv")), sorted(projects))
    return failures


def check_report(out: Path, assessment: Path, truth: dict) -> list[str]:
    failures: list[str] = []
    projects = sorted(_projects(truth))
    report = (out / "report.md").read_text(encoding="utf-8")
    if f"Projects analyzed: {len(projects)} ({', '.join(projects)})" not in report:
        failures.append("report.md does not list the analyzed projects")
    _expect(failures, "coverage.csv projects",
            [r["project"] for r in _rows(out / "coverage.csv")], projects)
    if (out / "populations.csv").read_bytes() != (assessment / "populations.csv").read_bytes():
        failures.append("report populations.csv differs from the assessment's")
    return failures


def output_hashes(outputs: dict[str, Path]) -> dict[str, str]:
    """sha256 of every file under each named stage output directory."""
    hashes = {}
    for stage, directory in outputs.items():
        for path in sorted(directory.rglob("*")):
            if path.is_file():
                key = f"{stage}/{path.relative_to(directory).as_posix()}"
                hashes[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes
