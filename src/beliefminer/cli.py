"""Command-line entry point: mine -> assess -> report, plus synth.

Exit codes: 0 success, 1 usage or data error, 2 sanity-check rejection.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import logging
import sys
from pathlib import Path

from .analysis import (
    EXCLUDE_NOT_SIGNIFICANT,
    SummaryRow,
    assess_project,
    summary_row,
    write_exclusions_csv,
    write_populations_csv,
    write_summary_csv,
    write_windows_csv,
)
from .config import DEFAULTS, Config, ConfigError, ScenarioError, load_config
from .ingest import (
    CacheError,
    ChangeRecord,
    MiningResult,
    Release,
    RepositoryError,
    apply_sanity_checks,
    extract_releases,
    mine_repository,
    read_history,
    read_releases,
    summarize,
    utf8_lines,
    write_history,
    write_releases,
)
from .labeling import KeywordSet, load_keyword_file
from .reporting import build_report, write_report

# Everything imported so far lives until exit. Freezing it once, here rather
# than in main, keeps every later collection (and the one at interpreter exit)
# from scanning it again, without freezing the objects of in-process callers.
gc.freeze()

logger = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefminer",
        description=(
            "Mine a git repository and quantify per-release support for ten"
            " defect-prediction beliefs."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="flat key = value config file")
    subparsers = parser.add_subparsers(dest="command", required=True)

    mine = subparsers.add_parser(
        "mine", parents=[common], help="extract history and release caches from a repo"
    )
    mine.add_argument("repo", help="path to a local git repository")
    mine.add_argument("--out", required=True, metavar="DIR", help="cache output directory")
    mine.add_argument(
        "--force",
        action="store_true",
        help="write caches even when the history-size sanity checks fail",
    )
    mine.add_argument(
        "--all-commits",
        action="store_true",
        help="walk every commit instead of the first-parent chain",
    )
    mine.add_argument(
        "--follow-renames",
        action="store_true",
        help="record a renamed file under its post-rename path",
    )
    mine.add_argument(
        "--extend",
        action="store_true",
        help="append the configured keyword file to the default stems"
        " instead of replacing them",
    )
    mine.set_defaults(func=cmd_mine)

    assess = subparsers.add_parser(
        "assess", parents=[common], help="build belief populations from caches"
    )
    assess.add_argument(
        "caches",
        help="cache directory (one project, or one subdirectory per project)",
    )
    assess.add_argument("--out", required=True, metavar="DIR", help="assessment output directory")
    assess.set_defaults(func=cmd_assess)

    report = subparsers.add_parser(
        "report", parents=[common], help="render the report from an assessment"
    )
    report.add_argument("assessment", help="assessment directory (output of assess)")
    report.add_argument("--out", required=True, metavar="DIR", help="report output directory")
    report.add_argument("--seed", type=int, help="override the Scott-Knott bootstrap seed")
    report.add_argument(
        "--replication-mode",
        action="store_true",
        help="pin the size-bucket median cut to the published value (18)",
    )
    report.set_defaults(func=cmd_report)

    synth = subparsers.add_parser("synth", help="generate synthetic caches from a scenario file")
    synth.add_argument("scenario", help="flat key = value scenario file")
    synth.add_argument("--out", required=True, metavar="DIR", help="cache output directory")
    synth.set_defaults(func=cmd_synth)
    return parser


def _resolve_config(args: argparse.Namespace) -> Config:
    """The config file over the defaults, then the subcommand's own flags:
    --extend on mine, --seed and --replication-mode on report."""
    cfg = load_config(args.config) if args.config else DEFAULTS
    overrides: dict[str, object] = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "replication_mode", False):
        overrides["replication_mode"] = True
    if getattr(args, "extend", False):
        overrides["extend_keywords"] = True
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _resolve_keywords(cfg: Config) -> KeywordSet | None:
    if cfg.keyword_file is None:
        return None
    try:
        return load_keyword_file(cfg.keyword_file, extend=cfg.extend_keywords)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"keyword_file: {exc}") from exc


def cmd_mine(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    keywords = _resolve_keywords(cfg)
    result = mine_repository(
        args.repo,
        first_parent=not args.all_commits,
        follow_renames=args.follow_renames,
        keywords=keywords,
    )
    releases = extract_releases(args.repo)
    summary = summarize(result, releases)
    print(
        f"mined {summary.commits} commits ({len(result.records)} file records), "
        f"{summary.releases} releases, {summary.developers} developers"
    )
    violations = apply_sanity_checks(summary)
    if violations:
        print("sanity checks FAILED:")
        for violation in violations:
            print(f"  - {violation}")
        if not args.force:
            print("refusing to write caches; pass --force to override")
            return 2
        print("proceeding anyway (--force)")
    else:
        print("sanity checks passed")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_history(result.records, out_dir / "history.jsonl")
    write_releases(releases, out_dir / "releases.jsonl")
    payload = dataclasses.asdict(summary)
    with open(out_dir / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"caches written to {out_dir}")
    return 0


def _project_summary(
    project_id: str, project_dir: Path, records: list[ChangeRecord], releases: list[Release]
) -> SummaryRow:
    """Per-project totals from the mining-time summary.json; when it is
    absent (e.g. synthetic caches), from ingest.summarize over counts
    recomputed from the cached records, in which commits that touched no
    files are invisible. A summary.json that is not UTF-8 or not JSON, one
    missing any of the five fields, or one with a value that
    analysis.summary_row rejects, raises CacheError."""
    summary_json = project_dir / "summary.json"
    if summary_json.exists():
        try:
            payload = json.loads("".join(utf8_lines(summary_json)))
        except json.JSONDecodeError as exc:
            raise CacheError(summary_json, exc.lineno, f"invalid JSON: {exc.msg}") from exc
        except (ValueError, RecursionError) as exc:
            raise CacheError(summary_json, 1, f"invalid JSON: {exc}") from exc
    else:
        times = [r.commit_time for r in records]
        tally = MiningResult(
            records=records,
            commits_seen=len({r.commit_id for r in records}),
            bug_fix_commits=len({r.commit_id for r in records if r.is_bug_fix}),
            developers=len({r.author for r in records}),
            first_commit_time=min(times, default=None),
            last_commit_time=max(times, default=None),
            skipped_lines=0,
        )
        payload = dataclasses.asdict(summarize(tally, releases))
    try:
        return summary_row(
            project_id,
            commits=payload["commits"],
            bug_fix_fraction=payload["bug_fix_fraction"],
            releases=payload["releases"],
            developers=payload["developers"],
            active_years=payload["active_years"],
        )
    except KeyError as exc:
        raise CacheError(summary_json, 1, f"missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CacheError(summary_json, 1, f"bad field value: {exc}") from exc


def _discover_projects(cache_root: Path) -> list[tuple[str, Path]]:
    if (cache_root / "history.jsonl").exists():
        return [(cache_root.name or "project", cache_root)]
    projects = [
        (child.name, child)
        for child in sorted(cache_root.iterdir())
        if child.is_dir() and (child / "history.jsonl").exists()
    ]
    return projects


def cmd_assess(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    cache_root = Path(args.caches)
    if not cache_root.is_dir():
        print(f"error: cache directory not found: {cache_root}", file=sys.stderr)
        return 1
    projects = _discover_projects(cache_root)
    if not projects:
        print(f"error: no history.jsonl found under {cache_root}", file=sys.stderr)
        return 1
    for _, project_dir in projects:
        releases_path = project_dir / "releases.jsonl"
        if not releases_path.exists():
            print(f"error: missing releases cache: {releases_path}", file=sys.stderr)
            return 1
    all_populations = []
    all_window_rows = []
    summary_rows = []
    for project_id, project_dir in projects:
        records = read_history(project_dir / "history.jsonl")
        releases = read_releases(project_dir / "releases.jsonl")
        assessment = assess_project(project_id, records, releases, cfg)
        qualified = sum(1 for row in assessment.window_rows if row.qualified)
        if qualified == 0:
            print(f"{project_id}: no qualified windows (nothing to correlate)")
        significant = sum(
            len(p.scores) for p in assessment.populations.values()
        )
        print(
            f"{project_id}: {len(assessment.window_rows)} windows, "
            f"{qualified} qualified, {significant} significant scores"
        )
        all_populations.extend(
            assessment.populations[belief] for belief in sorted(assessment.populations)
        )
        all_window_rows.extend(assessment.window_rows)
        summary_rows.append(_project_summary(project_id, project_dir, records, releases))
    # an assessment that can correlate nothing is not a result
    if not any(row.qualified for row in all_window_rows):
        print(
            f"error: no project has a qualified window (min_files = {cfg.min_files})",
            file=sys.stderr,
        )
        return 1
    if not any(p.scores or p.exclusions[EXCLUDE_NOT_SIGNIFICANT] for p in all_populations):
        print(
            "error: no qualified window has enough observations to correlate "
            f"(min_observations = {cfg.min_observations})",
            file=sys.stderr,
        )
        return 1
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_populations_csv(all_populations, out_dir / "populations.csv")
    write_windows_csv(all_window_rows, out_dir / "windows.csv")
    write_exclusions_csv(all_populations, out_dir / "exclusions.csv")
    write_summary_csv(summary_rows, out_dir / "summary.csv")
    print(f"assessment written to {out_dir}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    # Scott-Knott's bootstrap stack, which only this stage uses: loaded here,
    # with the rest of the start-up, rather than inside the ranking.
    import hashlib  # noqa: F401
    import statistics  # noqa: F401

    import numpy.random  # noqa: F401

    cfg = _resolve_config(args)
    report = build_report(args.assessment, cfg)
    write_report(report, args.out, args.assessment)
    print(f"report written to {args.out}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    # Only synth needs the generator; the other stages skip loading it.
    from .synthgen import generate, parse_scenario_file

    spec = parse_scenario_file(args.scenario)
    records, releases = generate(spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # A mined summary.json would describe another history than these caches.
    (out_dir / "summary.json").unlink(missing_ok=True)
    write_history(records, out_dir / "history.jsonl")
    write_releases(releases, out_dir / "releases.jsonl")
    print(
        f"synthetic caches written to {out_dir} "
        f"({len(records)} records, {len(releases)} releases)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(
            stream=sys.stderr,
            level=logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help exits 0; this tool reserves 2 for sanity rejections
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (ConfigError, ScenarioError, CacheError, RepositoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
