"""Git history extraction and cache file handling.

Mines file-level change records and release tags out of a local git
repository via the git CLI, summarizes the project, and reads/writes the
JSON-lines cache files that the rest of the pipeline consumes.
"""

from __future__ import annotations

import io
import json
import logging
import os
import re
import subprocess
import tempfile
from collections.abc import Iterator
from contextlib import closing
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path
from typing import NamedTuple, get_type_hints

from .config import DEFAULT_EXTENSIONS, SECONDS_PER_DAY
from .labeling import KeywordSet, classify_message

logger = logging.getLogger(__name__)

SANITY_MIN_COMMITS = 1000
SANITY_MIN_BUG_FIX_FRACTION = 0.10
SANITY_MIN_RELEASES = 5
SANITY_MIN_DEVELOPERS = 30
SANITY_MIN_ACTIVE_YEARS = 3.0

_SECONDS_PER_YEAR = 365.25 * SECONDS_PER_DAY

# Ends in a NUL, so the message may hold any other character.
_GIT_LOG_FORMAT = "%x01%H%x02%ct%x02%ae%x02%an%x02%B%x00"
# One `--numstat -z` entry (a commit's first one follows a newline); the
# path is empty for a rename, whose source and destination follow as the
# next two NUL-terminated fields.
_NUMSTAT_ENTRY = re.compile(r"\n?(\d+|-)\t(\d+|-)\t(.*)", re.DOTALL)
# Characters per read of the streamed `git log` output.
_LOG_READ_CHARS = 64 * 1024
# A byte that is not UTF-8, as the "surrogateescape" error handler reads it.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


class RepositoryError(Exception):
    """The path is not a usable git repository or git itself failed."""


class CacheError(Exception):
    """A cache file is malformed; carries the file path and 1-based line."""

    def __init__(self, path: str | Path, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason

    def __reduce__(self):
        # Exception pickles its args, the formatted message, which __init__
        # cannot take back; rebuild from the three fields instead.
        return (type(self), (self.path, self.line_no, self.reason))


def utf8_lines(path: str | Path, newline: str | None = None) -> Iterator[str]:
    """Yield the lines of a UTF-8 text file, as open() yields them in this
    newline mode, reading the file once.

    An undecodable byte is read as a lone surrogate, which valid UTF-8 never
    decodes to, so every line before it is yielded first and a consumer's
    error among them comes first. Then CacheError names the line that holds
    it, with the reason that decoding that line alone gives.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline=newline) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii() and _ESCAPED_BYTE.search(line):
                try:
                    line.encode("utf-8", "surrogateescape").rstrip(b"\r\n").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise CacheError(path, line_no, f"invalid UTF-8: {exc}") from exc
            yield line


class ChangeRecord(NamedTuple):
    """One file touched by one commit."""

    commit_id: str
    commit_time: int  # unix seconds, committer clock
    author: str
    file_path: str
    insertions: int
    deletions: int
    is_bug_fix: bool


@dataclass(frozen=True, slots=True)
class Release:
    """A release tag resolved to its tagged commit's committer time."""

    tag_name: str
    release_time: int
    ordinal: int  # 1-based position in time order


@dataclass(frozen=True)
class ProjectSummary:
    """Project-level totals used for sanity checks and reporting."""

    commits: int
    bug_fix_commits: int
    bug_fix_fraction: float
    releases: int
    developers: int
    active_years: float
    first_commit_time: int | None
    last_commit_time: int | None


@dataclass
class MiningResult:
    """Everything one history traversal produces."""

    records: list[ChangeRecord]
    commits_seen: int
    bug_fix_commits: int
    developers: int
    first_commit_time: int | None
    last_commit_time: int | None
    skipped_lines: int


def is_source_file(
    file_path: str, extensions: frozenset[str] = DEFAULT_EXTENSIONS
) -> bool:
    """True when the path has a recognized extension and no path segment
    contains "test" (case-insensitive)."""
    segments = [s for s in file_path.replace("\\", "/").split("/") if s]
    if not segments:
        return False
    if any("test" in segment.lower() for segment in segments):
        return False
    name = segments[-1]
    if "." not in name:
        return False
    ext = name.rsplit(".", 1)[1].lower()
    return ext in extensions


def _run_git(repo_path: str | Path, *args: str) -> str:
    """Run git to the end and return its whole output."""
    return "\0".join(_stream_git(repo_path, *args))


def _stream_git(repo_path: str | Path, *args: str) -> Iterator[str]:
    """Run git and yield its NUL-separated output fields while it still runs.

    The output is decoded in text mode but without newline translation, so
    a path reported by ``-z`` comes through verbatim. Every field but the
    last is yielded as soon as the NUL after it arrives; the last one only
    once git has exited with status 0, so a consumer never finishes on the
    output of a failed run. stderr goes to a temporary file, which cannot
    fill and stall git the way an unread pipe can. git is killed if the
    consumer stops early, and reaped on every path.

    git looks for the repository at repo_path itself and never above it: a
    plain directory inside a work tree is not a repository of its own.
    """
    ceilings = [str(Path(repo_path).resolve().parent)]
    if os.environ.get("GIT_CEILING_DIRECTORIES"):
        ceilings.append(os.environ["GIT_CEILING_DIRECTORIES"])
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.pathsep.join(ceilings))
    with tempfile.TemporaryFile() as stderr:
        try:
            proc = subprocess.Popen(
                ["git", "-C", str(repo_path), "-c", "core.quotepath=false", *args],
                stdout=subprocess.PIPE,
                stderr=stderr,
                env=env,
            )
        except OSError as exc:
            raise RepositoryError(f"cannot run git: {exc}") from exc
        with proc, io.TextIOWrapper(
            proc.stdout, encoding="utf-8", errors="replace", newline=""
        ) as text:
            pending: list[str] = []
            try:
                while block := text.read(_LOG_READ_CHARS):
                    fields = block.split("\0")
                    if len(fields) == 1:
                        pending.append(block)
                        continue
                    pending.append(fields[0])
                    yield "".join(pending)
                    yield from fields[1:-1]
                    pending = [fields[-1]]
            except BaseException:
                proc.kill()
                raise
        if proc.returncode != 0:
            stderr.seek(0)
            detail = stderr.read().decode("utf-8", errors="replace").strip().splitlines()
            raise RepositoryError(
                f"git {args[0]} failed in {repo_path}: {detail[0] if detail else proc.returncode}"
            )
    yield "".join(pending)


def mine_repository(
    repo_path: str | Path,
    first_parent: bool = True,
    follow_renames: bool = False,
    keywords: KeywordSet | None = None,
) -> MiningResult:
    """Traverse the repository history and return file-level change records.

    By default only the first-parent chain of HEAD is walked, so work merged
    from side branches is attributed to nothing (merge commits themselves
    carry no diff: merge churn is always excluded). With follow_renames, a
    renamed file is recorded under its post-rename path; otherwise it
    appears as one deletion plus one addition. Paths are recorded verbatim,
    whatever characters they contain.

    The log is parsed while git still produces it. An empty repository
    yields an empty result. Unparsable log entries are skipped and counted,
    never fatal. A failing git, as on a missing path or a non-repository,
    raises RepositoryError with the path and git's first error line.
    """
    args = [
        "log",
        "--numstat",
        "-z",
        "--diff-merges=off",
        "--no-renames" if not follow_renames else "-M",
        f"--pretty=format:{_GIT_LOG_FORMAT}",
    ]
    if first_parent:
        args.append("--first-parent")
    # an unborn HEAD (a repository without commits) lists nothing
    args += ["--ignore-missing", "HEAD"]

    records: list[ChangeRecord] = []
    # git log lists each commit once, so a path can repeat only within one
    # commit: the set holds the open commit's paths
    seen_paths: set[str] = set()
    commits = fixes = skipped = collided = 0
    authors: set[str] = set()
    first_time: int | None = None
    last_time: int | None = None
    commit_id: str | None = None  # None while no usable commit header is open

    # With -z every field ends in a NUL: a commit is its header, one field
    # per numstat entry and an empty field before the next header. Only a
    # header starts with \x01: an entry starts with a count or "-", and the
    # two paths of a rename are consumed where they are expected.
    with closing(_stream_git(repo_path, *args)) as fields:
        for field in fields:
            if not field:
                continue
            if field[0] == "\x01":
                commit_id = None
                seen_paths.clear()
                header = field[1:].split("\x02", 4)
                if len(header) != 5:
                    skipped += 1
                    continue
                raw_id, raw_time, email, name, message = header
                try:
                    commit_time = int(raw_time)
                except ValueError:
                    skipped += 1
                    continue
                commit_id = raw_id
                commits += 1
                author = (email.strip() or name.strip() or "unknown").lower()
                authors.add(author)
                first_time = commit_time if first_time is None else min(first_time, commit_time)
                last_time = commit_time if last_time is None else max(last_time, commit_time)
                is_fix, _ = classify_message(message, keywords)
                if is_fix:
                    fixes += 1
                continue
            match = _NUMSTAT_ENTRY.fullmatch(field)
            if match is None:
                skipped += 1
                continue
            raw_ins, raw_del, path = match.groups()
            if not path:
                next(fields, "")  # rename source
                path = next(fields, "")
            if commit_id is None or not path:
                continue
            # binary files report "-"; count them as zero-churn touches
            insertions = 0 if raw_ins == "-" else int(raw_ins)
            deletions = 0 if raw_del == "-" else int(raw_del)
            if path in seen_paths:
                collided += 1
                continue
            seen_paths.add(path)
            records.append(
                ChangeRecord(
                    commit_id=commit_id,
                    commit_time=commit_time,
                    author=author,
                    file_path=path,
                    insertions=insertions,
                    deletions=deletions,
                    is_bug_fix=is_fix,
                )
            )
    if skipped:
        logger.warning("skipped %d unparsable log entries in %s", skipped, repo_path)
    if collided:
        logger.warning(
            "dropped %d file touches in %s that repeat a (commit, path) pair: "
            "file names that are not valid UTF-8 decode to the same name when "
            "they differ only in their invalid bytes",
            collided,
            repo_path,
        )
    return MiningResult(
        records=records,
        commits_seen=commits,
        bug_fix_commits=fixes,
        developers=len(authors),
        first_commit_time=first_time,
        last_commit_time=last_time,
        skipped_lines=skipped,
    )


def extract_releases(repo_path: str | Path) -> list[Release]:
    """Return all tags as releases ordered by tagged-commit committer time.

    Annotated tags resolve to the commit they point at, not the tag object,
    so the tag's own creation date is irrelevant. Ties are broken by tag
    name so the ordering is a deterministic function of the tag set. A path
    that is not a repository raises RepositoryError from git itself.
    """
    out = _run_git(
        repo_path,
        "for-each-ref",
        "refs/tags",
        "--format=%(refname:short)%09%(*committerdate:unix)%09%(committerdate:unix)",
    )
    stamped: list[tuple[int, str]] = []
    for line in out.splitlines():
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            logger.warning("unparsable tag line skipped: %r", line)
            continue
        name, peeled, direct = parts
        raw = peeled.strip() or direct.strip()
        if not raw:
            logger.warning("tag %s does not resolve to a commit; skipped", name)
            continue
        try:
            stamped.append((int(raw), name))
        except ValueError:
            logger.warning("tag %s has no usable timestamp; skipped", name)
    stamped.sort()
    return [
        Release(tag_name=name, release_time=time, ordinal=i + 1)
        for i, (time, name) in enumerate(stamped)
    ]


def summarize(result: MiningResult, releases: list[Release]) -> ProjectSummary:
    """Fold a mining result and release list into project-level totals."""
    commits = result.commits_seen
    fraction = result.bug_fix_commits / commits if commits else 0.0
    if result.first_commit_time is None or result.last_commit_time is None:
        years = 0.0
    else:
        years = (result.last_commit_time - result.first_commit_time) / _SECONDS_PER_YEAR
    return ProjectSummary(
        commits=commits,
        bug_fix_commits=result.bug_fix_commits,
        bug_fix_fraction=fraction,
        releases=len(releases),
        developers=result.developers,
        active_years=years,
        first_commit_time=result.first_commit_time,
        last_commit_time=result.last_commit_time,
    )


def apply_sanity_checks(summary: ProjectSummary) -> list[str]:
    """Return one violation string per failed history-size rule (empty = sane)."""
    violations: list[str] = []
    if summary.commits < SANITY_MIN_COMMITS:
        violations.append(
            f"commits {summary.commits} < {SANITY_MIN_COMMITS}"
        )
    if summary.bug_fix_fraction < SANITY_MIN_BUG_FIX_FRACTION:
        violations.append(
            f"bug-fix fraction {summary.bug_fix_fraction:.3f} < {SANITY_MIN_BUG_FIX_FRACTION}"
        )
    if summary.releases < SANITY_MIN_RELEASES:
        violations.append(f"releases {summary.releases} < {SANITY_MIN_RELEASES}")
    if summary.developers < SANITY_MIN_DEVELOPERS:
        violations.append(f"developers {summary.developers} < {SANITY_MIN_DEVELOPERS}")
    if summary.active_years < SANITY_MIN_ACTIVE_YEARS:
        violations.append(
            f"active years {summary.active_years:.2f} < {SANITY_MIN_ACTIVE_YEARS}"
        )
    return violations


# The JSON type that each cache field's value must have, as ChangeRecord
# and Release declare it. json.loads gives exactly these types, so a bool
# is not an int.
_HISTORY_FIELDS = get_type_hints(ChangeRecord)
_RELEASE_FIELDS = get_type_hints(Release)
_TYPE_NAMES = {str: "a string", int: "an integer", bool: "a boolean"}

# The cache lines, each stated once. The writers fill them with every string
# spelt by encode_basestring, as JSONEncoder(ensure_ascii=False) spells it,
# and every bool as JSON's own word, indexed by the bool.
_HISTORY_LINE = (
    '{"commit_id": %s, "commit_time": %d, "author": %s, "file_path": %s, '
    '"insertions": %d, "deletions": %d, "is_bug_fix": %s}\n'
)
_RELEASE_LINE = '{"tag_name": %s, "release_time": %d, "ordinal": %d}\n'
_JSON_BOOL = ("false", "true")
# What the JSON encoder escapes: a quote, a backslash and every character
# below U+0020 (as a regex character class body).
_ESCAPED = r'"\\\x00-\x1f'
# The history line as a pattern, for lines whose strings hold no escape: the
# flag is the %s before the closing brace. Each group is the JSON value's
# own text, so it and int() of it equal what json.loads gives. Integers have
# at most 18 digits: a longer one takes json.loads, which reports one past
# int()'s digit limit.
_CANONICAL_HISTORY_LINE = re.compile(
    re.escape(_HISTORY_LINE[:-1])
    .replace(r"%s\}", r"(true|false)\}")
    .replace("%s", f'"([^{_ESCAPED}]*)"')
    .replace("%d", "(-?(?:0|[1-9][0-9]{0,17}))")
    + "\n?"
)


def write_history(records: list[ChangeRecord], path: str | Path) -> None:
    """Write change records as one canonical JSON line each, UTF-8, LF
    endings: for a record of str, int and bool fields, the bytes that the
    JSON encoder gives."""
    quote = encode_basestring
    flags = _JSON_BOOL
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write = fh.write
        for commit_id, commit_time, author, file_path, insertions, deletions, is_bug_fix in records:
            write(
                _HISTORY_LINE
                % (
                    quote(commit_id),
                    commit_time,
                    quote(author),
                    quote(file_path),
                    insertions,
                    deletions,
                    flags[is_bug_fix],
                )
            )


def _decode_fields(
    path: str | Path, line_no: int, line: str, fields: dict[str, type], kind: str
) -> list:
    """Parse one non-blank cache line with json.loads and return its values
    in `fields` order. The value must be an object whose keys are exactly
    `fields`, each holding a value of exactly its declared type. A JSON
    error comes before a key error, and that before the first type error."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CacheError(path, line_no, f"invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:  # nested deeper than the decoder's stack
        raise CacheError(path, line_no, f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # an integer longer than int() may convert
        raise CacheError(path, line_no, f"bad field value: {exc}") from exc
    if not isinstance(obj, dict) or obj.keys() != fields.keys():
        raise CacheError(path, line_no, f"unexpected {kind} record fields")
    for name, expected in fields.items():
        if type(obj[name]) is not expected:
            raise CacheError(
                path,
                line_no,
                f"bad field value: {name} = {obj[name]!r} is not {_TYPE_NAMES[expected]}",
            )
    return [obj[name] for name in fields]


def read_history(path: str | Path) -> list[ChangeRecord]:
    """Read a history cache line by line; equal commit ids, authors and
    paths share one string object, and a record whose commit time equals the
    previous record's shares that record's int, as a commit's records do.

    A canonical line is decoded by one pattern match. Any other non-blank
    line goes to json.loads, and each of its fields must already have its
    declared JSON type. The first bad line raises CacheError.
    """
    records: list[ChangeRecord] = []
    strings: dict[str, str] = {}
    share = strings.setdefault
    canonical = _CANONICAL_HISTORY_LINE.fullmatch
    new_record = tuple.__new__
    last_time = None
    for line_no, line in enumerate(utf8_lines(path), start=1):
        match = canonical(line)
        if match is not None:
            commit_id, commit_time, author, file_path, insertions, deletions, flag = (
                match.groups()
            )
            commit_time = int(commit_time)
            insertions = int(insertions)
            deletions = int(deletions)
            is_bug_fix = flag == "true"
        elif not line.strip():
            continue
        else:
            commit_id, commit_time, author, file_path, insertions, deletions, is_bug_fix = (
                _decode_fields(path, line_no, line, _HISTORY_FIELDS, "history")
            )
        if insertions < 0 or deletions < 0:
            raise CacheError(path, line_no, "negative churn")
        if commit_time == last_time:
            commit_time = last_time
        last_time = commit_time
        # tuple.__new__ skips the Python-level __new__ that ChangeRecord(...)
        # calls; the seven values are the fields in order.
        records.append(
            new_record(
                ChangeRecord,
                (
                    share(commit_id, commit_id),
                    commit_time,
                    share(author, author),
                    share(file_path, file_path),
                    insertions,
                    deletions,
                    is_bug_fix,
                ),
            )
        )
    return records


def write_releases(releases: list[Release], path: str | Path) -> None:
    """Write releases as one JSON line each, spelt as write_history spells
    its lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for release in releases:
            fh.write(
                _RELEASE_LINE
                % (encode_basestring(release.tag_name), release.release_time, release.ordinal)
            )


def read_releases(path: str | Path) -> list[Release]:
    """Read a releases cache. Field errors come first, in file order; then
    the first line whose ordinal is not its position, then the first line
    whose time is earlier than the line before."""
    numbered: list[tuple[int, Release]] = []
    for line_no, line in enumerate(utf8_lines(path), start=1):
        if not line.strip():
            continue
        release = Release(*_decode_fields(path, line_no, line, _RELEASE_FIELDS, "release"))
        numbered.append((line_no, release))
    releases = [release for _, release in numbered]
    for position, (line_no, release) in enumerate(numbered, start=1):
        if release.ordinal != position:
            raise CacheError(path, line_no, "release ordinals are not 1..N in order")
    for (_, earlier), (line_no, later) in zip(numbered, numbered[1:]):
        if later.release_time < earlier.release_time:
            raise CacheError(path, line_no, "release times are not sorted")
    return releases
