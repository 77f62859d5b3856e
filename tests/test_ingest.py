"""Tests for git history mining, release extraction, and cache files."""

import json
import logging
import pickle
import random
import signal
import subprocess

import pytest

from beliefminer import ingest
from beliefminer.ingest import (
    CacheError,
    ChangeRecord,
    Release,
    RepositoryError,
    apply_sanity_checks,
    extract_releases,
    is_source_file,
    mine_repository,
    read_history,
    read_releases,
    summarize,
    write_history,
    write_releases,
)
from beliefminer.labeling import KeywordSet

from fixture_repo import (
    ALL_COMMITS,
    DAY,
    FIRST_PARENT_COMMITS,
    FIRST_PARENT_FIXES,
    FIRST_PARENT_RECORDS,
    ODD_PATHS,
    RELEASE_DAYS,
    RENAME_LINES,
    T0,
    build_odd_paths_repo,
    build_rename_repo,
    build_two_commit_repo,
    build_undecodable_paths_repo,
    delete_loose_object,
)
from oracles import read_history_loop, write_history_json


def test_mine_first_parent_counts(fixture_repo):
    result = mine_repository(fixture_repo)
    assert result.commits_seen == FIRST_PARENT_COMMITS
    assert len(result.records) == FIRST_PARENT_RECORDS
    assert result.bug_fix_commits == FIRST_PARENT_FIXES
    assert result.developers == 3
    assert result.first_commit_time == T0
    assert result.last_commit_time == T0 + 330 * DAY
    assert result.skipped_lines == 0


def test_first_parent_skips_merge_and_side_branch(fixture_repo):
    records = mine_repository(fixture_repo).records
    paths = {r.file_path for r in records}
    authors = {r.author for r in records}
    assert "feature/extra.py" not in paths
    assert "dana@example.com" not in authors


def test_all_commits_walks_side_branch(fixture_repo):
    result = mine_repository(fixture_repo, first_parent=False)
    assert result.commits_seen == ALL_COMMITS
    side = [r for r in result.records if r.file_path == "feature/extra.py"]
    assert len(side) == 2
    assert all(r.author == "dana@example.com" for r in side)
    assert result.developers == 4
    # "resolve breakage in extra module" adds one more bug-fix commit
    assert result.bug_fix_commits == FIRST_PARENT_FIXES + 1
    # the merge commit itself never contributes change records
    per_commit = {r.commit_id for r in result.records}
    assert len(per_commit) <= ALL_COMMITS - 1


def test_binary_file_counts_zero_churn(fixture_repo):
    records = mine_repository(fixture_repo).records
    binary = [r for r in records if r.file_path == "assets/logo.bin"]
    assert len(binary) == 1
    assert binary[0].insertions == 0
    assert binary[0].deletions == 0
    assert binary[0].is_bug_fix is False


def test_record_fields_for_known_commit(fixture_repo):
    records = mine_repository(fixture_repo).records
    day12 = [r for r in records if r.commit_time == T0 + 12 * DAY]
    assert len(day12) == 1
    rec = day12[0]
    assert rec.file_path == "core/app.py"
    assert rec.insertions == 3
    assert rec.deletions == 1
    assert rec.is_bug_fix is True
    assert rec.author == "alice@example.com"


def test_custom_keywords_narrow_fix_set(fixture_repo):
    result = mine_repository(fixture_repo, keywords=KeywordSet(("fix",)))
    assert result.bug_fix_commits == 4


def test_release_times_and_ordinals(fixture_repo):
    releases = extract_releases(fixture_repo)
    assert [r.tag_name for r in releases] == ["v0.1", "v0.2", "v0.3", "v0.4", "v1.0"]
    assert [r.ordinal for r in releases] == [1, 2, 3, 4, 5]
    for release in releases:
        assert release.release_time == T0 + RELEASE_DAYS[release.tag_name] * DAY


def test_annotated_tags_resolve_to_commit_time(fixture_repo):
    # v1.0 was tagged ten days after its commit; the release time must be
    # the tagged commit's committer time, not the tag object's date.
    releases = {r.tag_name: r for r in extract_releases(fixture_repo)}
    assert releases["v1.0"].release_time == T0 + 230 * DAY
    assert releases["v0.4"].release_time == T0 + 130 * DAY


def test_summarize_matches_traversal(fixture_repo):
    result = mine_repository(fixture_repo)
    releases = extract_releases(fixture_repo)
    summary = summarize(result, releases)
    assert summary.commits == 20
    assert summary.bug_fix_commits == 9
    assert summary.bug_fix_fraction == pytest.approx(0.45)
    assert summary.releases == 5
    assert summary.developers == 3
    assert summary.active_years == pytest.approx(330 * DAY / (365.25 * 86400))
    assert summary.first_commit_time == T0
    assert summary.last_commit_time == T0 + 330 * DAY


def test_sanity_checks_name_failing_quantities(fixture_repo):
    summary = summarize(mine_repository(fixture_repo), extract_releases(fixture_repo))
    violations = apply_sanity_checks(summary)
    assert len(violations) == 3
    joined = "\n".join(violations)
    assert "commits 20 < 1000" in joined
    assert "developers 3 < 30" in joined
    assert "active years 0.90 < 3.0" in joined


def test_sanity_checks_pass_on_large_project():
    from beliefminer.ingest import ProjectSummary

    summary = ProjectSummary(
        commits=2304,
        bug_fix_commits=714,
        bug_fix_fraction=0.31,
        releases=60,
        developers=284,
        active_years=8.0,
        first_commit_time=0,
        last_commit_time=10**9,
    )
    assert apply_sanity_checks(summary) == []


def test_history_cache_round_trip(tmp_path, fixture_repo):
    records = mine_repository(fixture_repo).records
    path = tmp_path / "history.jsonl"
    write_history(records, path)
    assert read_history(path) == records


def test_releases_cache_round_trip(tmp_path, fixture_repo):
    releases = extract_releases(fixture_repo)
    path = tmp_path / "releases.jsonl"
    write_releases(releases, path)
    assert read_releases(path) == releases


def test_goldens_match_fresh_extraction(fixture_repo, data_dir):
    assert mine_repository(fixture_repo).records == read_history(
        data_dir / "fixture_history.jsonl"
    )
    assert extract_releases(fixture_repo) == read_releases(
        data_dir / "fixture_releases.jsonl"
    )


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_read_history_reports_bad_line(tmp_path):
    good = json.dumps(
        {
            "commit_id": "a" * 40,
            "commit_time": 100,
            "author": "a@b",
            "file_path": "x.py",
            "insertions": 1,
            "deletions": 0,
            "is_bug_fix": False,
        }
    )
    path = tmp_path / "history.jsonl"
    _write_lines(path, [good, "{not json"])
    with pytest.raises(CacheError) as excinfo:
        read_history(path)
    assert excinfo.value.line_no == 2
    assert str(path) in str(excinfo.value)


def test_cache_error_survives_pickling(tmp_path):
    original = CacheError(tmp_path / "history.jsonl", 3, "bad field value")
    error = pickle.loads(pickle.dumps(original))
    assert type(error) is CacheError
    assert str(error) == str(original) == f"{tmp_path / 'history.jsonl'}:3: bad field value"
    assert (error.path, error.line_no, error.reason) == (
        str(tmp_path / "history.jsonl"),
        3,
        "bad field value",
    )


def test_read_history_rejects_negative_churn(tmp_path):
    bad = json.dumps(
        {
            "commit_id": "a" * 40,
            "commit_time": 100,
            "author": "a@b",
            "file_path": "x.py",
            "insertions": -1,
            "deletions": 0,
            "is_bug_fix": False,
        }
    )
    path = tmp_path / "history.jsonl"
    _write_lines(path, [bad])
    with pytest.raises(CacheError) as excinfo:
        read_history(path)
    assert excinfo.value.line_no == 1


def test_read_history_rejects_missing_field(tmp_path):
    bad = json.dumps({"commit_id": "a" * 40, "commit_time": 100})
    path = tmp_path / "history.jsonl"
    _write_lines(path, [bad])
    with pytest.raises(CacheError):
        read_history(path)


def test_read_releases_rejects_bad_ordinals(tmp_path):
    path = tmp_path / "releases.jsonl"
    _write_lines(
        path,
        [
            json.dumps({"tag_name": "v1", "release_time": 100, "ordinal": 1}),
            json.dumps({"tag_name": "v2", "release_time": 200, "ordinal": 3}),
        ],
    )
    with pytest.raises(CacheError) as excinfo:
        read_releases(path)
    assert excinfo.value.line_no == 2


def test_read_releases_rejects_unsorted_times(tmp_path):
    path = tmp_path / "releases.jsonl"
    _write_lines(
        path,
        [
            json.dumps({"tag_name": "v1", "release_time": 200, "ordinal": 1}),
            json.dumps({"tag_name": "v2", "release_time": 100, "ordinal": 2}),
        ],
    )
    with pytest.raises(CacheError):
        read_releases(path)


@pytest.mark.parametrize(
    "path,expected",
    [
        ("core/app.py", True),
        ("web/ui.ts", True),
        ("docs/guide.js", True),
        ("deep/nested/dir/mod.cc", True),
        ("Makefile", False),  # no extension
        ("README.md", False),  # extension not in the source set
        ("assets/logo.bin", False),
        ("tests/test_app.py", False),  # test directory
        ("src/TestUtils.java", False),  # test in file name, any case
        ("attest/notary.py", False),  # embedded substring still excludes
        ("core/app.PY", True),  # extension check is case-insensitive
        ("", False),
    ],
)
def test_is_source_file(path, expected):
    assert is_source_file(path) is expected


def test_is_source_file_custom_extensions():
    assert is_source_file("a.md", frozenset({"md"})) is True
    assert is_source_file("a.py", frozenset({"md"})) is False


def test_mine_rejects_missing_repo(tmp_path):
    for path in (tmp_path / "nowhere", tmp_path):  # tmp_path is not a repository
        with pytest.raises(RepositoryError, match="git log failed in ") as excinfo:
            mine_repository(path)
        assert str(path) in str(excinfo.value)


def test_extract_releases_rejects_non_repository(tmp_path):
    plain = tmp_path / "plain"
    plain.mkdir()
    for path in (plain, tmp_path / "nowhere"):
        with pytest.raises(RepositoryError, match="git for-each-ref failed in ") as excinfo:
            extract_releases(path)
        assert str(path) in str(excinfo.value)


def test_mine_empty_repo(tmp_path):
    repo = tmp_path / "empty"
    repo.mkdir()
    subprocess.run(
        ["git", "-C", str(repo), "init", "-q"], check=True, capture_output=True
    )
    result = mine_repository(repo)
    assert result.records == []
    assert result.commits_seen == 0
    assert result.first_commit_time is None
    assert extract_releases(repo) == []


def test_change_record_and_release_are_value_types():
    rec = ChangeRecord("c" * 40, 1, "a@b", "x.py", 1, 2, True)
    assert rec == ChangeRecord("c" * 40, 1, "a@b", "x.py", 1, 2, True)
    assert rec == ChangeRecord(
        commit_id="c" * 40,
        commit_time=1,
        author="a@b",
        file_path="x.py",
        insertions=1,
        deletions=2,
        is_bug_fix=True,
    )
    assert hash(rec) == hash(ChangeRecord("c" * 40, 1, "a@b", "x.py", 1, 2, True))
    with pytest.raises(AttributeError):
        rec.insertions = 5
    rel = Release("v1", 10, 1)
    assert rel == Release("v1", 10, 1)


@pytest.mark.parametrize("follow_renames", [False, True])
def test_odd_paths_recorded_verbatim(tmp_path, follow_renames):
    repo = tmp_path / "odd"
    build_odd_paths_repo(repo)
    result = mine_repository(repo, follow_renames=follow_renames)
    assert result.commits_seen == 2
    assert result.skipped_lines == 0
    first = next(iter(ODD_PATHS))
    churn = sorted((r.file_path, r.insertions, r.is_bug_fix) for r in result.records)
    assert churn == sorted(
        [(path, count, False) for path, count in ODD_PATHS.items()] + [(first, 1, True)]
    )
    assert all(is_source_file(path) for path in ODD_PATHS)
    cache = tmp_path / "history.jsonl"
    write_history(result.records, cache)
    assert read_history(cache) == result.records


def test_follow_renames_records_destination(tmp_path):
    repo = tmp_path / "renames"
    build_rename_repo(repo)
    moved = mine_repository(repo, follow_renames=True)
    latest = moved.records[0].commit_id
    assert moved.skipped_lines == 0
    assert sorted(
        (r.file_path, r.insertions, r.deletions)
        for r in moved.records
        if r.commit_id == latest
    ) == [("lib/kept.py", 0, 0), ("pkg/new/mod.py", 2, 0)]
    # without rename detection a move is a deletion plus an addition
    split = mine_repository(repo)
    assert sorted(
        (r.file_path, r.insertions, r.deletions)
        for r in split.records
        if r.commit_id == latest
    ) == [
        ("lib/keep.py", 0, RENAME_LINES),
        ("lib/kept.py", RENAME_LINES, 0),
        ("pkg/new/mod.py", RENAME_LINES + 2, 0),
        ("pkg/old/mod.py", 0, RENAME_LINES),
    ]


@pytest.mark.parametrize("missing", [0, 1], ids=["oldest-blob", "newest-blob"])
def test_mine_raises_when_git_log_dies(tmp_path, missing):
    repo = tmp_path / "broken"
    blobs = build_two_commit_repo(repo, ("add first", "add second"))
    delete_loose_object(repo, blobs[missing])
    with pytest.raises(RepositoryError, match="git log failed"):
        mine_repository(repo)


def test_stream_stopped_early_kills_and_reaps_git(tmp_path, monkeypatch):
    repo = tmp_path / "long"
    build_two_commit_repo(repo, ("x" * 70000, "add second"))
    started = []
    real_popen = subprocess.Popen

    def spy(*args, **kwargs):
        started.append(real_popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(ingest.subprocess, "Popen", spy)
    # over a megabyte of output after the first field: git is still writing
    # into the full pipe when the consumer stops
    fields = ingest._stream_git(repo, "log", "--format=%H%x00" + "%B" * 20)
    assert len(next(fields)) == 40
    fields.close()
    (proc,) = started
    assert proc.returncode == -signal.SIGKILL
    assert proc.stdout.closed


@pytest.mark.parametrize(
    "message",
    [
        # more characters than one read of the streamed log, multi-byte ones
        # straddling the reads, and the only fix keyword at the very end
        "ü€ word " * 9000 + "fix",
        # the log format's own separators inside the message
        "update parser \x01 \x02 \x03 \x1b[0m then fix",
    ],
    ids=["longer-than-a-read", "control-characters"],
)
def test_mine_message_is_one_commit(tmp_path, message):
    repo = tmp_path / "messages"
    build_two_commit_repo(repo, (message, "add second"))
    result = mine_repository(repo)
    assert result.commits_seen == 2
    assert result.bug_fix_commits == 1
    assert result.skipped_lines == 0
    assert {(r.file_path, r.is_bug_fix) for r in result.records} == {
        ("first.py", True),
        ("second.py", False),
    }


def test_undecodable_path_collision_is_counted(tmp_path, caplog):
    repo = tmp_path / "repo"
    build_undecodable_paths_repo(repo)
    with caplog.at_level(logging.WARNING, logger="beliefminer.ingest"):
        result = mine_repository(repo)
    assert [r.file_path for r in result.records] == ["caf\ufffd.py"]
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "dropped 1 file touches" in warnings[0]
    assert "not valid UTF-8" in warnings[0]


_ABSENT = object()


def _row(**changes):
    row = {
        "commit_id": "c" * 40,
        "commit_time": 100,
        "author": "a@b",
        "file_path": "src/x.py",
        "insertions": 1,
        "deletions": 2,
        "is_bug_fix": True,
    }
    row.update(changes)
    return json.dumps({k: v for k, v in row.items() if v is not _ABSENT})


_GOOD = _row()
_ODD_PATH_ROWS = [
    _row(file_path=path, commit_id=f"{i:040x}", author=author)
    for i, (path, author) in enumerate(
        [
            *((path, "a@b") for path in ODD_PATHS),
            ("src/日本語/モジュール.py", "名前@example.com"),
            ("src/line sep\x85next\x1cfs.py", "ü@b"),
            ("src/emoji\U0001f600.py", "a@b"),
            ("src/a\\u0000b.py", "a@b"),
        ]
    )
]


def _unescaped(line):
    """The same row with every character the JSON encoder need not escape
    written as itself."""
    return json.dumps(json.loads(line), ensure_ascii=False)


# More digits than int() converts from text by default.
_HUGE = "9" * 5000
# Nested deeper than the JSON decoder's recursion limit.
_DEEP = "[" * 100_000


def _cache_bytes(lines, end="\n"):
    return end.join(lines).encode("utf-8") + end.encode()


# Each case is the bytes of one history cache. The current reader must give
# exactly what the one-json.loads-per-line reference gives: the same records,
# or the same error at the same line for the same reason.
_READER_CASES = {
    "odd-and-non-ascii-paths": _cache_bytes(_ODD_PATH_ROWS),
    "odd-paths-unescaped": _cache_bytes([_unescaped(line) for line in _ODD_PATH_ROWS]),
    "empty-file": b"",
    "bom": b"\xef\xbb\xbf" + _cache_bytes([_GOOD]),
    "leading-spaces": _cache_bytes([_GOOD, "   " + _GOOD, "\t" + _GOOD]),
    "trailing-spaces": _cache_bytes([_GOOD + "  ", _GOOD + "\t"]),
    "trailing-garbage": _cache_bytes([_GOOD, _GOOD + " x"]),
    "two-objects-one-line": _cache_bytes([_GOOD, _GOOD + _GOOD]),
    "two-objects-with-space": _cache_bytes([_GOOD + " " + _GOOD]),
    "nan-line": _cache_bytes([_GOOD, "NaN"]),
    "json-array": _cache_bytes([_GOOD, "[1, 2, 3]"]),
    "json-string": _cache_bytes(['"text"']),
    "truncated-object": _cache_bytes([_GOOD, _GOOD[:-5]]),
    "invalid-escape": _cache_bytes([_GOOD.replace("src/x.py", "src/\\qx.py")]),
    "raw-control-character": _cache_bytes([_GOOD.replace("src/x.py", "src/\tx.py")]),
    "missing-key": _cache_bytes([_GOOD, _row(author=_ABSENT)]),
    "extra-key": _cache_bytes([_GOOD, _GOOD[:-1] + ', "extra": 1}']),
    "duplicate-key": _cache_bytes([_GOOD[:-1] + ', "author": "z@y"}']),
    "string-count": _cache_bytes([_row(insertions="3")]),
    "non-numeric-string-count": _cache_bytes([_row(insertions="three")]),
    "float-time": _cache_bytes([_row(commit_time=1.5)]),
    "nan-time": _cache_bytes([_row(commit_time=float("nan"))]),
    "infinity-count": _cache_bytes([_GOOD, _row(insertions=float("inf"))]),
    "minus-infinity-time": _cache_bytes([_row(commit_time=float("-inf")), _GOOD]),
    "null-fields": _cache_bytes([_row(file_path=None, is_bug_fix=None)]),
    "list-count": _cache_bytes([_row(deletions=[1])]),
    "string-flag": _cache_bytes([_row(is_bug_fix="no")]),
    "string-false-flag": _cache_bytes([_GOOD, _row(is_bug_fix="false")]),
    "zero-flag": _cache_bytes([_row(is_bug_fix=0)]),
    "true-count": _cache_bytes([_GOOD, _row(insertions=True)]),
    "negative-insertions": _cache_bytes([_GOOD, _row(insertions=-1)]),
    "negative-deletions": _cache_bytes([_row(deletions=-2)]),
    "field-error-before-json-error": _cache_bytes([_row(insertions=-1), "{oops"]),
    "json-error-before-field-error": _cache_bytes(["{oops", _row(insertions=-1)]),
    "crlf": _cache_bytes([_GOOD, _row(commit_time=200)], end="\r\n"),
    "lone-cr": _cache_bytes([_GOOD, _row(commit_time=200)], end="\r"),
    "no-final-newline": _cache_bytes([_GOOD, _row(commit_time=200)])[:-1],
    "whitespace-only-lines": _cache_bytes(
        ["", _GOOD, "   ", "\t", "\x0c", " ", " ", _row(commit_time=200), ""]
    ),
    "invalid-utf8": _cache_bytes([_GOOD]) + b'{"commit_id": "\xff"}\n',
    "invalid-utf8-after-lone-cr": _cache_bytes([_GOOD, _GOOD], end="\r") + b'"\xff"\r',
    "truncated-utf8-before-newline": _cache_bytes([_GOOD, _GOOD]) + b'"\xc3\n',
    "json-error-before-invalid-utf8": _cache_bytes(["{oops"]) + b'"\xff"\n',
    "field-error-before-invalid-utf8": _cache_bytes([_GOOD, "", _row(insertions=-1)]) + b"\xff\n",
    "json-error-before-invalid-utf8-crlf": _cache_bytes([_GOOD, "{oops"], end="\r\n") + b"\xff",
    "json-error-before-invalid-utf8-lone-cr": _cache_bytes([_GOOD, "{oops"], end="\r") + b"\xff",
    "json-error-after-invalid-utf8": _cache_bytes([_GOOD]) + b'"\xff"\n' + _cache_bytes(["{oops"]),
    "json-error-chunks-before-invalid-utf8": _cache_bytes(["{oops"] + [_GOOD] * 200) + b"\xff\n",
    # The edge of the one-pattern path: a string with an escape, an integer
    # of 19 digits or any other spelling must take json.loads and agree.
    **{
        f"escaped-{name}-in-{field}": _cache_bytes([_GOOD, _row(**{field: f"a{char}b"})])
        for name, char in [("quote", '"'), ("backslash", "\\"), ("newline", "\n"), ("nul", "\0")]
        for field in ("commit_id", "author", "file_path")
    },
    "raw-del": _cache_bytes([_unescaped(_row(file_path="src/\x7f.py"))]),
    "raw-e-acute": _cache_bytes([_unescaped(_row(author="é@b", file_path="src/é.py"))]),
    "raw-non-bmp": _cache_bytes([_unescaped(_row(commit_id="\U0001f600" * 40))]),
    "count-18-digits": _cache_bytes([_row(insertions=10**18 - 1, deletions=10**17)]),
    "count-19-digits": _cache_bytes([_GOOD, _row(insertions=10**18, deletions=2**63)]),
    "time-19-digits": _cache_bytes([_row(commit_time=-(10**18))]),
    "minus-zero-count": _cache_bytes([_GOOD.replace('"deletions": 2', '"deletions": -0')]),
    "negative-time": _cache_bytes([_row(commit_time=-86400), _GOOD]),
    "leading-zero-count": _cache_bytes([_GOOD, _GOOD.replace('"deletions": 2', '"deletions": 02')]),
    "float-count": _cache_bytes([_row(insertions=1.0)]),
    "exponent-count": _cache_bytes([_GOOD.replace('"deletions": 2', '"deletions": 1e3')]),
    "python-true": _cache_bytes([_GOOD, _GOOD.replace("true", "True")]),
    "reordered-keys": _cache_bytes([json.dumps(dict(reversed(json.loads(_GOOD).items())))]),
    "no-space-after-colon": _cache_bytes([_GOOD, _GOOD.replace('": 1', '":1')]),
    "compact-separators": _cache_bytes([json.dumps(json.loads(_GOOD), separators=(",", ":"))]),
    "crlf-escaped": _cache_bytes([_GOOD, _row(author='a"b')], end="\r\n"),
    "no-final-newline-escaped": _cache_bytes([_GOOD, _row(file_path="a\\b.py")])[:-1],
    "huge-integer": _cache_bytes([_GOOD, _GOOD.replace('"insertions": 1', f'"insertions": {_HUGE}')]),
    "deep-nesting": _cache_bytes([_GOOD, _DEEP]),
}


def _reader_outcome(reader, path):
    try:
        return "records", reader(path)
    except CacheError as exc:
        return "CacheError", (exc.path, exc.line_no, exc.reason)
    except Exception as exc:  # the reference's other failures must match too
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("case", sorted(_READER_CASES))
def test_read_history_equals_loop_reference(tmp_path, case):
    path = tmp_path / "history.jsonl"
    path.write_bytes(_READER_CASES[case])
    assert _reader_outcome(read_history, path) == _reader_outcome(read_history_loop, path)


@pytest.mark.parametrize("field", ["commit_time", "insertions", "deletions"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf")])
def test_read_history_infinite_field_is_cache_error(tmp_path, field, value):
    path = tmp_path / "history.jsonl"
    path.write_bytes(_cache_bytes([_GOOD, _row(**{field: value})]))
    with pytest.raises(CacheError) as excinfo:
        read_history(path)
    assert excinfo.value.line_no == 2
    assert excinfo.value.reason.startswith("bad field value")


@pytest.mark.parametrize("field", ["commit_time", "insertions", "deletions"])
def test_read_history_huge_integer_is_cache_error(tmp_path, field):
    path = tmp_path / "history.jsonl"
    line = _row(**{field: 7}).replace(f'"{field}": 7', f'"{field}": {_HUGE}')
    path.write_bytes(_cache_bytes([_GOOD, line]))
    with pytest.raises(CacheError) as excinfo:
        read_history(path)
    assert excinfo.value.line_no == 2
    assert excinfo.value.reason.startswith("bad field value: Exceeds the limit")


# A line off the canonical pattern must hold each field with its JSON type:
# json.loads gives "false" as a string and 5.9 as a float, never a flag or
# an integer.
@pytest.mark.parametrize(
    "changes, reason",
    [
        ({"is_bug_fix": "false"}, "is_bug_fix = 'false' is not a boolean"),
        ({"is_bug_fix": 0}, "is_bug_fix = 0 is not a boolean"),
        ({"is_bug_fix": None}, "is_bug_fix = None is not a boolean"),
        ({"file_path": None}, "file_path = None is not a string"),
        ({"commit_time": 5.9}, "commit_time = 5.9 is not an integer"),
        ({"insertions": "3"}, "insertions = '3' is not an integer"),
        ({"deletions": True}, "deletions = True is not an integer"),
        ({"commit_id": 7, "insertions": "3"}, "commit_id = 7 is not a string"),
    ],
    ids=["string-flag", "zero-flag", "null-flag", "null-path", "float-time", "string-count",
         "true-count", "first-field-first"],
)
def test_read_history_takes_json_types_as_they_are(tmp_path, changes, reason):
    path = tmp_path / "history.jsonl"
    path.write_bytes(_cache_bytes([_GOOD, _row(**changes)]))
    with pytest.raises(CacheError) as excinfo:
        read_history(path)
    assert (excinfo.value.line_no, excinfo.value.reason) == (2, f"bad field value: {reason}")


# Every character the JSON encoder escapes, then some it writes as they are.
_ESCAPED = '"\\' + "".join(map(chr, range(0x20)))
_WRITER_SPECIALS = [*_ESCAPED, "\x7f", "\u2028", "é", "\U0001f600", " => "]
_WRITER_INTS = [0, 1, 10**17, 10**18, 2**63]


def _random_string(rng):
    plain = rng.random() < 0.6
    return "".join(
        rng.choice("abz/._-") if plain or rng.random() < 0.5 else rng.choice(_WRITER_SPECIALS)
        for _ in range(rng.randrange(0, 8))
    )


def _random_count(rng):
    return rng.choice(_WRITER_INTS) if rng.random() < 0.3 else rng.randrange(0, 500)


def test_write_history_equals_json_writer(tmp_path):
    rng = random.Random(20240607)
    records = [
        ChangeRecord(
            commit_id=_random_string(rng),
            commit_time=(
                rng.choice([-1, -(2**40), -(10**18)]) if rng.random() < 0.2 else _random_count(rng)
            ),
            author=_random_string(rng),
            file_path=_random_string(rng),
            insertions=_random_count(rng),
            deletions=_random_count(rng),
            is_bug_fix=rng.random() < 0.5,
        )
        for _ in range(2500)
    ]
    path = tmp_path / "history.jsonl"
    reference = tmp_path / "reference.jsonl"
    write_history(records, path)
    write_history_json(records, reference)
    assert path.read_bytes() == reference.read_bytes()
    read = read_history(path)
    assert read == records
    assert [tuple(map(type, r)) for r in read] == [tuple(map(type, r)) for r in records]
    # A line is canonical exactly when its strings need no escape and its
    # integers have at most 18 digits; both kinds must be well represented.
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    canonical = [ingest._CANONICAL_HISTORY_LINE.fullmatch(line) is not None for line in lines]
    expected = [
        not any(c in _ESCAPED for c in r.commit_id + r.author + r.file_path)
        and all(abs(n) < 10**18 for n in (r.commit_time, r.insertions, r.deletions))
        for r in records
    ]
    assert canonical == expected
    assert 0.2 < sum(canonical) / len(canonical) < 0.8


class _Text(str):
    def __str__(self):
        return "not the encoded text"


# No producer makes a record of other field types; a str subclass is still
# spelt by its text, as the encoder spells it.
@pytest.mark.parametrize(
    "record", [ChangeRecord(_Text("c"), 1, "a", "x.py", 1, 2, True)], ids=["str-subclass"]
)
def test_write_history_other_field_types_equal_json_writer(tmp_path, record):
    write_history([record], tmp_path / "history.jsonl")
    write_history_json([record], tmp_path / "reference.jsonl")
    assert (tmp_path / "history.jsonl").read_bytes() == (tmp_path / "reference.jsonl").read_bytes()


def test_write_releases_equals_json_writer(tmp_path):
    names = ['v"1', "v\\1", "a\nb", "\0", "\x7f", "\u2028", "é", "\U0001f600"]
    releases = [Release(name, 100 * i, i) for i, name in enumerate(names, start=1)]
    path = tmp_path / "releases.jsonl"
    write_releases(releases, path)
    encode = json.JSONEncoder(ensure_ascii=False).encode
    expected = "".join(
        encode({"tag_name": r.tag_name, "release_time": r.release_time, "ordinal": r.ordinal})
        + "\n"
        for r in releases
    )
    assert path.read_bytes() == expected.encode("utf-8")
    assert read_releases(path) == releases


def test_read_history_equals_loop_reference_on_fixture_cache(data_dir):
    path = data_dir / "fixture_history.jsonl"
    records = read_history(path)
    assert records == read_history_loop(path)
    assert len(records) == FIRST_PARENT_RECORDS


def test_read_history_shares_equal_strings(data_dir):
    records = read_history(data_dir / "fixture_history.jsonl")
    for attr in ("commit_id", "author", "file_path"):
        first = {}
        for record in records:
            value = getattr(record, attr)
            assert first.setdefault(value, value) is value


def test_read_history_shares_each_commit_time(tmp_path, data_dir):
    records = read_history(data_dir / "fixture_history.jsonl")
    times: dict[str, int] = {}
    for record in records:
        assert times.setdefault(record.commit_id, record.commit_time) is record.commit_time
    assert len(times) < len(records)

    # a commit whose records are not consecutive, two commits in the same
    # second, and a line that is not in the canonical spelling
    second = 1_700_000_000
    written = [
        ChangeRecord("c1", second, "a", "x.py", 1, 0, False),
        ChangeRecord("c1", second, "a", "y.py", 2, 0, False),
        ChangeRecord("c2", second, "b", "x.py", 3, 0, True),
        ChangeRecord("c1", second, "a", "z.py", 4, 0, False),
        ChangeRecord("c3", second + 1, "b", "x.py", 5, 0, False),
        ChangeRecord("c3", second + 1, "b", "y.py", 6, 0, False),
    ]
    path = tmp_path / "history.jsonl"
    write_history(written, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[5] = json.dumps(written[5]._asdict(), indent=1).replace("\n", "") + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    read = read_history(path)
    assert read == written
    assert read[4].commit_time is read[5].commit_time


@pytest.mark.parametrize(
    "line, reason",
    [
        ("{oops", "invalid JSON: Expecting property name enclosed in double quotes"),
        ('{"tag_name": "v1", "release_time": 1}', "unexpected release record fields"),
        ('{"tag_name": "v1", "release_time": "x", "ordinal": 1}', "bad field value"),
        pytest.param(
            f'{{"tag_name": "v2", "release_time": {_HUGE}, "ordinal": 2}}',
            "bad field value: Exceeds the limit",
            id="huge-integer",
        ),
        pytest.param(_DEEP, "invalid JSON: maximum recursion depth exceeded", id="deep-nesting"),
        pytest.param(
            '{"tag_name": "v2", "release_time": 200, "ordinal": true}',
            "bad field value: ordinal = True is not an integer",
            id="true-ordinal",
        ),
        pytest.param(
            '{"tag_name": "v2", "release_time": 200.9, "ordinal": 2}',
            "bad field value: release_time = 200.9 is not an integer",
            id="float-time",
        ),
        pytest.param(
            '{"tag_name": null, "release_time": 100.9, "ordinal": true}',
            "bad field value: tag_name = None is not a string",
            id="null-tag-first",
        ),
    ],
)
def test_read_releases_reports_first_bad_line(tmp_path, line, reason):
    path = tmp_path / "releases.jsonl"
    good = json.dumps({"tag_name": "v1", "release_time": 100, "ordinal": 1})
    path.write_text(f"{good}\n\n{line}\n", encoding="utf-8")
    with pytest.raises(CacheError) as excinfo:
        read_releases(path)
    assert excinfo.value.line_no == 3
    assert excinfo.value.reason.startswith(reason)


def _release_line(ordinal, time):
    return json.dumps({"tag_name": f"v{ordinal}", "release_time": time, "ordinal": ordinal})


@pytest.mark.parametrize("field", ["release_time", "ordinal"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf")])
def test_read_releases_infinite_field_is_cache_error(tmp_path, field, value):
    path = tmp_path / "releases.jsonl"
    row = {"tag_name": "v2", "release_time": 200, "ordinal": 2, field: value}
    path.write_text(f"{_release_line(1, 100)}\n{json.dumps(row)}\n", encoding="utf-8")
    with pytest.raises(CacheError) as excinfo:
        read_releases(path)
    assert excinfo.value.line_no == 2
    assert excinfo.value.reason.startswith("bad field value")


# Each case: the cache's lines (None is a blank line), the line the error
# must name, and its reason.
@pytest.mark.parametrize(
    "lines, line_no, reason",
    [
        (
            [_release_line(o, 100 * o) for o in (1, 3, 2, 4)],
            2,
            "release ordinals are not 1..N in order",
        ),
        (
            [
                _release_line(1, 100),
                None,
                _release_line(3, 300),
                _release_line(2, 200),
                _release_line(4, 400),
            ],
            3,
            "release ordinals are not 1..N in order",
        ),
        (
            [_release_line(1, 100), _release_line(2, 200), _release_line(2, 300)],
            3,
            "release ordinals are not 1..N in order",
        ),
        (
            [None, _release_line(1, 100), _release_line(2, 300), _release_line(3, 200)],
            4,
            "release times are not sorted",
        ),
        (
            [_release_line(1, 300), None, None, _release_line(2, 100), _release_line(3, 50)],
            4,
            "release times are not sorted",
        ),
    ],
    ids=["swapped-ordinals", "swapped-after-blank", "repeated-ordinal",
         "unsorted-after-blank", "unsorted-twice"],
)
def test_read_releases_names_first_bad_line(tmp_path, lines, line_no, reason):
    path = tmp_path / "releases.jsonl"
    path.write_text("".join(f"{line or ''}\n" for line in lines), encoding="utf-8")
    with pytest.raises(CacheError) as excinfo:
        read_releases(path)
    assert (excinfo.value.line_no, excinfo.value.reason) == (line_no, reason)


# A bad line before the first undecodable one is named, though text mode
# decodes ahead and meets the invalid bytes first.
@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize(
    "lines, line_no, reason",
    [
        ([b"{oops", b'"\xff"'], 1, "invalid JSON: Expecting property name"),
        ([b"", b"{oops", b"", b"\xff"], 2, "invalid JSON: Expecting property name"),
        ([b"\xff", b"{oops"], 1, "invalid UTF-8: "),
    ],
    ids=["json-error-first", "after-blank-lines", "undecodable-first"],
)
@pytest.mark.parametrize("reader", [read_history, read_releases], ids=["history", "releases"])
def test_read_names_bad_line_before_invalid_utf8(tmp_path, reader, lines, line_no, reason, end):
    path = tmp_path / "cache.jsonl"
    path.write_bytes(end.join(lines) + end)
    with pytest.raises(CacheError) as excinfo:
        reader(path)
    assert excinfo.value.line_no == line_no
    assert excinfo.value.reason.startswith(reason)
