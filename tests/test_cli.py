"""End-to-end tests of the command-line interface.

Commands run in-process through main(); byte-level golden comparisons pin
the full mine -> assess -> report chain on the fixture repository.
"""

import gc
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import beliefminer
import beliefminer.config
import beliefminer.synthgen
from beliefminer import analysis, cli, ingest, metrics, reporting
from beliefminer.cli import main
from beliefminer.config import DEFAULTS, load_config

from fixture_repo import build_two_commit_repo, delete_loose_object

_SCRIPT = shutil.which("beliefminer")


def _copy_fixture_caches(data_dir, target):
    target.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(data_dir / "fixture_history.jsonl", target / "history.jsonl")
    shutil.copyfile(data_dir / "fixture_releases.jsonl", target / "releases.jsonl")
    shutil.copyfile(data_dir / "fixture_summary.json", target / "summary.json")


# --- mine ----------------------------------------------------------------------


def test_mine_rejects_small_history(tmp_path, fixture_repo, capsys):
    out = tmp_path / "caches"
    assert main(["mine", str(fixture_repo), "--out", str(out)]) == 2
    stdout = capsys.readouterr().out
    assert "sanity checks FAILED:" in stdout
    assert "commits 20 < 1000" in stdout
    assert "refusing to write caches" in stdout
    assert not out.exists()


def test_mine_force_writes_goldens(tmp_path, fixture_repo, data_dir, capsys):
    out = tmp_path / "fixture"
    assert main(["mine", str(fixture_repo), "--out", str(out), "--force"]) == 0
    stdout = capsys.readouterr().out
    assert "mined 20 commits (29 file records), 5 releases, 3 developers" in stdout
    assert "proceeding anyway (--force)" in stdout
    assert out.joinpath("history.jsonl").read_bytes() == (
        data_dir / "fixture_history.jsonl"
    ).read_bytes()
    assert out.joinpath("releases.jsonl").read_bytes() == (
        data_dir / "fixture_releases.jsonl"
    ).read_bytes()
    assert out.joinpath("summary.json").read_bytes() == (
        data_dir / "fixture_summary.json"
    ).read_bytes()


def test_mine_all_commits(tmp_path, fixture_repo, capsys):
    out = tmp_path / "caches"
    code = main(
        ["mine", str(fixture_repo), "--out", str(out), "--force", "--all-commits"]
    )
    assert code == 0
    assert "mined 22 commits" in capsys.readouterr().out
    history = out.joinpath("history.jsonl").read_text(encoding="utf-8")
    assert "feature/extra.py" in history


def test_mine_custom_keywords_via_config(tmp_path, fixture_repo):
    keywords = tmp_path / "kw.txt"
    keywords.write_text("fix\n", encoding="utf-8")
    config = tmp_path / "run.cfg"
    config.write_text(f"keyword_file = {keywords}\n", encoding="utf-8")
    out = tmp_path / "caches"
    code = main(
        ["mine", str(fixture_repo), "--config", str(config), "--out", str(out), "--force"]
    )
    assert code == 0
    summary = json.loads(out.joinpath("summary.json").read_text(encoding="utf-8"))
    assert summary["bug_fix_commits"] == 4  # only messages with a fix-stem token


def test_mine_extend_keywords(tmp_path, fixture_repo):
    keywords = tmp_path / "kw.txt"
    keywords.write_text("regress\n", encoding="utf-8")
    config = tmp_path / "run.cfg"
    config.write_text(f"keyword_file = {keywords}\n", encoding="utf-8")
    out = tmp_path / "caches"
    code = main(
        [
            "mine", str(fixture_repo), "--config", str(config),
            "--out", str(out), "--force", "--extend",
        ]
    )
    assert code == 0
    summary = json.loads(out.joinpath("summary.json").read_text(encoding="utf-8"))
    # defaults plus 'regress' pick up "add regression tests for parser"
    assert summary["bug_fix_commits"] == 10


def _spy_git_commands(monkeypatch):
    """Record the git subcommand of every git process ingest starts."""
    started = []
    real = ingest._stream_git

    def spy(repo_path, *args):
        started.append(args[0])
        return real(repo_path, *args)

    monkeypatch.setattr(ingest, "_stream_git", spy)
    return started


def test_mine_starts_two_git_processes(tmp_path, fixture_repo, monkeypatch, capsys):
    started = _spy_git_commands(monkeypatch)
    assert main(["mine", str(fixture_repo), "--out", str(tmp_path / "o"), "--force"]) == 0
    assert started == ["log", "for-each-ref"]
    capsys.readouterr()


def test_mine_empty_repo_writes_empty_caches(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "empty"
    subprocess.run(["git", "init", "-q", str(repo)], check=True, capture_output=True)
    started = _spy_git_commands(monkeypatch)
    out = tmp_path / "o"
    assert main(["mine", str(repo), "--out", str(out)]) == 2
    assert not out.exists()
    assert main(["mine", str(repo), "--out", str(out), "--force"]) == 0
    assert started == ["log", "for-each-ref"] * 2
    assert out.joinpath("history.jsonl").read_bytes() == b""
    assert out.joinpath("releases.jsonl").read_bytes() == b""
    summary = json.loads(out.joinpath("summary.json").read_text(encoding="utf-8"))
    assert summary["commits"] == 0
    assert summary["first_commit_time"] is None
    assert "mined 0 commits (0 file records), 0 releases" in capsys.readouterr().out


def test_mine_missing_repo(tmp_path, capsys):
    plain = tmp_path / "plain"
    plain.mkdir()
    out = tmp_path / "o"
    for repo, git_error in [
        (tmp_path / "nowhere", "fatal: cannot change to"),
        (plain, "fatal: not a git repository"),
    ]:
        assert main(["mine", str(repo), "--out", str(out), "--force"]) == 1
        assert f"error: git log failed in {repo}: {git_error}" in capsys.readouterr().err
        assert not out.exists()


def test_mine_rejects_a_plain_subdirectory_of_a_repository(tmp_path, fixture_repo, capsys):
    # git would otherwise find the enclosing repository and mine all of it
    sub = fixture_repo / "core"
    assert sub.is_dir() and not (sub / ".git").exists()
    out = tmp_path / "o"
    assert main(["mine", str(sub), "--out", str(out), "--force"]) == 1
    assert f"error: git log failed in {sub}: fatal: not a git repository" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("form", ["git-dir", "bare", "symlink"])
def test_mine_accepts_the_repository_in_any_form(tmp_path, fixture_repo, data_dir, capsys, form):
    if form == "git-dir":
        repo = fixture_repo / ".git"
    elif form == "bare":
        repo = tmp_path / "bare.git"
        subprocess.run(
            ["git", "clone", "-q", "--bare", str(fixture_repo), str(repo)],
            check=True, capture_output=True,
        )
    else:
        repo = tmp_path / "link"
        repo.symlink_to(fixture_repo, target_is_directory=True)
    out = tmp_path / "o"
    assert main(["mine", str(repo), "--out", str(out), "--force"]) == 0
    capsys.readouterr()
    for name, golden in [
        ("history.jsonl", "fixture_history.jsonl"),
        ("releases.jsonl", "fixture_releases.jsonl"),
    ]:
        assert out.joinpath(name).read_bytes() == (data_dir / golden).read_bytes()


def test_mine_fails_when_git_log_dies(tmp_path, capsys):
    repo = tmp_path / "broken"
    delete_loose_object(repo, build_two_commit_repo(repo, ("add first", "add second"))[0])
    out = tmp_path / "o"
    assert main(["mine", str(repo), "--out", str(out), "--force"]) == 1
    assert "git log failed" in capsys.readouterr().err
    assert not out.joinpath("history.jsonl").exists()


def test_mine_missing_keyword_file(tmp_path, fixture_repo, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("keyword_file = /does/not/exist.txt\n", encoding="utf-8")
    code = main(
        ["mine", str(fixture_repo), "--config", str(config), "--out", str(tmp_path / "o")]
    )
    assert code == 1
    assert "keyword_file" in capsys.readouterr().err


@pytest.mark.parametrize("stem", ["bug-fix", "café"])
def test_mine_rejects_a_keyword_stem_no_token_can_start_with(tmp_path, fixture_repo, capsys, stem):
    keywords = tmp_path / "kw.txt"
    keywords.write_text(f"fix\n{stem}\n", encoding="utf-8")
    config = tmp_path / "run.cfg"
    config.write_text(f"keyword_file = {keywords}\n", encoding="utf-8")
    out = tmp_path / "o"
    code = main(["mine", str(fixture_repo), "--config", str(config), "--out", str(out), "--force"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: keyword_file: ")
    assert repr(stem) in err
    assert not out.exists()


# --- usage ---------------------------------------------------------------------


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["conquer"]) == 1
    assert main(["mine", "somewhere"]) == 1  # --out is required
    assert main(["assess", "--out", "x"]) == 1  # caches argument missing
    assert main(["--help"]) == 0
    assert main(["mine", "--help"]) == 0
    capsys.readouterr()


# Each subcommand accepts only the options it reads: --seed and
# --replication-mode are report's, and synth reads no config file.
_FOREIGN_OPTIONS = {
    "mine-seed": ("mine", ["--force", "--seed", "1"], "--seed 1"),
    "assess-replication-mode": ("assess", ["--replication-mode"], "--replication-mode"),
    "synth-config": ("synth", ["--config", "run.cfg"], "--config run.cfg"),
}


@pytest.mark.parametrize("case", sorted(_FOREIGN_OPTIONS))
def test_subcommand_rejects_options_it_does_not_read(
    tmp_path, fixture_repo, data_dir, capsys, monkeypatch, case
):
    command, options, unrecognized = _FOREIGN_OPTIONS[case]
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text("post_days = 30\n", encoding="utf-8")
    Path("scenario.txt").write_text("releases = 6\nfiles_per_release = 4, 6\n", encoding="utf-8")
    _copy_fixture_caches(data_dir, tmp_path / "caches")
    inputs = {"mine": str(fixture_repo), "assess": "caches", "synth": "scenario.txt"}
    out = tmp_path / "out"
    assert main([command, inputs[command], "--out", str(out), *options]) == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage: beliefminer")
    assert f"error: unrecognized arguments: {unrecognized}" in stderr
    assert not out.exists()


def test_bad_config_exits_one(tmp_path, fixture_repo, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("mystery = 1\n", encoding="utf-8")
    code = main(
        ["mine", str(fixture_repo), "--config", str(config), "--out", str(tmp_path / "o")]
    )
    assert code == 1
    assert "mystery" in capsys.readouterr().err


# --- assess --------------------------------------------------------------------


def test_assess_matches_goldens(tmp_path, data_dir, capsys):
    caches = tmp_path / "fixture"
    _copy_fixture_caches(data_dir, caches)
    out = tmp_path / "assessment"
    assert main(["assess", str(caches), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "fixture: 4 windows, 1 qualified, 0 significant scores" in stdout
    golden = data_dir / "fixture_assess"
    for name in ("populations.csv", "windows.csv", "exclusions.csv", "summary.csv"):
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


def test_assess_multi_project_discovery(tmp_path, data_dir, capsys):
    root = tmp_path / "projects"
    _copy_fixture_caches(data_dir, root / "beta")
    _copy_fixture_caches(data_dir, root / "alpha")
    out = tmp_path / "assessment"
    assert main(["assess", str(root), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.index("alpha:") < stdout.index("beta:")
    summary = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
    assert len(summary) == 3
    assert summary[1].startswith("alpha,20,")
    assert summary[2].startswith("beta,20,")
    windows = (out / "windows.csv").read_text(encoding="utf-8").splitlines()
    assert len(windows) == 9  # header + 4 windows per project


def test_assess_alpha_override_admits_scores(tmp_path, data_dir, capsys):
    caches = tmp_path / "fixture"
    _copy_fixture_caches(data_dir, caches)
    config = tmp_path / "run.cfg"
    config.write_text("alpha = 0.5\n", encoding="utf-8")
    out = tmp_path / "assessment"
    code = main(["assess", str(caches), "--config", str(config), "--out", str(out)])
    assert code == 0
    assert "3 significant scores" in capsys.readouterr().out
    populations = (out / "populations.csv").read_text(encoding="utf-8").splitlines()
    assert len(populations) == 4  # header + B1, B4, B9 at release 5
    assert all(",5," in line for line in populations[1:])


def test_assess_derives_summary_when_json_missing(tmp_path, data_dir):
    caches = tmp_path / "fixture"
    _copy_fixture_caches(data_dir, caches)
    (caches / "summary.json").unlink()
    out = tmp_path / "assessment"
    assert main(["assess", str(caches), "--out", str(out)]) == 0
    summary = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
    # derived totals only see commits that left file records, so the one
    # empty commit in the fixture history drops out (19 of 20)
    assert summary[1] == "fixture,19,0.47368421052631576,5,3,0.9034907597535934"


def test_assess_reports_no_qualified_windows(tmp_path, capsys):
    tiny = tmp_path / "tiny"
    tiny.write_text(
        "releases = 4\nfiles_per_release = 2\nplanted_belief = none\n",
        encoding="utf-8",
    )
    wide = tmp_path / "wide"
    wide.write_text("releases = 4\nfiles_per_release = 8\n", encoding="utf-8")
    caches = tmp_path / "caches"
    for scenario in (tiny, wide):
        assert main(["synth", str(scenario), "--out", str(caches / scenario.name)]) == 0
    out = tmp_path / "assessment"
    # one project without qualified windows next to one with them
    assert main(["assess", str(caches), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "tiny: no qualified windows (nothing to correlate)" in stdout
    assert "wide: 3 windows, 3 qualified" in stdout
    assert (out / "windows.csv").is_file()

    # no project with a qualified window: an error, and nothing written
    empty = tmp_path / "empty"
    assert main(["assess", str(caches / "tiny"), "--out", str(empty)]) == 1
    captured = capsys.readouterr()
    assert "tiny: no qualified windows (nothing to correlate)" in captured.out
    assert captured.err == "error: no project has a qualified window (min_files = 3)\n"
    assert not empty.exists()


def test_assess_rejects_windows_that_never_reach_a_correlation(tmp_path, data_dir, capsys):
    caches = tmp_path / "fixture"
    _copy_fixture_caches(data_dir, caches)
    config = tmp_path / "run.cfg"
    config.write_text("min_observations = 100000\n", encoding="utf-8")
    out = tmp_path / "assessment"
    assert main(["assess", str(caches), "--config", str(config), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "fixture: 4 windows, 1 qualified, 0 significant scores" in captured.out
    assert captured.err == (
        "error: no qualified window has enough observations to correlate "
        "(min_observations = 100000)\n"
    )
    assert not out.exists()
    # tested but nothing significant is still a result
    config.write_text("min_observations = 4\nalpha = 0.0001\n", encoding="utf-8")
    assert main(["assess", str(caches), "--config", str(config), "--out", str(out)]) == 0
    assert "0 significant scores" in capsys.readouterr().out
    assert (out / "populations.csv").read_text(encoding="utf-8").count("\n") == 1


def test_assess_missing_inputs(tmp_path, capsys):
    assert main(["assess", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 1
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["assess", str(empty), "--out", str(tmp_path / "o")]) == 1
    stderr = capsys.readouterr().err
    assert "cache directory not found" in stderr
    assert "no history.jsonl" in stderr


def test_assess_corrupt_cache_names_line(tmp_path, data_dir, capsys):
    caches = tmp_path / "fixture"
    _copy_fixture_caches(data_dir, caches)
    history = caches / "history.jsonl"
    lines = history.read_text(encoding="utf-8").splitlines()
    lines[4] = "{broken"
    history.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["assess", str(caches), "--out", str(tmp_path / "o")]) == 1
    stderr = capsys.readouterr().err
    assert "history.jsonl:5:" in stderr


@pytest.mark.parametrize(
    "cache, field, value",
    [
        ("history.jsonl", "insertions", float("inf")),
        ("history.jsonl", "commit_time", float("-inf")),
        ("releases.jsonl", "release_time", float("inf")),
    ],
)
def test_assess_infinite_field_is_a_data_error(tmp_path, data_dir, capsys, cache, field, value):
    caches = tmp_path / "fixture"
    _copy_fixture_caches(data_dir, caches)
    path = caches / cache
    lines = path.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[1])
    row[field] = value
    lines[1] = json.dumps(row)  # writes Infinity or -Infinity
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["assess", str(caches), "--out", str(tmp_path / "o")]) == 1
    stderr = capsys.readouterr().err
    assert f"error: {path}:2: bad field value" in stderr


@pytest.mark.parametrize(
    "cache, field", [("history.jsonl", "insertions"), ("releases.jsonl", "release_time")]
)
def test_assess_huge_integer_is_a_data_error(tmp_path, data_dir, capsys, cache, field):
    caches = tmp_path / "fixture"
    _copy_fixture_caches(data_dir, caches)
    path = caches / cache
    lines = path.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[1])
    lines[1] = lines[1].replace(f'"{field}": {row[field]}', f'"{field}": {"1" * 5000}')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["assess", str(caches), "--out", str(tmp_path / "o")]) == 1
    stderr = capsys.readouterr().err
    assert f"error: {path}:2: bad field value: Exceeds the limit" in stderr


@pytest.mark.parametrize("cache", ["history.jsonl", "releases.jsonl"])
def test_assess_deeply_nested_line_is_a_data_error(tmp_path, data_dir, capsys, cache):
    caches = tmp_path / "fixture"
    _copy_fixture_caches(data_dir, caches)
    path = caches / cache
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines + ["[" * 100_000]) + "\n", encoding="utf-8")
    assert main(["assess", str(caches), "--out", str(tmp_path / "o")]) == 1
    stderr = capsys.readouterr().err
    assert f"error: {path}:{len(lines) + 1}: invalid JSON: maximum recursion depth" in stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cache", ["history.jsonl", "releases.jsonl"])
def test_assess_invalid_utf8_is_a_data_error(tmp_path, data_dir, capsys, cache):
    caches = tmp_path / "fixture"
    _copy_fixture_caches(data_dir, caches)
    path = caches / cache
    lines = path.read_bytes().split(b"\n")
    lines[1] = lines[1].replace(b'": "', b'": "\xff', 1)
    path.write_bytes(b"\n".join(lines))
    assert main(["assess", str(caches), "--out", str(tmp_path / "o")]) == 1
    stderr = capsys.readouterr().err
    assert f"error: {path}:2: invalid UTF-8: " in stderr
    assert not (tmp_path / "o").exists()


def _summary_json(**raw_values):
    """A summary.json text: valid fields, with some replaced by raw JSON text."""
    fields = {
        "commits": "20",
        "bug_fix_fraction": "0.45",
        "releases": "5",
        "developers": "3",
        "active_years": "0.9",
        **raw_values,
    }
    return "{" + ", ".join(f'"{key}": {value}' for key, value in fields.items()) + "}"


@pytest.mark.parametrize(
    "text, reason",
    [
        pytest.param('{"commits": 3', "1: invalid JSON: Expecting ','", id="truncated"),
        pytest.param('{"commits": 3}', "1: missing field 'bug_fix_fraction'", id="missing-field"),
        pytest.param(
            '{"commits": 20, "bug_fix_fraction": 0.45, "developers": 3, "active_years": 0.9}',
            "1: missing field 'releases'",
            id="missing-releases",
        ),
        pytest.param(
            '{"commits": true, "bug_fix_fraction": NaN, "developers": -3, "releases": 5.9,'
            ' "active_years": Infinity}',
            "1: bad field value: commits = True is not a non-negative integer",
            id="bool-count",
        ),
        *(
            pytest.param(
                _summary_json(**{key: value}),
                f"1: bad field value: {key} = ",
                id=f"{key}-{value[:12]}",
            )
            for key, value in [
                ("commits", '"20"'),
                ("commits", "20.0"),
                ("releases", "5.9"),
                ("developers", "-3"),
                ("developers", "-1"),
                ("bug_fix_fraction", "NaN"),
                ("bug_fix_fraction", "1.0000001"),
                ("bug_fix_fraction", "-0.0001"),
                ("bug_fix_fraction", "true"),
                ("active_years", "Infinity"),
                ("active_years", "1e400"),
                ("active_years", "1" + "0" * 400),
                ("active_years", "-1e-9"),
            ]
        ),
    ],
)
def test_assess_malformed_summary_is_a_data_error(tmp_path, data_dir, capsys, text, reason):
    caches = tmp_path / "fixture"
    _copy_fixture_caches(data_dir, caches)
    (caches / "summary.json").write_text(text, encoding="utf-8")
    assert main(["assess", str(caches), "--out", str(tmp_path / "o")]) == 1
    stderr = capsys.readouterr().err
    assert f"error: {caches / 'summary.json'}:{reason}" in stderr
    assert not (tmp_path / "o").exists()


def test_assess_summary_json_invalid_utf8_names_its_line(tmp_path, data_dir, capsys):
    caches = tmp_path / "fixture"
    _copy_fixture_caches(data_dir, caches)
    path = caches / "summary.json"
    lines = path.read_bytes().split(b"\n")
    assert lines[4] == b'  "commits": 20,'
    lines[4] = b'  "commits\xff": 20,'
    path.write_bytes(b"\n".join(lines))
    assert main(["assess", str(caches), "--out", str(tmp_path / "o")]) == 1
    stderr = capsys.readouterr().err
    reason = "invalid UTF-8: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"
    assert f"error: {path}:5: {reason}\n" in stderr
    assert not (tmp_path / "o").exists()


def test_assess_accepts_summary_boundary_values(tmp_path, data_dir, capsys):
    caches = tmp_path / "fixture"
    _copy_fixture_caches(data_dir, caches)
    boundary = _summary_json(
        commits="0", bug_fix_fraction="1", releases="0", developers="0", active_years="0"
    )
    (caches / "summary.json").write_text(boundary, encoding="utf-8")
    assert main(["assess", str(caches), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    summary = (tmp_path / "o" / "summary.csv").read_text(encoding="utf-8")
    assert summary.splitlines()[1] == "fixture,0,1.0,0,0,0.0"


def test_assess_checks_every_releases_cache_first(tmp_path, data_dir, capsys, monkeypatch):
    root = tmp_path / "projects"
    _copy_fixture_caches(data_dir, root / "alpha")
    _copy_fixture_caches(data_dir, root / "beta")
    (root / "beta" / "releases.jsonl").unlink()
    calls = []
    read_history = cli.read_history
    monkeypatch.setattr(cli, "read_history", lambda path: calls.append(path) or read_history(path))
    assert main(["assess", str(root), "--out", str(tmp_path / "o")]) == 1
    assert calls == []
    stderr = capsys.readouterr().err
    assert f"error: missing releases cache: {root / 'beta' / 'releases.jsonl'}" in stderr
    assert not (tmp_path / "o").exists()


def test_assess_compact_cache_matches_canonical(tmp_path, data_dir):
    canonical = tmp_path / "canonical" / "fixture"
    _copy_fixture_caches(data_dir, canonical)
    compact = tmp_path / "compact" / "fixture"
    _copy_fixture_caches(data_dir, compact)
    history = compact / "history.jsonl"
    lines = history.read_text(encoding="utf-8").splitlines()
    text = "".join(
        json.dumps(json.loads(line), ensure_ascii=False, separators=(",", ":")) + "\n"
        for line in lines
    )
    assert '": ' not in text  # no line has the canonical form
    history.write_text(text, encoding="utf-8")
    for caches in (canonical, compact):
        assert main(["assess", str(caches), "--out", str(caches.parent / "out")]) == 0
    for name in ("populations.csv", "windows.csv", "exclusions.csv", "summary.csv"):
        expected = (tmp_path / "canonical" / "out" / name).read_bytes()
        assert (tmp_path / "compact" / "out" / name).read_bytes() == expected, name


# --- report --------------------------------------------------------------------


def test_report_matches_goldens(tmp_path, data_dir, capsys):
    out = tmp_path / "report"
    code = main(["report", str(data_dir / "fixture_assess"), "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    golden = data_dir / "fixture_report"
    for path in sorted(golden.iterdir()):
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("name", ["windows.csv", "summary.csv", "populations.csv"])
def test_report_requires_every_assessment_table(tmp_path, data_dir, capsys, name):
    assessment = tmp_path / "assessment"
    shutil.copytree(data_dir / "fixture_assess", assessment)
    (assessment / name).unlink()
    out = tmp_path / "report"
    assert main(["report", str(assessment), "--out", str(out)]) == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith("error: ")
    assert str(assessment / name) in stderr
    assert not out.exists()


def test_report_on_accepted_empty_assessment(tmp_path, data_dir, capsys):
    assessment = tmp_path / "assessment"
    assessment.mkdir()
    for name in ("windows.csv", "summary.csv", "populations.csv"):
        header = (data_dir / "fixture_assess" / name).read_text(encoding="utf-8").split("\n")[0]
        (assessment / name).write_text(header + "\n", encoding="utf-8")
    out = tmp_path / "report"
    assert main(["report", str(assessment), "--out", str(out)]) == 0
    capsys.readouterr()
    text = (out / "report.md").read_text(encoding="utf-8")
    assert "Projects analyzed: 0" in text
    assert "No significant scores; nothing to rank." in text
    populations = (out / "populations.csv").read_bytes()
    assert populations == (assessment / "populations.csv").read_bytes()


def test_report_into_its_assessment_directory(tmp_path, data_dir, capsys):
    assessment = tmp_path / "assessment"
    shutil.copytree(data_dir / "fixture_assess", assessment)
    populations = (assessment / "populations.csv").read_bytes()
    assert main(["report", str(assessment), "--out", str(assessment)]) == 0
    assert main(["report", str(assessment), "--out", str(tmp_path / "report")]) == 0
    assert capsys.readouterr().err == ""
    assert (assessment / "populations.csv").read_bytes() == populations
    expected = (tmp_path / "report" / "report.md").read_bytes()
    assert (assessment / "report.md").read_bytes() == expected


def test_report_missing_assessment_exits_one(tmp_path, capsys):
    out = tmp_path / "report"
    assert main(["report", str(tmp_path / "nonexistent"), "--out", str(out)]) == 1
    assert "error: assessment directory not found" in capsys.readouterr().err
    assert not out.exists()


# (option, its value or the config file's line, what the error names)
_OUT_OF_RANGE_SETTINGS = {
    "seed-over-64-bits": ("--seed", "99999999999999999999", "seed"),
    "infinite-decay-rate": ("--config", "decay_rate = inf", "decay_rate"),
    "infinite-support-threshold": ("--config", "support_threshold = inf", "support_threshold"),
    "infinite-trend-threshold": ("--config", "trend_threshold = inf", "trend_threshold"),
    "bootstrap-iterations-over-bound": (
        "--config", "bootstrap_iterations = 10001", "bootstrap_iterations"
    ),
    "post-days-over-bound": ("--config", "post_days = 36501", "post_days"),
}


@pytest.mark.parametrize("case", sorted(_OUT_OF_RANGE_SETTINGS))
def test_report_rejects_out_of_range_setting(tmp_path, data_dir, capsys, case):
    option, value, key = _OUT_OF_RANGE_SETTINGS[case]
    if option == "--config":
        config = tmp_path / "run.cfg"
        config.write_text(value + "\n", encoding="utf-8")
        value = str(config)
    out = tmp_path / "report"
    argv = ["report", str(data_dir / "fixture_assess"), "--out", str(out), option, value]
    assert main(argv) == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith(f"error: {key}: ")
    assert not out.exists()


def _replace_line(text, line_no, new_line):
    lines = text.split("\n")
    lines[line_no - 1] = new_line
    return "\n".join(lines)


# (file, its new bytes from the fixture's text, the line the error names
# [, the reason it gives])
_MALFORMED_ASSESSMENTS = {
    "missing-column": (
        "populations.csv",
        lambda text: text.replace(",rho,", ",").encode(),
        1,
    ),
    "non-integer-flag": (
        "windows.csv",
        lambda text: _replace_line(text, 3, "fixture,3,1615507200,1,0,x").encode(),
        3,
    ),
    "rho-out-of-range": (
        "populations.csv",
        lambda text: (text + "fixture,B1,2,1.5,0.01,10\n").encode(),
        2,
    ),
    "short-row": (
        "summary.csv",
        lambda text: _replace_line(text, 2, "fixture,20,0.45").encode(),
        2,
    ),
    "unknown-belief": (
        "populations.csv",
        lambda text: (text + "fixture,B11,2,0.9,0.001,10\n").encode(),
        2,
    ),
    "empty-file": ("populations.csv", lambda text: b"", 1),
    "underscore-in-integer": (
        "windows.csv",
        lambda text: _replace_line(text, 3, "fixture,3,1_615_507_200,1,0,0").encode(),
        3,
    ),
    "spaces-around-integer": (
        "windows.csv",
        lambda text: _replace_line(text, 4, "fixture,4,1620691200, 2 ,0,0").encode(),
        4,
    ),
    "invalid-utf8": (
        "windows.csv",
        lambda text: text.encode().replace(b"fixture,4,", b"fixture\xff,4,"),
        4,
    ),
    "bad-field-before-invalid-utf8": (
        "windows.csv",
        lambda text: _replace_line(text, 3, "fixture,3,1615507200,1,0,x")
        .encode()
        .replace(b"fixture,4,", b"fixture\xff,4,"),
        3,
    ),
    "invalid-utf8-lone-cr-lines": (
        "windows.csv",
        lambda text: text.replace("\n", "\r").encode().replace(b"fixture,4,", b"fixture\xff,4,"),
        4,
    ),
    "nan-fraction": (
        "summary.csv",
        lambda text: text.replace(",0.45,", ",nan,").encode(),
        2,
    ),
    "infinite-active-years": (
        "summary.csv",
        lambda text: text.replace(",0.9034907597535934", ",inf").encode(),
        2,
    ),
    "field-over-csv-limit": (
        "summary.csv",
        lambda text: text.replace("fixture,", "f" * 200_000 + ",").encode(),
        2,
    ),
    "negative-commits": (
        "summary.csv",
        lambda text: _replace_line(text, 2, "fixture,-20,0.45,5,3,0.9").encode(),
        2,
    ),
    "negative-releases": (
        "summary.csv",
        lambda text: _replace_line(text, 2, "fixture,20,0.45,-5,3,0.9").encode(),
        2,
    ),
    "negative-developers": (
        "summary.csv",
        lambda text: _replace_line(text, 2, "fixture,20,0.45,5,-3,0.9").encode(),
        2,
    ),
    "fraction-above-one": (
        "summary.csv",
        lambda text: _replace_line(text, 2, "fixture,20,1.45,5,3,0.9").encode(),
        2,
    ),
    "negative-fraction": (
        "summary.csv",
        lambda text: _replace_line(text, 2, "fixture,20,-0.45,5,3,0.9").encode(),
        2,
    ),
    "negative-active-years": (
        "summary.csv",
        lambda text: _replace_line(text, 2, "fixture,20,0.45,5,3,-1.5").encode(),
        2,
    ),
    "underscore-in-float": (
        "summary.csv",
        lambda text: _replace_line(text, 2, "fixture,20,0.4_5,5,3,0.9").encode(),
        2,
    ),
    "spaces-around-float": (
        "summary.csv",
        lambda text: _replace_line(text, 2, "fixture,20, 0.45 ,5,3,0.9").encode(),
        2,
    ),
    "spaces-around-rho": (
        "populations.csv",
        lambda text: (text + "fixture,B3,2, 0.9 ,0.001,6\n").encode(),
        2,
    ),
    "negative-distinct-files": (
        "windows.csv",
        lambda text: _replace_line(text, 3, "fixture,3,1615507200,-4,0,0").encode(),
        3,
    ),
    "negative-window-ordinal": (
        "windows.csv",
        lambda text: _replace_line(text, 3, "fixture,-3,1615507200,1,0,0").encode(),
        3,
    ),
    "negative-population-ordinal": (
        "populations.csv",
        lambda text: (text + "fixture,B3,-2,0.9,0.001,6\n").encode(),
        2,
    ),
    # the fixture's only qualified window is 5
    "score-in-unqualified-window": (
        "populations.csv",
        lambda text: (
            text + "fixture,B3,2,0.9,0.5,6\n" * 2 + "fixture,B3,99,0.9,0.5,6\n"
        ).encode(),
        2,
        "bad field value: release_ordinal 2 of 'fixture' is not a qualified window\n",
    ),
    "score-in-unknown-window": (
        "populations.csv",
        lambda text: (text + "fixture,B3,99,0.9,0.001,6\n").encode(),
        2,
        "bad field value: release_ordinal 99 of 'fixture' is not in windows.csv\n",
    ),
    "duplicate-score": (
        "populations.csv",
        lambda text: (text + "fixture,B3,5,0.9,0.001,6\nfixture,B3,5,0.8,0.002,6\n").encode(),
        3,
        "duplicate key ('fixture', 'B3', 5), first on line 2\n",
    ),
    "duplicate-window": (
        "windows.csv",
        lambda text: (text + "fixture,5,1629331200,6,1,1\n").encode(),
        6,
        "duplicate key ('fixture', 5), first on line 5\n",
    ),
    "duplicate-summary": (
        "summary.csv",
        lambda text: (text + "fixture,20,0.45,5,3,0.9\n").encode(),
        3,
        "duplicate key ('fixture',), first on line 2\n",
    ),
    "windows-project-without-summary": (
        "summary.csv",
        lambda text: (text.split("\n")[0] + "\nother,1,0.0,1,1,0.0\n").encode(),
        1,
        "no row for windows.csv project 'fixture'\n",
    ),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_ASSESSMENTS))
def test_report_on_malformed_assessment_names_line(tmp_path, data_dir, capsys, case):
    name, corrupt, line_no, *reason = _MALFORMED_ASSESSMENTS[case]
    assessment = tmp_path / "assessment"
    shutil.copytree(data_dir / "fixture_assess", assessment)
    path = assessment / name
    path.write_bytes(corrupt(path.read_text(encoding="utf-8")))
    out = tmp_path / "report"
    assert main(["report", str(assessment), "--out", str(out)]) == 1
    stderr = capsys.readouterr().err
    assert f"error: {path}:{line_no}: {''.join(reason)}" in stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "row",
    ["fixture,0,0.0,0,0,0.0", "fixture,20,1.0,5,3,1e3"],
    ids=["lower-bounds", "upper-fraction"],
)
def test_report_accepts_summary_at_bounds(tmp_path, data_dir, capsys, row):
    assessment = tmp_path / "assessment"
    shutil.copytree(data_dir / "fixture_assess", assessment)
    summary = assessment / "summary.csv"
    summary.write_text(_replace_line(summary.read_text(encoding="utf-8"), 2, row), encoding="utf-8")
    assert main(["report", str(assessment), "--out", str(tmp_path / "report")]) == 0
    capsys.readouterr()


def test_report_counts_a_summary_project_without_windows(tmp_path, data_dir, capsys):
    assessment = tmp_path / "assessment"
    shutil.copytree(data_dir / "fixture_assess", assessment)
    with open(assessment / "summary.csv", "a", encoding="utf-8") as fh:
        fh.write("other,1,0.0,1,1,0.0\n")
    out = tmp_path / "report"
    assert main(["report", str(assessment), "--out", str(out)]) == 0
    capsys.readouterr()
    assert "Projects analyzed: 2 (fixture, other)" in (out / "report.md").read_text(encoding="utf-8")


def test_assess_and_report_check_the_summary_by_one_rule(tmp_path, data_dir, capsys):
    reason = "bad field value: commits = -20 is not a non-negative integer"
    caches = tmp_path / "fixture"
    _copy_fixture_caches(data_dir, caches)
    (caches / "summary.json").write_text(_summary_json(commits="-20"), encoding="utf-8")
    assert main(["assess", str(caches), "--out", str(tmp_path / "o")]) == 1
    assert f"error: {caches / 'summary.json'}:1: {reason}\n" in capsys.readouterr().err
    assessment = tmp_path / "assessment"
    shutil.copytree(data_dir / "fixture_assess", assessment)
    summary = assessment / "summary.csv"
    row = "fixture,-20,0.45,5,3,0.9"
    summary.write_text(_replace_line(summary.read_text(encoding="utf-8"), 2, row), encoding="utf-8")
    assert main(["report", str(assessment), "--out", str(tmp_path / "report")]) == 1
    assert f"error: {summary}:2: {reason}\n" in capsys.readouterr().err


# --- configuration wiring ------------------------------------------------------

# Every key that assess or report reads, each set to a valid value other
# than its default.
_NON_DEFAULT_SETTINGS = {
    "extensions": "py, ts, js",
    "post_days": "120",
    "period_days": "7",
    "decay_rate": "0.5",
    "min_files": "2",
    "min_observations": "3",
    "alpha": "0.5",
    "support_threshold": "0.3",
    "trend_threshold": "0.3",
    "bootstrap_iterations": "200",
    "a12_threshold": "0.6",
    "seed": "7",
    "replication_mode": "true",
}

# Every function that takes the run's cfg, at the module its caller looks
# it up in.
_CFG_READERS = {
    cli: ("assess_project", "build_report"),
    analysis: (
        "build_windows",
        "qualify_window",
        "compute_all",
        "belief_population",
        "_rank_pooled",
        "size_thresholds",
    ),
    metrics: ("_hcm",),
    reporting: (
        "bucket_windows",
        "coverage",
        "prevalence",
        "rank_beliefs",
        "rank_beliefs_by_size",
        "growth_decay",
    ),
}


def test_assess_and_report_pass_the_resolved_config_everywhere(
    tmp_path, data_dir, capsys, monkeypatch
):
    config = tmp_path / "run.cfg"
    config.write_text(
        "".join(f"{key} = {value}\n" for key, value in _NON_DEFAULT_SETTINGS.items()),
        encoding="utf-8",
    )
    resolved = load_config(config)
    for key in _NON_DEFAULT_SETTINGS:
        assert getattr(resolved, key) != getattr(DEFAULTS, key), key
    received = []
    for module, names in _CFG_READERS.items():
        for name in names:
            real = getattr(module, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                bound = inspect.signature(_real).bind(*args, **kwargs)
                bound.apply_defaults()
                received.append((_name, bound.arguments["cfg"]))
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
    caches = tmp_path / "fixture"
    _copy_fixture_caches(data_dir, caches)
    assessment = tmp_path / "assessment"
    assert main(["assess", str(caches), "--config", str(config), "--out", str(assessment)]) == 0
    report = tmp_path / "report"
    assert main(["report", str(assessment), "--config", str(config), "--out", str(report)]) == 0
    capsys.readouterr()
    assert {name for name, _ in received} == {n for names in _CFG_READERS.values() for n in names}
    assert [name for name, cfg in received if cfg is DEFAULTS or cfg != resolved] == []


# --- synth ---------------------------------------------------------------------


def test_synth_writes_deterministic_caches(tmp_path, capsys):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(
        "releases = 6\nfiles_per_release = 4, 6\nplanted_belief = B3\n"
        "planted_strength = 1.0\nnoise_seed = 11\n",
        encoding="utf-8",
    )
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["synth", str(scenario), "--out", str(first)]) == 0
    assert main(["synth", str(scenario), "--out", str(second)]) == 0
    capsys.readouterr()
    for name in ("history.jsonl", "releases.jsonl"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_synth_over_mined_caches_drops_their_summary(tmp_path, data_dir, capsys):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text("releases = 6\nfiles_per_release = 4, 6\n", encoding="utf-8")
    over, clean = tmp_path / "over", tmp_path / "clean"
    _copy_fixture_caches(data_dir, over)
    assert main(["synth", str(scenario), "--out", str(over)]) == 0
    assert main(["synth", str(scenario), "--out", str(clean)]) == 0
    assert not (over / "summary.json").exists()
    rows = []
    for caches in (over, clean):
        out = tmp_path / f"{caches.name}-assessment"
        assert main(["assess", str(caches), "--out", str(out)]) == 0
        header, row = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
        rows.append((header, row.removeprefix(f"{caches.name},")))
    capsys.readouterr()
    assert rows[0] == rows[1]


def test_synth_bad_scenario(tmp_path, capsys):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text("planted_belief = B6\n", encoding="utf-8")
    assert main(["synth", str(scenario), "--out", str(tmp_path / "o")]) == 1
    assert "planted_belief" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, field",
    [
        pytest.param("noise_seed = -1\n", "noise_seed", id="negative-seed"),
        pytest.param(
            "releases = 3\nfiles_per_release = 2\npost_days = 1000000000000000\n",
            "post_days",
            id="horizon-past-64-bits",
        ),
    ],
)
def test_synth_out_of_range_scenario_exits_one(tmp_path, capsys, body, field):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(body, encoding="utf-8")
    out = tmp_path / "o"
    assert main(["synth", str(scenario), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not out.exists()


def test_synth_rejects_post_days_that_assess_rejects(tmp_path, capsys):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text("post_days = 40000\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["synth", str(scenario), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: post_days: must lie in [1, 36500]\n"
    assert not out.exists()


def test_synth_missing_scenario(tmp_path, capsys):
    assert main(["synth", str(tmp_path / "none.txt"), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


# --- start-up ------------------------------------------------------------------


def _run_python(code, *flags):
    """Run code in a fresh interpreter that imports this beliefminer; return
    its stdout, and fail on a nonzero exit."""
    src = Path(beliefminer.__file__).resolve().parents[1]
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats costs about half a second per stage process at start-up;
    # the statistics engine needs only scipy.special's stdtr ufunc
    probe = "import sys, beliefminer.cli; print('scipy.stats' in sys.modules)"
    assert _run_python(probe).strip() == "False"


def test_cli_import_loads_stdtr_without_scipy_special_package():
    # scipy.special's package costs about half of each stage's start-up, and
    # numpy.random is loaded at start-up rather than in report's timed work;
    # the import prints nothing and warns nothing in development mode
    assert _run_python("import beliefminer.cli", "-X", "dev", "-W", "error") == ""
    probe = (
        "import sys, beliefminer.cli\n"
        "print(sorted(m for m in ('scipy.special', 'numpy.random') if m in sys.modules))"
    )
    assert _run_python(probe).strip() == "[]"


# What only Scott-Knott's bootstrap needs: numpy.random (with hmac and
# OpenSSL's hashes behind it), the split seeds' hashlib, and statistics.
_RANKING_MODULES = ("numpy.random", "hashlib", "_hashlib", "hmac", "statistics")


def test_only_report_loads_the_ranking_modules(tmp_path, data_dir):
    caches = tmp_path / "fixture"
    _copy_fixture_caches(data_dir, caches)
    probe = (
        "import sys\n"
        "from beliefminer.cli import main\n"
        f"modules = {_RANKING_MODULES!r}\n"
        "imported = sorted(m for m in modules if m in sys.modules)\n"
        f"code = main(['assess', {str(caches)!r}, '--out', {str(tmp_path / 'a')!r}])\n"
        "print(code, imported, sorted(m for m in modules if m in sys.modules))\n"
    )
    assert _run_python(probe).splitlines()[-1] == "0 [] []"


def test_report_loads_the_ranking_modules_before_reading_its_config(tmp_path, data_dir):
    # so that they are part of report's start-up, not of its work
    probe = (
        "import sys\n"
        "from beliefminer import cli\n"
        "resolve, loaded = cli._resolve_config, []\n"
        "def spy(args):\n"
        "    cfg = resolve(args)\n"
        "    loaded.append(sorted(m for m in ('numpy.random', 'hashlib', 'statistics')"
        " if m in sys.modules))\n"
        "    return cfg\n"
        "cli._resolve_config = spy\n"
        f"code = cli.main(['report', {str(data_dir / 'fixture_assess')!r},"
        f" '--out', {str(tmp_path / 'r')!r}])\n"
        "print(code, loaded)\n"
    )
    last = _run_python(probe).splitlines()[-1]
    assert last == "0 [['hashlib', 'numpy.random', 'statistics']]"


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_cli_import_freezes_heap_and_skips_synthgen(enabled):
    # the import-time heap lives until exit, so later collections need not
    # scan it; only synth loads the generator
    probe = (
        "import gc, sys\n"
        + ("" if enabled else "gc.disable()\n")
        + "import beliefminer.cli\n"
        "print(gc.isenabled(), gc.get_freeze_count() > 0, 'beliefminer.synthgen' in sys.modules)"
    )
    assert _run_python(probe).split() == [str(enabled), "True", "False"]


def test_main_does_not_freeze_again(tmp_path, data_dir, capsys):
    scenario = tmp_path / "scenario.txt"
    scenario.write_text("releases = 3\nfiles_per_release = 2\n", encoding="utf-8")
    frozen = gc.get_freeze_count()
    assert main(["synth", str(scenario), "--out", str(tmp_path / "caches")]) == 0
    assert main(["report", str(data_dir / "fixture_assess"), "--out", str(tmp_path / "r")]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen


def test_scenario_error_is_defined_once():
    assert beliefminer.synthgen.ScenarioError is beliefminer.config.ScenarioError


@pytest.mark.parametrize("special_first", [False, True], ids=["special-later", "special-first"])
def test_stdtr_is_scipy_special_stdtr(special_first):
    probe = (
        "import sys\n"
        + ("import scipy.special\n" if special_first else "")
        + "from beliefminer import stats\n"
        "loaded = 'scipy.special' in sys.modules\n"
        "import scipy.special, scipy.stats\n"
        "print(loaded, stats.stdtr is scipy.special.stdtr,"
        " stats._t_approximation_p(0.5, 12) == 2 * scipy.stats.t.sf(0.5 * (10 / 0.75) ** 0.5, 10))"
    )
    assert _run_python(probe).split() == [str(special_first), "True", "True"]


# Large-n Spearman inputs (the t approximation's range), printed as
# (rho, p) in float.hex; `blocked` is how often the fast path was refused.
_T_P_VALUES = """
import json, random, sys
from beliefminer import stats
rng = random.Random(7)
out = []
for n in (9, 10, 12, 20, 50, 200, 1000):
    for _ in range(5):
        x = [rng.randrange(6) for _ in range(n)]
        y = [v + rng.randrange(8) for v in x]
        score = stats.spearman(x, y)
        out.append((score.rho.hex(), score.p_value.hex()))
print(blocked, 'scipy.special' in sys.modules, stats.stdtr is sys.modules['scipy.special._ufuncs'].stdtr)
print(json.dumps(out))
"""

# Refuses scipy.special._ufuncs once, so that only the loader's fast path
# fails; the fallback's real scipy.special then imports it.
_REFUSE_UFUNCS = """
import sys
blocked = 0
class Refuse:
    def find_spec(self, name, path, target=None):
        global blocked
        if name == "scipy.special._ufuncs":
            sys.meta_path.remove(self)
            blocked += 1
            raise {error}("refused")
sys.meta_path.insert(0, Refuse())
"""


@pytest.mark.parametrize("error", ["ImportError", "AttributeError"])
def test_stdtr_loader_falls_back_to_scipy_special(error):
    fast = _run_python("blocked = 0\n" + _T_P_VALUES).splitlines()
    fallback = _run_python(_REFUSE_UFUNCS.format(error=error) + _T_P_VALUES).splitlines()
    assert fast[0] == "0 False True"
    assert fallback[0] == "1 True True"
    assert fallback[1] == fast[1]
    p_values = [float.fromhex(p) for _, p in json.loads(fast[1])]
    assert len(set(p_values)) > 20 and 0.0 < min(p_values) < 1e-10 and max(p_values) > 0.05


# --- installed script ------------------------------------------------------------


def test_declared_console_script_resolves_to_main(capsys):
    import importlib.metadata
    import tomllib

    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    entry = importlib.metadata.EntryPoint("beliefminer", scripts["beliefminer"], "console_scripts")
    assert entry.load() is main
    assert entry.load()(["--help"]) == 0
    assert "{mine,assess,report,synth}" in capsys.readouterr().out


@pytest.mark.skipif(_SCRIPT is None, reason="console script not on PATH")
def test_console_script_help():
    result = subprocess.run(
        [_SCRIPT, "--help"], capture_output=True, text=True, check=False
    )
    assert result.returncode == 0
    for command in ("mine", "assess", "report", "synth"):
        assert command in result.stdout
