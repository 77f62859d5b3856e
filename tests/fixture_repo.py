"""Deterministic fixture repository builder.

Builds a small git history with fixed commit ids: five tags (one
lightweight), a --no-ff merge bringing in a side branch, a binary asset, a
test-path file, and a non-source doc file. Exactly one release window
(v1.0) reaches the three-distinct-files bar; its per-belief vectors were
computed by hand and are pinned in tests/test_metrics.py.

All file lines are globally unique, edits remove from the top and append
at the bottom, so numstat insertion/deletion counts are exact by
construction.

Three smaller builders make single-purpose repositories: file names git
would quote, a rename, and a two-commit history with chosen messages.
"""

from __future__ import annotations

import os
import subprocess
from pathlib import Path

T0 = 1609459200  # 2021-01-01 00:00:00 UTC
DAY = 86400

ALICE = ("Alice Dev", "alice@example.com")
BOB = ("Bob Dev", "bob@example.com")
CAROL = ("Carol Dev", "carol@example.com")
DANA = ("Dana Dev", "dana@example.com")

# (day, author, message, [(path, remove_top, add_count)])
_MAIN_COMMITS = [
    (0, ALICE, "initial import of application core",
     [("core/app.py", 0, 20), ("README.md", 0, 8)]),
    (5, ALICE, "add command parsing layer",
     [("core/util.py", 0, 15), ("core/app.py", 2, 10)]),
    (12, ALICE, "fix crash when config file is absent",
     [("core/app.py", 1, 3)]),
    (20, ALICE, "add regression tests for parser",
     [("tests/test_app.py", 0, 30)]),
    (40, BOB, "rework utility helpers",
     [("core/util.py", 5, 5), ("core/app.py", 1, 1)]),
    (45, ALICE, "add project logo asset",
     [("assets/logo.bin", -1, 0)]),  # -1 marks a binary write
]

_SIDE_COMMITS = [
    (50, DANA, "draft extra feature module", [("feature/extra.py", 0, 12)]),
    (52, DANA, "resolve breakage in extra module", [("feature/extra.py", 1, 4)]),
]

_MERGE = (55, ALICE, "merge extra feature draft")

_POST_MERGE_COMMITS = [
    (70, CAROL, "improve error reporting for bad input",
     [("core/util.py", 2, 2)]),
    (100, ALICE, "expand parser into its own module",
     [("core/parser.py", 0, 25), ("core/app.py", 6, 4)]),
    (130, BOB, "patch memory leak in parser loop",
     [("core/parser.py", 1, 2)]),
    (145, ALICE, "expand user guide and web ui",
     [("docs/guide.js", 0, 40), ("web/ui.ts", 0, 18)]),
    (160, BOB, "solve slow path in io layer",
     [("core/io.py", 0, 30), ("core/app.py", 2, 2)]),
    (190, CAROL, "rework parser internals",
     [("core/parser.py", 4, 12), ("core/util.py", 1, 3)]),
    (215, ALICE, "fix error in guide examples",
     [("docs/guide.js", 2, 5), ("core/app.py", 0, 1)]),
    (230, BOB, "extend io buffering",
     [("core/io.py", 3, 6), ("web/ui.ts", 1, 2)]),
    (245, ALICE, "fix regression in parser edge case",
     [("core/parser.py", 2, 3)]),
    (260, CAROL, "correct io buffer overrun",
     [("core/io.py", 2, 2), ("core/app.py", 1, 1)]),
    (275, BOB, "patch ui rendering glitch",
     [("web/ui.ts", 1, 2)]),
    (300, ALICE, "fix io flush on shutdown",
     [("core/io.py", 1, 1)]),
    (330, ALICE, "update contributor notes",
     [("README.md", 0, 5)]),
]

# tag -> (name, annotated, commit message to tag, tagger day)
_TAGS = {
    "add command parsing layer": ("v0.1", False, None),
    "add project logo asset": ("v0.2", True, 52),
    "improve error reporting for bad input": ("v0.3", True, 71),
    "patch memory leak in parser loop": ("v0.4", True, 137),
    "extend io buffering": ("v1.0", True, 240),
}

FIRST_PARENT_COMMITS = 20
ALL_COMMITS = 22
FIRST_PARENT_RECORDS = 29
FIRST_PARENT_FIXES = 9
RELEASE_DAYS = {"v0.1": 5, "v0.2": 45, "v0.3": 70, "v0.4": 130, "v1.0": 230}


def _git(repo: Path, *args: str, env: dict[str, str] | None = None) -> str:
    merged = os.environ.copy()
    if env:
        merged.update(env)
    out = subprocess.run(
        ["git", "-C", str(repo), *args],
        check=True,
        capture_output=True,
        text=True,
        env=merged,
    )
    return out.stdout


def _identity_env(day: int, author: tuple[str, str]) -> dict[str, str]:
    stamp = f"@{T0 + day * DAY} +0000"
    name, email = author
    return {
        "GIT_AUTHOR_NAME": name,
        "GIT_AUTHOR_EMAIL": email,
        "GIT_AUTHOR_DATE": stamp,
        "GIT_COMMITTER_NAME": name,
        "GIT_COMMITTER_EMAIL": email,
        "GIT_COMMITTER_DATE": stamp,
    }


class _Tree:
    """Line-accurate worktree: removals from the top, fresh unique lines
    appended at the bottom."""

    def __init__(self, root: Path):
        self.root = root
        self.files: dict[str, list[str]] = {}
        self.counter = 0

    def apply(self, path: str, remove_top: int, add_count: int) -> None:
        target = self.root / path
        target.parent.mkdir(parents=True, exist_ok=True)
        if remove_top < 0:  # binary file
            target.write_bytes(bytes(range(256)) * 4)
            return
        lines = self.files.setdefault(path, [])
        del lines[:remove_top]
        for _ in range(add_count):
            self.counter += 1
            lines.append(f"line {self.counter:05d} of {path}")
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")


def build_fixture_repo(repo: Path) -> None:
    repo.mkdir(parents=True, exist_ok=True)
    _git(repo.parent, "init", "-q", "-b", "main", str(repo))
    tree = _Tree(repo)

    def commit(day, author, message, changes):
        for path, remove_top, add_count in changes:
            tree.apply(path, remove_top, add_count)
        _git(repo, "add", "-A")
        _git(repo, "commit", "-q", "-m", message, env=_identity_env(day, author))
        _maybe_tag(message, day, author)

    def _maybe_tag(message, day, author):
        tag = _TAGS.get(message)
        if tag is None:
            return
        name, annotated, tagger_day = tag
        if annotated:
            _git(
                repo,
                "tag",
                "-a",
                name,
                "-m",
                f"release {name}",
                env=_identity_env(tagger_day, author),
            )
        else:
            _git(repo, "tag", name)

    for entry in _MAIN_COMMITS:
        commit(*entry)

    _git(repo, "checkout", "-q", "-b", "side")
    for entry in _SIDE_COMMITS:
        commit(*entry)
    _git(repo, "checkout", "-q", "main")
    day, author, message = _MERGE
    _git(
        repo,
        "merge",
        "-q",
        "--no-ff",
        "side",
        "-m",
        message,
        env=_identity_env(day, author),
    )

    for entry in _POST_MERGE_COMMITS:
        commit(*entry)


def _commit_files(repo: Path, day: int, message: str, files: dict[str, str]) -> None:
    for path, text in files.items():
        target = repo / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8", newline="")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", message, env=_identity_env(day, ALICE))


def _init(repo: Path) -> None:
    repo.mkdir(parents=True, exist_ok=True)
    _git(repo.parent, "init", "-q", "-b", "main", str(repo))


# Paths git C-quotes in its line-based output even with core.quotepath=false
# (a quote, a backslash, control characters), a non-ASCII name, and names
# that look like git's rename notation. Each file holds as many lines as its
# value says; the second commit appends one line to the first path.
ODD_PATHS = {
    'src/we"ird.py': 2,
    "src/back\\slash.py": 3,
    "src/tab\there.py": 4,
    "src/cr\rname.py": 5,
    "src/new\nline.py": 6,
    "src/ctl\x01name.py": 7,
    "src/naïve.py": 8,
    "src/a => b.py": 9,
    "src/{old => new}.py": 10,
}


def build_odd_paths_repo(repo: Path) -> None:
    _init(repo)
    contents = {
        path: "".join(f"line {i} of {path!r}\n" for i in range(count))
        for path, count in ODD_PATHS.items()
    }
    _commit_files(repo, 0, "import odd file names", contents)
    first = next(iter(ODD_PATHS))
    _commit_files(repo, 1, "fix quoting bug", {first: contents[first] + "one more\n"})


# Two file names that differ only in a byte that is not UTF-8 (0xE9 and
# 0xE8 after "caf"); both decode to "caf\ufffd.py". On a POSIX file system
# the surrogate escapes below become those raw bytes.
UNDECODABLE_PATHS = ("caf\udce9.py", "caf\udce8.py")


def build_undecodable_paths_repo(repo: Path) -> None:
    _init(repo)
    _commit_files(repo, 0, "add two cafes", {p: f"{p!r}\n" for p in UNDECODABLE_PATHS})


# A module moved to another directory with two lines appended, and a file
# renamed in place without edits.
RENAME_LINES = 10


def build_rename_repo(repo: Path) -> None:
    _init(repo)
    module = "".join(f"module line {i}\n" for i in range(RENAME_LINES))
    keep = "".join(f"kept line {i}\n" for i in range(RENAME_LINES))
    _commit_files(repo, 0, "add module", {"pkg/old/mod.py": module, "lib/keep.py": keep})
    (repo / "pkg/old/mod.py").unlink()
    (repo / "lib/keep.py").unlink()
    _commit_files(
        repo,
        1,
        "move module",
        {"pkg/new/mod.py": module + "added 1\nadded 2\n", "lib/kept.py": keep},
    )


def build_two_commit_repo(repo: Path, messages: tuple[str, str]) -> list[str]:
    """Two commits, each adding its own one-line file; returns the blob ids
    of the added files, oldest first. A message is passed through a file,
    so it may be longer than a command-line argument can be."""
    _init(repo)
    blobs = []
    for day, (name, message) in enumerate(zip(("first.py", "second.py"), messages)):
        (repo / name).write_text(f"{name}\n", encoding="utf-8")
        message_file = repo.parent / f"{repo.name}-message-{day}.txt"
        message_file.write_text(message, encoding="utf-8")
        _git(repo, "add", name)
        _git(repo, "commit", "-q", "-F", str(message_file), env=_identity_env(day, ALICE))
        blobs.append(_git(repo, "rev-parse", f"HEAD:{name}").strip())
    return blobs


def delete_loose_object(repo: Path, object_id: str) -> None:
    """Corrupt the repository: git fails when it needs this object."""
    (repo / ".git" / "objects" / object_id[:2] / object_id[2:]).unlink()
