"""Seeded benchmark inputs and the ground truth they were built from.

Each workload's inputs are a pure function of (workload, seed, generator
version). Prepared inputs live in an on-disk cache under the checkout so a
repeated run with the same seed skips generation; the ground truth is stored
next to them in ``truth.json`` and is what the output checks compare against.

- ``git-history``: one linear git repository written by a single
  ``git fast-import`` stream, with annotated release tags.
- ``synth-narrow``: a corpus of small synthetic caches from
  ``beliefminer.synthgen``, one per project.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import shutil
import subprocess
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

# Bump whenever any generator below changes what it writes.
GENERATOR_VERSION = 5

# Prepared inputs kept in the cache; older entries are evicted.
CACHE_ENTRIES = 32

# The paper's bug-fix keyword stems. The git-history generator composes fix
# messages from them and neutral messages from words that match none, so the
# fix count is known without asking the labeler under test.
FIX_STEMS = (
    "bug", "fix", "issu", "error", "correct", "proper", "deprecat", "broke",
    "optimize", "patch", "solve", "slow", "obsolete", "vulnerab", "debug",
    "perf", "memory", "minor", "wart", "better", "complex", "break",
    "investigat", "compile", "defect", "inconsist", "crash", "problem", "resol",
)
FIX_PHRASES = (
    "fix", "fixed", "bug in", "resolve crash in", "correct handling of",
    "patch error path of", "solve problem with", "debug failure in",
    "repair broken", "address issue in",
)
NEUTRAL_VERBS = (
    "add", "update", "refactor", "extend", "document", "rename", "move",
    "clean up", "tune", "rework", "adjust", "split", "simplify",
)
NEUTRAL_NOUNS = (
    "parser", "loader", "cache", "handler", "options", "layout", "index",
    "walker", "helpers", "settings", "encoder", "scheduler",
)

SOURCE_EXTENSIONS = ("py", "java", "c", "go", "js", "rb")
WORKLOADS = ("git-history", "synth-narrow")

_YEAR = 365 * 86400


@dataclass(frozen=True)
class GitHistorySize:
    commits: int = 8000
    tags: int = 80
    authors: int = 48
    files: int = 320
    years: float = 4.0
    fix_rate: float = 0.35
    max_files_per_commit: int = 5


@dataclass(frozen=True)
class SynthProject:
    name: str
    releases: int
    files_min: int
    files_max: int
    planted_belief: str | None
    planted_strength: float


# synth-narrow: windows of 6 or 7 files, so almost every Spearman call
# enumerates all permutations. File counts are fixed per project so every
# seed does the same amount of exact work. n = 5 is avoided because its
# smallest exact p (2/120) can never pass alpha = 0.01, and the tie-heavy B2
# and B8 plantings need n = 7 to stay significant in every window.
# Seven releases give six windows, so report's growth/decay test, which is
# exact for 4 to 8 scores, never sees more than six: the B2 and B8 plantings
# make other beliefs significant in a seed-dependent number of windows, and
# with more windows an 8! enumeration came and went with the seed.
SYNTH_NARROW = (
    SynthProject("p1_B2", 7, 7, 7, "B2", 1.0),
    SynthProject("p2_B3", 7, 6, 6, "B3", 1.0),
    SynthProject("p3_B8", 7, 7, 7, "B8", 1.0),
    SynthProject("p4_B9", 7, 6, 6, "B9", 1.0),
    SynthProject("p5_null", 7, 7, 7, None, 0.0),
)

GIT_HISTORY = GitHistorySize()


def describe(workload: str) -> dict:
    """Size parameters of a workload, as recorded in the benchmark manifest."""
    if workload == "git-history":
        return asdict(GIT_HISTORY)
    return {"projects": [asdict(p) for p in SYNTH_NARROW]}


# ---------------------------------------------------------------------------
# git-history


def _file_universe(rng: random.Random, count: int) -> list[tuple[str, bool]]:
    """(path, is_source) pairs: about 70% source files, 15% files under a
    test path and 15% files with a non-source extension."""
    files = []
    for i in range(count):
        kind = rng.random()
        package = f"pkg{rng.randrange(12):02d}"
        if kind < 0.70:
            ext = SOURCE_EXTENSIONS[rng.randrange(len(SOURCE_EXTENSIONS))]
            files.append((f"src/{package}/mod{i:04d}.{ext}", True))
        elif kind < 0.85:
            ext = SOURCE_EXTENSIONS[rng.randrange(len(SOURCE_EXTENSIONS))]
            files.append((f"tests/{package}/test_mod{i:04d}.{ext}", False))
        else:
            ext = ("md", "yml", "txt", "json")[rng.randrange(4)]
            files.append((f"docs/{package}/note{i:04d}.{ext}", False))
    return files


def _message(rng: random.Random, is_fix: bool, path: str) -> str:
    stem = path.rsplit("/", 1)[-1].split(".", 1)[0]
    if is_fix:
        subject = f"{FIX_PHRASES[rng.randrange(len(FIX_PHRASES))]} {stem}"
    else:
        verb = NEUTRAL_VERBS[rng.randrange(len(NEUTRAL_VERBS))]
        noun = NEUTRAL_NOUNS[rng.randrange(len(NEUTRAL_NOUNS))]
        subject = f"{verb} {noun} in {stem}"
    if rng.random() < 0.25:
        noun = NEUTRAL_NOUNS[rng.randrange(len(NEUTRAL_NOUNS))]
        subject += f"\n\nKeeps the {noun} layout stable.\nSee {stem}."
    return subject


def _data(payload: bytes) -> bytes:
    return b"data %d\n" % len(payload) + payload + b"\n"


def git_history_stream(seed: int, size: GitHistorySize = GIT_HISTORY) -> tuple[bytes, dict]:
    """One fast-import stream for a linear history, and its ground truth.

    Commit times rise strictly, every commit changes the content of each file
    it lists, and tags sit on evenly spaced commits, so the counts in the
    truth are exactly what a first-parent ``git log --numstat`` walk sees.
    """
    rng = random.Random(seed)
    files = _file_universe(rng, size.files)
    file_weights = [1.0 / (i + 1) ** 0.8 for i in range(len(files))]
    rng.shuffle(file_weights)
    file_cum = list(itertools.accumulate(file_weights))
    # Fix commits pick files by the square of their popularity, so defects
    # concentrate in the busiest files, and every belief is significant in
    # well over eight windows (B6 in 13-49 of 79 over 15 seeds). When fixes
    # picked files like other commits, B6 (recency of the last fix) was
    # significant in only 2-11 windows, and on seeds where that was 7 or 8,
    # report's exact trend test for it enumerated up to 8! permutations,
    # tripling report's work. Cubed weights left so few fixed files per
    # window that assess's B6 correlations went exact on some seeds instead;
    # squared weights with a 30% fix rate still left 2 seeds in 26 at 8.
    fix_cum = list(itertools.accumulate(w * w for w in file_weights))
    authors = [f"dev{i:02d}@example.org" for i in range(size.authors)]
    author_cum = list(itertools.accumulate(1.0 / (i + 1) for i in range(size.authors)))
    contents: dict[str, list[str]] = {}
    line_counter = 0

    start = 1_420_070_400  # 2015-01-01
    mean_gap = int(size.years * _YEAR / size.commits)
    tag_every = size.commits // size.tags
    out: list[bytes] = []
    fix_commits = records = fix_records = 0
    touches: dict[str, int] = {}
    tags: list[tuple[str, int]] = []
    window_source_files: list[set[str]] = [set()]
    now = start
    for index in range(size.commits):
        now += rng.randrange(mean_gap // 4, 2 * mean_gap - mean_gap // 4)
        if index == 0:
            first_time = now
        # the first commits cycle through every author so all of them appear
        if index < size.authors:
            author = authors[index]
        else:
            author = rng.choices(authors, cum_weights=author_cum)[0]
        width = rng.randint(1, size.max_files_per_commit)
        is_fix = rng.random() < size.fix_rate
        cum_weights = fix_cum if is_fix else file_cum
        picked: set[int] = set()
        while len(picked) < width:
            picked.add(rng.choices(range(len(files)), cum_weights=cum_weights)[0])
        paths = sorted(files[i][0] for i in picked)
        message = _message(rng, is_fix, paths[0]).encode()
        name = author.split("@", 1)[0]
        ident = f"{name} <{author}> {now} +0000".encode()
        out.append(b"commit refs/heads/main\nmark :%d\n" % (index + 1))
        out.append(b"author " + ident + b"\ncommitter " + ident + b"\n")
        out.append(_data(message))
        for i in sorted(picked):
            path, is_source = files[i]
            lines = contents.setdefault(path, [])
            del lines[: rng.randrange(0, min(len(lines), 6) + 1)]
            for _ in range(rng.randint(1, 12)):
                line_counter += 1
                lines.append(f"value {line_counter}\n")
            del lines[:-30]
            out.append(b"M 100644 inline " + path.encode() + b"\n")
            out.append(_data("".join(lines).encode()))
            touches[path] = touches.get(path, 0) + 1
            if is_source:
                window_source_files[-1].add(path)
        out.append(b"\n")
        records += len(picked)
        if is_fix:
            fix_commits += 1
            fix_records += len(picked)
        if (index + 1) % tag_every == 0 and len(tags) < size.tags:
            tag = f"v{len(tags) // 10}.{len(tags) % 10}.0"
            tags.append((tag, now))
            out.append(b"tag " + tag.encode() + b"\nfrom :%d\n" % (index + 1))
            out.append(b"tagger " + ident + b"\n")
            out.append(_data(f"release {tag}".encode()))
            window_source_files.append(set())
    # entry k holds the source files changed after tag k and up to tag k+1,
    # which is the pre period of window k+1; entry 0 precedes the first tag
    windows = window_source_files[1 : len(tags)]
    truth = {
        "commits": size.commits,
        "bug_fix_commits": fix_commits,
        "releases": len(tags),
        "developers": size.authors,
        "first_commit_time": first_time,
        "last_commit_time": now,
        "records": records,
        "fix_records": fix_records,
        "touches": touches,
        "windows": len(tags) - 1,
        "distinct_files": [len(w) for w in windows],
        "qualified_windows": sum(1 for w in windows if len(w) >= 3),
    }
    return b"".join(out), truth


def git_env() -> dict[str, str]:
    """Environment for git children that ignores the host's git config."""
    env = dict(os.environ)
    env.update(GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull, LC_ALL="C")
    return env


def build_git_history(seed: int, dest: Path, size: GitHistorySize = GIT_HISTORY) -> dict:
    stream, truth = git_history_stream(seed, size)
    repo = dest / "repo"
    env = git_env()
    subprocess.run(["git", "init", "-q", "-b", "main", str(repo)], check=True, env=env)
    subprocess.run(
        ["git", "-C", str(repo), "fast-import", "--quiet"],
        input=stream, check=True, env=env,
    )
    subprocess.run(
        ["git", "-C", str(repo), "symbolic-ref", "HEAD", "refs/heads/main"],
        check=True, env=env,
    )
    return truth


# ---------------------------------------------------------------------------
# synthetic caches


def build_synth(seed: int, dest: Path, projects: tuple[SynthProject, ...]) -> dict:
    """Write one synthgen cache per project, each in its own subdirectory of
    ``dest/caches``, and return the per-project truth."""
    from beliefminer.ingest import write_history, write_releases
    from beliefminer.synthgen import ScenarioSpec, generate

    truth = {}
    root = dest / "caches"
    for index, project in enumerate(projects):
        spec = ScenarioSpec(
            releases=project.releases,
            files_min=project.files_min,
            files_max=project.files_max,
            planted_belief=project.planted_belief,
            planted_strength=project.planted_strength,
            noise_seed=seed * 101 + index,
        )
        records, releases = generate(spec)
        out = root / project.name
        out.mkdir(parents=True, exist_ok=True)
        write_history(records, out / "history.jsonl")
        write_releases(releases, out / "releases.jsonl")
        # synthgen gives window r its own files, all named "w<r>/..."
        per_window = Counter(path.split("/", 1)[0] for path in {r.file_path for r in records})
        distinct = [per_window[f"w{r:04d}"] for r in range(2, project.releases + 1)]
        truth[project.name] = {
            "records": len(records),
            "windows": project.releases - 1,
            "distinct_files": distinct,
            "qualified_windows": sum(1 for n in distinct if n >= 3),
            "planted_belief": project.planted_belief,
            # B3 and B9 planted at full strength have Spearman rho exactly 1
            "exact_rho": project.planted_belief in ("B3", "B9")
            and project.planted_strength >= 1.0,
        }
    return {"projects": truth}


# ---------------------------------------------------------------------------
# cache


def cache_key(workload: str, seed: int, src_dir: Path) -> str:
    """Key of a prepared input: workload, seed, generator version, and for
    synth-narrow the source of the modules that generate it."""
    digest = hashlib.sha256(f"{workload}|{seed}|{GENERATOR_VERSION}".encode())
    if workload != "git-history":
        for module in ("synthgen.py", "ingest.py", "labeling.py", "stats.py"):
            digest.update((src_dir / "beliefminer" / module).read_bytes())
    return f"{workload}-seed{seed}-g{GENERATOR_VERSION}-{digest.hexdigest()[:12]}"


def prepare(workload: str, seed: int, cache_root: Path, src_dir: Path) -> tuple[Path, dict]:
    """Return (input directory, ground truth), generating on a cache miss."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    entry = cache_root / cache_key(workload, seed, src_dir)
    truth_path = entry / "truth.json"
    if not truth_path.exists():
        cache_root.mkdir(parents=True, exist_ok=True)
        staging = cache_root / f".staging-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir()
        try:
            if workload == "git-history":
                truth = build_git_history(seed, staging)
            else:
                truth = build_synth(seed, staging, SYNTH_NARROW)
            (staging / "truth.json").write_text(json.dumps(truth, sort_keys=True))
            shutil.rmtree(entry, ignore_errors=True)
            staging.rename(entry)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        _evict(cache_root)
    os.utime(entry)
    return entry, json.loads(truth_path.read_text())


def _evict(cache_root: Path) -> None:
    entries = sorted(
        (p for p in cache_root.iterdir() if p.is_dir() and not p.name.startswith(".")),
        key=lambda p: p.stat().st_mtime,
    )
    for stale in entries[:-CACHE_ENTRIES]:
        shutil.rmtree(stale, ignore_errors=True)

