"""Bug-fix commit labeling via stemmed keyword matching on commit messages."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

DEFAULT_STEMS: tuple[str, ...] = (
    "bug",
    "fix",
    "issu",
    "error",
    "correct",
    "proper",
    "deprecat",
    "broke",
    "optimize",
    "patch",
    "solve",
    "slow",
    "obsolete",
    "vulnerab",
    "debug",
    "perf",
    "memory",
    "minor",
    "wart",
    "better",
    "complex",
    "break",
    "investigat",
    "compile",
    "defect",
    "inconsist",
    "crash",
    "problem",
    "resol",
)

_TOKEN = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class KeywordSet:
    """Stems marking a commit message as bug-fixing; each is a whole token
    (lowercase ASCII letters and digits), or no token could start with it."""

    stems: tuple[str, ...] = DEFAULT_STEMS

    def __post_init__(self) -> None:
        if not self.stems:
            raise ValueError("keyword set must contain at least one stem")
        for stem in self.stems:
            if not _TOKEN.fullmatch(stem):
                raise ValueError(f"invalid keyword stem {stem!r}: not only a-z and 0-9")


_DEFAULT_KEYWORDS = KeywordSet()


def classify_message(
    message: str, keywords: KeywordSet | None = None
) -> tuple[bool, list[str]]:
    """Return (is_bug_fix, matched_stems) for a commit message.

    The message is lowercased and split on non-alphanumeric boundaries; a
    token matches a stem when it starts with the stem, so derivatives match
    ("resolved" matches "resol") while embedded occurrences do not
    ("prefix" does not match "fix").
    """
    stems = tuple((_DEFAULT_KEYWORDS if keywords is None else keywords).stems)
    # One C-level prefix test per token against all stems at once; only the
    # few tokens that pass are looked up, one prefix length at a time.
    hits = [token for token in set(_TOKEN.findall(message.lower())) if token.startswith(stems)]
    if not hits:
        return False, []
    stem_set = set(stems)
    lengths = {len(stem) for stem in stem_set}
    return True, sorted({token[:n] for token in hits for n in lengths} & stem_set)


def load_keyword_file(path: str | Path, extend: bool = False) -> KeywordSet:
    """Build a KeywordSet from a one-stem-per-line text file.

    Blank lines and lines starting with '#' are ignored, stems are
    lowercased. The file replaces the default stems unless extend is true,
    in which case its stems are appended to the defaults.
    """
    stems: list[str] = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        stem = raw.strip().lower()
        if stem and not stem.startswith("#"):
            stems.append(stem)
    if extend:
        merged = list(DEFAULT_STEMS)
        for stem in stems:
            if stem not in merged:
                merged.append(stem)
        stems = merged
    if not stems:
        raise ValueError(f"keyword file {path} contains no stems")
    return KeywordSet(tuple(stems))
