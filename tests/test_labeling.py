"""Tests for bug-fix message classification and keyword loading."""

import random

import pytest

from beliefminer.labeling import (
    DEFAULT_STEMS,
    KeywordSet,
    classify_message,
    load_keyword_file,
)

from oracles import classify_message_loop


def test_default_stem_inventory():
    assert len(DEFAULT_STEMS) == 29
    assert len(set(DEFAULT_STEMS)) == 29
    for expected in ("bug", "fix", "issu", "vulnerab", "resol", "wart"):
        assert expected in DEFAULT_STEMS
    for stem in DEFAULT_STEMS:
        assert stem == stem.lower()
        assert " " not in stem


@pytest.mark.parametrize(
    "message,matched",
    [
        ("Fixes the parser crash", ["crash", "fix"]),
        ("fixing a bug in the tokenizer", ["bug", "fix"]),
        ("Resolved issue #42", ["issu", "resol"]),
        ("investigate memory pressure", ["investigat", "memory"]),
        ("BUG: off-by-one", ["bug"]),
        ("patch memory leak in parser loop", ["memory", "patch"]),
    ],
)
def test_classify_positive(message, matched):
    is_fix, stems = classify_message(message)
    assert is_fix
    assert stems == matched


@pytest.mark.parametrize(
    "message",
    [
        "add new feature",
        "update readme",
        "refactor parsing layer",
        "prefix all names with ns_",  # embedded 'fix' must not match
        "hotfix rollout notes",  # 'hotfix' does not start with 'fix'
        "",
        "   \n\t ",
    ],
)
def test_classify_negative(message):
    is_fix, stems = classify_message(message)
    assert not is_fix
    assert stems == []


def test_classify_token_prefix_semantics():
    # derivative forms match through the stem prefix
    assert classify_message("debugging session")[1] == ["debug"]
    assert classify_message("errors everywhere")[1] == ["error"]
    # punctuation splits tokens; digits stay inside them
    assert classify_message("fix,bug;crash")[1] == ["bug", "crash", "fix"]
    assert classify_message("fix2: follow-up")[0] is True
    assert classify_message("2fix: follow-up")[0] is False


def test_classify_matched_list_sorted_and_deduped():
    is_fix, stems = classify_message("fix fix fixed fixes bug bugs")
    assert is_fix
    assert stems == ["bug", "fix"]


def test_custom_keyword_set():
    kw = KeywordSet(("regress",))
    assert classify_message("regression found", kw) == (True, ["regress"])
    assert classify_message("fix the build", kw) == (False, [])


@pytest.mark.parametrize(
    "stems",
    [(), ("",), ("Fix",), ("two words",), ("ok", "bad stem"), ("a-b",), ("fix", "é")],
)
def test_keyword_set_rejects_bad_stems(stems):
    with pytest.raises(ValueError):
        KeywordSet(stems)


def test_load_keyword_file_replaces_defaults(tmp_path):
    path = tmp_path / "kw.txt"
    path.write_text("# comment\nregress\n\n  LEAK  \n", encoding="utf-8")
    kw = load_keyword_file(path)
    assert kw.stems == ("regress", "leak")
    assert classify_message("fix it", kw) == (False, [])


def test_load_keyword_file_extend_appends(tmp_path):
    path = tmp_path / "kw.txt"
    path.write_text("regress\nfix\n", encoding="utf-8")
    kw = load_keyword_file(path, extend=True)
    assert kw.stems[: len(DEFAULT_STEMS)] == DEFAULT_STEMS
    assert kw.stems[len(DEFAULT_STEMS) :] == ("regress",)  # 'fix' already present


def test_load_keyword_file_empty_fails(tmp_path):
    path = tmp_path / "kw.txt"
    path.write_text("# only comments\n\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_keyword_file(path)


# The message vocabulary of the benchmark's git-history generator.
_FIX_PHRASES = (
    "fix", "fixed", "bug in", "resolve crash in", "correct handling of",
    "patch error path of", "solve problem with", "debug failure in",
    "repair broken", "address issue in",
)
_NEUTRAL_VERBS = (
    "add", "update", "refactor", "extend", "document", "rename", "move",
    "clean up", "tune", "rework", "adjust", "split", "simplify",
)
_NEUTRAL_NOUNS = (
    "parser", "loader", "cache", "handler", "options", "layout", "index",
    "walker", "helpers", "settings", "encoder", "scheduler",
)


def _benchmark_style_messages(count: int, seed: int = 0) -> list[str]:
    rng = random.Random(seed)
    messages = []
    for i in range(count):
        stem = f"mod{i:04d}"
        if rng.random() < 0.35:
            subject = f"{rng.choice(_FIX_PHRASES)} {stem}"
        else:
            subject = f"{rng.choice(_NEUTRAL_VERBS)} {rng.choice(_NEUTRAL_NOUNS)} in {stem}"
        if rng.random() < 0.25:
            subject += f"\n\nKeeps the {rng.choice(_NEUTRAL_NOUNS)} layout stable.\nSee {stem}."
        messages.append(subject)
    return messages


_ORACLE_MESSAGES = [
    "",
    "   \n\t ",
    "Fixes the parser crash",
    "fixe fixes fixer: prefix suffix",
    "hotfix, bugfix; fix-up/fix_up (fix)",
    "fix2 2fix f1x 404 error e404",
    "...!!!???",
    "a-b a_b ab-c",
    "Fixé le bogue — ÉRROR résolu",
    "é éfix fixé",
    "\u212aernel bug",  # KELVIN SIGN lowercases to an ASCII k
    "FİX the İSSUE",  # dotted capital I lowercases to i + combining dot
    "ſolve ﬁx",  # long s and the fi ligature stay non-ASCII
    "ＦＩＸ full-width",
    "\u0661\u0662 bug٣",  # Arabic-Indic digits are not token characters
    "DEBUG: Resolved issue #42 (memory)\r\n\r\nSigned-off-by: x",
    *_benchmark_style_messages(400),
]


@pytest.mark.parametrize(
    "keywords",
    [
        None,
        KeywordSet(("fix", "fixe")),
        KeywordSet(("bug", "fix", "bug", "fix", "fixe", "fix")),
        KeywordSet(("fix", "ab")),
        KeywordSet(DEFAULT_STEMS + ("f", "e4", "4")),
    ],
    ids=["default", "overlapping", "duplicated", "non-alphanumeric", "short"],
)
def test_classify_equals_loop_reference(keywords):
    for message in _ORACLE_MESSAGES:
        assert classify_message(message, keywords) == classify_message_loop(
            message, keywords
        ), message
