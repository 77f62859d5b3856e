"""Run configuration: every threshold and default in one place, the flat
key = value reader behind the config and scenario files, and the config
file that overrides the defaults.

This module imports nothing from the package, so every other module can
take its defaults from here.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Mapping
from dataclasses import dataclass, fields, replace
from pathlib import Path

# Extensions counted as source code; everything else is ignored by the
# windowing stage.
DEFAULT_EXTENSIONS: frozenset[str] = frozenset(
    {
        "java",
        "c",
        "cpp",
        "cc",
        "h",
        "hpp",
        "py",
        "js",
        "ts",
        "go",
        "rb",
        "cs",
        "scala",
        "kt",
        "rs",
        "php",
        "swift",
        "m",
        "groovy",
        "pl",
        "sh",
    }
)

# post_days and period_days are days; commit and release times are unix
# seconds.
SECONDS_PER_DAY = 86400


# The post-release horizon in days, for assess and synth alike: a century
# reaches past every later commit of any history.
POST_DAYS_RANGE = (1, 36_500)


def post_days_error(post_days: int) -> str | None:
    """Why post_days is out of POST_DAYS_RANGE, or None when it is in."""
    low, high = POST_DAYS_RANGE
    if low <= post_days <= high:
        return None
    return f"post_days: must lie in [{low}, {high}]"


class ConfigError(ValueError):
    """A config file or value is invalid; message names the offending key."""


class ScenarioError(Exception):
    """A scenario file or field is invalid; message names the field."""


@dataclass(frozen=True)
class Config:
    """Every tunable of a run; validated on construction, so
    dataclasses.replace re-validates too."""

    extensions: tuple[str, ...] = tuple(sorted(DEFAULT_EXTENSIONS))
    keyword_file: str | None = None
    extend_keywords: bool = False
    post_days: int = 182
    period_days: int = 14
    decay_rate: float = math.log(2)  # B1 weight halves per period
    min_files: int = 3
    min_observations: int = 4
    alpha: float = 0.01
    support_threshold: float = 0.40
    trend_threshold: float = 0.40
    bootstrap_iterations: int = 512
    a12_threshold: float = 0.56  # Vargha-Delaney "small" boundary
    seed: int = 0
    replication_mode: bool = False

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if not self.extensions:
            raise ConfigError("extensions: must not be empty")
        # A path's extension is the lowercased text after the last '.' of its
        # last segment, so it holds no '.', '/' or backslash.
        for ext in self.extensions:
            if ext != ext.lower() or any(ch in ext for ch in "./\\"):
                raise ConfigError(f"extensions: {ext!r} can never match a path's extension")
        if (error := post_days_error(self.post_days)) is not None:
            raise ConfigError(error)
        if self.period_days < 1:
            raise ConfigError("period_days: must be >= 1")
        if not 0 < self.decay_rate < math.inf:
            raise ConfigError("decay_rate: must be positive and finite")
        if self.min_files < 1:
            raise ConfigError("min_files: must be >= 1")
        if self.min_observations < 2:
            raise ConfigError("min_observations: must be >= 2")
        if not 0 < self.alpha < 1:
            raise ConfigError("alpha: must lie in (0, 1)")
        if not 0 < self.support_threshold < math.inf:
            raise ConfigError("support_threshold: must be positive and finite")
        if not 0 < self.trend_threshold < math.inf:
            raise ConfigError("trend_threshold: must be positive and finite")
        # Scott-Knott's bootstrap resamples in blocks of a fixed number of
        # cells, so its memory does not grow with the iterations; the bound
        # limits time only
        if not 100 <= self.bootstrap_iterations <= 10_000:
            raise ConfigError("bootstrap_iterations: must lie in [100, 10000]")
        if not 0 < self.a12_threshold <= 1:
            raise ConfigError("a12_threshold: must lie in (0, 1]")
        # the Scott-Knott split seeds hash it as a signed 64-bit integer
        if not -(2**63) <= self.seed < 2**63:
            raise ConfigError("seed: must lie in [-2**63, 2**63)")


# The one default instance; every keyword default that mirrors a Config
# field reads it from here.
DEFAULTS = Config()


# A '#' at the start of a line or after whitespace opens a comment.
_COMMENT = re.compile(r"(?:^|(?<=\s))#")


def read_key_values(
    path: str | Path,
    parsers: Mapping[str, Callable[[str], object]],
    error: type[Exception] = ConfigError,
) -> dict[str, object]:
    """Read a flat key = value file into {key: parsers[key](raw value)}.

    Blank lines and comments are skipped. A comment starts at a '#' that
    opens the line or follows whitespace, so a '#' inside a value, as in
    a path like dir/c#sharp/stems.txt, is kept. An unreadable file, a line
    without '=', an unknown or repeated key, or a value its parser rejects
    with ValueError raises `error`, with path:line for problems inside the
    file.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    values: dict[str, object] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw_line, 1)[0].strip()
        if not line:
            continue
        key, separator, raw = line.partition("=")
        key = key.strip()
        if not separator:
            raise error(f"{path}:{line_no}: expected 'key = value'")
        parse = parsers.get(key)
        if parse is None:
            raise error(f"{path}:{line_no}: unknown key {key!r}")
        if key in values:
            raise error(f"{path}:{line_no}: duplicate key {key!r}")
        try:
            values[key] = parse(raw.strip())
        except ValueError as exc:
            raise error(f"{path}:{line_no}: {key}: {exc}") from exc
    return values


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _parse_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None


def _parse_extensions(raw: str) -> tuple[str, ...]:
    parts = tuple(
        p.strip().lower().lstrip(".") for p in raw.split(",") if p.strip()
    )
    if not parts:
        raise ValueError("expected a comma-separated extension list")
    return parts


_PARSERS = {
    "extensions": _parse_extensions,
    "keyword_file": str,
    "extend_keywords": _parse_bool,
    "post_days": _parse_int,
    "period_days": _parse_int,
    "decay_rate": _parse_float,
    "min_files": _parse_int,
    "min_observations": _parse_int,
    "alpha": _parse_float,
    "support_threshold": _parse_float,
    "trend_threshold": _parse_float,
    "bootstrap_iterations": _parse_int,
    "a12_threshold": _parse_float,
    "seed": _parse_int,
    "replication_mode": _parse_bool,
}

assert set(_PARSERS) == {f.name for f in fields(Config)}


def load_config(path: str | Path, base: Config = DEFAULTS) -> Config:
    """Parse a flat key = value config file over the defaults (or a given
    base); unknown keys and malformed or out-of-range values raise
    ConfigError naming the key."""
    return replace(base, **read_key_values(path, _PARSERS))
