"""Synthetic change histories with planted effect strengths.

Generates cache-level histories (records + releases) in which a chosen
belief metric is coupled to post-release fix counts with a target Spearman
strength, so the full pipeline can be validated against known ground truth.

Layout guarantees that make the planted effect exact: every window uses its
own unique file paths, and all planted fix commits land in a tail region
after the last release that still falls inside every window's post horizon.
Pre-period commits of later windows therefore never touch earlier windows'
files, and each file's post-horizon fix count equals its planted count.
"""

from __future__ import annotations

import logging
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.random  # noqa: F401  (np.random.default_rng below)

from .config import DEFAULTS, SECONDS_PER_DAY, ScenarioError, post_days_error, read_key_values
from .config import _parse_float, _parse_int
from .ingest import ChangeRecord, Release
from .labeling import DEFAULT_STEMS, classify_message
from .stats import spearman

logger = logging.getLogger(__name__)

SUPPORTED_BELIEFS: tuple[str, ...] = ("B2", "B3", "B8", "B9")

_BASE_TIME = 1_500_000_000
_MIN_SPACING = 600
_AUTHOR_POOL = tuple(f"dev{i:02d}@example.com" for i in range(12))
_NEUTRAL_WORDS = (
    "update",
    "refactor",
    "extend",
    "document",
    "polish",
    "tune",
    "rework",
    "adjust",
)
_CALIBRATION_TOLERANCE = 0.04
_PROBE_WINDOWS = 48


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one synthetic history."""

    releases: int = 51
    files_min: int = 30
    files_max: int = 50
    planted_belief: str | None = "B3"
    planted_strength: float = 0.7
    noise_seed: int = 1
    bug_fix_rate: float = 0.15
    post_days: int = DEFAULTS.post_days

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.releases < 2:
            raise ScenarioError("releases: must be >= 2")
        if self.files_min < 1 or self.files_max < self.files_min:
            raise ScenarioError("files_per_release: need 1 <= min <= max")
        if self.planted_belief is not None and self.planted_belief not in SUPPORTED_BELIEFS:
            supported = ", ".join(SUPPORTED_BELIEFS)
            raise ScenarioError(
                f"planted_belief: {self.planted_belief!r} unsupported; "
                f"use one of {supported}, or none"
            )
        if not 0.0 <= self.planted_strength <= 1.0:
            raise ScenarioError("planted_strength: must lie in [0, 1]")
        # numpy seeds only from non-negative integers
        if self.noise_seed < 0:
            raise ScenarioError("noise_seed: must be >= 0")
        if not 0.0 <= self.bug_fix_rate <= 1.0:
            raise ScenarioError("bug_fix_rate: must lie in [0, 1]")
        # assess's own range, which also keeps every commit time, drawn as a
        # signed 64-bit integer, below 2**33
        if (error := post_days_error(self.post_days)) is not None:
            raise ScenarioError(error)
        if _spacing(self) < _MIN_SPACING:
            raise ScenarioError(
                "releases: too many releases to fit inside the post_days horizon"
            )


def _spacing(spec: ScenarioSpec) -> int:
    """Seconds between releases, chosen so the whole release train ends
    well before the earliest window's post horizon does."""
    horizon = spec.post_days * SECONDS_PER_DAY
    return min(SECONDS_PER_DAY, horizon // (2 * max(1, spec.releases - 2)))


def _last_time(spec: ScenarioSpec) -> int:
    """Time of the history's last commit: a minute past the last release's
    post horizon."""
    last_release = _BASE_TIME + (spec.releases - 1) * _spacing(spec)
    return last_release + spec.post_days * SECONDS_PER_DAY + 60


def _parse_file_range(raw: str) -> tuple[int, int]:
    parts = [_parse_int(p) for p in raw.split(",")]
    if len(parts) == 1:
        return parts[0], parts[0]
    if len(parts) == 2:
        return parts[0], parts[1]
    raise ValueError("expected 'n' or 'min,max'")


_SCENARIO_PARSERS = {
    "releases": _parse_int,
    "files_per_release": _parse_file_range,
    "planted_belief": lambda raw: None if raw.lower() == "none" else raw,
    "planted_strength": _parse_float,
    "noise_seed": _parse_int,
    "bug_fix_rate": _parse_float,
    "post_days": _parse_int,
}


def parse_scenario_file(path: str | Path) -> ScenarioSpec:
    """Parse a flat key = value scenario file into a spec, which validates
    itself."""
    values = read_key_values(path, _SCENARIO_PARSERS, ScenarioError)
    if "files_per_release" in values:
        values["files_min"], values["files_max"] = values.pop("files_per_release")
    return ScenarioSpec(**values)  # type: ignore[arg-type]


def _plant_xy(
    rng: np.random.Generator, n: int, belief: str, mix: float, exact: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one window's planted metric values x and fix counts y.

    A latent uniform v orders the files; x is a monotone (nondecreasing)
    function of that order per belief, and y blends the order with fresh
    noise at the calibrated mix. With exact=True, y is the raw rank, so a
    strictly increasing x (B3/B9) yields Spearman rho of exactly 1.
    """
    v = rng.random(n)
    ranks = np.empty(n, dtype=np.int64)
    ranks[np.argsort(v)] = np.arange(1, n + 1)
    if belief in ("B3", "B9"):
        # strictly increasing in rank: step 3 dominates the 0..2 jitter
        x = 10 + 3 * (ranks - 1) + rng.integers(0, 3, size=n)
    elif belief == "B2":
        x = 1 + (v * 9).astype(np.int64)
    elif belief == "B8":
        x = 1 + (v * 14).astype(np.int64)
    else:
        raise ValueError(f"no planting scheme for {belief}")
    if exact:
        y = ranks.copy()
    else:
        normalized = (ranks - 0.5) / n
        blended = mix * normalized + (1.0 - mix) * rng.random(n)
        y = (blended * 10).astype(np.int64)
    return x, y


def _probe_median_rho(spec: ScenarioSpec, mix: float) -> float:
    """Realized median Spearman rho of the planting scheme at a given mix,
    measured on a fixed probe sample."""
    rng = np.random.default_rng(
        [spec.noise_seed, 9173, int(mix * 1e9) & 0x7FFFFFFF]
    )
    n = max(4, (spec.files_min + spec.files_max) // 2)
    rhos = []
    for _ in range(_PROBE_WINDOWS):
        x, y = _plant_xy(rng, n, spec.planted_belief or "B3", mix, exact=False)
        rhos.append(spearman([float(v) for v in x], [int(v) for v in y], exact_p=False).rho)
    return statistics.median(rhos)


def calibrate_mix(spec: ScenarioSpec) -> float:
    """Binary-search the order/noise mix until the probe's realized median
    rho is within tolerance of the target strength. When the target exceeds
    what the scheme's ties allow, the search saturates at full coupling."""
    if spec.planted_belief is None or spec.planted_strength <= 0.0:
        return 0.0
    if spec.planted_strength >= 1.0:
        return 1.0
    low, high = 0.0, 1.0
    mid = 0.5
    for _ in range(20):
        mid = (low + high) / 2
        realized = _probe_median_rho(spec, mid)
        if abs(realized - spec.planted_strength) <= _CALIBRATION_TOLERANCE:
            return mid
        if realized < spec.planted_strength:
            low = mid
        else:
            high = mid
    logger.warning(
        "calibration did not converge for %s at strength %.2f; using mix %.4f",
        spec.planted_belief,
        spec.planted_strength,
        mid,
    )
    return mid


def _fix_message(rng: np.random.Generator, path: str) -> str:
    stem = DEFAULT_STEMS[int(rng.integers(0, len(DEFAULT_STEMS)))]
    return f"{stem}: adjust {path}"


def _neutral_message(rng: np.random.Generator, path: str) -> str:
    word = _NEUTRAL_WORDS[int(rng.integers(0, len(_NEUTRAL_WORDS)))]
    return f"{word} {path} block {int(rng.integers(0, 1000))}"


def generate(spec: ScenarioSpec) -> tuple[list[ChangeRecord], list[Release]]:
    """Produce a deterministic synthetic history for the scenario.

    Returns records sorted by (time, commit id, path) and releases with
    ordinals 1..R; both satisfy every cache-format invariant, so the output
    is interchangeable with mined data.
    """
    mix = calibrate_mix(spec)
    rng = np.random.default_rng(spec.noise_seed)
    belief = spec.planted_belief
    horizon = spec.post_days * SECONDS_PER_DAY
    spacing = _spacing(spec)
    release_times = [
        _BASE_TIME + (r - 1) * spacing for r in range(1, spec.releases + 1)
    ]
    releases = [
        Release(tag_name=f"r{r:04d}", release_time=time, ordinal=r)
        for r, time in enumerate(release_times, start=1)
    ]
    # the tail must sit after the last release yet inside the earliest
    # (hence every) window's post horizon
    tail_low = release_times[-1] + 60
    tail_high = release_times[1] + horizon - 60
    exact = belief is not None and spec.planted_strength >= 1.0

    records: list[ChangeRecord] = []

    def add_commit(
        time: int, path: str, insertions: int, deletions: int, author: str | None, fix: bool
    ) -> None:
        """Record one commit; a None author is drawn from the pool, after
        the caller's time and churn draws and before the message's."""
        if author is None:
            author = _AUTHOR_POOL[int(rng.integers(0, len(_AUTHOR_POOL)))]
        message = (
            _fix_message(rng, path) if fix else _neutral_message(rng, path)
        )
        labeled, _ = classify_message(message)
        if labeled != fix:
            raise RuntimeError(f"message vocabulary drift: {message!r}")
        records.append(
            ChangeRecord(
                commit_id=f"{len(records) + 1:040x}",
                commit_time=time,
                author=author,
                file_path=path,
                insertions=insertions,
                deletions=deletions,
                is_bug_fix=labeled,
            )
        )

    planned_fixes: list[tuple[str, int]] = []
    for window in range(2, spec.releases + 1):
        # window r spans (t_{r-1}, t_r]
        pre_low, pre_high = release_times[window - 2] + 1, release_times[window - 1]
        n_files = int(rng.integers(spec.files_min, spec.files_max + 1))
        paths = [f"w{window:04d}/f{i:03d}.py" for i in range(n_files)]
        if belief is None:
            x = 1 + rng.integers(0, 200, size=n_files)
            y = rng.poisson(1.2, size=n_files)
        else:
            x, y = _plant_xy(rng, n_files, belief, mix, exact)
        for path, value, fix_count in zip(paths, x.tolist(), y.tolist()):
            flagged_fix = bool(rng.random() < spec.bug_fix_rate)
            # B2 plants the value as distinct authors, B8 as commits; every
            # other scheme makes one commit by a random author
            if belief == "B2":
                chosen = rng.permutation(len(_AUTHOR_POOL))[:value].tolist()
                authors: list[str | None] = [_AUTHOR_POOL[i] for i in chosen]
            else:
                authors = [None] * (value if belief == "B8" else 1)
            for author in authors:
                time = int(rng.integers(pre_low, pre_high + 1))
                if belief in ("B2", "B8"):
                    churn = (1 + int(rng.integers(0, 50)), int(rng.integers(0, 20)))
                elif belief == "B9":
                    churn = (int(rng.integers(0, 60)), value)
                else:  # B3 and the null scheme both carry the value as insertions
                    churn = (value, int(rng.integers(0, 60)))
                add_commit(time, path, *churn, author, flagged_fix)
            if fix_count > 0:
                planned_fixes.append((path, fix_count))

    for path, count in planned_fixes:
        for _ in range(count):
            time = int(rng.integers(tail_low, tail_high + 1))
            churn = (int(rng.integers(0, 8)), 1 + int(rng.integers(0, 8)))
            add_commit(time, path, *churn, None, True)

    # a trailing neutral commit past the farthest horizon marks the history
    # as fully observed; without it every window would read as censored
    add_commit(_last_time(spec), "meta/observed.py", 1, 0, None, False)

    records.sort(key=lambda r: (r.commit_time, r.commit_id, r.file_path))
    return records, releases
