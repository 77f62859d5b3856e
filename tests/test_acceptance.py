"""Acceptance gate: oracle equivalence, planted-effect recovery, filter
fidelity, analytic entropy cases, metric invariants, and end-to-end
determinism. Each criterion prints a single PASS/FAIL line.
"""

import math
import statistics
from time import perf_counter

import numpy as np

from oracles import (
    a12_brute,
    exact_permutation_p,
    mc_permutation_p,
    metric_b1_hcm,
    metric_churn,
    scott_knott_brute,
    spearman_brute,
)

from beliefminer.analysis import (
    BELIEF_IDS,
    EXCLUDE_NOT_SIGNIFICANT,
    EXCLUDE_TOO_FEW,
    assess_project,
    support_label,
)
from beliefminer.cli import main
from beliefminer.ingest import ChangeRecord, Release, read_history, read_releases
from beliefminer.config import Config
from beliefminer.metrics import compute_all
from beliefminer.stats import Treatment, _t_approximation_p, a12, scott_knott, spearman
from beliefminer.synthgen import ScenarioSpec, generate
from beliefminer.windowing import (
    DefectCounts,
    ReleaseWindow,
    build_windows,
    count_post_defects,
    fix_times,
    qualify_window,
)

_DAY = 86400


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, detail or name


def _vector(rng: np.random.Generator, n: int) -> list[float]:
    """Random metric-like vector; half the draws are small integers so
    duplicate values are common."""
    if rng.random() < 0.5:
        return [float(v) for v in rng.integers(0, max(2, n // 2), size=n)]
    return [float(v) for v in rng.normal(size=n)]


def _varied(rng: np.random.Generator, n: int) -> list[float]:
    while True:
        values = _vector(rng, n)
        if min(values) < max(values):
            return values


def test_01_spearman_matches_oracle():
    rng = np.random.default_rng(101)
    start = perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(4, 51))
        x = _vector(rng, n)
        y = _vector(rng, n)
        got = spearman(x, y, exact_p=False).rho
        worst = max(worst, abs(got - spearman_brute(x, y)))
    elapsed = perf_counter() - start
    _verdict(
        "spearman-oracle",
        worst <= 1e-12 and elapsed < 5.0,
        f"worst deviation {worst:.3e}, elapsed {elapsed:.2f}s",
    )


def test_02_permutation_p_exact_and_t_close():
    rng = np.random.default_rng(202)
    worst_exact = 0.0
    for n in range(2, 8):
        for _ in range(25):
            x = _varied(rng, n)
            y = _varied(rng, n)
            got = spearman(x, y).p_value
            worst_exact = max(worst_exact, abs(got - exact_permutation_p(x, y)))
    worst_t = 0.0
    for n in range(8, 13):
        for _ in range(40):
            # continuous draws: the t curve is only a good stand-in for the
            # permutation distribution when ranks are not heavily tied
            x = [float(v) for v in rng.normal(size=n)]
            y = [float(v) for v in rng.normal(size=n)]
            score = spearman(x, y)
            if n == 8:
                # the library still enumerates here; probe the t formula
                t_p = _t_approximation_p(score.rho, n)
                reference = score.p_value
            else:
                t_p = score.p_value
                reference = mc_permutation_p(x, y, seed=int(rng.integers(2**32)))
            worst_t = max(worst_t, abs(t_p - reference))
    _verdict(
        "exact-p-values",
        worst_exact <= 1e-9 and worst_t <= 0.05,
        f"worst exact gap {worst_exact:.3e}, worst t gap {worst_t:.4f}",
    )


def test_03_a12_matches_pairwise_oracle():
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(500):
        m = _vector(rng, int(rng.integers(1, 31)))
        n = _vector(rng, int(rng.integers(1, 31)))
        ok = ok and a12(m, n) == a12_brute(m, n)
        ok = ok and a12(m, n) + a12(n, m) == 1.0
    _verdict("a12-oracle", ok)


def test_04_scott_knott_matches_exhaustive_oracle():
    rng = np.random.default_rng(404)
    start = perf_counter()
    mismatches = 0
    for _ in range(200):
        treatments = []
        for j in range(int(rng.integers(1, 6))):
            size = int(rng.integers(2, 21))
            if rng.random() < 0.3:
                values = [float(v) for v in rng.integers(0, 6, size=size)]
            else:
                center = float(rng.uniform(0.0, 12.0))
                spread = float(rng.uniform(0.2, 2.0))
                values = [float(v) for v in rng.normal(center, spread, size=size)]
            treatments.append(Treatment(label=f"T{j}", measurements=values))
        seed = int(rng.integers(0, 2**31))
        got = [
            [entry.label for entry in group.treatments]
            for group in scott_knott(treatments, seed=seed, iterations=512)
        ]
        if got != scott_knott_brute(treatments, seed, iterations=512):
            mismatches += 1
    elapsed = perf_counter() - start
    _verdict(
        "scott-knott-oracle",
        mismatches == 0 and elapsed < 30.0,
        f"{mismatches} grouping mismatches, elapsed {elapsed:.2f}s",
    )


def test_05_planted_effect_recovery():
    start = perf_counter()
    records, releases = generate(
        ScenarioSpec(releases=101, planted_belief="B3", planted_strength=0.7, noise_seed=5)
    )
    rhos = []
    for window in build_windows(releases, records):
        if not qualify_window(window):
            continue
        vector = metric_churn(window, count_post_defects(window, fix_times(records)), "added")
        rhos.append(spearman(vector.x, vector.y, exact_p=False).rho)
    planted_median = statistics.median(rhos) if rhos else 0.0

    records, releases = generate(
        ScenarioSpec(releases=201, planted_belief=None, noise_seed=6)
    )
    significant = 0
    total = 0
    null_windows = 0
    for window in build_windows(releases, records):
        if not qualify_window(window):
            continue
        null_windows += 1
        defects = count_post_defects(window, fix_times(records))
        for vector in compute_all(window, defects):
            if vector.n < 4:
                continue
            total += 1
            if spearman(vector.x, vector.y).p_value < 0.01:
                significant += 1
    null_share = significant / total if total else 1.0
    elapsed = perf_counter() - start
    _verdict(
        "planted-recovery",
        len(rhos) == 100
        and 0.6 <= planted_median <= 0.8
        and null_windows == 200
        and null_share <= 0.08
        and elapsed < 60.0,
        f"{len(rhos)} planted windows, median rho {planted_median:.3f}, "
        f"{null_windows} null windows, significant share {null_share:.3f}, "
        f"elapsed {elapsed:.1f}s",
    )


def test_06_filter_fidelity(data_dir):
    records = read_history(data_dir / "fixture_history.jsonl")
    releases = read_releases(data_dir / "fixture_releases.jsonl")
    assessment = assess_project("fixture", records, releases)
    rows = assessment.window_rows
    small = [row for row in rows if row.distinct_files < 3]
    checks = [
        len(small) == 3 and all(not row.qualified for row in small),
        all(row.qualified for row in rows if row.distinct_files >= 3),
        # B6 pairs only the 3 ever-fixed files, under the 4-observation floor
        assessment.populations["B6"].exclusions[EXCLUDE_TOO_FEW] == 1,
        all(
            assessment.populations[b].exclusions[EXCLUDE_NOT_SIGNIFICANT] == 1
            for b in BELIEF_IDS
            if b != "B6"
        ),
        all(not assessment.populations[b].scores for b in BELIEF_IDS),
    ]
    _verdict("filter-fidelity", all(checks), f"checks {checks}")


def test_07_support_band_boundaries():
    probes = [
        (0.39, "none"),
        (0.40, "weak"),
        (0.49, "weak"),
        (0.50, "support"),
        (0.59, "support"),
        (0.60, "strong"),
        (0.69, "strong"),
        (0.70, "very_strong"),
    ]
    failures = [
        (rho, support_label(rho), expected)
        for rho, expected in probes
        if support_label(rho) != expected
    ]
    _verdict("support-bands", not failures, f"mislabeled probes {failures}")


def _entropy_window(records: list[ChangeRecord], pre_start: int, pre_end: int) -> ReleaseWindow:
    return ReleaseWindow(
        release=Release(tag_name="v", release_time=pre_end, ordinal=2),
        pre_start=pre_start,
        pre_end=pre_end,
        post_end=pre_end + 182 * _DAY,
        pre_records=records,
        right_censored=False,
    )


def test_08_entropy_analytic_cases():
    def change(sha, t, path):
        return ChangeRecord(sha, t, "a@example.com", path, 1, 0, False)

    solo = _entropy_window(
        [change(f"c{i}", 1000 + i * _DAY, "solo.py") for i in range(3)],
        pre_start=1000,
        pre_end=1000 + 14 * _DAY,
    )
    quads = [f"f{i}.py" for i in range(4)]
    uniform = _entropy_window(
        [change(f"c{i}", 1000 + 7 * _DAY, path) for i, path in enumerate(quads)],
        pre_start=1000,
        pre_end=1000 + 14 * _DAY,
    )
    # same uniform burst, but the window spans two periods and the burst
    # sits in the older one, so it carries exactly one half-life of decay
    aged = _entropy_window(
        [change(f"c{i}", 1000 + 7 * _DAY, path) for i, path in enumerate(quads)],
        pre_start=1000,
        pre_end=1000 + 28 * _DAY,
    )

    def values(window):
        vector = metric_b1_hcm(window, DefectCounts(per_file={}), Config())
        return vector.x

    gaps = [abs(values(solo)[0] - 0.0)]
    gaps += [abs(v - 1.0) for v in values(uniform)]
    gaps += [abs(v - 0.5) for v in values(aged)]
    worst = max(gaps)
    _verdict("hcm-analytic", worst <= 1e-12, f"worst deviation {worst:.3e}")


def test_09_metric_invariants_on_synthetic_windows():
    failures: list[str] = []
    windows_seen = 0
    for seed, planted in ((11, None), (12, "B2"), (13, "B8"), (14, "B9")):
        spec = ScenarioSpec(releases=251, planted_belief=planted, noise_seed=seed)
        records, releases = generate(spec)
        for window in build_windows(releases, records):
            windows_seen += 1
            defects = count_post_defects(window, fix_times(records))
            by_id = {v.belief_id: v for v in compute_all(window, defects)}
            churn: dict[str, int] = {}
            for record in window.pre_records:
                churn[record.file_path] = (
                    churn.get(record.file_path, 0) + record.insertions + record.deletions
                )
            b3, b9 = by_id["B3"], by_id["B9"]
            if any(
                b3.x[i] + b9.x[i] != churn[entity]
                for i, entity in enumerate(b3.entity_ids)
            ):
                failures.append(f"B3+B9 != total churn at release {window.release.ordinal}")
            b7, b8 = by_id["B7"], by_id["B8"]
            if b7.entity_ids != b8.entity_ids or any(
                f > c for f, c in zip(b7.x, b8.x)
            ):
                failures.append(f"B7 > B8 at release {window.release.ordinal}")
            last_change = dict(zip(by_id["B4"].entity_ids, by_id["B4"].x))
            b6 = by_id["B6"]
            if any(
                last_change[entity] < b6.x[i] for i, entity in enumerate(b6.entity_ids)
            ):
                failures.append(f"B4 < B6 at release {window.release.ordinal}")
            if any(not 0.0 <= v <= 100.0 for v in by_id["B10"].x):
                failures.append(f"B10 outside [0,100] at release {window.release.ordinal}")
            if failures:
                break
        if failures:
            break
    _verdict(
        "metric-invariants",
        windows_seen >= 1000 and not failures,
        f"{windows_seen} windows, failures {failures[:3]}",
    )


def test_10_end_to_end_determinism(tmp_path, fixture_repo, data_dir, capsys):
    def run_chain(base):
        caches = base / "fixture"
        assessment = base / "assessment"
        report = base / "report"
        assert main(["mine", str(fixture_repo), "--out", str(caches), "--force"]) == 0
        assert main(["assess", str(caches), "--out", str(assessment)]) == 0
        assert main(["report", str(assessment), "--out", str(report)]) == 0
        return {
            str(p.relative_to(base)): p.read_bytes()
            for p in base.rglob("*")
            if p.is_file()
        }

    start = perf_counter()
    first = run_chain(tmp_path / "one")
    second = run_chain(tmp_path / "two")
    elapsed = perf_counter() - start
    capsys.readouterr()

    goldens = {
        "fixture/history.jsonl": data_dir / "fixture_history.jsonl",
        "fixture/releases.jsonl": data_dir / "fixture_releases.jsonl",
        "fixture/summary.json": data_dir / "fixture_summary.json",
        "assessment/populations.csv": data_dir / "fixture_assess" / "populations.csv",
        "assessment/windows.csv": data_dir / "fixture_assess" / "windows.csv",
        "assessment/exclusions.csv": data_dir / "fixture_assess" / "exclusions.csv",
        "assessment/summary.csv": data_dir / "fixture_assess" / "summary.csv",
    }
    goldens.update(
        {
            f"report/{p.name}": p
            for p in (data_dir / "fixture_report").iterdir()
        }
    )
    identical = first == second
    golden_ok = set(goldens) <= set(first) and all(
        first[rel] == path.read_bytes() for rel, path in goldens.items()
    )
    _verdict(
        "end-to-end-determinism",
        identical and golden_ok and elapsed < 10.0,
        f"identical={identical}, goldens={golden_ok}, elapsed {elapsed:.1f}s",
    )
