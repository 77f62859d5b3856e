"""Tests for the synthetic history generator and its planted effects."""

import hashlib
import itertools
import statistics

import pytest

from beliefminer.config import Config
from beliefminer.ingest import read_history, read_releases, write_history, write_releases
from beliefminer.stats import spearman
from beliefminer.synthgen import (
    SUPPORTED_BELIEFS,
    ScenarioError,
    ScenarioSpec,
    calibrate_mix,
    generate,
    parse_scenario_file,
)
from beliefminer.windowing import build_windows, count_post_defects, fix_times

from oracles import metric_b2_developers, metric_churn, metric_counts


def _windows(records, releases, post_days):
    return build_windows(releases, records, Config(post_days=post_days))


def _window_rhos(records, releases, spec, metric):
    rhos = []
    for window in _windows(records, releases, spec.post_days):
        defects = count_post_defects(window, fix_times(records))
        vector = metric(window, defects)
        rhos.append(spearman(vector.x, vector.y, exact_p=False).rho)
    return rhos


# --- spec validation -----------------------------------------------------------


_THREE_RELEASES = {"releases": 3, "files_min": 2, "files_max": 2}
# The largest post_days that assess accepts, so synth accepts no more.
_MAX_POST_DAYS = 36_500


@pytest.mark.parametrize(
    "kwargs,field",
    [
        ({"releases": 1}, "releases"),
        ({"files_min": 0}, "files_per_release"),
        ({"files_min": 5, "files_max": 4}, "files_per_release"),
        ({"planted_belief": "B7"}, "planted_belief"),
        ({"planted_strength": -0.1}, "planted_strength"),
        ({"planted_strength": 1.5}, "planted_strength"),
        ({"bug_fix_rate": 1.5}, "bug_fix_rate"),
        ({"post_days": 0}, "post_days"),
        ({"releases": 400, "post_days": 2}, "releases"),  # spacing infeasible
        ({"noise_seed": -1}, "noise_seed"),
        ({"noise_seed": -(2**70)}, "noise_seed"),
        ({**_THREE_RELEASES, "post_days": _MAX_POST_DAYS + 1}, "post_days"),
        ({**_THREE_RELEASES, "post_days": 10**15}, "post_days"),
    ],
)
def test_spec_validation_names_field(kwargs, field):
    with pytest.raises(ScenarioError) as excinfo:
        ScenarioSpec(**kwargs)
    assert str(excinfo.value).startswith(f"{field}: ")


def test_spec_boundary_values_generate():
    assert generate(ScenarioSpec(**_THREE_RELEASES, noise_seed=0))
    records, releases = generate(ScenarioSpec(**_THREE_RELEASES, post_days=_MAX_POST_DAYS))
    # a minute past the last release's horizon, far inside 64 bits
    horizon_end = releases[-1].release_time + _MAX_POST_DAYS * 86400
    assert records[-1].commit_time == horizon_end + 60 < 2**33


@pytest.mark.parametrize("post_days", [1, _MAX_POST_DAYS])
def test_spec_accepts_post_days_at_both_bounds(post_days):
    assert ScenarioSpec(post_days=post_days).post_days == post_days
    assert Config(post_days=post_days).post_days == post_days


def test_unsupported_belief_error_lists_options():
    with pytest.raises(ScenarioError) as excinfo:
        ScenarioSpec(planted_belief="B1")
    message = str(excinfo.value)
    for belief in SUPPORTED_BELIEFS:
        assert belief in message


def test_defaults_validate():
    ScenarioSpec().validate()


# --- scenario files ------------------------------------------------------------


def test_parse_scenario_file(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(
        "# planted scenario\n"
        "releases = 21\n"
        "files_per_release = 10, 20\n"
        "planted_belief = B9\n"
        "planted_strength = 0.5\n"
        "noise_seed = 7\n"
        "bug_fix_rate = 0.2\n"
        "post_days = 90\n",
        encoding="utf-8",
    )
    spec = parse_scenario_file(path)
    assert spec == ScenarioSpec(
        releases=21,
        files_min=10,
        files_max=20,
        planted_belief="B9",
        planted_strength=0.5,
        noise_seed=7,
        bug_fix_rate=0.2,
        post_days=90,
    )


def test_parse_readme_scenario_with_trailing_comments(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(
        "releases = 51\n"
        "files_per_release = 30, 50\n"
        "planted_belief = B3      # one of B2, B3, B8, B9, or none\n"
        "planted_strength = 0.7   # 0 = pure noise, 1 = perfect rank agreement\n"
        "bug_fix_rate = 0.15\n"
        "noise_seed = 1\n",
        encoding="utf-8",
    )
    spec = parse_scenario_file(path)
    assert (spec.releases, spec.files_min, spec.files_max) == (51, 30, 50)
    assert spec.planted_belief == "B3"
    assert spec.planted_strength == 0.7
    assert (spec.bug_fix_rate, spec.noise_seed) == (0.15, 1)


def test_parse_scenario_file_single_file_count_and_none(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(
        "files_per_release = 12\nplanted_belief = none\n", encoding="utf-8"
    )
    spec = parse_scenario_file(path)
    assert spec.files_min == spec.files_max == 12
    assert spec.planted_belief is None


def test_parse_scenario_file_errors(tmp_path):
    cases = [
        ("mystery = 1\n", "mystery"),
        ("releases = soon\n", "releases"),
        ("files_per_release = 1,2,3\n", "files_per_release"),
        ("releases\n", "key = value"),
        ("planted_belief = B5\n", "planted_belief"),  # validated after parse
        ("releases = 6\n\nreleases = 8\n", ":3: duplicate key 'releases'"),
        # the same wording as a config file's value errors
        ("releases = x\n", ":1: releases: expected an integer, got 'x'"),
        ("planted_strength = high\n", ":1: planted_strength: expected a number, got 'high'"),
        ("files_per_release = 30,x\n", ":1: files_per_release: expected an integer, got 'x'"),
    ]
    for body, needle in cases:
        path = tmp_path / "scenario.txt"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ScenarioError) as excinfo:
            parse_scenario_file(path)
        assert needle in str(excinfo.value)
    with pytest.raises(ScenarioError):
        parse_scenario_file(tmp_path / "absent.txt")


# --- generation ----------------------------------------------------------------


def test_generate_is_deterministic():
    spec = ScenarioSpec(releases=10, files_min=6, files_max=9, noise_seed=5)
    first = generate(spec)
    second = generate(spec)
    assert first == second
    different = generate(
        ScenarioSpec(releases=10, files_min=6, files_max=9, noise_seed=6)
    )
    assert different != first


# The sha256 of write_history's then write_releases's bytes for each
# (planted belief, strength, bug_fix_rate); releases = 6, 4..7 files per
# release, noise_seed = 3. The generator's rng draw order is part of its
# output, so any change to it shows here.
_PINNED_OUTPUTS = {
    ("B2", 0.6, 0.0): "b97cd8d108508918a24ca0425a97983ec4abd37a4d11a34df5d9c24a13657fef",
    ("B2", 0.6, 0.15): "4666aed72a98f3ae1ea8c9764d303b7baac193497c2633d59a2caa61a3a18e19",
    ("B2", 1.0, 0.0): "0b562d5fc9cacc101045437dd349c14dce71bf46516fd6082c067ca324a9c700",
    ("B2", 1.0, 0.15): "97e063834ceccff6f91d12b5c05c3b3c37b6be94d2260832264d3f2b73033366",
    ("B3", 0.6, 0.0): "1940d45310b193e7579aac7eaa3af3323923cef45b0cdb6cf1e1752c1c283058",
    ("B3", 0.6, 0.15): "ed40278af7852fea91feb8ffe0b0c4ac4fac14eb9bcb7f8622b0db3bcf2dfb1c",
    ("B3", 1.0, 0.0): "9f35063a6192a7f7d6dd7a14f0413969d52d0f1c0c2db080fe86689b21abdff7",
    ("B3", 1.0, 0.15): "60f67836fcf1e92436ba42c5eb90f9947f6c4d5d2f2b1571f73889ca0246c95b",
    ("B8", 0.6, 0.0): "8d2ffb27899cb293b1ae0de865196520a7513a1a9fb8bf708b0f0b31acdc7a29",
    ("B8", 0.6, 0.15): "5762782ded698e8e109cc72e79d3f3726164803f0bb5e3e07978e2f960d1b05b",
    ("B8", 1.0, 0.0): "7c8eb2eb2cc9c5a775aca079a04e2c00c469d5e7a8f52f4937ba5313049d44d2",
    ("B8", 1.0, 0.15): "9c05db2f6b8c8dbde6ebc487abfd5bbecea2698fce2ea9c2e41bf92601848d33",
    ("B9", 0.6, 0.0): "5b5e4c4778b4168c29e193f217ca08dc2fb854181745258c06d0dce920c796d4",
    ("B9", 0.6, 0.15): "f97f5b422c885bfee9cc8a47387d2b35d9a5f08550149d522c8fd9450ed19415",
    ("B9", 1.0, 0.0): "c987d964cd6ef59e7de4dbcfa0806b88324bbc4380d51884499f58733d5c933c",
    ("B9", 1.0, 0.15): "1ce847ed354399745ea64333d0ccfdb86c41805d17e5744b91af8ac349ff9123",
    (None, 0.6, 0.0): "ce8a04ddc66ed101fe8fc0f63597bc6181cd206b6950110aeabff51f5d034faf",
    (None, 0.6, 0.15): "307b63c40d04699e0aab2846825d7d5ab06f7e44673f1ad6c46941a71d84fd8f",
    (None, 1.0, 0.0): "ce8a04ddc66ed101fe8fc0f63597bc6181cd206b6950110aeabff51f5d034faf",
    (None, 1.0, 0.15): "307b63c40d04699e0aab2846825d7d5ab06f7e44673f1ad6c46941a71d84fd8f",
}


@pytest.mark.parametrize(
    "belief,strength,rate",
    list(itertools.product((*SUPPORTED_BELIEFS, None), (0.6, 1.0), (0.0, 0.15))),
)
def test_generate_output_bytes_are_pinned(tmp_path, belief, strength, rate):
    spec = ScenarioSpec(
        releases=6, files_min=4, files_max=7, planted_belief=belief,
        planted_strength=strength, bug_fix_rate=rate, noise_seed=3,
    )
    records, releases = generate(spec)
    write_history(records, tmp_path / "history.jsonl")
    write_releases(releases, tmp_path / "releases.jsonl")
    digest = hashlib.sha256(
        (tmp_path / "history.jsonl").read_bytes() + (tmp_path / "releases.jsonl").read_bytes()
    ).hexdigest()
    assert digest == _PINNED_OUTPUTS[belief, strength, rate]


def test_generate_output_passes_cache_validation(tmp_path):
    spec = ScenarioSpec(releases=8, files_min=4, files_max=6)
    records, releases = generate(spec)
    write_history(records, tmp_path / "history.jsonl")
    write_releases(releases, tmp_path / "releases.jsonl")
    assert read_history(tmp_path / "history.jsonl") == records
    assert read_releases(tmp_path / "releases.jsonl") == releases


def test_generate_release_train():
    spec = ScenarioSpec(releases=12, files_min=4, files_max=6)
    records, releases = generate(spec)
    assert [r.ordinal for r in releases] == list(range(1, 13))
    times = [r.release_time for r in releases]
    spacings = {b - a for a, b in zip(times, times[1:])}
    assert len(spacings) == 1  # evenly spaced
    assert records == sorted(
        records, key=lambda r: (r.commit_time, r.commit_id, r.file_path)
    )


def test_generate_windows_have_unique_paths_and_full_horizons():
    spec = ScenarioSpec(releases=10, files_min=5, files_max=8)
    records, releases = generate(spec)
    windows = _windows(records, releases, spec.post_days)
    assert len(windows) == 9
    seen: set[str] = set()
    for window in windows:
        paths = {r.file_path for r in window.pre_records}
        assert paths.isdisjoint(seen)
        seen.update(paths)
        assert window.right_censored is False
        assert 5 <= window.distinct_files <= 8


def test_generate_puts_late_fixes_in_every_horizon():
    spec = ScenarioSpec(releases=10, files_min=5, files_max=8)
    records, releases = generate(spec)
    last_release = releases[-1].release_time
    horizon = spec.post_days * 86400
    earliest_post_end = releases[1].release_time + horizon
    tail = [r for r in records if r.commit_time > last_release]
    fixes = [r for r in tail if r.is_bug_fix]
    assert fixes, "planted fixes must exist"
    for record in fixes:
        assert record.commit_time <= earliest_post_end
    # plus exactly one observability marker past every horizon
    markers = [r for r in tail if not r.is_bug_fix]
    assert len(markers) == 1
    assert markers[0].commit_time > releases[-1].release_time + horizon


def test_zero_bug_fix_rate_keeps_pre_periods_clean():
    spec = ScenarioSpec(releases=10, files_min=5, files_max=8, bug_fix_rate=0.0)
    records, releases = generate(spec)
    last_release = releases[-1].release_time
    pre = [r for r in records if r.commit_time <= last_release]
    assert all(r.is_bug_fix is False for r in pre)


def test_planted_b3_strength_recovered():
    spec = ScenarioSpec(
        releases=30, files_min=12, files_max=18, planted_belief="B3",
        planted_strength=0.7, noise_seed=3,
    )
    records, releases = generate(spec)
    rhos = _window_rhos(
        records, releases, spec, lambda w, d: metric_churn(w, d, "added")
    )
    assert len(rhos) == 29
    assert 0.55 <= statistics.median(rhos) <= 0.85


def test_planted_full_strength_is_exact():
    spec = ScenarioSpec(
        releases=12, files_min=6, files_max=9, planted_belief="B3",
        planted_strength=1.0, noise_seed=2,
    )
    records, releases = generate(spec)
    rhos = _window_rhos(
        records, releases, spec, lambda w, d: metric_churn(w, d, "added")
    )
    assert rhos == [1.0] * 11


def test_null_scenario_is_uncorrelated():
    spec = ScenarioSpec(
        releases=30, files_min=12, files_max=18, planted_belief=None, noise_seed=4
    )
    records, releases = generate(spec)
    rhos = _window_rhos(
        records, releases, spec, lambda w, d: metric_churn(w, d, "added")
    )
    assert statistics.median(abs(r) for r in rhos) < 0.35


def test_planted_b2_bounds_author_counts():
    spec = ScenarioSpec(
        releases=8, files_min=5, files_max=8, planted_belief="B2",
        planted_strength=0.6, noise_seed=6,
    )
    records, releases = generate(spec)
    for window in _windows(records, releases, spec.post_days):
        defects = count_post_defects(window, fix_times(records))
        vector = metric_b2_developers(window, defects)
        assert all(1 <= x <= 10 for x in vector.x)


def test_planted_b8_bounds_commit_counts():
    spec = ScenarioSpec(
        releases=8, files_min=5, files_max=8, planted_belief="B8",
        planted_strength=0.6, noise_seed=6,
    )
    records, releases = generate(spec)
    for window in _windows(records, releases, spec.post_days):
        defects = count_post_defects(window, fix_times(records))
        vector = metric_counts(window, defects, fixes_only=False)
        assert all(1 <= x <= 15 for x in vector.x)


def test_planted_b9_couples_deletions():
    spec = ScenarioSpec(
        releases=20, files_min=10, files_max=14, planted_belief="B9",
        planted_strength=1.0, noise_seed=8,
    )
    records, releases = generate(spec)
    rhos = _window_rhos(
        records, releases, spec, lambda w, d: metric_churn(w, d, "removed")
    )
    assert rhos == [1.0] * 19


def test_calibrate_mix_endpoints():
    assert calibrate_mix(ScenarioSpec(planted_belief=None)) == 0.0
    assert calibrate_mix(ScenarioSpec(planted_strength=0.0)) == 0.0
    assert calibrate_mix(ScenarioSpec(planted_strength=1.0)) == 1.0
    mid = calibrate_mix(ScenarioSpec(planted_strength=0.7))
    assert 0.0 < mid < 1.0
