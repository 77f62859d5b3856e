"""Tests of the benchmark's own machinery: python3 -m pytest bench"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import stage  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_GIT = workloads.GitHistorySize(commits=400, tags=8, authors=12, files=40)
SMALL_SYNTH = (
    workloads.SynthProject("a", 6, 6, 6, "B3", 1.0),
    workloads.SynthProject("b", 6, 7, 7, None, 0.0),
)


def test_git_stream_is_a_function_of_the_seed():
    first, truth = workloads.git_history_stream(3, SMALL_GIT)
    again, truth_again = workloads.git_history_stream(3, SMALL_GIT)
    other, _ = workloads.git_history_stream(4, SMALL_GIT)
    assert first == again and truth == truth_again
    assert first != other
    assert truth["commits"] == 400 and truth["releases"] == 8
    assert truth["records"] == sum(truth["touches"].values())


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_synth_caches_are_a_function_of_the_seed(tmp_path):
    for name, seed in (("one", 5), ("two", 5), ("three", 6)):
        (tmp_path / name).mkdir()
        workloads.build_synth(seed, tmp_path / name, SMALL_SYNTH)
    one, two, three = (_tree_bytes(tmp_path / n) for n in ("one", "two", "three"))
    assert one == two
    assert set(one) == set(three) and one != three


def test_message_vocabulary_matches_the_paper_stems():
    from beliefminer.labeling import DEFAULT_STEMS

    assert set(workloads.FIX_STEMS) == set(DEFAULT_STEMS)

    def labeled(text):
        tokens = "".join(ch if ch.isalnum() else " " for ch in text.lower()).split()
        return any(t.startswith(s) for t in tokens for s in workloads.FIX_STEMS)

    assert all(labeled(phrase) for phrase in workloads.FIX_PHRASES)
    neutral = workloads.NEUTRAL_VERBS + workloads.NEUTRAL_NOUNS
    assert not any(labeled(word) for word in neutral)
    assert not labeled("Keeps the layout stable. See test_mod0001 note0002 mod0003")


def test_git_truth_matches_a_mined_history(tmp_path):
    from beliefminer import cli

    truth = workloads.build_git_history(9, tmp_path, SMALL_GIT)
    assert cli.main(["mine", str(tmp_path / "repo"), "--out", str(tmp_path / "c"), "--force"]) == 0
    assert checks.check_mine(tmp_path / "c", truth) == []
    truth["fix_records"] += 1
    assert checks.check_mine(tmp_path / "c", truth) == [
        f"history.jsonl fix records: got {truth['fix_records'] - 1}, "
        f"expected {truth['fix_records']}"
    ]


def test_self_time_subtracts_the_interval_children_cover():
    spans = [
        [0, "root", 0.0, 10.0, None],
        [1, "a", 1.0, 4.0, 0],
        [2, "leaf", 2.0, 3.0, 1],
        [3, "b", 3.5, 6.0, 0],  # overlaps a by 0.5: covered once
        [4, "b", 8.0, 9.0, 0],
    ]
    own = tracing.self_times(spans)
    assert own["root"] == pytest.approx(10.0 - (6.0 - 1.0) - 1.0)
    assert own["a"] == pytest.approx(3.0 - 1.0)
    assert own["leaf"] == pytest.approx(1.0)
    assert own["b"] == pytest.approx(2.5 + 1.0)
    assert tracing.durations(spans)["b"] == pytest.approx(3.5)


def test_tracer_records_nesting_and_hooks():
    class Owner:
        @staticmethod
        def outer(x):
            return Owner.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    tracer.wrap(Owner, "inner", "inner", lambda t, a, k, r: t.counters.__setitem__("r", r))
    tracer.wrap(Owner, "outer", "outer")
    assert Owner.outer(3) == 7
    assert [(s[1], s[4]) for s in tracer.spans] == [("outer", None), ("inner", 0)]
    assert tracer.counters["r"] == 6
    assert tracing.self_times(tracer.spans) == {"outer": 2.0, "inner": 1.0}


def test_forked_runs_write_beside_the_stage_output():
    argv = ["report", "in", "--out", "work/report", "--seed", "3"]
    assert stage.forked_out(argv, 2) == ["report", "in", "--out", "work/report-fork2",
                                         "--seed", "3"]


def test_end_to_end_times_are_medians_of_their_parts():
    def process(startup, work, forks, rss):
        fork_runs = [{"wall": f + 0.01, "work": f} for f in forks]
        wall = startup + work + sum(f["wall"] for f in fork_runs)
        return {"wall": wall, "work": work, "rss_mib": rss, "forks": fork_runs}

    # start-up samples 1.5, 1.0, 1.7, 1.2: median 1.35
    reps = [
        {"stages": {"assess": process(1.5, 2.0, [1.0, 3.0], 100.0),
                    "report": process(1.0, 0.1, [0.2, 0.3], 90.0)}},
        {"stages": {"assess": process(1.7, 3.0, [1.0, 1.0], 104.0),
                    "report": process(1.2, 0.2, [0.3, 0.3], 92.0)}},
    ]
    values, samples = run.end_to_end(reps)
    assert sorted(samples["setup_s"]) == pytest.approx([1.0, 1.2, 1.5, 1.7])
    assert values["setup_s"] == pytest.approx(2 * 1.35)
    assert values["assess_s"] == pytest.approx(1.5)  # 2, 1, 3, 3, 1, 1
    assert values["report_s"] == pytest.approx(0.25)  # 0.1, 0.2, 0.3, 0.2, 0.3, 0.3
    assert values["pipeline_s"] == pytest.approx(2 * 1.35 + 1.5 + 0.25)
    assert values["peak_rss_mib"] == pytest.approx(102.0)
    assert values["report_rss_mib"] == pytest.approx(91.0)


def test_benchmark_manifest_names_every_per_layer_metric():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    produced = set(tracing.layer_metrics([], {}))
    produced |= {"cli.import_s", "stage.mine_s", "stage.mine_work_s", "stage.mine_rss_mib",
                 "trace.overhead_s"}
    assert {m["name"] for m in declared} == produced


def test_manifest_sizes_match_the_generators():
    manifest = json.loads((BENCH / "manifest.json").read_text())
    assert manifest["generator_version"] == workloads.GENERATOR_VERSION
    for name in workloads.WORKLOADS:
        assert manifest["workloads"][name]["size"] == workloads.describe(name)
