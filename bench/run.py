"""beliefminer benchmark: the mine -> assess -> report pipeline, end to end.

    python3 bench/run.py --workload git-history --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
The workload's inputs are generated from the seed (and cached under
``.bench_cache``); then the workload's CLI stages run back to back, one
fresh process each, over and over until ``--seconds`` are spent; each stage
process also forks extra runs of its stage (see stage.py). Every run's
output is checked against the generator's ground truth. The last line of
stdout is one JSON object: with ``--trace 0`` the end-to-end metrics
(medians over every sample in the run), with ``--trace 1`` the per-layer
metrics of traced repetitions run alternately with untraced ones.
``--workload all`` runs every workload and prints one result line each.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads
from tracing import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MANIFEST = BENCH / "manifest.json"

# Seed whose output files must match the sha256 values in the manifest.
DEFAULT_SEED = 0
# Pipeline repetitions per run, whatever --seconds says.
MIN_REPS = 2
# Extra runs of each stage per untraced repetition, forked from the stage's
# process once it has imported beliefminer (see stage.py): each is one more
# sample of the stage's work without paying start-up again. Shorter stages
# get more, so that every stage time is a median over about ten samples or
# more within --seconds 50; mine, at about 3 s, gets none, which keeps
# git-history's repetitions short enough for three of them.
FORKS = {
    "git-history": {"mine": 0, "assess": 4, "report": 24},
    "synth-narrow": {"assess": 4, "report": 24},
}
# No new repetition starts once the run has lasted this long.
HARD_LIMIT_S = 150.0

STAGES = {
    "git-history": ("mine", "assess", "report"),
    "synth-narrow": ("assess", "report"),
}

END_TO_END_UNITS = {
    "pipeline_s": "s",
    "setup_s": "s",
    "assess_s": "s",
    "report_s": "s",
    "peak_rss_mib": "MiB",
    "assess_rss_mib": "MiB",
    "report_rss_mib": "MiB",
}


def stage_env() -> dict[str, str]:
    env = workloads.git_env()
    env["PYTHONPATH"] = str(SRC)
    # The stages are single-threaded; without this, OpenBLAS starts a worker
    # thread per core at import, which competes with the stage for the cores.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:  # the group ended meanwhile
        pass


def run_stage(argv: list[str], work: Path, name: str, trace: bool, forks: int,
              deadline: float) -> dict:
    """Run one stage in a fresh interpreter, after ``forks`` forked runs of
    it (see stage.py), and return its measurements."""
    record_path = work / f"{name}.record.json"
    record_path.unlink(missing_ok=True)
    command = [sys.executable, str(BENCH / "stage.py"), str(record_path),
               "1" if trace else "0", str(forks), "--", *argv]
    with open(work / f"{name}.log", "w") as log:
        spawned = time.monotonic()
        # its own process group, so that a kill also ends its forked runs
        # and their git children
        proc = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT,
                                env=stage_env(), cwd=work, start_new_session=True)
        killer = threading.Timer(max(1.0, deadline - spawned), kill_group, (proc.pid,))
        killer.start()
        try:
            proc.wait()
        finally:
            killer.cancel()
        exited = time.monotonic()
    result = {"code": proc.returncode, "wall": exited - spawned, "forks": []}
    if proc.returncode == 0 and record_path.exists():
        record = json.loads(record_path.read_text())
        result.update(
            work=record["done"] - record["work_start"],
            import_s=record["imported"] - record["entered"],
            spans=record.get("spans", []),
            counters=record.get("counters", {}),
            forks=record["forks"],
            rss_mib=record["peak_rss_mib"],
        )
    return result


def stage_plan(workload: str, inputs: Path, work: Path) -> list[tuple[str, list[str], Path]]:
    """(stage, beliefminer argv, output directory) for each stage in order."""
    caches = work / "caches" if workload == "git-history" else inputs / "caches"
    plan = []
    if workload == "git-history":
        plan.append(("mine", ["mine", str(inputs / "repo"), "--out", str(caches)], caches))
    plan.append(("assess", ["assess", str(caches), "--out", str(work / "assess")],
                 work / "assess"))
    plan.append(("report", ["report", str(work / "assess"), "--out", str(work / "report")],
                 work / "report"))
    return plan


def check_output(name: str, out: Path, work: Path, truth: dict, expected) -> list[str]:
    """Failures of one stage invocation's output directory."""
    try:
        if name == "mine":
            problems = checks.check_mine(out, truth)
        elif name == "assess":
            problems = checks.check_assess(out, truth)
        else:
            problems = checks.check_report(out, work / "assess", truth)
        if expected is not None:
            got = checks.output_hashes({name: out})
            for key in sorted(k for k in set(expected) | set(got) if k.startswith(f"{name}/")):
                if expected.get(key) != got.get(key):
                    problems.append(f"{key} sha256 {got.get(key)} != {expected.get(key)}")
    except (OSError, ValueError, KeyError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return problems


def run_pipeline(workload, inputs, truth, work, trace, expected, deadline) -> dict:
    """One repetition: every stage back to back, each output checked.

    ``attempted`` counts stage invocations, forked ones included; one that
    exits non-zero, fails a check or never starts counts as ``failed``.
    """
    for leftover in work.iterdir():
        if leftover.is_dir():
            shutil.rmtree(leftover)
    plan = stage_plan(workload, inputs, work)
    forks = {name: 0 if trace else FORKS[workload][name] for name, _, _ in plan}
    stages, failures = {}, []
    for name, argv, out in plan:
        result = run_stage(argv, work, name, trace, forks[name], deadline)
        stages[name] = result
        problems = []
        if result["code"] != 0 or "work" not in result:
            log = (work / f"{name}.log").read_text(errors="replace")[-2000:]
            problems.append(f"exit code {result['code']}: {log}")
        else:
            problems += check_output(name, out, work, truth, expected)
        result["failed"] = bool(problems)
        for i, fork in enumerate(result["forks"]):
            fork_problems = (
                [f"exit code {fork['code']}"] if fork["code"] != 0 or fork["work"] is None
                else check_output(name, out.with_name(f"{out.name}-fork{i}"), work, truth,
                                  expected)
            )
            fork["failed"] = bool(fork_problems)
            problems += [f"fork {i}: {p}" for p in fork_problems]
        failures += [f"{workload}/{name}: {p}" for p in problems]
        if problems:
            break
    succeeded = sum(
        (not s["failed"]) + sum(not f["failed"] for f in s["forks"]) for s in stages.values()
    )
    attempted = len(plan) + sum(forks.values())
    return {"stages": stages, "failures": failures, "attempted": attempted,
            "failed": attempted - succeeded}


def stage_samples(reps: list[dict]) -> tuple[list[float], dict[str, list[float]]]:
    """Start-up time of every stage process, and the work time of every run
    of each stage (the process's own run and its forked ones)."""
    startup, work = [], {}
    for rep in reps:
        for name, stage in rep["stages"].items():
            startup.append(stage["wall"] - stage["work"] - sum(f["wall"] for f in stage["forks"]))
            work.setdefault(name, []).append(stage["work"])
            work[name] += [f["work"] for f in stage["forks"]]
    return startup, work


def end_to_end(reps: list[dict]) -> tuple[dict[str, float], dict[str, list[float]]]:
    """End-to-end metric values and the samples behind each.

    Times are medians over all samples of a part: setup_s is the stage count
    times the median start-up, assess_s and report_s the median work of that
    stage, and pipeline_s setup_s plus every stage's median work.
    """
    startup, work = stage_samples(reps)
    setup = len(work) * statistics.median(startup)
    values = {
        "pipeline_s": setup + sum(statistics.median(w) for w in work.values()),
        "setup_s": setup,
        "assess_s": statistics.median(work["assess"]),
        "report_s": statistics.median(work["report"]),
    }
    samples = {"setup_s": startup, "assess_s": work["assess"], "report_s": work["report"]}
    rss = {
        "peak_rss_mib": [max(s["rss_mib"] for s in rep["stages"].values()) for rep in reps],
        "assess_rss_mib": [rep["stages"]["assess"]["rss_mib"] for rep in reps],
        "report_rss_mib": [rep["stages"]["report"]["rss_mib"] for rep in reps],
    }
    values.update({name: statistics.median(v) for name, v in rss.items()})
    samples.update(rss)
    return values, samples


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    per_rep = []
    for rep in traced:
        spans, counters = [], {}
        for stage in rep["stages"].values():
            spans += stage["spans"]
            for key, value in stage["counters"].items():
                counters[key] = counters.get(key, 0.0) + value
        per_rep.append(layer_metrics(spans, counters))
    metrics = {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
    every_stage = [s for rep in plain + traced for s in rep["stages"].values()]
    metrics["cli.import_s"] = statistics.median(s["import_s"] for s in every_stage)
    startup, runs = stage_samples(plain)
    if "mine" in runs:
        metrics["stage.mine_work_s"] = statistics.median(runs["mine"])
        metrics["stage.mine_s"] = statistics.median(startup) + metrics["stage.mine_work_s"]
        metrics["stage.mine_rss_mib"] = statistics.median(
            rep["stages"]["mine"]["rss_mib"] for rep in plain)
    else:
        metrics.update({"stage.mine_work_s": 0.0, "stage.mine_s": 0.0, "stage.mine_rss_mib": 0.0})

    def work(reps):
        return statistics.median(sum(s["work"] for s in r["stages"].values()) for r in reps)

    metrics["trace.overhead_s"] = work(traced) - work(plain)
    return metrics


def write_trace(path: Path, rep: dict) -> None:
    """Spans and counters of one traced repetition, one entry per stage."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        name: {"spans": s["spans"], "counters": s["counters"]}
        for name, s in rep["stages"].items()
    }
    path.write_text(json.dumps(payload))


def measure(workload: str, seed: int, seconds: float, trace: bool, started: float) -> dict:
    manifest = json.loads(MANIFEST.read_text())
    inputs, truth = workloads.prepare(workload, seed, ROOT / ".bench_cache", SRC)
    expected = manifest["output_sha256"].get(workload) if seed == DEFAULT_SEED else None
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = started + HARD_LIMIT_S + 25.0
    try:
        # compile and cache the program's bytecode before anything is timed
        subprocess.run([sys.executable, "-c", "import beliefminer.cli"],
                       env=stage_env(), check=True)
        plain, traced, failures = [], [], []
        measure_start = time.monotonic()
        while True:
            for traced_rep in ((False, True) if trace else (False,)):
                rep = run_pipeline(workload, inputs, truth, work, traced_rep, expected, deadline)
                (traced if traced_rep else plain).append(rep)
                failures += rep["failures"]
            done = len(plain)
            elapsed = time.monotonic() - measure_start
            per_rep = elapsed / done
            if failures or (done >= MIN_REPS and elapsed + per_rep > seconds):
                break
            if time.monotonic() - started + per_rep > HARD_LIMIT_S:
                break
        if trace and not failures:
            write_trace(ROOT / ".bench_traces" / f"{workload}-seed{seed}.json", traced[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reps = plain + traced
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    result = {"correct": not failures, "attempted": attempted, "failed": failed}
    if failures:
        result["failures"] = failures
        result["metrics"] = {}
        return result
    if trace:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        units = {m["name"]: m["unit"] for m in declared}
        values = per_layer(plain, traced)
    else:
        units = END_TO_END_UNITS
        values, result["samples"] = end_to_end(plain)
    result["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*STAGES, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    started = time.monotonic()
    if not (SRC / "beliefminer" / "cli.py").is_file():
        print(f"error: no beliefminer source under {SRC}", file=sys.stderr)
        return 2
    if shutil.which("git") is None:
        print("error: git is not on PATH", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(STAGES) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds, bool(args.trace),
                                time.monotonic() if len(names) > 1 else started)
        for failure in results[name].get("failures", []):
            print(f"FAILED {failure}", file=sys.stderr)
        samples = results[name].get("samples", {})
        for metric, entry in results[name]["metrics"].items():
            shown = " ".join(f"{v:.4f}" for v in samples.get(metric, ()))
            print(f"{name:13s} {metric:36s} {entry['value']:14.6f} {entry['unit']:6s} {shown}")
        print(f"{name:13s} failed_stages {results[name]['failed']} of "
              f"{results[name]['attempted']}")
    if len(names) > 1:
        for name in names:
            print(json.dumps({"workload": name, **results[name]}))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = results[names[0]]
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
