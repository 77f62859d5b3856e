"""The benchmark's tracer (bench/tracing.py) wraps the package's layer
boundaries by attribute name; this checks that every boundary it wraps
still exists and still runs: `mine` on the fixture repository, then
synth -> assess -> report on a small scenario. A refactor that bypasses a
wrapped lookup would otherwise zero a per-layer metric without notice."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]

# Runs in a fresh interpreter: install() replaces module attributes of
# beliefminer for the rest of the process.
_PROBE = """
import json, sys
bench, repo, work = sys.argv[1:4]
sys.path.insert(0, bench)
from tracing import Tracer, install
from beliefminer import cli
wrapped = []
class Recording(Tracer):
    def wrap(self, owner, attr, name, hook=None):
        wrapped.append(name)
        super().wrap(owner, attr, name, hook)
tracer = Recording()
install(tracer)
codes = [
    cli.main(["mine", repo, "--out", work + "/cache", "--force"]),
    cli.main(["synth", work + "/scenario.txt", "--out", work + "/synth"]),
]
first_span, counters = len(tracer.spans), dict(tracer.counters)
codes.append(cli.main(["assess", work + "/synth", "--out", work + "/assess"]))
assess_spans = [span[1] for span in tracer.spans[first_span:]]
assess_counts = {
    name: assess_spans.count(name)
    for name in ("stats.spearman", "stats.permutation_p", "stats.t_approximation_p")
}
assess_counts.update(
    (name, value - counters.get(name, 0.0))
    for name, value in tracer.counters.items()
    if name.startswith("analysis.")
)
codes.append(cli.main(["report", work + "/assess", "--out", work + "/report"]))
print(json.dumps({
    "codes": codes,
    "assess_counts": assess_counts,
    "belief_population_calls": assess_spans.count("analysis.belief_population"),
    "resolve_config": callable(getattr(cli, "_resolve_config", None)),
    "wrapped": sorted(set(wrapped)),
    "spans": sorted({span[1] for span in tracer.spans}),
}))
"""


def test_tracer_hooks_cover_the_pipeline(tmp_path, fixture_repo):
    (tmp_path / "scenario.txt").write_text(
        "releases = 12\nfiles_per_release = 6, 40\nplanted_belief = B3\n", encoding="utf-8"
    )
    path = [str(_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, str(_ROOT / "bench"), str(fixture_repo), str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    outcome = json.loads(result.stdout.strip().splitlines()[-1])
    assert outcome["codes"] == [0, 0, 0, 0], result.stderr
    assert outcome["resolve_config"]
    assert len(outcome["wrapped"]) == 22
    assert sorted(set(outcome["wrapped"]) - set(outcome["spans"])) == []
    # What `assess` alone correlates and keeps on this scenario: 11 windows
    # x 10 beliefs, 8 of them below min_observations. A change to how the
    # windows are scored keeps these counts.
    assert outcome["assess_counts"] == {
        "stats.spearman": 102,
        "stats.permutation_p": 3,
        "stats.t_approximation_p": 65,
        "analysis.significant_scores": 11,
        "analysis.excluded_too_few": 8,
        "analysis.excluded_not_significant": 91,
    }
    # one call per (qualified window, belief)
    assert outcome["belief_population_calls"] == 110
