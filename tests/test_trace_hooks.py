"""The benchmark's tracer (bench/tracing.py) wraps the package's layer
boundaries by attribute name; this checks that every boundary it wraps
still exists and still runs in a real mine -> assess -> report pipeline."""

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
tracer = Tracer()
install(tracer)
codes = [
    cli.main(["mine", repo, "--out", work + "/cache", "--force"]),
    cli.main(["assess", work + "/cache", "--out", work + "/assess"]),
    cli.main(["report", work + "/assess", "--out", work + "/report"]),
]
print(json.dumps({
    "codes": codes,
    "resolve_config": callable(getattr(cli, "_resolve_config", None)),
    "spans": sorted({span[1] for span in tracer.spans}),
}))
"""


def test_tracer_hooks_cover_the_pipeline(tmp_path, fixture_repo):
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
    assert outcome["codes"] == [0, 0, 0], result.stderr
    assert outcome["resolve_config"]
    for name in (
        "ingest.mine_repository",
        "ingest.read_history",
        "analysis.assess_project",
        "analysis.belief_population",
        "reporting.build_report",
        "reporting.render",
    ):
        assert name in outcome["spans"]
