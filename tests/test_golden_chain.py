"""Golden chain with scores: synth -> assess -> report on three small projects.

The fixture repository's goldens (``tests/data/fixture_*``) hold no
significant score, so this chain pins what they cannot. The scenarios in
``tests/data/chain_scenarios/`` (B3 planted at strength 1.0, B8 at 0.8 and a
null project, each 12 releases of 8-16 files) give 3,155 records in 33
qualified windows and 47 significant scores, and the goldens in
``tests/data/chain_assess/`` and ``tests/data/chain_report/`` pin:

- exact permutation p-values (n <= 8) and t-approximated ones;
- two overall Scott-Knott ranks, and bucket ranks over S, M and L;
- contrary evidence (significant negative rho) for B1, B4 and B9;
- ``growth`` trend labels, and trends left undefined below
  ``min_observations``;
- both exclusion reasons;
- ``summary.csv`` as ``assess`` derives it when a cache has no
  ``summary.json``, as every ``synth`` cache does.

The chain leaves out right-censored and unqualified windows and mined
caches with their ``summary.json``, which the fixture goldens pin, and
``decay`` labels, which no golden file pins. It runs in about 0.4 s.

After a deliberate output change, rewrite the goldens with

    PYTHONPATH=src python tests/test_golden_chain.py

and review the change with ``git diff tests/data/chain_*``.
"""

from __future__ import annotations

import difflib
import shutil
from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"
SCENARIOS = DATA_DIR / "chain_scenarios"
GOLDEN_ASSESS = DATA_DIR / "chain_assess"
GOLDEN_REPORT = DATA_DIR / "chain_report"

# lines of unified diff shown for a file that differs from its golden
_DIFF_LINES = 40


def run_chain(work: Path) -> tuple[Path, Path]:
    """Run synth on every scenario, then assess and report, in process;
    return the assessment and report directories."""
    from beliefminer.cli import main

    caches = work / "caches"
    for scenario in sorted(SCENARIOS.glob("*.txt")):
        out = caches / scenario.stem
        assert main(["synth", str(scenario), "--out", str(out)]) == 0, scenario.name
    assessment, report = work / "assessment", work / "report"
    assert main(["assess", str(caches), "--out", str(assessment)]) == 0
    assert main(["report", str(assessment), "--out", str(report)]) == 0
    return assessment, report


def _first_difference(name: str, actual: bytes, expected: bytes) -> str:
    diff = difflib.unified_diff(
        expected.decode("utf-8", "replace").splitlines(keepends=True),
        actual.decode("utf-8", "replace").splitlines(keepends=True),
        fromfile=f"golden/{name}",
        tofile=f"output/{name}",
    )
    lines = [line if line.endswith("\n") else line + "\n" for line in diff]
    shown = "".join(lines[:_DIFF_LINES])
    more = len(lines) - _DIFF_LINES
    return shown + (f"... {more} more diff lines\n" if more > 0 else "")


def _compare(out_dir: Path, golden_dir: Path) -> list[str]:
    """One message per output file that is missing, extra or differs."""
    produced = {p.name for p in out_dir.iterdir()}
    expected = {p.name for p in golden_dir.iterdir()}
    problems = [f"{golden_dir.name}/{n}: not written" for n in sorted(expected - produced)]
    problems += [f"{golden_dir.name}/{n}: no golden" for n in sorted(produced - expected)]
    for name in sorted(produced & expected):
        actual = (out_dir / name).read_bytes()
        golden = (golden_dir / name).read_bytes()
        if actual != golden:
            problems.append(
                f"{golden_dir.name}/{name} differs:\n"
                + _first_difference(name, actual, golden)
            )
    return problems


def test_synth_assess_report_chain_matches_goldens(tmp_path, capsys):
    assessment, report = run_chain(tmp_path)
    capsys.readouterr()
    problems = _compare(assessment, GOLDEN_ASSESS) + _compare(report, GOLDEN_REPORT)
    assert not problems, "\n".join(problems)


def regenerate(work: Path) -> None:
    """Rewrite the chain's golden directories from the current code."""
    assessment, report = run_chain(work)
    for out_dir, golden_dir in ((assessment, GOLDEN_ASSESS), (report, GOLDEN_REPORT)):
        shutil.rmtree(golden_dir, ignore_errors=True)
        shutil.copytree(out_dir, golden_dir)
        print(f"wrote {golden_dir}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        regenerate(Path(work))
