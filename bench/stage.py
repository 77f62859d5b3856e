"""Run one beliefminer CLI stage in this fresh process and record its timing.

Usage: python3 stage.py RECORD.json TRACE(0|1) REPEAT -- <beliefminer arguments>

The record holds CLOCK_MONOTONIC readings (comparable with the parent's)
taken on entry, after ``import beliefminer.cli``, once the stage's config is
resolved, and when the stage returns, plus the exit code, this process's peak
RSS and, when traced, the spans and counters. The parent adds process
start-up and exit around these readings.

The peak RSS is this process's own (``VmHWM``), not ``ru_maxrss``: the
latter also counts the parent's RSS at the moment it spawned this process,
and the forked runs below.

With REPEAT > 0 the process first forks REPEAT children, one after another,
each running the same stage from the state this process has right after its
imports (the state any fresh invocation starts its work from), with ``--out``
pointing at ``<out>-fork<i>``. Each child's work time (config resolved to
return), wall time and exit code go into the record's ``forks``; then this
process runs the stage itself. A cheap stage is timed this way many times per
process start-up.
"""

import time

ENTERED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def forked_out(argv: list[str], index: int) -> list[str]:
    """``argv`` with the value after ``--out`` suffixed ``-fork<index>``."""
    at = argv.index("--out") + 1
    return [*argv[:at], f"{argv[at]}-fork{index}", *argv[at + 1:]]


def run_forked(cli, marks: dict, argv: list[str]) -> dict:
    """Run ``cli.main(argv)`` in a forked child; return its exit code, its
    work time and the wall time from fork to reaping it."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    forked = time.monotonic()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        code = 1
        try:
            code = cli.main(argv)
            done = time.monotonic()
            report = {"code": code, "work": done - marks.get("work_start", done)}
            os.write(write_end, json.dumps(report).encode())
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code if isinstance(code, int) else 1)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    reaped = time.monotonic()
    code = os.waitstatus_to_exitcode(status)
    report = json.loads(payload) if payload else {}
    return {"code": code, "work": report.get("work"), "wall": reaped - forked}


def peak_rss_mib() -> float:
    """This process's peak resident set size, in MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    record_path, trace_flag, repeat, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: stage.py RECORD.json TRACE REPEAT -- <beliefminer arguments>")
    import beliefminer.cli as cli

    imported = time.monotonic()
    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"beliefminer imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3

    marks = {}
    resolve = cli._resolve_config

    def resolve_and_mark(args):
        cfg = resolve(args)
        marks["work_start"] = time.monotonic()
        return cfg

    cli._resolve_config = resolve_and_mark
    forks = [run_forked(cli, marks, forked_out(argv, i)) for i in range(int(repeat))]
    tracer = None
    if trace_flag == "1":
        from tracing import Tracer, install

        tracer = Tracer(clock=time.monotonic)
        install(tracer)
    code = cli.main(argv)
    done = time.monotonic()
    record = {
        "entered": ENTERED,
        "imported": imported,
        "work_start": marks.get("work_start", done),
        "done": done,
        "code": code,
        "peak_rss_mib": peak_rss_mib(),
        "forks": forks,
    }
    if tracer is not None:
        record["spans"] = tracer.spans
        record["counters"] = tracer.counters
    Path(record_path).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
