#!/usr/bin/env python3
"""Check that the checkout's reports are byte-identical to another revision's.

    python scripts/compare_reports.py <rev>

``<rev>``'s ``src/`` (read with ``git archive``) runs every command in
``COMMANDS`` on every file under ``tests/fixtures/`` but the goldens, and on
seeds 1-2 of the three benchmark corpora, which ``perfbench/corpus.py``
writes to a temporary directory.  The checkout's ``src/`` runs each of them
twice: on every CPU this script may use, where a page of many blocks is
checked in parts, and pinned to one CPU, where every page is checked in one
process.  ``JOBS`` runs at a time keep the CPUs busy, and on a busy machine
every page is checked in one process, so the checkout's runs go through
``AS_IF_IDLE``, which reads the machine as idle.  Every run is a
fresh interpreter started from the repository root, so the report targets
and ``file:`` URLs are the same on every side.
The script prints the number of runs and each run whose stdout, stderr or
exit code differs from ``<rev>``'s on either side, and exits 1 if any does
(2 if ``<rev>`` cannot be read).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
JOBS = 2  # runs at a time; each side of a run is one interpreter

sys.dont_write_bytecode = True  # import the corpus without touching perfbench/
sys.path.insert(0, str(REPO / "perfbench"))
import corpus  # noqa: E402

# the shipped constraint documents, as absolute paths
DS_FILES = {name: str(REPO / path) for name, path in corpus.DS_FILES.items()}
COMMANDS = (("verify",), ("verify", "--ds", DS_FILES["event"]), ("validate",),
            *(("validate", "--ds", path) for path in DS_FILES.values()),
            ("extract",))
# `python -m sdocheck`, with no other runnable task seen on the machine
AS_IF_IDLE = ("from sdocheck import cli, pipeline; "
              "pipeline._runnable_tasks = lambda: 1; cli.entry_point()")


def inputs(corpus_dir: Path) -> list[str]:
    """The fixtures, relative to the repository root, then the corpus
    files that this writes under ``corpus_dir``."""
    fixtures = REPO / "tests" / "fixtures"
    paths = sorted(p.relative_to(REPO).as_posix() for p in fixtures.rglob("*")
                   if p.is_file() and "golden" not in p.parts)
    for workload, build in sorted(corpus.WORKLOADS.items()):
        for seed in SEEDS:
            directory = corpus_dir / f"{workload}-{seed}"
            built = build(seed)
            built.write(directory)
            paths.extend(str(directory / inp.name) for inp in built.inputs)
    return paths


def _pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(src: Path, argv: list[str],
        one_cpu: bool = False,
        as_if_idle: bool = False) -> tuple[bytes, bytes, int]:
    program = ["-c", AS_IF_IDLE] if as_if_idle else ["-m", "sdocheck"]
    done = subprocess.run([sys.executable, *program, *argv],
                          cwd=REPO, capture_output=True, timeout=600,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          preexec_fn=_pin_to_one_cpu if one_cpu else None)
    return done.stdout, done.stderr, done.returncode


def differences(argv: list[str], ours: Path, theirs: Path) -> list[str]:
    """What differs between ``theirs``'s run of ``argv`` and ``ours``'s,
    on every CPU and on one."""
    before = run(theirs, argv)
    out = []
    for side, one_cpu in (("", False), ("one CPU: ", True)):
        after = run(ours, argv, one_cpu, as_if_idle=True)
        out.extend(side + name for name, old, new
                   in zip(("stdout", "stderr"), before, after) if old != new)
        if before[2] != after[2]:
            out.append(f"{side}exit {before[2]} -> {after[2]}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", help="the git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as tmp:
        theirs = Path(tmp) / "rev"
        theirs.mkdir()
        archive = subprocess.run(["git", "archive", args.rev, "src"],
                                 cwd=REPO, capture_output=True)
        if archive.returncode != 0:
            print(archive.stderr.decode(errors="replace").strip(),
                  file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", str(theirs)], input=archive.stdout,
                       check=True)
        runs = [[command[0], path, *command[1:]]
                for path in inputs(Path(tmp) / "corpus")
                for command in COMMANDS]
        with ThreadPoolExecutor(JOBS) as pool:
            found = list(pool.map(
                lambda run_argv: differences(run_argv, REPO / "src",
                                             theirs / "src"), runs))
    differing = 0
    for run_argv, what in zip(runs, found):
        if what:
            differing += 1
            print(f"differs ({', '.join(what)}): sdocheck {' '.join(run_argv)}")
    print(f"{len(runs)} runs against {args.rev}: "
          f"{len(runs) - differing} byte-identical, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
