#!/usr/bin/env python3
"""Check that the checkout's reports are byte-identical to another revision's.

    python scripts/compare_reports.py <rev>

``<rev>``'s ``src/`` (read with ``git archive``) runs every command in
``COMMANDS`` on every file under ``tests/fixtures/`` but the goldens, and on
seeds 1-2 of the three benchmark corpora, which ``perfbench/corpus.py``
writes to a temporary directory.  The checkout's ``src/`` runs each of them
twice: on every CPU this script may use, where a page of many blocks is
checked in two parts, and pinned to one CPU, where every page is checked in
one process.  With fewer than two usable CPUs both runs are of one process,
and the script says so on stderr.  ``JOBS`` runs at a time keep the CPUs
busy, and on a busy machine every page is checked in one process, so the
checkout's runs go through ``AS_IF_IDLE``, which reads the machine as idle.
Every run is a fresh interpreter started from the repository root, so the
report targets and ``file:`` URLs are the same on every side.  It also runs
``validate`` on ``PAGE`` with each document in ``UNLOADABLE``, written to the
temporary directory, so that a loader's failure message and exit code are
held as well (three of them have a misspelt or stray key: two validation
configs, at the top level and in a ``booleanSurfaceForms`` entry, and a
copy of the shipped ``event.json``), and ``validate
--validation-config`` with ``SCORING`` on every page (``.html``) of the
fixtures and corpora, so that the scoring rules no default run reaches are
compared too: month-first dates, a decimal comma and boolean surface forms,
one of them a phrase without tokens.
The fetch path is compared too: the script serves the repository root over
HTTP from its own process and runs ``verify`` on the URL of every fixture,
``validate`` on the URL of every fixture page, ``verify`` on a URL that
answers 404, on ``FETCHED_QUERY``, a page URL with a non-ASCII query,
a space and a fragment, and on ``PAGE``'s URL with an upper-case scheme.
The script prints the number of runs and each run whose stdout, stderr or
exit code differs from ``<rev>``'s on either side, and exits 1 if any does
(2 if ``<rev>`` cannot be read).
"""

from __future__ import annotations

import argparse
import functools
import os
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import SimpleHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
JOBS = 2  # runs at a time; each side of a run is one interpreter

sys.dont_write_bytecode = True  # import the corpus without touching perfbench/
sys.path.insert(0, str(REPO / "perfbench"))
import corpus  # noqa: E402

# the shipped constraint documents, as absolute paths
DS_FILES = {name: str(REPO / path) for name, path in corpus.DS_FILES.items()}
COMMANDS = (("verify",), ("verify", "--ds", DS_FILES["event"]),
            ("verify", "--strict", "--ds", DS_FILES["event"]), ("validate",),
            *(("validate", "--ds", path) for path in DS_FILES.values()),
            ("extract",))
# a good page, and documents that no loader takes (each by the option that
# names it): syntax, depth, shape, invalid UTF-8, NaN and misspelt keys
PAGE = "tests/fixtures/page_good.html"
DEEP_DS = (b'{"name": "deep", "root": ' + b'{"targetTypes": ["Event"], '
           b'"properties": [{"name": "subEvent", "ranges": [{"type": '
           b'"Event", "node": ' * 199 + b'{"targetTypes": ["Event"]}'
           + b"}]}]}" * 199 + b"}")
UNLOADABLE = {
    "ds-200-deep": ("--ds", DEEP_DS),
    "ds-bad-utf-8": ("--ds", b'{"name": "caf\xe9", '
                             b'"root": {"targetTypes": ["Event"]}}'),
    "ds-version-nan": ("--ds", b'{"name": "nan", "dsVersion": NaN, '
                               b'"root": {"targetTypes": ["Event"]}}'),
    "ds-misspelt-key": ("--ds", Path(DS_FILES["event"]).read_bytes()
                        .replace(b'"dsVersion"', b'"bogus": 1, "dsVersion"')
                        .replace(b'"endDate", "isOptional"',
                                 b'"endDate", "isOptinal"')),
    "vocab-3000-deep": ("--vocab",
                        b'{"@graph": ' + b"[" * 3000 + b"]" * 3000 + b"}"),
    "config-syntax": ("--validation-config", b"{not json"),
    "config-list": ("--validation-config", b"[1, 2]"),
    "config-3000-deep": ("--validation-config", b"[" * 3000 + b"]" * 3000),
    "config-bad-utf-8": ("--validation-config", b'{"dateOrder": "caf\xe9"}'),
    "config-forms-int": ("--validation-config",
                         b'{"booleanSurfaceForms": {"petsAllowed": 3}}'),
    "config-phrase-int": (
        "--validation-config",
        b'{"booleanSurfaceForms": {"petsAllowed": {"true": [3]}}}'),
    "config-threshold-list": ("--validation-config", b'{"threshold": [1]}'),
    "config-threshold-nan": ("--validation-config", b'{"threshold": NaN}'),
    "config-misspelt-key": ("--validation-config",
                            b'{"treshold": 0.1, "dateorder": "MDY"}'),
    "config-forms-misspelt-key": (
        "--validation-config",
        b'{"booleanSurfaceForms": {"petsAllowed": {"yes": ["pets ok"]}}}'),
}
# every scoring rule away from its default: month-first dotted and slashed
# dates, a decimal comma, and the corpus's boolean worded as its pages word
# it, with an em dash (no tokens) as the only form of false
SCORING = (b'{"dateOrder": "MDY", "decimalSeparator": "comma", '
           b'"booleanSurfaceForms": {"petsAllowed": '
           b'{"true": ["Pets welcome"], "false": ["\\u2014"]}}}')
# fetched as well as the fixtures: a page that is not there, and a page
# whose URL the fetch must percent-encode (the fragment stays in the base)
MISSING = "tests/fixtures/no-such-page.html"
FETCHED_QUERY = PAGE + "?q=caf\xe9 x#f"
# `python -m sdocheck`, with no other runnable task seen on the machine
AS_IF_IDLE = ("from sdocheck import cli, pipeline; "
              "pipeline._runnable_tasks = lambda: 1; cli.entry_point()")


def fixtures() -> list[str]:
    """The fixtures but the goldens, relative to the repository root."""
    return sorted(p.relative_to(REPO).as_posix()
                  for p in (REPO / "tests" / "fixtures").rglob("*")
                  if p.is_file() and "golden" not in p.parts)


def inputs(corpus_dir: Path) -> list[str]:
    """The fixtures, then the corpus files that this writes under
    ``corpus_dir``."""
    paths = fixtures()
    for workload, build in sorted(corpus.WORKLOADS.items()):
        for seed in SEEDS:
            directory = corpus_dir / f"{workload}-{seed}"
            built = build(seed)
            built.write(directory)
            paths.extend(str(directory / inp.name) for inp in built.inputs)
    return paths


class _QuietHandler(SimpleHTTPRequestHandler):
    def log_message(self, *args):
        pass


def fetched_runs(root: str) -> list[list[str]]:
    """The runs on pages served under the URL ``root``."""
    paths = fixtures()
    runs = [["verify", root + path] for path in paths]
    runs.extend(["validate", root + path] for path in paths
                if path.endswith(".html"))
    runs.extend(["verify", root + path] for path in (MISSING, FETCHED_QUERY))
    runs.append(["verify", root.replace("http", "HTTP", 1) + PAGE])
    return runs


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


# how the checkout runs a report: (label, on one CPU, as if idle) per side
SPLIT_SIDES = (("", False, True), ("one CPU: ", True, True))


def differences(argv: list[str], ours: Path, theirs: Path) -> list[str]:
    """What differs between ``theirs``'s run of ``argv`` and ``ours``'s on
    each of ``SPLIT_SIDES``."""
    before = run(theirs, argv)
    out = []
    for side, one_cpu, as_if_idle in SPLIT_SIDES:
        after = run(ours, argv, one_cpu, as_if_idle)
        out.extend(side + name for name, old, new
                   in zip(("stdout", "stderr"), before, after) if old != new)
        if before[2] != after[2]:
            out.append(f"{side}exit {before[2]} -> {after[2]}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", help="the git revision to compare against")
    args = parser.parse_args(argv)
    if len(os.sched_getaffinity(0)) < 2:
        print("compare_reports: fewer than two usable CPUs, so no page is "
              "checked in two parts and the split goes uncompared",
              file=sys.stderr)
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
        paths = inputs(Path(tmp) / "corpus")
        runs = [[command[0], path, *command[1:]]
                for path in paths for command in COMMANDS]
        for name, (option, document) in UNLOADABLE.items():
            path = Path(tmp) / f"{name}.json"
            path.write_bytes(document)
            runs.append(["validate", PAGE, option, str(path)])
        scoring = Path(tmp) / "scoring.json"
        scoring.write_bytes(SCORING)
        runs.extend(["validate", path, "--validation-config", str(scoring)]
                    for path in paths if path.endswith(".html"))
        server = ThreadingHTTPServer(("127.0.0.1", 0), functools.partial(
            _QuietHandler, directory=str(REPO)))
        threading.Thread(target=server.serve_forever, daemon=True).start()
        runs.extend(fetched_runs(
            f"http://127.0.0.1:{server.server_address[1]}/"))
        try:
            with ThreadPoolExecutor(JOBS) as pool:
                found = list(pool.map(
                    lambda argv: differences(argv, REPO / "src",
                                             theirs / "src"),
                    runs))
        finally:
            server.shutdown()
            server.server_close()
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
