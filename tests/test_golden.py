"""Pinned report bytes: every subcommand's output on the fixtures must equal
the bytes checked in under ``fixtures/golden/``.

``cli.main`` runs in-process from the repository root with relative input
paths, so the ``target`` field and the ``file://`` base URLs inside the
reports do not depend on where the checkout lives.  After a deliberate
change of findings, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import sys
from contextlib import redirect_stdout
from io import BytesIO, TextIOWrapper
from pathlib import Path

import pytest

from sdocheck import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "fixtures" / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

NAMED_DS = "tests/fixtures/ds_name_required.json"
EVENT_DS = "src/sdocheck/data/ds/event.json"


def _relative(pattern: str) -> list[str]:
    return sorted(p.relative_to(ROOT).as_posix()
                  for p in ROOT.glob(pattern))


ANNOTATION_FILES = (_relative("tests/fixtures/*_event.json")
                    + _relative("tests/fixtures/equiv/*.jsonld"))
PAGES = (_relative("tests/fixtures/*.html")
         + _relative("tests/fixtures/equiv/*.html"))


def _stem(path: str) -> str:
    return path.removeprefix("tests/fixtures/").replace("/", "__")


def _cases() -> dict[str, list[str]]:
    cases = {}
    for path in ANNOTATION_FILES + PAGES:
        stem = _stem(path)
        cases[f"verify-{stem}"] = ["verify", path]
        cases[f"verify-strict-{stem}"] = ["verify", path, "--strict"]
        cases[f"verify-ds-named-{stem}"] = ["verify", path, "--ds", NAMED_DS]
        cases[f"verify-ds-event-{stem}"] = ["verify", path, "--ds", EVENT_DS]
        cases[f"extract-{stem}"] = ["extract", path]
    for path in PAGES:
        stem = _stem(path)
        cases[f"validate-{stem}"] = ["validate", path]
        cases[f"validate-ds-event-{stem}"] = ["validate", path,
                                              "--ds", EVENT_DS]
    cases["verify-human-error_event.json"] = [
        "verify", "tests/fixtures/error_event.json", "--format", "human"]
    cases["validate-human-page_bad.html"] = [
        "validate", "tests/fixtures/page_bad.html", "--format", "human"]
    return cases


CASES = _cases()


def run_case(argv: list[str]) -> tuple[int, bytes]:
    """Run ``cli.main`` from the repository root; returns (exit, stdout)."""
    sink = BytesIO()
    stdout = TextIOWrapper(sink, encoding="utf-8", newline="")
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(stdout):
            code = cli.main(argv)
        stdout.flush()
    finally:
        os.chdir(cwd)
    return code, sink.getvalue()


@pytest.fixture(scope="module")
def exit_codes():
    return json.loads(EXIT_CODES.read_text())


def test_every_case_has_a_golden_file(exit_codes):
    assert sorted(exit_codes) == sorted(CASES)
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_unchanged(case, exit_codes):
    code, output = run_case(CASES[case])
    assert output == (GOLDEN / f"{case}.out").read_bytes()
    assert code == exit_codes[case]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.out"):
        old.unlink()
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], output = run_case(argv)
        (GOLDEN / f"{name}.out").write_bytes(output)
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(codes)} golden reports to {GOLDEN}", file=sys.stderr)
