"""Command line front end: argv -> inputs -> ``pipeline.run`` -> report.

Three subcommands:

    sdocheck verify   <url | page.html | annotation.json>
    sdocheck validate <url | page.html>
    sdocheck extract  <url | page.html | annotation.json>

Exit codes: 0 no finding at or above --fail-level, 1 findings, 2 tool
failure (unreadable input, bad vocabulary or constraint document, network
error, internal error, a stdout that cannot take the output).  The report
goes to stdout, diagnostics to stderr; a closed or unwritable stderr drops
them and leaves the exit code as listed.  ``entry_point`` ends the process
with ``os._exit`` once stdout and stderr are flushed, so no atexit handler
runs; callers that need the code call ``main``, which returns it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from urllib.parse import quote

from . import annotation as anno
from . import ds as ds_mod
from . import pipeline
from . import report as report_mod
from . import vocab as vocab_mod
from .report import Severity


class CliFailure(Exception):
    """Tool-level failure: maps to exit code 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdocheck",
        description="Verify schema.org annotations and validate them "
                    "against page content.")
    sub = parser.add_subparsers(dest="command", required=True)
    input_help = "URL, HTML file, or standalone annotation file"

    def add_check_options(p):
        p.add_argument("input", help=input_help)
        p.add_argument("--vocab", metavar="PATH", default=None,
                       help="vocabulary dump (default: vendored snapshot)")
        p.add_argument("--format", choices=["machine", "human"],
                       default="machine", help="report format")
        p.add_argument("--ds", metavar="PATH", default=None,
                       help="domain specification document")
        p.add_argument("--strict", action="store_true",
                       help="elevate domain/range findings to errors")
        p.add_argument("--fail-level",
                       choices=["error", "warning", "never"],
                       default="error",
                       help="lowest severity that fails the run")
        return p

    add_check_options(sub.add_parser("verify", help="check vocabulary and "
                                     "constraint conformance"))
    validate = add_check_options(sub.add_parser(
        "validate", help="verify plus page-content consistency scoring"))
    validate.add_argument("--validation-config", metavar="PATH", default=None,
                          help="content validation configuration (JSON)")
    sub.add_parser("extract", help="print the parsed annotation "
                   "graphs").add_argument("input", help=input_help)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "extract":
            output, code = _extract_json(args) + "\n", 0
        else:
            vocabulary = (_load(args.vocab, "vocabulary",
                                vocab_mod.load_vocabulary) if args.vocab
                          else vocab_mod.load_default_vocabulary())
            spec = (_load(args.ds, "domain specification",
                          ds_mod.load_domain_specification, vocabulary)
                    if args.ds else None)
            config = None
            if args.command == "validate":
                from . import content as content_mod  # verify never loads it
                config = (_load(args.validation_config, "validation config",
                                content_mod.load_validation_config)
                          if args.validation_config
                          else content_mod.ValidationConfig())
            data, base_url, charset = _load_input(args.input)
            report = pipeline.run(data, base_url, vocabulary,
                                  target=args.input, spec=spec,
                                  validate=config, strict=args.strict,
                                  charset=charset)
            output = report_mod.serialize_report(report, args.format)
            code = _exit_code(report, args.fail_level)
    except (CliFailure, pipeline.NotAPageError) as exc:
        _warn(f"sdocheck: {exc}")
        return 2
    except Exception as exc:  # a crash must not read as exit 1, "findings"
        _warn(f"sdocheck: internal error: {exc!r}")
        return 2
    # a stdout that cannot take the output is a tool failure, not "findings"
    return code if _write_output(output) else 2


def entry_point() -> None:
    """``main`` as a process, ended by ``os._exit`` past the teardown."""
    try:
        code = main()
    except SystemExit as exc:  # argparse: --help and usage errors
        code = exc.code or 0
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError:
            code = 2  # as when _write_output fails
    os._exit(code)


def _warn(line: str) -> None:
    """One line on stderr, dropped if stderr is closed or cannot take it."""
    if sys.stderr is not None:
        try:
            print(line, file=sys.stderr)
        except OSError:
            pass


def _write_output(output: str | bytes) -> bool:
    """Write the command's output to stdout.  False when stdout cannot take
    it, after one line on stderr, or none when a reader left early."""
    if sys.stdout is None:  # the interpreter started with it closed
        _warn("sdocheck: cannot write output: stdout is closed")
        return False
    try:
        if isinstance(output, bytes):
            sys.stdout.buffer.write(output)
        else:
            sys.stdout.write(output)
        sys.stdout.flush()
    except OSError as exc:
        if not isinstance(exc, BrokenPipeError):
            _warn(f"sdocheck: cannot write output: {exc}")
        return False
    return True


# ---------------------------------------------------------------------------
# input handling


def _load_input(raw: str) -> tuple[bytes, str, str | None]:
    """The input's bytes, its base URL and its charset.  A fetch gives its
    final URL and the ``Content-Type`` charset; a file gives the ``file:``
    URL of its absolute path and no charset."""
    if raw.lower().startswith(("http://", "https://")):  # in any case
        from .fetch import FetchError, fetch  # file inputs skip its import
        try:
            result = fetch(raw)
        except FetchError as exc:
            raise CliFailure(f"fetch failed: {exc}") from exc
        if not 200 <= result.status < 300:
            _warn(f"sdocheck: warning: HTTP {result.status} from "
                  f"{result.final_url}")
        return result.body, result.final_url, result.charset
    try:
        with open(raw, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise CliFailure(f"cannot read input: {exc}") from exc
    return data, "file://" + quote(os.fsencode(os.path.abspath(raw))), None


def _load(path: str, what: str, loader, *args):
    """``loader`` applied to the bytes of the file at ``path`` and to
    ``args``; a file that cannot be read or loaded is a tool failure."""
    try:
        with open(path, "rb") as handle:
            return loader(handle.read(), *args)
    except (OSError, ValueError) as exc:
        raise CliFailure(f"cannot load {what}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def _exit_code(report: report_mod.VerificationReport, fail_level: str) -> int:
    if fail_level == "never":
        return 0
    worst = report.worst_severity()
    if worst is not None and worst.rank >= Severity(fail_level).rank:
        return 1
    return 0


def _extract_json(args) -> str:
    _, blocks = pipeline.parse(*_load_input(args.input))
    dumps = [{
        "block_index": block.block_index,
        "format": block.source_format,
        "roots": None if graph is None else [root.path for root in graph.roots],
        "nodes": None if graph is None else graph.nodes,
        "findings": [
            {"code": e.code, "severity": e.severity.value,
             "path": e.path, "description": e.description}
            for e in entries
        ],
    } for block, graph, entries in blocks]
    return json.dumps(dumps, indent=2, ensure_ascii=False,
                      default=_graph_object_to_dict)


def _graph_object_to_dict(obj) -> dict:
    """A node or value as JSON; an entity names its node by path, so each
    node is written once, in the node list."""
    if isinstance(obj, anno.Literal):
        return {"kind": "literal", "path": obj.path,
                "raw": obj.raw, "datatype": obj.datatype}
    if isinstance(obj, anno.Reference):
        return {"kind": "reference", "path": obj.path, "iri": obj.iri}
    if isinstance(obj, anno.Entity):
        return {"kind": "entity", "path": obj.path, "node": obj.node.path}
    return {"path": obj.path, "types": obj.types,
            "identifier": obj.identifier, "properties": obj.properties}


if __name__ == "__main__":
    entry_point()
