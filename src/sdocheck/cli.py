"""Command line front end: argv -> inputs -> ``pipeline.run`` -> report.

Three subcommands:

    sdocheck verify   <url | page.html | annotation.json>
    sdocheck validate <url | page.html>
    sdocheck extract  <url | page.html | annotation.json>

Exit codes: 0 no finding at or above --fail-level, 1 findings, 2 tool
failure (unreadable input, bad vocabulary or constraint document, network
error, internal error).  The report goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from urllib.parse import quote

from . import annotation as anno
from . import content as content_mod
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
            return _cmd_extract(args)
        vocabulary = _load_vocab(args.vocab)
        spec = _load_ds(args.ds, vocabulary)
        config = (_load_validation_config(args.validation_config)
                  if args.command == "validate" else None)
        data, base_url = _load_input(args.input)
        report = pipeline.run(data, base_url, vocabulary, target=args.input,
                              spec=spec, validate=config, strict=args.strict)
        output = report_mod.serialize_report(report, args.format)
    except (CliFailure, pipeline.NotAPageError) as exc:
        print(f"sdocheck: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not read as exit 1, "findings"
        print(f"sdocheck: internal error: {exc!r}", file=sys.stderr)
        return 2
    sys.stdout.buffer.write(output)
    sys.stdout.buffer.flush()
    return _exit_code(report, args.fail_level)


def entry_point() -> None:
    sys.exit(main())


# ---------------------------------------------------------------------------
# input handling


def _load_input(raw: str) -> tuple[bytes, str]:
    """The input's bytes and its base URL: the final URL of a fetch, or the
    ``file:`` URL of the file's absolute path."""
    if raw.startswith(("http://", "https://")):
        from .fetch import FetchError, fetch  # file inputs skip its import
        try:
            result = fetch(raw)
        except FetchError as exc:
            raise CliFailure(f"fetch failed: {exc}") from exc
        return result.body, result.final_url
    try:
        with open(raw, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise CliFailure(f"cannot read input: {exc}") from exc
    return data, "file://" + quote(os.fsencode(os.path.abspath(raw)))


def _load_vocab(path: str | None):
    try:
        if path:
            with open(path, "rb") as handle:
                return vocab_mod.load_vocabulary(handle.read())
        return vocab_mod.load_default_vocabulary()
    except (OSError, vocab_mod.ParseError, vocab_mod.IntegrityError) as exc:
        raise CliFailure(f"cannot load vocabulary: {exc}") from exc


def _load_ds(path: str | None, vocabulary):
    if not path:
        return None
    try:
        with open(path, "rb") as handle:
            return ds_mod.load_domain_specification(handle.read(), vocabulary)
    except (OSError, ds_mod.DsParseError, ds_mod.DsIntegrityError) as exc:
        raise CliFailure(f"cannot load domain specification: {exc}") from exc


def _load_validation_config(path: str | None):
    if not path:
        return content_mod.ValidationConfig()
    try:
        with open(path, "rb") as handle:
            return content_mod.load_validation_config(handle.read())
    except (OSError, ValueError) as exc:
        raise CliFailure(f"cannot load validation config: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def _exit_code(report: report_mod.VerificationReport, fail_level: str) -> int:
    if fail_level == "never":
        return 0
    minimum = {"error": Severity.ERROR.rank, "warning": Severity.WARNING.rank}
    worst = report.worst_severity()
    if worst is not None and worst.rank >= minimum[fail_level]:
        return 1
    return 0


def _cmd_extract(args) -> int:
    _, blocks = pipeline.parse(*_load_input(args.input))
    dumps = []
    for block, graph, entries in blocks:
        dumps.append({
            "block_index": block.block_index,
            "format": block.source_format.value,
            "roots": None if graph is None else graph.roots,
            "findings": [
                {"code": e.code, "severity": e.severity.value,
                 "path": e.path, "description": e.description}
                for e in entries
            ],
        })
    _write_json(dumps, sys.stdout.write, _graph_object_to_dict())
    sys.stdout.write("\n")
    return 0


def _graph_object_to_dict():
    """The ``default`` that writes graph objects: a node in full where it is
    first written, as a ``ref`` to its path after that."""
    seen: set[int] = set()

    def to_dict(obj) -> dict:
        path = obj.path.render() if obj.path else None
        if isinstance(obj, anno.Literal):
            return {"kind": "literal", "path": path,
                    "raw": obj.raw, "datatype": obj.datatype}
        if isinstance(obj, anno.Reference):
            return {"kind": "reference", "path": path, "iri": obj.iri}
        if isinstance(obj, anno.Entity):
            return {"kind": "entity", "path": path, "node": obj.node}
        if id(obj) in seen:
            return {"ref": path}
        seen.add(id(obj))
        return {"path": path, "types": list(obj.types),
                "identifier": obj.identifier, "properties": obj.properties}

    return to_dict


def _write_json(value, write, default) -> None:
    """Write ``json.dumps(value, indent=2, ensure_ascii=False,
    default=default)`` piece by piece from an explicit stack: the json
    module recurses once per nesting level, and the text of a deep graph
    grows with the square of its depth."""
    # entries are text to write or (value, the newline and indent before it)
    stack: list = [(value, "\n")]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            write(item)
            continue
        value, newline = item
        if not isinstance(value, (dict, list, str, int, float, type(None))):
            value = default(value)
        if isinstance(value, dict):
            brackets = "{}"
            members = [(json.dumps(k, ensure_ascii=False) + ": ", v)
                       for k, v in value.items()]
        elif isinstance(value, list):
            brackets, members = "[]", [("", v) for v in value]
        else:
            write(json.dumps(value, ensure_ascii=False))
            continue
        if not members:
            write(brackets)
            continue
        inner = newline + "  "
        parts: list = [brackets[0]]
        for prefix, member in members:
            parts += [inner + prefix, (member, inner), ","]
        parts[-1] = newline + brackets[1]
        stack.extend(reversed(parts))


if __name__ == "__main__":
    entry_point()
