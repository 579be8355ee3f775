"""Command line front end: fetch -> extract -> verify -> validate -> report.

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
import sys
from dataclasses import dataclass

from . import annotation as anno
from . import content as content_mod
from . import ds as ds_mod
from . import htmltree
from . import report as report_mod
from . import sdo_verifier
from . import vocab as vocab_mod
from .fetch import FetchError, fetch
from .report import Severity


class CliFailure(Exception):
    """Tool-level failure: maps to exit code 2."""


@dataclass
class LoadedInput:
    target: str        # identifier used in the report
    data: bytes
    base_url: str
    page: htmltree.Document | None  # parsed HTML; None for an annotation file


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
        report = check(args)
        output = report_mod.serialize_report(report, args.format)
    except CliFailure as exc:
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


def _load_input(raw: str) -> LoadedInput:
    if raw.startswith(("http://", "https://")):
        try:
            result = fetch(raw)
        except FetchError as exc:
            raise CliFailure(f"fetch failed: {exc}") from exc
        return LoadedInput(target=raw, data=result.body,
                           base_url=result.final_url,
                           page=_parse_if_html(result.body))
    try:
        with open(raw, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise CliFailure(f"cannot read input: {exc}") from exc
    return LoadedInput(target=raw, data=data, base_url=f"file://{raw}",
                       page=_parse_if_html(data))


def _parse_if_html(data: bytes) -> htmltree.Document | None:
    if data.lstrip()[:1] != b"<":
        return None
    return htmltree.parse_html(data)


def _load_vocab(args):
    try:
        if args.vocab:
            with open(args.vocab, "rb") as handle:
                return vocab_mod.load_vocabulary(handle.read())
        return vocab_mod.load_default_vocabulary()
    except (OSError, vocab_mod.ParseError, vocab_mod.IntegrityError) as exc:
        raise CliFailure(f"cannot load vocabulary: {exc}") from exc


def _load_ds(args, vocabulary):
    if not args.ds:
        return None
    try:
        with open(args.ds, "rb") as handle:
            return ds_mod.load_domain_specification(handle.read(), vocabulary)
    except (OSError, ds_mod.DsParseError, ds_mod.DsIntegrityError) as exc:
        raise CliFailure(f"cannot load domain specification: {exc}") from exc


def _load_validation_config(args):
    if not args.validation_config:
        return content_mod.ValidationConfig()
    try:
        with open(args.validation_config, "rb") as handle:
            return content_mod.load_validation_config(handle.read())
    except (OSError, ValueError) as exc:
        raise CliFailure(f"cannot load validation config: {exc}") from exc


def _blocks_for(loaded: LoadedInput) -> list[anno.RawBlock]:
    if loaded.page is not None:
        return anno.extract_annotation_blocks(loaded.page, loaded.base_url)
    text = loaded.data.decode("utf-8", errors="replace")
    return [anno.RawBlock(text, anno.SourceFormat.JSON_LD, 0)]


def _parse_blocks(blocks: list[anno.RawBlock]):
    """Parse blocks in order, numbering roots across them so every path on
    a page is unique; yields ``(block, graph, findings)``."""
    next_root = 0
    for block in blocks:
        graph, entries = anno.parse_annotation(block,
                                               first_root_ordinal=next_root)
        if graph is not None:
            next_root += len(graph.roots)
        yield block, graph, entries


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


def check(args: argparse.Namespace) -> report_mod.VerificationReport:
    """Run the ``verify`` or ``validate`` subcommand over one input.

    Both check the annotation against the vocabulary and, given ``--ds``,
    the domain specification; ``validate`` also scores every value against
    the page content.  Raises CliFailure on a tool-level failure.
    """
    validate = args.command == "validate"
    vocabulary = _load_vocab(args)
    spec = _load_ds(args, vocabulary)
    config = _load_validation_config(args) if validate else None
    loaded = _load_input(args.input)
    page = None
    if validate:
        if loaded.page is None:
            raise CliFailure("validate needs a web page; "
                             "got a standalone annotation file")
        page = content_mod.extract_page_content(loaded.page, loaded.base_url,
                                                config)
    blocks = _blocks_for(loaded)
    parts = []
    if loaded.page is not None and not blocks:
        parts.append([report_mod.make_entry(
            "E102", "$", "page contains no annotation blocks")])
    consistencies = []
    for _, graph, entries in _parse_blocks(blocks):
        parts.append(entries)
        if graph is None:
            continue
        parts.append(sdo_verifier.verify_schema_org(graph, vocabulary,
                                                    args.strict))
        if spec is not None:
            parts.append(ds_mod.verify_against_ds(graph, spec, vocabulary))
        if page is not None:
            consistencies.extend(content_mod.collect_consistencies(
                graph, page, config, vocabulary))
    score = None
    if page is not None:
        parts.append(content_mod.consistency_entries(consistencies))
        score = content_mod.aggregate_scores(consistencies)
    return report_mod.merge_reports(
        parts, target=loaded.target, snapshot_id=vocabulary.snapshot_id,
        ds_name=spec.name if spec else None, content_score=score)


def _cmd_extract(args) -> int:
    loaded = _load_input(args.input)
    dumps = []
    for block, graph, entries in _parse_blocks(_blocks_for(loaded)):
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
