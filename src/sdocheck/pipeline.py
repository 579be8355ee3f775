"""The check pipeline, one input's bytes to one report, shared by the CLI
and library callers: parse the input (an HTML page once, or one JSON-LD
file), parse every annotation block with roots numbered across blocks, then
run the vocabulary checks, the Domain Specification checks and, given a
ValidationConfig, the page-content scoring, and merge their findings.
``parse`` is the first two steps, which ``sdocheck extract`` shares.
"""

from __future__ import annotations

from . import annotation, content, ds, htmltree, report, sdo_verifier
from .vocab import VocabularyGraph


class NotAPageError(ValueError):
    """Content scoring was asked for on an input that is not a web page."""


def parse(data: bytes, base_url: str, charset: str | None = None):
    """Parse one input into ``(page, blocks)``.

    Input whose text, decoded as a page, starts with ``<`` after ASCII
    whitespace is an HTML page: ``page`` is what its one parse recorded
    (``htmltree.Document``) and the blocks are the page's annotation
    blocks.  Anything else is one standalone JSON-LD block and ``page`` is
    None.  ``blocks`` yields ``(block, graph, findings)`` in block order,
    parsing each block when it is asked for, so a caller that checks one
    block at a time holds one graph at a time.  Roots are numbered across
    blocks, so every path in one input is unique.
    ``charset``, the HTTP ``Content-Type`` charset, helps decode a page.
    """
    text = htmltree.decode_html(data, charset)
    # ASCII whitespace, vertical tab included
    if text.lstrip(" \t\n\x0b\x0c\r").startswith("<"):
        page = htmltree.parse_html(text)
        raw_blocks = annotation.extract_annotation_blocks(page, base_url)
    else:
        page = None
        raw_blocks = [annotation.RawBlock(
            data.decode("utf-8-sig", errors="replace"), 0)]
    return page, _parse_blocks(raw_blocks)


def _parse_blocks(raw_blocks: list[annotation.RawBlock]):
    next_root = 0
    for block in raw_blocks:
        graph, entries = annotation.parse_annotation(
            block, first_root_ordinal=next_root)
        if graph is not None:
            next_root += len(graph.roots)
        yield block, graph, entries


def run(data: bytes, base_url: str, vocab: VocabularyGraph, *,
        target: str | None = None,
        spec: ds.DomainSpecification | None = None,
        validate: content.ValidationConfig | None = None,
        strict: bool = False,
        charset: str | None = None) -> report.VerificationReport:
    """Check one input against the vocabulary and, given ``spec``, a Domain
    Specification; given ``validate``, also score every value against the
    page content with that configuration.

    ``base_url`` resolves the page's relative links; ``target`` names the
    input in the report (default: ``base_url``).  ``strict`` elevates
    domain and range findings to errors.  ``charset`` is the HTTP
    ``Content-Type`` charset of a fetched page.  Raises NotAPageError when
    ``validate`` is given for an input that is not a web page.
    """
    page, blocks = parse(data, base_url, charset)
    is_page = page is not None
    page_content = None
    if validate is not None:
        if not is_page:
            raise NotAPageError("validate needs a web page; "
                                "got a standalone annotation file")
        page_content = content.extract_page_content(page, base_url, validate)
    del page  # the blocks and pools are read; free the page before checking
    parts = []
    consistencies = []
    block_count = 0
    for _, graph, entries in blocks:
        block_count += 1
        parts.append(entries)
        if graph is None:
            continue
        parts.append(sdo_verifier.verify_schema_org(graph, vocab, strict))
        if spec is not None:
            parts.append(ds.verify_against_ds(graph, spec, vocab))
        if page_content is not None:
            consistencies.extend(content.collect_consistencies(
                graph, page_content, validate, vocab))
    if is_page and block_count == 0:
        parts.append([report.make_entry(
            "E102", "$", "page contains no annotation blocks")])
    score = None
    if page_content is not None:
        parts.append(content.consistency_entries(consistencies))
        score = content.aggregate_scores(consistencies)
    return report.merge_reports(
        parts, target=base_url if target is None else target,
        snapshot_id=vocab.snapshot_id, ds_name=spec.name if spec else None,
        content_score=score)
