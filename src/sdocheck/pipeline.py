"""The check pipeline, one input's bytes to one report, shared by the CLI
and library callers: parse the input (an HTML page once, or one JSON-LD
file), parse every annotation block with roots numbered across blocks, then
run the vocabulary checks, the Domain Specification checks and, given a
ValidationConfig, the page-content scoring, and merge their findings.
``parse`` is the first two steps, which ``sdocheck extract`` shares.

One block's checks never read another block, so ``run`` checks a page of
many blocks in parts, one per usable CPU that is free at that moment up to
``MAX_PARTS``, each part but the first in a forked child, and merges the
parts into the report the serial loop gives.
"""

from __future__ import annotations

import os
import threading

from . import annotation, content, ds, htmltree, report, sdo_verifier
from .vocab import VocabularyGraph

# the fewest blocks a part checks; a page splits from 2 * MIN_BLOCKS blocks,
# the smallest measured size at which two parts won 9 of 10 alternated pairs
# against one process.  Measured on an idle 2-vCPU Linux VM, in-process
# `run` with content scoring on six benchmark-corpus pages per size (median
# time per page, 10 pairs):
#   blocks          10    20    30    40    50    60    80   100   150
#   two parts     +41%  +11%   +1%   -5%   -8%   -9%  -12%  -16%  -18%
#   pairs won        0     0     2     9     9    10    10    10    10
MIN_BLOCKS = 20
# the most parts a page is cut into: two is what was measured, and it bounds
# what a split loses where a CPU that looks free is not, as under a cgroup
# CPU quota, which nothing here reads.
MAX_PARTS = 2
# where Linux shows how many tasks are runnable now (see _runnable_tasks)
_LOADAVG = "/proc/loadavg"


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
    page, raw_blocks = _read(data, base_url, charset)
    return page, _parse_blocks(raw_blocks)


def _read(data: bytes, base_url: str, charset: str | None):
    text = htmltree.decode_html(data, charset)
    # ASCII whitespace, vertical tab included
    if text.lstrip(" \t\n\x0b\x0c\r").startswith("<"):
        page = htmltree.parse_html(text)
        return page, annotation.extract_annotation_blocks(page, base_url)
    return None, [annotation.RawBlock(
        data.decode("utf-8-sig", errors="replace"), 0)]


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

    A page of at least ``2 * MIN_BLOCKS`` blocks is checked in up to one
    process per usable CPU that is free now, ``MAX_PARTS`` at most: this
    one and children made with ``os.fork``, each checking every k-th block
    and holding one graph at a time.  On Linux, each task that
    ``/proc/loadavg`` shows runnable besides this one takes a usable CPU;
    elsewhere every usable CPU counts as free.  Only a process with one
    thread forks.  The report is the serial loop's, byte for byte; when a
    part fails in any way, the page is checked again in this process
    alone, so a crash raises what the serial loop raises.
    """
    page, raw_blocks = _read(data, base_url, charset)
    is_page = page is not None
    page_content = None
    if validate is not None:
        if not is_page:
            raise NotAPageError("validate needs a web page; "
                                "got a standalone annotation file")
        page_content = content.extract_page_content(page, base_url, validate)
    del page  # the blocks and pools are read; free the page before checking

    def check(blocks):
        return _check_blocks(blocks, vocab, spec, page_content, validate,
                             strict)

    k = _part_count(len(raw_blocks))
    parts = None
    if k > 1:
        try:
            parts = _check_in_children(raw_blocks, k, check)
        except Exception:  # checked again below, so a crash raises as serially
            pass
    if parts is None:
        parts = [check(raw_blocks)]
    entries, scores = _merge(parts)
    if is_page and not raw_blocks:
        entries.append(report.make_entry(
            "E102", "$", "page contains no annotation blocks"))
    score = None
    if page_content is not None:
        score = content.aggregate_scores(scores)
    return report.merge_reports(
        [entries], target=base_url if target is None else target,
        snapshot_id=vocab.snapshot_id, ds_name=spec.name if spec else None,
        content_score=score)


def _check_blocks(raw_blocks, vocab, spec, page_content, validate, strict):
    """Parse and check blocks in order, roots numbered across them from 0:
    one ``(root count, findings, value scores)`` per block."""
    checked = []
    for _, graph, entries in _parse_blocks(raw_blocks):
        scores = []
        if graph is not None:
            entries.extend(sdo_verifier.verify_schema_org(graph, vocab,
                                                          strict))
            if spec is not None:
                entries.extend(ds.verify_against_ds(graph, spec, vocab))
            if page_content is not None:
                values = content.collect_consistencies(
                    graph, page_content, validate, vocab)
                entries.extend(content.consistency_entries(values))
                scores = [(value.score, value.status) for value in values]
        checked.append((0 if graph is None else len(graph.roots), entries,
                        scores))
    return checked


def _merge(parts):
    """The findings and value scores of every block in block order, from
    ``parts[j]`` checking blocks ``j, j + k, ...``, with each path's leading
    ``$<n>`` renumbered from the part's roots to the page's."""
    entries = []
    scores = []
    k = len(parts)
    part_roots = [0] * k
    page_roots = 0
    for index in range(sum(map(len, parts))):
        part = index % k
        roots, block_entries, block_scores = parts[part][index // k]
        shift = page_roots - part_roots[part]
        if shift:
            block_entries = [
                report.ReportEntry(code, title, severity,
                                   _renumber(path, shift), description, source)
                for code, title, severity, path, description, source
                in block_entries]
        entries.extend(block_entries)
        scores.extend(block_scores)
        part_roots[part] += roots
        page_roots += roots
    return entries, scores


def _renumber(path: str, shift: int) -> str:
    if path == "$":  # a finding about a whole block
        return path
    end = path.find(".")  # a path is $<root ordinal>, then .<step>...
    if end < 0:
        end = len(path)
    return f"${int(path[1:end]) + shift}{path[end:]}"


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _runnable_tasks() -> int | None:
    """How many tasks the machine has runnable at this instant, the caller
    included: the fourth field of Linux's ``/proc/loadavg``, ``running/
    total``.  None where the file is missing or does not parse."""
    try:
        with open(_LOADAVG, "rb") as loadavg:
            running, _ = loadavg.read().split()[3].split(b"/")
        return int(running)
    except (OSError, IndexError, ValueError):
        return None


def _part_count(blocks: int) -> int:
    if (blocks < 2 * MIN_BLOCKS or not hasattr(os, "fork")
            or threading.active_count() != 1):
        return 1
    free = _usable_cpus()
    running = _runnable_tasks()
    if running is not None:  # every other runnable task may hold a CPU
        free -= running - 1
    return max(1, min(free, blocks // MIN_BLOCKS, MAX_PARTS))


def _check_in_children(raw_blocks, k: int, check):
    """``check`` of every k-th block, from block 0 here and from blocks 1 to
    k - 1 each in a forked child that sends its results through a pipe;
    None when a child fails.  Every child is reaped before this returns,
    and killed first when this does not run to its end."""
    import pickle  # a split run alone sends results between processes
    import signal
    pipes = []  # the read end of each child's pipe
    running = []  # children not yet reaped
    try:
        for first in range(1, k):
            read_end, write_end = os.pipe()
            pipes.append(read_end)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(check, raw_blocks[first::k], write_end, pipes)
            finally:
                os.close(write_end)  # the child never returns here
            running.append(pid)
        parts = [check(raw_blocks[0::k])]
        for pid, read_end in zip(list(running), pipes):
            with open(read_end, "rb", closefd=False) as pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            running.remove(pid)
            if status != 0:
                return None
            parts.append(_decode(pickle.loads(payload)))
        return parts
    finally:
        for pid in running:
            os.kill(pid, signal.SIGKILL)
        for read_end in pipes:
            os.close(read_end)
        for pid in running:
            os.waitpid(pid, 0)


def _child(check, raw_blocks, write_end: int, read_ends) -> None:
    """Check ``raw_blocks`` and write the results to ``write_end`` as plain
    tuples, then leave the process: the caller's frames, an exception
    handler among them, must never run in a child.  A child prints nothing;
    its exit status alone tells the parent whether the results came.

    The child first closes ``read_ends``, its own pipe's and those of the
    children before it, so once the caller is gone no reader is left and
    the write fails instead of waiting for ever on a full pipe."""
    status = 1
    try:
        for read_end in read_ends:
            os.close(read_end)
        import pickle
        payload = pickle.dumps(_encode(check(raw_blocks)),
                               pickle.HIGHEST_PROTOCOL)
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _encode(checked):
    """``_check_blocks``'s results as the plain tuples a child sends."""
    return [(roots,
             [(e.code, e.severity.value, e.path, e.description)
              for e in entries],
             [(score, match.value) for score, match in scores])
            for roots, entries, scores in checked]


def _decode(sent):
    """The results a child sent, as ``_check_blocks`` returns them."""
    severities = {severity.value: severity for severity in report.Severity}
    matches = {match.value: match for match in content.MatchStatus}
    catalog = report.CATALOG
    return [(roots,
             [report.ReportEntry(code, catalog[code].title,
                                 severities[severity], path, description,
                                 catalog[code].source)
              for code, severity, path, description in entries],
             [(score, matches[match]) for score, match in scores])
            for roots, entries, scores in sent]
