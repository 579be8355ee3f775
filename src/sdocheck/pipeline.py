"""The check pipeline, one input's bytes to one report, shared by the CLI
and library callers: parse the input (an HTML page once, or one JSON-LD
file), parse every annotation block with roots numbered across blocks, then
run the vocabulary checks, the Domain Specification checks and, given a
ValidationConfig, the page-content scoring, and merge their findings.
``parse`` is the first two steps, which ``sdocheck extract`` shares.  A
page phase after the merge adds the findings about the whole input.

One block's checks never read another block, so while a second CPU is
free, ``run`` checks a page of many blocks in two parts, the even blocks in
the calling process and the odd ones in one forked child, and merges the
parts into the report the serial loop gives.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING

from . import annotation, ds, htmltree, report, sdo_verifier
from .vocab import VocabularyGraph

if TYPE_CHECKING:  # a run without content scoring never imports the layer
    from .content import ValidationConfig

# the fewest blocks a part checks; a page splits from 2 * MIN_BLOCKS blocks,
# the smallest measured size at which two parts won 9 of 10 alternated pairs
# against one process.  Measured on an idle 2-vCPU Linux VM, in-process
# `run` with content scoring on six benchmark-corpus pages per size (median
# time per page, 10 pairs):
#   blocks          10    20    30    40    50    60    80   100   150
#   two parts     +41%  +11%   +1%   -5%   -8%   -9%  -12%  -16%  -18%
#   pairs won        0     0     2     9     9    10    10    10    10
MIN_BLOCKS = 20
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
        page = htmltree.parse_html(text, base_url)
        return page, annotation.extract_annotation_blocks(page)
    return None, [annotation.RawBlock(data, 0, base_url)]


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
        validate: ValidationConfig | None = None,
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

    A page of at least ``2 * MIN_BLOCKS`` blocks is checked in two parts
    when at least two usable CPUs are free now: this process checks the
    even blocks and one child made with ``os.fork`` the odd ones, each
    holding one graph at a time.  On Linux, each task that
    ``/proc/loadavg`` shows runnable besides this one takes a usable CPU;
    elsewhere every usable CPU counts as free.  A cgroup CPU quota is not
    read: one child bounds what a split loses where a CPU that looks free
    is not.  Only a process with one thread forks.  The report is the
    serial loop's, byte for byte; when the child fails in any way, the
    page is checked again in this process alone, so a crash raises what
    the serial loop raises.
    """
    page, raw_blocks = _read(data, base_url, charset)
    is_page = page is not None
    score_values = None
    if validate is not None:
        if not is_page:
            raise NotAPageError("validate needs a web page; "
                                "got a standalone annotation file")
        from . import content  # once per run, and only for content scoring
        page_content = content.extract_page_content(page, validate)

        def score_values(graph):
            values = content.collect_consistencies(graph, page_content,
                                                   validate, vocab)
            return (content.consistency_entries(values),
                    [(value.score, value.status) for value in values])
    del page  # the blocks and pools are read; free the page before checking

    def check(blocks):
        return _check_blocks(blocks, vocab, spec, score_values)

    parts = None
    if _splits(len(raw_blocks)):
        try:
            parts = _check_in_two(raw_blocks, check)
        except Exception:  # checked again below, so a crash raises as serially
            pass
    if parts is None:
        parts = [check(raw_blocks)]
    entries, scores, matched = _merge(parts)
    entries.extend(_page_entries(is_page, spec, matched))
    score = None
    if validate is not None:
        score = content.aggregate_scores(scores)
    return report.merge_reports(
        entries, target=base_url if target is None else target,
        snapshot_id=vocab.snapshot_id, ds_name=spec.name if spec else None,
        content_score=score, strict=strict)


def _check_blocks(raw_blocks, vocab, spec, score_values):
    """Parse and check blocks in order, roots numbered across them from 0:
    one ``(root count, target matched, findings, value scores)`` per block,
    where a block that did not parse matched None, and one that did whether
    a root is of a target type of ``spec``.  Given ``score_values``, a
    graph's content findings and value scores are ``score_values(graph)``."""
    checked = []
    for _, graph, entries in _parse_blocks(raw_blocks):
        matched = None
        scores = []
        if graph is not None:
            entries.extend(sdo_verifier.verify_schema_org(graph, vocab))
            matched = False
            if spec is not None:
                found = ds.verify_against_ds(graph, spec, vocab)
                matched = found is not None
                if matched:
                    entries.extend(found)
            if score_values is not None:
                content_entries, scores = score_values(graph)
                entries.extend(content_entries)
        checked.append((0 if graph is None else len(graph.roots), matched,
                        entries, scores))
    return checked


def _merge(parts):
    """The findings, value scores and target flags of every block in block
    order, from ``parts[j]`` checking blocks ``j, j + k, ...`` of ``k``
    parts (every block, or the even blocks then the odd ones), with each
    path's leading ``$<n>`` renumbered from the part's roots to the
    page's."""
    entries = []
    scores = []
    matched = []
    k = len(parts)
    part_roots = [0] * k
    page_roots = 0
    for index in range(sum(map(len, parts))):
        part = index % k
        roots, block_matched, block_entries, block_scores = (
            parts[part][index // k])
        shift = page_roots - part_roots[part]
        if shift:
            block_entries = [entry._replace(path=_renumber(entry.path, shift))
                             for entry in block_entries]
        entries.extend(block_entries)
        scores.extend(block_scores)
        matched.append(block_matched)
        part_roots[part] += roots
        page_roots += roots
    return entries, scores, matched


def _page_entries(is_page: bool, spec: ds.DomainSpecification | None,
                  matched: list[bool | None]) -> list[report.ReportEntry]:
    """The page phase: findings about the whole input, at ``$``, from its
    blocks' target flags in block order (None for a block that did not
    parse).  E102 for a page without blocks; given ``spec``, one E301 when
    some block parsed and no root of any block is of a target type."""
    if is_page and not matched:
        return [report.make_entry("E102", "$",
                                  "page contains no annotation blocks")]
    parsed = [flag for flag in matched if flag is not None]
    if spec is not None and parsed and not any(parsed):
        targets = ", ".join(spec.root.target_types)
        return [report.make_entry(
            "E301", "$", f"no annotation root is of target type {targets}")]
    return []


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


def _splits(blocks: int) -> bool:
    if (blocks < 2 * MIN_BLOCKS or not hasattr(os, "fork")
            or threading.active_count() != 1):
        return False
    free = _usable_cpus()
    running = _runnable_tasks()
    if running is not None:  # every other runnable task may hold a CPU
        free -= running - 1
    return free >= 2


def _check_in_two(raw_blocks, check):
    """``check`` of the even blocks here and of the odd ones in a forked
    child that sends its results through a pipe; None when the child
    fails.  The child is reaped before this returns, and killed first when
    this does not run to its end."""
    import pickle  # a split run alone sends results between processes
    import signal
    read_end, write_end = os.pipe()
    pid = None  # the child, until it is reaped
    try:
        try:
            pid = os.fork()
            if pid == 0:
                _child(check, raw_blocks[1::2], read_end, write_end)
        finally:
            os.close(write_end)  # the child never returns here
        even = check(raw_blocks[0::2])
        with open(read_end, "rb", closefd=False) as pipe:
            payload = pipe.read()
        status = os.waitpid(pid, 0)[1]
        pid = None
        return [even, pickle.loads(payload)] if status == 0 else None
    finally:
        os.close(read_end)
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(check, raw_blocks, read_end: int, write_end: int) -> None:
    """Check ``raw_blocks`` and write ``check``'s results, pickled, to
    ``write_end``, then leave the process: the caller's frames, an
    exception handler among them, must never run in a child.  A child
    prints nothing; its exit status alone tells the parent whether the
    results came.

    The child first closes the pipe's ``read_end``, so once the caller is
    gone no reader is left and the write fails instead of waiting for ever
    on a full pipe."""
    status = 1
    try:
        os.close(read_end)
        import pickle
        payload = pickle.dumps(check(raw_blocks), pickle.HIGHEST_PROTOCOL)
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)
