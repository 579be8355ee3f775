"""The check pipeline shared by the CLI and library callers."""

import codecs
import ctypes
import json
import os
import pickle
import select
import signal
import subprocess
import sys
import threading
import traceback
from html import escape
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sdocheck import ds, pipeline, report
from sdocheck.annotation import extract_annotation_blocks
from sdocheck.content import ValidationConfig, extract_page_content
from sdocheck.htmltree import parse_html

from helpers import (flat_blocks, oracle_blocks, oracle_page_content,
                     oracle_text_and_urls, stdlib_is_the_oracle)

ROOT = Path(__file__).resolve().parent.parent
BASE = "https://x.example/page"


def test_readme_library_call_prints_the_cli_report(monkeypatch, capsys):
    """The README's "Library use" code gives the bytes that ``sdocheck
    validate`` prints for the same page."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    monkeypatch.chdir(ROOT)
    exec(code, namespace)
    golden = ROOT / "tests/fixtures/golden/validate-page_mixed.html.out"
    assert report.serialize_report(namespace["result"]) == golden.read_bytes()
    assert "$0" in capsys.readouterr().out


def test_validate_needs_a_web_page(vocab):
    with pytest.raises(pipeline.NotAPageError, match="needs a web page"):
        pipeline.run(b'{"@type": "Event"}', BASE, vocab,
                     validate=ValidationConfig())


@pytest.mark.parametrize("codec, charset", [
    ("utf-16-le", "utf-16le"), ("utf-16-le", "utf-16"),
    ("utf-16-be", "utf-16be")])
def test_utf16_named_only_by_the_http_charset_is_read(vocab, codec, charset):
    page = ('<html><body><div itemscope itemtype="https://schema.org/Event">'
            '<span itemprop="name">Gala</span></div></body></html>')
    served = pipeline.run(page.encode(codec), BASE, vocab, charset=charset)
    assert served.entries == pipeline.run(page.encode(), BASE, vocab).entries


def test_roots_are_numbered_across_blocks():
    page = b"""<html><body>
    <div itemscope itemtype="https://schema.org/Place">
      <span itemprop="name">P</span></div>
    <script type="application/ld+json">[{"@type": "Event", "name": "A"},
      {"@type": "Event", "name": "B"}]</script>
    <script type="application/ld+json">{"@type": "Event"</script>
    <script type="application/ld+json">{"@type": "Event", "name": "C"}</script>
    </body></html>"""
    tree, blocks = pipeline.parse(page, BASE)
    assert tree is not None
    roots = [[root.path for root in graph.roots] if graph else None
             for _, graph, _ in blocks]
    assert roots == [["$0", "$1"], None, ["$2"], ["$3"]]


# ---------------------------------------------------------------------------
# end-to-end fuzzing: every input gets a report, under verify and validate


def check_every_way(vocab, data: bytes,
                    charset: str | None = None) -> list[report.ReportEntry]:
    """Run ``data``, served with the HTTP ``charset``, through verify and
    validate; returns the verify entries.  Raises on anything but a report
    or, for validate on an input that is not a page, NotAPageError."""
    verified = pipeline.run(data, BASE, vocab, charset=charset)
    report.serialize_report(verified)
    try:
        validated = pipeline.run(data, BASE, vocab, charset=charset,
                                 validate=ValidationConfig())
    except pipeline.NotAPageError:
        assert data.lstrip()[:1] != b"<"
    else:
        report.serialize_report(validated)
    return verified.entries


URLISH = (st.sampled_from(["http://[", "http://[oops", "http://[::1]/x",
                           "https://x.example/a", "/rel", "#frag", "",
                           "mailto:a@b.example", "http://a]b", "[",
                           "https://schema.org/Event"])
          | st.text(alphabet="[]:/.#?ahtps x", max_size=12))
ATTRIBUTES = st.lists(st.tuples(
    st.sampled_from(["itemscope", "itemprop", "itemid", "itemtype", "href",
                     "src", "content", "datetime", "itemref", "type",
                     "value", "data"]),
    st.none() | URLISH | st.sampled_from(["name", "url", "subEvent", "@type",
                                          "startDate", "application/ld+json"]),
), max_size=4)
RAW_MARKUP = st.sampled_from([
    "<![foo bar]>", "<![CDATA[x]]>", "<![if !IE]>", "<![endif]>", "<![",
    "<![ ]>", "<!x>", "</p>", "<p", "&amp;", "&#xZZ;", "July 10, 2026",
    "10 July 2026", "2026-07-10", "12.5",
    # unclosed elements and stray end tags
    "<div>", "<li>x", "<ul><li>a<li>b</ul>", "</div>", "</li>", "</template>",
    "</script>", "<template>", "<style>", "<span itemscope>", "<br/>",
    "<div/>", "<p>a<br>b",
    # a <base> after a link still resolves it; only the first one counts
    '<a href="rel/x">l</a><base href="https://b.example/d/">',
    '<base href="/other/"><img src="i.png">',
    # an item hidden in a template is still a block; its text is not shown
    '<template><div itemscope itemtype="https://schema.org/Event">'
    '<span itemprop="name">T 2026-07-10</span></div></template>',
    '<script type="application/ld+json"/>',
    # start tags the tokenizer does not read with its one plain pattern
    "<a href=/x/y>u</a>", "<a href='q'>s</a>", '<a href = "sp">e</a>',
    "<a href=rel/>t</a>", '<IMG SRC="UP.png"><DIV ITEMSCOPE>U</DIV>',
    '<a href="one" href="two">r</a>', '<span itemprop="name"content="c">',
    '<a\x0bhref="vt">v</a>', '<a href="/a?b=1&amp;c=&#x32;">ent</a>',
    # raw text, stray end tags, declarations, comments
    '<script type="application/ld+json">{}</SCRIPT >', "<script>", "</>",
    '</a x=">">', "<!doctype html>", "<?xml ?>", "<!-- a -- >",
    # properties: one valued by an attribute with a property inside, a void
    # one, text with a script and a style in it, an item before the <base>
    '<a itemprop="url" href="/u"><span itemprop="name">n</span></a>',
    '<img itemprop="image" src="i.png">',
    '<span itemprop="name"> a<script>b</script>c<style>d</style>e\n</span>',
    '<div itemscope itemid="i"><a itemprop="url" href="u">x</a></div>'
    '<base href="https://b.example/d/">',
]) | st.text(max_size=8)
JSONLD_KEYS = st.sampled_from(["@context", "@type", "@id", "@graph", "@value",
                               "@list", "name", "url", "subEvent",
                               "startDate", "minValue", "maxValue"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | URLISH
    | st.sampled_from(["Event", "https://schema.org", "2026-07-10"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(JSONLD_KEYS, inner, max_size=4),
    max_leaves=12)


# how _element writes an attribute with a value: double or single quotes,
# spaces around "=", no quotes, or after a vertical tab
_ATTRIBUTE_FORMS = (' {}="{}"', " {}='{}'", ' {} = "{}"', " {}={}",
                    ' \x0b{}="{}"')


def _element(tag: str, attributes, children: list[str],
             form: str = _ATTRIBUTE_FORMS[0], upper: bool = False) -> str:
    if upper:
        tag = tag.upper()
        attributes = [(name.upper(), value) for name, value in attributes]
    attrs = "".join(f" {name}" if value is None
                    else form.format(name, escape(value))
                    for name, value in attributes)
    return f"<{tag}{attrs}>" + "".join(children) + f"</{tag}>"


SCRIPTS = st.builds(
    lambda kind, text: f"<script{kind}>{text}</script>",
    st.sampled_from([' type="application/ld+json"',
                     ' type="Application/LD+JSON; charset=utf-8"', "",
                     ' type="text/javascript"']),
    JSON_VALUES.map(json.dumps) | st.text(max_size=20))
HTML_NODES = st.recursive(
    RAW_MARKUP | SCRIPTS,
    lambda children: st.builds(
        _element,
        st.sampled_from(["div", "span", "a", "img", "link", "meta", "time",
                         "base", "p", "template", "style", "br", "li",
                         "data", "meter", "object"]),
        ATTRIBUTES, st.lists(children, max_size=4),
        st.sampled_from(_ATTRIBUTE_FORMS), st.booleans()),
    max_leaves=20)
PAGES = st.lists(HTML_NODES, max_size=5).map(
    lambda nodes: "<html><body>" + "".join(nodes) + "</body></html>")


# what random bytes may start with: nothing, markup, or a byte order mark
# with or without markup after it
BYTE_PREFIXES = st.sampled_from([
    b"", b"<", codecs.BOM_UTF8, codecs.BOM_UTF8 + b"<", codecs.BOM_UTF16_LE,
    codecs.BOM_UTF16_LE + b"<\x00", codecs.BOM_UTF16_BE,
    codecs.BOM_UTF16_BE + b"\x00<"])
# how a page is served, as (codec, byte order mark, HTTP charset): UTF-8
# without a mark, the encodings a mark names, UTF-16 named only by the HTTP
# charset, and a mark that overrides the HTTP charset
PAGE_ENCODINGS = st.sampled_from([
    ("utf-8", False, None), ("utf-8", True, None), ("utf-16-le", True, None),
    ("utf-16-be", True, None), ("utf-16-le", False, "utf-16le"),
    ("utf-16-le", False, "UTF-16"), ("utf-16-be", False, "utf-16be"),
    ("utf-16-be", True, "utf-16le")])


def encode_page(page: str, encoding) -> tuple[bytes, str | None]:
    """The bytes of ``page`` served as ``encoding`` says, and its HTTP
    charset."""
    codec, mark, charset = encoding
    return ("\ufeff" * mark + page).encode(codec), charset


@settings(max_examples=60)
@given(st.builds(bytes.__add__, BYTE_PREFIXES, st.binary(max_size=200)))
def test_random_bytes_get_a_report(vocab, data):
    check_every_way(vocab, data)


@settings(max_examples=100)
@given(PAGES, PAGE_ENCODINGS)
def test_random_pages_get_a_report(vocab, page, encoding):
    check_every_way(vocab, *encode_page(page, encoding))


@settings(max_examples=40)
@given(PAGES, PAGE_ENCODINGS)
def test_a_page_reports_the_same_in_every_encoding(vocab, page, encoding):
    config = ValidationConfig()
    data, charset = encode_page(page, encoding)
    plain = pipeline.run(page.encode(), BASE, vocab, validate=config)
    encoded = pipeline.run(data, BASE, vocab, validate=config,
                           charset=charset)
    assert (report.serialize_report(encoded)
            == report.serialize_report(plain))


@stdlib_is_the_oracle
@settings(max_examples=150)
@given(PAGES)
@example('<p><a href="a">x</a><base href="https://b.example/d/">'
         '<base href="/other/"><div itemscope><li>y<template>'
         '<b itemscope itemtype="Event">z</b>')
def test_one_read_of_a_page_matches_a_full_tree_walk(page):
    """The blocks and pools that one parse records are those that walks of
    the page's full tree find."""
    document = parse_html(page.encode())
    assert (flat_blocks(extract_annotation_blocks(document, BASE))
            == flat_blocks(oracle_blocks(page, BASE)))
    assert document.text == oracle_text_and_urls(page, BASE)[0]
    assert extract_page_content(document, BASE) == oracle_page_content(page,
                                                                       BASE)


@settings(max_examples=60)
@given(JSON_VALUES.map(json.dumps))
def test_random_json_gets_a_report(vocab, text):
    check_every_way(vocab, text.encode())


@settings(max_examples=12)
@given(st.integers(1, 5000), st.booleans())
@example(5000, True)
@example(900, False)
def test_deep_json_gets_a_report(vocab, depth, in_page):
    text = ('{"@type": "Event", "subEvent": ' * depth + '{"nmae": "x"}'
            + "}" * depth)
    if in_page:
        text = ('<html><body><script type="application/ld+json">'
                + text + "</script></body></html>")
    check_every_way(vocab, text.encode())


@settings(max_examples=4)
@given(st.integers(1, 1200))
@example(1200)
def test_deep_microdata_is_checked_to_its_deepest_path(vocab, depth):
    item = 'itemscope itemtype="https://schema.org/Event"'
    page = ("<html><body>" + f"<div {item}>"
            + f'<div itemprop="subEvent" {item}>' * (depth - 1)
            + '<span itemprop="nmae">x</span>' + "</div>" * depth
            + "</body></html>")
    entries = check_every_way(vocab, page.encode())
    deepest = "$0" + ".subEvent" * (depth - 1) + ".nmae"
    assert ("E202", deepest) in [(e.code, e.path) for e in entries]


# ---------------------------------------------------------------------------
# a page checked in parts, one per CPU, reports what one process reports

SPLIT_NAMES = st.sampled_from(["Gala", "Harbour Fair", "Quiet Night", ""])
SPLIT_DATES = st.sampled_from(["2026-07-10", "2026-13-40", "10 July 2026"])


def _jsonld(obj) -> str:
    return f'<script type="application/ld+json">{json.dumps(obj)}</script>'


SPLIT_BLOCKS = st.one_of(
    # one root, with a misspelt property now and then
    st.builds(lambda name, day, prop: _jsonld(
        {"@context": "https://schema.org", "@type": "Event", "name": name,
         "startDate": day, prop: "x"}),
        SPLIT_NAMES, SPLIT_DATES, st.sampled_from(["url", "nmae"])),
    # several roots in one @graph, sharing a node by @id
    st.builds(lambda name, day, roots: _jsonld(
        {"@context": "https://schema.org", "@graph": [
            {"@type": "Place", "@id": "#p", "name": name},
            *({"@type": "Event", "name": name, "startDate": day,
               "location": {"@id": "#p"}} for _ in range(roots))]}),
        SPLIT_NAMES, SPLIT_DATES, st.integers(1, 3)),
    # no roots: E101, E102, and a context that skips the block (E103)
    st.sampled_from([
        '<script type="application/ld+json">{"@type": </script>',
        _jsonld({"@context": "https://schema.org", "name": "untyped"}),
        _jsonld({"@context": "https://x.example/", "@type": "Event"})]),
    # E103 at "$" beside a root
    st.builds(lambda name: _jsonld(
        {"@context": "https://schema.org", "@type": "Event", "name": name,
         "@reverse": {}}), SPLIT_NAMES),
    # Microdata, with a nested item
    st.builds(lambda name, day: (
        '<div itemscope itemtype="https://schema.org/Event">'
        f'<span itemprop="name">{escape(name)}</span>'
        f'<time itemprop="startDate" datetime="{day}">{day}</time>'
        '<div itemprop="location" itemscope '
        'itemtype="https://schema.org/Place">'
        f'<span itemprop="name">{escape(name)}</span></div></div>'),
        SPLIT_NAMES, SPLIT_DATES),
)
SPLIT_PAGES = st.builds(
    lambda blocks, shown: ("<html><body><p>" + " ".join(shown) + "</p>"
                           + "".join(blocks) + "</body></html>").encode(),
    st.lists(SPLIT_BLOCKS, min_size=2, max_size=30),
    st.lists(st.sampled_from(["Gala", "Harbour", "July 10, 2026",
                              "2026-07-10"]), max_size=4))


@pytest.fixture(scope="module")
def event_spec(vocab):
    document = ROOT / "src" / "sdocheck" / "data" / "ds" / "event.json"
    return ds.load_domain_specification(document.read_bytes(), vocab)


def counting_forks(patch) -> list[int]:
    """The pids of the children that ``os.fork`` makes from now on."""
    forks, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    patch.setattr(os, "fork", counting_fork)
    return forks


def split_run(monkeypatch, k: int, *args, **kwargs):
    """``pipeline.run`` on an idle machine with the page cut into ``k``
    parts at most; k = 1 is the serial loop.  A run in parts must fork."""
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "MIN_BLOCKS", 1 if k > 1 else 10**9)
        patch.setattr(pipeline, "_usable_cpus", lambda: k)
        patch.setattr(pipeline, "_runnable_tasks", lambda: 1)
        patch.setattr(pipeline, "MAX_PARTS", k)
        forks = counting_forks(patch)
        try:
            return pipeline.run(*args, **kwargs)
        finally:
            assert bool(forks) == (k > 1)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@settings(max_examples=30)
@given(SPLIT_PAGES, st.sampled_from([2, 3]), st.booleans())
def test_a_page_reports_the_same_in_parts(vocab, event_spec, page, k, strict):
    with pytest.MonkeyPatch.context() as monkeypatch:
        runs = [report.serialize_report(split_run(
            monkeypatch, parts, page, BASE, vocab, spec=event_spec,
            validate=ValidationConfig(), strict=strict))
            for parts in (1, k)]
    assert runs[1] == runs[0]
    assert_no_child_left()


def idle_machine(monkeypatch, cpus: int = 2) -> None:
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(pipeline, "_runnable_tasks", lambda: 1)


def test_only_a_process_with_one_thread_forks(monkeypatch):
    idle_machine(monkeypatch)
    assert pipeline._part_count(10**6) == 2
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert pipeline._part_count(10**6) == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def _boom_page(at: int) -> bytes:
    blocks = [_jsonld({"@context": "https://schema.org", "@type": "Event",
                       "name": f"E{i}"}) for i in range(6)]
    blocks[at] = _jsonld({"@context": "https://schema.org", "@type": "Boom"})
    return ("<html><body>" + "".join(blocks) + "</body></html>").encode()


def _raise_on_boom(graph, vocab, strict=False):
    if "Boom" in graph.roots[0].types:
        raise RuntimeError(f"cannot check {graph.roots[0].path}")
    return []


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("at", [0, 1, 5])
def test_a_crash_in_any_part_raises_as_the_serial_loop(vocab, monkeypatch, k,
                                                       at):
    """Block ``at`` crashes the vocabulary checks, in this process (block
    0) or in a child: the split run raises the serial loop's exception,
    with the same frames and no exception chained to it."""
    monkeypatch.setattr(pipeline.sdo_verifier, "verify_schema_org",
                        _raise_on_boom)
    raised = []
    for parts in (1, k):
        with pytest.raises(RuntimeError) as caught:
            split_run(monkeypatch, parts, _boom_page(at), BASE, vocab)
        raised.append(caught.value)
        assert_no_child_left()
    assert str(raised[1]) == str(raised[0]) == f"cannot check ${at}"
    serial, split = (traceback.extract_tb(exc.__traceback__)[1:]
                     for exc in raised)
    assert [(f.filename, f.lineno, f.name) for f in split] == [
        (f.filename, f.lineno, f.name) for f in serial]
    assert raised[1].__context__ is None


def test_a_child_killed_by_a_signal_is_checked_again(vocab, monkeypatch):
    parent = os.getpid()
    verify = pipeline.sdo_verifier.verify_schema_org

    def die_in_a_child(graph, vocab, strict=False):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return verify(graph, vocab, strict)

    page = _boom_page(0).replace(b"Boom", b"Event")
    serial = split_run(monkeypatch, 1, page, BASE, vocab)
    monkeypatch.setattr(pipeline.sdo_verifier, "verify_schema_org",
                        die_in_a_child)
    split = split_run(monkeypatch, 3, page, BASE, vocab)
    assert report.serialize_report(split) == report.serialize_report(serial)
    assert_no_child_left()


def test_a_split_never_takes_more_than_max_parts(monkeypatch):
    idle_machine(monkeypatch, cpus=64)
    assert pipeline._part_count(64 * pipeline.MIN_BLOCKS) == pipeline.MAX_PARTS


@pytest.mark.parametrize("cpus, running, parts", [
    (2, 1, 2), (2, 2, 1), (2, 5, 1), (4, 3, 2), (4, 4, 1), (1, 1, 1)])
def test_a_page_is_split_only_while_a_cpu_is_free(monkeypatch, cpus, running,
                                                  parts):
    """``running`` counts the caller: each other runnable task takes a CPU."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(pipeline, "_runnable_tasks", lambda: running)
    assert pipeline._part_count(10**6) == parts


def _event_page(blocks: int) -> bytes:
    return ("<html><body>" + "".join(
        _jsonld({"@context": "https://schema.org", "@type": "Event",
                 "name": f"E{i}"}) for i in range(blocks))
        + "</body></html>").encode()


def test_a_busy_machine_checks_a_page_in_one_process(vocab, monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, "_runnable_tasks", lambda: 2)
    forks = []

    def no_fork():
        forks.append(None)
        raise OSError("a busy machine must not fork")

    monkeypatch.setattr(os, "fork", no_fork)
    page = _event_page(4 * pipeline.MIN_BLOCKS)
    pipeline.run(page, BASE, vocab)
    assert forks == []


@pytest.mark.parametrize("blocks, forks", [(-1, 0), (0, 1)])
def test_a_page_splits_from_twice_min_blocks(vocab, monkeypatch, blocks,
                                             forks):
    idle_machine(monkeypatch)
    made = counting_forks(monkeypatch)
    page = _event_page(2 * pipeline.MIN_BLOCKS + blocks)
    serial = report.serialize_report(split_run(monkeypatch, 1, page, BASE,
                                               vocab))
    assert report.serialize_report(pipeline.run(page, BASE, vocab)) == serial
    assert len(made) == forks
    assert_no_child_left()


@pytest.mark.parametrize("loadavg, running", [
    ("0.17 0.38 0.43 1/86 16829\n", 1),
    ("1.02 0.61 0.44 2/88 17001\n", 2),
    (None, None),  # no such file
    ("", None),
    ("0.17 0.38 0.43\n", None),
    ("0.17 0.38 0.43 1 16829\n", None),
    ("0.17 0.38 0.43 one/86 16829\n", None),
    ("0.17 0.38 0.43 1/86/2 16829\n", None),
    ("\xff\xfe", None)])
def test_a_missing_or_garbled_loadavg_keeps_the_affinity_rule(
        monkeypatch, tmp_path, loadavg, running):
    path = tmp_path / "loadavg"
    if loadavg is not None:
        path.write_bytes(loadavg.encode("latin-1"))
    monkeypatch.setattr(pipeline, "_LOADAVG", str(path))
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    assert pipeline._runnable_tasks() == running
    assert pipeline._part_count(10**6) == (2 if running in (None, 1) else 1)


@pytest.mark.skipif(not os.path.exists("/proc/loadavg"),
                    reason="Linux shows runnable tasks in /proc/loadavg")
def test_the_runnable_tasks_count_the_caller():
    assert pipeline._runnable_tasks() >= 1


# Runs a page in 3 parts; the caller prints its children's pids and waits
# before checking its own part, so the children's results are never read.
KILLED_CALLER = """
import os, sys, time
from sdocheck import pipeline
from sdocheck.vocab import load_default_vocabulary

vocab = load_default_vocabulary()
caller, children = os.getpid(), []
fork, check_blocks = os.fork, pipeline._check_blocks

def recording_fork():
    pid = fork()
    if pid:
        children.append(pid)
    return pid

def caller_waits(*args):
    if os.getpid() == caller:
        print(*children, flush=True)
        time.sleep(600)
    return check_blocks(*args)

os.fork = recording_fork
pipeline._check_blocks = caller_waits
pipeline._usable_cpus = lambda: 3
pipeline._runnable_tasks = lambda: 1
pipeline.MAX_PARTS = 3
with open(sys.argv[1], "rb") as page:
    pipeline.run(page.read(), "https://x.example/page", vocab)
"""


PR_SET_CHILD_SUBREAPER = 36


def _reap_orphans(on: bool) -> None:
    """Make this process the parent of its orphaned descendants, or stop."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, int(on), 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reaps the orphaned children with a Linux prctl")
def test_children_of_a_killed_caller_exit(vocab, tmp_path):
    """The caller of a split run is killed by SIGKILL while each child has
    more to send than a pipe holds: every child still exits."""
    blocks = [_jsonld({"@context": "https://schema.org", "@type": "Event",
                       "name": f"E{i}", **{f"nmae{p}": "x" for p in range(10)}})
              for i in range(600)]
    page = ("<html><body>" + "".join(blocks) + "</body></html>").encode()
    _, raw_blocks = pipeline._read(page, BASE, None)
    checked = pipeline._check_blocks(raw_blocks[2::3], vocab, None, None,
                                     None, False)
    assert len(pickle.dumps(pipeline._encode(checked),
                            pickle.HIGHEST_PROTOCOL)) > 64 * 1024
    (tmp_path / "page.html").write_bytes(page)
    # every child inherits `held`; reading it gives EOF once all are gone
    gone, held = os.pipe()
    _reap_orphans(True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    caller = subprocess.Popen(
        [sys.executable, "-c", KILLED_CALLER, str(tmp_path / "page.html")],
        pass_fds=(held,), stdout=subprocess.PIPE, env=env)
    os.close(held)
    children, exited = [], False
    try:
        children = [int(pid) for pid in caller.stdout.readline().split()]
        assert len(children) == 2
        caller.kill()
        caller.wait()
        readable, _, _ = select.select([gone], [], [], 30)
        exited = bool(readable) and os.read(gone, 1) == b""
        assert exited
    finally:
        caller.kill()
        caller.wait()
        caller.stdout.close()
        for pid in children:
            if not exited:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        _reap_orphans(False)
        os.close(gone)
