"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -v -s``).

Everything runs offline against the vendored vocabulary snapshot and the
fixtures in tests/fixtures/.
"""

import copy
import json
import random
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

from sdocheck import content as c
from sdocheck import ds as d
from sdocheck import pipeline
from sdocheck import report as r
from sdocheck import sdo_verifier as sv
from sdocheck import vocab as vb
from sdocheck.annotation import (Literal, RawBlock, extract_annotation_blocks,
                                 parse_annotation)
from sdocheck.htmltree import parse_html
from generators import (delete_property, duplicate_property,
                        random_ds_with_annotation)
from helpers import graph_fingerprint, load_ds, parse_jsonld, parse_report

FIXTURES = Path(__file__).parent / "fixtures"

COMPLIANT_EVENT = {
    "@context": "https://schema.org",
    "@type": "Event",
    "name": "Summer Music Festival",
    "description": "Open-air concert evening on the town square.",
    "startDate": "2026-07-10",
    "endDate": "2026-07-12",
    "location": "Town Square",
    "image": "https://x.example/poster.jpg",
    "url": "https://x.example/festival",
}

# fault -> (mutation, expected code, expected path)
SINGLE_FAULTS = {
    "unknown type": (lambda b: b.update({"@type": "Evvent"}), "E201", "$0"),
    "unknown property": (lambda b: b.update({"nmae": "typo"}),
                         "E202", "$0.nmae"),
    "domain violation": (lambda b: b.update({"servesCuisine": "Tirolean"}),
                         "E203", "$0.servesCuisine"),
    "range violation": (
        lambda b: b.update({"location": {"@type": "Offer", "price": "10"}}),
        "E204", "$0.location"),
    "malformed date": (lambda b: b.update({"startDate": "next friday"}),
                       "E205", "$0.startDate"),
    "empty name": (lambda b: b.update({"name": ""}), "E206", "$0.name"),
    "duplicated value": (
        lambda b: b.update({"image": ["https://x.example/poster.jpg",
                                      "https://x.example/poster.jpg"]}),
        "E207", "$0.image"),
    "end before start": (lambda b: b.update({"endDate": "2026-07-01"}),
                         "E208", "$0.endDate"),
}


def _pass(line: str) -> None:
    print(f"PASS {line}")


def test_criterion_1_vocabulary_integrity():
    started = time.perf_counter()
    vocab = vb.load_default_vocabulary()
    stats = json.loads(resources.files("sdocheck.data")
                       .joinpath("snapshot_stats.json").read_text())
    assert vocab.snapshot_id == stats["snapshot_id"]
    assert len(vocab.classes) == stats["class_count"]
    assert len(vocab.properties) == stats["property_count"]
    assert len(vocab.datatypes) == stats["datatype_count"]
    assert stats["enumeration_count"] == sum(
        1 for name in vocab.classes if vocab.is_enumeration(name))
    assert stats["member_count"] == sum(
        len(enumerations) for enumerations
        in vocab.member_enumerations.values())
    for name in vocab.classes:
        assert "Thing" in vocab.classes[name], name
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"vocabulary checks took {elapsed:.2f}s"
    _pass(f"criterion 1: vocabulary integrity "
          f"({stats['class_count']} classes, {stats['property_count']} "
          f"properties, every class reaches Thing, {elapsed:.2f}s)")


def test_criterion_2_ds_generator_round_trip(vocab):
    iterations = 120
    for seed in range(iterations):
        rng = random.Random(1000 + seed)
        case = random_ds_with_annotation(vocab, rng, max_depth=3, max_props=6)
        spec = load_ds(case.ds, vocab)
        graph, entries = parse_jsonld(case.annotation)
        assert entries == []
        assert d.verify_against_ds(graph, spec, vocab) == [], case.ds

        node_path, prop = rng.choice(case.mandatory)
        mutated = copy.deepcopy(case.annotation)
        delete_property(mutated, node_path, prop)
        graph2, _ = parse_jsonld(mutated)
        findings = d.verify_against_ds(graph2, spec, vocab)
        e302 = [f for f in findings if f.code == "E302"]
        assert len(e302) == 1, (seed, [(f.code, f.path) for f in findings])
        assert e302[0].path == f"{node_path}.{prop}"
        assert all(f.code in ("E302", "E305") for f in findings)

        node_path, prop = rng.choice(case.single_valued)
        mutated = copy.deepcopy(case.annotation)
        duplicate_property(mutated, node_path, prop)
        graph3, _ = parse_jsonld(mutated)
        findings = d.verify_against_ds(graph3, spec, vocab)
        e303 = [f for f in findings if f.code == "E303"]
        assert len(e303) == 1, (seed, [(f.code, f.path) for f in findings])
        assert e303[0].path == f"{node_path}.{prop}"
        assert all(f.code in ("E303", "E305") for f in findings)
    _pass(f"criterion 2: generator round-trip over {iterations} randomized "
          "constraint documents with single-fault detection")


def test_criterion_3_schema_org_conformance_fixtures(vocab):
    graph, entries = parse_jsonld(COMPLIANT_EVENT)
    assert entries == []
    assert sv.verify_schema_org(graph, vocab) == []

    for fault, (mutate, code, path) in SINGLE_FAULTS.items():
        block = copy.deepcopy(COMPLIANT_EVENT)
        mutate(block)
        graph, entries = parse_jsonld(block)
        assert entries == []
        findings = sv.verify_schema_org(graph, vocab)
        assert [(f.code, f.path) for f in findings] == [(code, path)], fault
    _pass("criterion 3: compliant event clean; "
          f"{len(SINGLE_FAULTS)} single-fault variants yield exactly the "
          "expected code at the expected path")


EQUIV_NAMES = ["event_basic", "hotel_address", "restaurant_unknown_prop",
               "product_offer", "event_person_empty_name"]


def test_criterion_4_format_equivalence(vocab):
    for name in EQUIV_NAMES:
        jsonld_text = (FIXTURES / "equiv" / f"{name}.jsonld").read_text()
        html_text = (FIXTURES / "equiv" / f"{name}.html").read_text("utf-8")
        g_json, e_json = parse_annotation(RawBlock(jsonld_text, 0))
        blocks = extract_annotation_blocks(
            parse_html(html_text, "https://x.example/"))
        assert len(blocks) == 1, name
        g_micro, e_micro = parse_annotation(blocks[0])
        assert g_json is not None and g_micro is not None, name
        assert graph_fingerprint(g_json) == graph_fingerprint(g_micro), name
        codes_json = sorted(f.code for f in e_json
                            + sv.verify_schema_org(g_json, vocab))
        codes_micro = sorted(f.code for f in e_micro
                             + sv.verify_schema_org(g_micro, vocab))
        assert codes_json == codes_micro, name
    _pass(f"criterion 4: {len(EQUIV_NAMES)} fixture contents parse to "
          "isomorphic graphs with identical finding code-multisets in "
          "JSON-LD and Microdata")


# criterion 5 machinery: a page assembled from independent fragments, each
# corroborating exactly one annotation value

SCORED_ANNOTATION = {
    "@context": "https://schema.org",
    "@type": "Event",
    "name": "Winter Jazz Evenings",
    "url": "https://x.example/jazz",
    "startDate": "2026-12-20",
    "image": "https://x.example/jazz.jpg",
    "isAccessibleForFree": "true",
    "offers": {
        "@type": "Offer",
        "price": "25.50",
        "priceCurrency": "EUR",
        "availability": "InStock",
    },
    "aggregateRating": {
        "@type": "AggregateRating",
        "ratingValue": "4.5",
        "reviewCount": "88",
    },
}

FRAGMENTS = {
    "name": "<h1>Winter Jazz Evenings</h1>",
    "url": '<a href="https://x.example/jazz">program</a>',
    "startDate": "<p>20.12.2026</p>",
    "image": '<img src="https://x.example/jazz.jpg">',
    "price": "<p>25.50</p>",
    "currency": "<p>EUR</p>",
    "availability": "<p>in stock</p>",
    "rating": "<p>4.5</p>",
    "reviews": "<p>88</p>",
}


def _page_score(vocab, fragment_keys) -> float:
    html = ("<html><body>" + "".join(FRAGMENTS[k] for k in fragment_keys)
            + "<p>filler words only</p>"
            + '<script type="application/ld+json">'
            + json.dumps(SCORED_ANNOTATION) + "</script></body></html>")
    report = pipeline.run(html.encode(), "https://x.example/", vocab,
                          validate=c.ValidationConfig())
    score = report.content_score
    assert score.score is not None
    return score.score


def test_criterion_5_content_extremes_and_monotonicity(vocab):
    full = list(FRAGMENTS)
    assert _page_score(vocab, full) == 1.0
    assert _page_score(vocab, []) == 0.0

    rng = random.Random(7)
    trials = 25
    for _ in range(trials):
        subset = [k for k in full if rng.random() < 0.7]
        base = _page_score(vocab, subset)
        if not subset:
            continue
        removed = list(subset)
        removed.remove(rng.choice(subset))
        assert _page_score(vocab, removed) <= base
    _pass(f"criterion 5: full page scores 1.0, stripped page scores 0.0, "
          f"{trials} randomized deletions never increase the score")


def test_criterion_6_hand_computed_oracles(vocab):
    page = c.extract_page_content(
        parse_html("<p>hotel alpenhof fügen</p>", "https://x.example/"),
        c.ValidationConfig())
    result = c.consistency_of_value(
        Literal("Hotel Alpenhof Zillertal", "Text"),
        "name", page, c.ValidationConfig())
    assert result.score == pytest.approx(2 / 3)
    assert result.status is c.MatchStatus.UNMATCHED

    page2 = c.extract_page_content(
        parse_html('<a href="https://x.example/found">l</a>',
                   "https://x.example/"), c.ValidationConfig())
    config = c.ValidationConfig()
    items = [
        c.consistency_of_value(Literal("https://x.example/found", "URL"),
                               "url", page2, config),
        c.consistency_of_value(Literal("2026-01-01", "Date"), "startDate",
                               page2, config),
        c.consistency_of_value(Literal("true", "Boolean"), "petsAllowed",
                               page2, config),
    ]
    summary = c.aggregate_scores([(i.score, i.status) for i in items])
    assert summary.score == pytest.approx(0.5)
    assert summary.checked == 2
    assert summary.matched == 1
    assert summary.unverifiable == 1
    _pass("criterion 6: containment oracle 2/3 and aggregation oracle 0.5 "
          "reproduce exactly")


def _fixture_reports(vocab):
    reports = []
    for name in EQUIV_NAMES:
        data = (FIXTURES / "equiv" / f"{name}.jsonld").read_bytes()
        reports.append(pipeline.run(data, f"{name}.jsonld", vocab))
    for fault, (mutate, _, _) in SINGLE_FAULTS.items():
        block = copy.deepcopy(COMPLIANT_EVENT)
        mutate(block)
        reports.append(pipeline.run(json.dumps(block).encode(),
                                    f"fault:{fault}", vocab))
    page_html = (FIXTURES / "page_good.html").read_bytes()
    reports.append(pipeline.run(page_html, "https://x.example/", vocab,
                                target="page_good.html",
                                validate=c.ValidationConfig()))
    return reports


def test_criterion_7_report_canonicality(vocab):
    reports = _fixture_reports(vocab)
    for report in reports:
        first = r.serialize_report(report, "machine")
        second = r.serialize_report(parse_report(first), "machine")
        assert first == second
    _pass(f"criterion 7: machine serialization round-trips byte-identically "
          f"for {len(reports)} fixture reports")


def test_criterion_8_cli_exit_code_contract():
    matrix = {
        ("clean", "error"): 0, ("clean", "warning"): 0, ("clean", "never"): 0,
        ("faulty", "error"): 1, ("faulty", "warning"): 1,
        ("faulty", "never"): 0,
        ("unreadable", "error"): 2, ("unreadable", "warning"): 2,
        ("unreadable", "never"): 2,
    }
    inputs = {
        "clean": FIXTURES / "clean_event.json",
        "faulty": FIXTURES / "error_event.json",
        "unreadable": FIXTURES / "no_such_file.json",
    }
    for (kind, level), expected in matrix.items():
        result = subprocess.run(
            [sys.executable, "-m", "sdocheck", "verify", str(inputs[kind]),
             "--fail-level", level],
            capture_output=True, timeout=60)
        assert result.returncode == expected, (kind, level, result.stderr)
    _pass(f"criterion 8: verify exit codes match the contract over "
          f"{len(matrix)} input/fail-level combinations")
