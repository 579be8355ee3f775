"""Page-content consistency: does the annotation describe what the page shows?

The visible surface of a page is reduced to four comparable pools — text
tokens, link/image URLs, calendar dates and decimal numbers — and every
literal or reference value of the annotation is scored against the matching
pool.  Scores are in [0, 1]; string-like values score by token containment,
everything else scores 0/1 on normalized membership.  The overall page score
is the plain mean over checkable values; unverifiable values (booleans
without configured surface forms, times, token-free strings) are excluded.

The annotation's own serialization never corroborates itself: JSON-LD
script blocks are invisible by construction and Microdata ``content``
attributes are markup, not text.
"""

from __future__ import annotations

import enum
import re
import unicodedata
from datetime import date, datetime
from decimal import Decimal
from typing import NamedTuple
from urllib.parse import urlsplit, urlunsplit

from .annotation import (AnnotationGraph, Literal, Reference, UNDETERMINED,
                         parse_temporal)
from .htmltree import Document, resolve_url
from .report import ReportEntry, ScoreSummary, make_entry
from .vocab import VocabularyGraph, read_json, strip_namespace

_TOKEN_SPLIT_RE = re.compile(r"[\W_]+", re.UNICODE)
_NUMERAL_RE = re.compile(r"\d(?:[\d.,]*\d)?")
_CAMEL_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|\d+")

_MONTHS = {
    "january": 1, "february": 2, "march": 3, "april": 4, "may": 5,
    "june": 6, "july": 7, "august": 8, "september": 9, "october": 10,
    "november": 11, "december": 12,
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "jun": 6, "jul": 7, "aug": 8,
    "sep": 9, "sept": 9, "oct": 10, "nov": 11, "dec": 12,
}
# a date's first digit follows no digit; the lookbehind sits after that
# digit, so the engine tries it only where a digit starts a match
_ISO_DATE_RE = re.compile(r"(\d(?<!\d\d)\d{3})-(\d{2})-(\d{2})(?!\d)")
_DOTTED_DATE_RE = re.compile(r"(\d(?<!\d\d)\d?)\.(\d{1,2})\.(\d{4})(?!\d)")
_SLASHED_DATE_RE = re.compile(r"(\d(?<!\d\d)\d?)/(\d{1,2})/(\d{4})(?!\d)")
_MONTH_NAMES = sorted(_MONTHS, key=len, reverse=True)
_MONTH_INITIALS = sorted({name[0] for name in _MONTHS})
# a month's name in ASCII letters of either case: Unicode case folding would
# also take "ı" for "i" and "ſ" for "s", spellings that _MONTHS lacks
_MONTH = r"((?ai:" + "|".join(_MONTH_NAMES) + r"))\.?"
# month first ("July 10, 2026"): the pattern starts with a plain class of
# the initials, so the engine tries it only where one stands; the
# lookbehind after the initial stands for \b, and the one before each
# group of names picks the names with that initial
_MONTH_FIRST_RE = re.compile(
    "([" + "".join(i + i.upper() for i in _MONTH_INITIALS)
    + r"](?<!\w\w)(?ai:"
    + "|".join(f"(?<={i})(?:"
               + "|".join(n[1:] for n in _MONTH_NAMES if n[0] == i) + ")"
               for i in _MONTH_INITIALS)
    + r"))\.?\s+(\d{1,2})(?i:st|nd|rd|th)?,?\s+(\d{4})\b")
# day first ("10 July 2026", "10th Jul 2026"), started by a digit as above
_DAY_FIRST_RE = re.compile(
    rf"(\d(?<!\w\d)\d?)(?i:st|nd|rd|th)?\.?\s+{_MONTH},?\s+(\d{{4}})\b")

_RATING_PROPERTIES = frozenset({"ratingValue", "bestRating", "worstRating"})


class ValueKind(enum.Enum):
    URL = "url"
    STRING = "string"
    BOOLEAN = "boolean"
    ENUMERATION = "enumeration"
    RATING = "rating"
    DATE = "date"
    TIME = "time"
    NUMBER = "number"


class MatchStatus(enum.Enum):
    MATCHED = "matched"
    UNMATCHED = "unmatched"
    UNVERIFIABLE = "unverifiable"


class ValidationConfig(NamedTuple):
    threshold: float = 0.75
    date_order: str = "DMY"  # "DMY" or "MDY" for dotted/slashed page dates
    decimal_separator: str = "point"  # "point" or "comma"
    # property name -> {"true": [phrases], "false": [phrases]}
    boolean_surface_forms: dict[str, dict[str, list[str]]] = {}


def load_validation_config(data: bytes) -> ValidationConfig:
    """The read-only record of a configuration document; raises ValueError
    when it does not parse, a key is unknown or a field has the wrong shape."""
    raw = read_json(data, ValueError, "document")
    if not isinstance(raw, dict):
        raise ValueError("document must be a JSON object")
    for key in sorted(raw.keys() - {"threshold", "dateOrder",
                                    "decimalSeparator", "booleanSurfaceForms"}):
        raise ValueError(f"unknown key {key!r}")
    fields = {}
    if "threshold" in raw:
        threshold = raw["threshold"]
        if (isinstance(threshold, bool)
                or not isinstance(threshold, (int, float))
                or not 0 <= threshold <= 1):
            raise ValueError("threshold must be a number from 0 to 1, "
                             f"not {threshold!r}")
        fields["threshold"] = float(threshold)
    if "dateOrder" in raw:
        if raw["dateOrder"] not in ("DMY", "MDY"):
            raise ValueError("dateOrder must be 'DMY' or 'MDY'")
        fields["date_order"] = raw["dateOrder"]
    if "decimalSeparator" in raw:
        if raw["decimalSeparator"] not in ("point", "comma"):
            raise ValueError("decimalSeparator must be 'point' or 'comma'")
        fields["decimal_separator"] = raw["decimalSeparator"]
    surface_forms = raw.get("booleanSurfaceForms", {})
    if not isinstance(surface_forms, dict):
        raise ValueError("booleanSurfaceForms must be an object")
    fields["boolean_surface_forms"] = by_property = {}
    for prop, forms in surface_forms.items():
        if not isinstance(forms, dict):
            raise ValueError(f"booleanSurfaceForms of {prop!r} must be an object")
        for key in sorted(forms.keys() - {"true", "false"}):
            raise ValueError(f"booleanSurfaceForms of {prop!r}: unknown key "
                             f"{key!r}")
        by_property[prop] = {}
        for key in ("true", "false"):
            phrases = forms.get(key, [])
            if (not isinstance(phrases, list)
                    or not all(isinstance(p, str) for p in phrases)):
                raise ValueError(f"booleanSurfaceForms of {prop!r}: {key!r} "
                                 "must be a list of strings")
            by_property[prop][key] = phrases
    return ValidationConfig(**fields)


class ValueConsistency(NamedTuple):
    path: str
    value_kind: ValueKind
    score: float
    status: MatchStatus
    evidence: str


class PageContent(NamedTuple):
    text_tokens: frozenset[str]
    urls: frozenset[str]
    dates: frozenset[date]
    numbers: frozenset[Decimal]


def tokenize(text: str) -> list[str]:
    """Unicode-compatibility normalize, lowercase, split on non-alphanumerics."""
    normalized = unicodedata.normalize("NFKC", text).lower()
    return [t for t in _TOKEN_SPLIT_RE.split(normalized) if t]


def normalize_url(url: str) -> str | None:
    """``url`` in the form both pools compare: scheme and host lowercased,
    trailing slash and fragment dropped.  None when it does not parse."""
    if resolve_url(url) is None:
        return None
    parts = urlsplit(url)
    path = parts.path.rstrip("/")
    return urlunsplit((parts.scheme.lower(), parts.netloc.lower(), path,
                       parts.query, ""))


def camel_case_tokens(name: str) -> list[str]:
    return [t.lower() for t in _CAMEL_RE.findall(name)]


def extract_page_content(tree: Document,
                         config: ValidationConfig) -> PageContent:
    """Reduce a parsed page to its comparable pools, its links resolved
    against the document base.

    Script, style and template content is invisible, which keeps embedded
    JSON-LD annotation blocks out of their own evidence.
    """
    urls: set[str] = set()
    for link in tree.links:
        url = resolve_url(link, tree.base)
        if url is not None:
            urls.add(normalize_url(url))
    text = tree.text
    return PageContent(
        text_tokens=frozenset(tokenize(text)),
        urls=frozenset(urls),
        dates=frozenset(_extract_dates(text, config.date_order)),
        numbers=frozenset(_extract_numbers(text, config.decimal_separator)),
    )


def _extract_dates(text: str, date_order: str) -> set[date]:
    found: set[date] = set()
    for match in _ISO_DATE_RE.finditer(text):
        _add_date(found, match.group(1), match.group(2), match.group(3))
    for pattern in (_DOTTED_DATE_RE, _SLASHED_DATE_RE):
        for match in pattern.finditer(text):
            first, second, year = match.groups()
            day, month = (first, second) if date_order == "DMY" else (second, first)
            _add_date(found, year, month, day)
    for match in _MONTH_FIRST_RE.finditer(text):
        name, day, year = match.groups()
        _add_date(found, year, str(_MONTHS[name.lower()]), day)
    for match in _DAY_FIRST_RE.finditer(text):
        day, name, year = match.groups()
        _add_date(found, year, str(_MONTHS[name.lower()]), day)
    return found


def _add_date(found: set[date], year: str, month: str, day: str) -> None:
    try:
        found.add(date(int(year), int(month), int(day)))
    except ValueError:
        pass


def _extract_numbers(text: str, decimal_separator: str) -> set[Decimal]:
    found: set[Decimal] = set()
    # a page repeats its numerals: parse each distinct run once
    for run in set(_NUMERAL_RE.findall(text)):
        value = parse_numeral(run, decimal_separator)
        if value is not None:
            found.add(value)
    return found


def parse_numeral(run: str, decimal_separator: str = "point") -> Decimal | None:
    """Normalize one numeral run: thousands separators dropped, the decimal
    separator honored; a separator of the other kind is accepted as decimal
    when the grouping makes thousands impossible.  Returns None for runs
    that are not plausible numbers (e.g. version strings like 1.2.3)."""
    if not any(c in run for c in ".,"):
        return Decimal(run)
    dec_char = "." if decimal_separator == "point" else ","
    thou_char = "," if dec_char == "." else "."
    last = max(run.rfind("."), run.rfind(","))
    tail = run[last + 1:]
    if run[last] == dec_char:
        int_part, frac = run[:last], tail
    elif len(tail) != 3:
        int_part, frac = run[:last], tail  # unambiguous decimal use
    else:
        int_part, frac = run, None
    groups = int_part.split(thou_char)
    if len(groups) > 1:
        if not all(g.isdigit() for g in groups):
            return None
        if not 1 <= len(groups[0]) <= 3 or any(len(g) != 3 for g in groups[1:]):
            return None
        digits = "".join(groups)
    else:
        if not int_part.isdigit():
            return None
        digits = int_part
    return Decimal(digits + ("." + frac if frac else ""))


# ---------------------------------------------------------------------------
# scoring


def consistency_of_value(value: Literal | Reference, property_name: str,
                         page: PageContent, config: ValidationConfig,
                         vocab: VocabularyGraph | None = None,
                         ) -> ValueConsistency:
    """Score one annotation value against the page pools.

    The value's datatype picks its kind, its pool and its evidence.  An
    enumeration member wins over the URL reading: a member written in IRI
    form describes page wording, not a link target.
    """
    path = value.path or "$0"
    if isinstance(value, Reference):
        raw, datatype = value.iri, "URL"
    else:
        raw, datatype = value.raw, value.datatype
    if vocab is not None and strip_namespace(raw) in vocab.member_enumerations:
        score = _containment(camel_case_tokens(strip_namespace(raw)), page)
        return _scored(path, ValueKind.ENUMERATION, score, config,
                       f"member-name token containment {score:.3f}")
    # classify_literal labels a literal Date or DateTime only when
    # parse_temporal reads it, and Integer or Float only when Decimal does
    if datatype == "URL" and (not raw or raw.startswith("_:")):
        return ValueConsistency(  # a reference to the document or a blank node
            path, ValueKind.URL, 0.0, MatchStatus.UNVERIFIABLE,
            "a blank node names no page URL" if raw
            else "an empty identifier names no page URL")
    elif datatype == "URL":
        normalized = normalize_url(raw)
        kind, hit = ValueKind.URL, normalized in page.urls
        shown = f"URL {normalized or raw!r}"
    elif datatype in ("Date", "DateTime"):
        when = parse_temporal(raw, datatype)
        if isinstance(when, datetime):
            when = when.date()
        kind, hit, shown = ValueKind.DATE, when in page.dates, f"date {when}"
    elif datatype in ("Integer", "Float"):
        number = Decimal(raw)
        kind = (ValueKind.RATING if property_name in _RATING_PROPERTIES
                else ValueKind.NUMBER)
        hit, shown = number in page.numbers, f"number {number}"
    elif datatype == UNDETERMINED:
        return ValueConsistency(path, ValueKind.STRING, 0.0,
                                MatchStatus.UNVERIFIABLE, "empty value")
    elif datatype == "Time":
        return ValueConsistency(path, ValueKind.TIME, 0.0,
                                MatchStatus.UNVERIFIABLE,
                                "times are not extracted from page content")
    elif datatype == "Boolean":
        forms = config.boolean_surface_forms.get(property_name)
        phrases = forms.get(raw, []) if forms else []
        if not phrases:
            return ValueConsistency(
                path, ValueKind.BOOLEAN, 0.0, MatchStatus.UNVERIFIABLE,
                f"no surface forms configured for boolean {property_name!r}")
        score = max(_containment(tokenize(p), page) for p in phrases)
        return _scored(path, ValueKind.BOOLEAN, score, config,
                       f"best surface-form containment {score:.3f}")
    else:
        tokens = tokenize(raw)
        if not tokens:
            return ValueConsistency(path, ValueKind.STRING, 0.0,
                                    MatchStatus.UNVERIFIABLE,
                                    "value has no comparable tokens")
        score = _containment(tokens, page)
        return _scored(path, ValueKind.STRING, score, config,
                       f"token containment {score:.3f}")
    return _scored(path, kind, 1.0 if hit else 0.0, config,
                   f"{shown} {'found' if hit else 'not found'} on page")


def _containment(tokens: list[str], page: PageContent) -> float:
    distinct = set(tokens)
    if not distinct:
        return 0.0
    return len(distinct & page.text_tokens) / len(distinct)


def _scored(path: str, kind: ValueKind, score: float,
            config: ValidationConfig, evidence: str) -> ValueConsistency:
    status = (MatchStatus.MATCHED if score >= config.threshold
              else MatchStatus.UNMATCHED)
    return ValueConsistency(path, kind, score, status, evidence)


def aggregate_scores(scores: list[tuple[float, MatchStatus]]) -> ScoreSummary:
    """The page score over the ``(score, status)`` of every value, in the
    order the values were scored."""
    checkable = [score for score, status in scores
                 if status is not MatchStatus.UNVERIFIABLE]
    matched = sum(1 for _, status in scores if status is MatchStatus.MATCHED)
    unverifiable = len(scores) - len(checkable)
    if not checkable:
        return ScoreSummary(score=None, checked=0, matched=matched,
                            unverifiable=unverifiable)
    mean = sum(checkable) / len(checkable)
    return ScoreSummary(score=mean, checked=len(checkable), matched=matched,
                        unverifiable=unverifiable)


_KIND_TO_CODE = {
    ValueKind.URL: "E402",
    ValueKind.DATE: "E403",
    ValueKind.NUMBER: "E403",
    ValueKind.RATING: "E403",
    ValueKind.STRING: "E401",
    ValueKind.ENUMERATION: "E401",
    ValueKind.BOOLEAN: "E401",
}


def consistency_entries(items: list[ValueConsistency]) -> list[ReportEntry]:
    """Report entries for the unmatched values."""
    entries: list[ReportEntry] = []
    for item in items:
        if item.status is not MatchStatus.UNMATCHED:
            continue
        code = _KIND_TO_CODE[item.value_kind]
        entries.append(make_entry(
            code, item.path,
            f"{item.value_kind.value} value does not match page content "
            f"({item.evidence})"))
    return entries


def collect_consistencies(graph: AnnotationGraph, page: PageContent,
                          config: ValidationConfig,
                          vocab: VocabularyGraph | None = None,
                          ) -> list[ValueConsistency]:
    """Score every literal and reference value of the graph; entity values
    are walked into, not scored as wholes."""
    out: list[ValueConsistency] = []
    for node in graph.iter_nodes():
        for prop, values in node.properties.items():
            for value in values:
                if isinstance(value, (Literal, Reference)):
                    out.append(consistency_of_value(value, prop, page,
                                                    config, vocab))
    return out
