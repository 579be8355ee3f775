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
import json
import re
import unicodedata
from datetime import date, datetime
from decimal import Decimal, InvalidOperation
from typing import BinaryIO, NamedTuple
from urllib.parse import urlsplit, urlunsplit

from .annotation import (AnnotationGraph, Literal, Reference, UNDETERMINED,
                         parse_temporal)
from .htmltree import (Document, Element, NON_CONTENT_ELEMENTS,
                       effective_base_url, resolve_url)
from .report import ReportEntry, ScoreSummary, make_entry
from .vocab import VocabularyGraph, strip_namespace

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
_ISO_DATE_RE = re.compile(r"(?<!\d)(\d{4})-(\d{2})-(\d{2})(?!\d)")
_DOTTED_DATE_RE = re.compile(r"(?<!\d)(\d{1,2})\.(\d{1,2})\.(\d{4})(?!\d)")
_SLASHED_DATE_RE = re.compile(r"(?<!\d)(\d{1,2})/(\d{1,2})/(\d{4})(?!\d)")
_MONTH = r"(" + "|".join(sorted(_MONTHS, key=len, reverse=True)) + r")\.?"
_DAY = r"(\d{1,2})(?:st|nd|rd|th)?"
# month first ("July 10, 2026") or day first ("10 July 2026", "10th Jul 2026");
# the lookahead tries the alternation only where a digit or month can start
_MONTH_NAME_RE = re.compile(
    rf"\b(?=[\dadfjmnos])"
    rf"(?:{_MONTH}\s+{_DAY},?|{_DAY}\.?\s+{_MONTH},?)\s+(\d{{4}})\b",
    re.IGNORECASE)

# elements that break the text flow; prevents token fusion across tags
_BLOCK_TAGS = frozenset({
    "address", "article", "aside", "blockquote", "br", "caption", "dd",
    "div", "dl", "dt", "fieldset", "figcaption", "figure", "footer", "form",
    "h1", "h2", "h3", "h4", "h5", "h6", "header", "hr", "li", "main", "nav",
    "ol", "option", "p", "pre", "section", "select", "table", "td", "tfoot",
    "th", "thead", "title", "tr", "ul",
})

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


class ValidationConfig:
    __slots__ = ("threshold", "date_order", "decimal_separator",
                 "boolean_surface_forms")

    def __init__(self, threshold: float = 0.75, date_order: str = "DMY",
                 decimal_separator: str = "point",
                 boolean_surface_forms: dict | None = None):
        self.threshold = threshold
        self.date_order = date_order  # "DMY" or "MDY" for dotted/slashed page dates
        self.decimal_separator = decimal_separator  # "point" or "comma"
        # property name -> {"true": [phrases], "false": [phrases]}
        self.boolean_surface_forms = ({} if boolean_surface_forms is None
                                      else boolean_surface_forms)


def load_validation_config(source: bytes | str | BinaryIO) -> ValidationConfig:
    """Read a configuration document; raises ValueError when it does not
    parse or a field has the wrong shape."""
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, (bytes, bytearray)):
        source = bytes(source).decode("utf-8")
    try:
        raw = json.loads(source)
    except RecursionError as exc:
        raise ValueError(f"document nests too deeply: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("document must be a JSON object")
    config = ValidationConfig()
    if "threshold" in raw:
        try:
            config.threshold = float(raw["threshold"])
        except TypeError as exc:
            raise ValueError(f"threshold must be a number: {exc}") from exc
    if "dateOrder" in raw:
        if raw["dateOrder"] not in ("DMY", "MDY"):
            raise ValueError("dateOrder must be 'DMY' or 'MDY'")
        config.date_order = raw["dateOrder"]
    if "decimalSeparator" in raw:
        if raw["decimalSeparator"] not in ("point", "comma"):
            raise ValueError("decimalSeparator must be 'point' or 'comma'")
        config.decimal_separator = raw["decimalSeparator"]
    surface_forms = raw.get("booleanSurfaceForms", {})
    if not isinstance(surface_forms, dict):
        raise ValueError("booleanSurfaceForms must be an object")
    for prop, forms in surface_forms.items():
        if not isinstance(forms, dict):
            raise ValueError(f"booleanSurfaceForms of {prop!r} must be an object")
        config.boolean_surface_forms[prop] = {}
        for key in ("true", "false"):
            phrases = forms.get(key, [])
            if (not isinstance(phrases, list)
                    or not all(isinstance(p, str) for p in phrases)):
                raise ValueError(f"booleanSurfaceForms of {prop!r}: {key!r} "
                                 "must be a list of strings")
            config.boolean_surface_forms[prop][key] = phrases
    return config


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


def extract_page_content(tree: Document, base_url: str,
                         config: ValidationConfig | None = None) -> PageContent:
    """Reduce a page tree to its comparable pools.

    Script, style and template content is invisible, which keeps embedded
    JSON-LD annotation blocks out of their own evidence.
    """
    config = config or ValidationConfig()
    base = effective_base_url(tree, base_url)
    text, urls = _visible_text_and_urls(tree, base)
    return PageContent(
        text_tokens=frozenset(tokenize(text)),
        urls=frozenset(urls),
        dates=frozenset(_extract_dates(text, config.date_order)),
        numbers=frozenset(_extract_numbers(text, config.decimal_separator)),
    )


def _visible_text_and_urls(tree: Element, base: str) -> tuple[str, set[str]]:
    """The page text, block elements set apart by newlines, and every
    href/src target that parses, resolved against ``base``."""
    chunks: list[str] = []
    urls: set[str] = set()
    # entries are elements still to visit, or text (a block's closing
    # newline among it) to emit in document order
    stack: list[Element | str] = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            chunks.append(item)
            continue
        if item.tag in NON_CONTENT_ELEMENTS:
            continue
        if item.tag != "base":
            for attr in ("href", "src"):
                if item.attrs.get(attr):
                    url = resolve_url(item.attrs[attr], base)
                    if url is not None:
                        urls.add(normalize_url(url))
        if item.tag in _BLOCK_TAGS:
            chunks.append("\n")
            stack.append("\n")
        stack.extend(reversed(item.children))
    return "".join(chunks), urls


def _extract_dates(text: str, date_order: str) -> set[date]:
    found: set[date] = set()
    for match in _ISO_DATE_RE.finditer(text):
        _add_date(found, match.group(1), match.group(2), match.group(3))
    for pattern in (_DOTTED_DATE_RE, _SLASHED_DATE_RE):
        for match in pattern.finditer(text):
            first, second, year = match.groups()
            day, month = (first, second) if date_order == "DMY" else (second, first)
            _add_date(found, year, month, day)
    for match in _MONTH_NAME_RE.finditer(text):
        name1, day1, day2, name2, year = match.groups()
        month = _MONTHS[(name1 or name2).lower()]
        _add_date(found, year, str(month), day1 or day2)
    return found


def _add_date(found: set[date], year: str, month: str, day: str) -> None:
    try:
        found.add(date(int(year), int(month), int(day)))
    except ValueError:
        pass


def _extract_numbers(text: str, decimal_separator: str) -> set[Decimal]:
    found: set[Decimal] = set()
    for match in _NUMERAL_RE.finditer(text):
        value = parse_numeral(match.group(0), decimal_separator)
        if value is not None:
            found.add(value)
    return found


def parse_numeral(run: str, decimal_separator: str = "point") -> Decimal | None:
    """Normalize one numeral run: thousands separators dropped, the decimal
    separator honored; a separator of the other kind is accepted as decimal
    when the grouping makes thousands impossible.  Returns None for runs
    that are not plausible numbers (e.g. version strings like 1.2.3)."""
    if not any(c in run for c in ".,"):
        try:
            return Decimal(run)
        except InvalidOperation:
            return None
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
    if frac is not None and not frac.isdigit():
        return None
    return Decimal(digits + ("." + frac if frac else ""))


# ---------------------------------------------------------------------------
# scoring


def classify_value_kind(value: Literal | Reference, property_name: str,
                        vocab: VocabularyGraph | None) -> ValueKind | None:
    """The consistency kind of a value; None when nothing can be checked.

    Enumeration members win over the URL reading: a member written in IRI
    form describes page wording, not a link target.
    """
    raw = value.iri if isinstance(value, Reference) else value.raw
    if vocab is not None and vocab.enumerations_of_member(strip_namespace(raw)):
        return ValueKind.ENUMERATION
    if isinstance(value, Reference):
        return ValueKind.URL
    datatype = value.datatype
    if datatype == UNDETERMINED:
        return None
    if datatype == "URL":
        return ValueKind.URL
    if datatype in ("Date", "DateTime"):
        return ValueKind.DATE
    if datatype == "Time":
        return ValueKind.TIME
    if datatype == "Boolean":
        return ValueKind.BOOLEAN
    if datatype in ("Integer", "Float"):
        if property_name in _RATING_PROPERTIES:
            return ValueKind.RATING
        return ValueKind.NUMBER
    return ValueKind.STRING


def consistency_of_value(value: Literal | Reference, property_name: str,
                         page: PageContent, config: ValidationConfig,
                         vocab: VocabularyGraph | None = None,
                         ) -> ValueConsistency:
    """Score one annotation value against the page pools."""
    path = value.path or "$0"
    kind = classify_value_kind(value, property_name, vocab)
    raw = value.iri if isinstance(value, Reference) else value.raw

    if kind is None:
        return ValueConsistency(path, ValueKind.STRING, 0.0,
                                MatchStatus.UNVERIFIABLE, "empty value")
    if kind is ValueKind.URL:
        normalized = normalize_url(raw)
        hit = normalized in page.urls
        return _scored(path, kind, 1.0 if hit else 0.0, config,
                       f"URL {normalized or raw!r} "
                       + ("found on page" if hit else "not found on page"))
    if kind is ValueKind.DATE:
        when = _calendar_date(value)
        if when is None:
            return ValueConsistency(path, kind, 0.0, MatchStatus.UNVERIFIABLE,
                                    "value does not parse as a date")
        hit = when in page.dates
        return _scored(path, kind, 1.0 if hit else 0.0, config,
                       f"date {when.isoformat()} "
                       + ("found on page" if hit else "not found on page"))
    if kind is ValueKind.TIME:
        return ValueConsistency(path, kind, 0.0, MatchStatus.UNVERIFIABLE,
                                "times are not extracted from page content")
    if kind in (ValueKind.NUMBER, ValueKind.RATING):
        try:
            number = Decimal(raw)
        except InvalidOperation:
            return ValueConsistency(path, kind, 0.0, MatchStatus.UNVERIFIABLE,
                                    "value does not parse as a number")
        hit = number in page.numbers
        return _scored(path, kind, 1.0 if hit else 0.0, config,
                       f"number {number} "
                       + ("found on page" if hit else "not found on page"))
    if kind is ValueKind.BOOLEAN:
        forms = config.boolean_surface_forms.get(property_name)
        phrases = forms.get(raw, []) if forms else []
        if not phrases:
            return ValueConsistency(
                path, kind, 0.0, MatchStatus.UNVERIFIABLE,
                f"no surface forms configured for boolean {property_name!r}")
        score = max(_containment(tokenize(p), page) for p in phrases)
        return _scored(path, kind, score, config,
                       f"best surface-form containment {score:.3f}")
    if kind is ValueKind.ENUMERATION:
        tokens = camel_case_tokens(strip_namespace(raw))
        score = _containment(tokens, page)
        return _scored(path, kind, score, config,
                       f"member-name token containment {score:.3f}")

    tokens = tokenize(raw)
    if not tokens:
        return ValueConsistency(path, ValueKind.STRING, 0.0,
                                MatchStatus.UNVERIFIABLE,
                                "value has no comparable tokens")
    score = _containment(tokens, page)
    return _scored(path, ValueKind.STRING, score, config,
                   f"token containment {score:.3f}")


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


def _calendar_date(value: Literal) -> date | None:
    try:
        when = parse_temporal(value.raw, value.datatype)
    except ValueError:
        return None
    return when.date() if isinstance(when, datetime) else when


def aggregate_scores(items: list[ValueConsistency]) -> ScoreSummary:
    checkable = [c for c in items if c.status is not MatchStatus.UNVERIFIABLE]
    matched = sum(1 for c in checkable if c.status is MatchStatus.MATCHED)
    unverifiable = len(items) - len(checkable)
    if not checkable:
        return ScoreSummary(score=None, checked=0, matched=matched,
                            unverifiable=unverifiable)
    mean = sum(c.score for c in checkable) / len(checkable)
    return ScoreSummary(score=mean, checked=len(checkable), matched=matched,
                        unverifiable=unverifiable)


_KIND_TO_CODE = {
    ValueKind.URL: "E402",
    ValueKind.DATE: "E403",
    ValueKind.TIME: "E403",
    ValueKind.NUMBER: "E403",
    ValueKind.RATING: "E403",
    ValueKind.STRING: "E401",
    ValueKind.ENUMERATION: "E401",
    ValueKind.BOOLEAN: "E401",
}


def consistency_entries(items: list[ValueConsistency]) -> list[ReportEntry]:
    """Report entries for the unmatched values, ordered by (path, code)."""
    entries: list[ReportEntry] = []
    for item in items:
        if item.status is not MatchStatus.UNMATCHED:
            continue
        code = _KIND_TO_CODE[item.value_kind]
        entries.append(make_entry(
            code, item.path,
            f"{item.value_kind.value} value does not match page content "
            f"({item.evidence})"))
    entries.sort(key=lambda e: (e.path, e.code))
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
