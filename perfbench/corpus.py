"""Seeded input corpus for the sdocheck benchmark.

Everything here is written from the README contract and the shipped
constraint documents, not from the package or its tests, so that neither a
change to the program nor a change to ``tests/generators.py`` can move the
corpus or the expectations recorded with it.

An annotation is first built as an abstract tree of :class:`Node` and
:class:`Leaf` objects, then rendered as JSON-LD (a script block plus a
visible card) or as Microdata.  Every root is of a target type of the
constraint document its input is checked with, and complies with the
vocabulary and that document.  Knockouts are then planted, one per root at
most, and the ``(path, code)`` pairs each one must produce are recorded.
Every value is shown on the page in a surface form the README promises,
except values a content knockout hides on purpose.

The same ``(workload, seed)`` always writes the same bytes.
"""

from __future__ import annotations

import html
import json
import random
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

SCHEMA = "https://schema.org/"

# The constraint documents shipped with the package, by target type.
DS_FILES = {
    "event": "src/sdocheck/data/ds/event.json",
    "local-business": "src/sdocheck/data/ds/local-business.json",
    "lodging-business": "src/sdocheck/data/ds/lodging-business.json",
}
DOC_NAMES = tuple(DS_FILES)
FAIL_LEVELS = ("error", "warning", "never")

_ADJ = ("amber", "bright", "cedar", "coastal", "copper", "crimson", "eastern",
        "golden", "granite", "hidden", "ivory", "jade", "lunar", "maple",
        "misty", "northern", "olive", "quiet", "royal", "silver", "summit",
        "velvet", "willow", "autumn", "meadow")
_NOUN = ("garden", "lantern", "market", "orchard", "pavilion", "quarter",
         "terrace", "harvest", "gallery", "forum", "studio", "workshop",
         "theatre", "station", "harbour", "plaza", "courtyard", "bridge",
         "cellar", "tower")
_EVENT_KIND = ("concert", "festival", "fair", "lecture", "recital",
               "screening", "tasting", "showcase", "parade", "marathon")
_CITY = ("Berlin", "Lisbon", "Porto", "Vienna", "Ghent", "Bergen", "Krakow",
         "Seville", "Turin", "Tallinn", "Utrecht", "Galway")
_STREET = ("Elm Street", "Harbour Road", "Mill Lane", "Station Square",
           "Park Avenue", "Castle Hill", "Market Row", "Bridge Walk")
_COUNTRY = ("Germany", "Portugal", "Austria", "Belgium", "Norway", "Poland")
_FIRST = ("Ada", "Bruno", "Clara", "Dmitri", "Elena", "Farid", "Greta",
          "Hugo", "Ines", "Jonas", "Kaja", "Luca")
_LAST = ("Almeida", "Berger", "Costa", "Dvorak", "Eriksen", "Fischer",
         "Garcia", "Horvat", "Ivanova", "Jansen", "Kowalski", "Lindqvist")
_CUISINE = ("Thai", "Basque", "Georgian", "Levantine", "Nordic", "Peruvian")
_WORDS = ("warm", "welcome", "evening", "local", "music", "artists", "family",
          "friendly", "open", "air", "seasonal", "menu", "views", "river",
          "historic", "centre", "guests", "daily", "tours", "craft", "small",
          "plates", "live", "jazz", "quiet", "rooms", "breakfast", "included",
          "terrace", "seating", "parking", "nearby", "walk", "station")
_ITEM_AVAILABILITY = ("InStock", "SoldOut", "PreOrder", "LimitedAvailability",
                      "OnlineOnly")
_EVENT_STATUS = ("EventScheduled", "EventPostponed", "EventRescheduled",
                 "EventMovedOnline")
_DAYS = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday",
         "Sunday")
_MONTH_NAMES = ("January", "February", "March", "April", "May", "June",
                "July", "August", "September", "October", "November",
                "December")

# Severities of the README catalog without --strict.
SEVERITY = {
    "E101": "error", "E102": "error", "E103": "warning",
    "E201": "error", "E202": "error", "E203": "warning", "E204": "warning",
    "E205": "warning", "E206": "warning", "E207": "info", "E208": "error",
    "E209": "info",
    "E301": "error", "E302": "error", "E303": "error", "E304": "error",
    "E305": "error",
    "E401": "warning", "E402": "warning", "E403": "warning",
}


# ---------------------------------------------------------------------------
# abstract annotation model


@dataclass
class Leaf:
    """One literal value.

    ``kind`` is one of text, url, image, date, number, enum, time, bool.
    ``raw`` is the value as Microdata carries it, ``data`` as JSON-LD does;
    ``shown`` is its visible surface form, or None to keep it off the page.
    """
    kind: str
    raw: str
    data: object
    shown: str | None

    @property
    def checkable(self) -> bool:
        # times and booleans without configured wording are unverifiable
        return self.kind not in ("time", "bool")


@dataclass
class Node:
    type: str
    props: dict[str, list] = field(default_factory=dict)

    def add(self, prop: str, value) -> None:
        self.props.setdefault(prop, []).append(value)


def value_path(node_path: str, node: Node, prop: str, index: int) -> str:
    """README path grammar: the index is omitted for single values."""
    multi = len(node.props[prop]) > 1
    return f"{node_path}.{prop}" + (f"[{index}]" if multi else "")


def leaves(node: Node):
    for values in node.props.values():
        for value in values:
            if isinstance(value, Node):
                yield from leaves(value)
            else:
                yield value


# ---------------------------------------------------------------------------
# value factories


class _Values:
    """Seeded value factory; a per-input serial keeps URLs distinct."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.serial = 0

    def _next(self) -> int:
        self.serial += 1
        return self.serial

    def words(self, pool, low: int, high: int) -> str:
        return " ".join(self.rng.choice(pool)
                        for _ in range(self.rng.randint(low, high)))

    def title(self, *pools) -> str:
        return " ".join(self.rng.choice(p).capitalize() for p in pools)

    def text(self, value: str) -> Leaf:
        return Leaf("text", value, value, value)

    def url(self, host: str, kind: str = "url") -> Leaf:
        raw = f"https://{host}/{self.rng.choice(_NOUN)}/{self._next()}"
        if kind == "image":
            raw += ".jpg"
        return Leaf(kind, raw, raw, raw)

    def calendar_date(self, year: int = 2026) -> date:
        return date(year, 1, 1) + timedelta(days=self.rng.randrange(360))

    def date(self, when: date) -> Leaf:
        return Leaf("date", when.isoformat(), when.isoformat(),
                    self.date_surface(when))

    def datetime(self, when: date) -> Leaf:
        hour = self.rng.choice((10, 14, 18, 19, 20))
        raw = f"{when.isoformat()}T{hour:02d}:30:00"
        return Leaf("date", raw, raw, f"{self.date_surface(when)}, {hour}:30")

    def date_surface(self, when: date) -> str:
        """A date form the README promises: ISO, month-first English month
        names, or day-first dotted/slashed digits (the default order)."""
        form = self.rng.randrange(5)
        if form == 0:
            return when.isoformat()
        if form == 1:
            return f"{_MONTH_NAMES[when.month - 1]} {when.day}, {when.year}"
        if form == 2:
            return f"{_MONTH_NAMES[when.month - 1][:3]} {when.day}, {when.year}"
        if form == 3:
            return f"{when.day}.{when.month:02d}.{when.year}"
        return f"{when.day}/{when.month}/{when.year}"

    def number(self, cents: int, integer: bool = False) -> Leaf:
        """A number; shown with grouping and two decimals, or plain."""
        if integer:
            raw = str(cents)
            return Leaf("number", raw, cents, f"{cents:,}" if
                        self.rng.random() < 0.5 else raw)
        whole, frac = divmod(cents, 100)
        raw = f"{whole}.{frac:02d}".rstrip("0").rstrip(".")
        data = float(raw) if "." in raw else int(raw)
        if self.rng.random() < 0.5:
            shown = f"{whole:,}.{frac:02d}"
        else:
            shown = raw
        return Leaf("number", raw, data, shown)

    def enum(self, member: str) -> Leaf:
        words = []
        for ch in member:
            if ch.isupper() and words:
                words.append(" ")
            words.append(ch.lower())
        shown = "".join(words).capitalize()
        data = member if self.rng.random() < 0.5 else SCHEMA + member
        return Leaf("enum", member, data, shown)

    def time(self, hour: int) -> Leaf:
        raw = f"{hour:02d}:00"
        return Leaf("time", raw, raw, f"{hour}:00")

    def boolean(self, value: bool, shown: str) -> Leaf:
        raw = "true" if value else "false"
        return Leaf("bool", raw, value, shown)

    def description(self) -> Leaf:
        return self.text(self.words(_WORDS, 5, 11).capitalize())

    def person(self) -> Node:
        node = Node(self.rng.choice(("Person", "Organization")))
        if node.type == "Person":
            name = f"{self.rng.choice(_FIRST)} {self.rng.choice(_LAST)}"
        else:
            name = self.title(_ADJ, _NOUN) + " Collective"
        node.add("name", self.text(name))
        return node

    def postal_address(self, full: bool) -> Node:
        node = Node("PostalAddress")
        node.add("streetAddress", self.text(
            f"{self.rng.randint(1, 240)} {self.rng.choice(_STREET)}"))
        node.add("addressLocality", self.text(self.rng.choice(_CITY)))
        if full:
            node.add("postalCode", self.text(str(self.rng.randint(10000, 99999))))
            node.add("addressCountry", self.text(self.rng.choice(_COUNTRY)))
        return node


# ---------------------------------------------------------------------------
# compliant roots, one maker per constraint document


def _event(v: _Values, lean: bool) -> Node:
    rng = v.rng
    node = Node(rng.choice(("Event", "MusicEvent", "Festival")))
    node.add("name", v.text(f"{v.title(_ADJ, _NOUN)} {rng.choice(_EVENT_KIND).capitalize()}"))
    start = v.calendar_date()
    if rng.random() < 0.5:
        node.add("startDate", v.date(start))
        if not lean and rng.random() < 0.5:
            node.add("endDate", v.date(start + timedelta(days=rng.randint(0, 3))))
    else:
        node.add("startDate", v.datetime(start))
    if rng.random() < 0.3:
        node.add("location", v.text(f"{v.title(_NOUN)} Hall, {rng.choice(_CITY)}"))
    else:
        place = Node("Place")
        place.add("name", v.text(v.title(_ADJ, _NOUN)))
        if not lean or rng.random() < 0.3:
            place.add("address", v.postal_address(full=False))
        node.add("location", place)
    if not lean:
        if rng.random() < 0.6:
            node.add("description", v.description())
        for _ in range(rng.randint(0, 2)):
            node.add("image", v.url("img.example.org", "image"))
        if rng.random() < 0.4:
            node.add("eventStatus", v.enum(rng.choice(_EVENT_STATUS)))
        if rng.random() < 0.5:
            node.add("organizer", v.person())
    for _ in range(rng.randint(0, 1 if lean else 2)):
        offer = Node("Offer")
        offer.add("price", v.number(rng.randint(500, 250000)))
        offer.add("priceCurrency", v.text(rng.choice(("EUR", "USD", "NOK"))))
        if not lean or rng.random() < 0.5:
            offer.add("availability", v.enum(rng.choice(_ITEM_AVAILABILITY)))
        node.add("offers", offer)
    return node


def _local_business(v: _Values, lean: bool) -> Node:
    rng = v.rng
    node = Node(rng.choice(("LocalBusiness", "Restaurant")))
    node.add("name", v.text(f"{v.title(_ADJ, _NOUN)} {rng.choice(('Bakery', 'Kitchen', 'Books', 'Bistro'))}"))
    if rng.random() < 0.3:
        node.add("address", v.text(f"{rng.randint(1, 240)} {rng.choice(_STREET)}, {rng.choice(_CITY)}"))
    else:
        node.add("address", v.postal_address(full=not lean))
    if rng.random() < 0.7:
        node.add("url", v.url("shops.example.net"))
    if rng.random() < 0.6:
        node.add("telephone", v.text(f"+49 30 {rng.randint(1000000, 9999999)}"))
    if node.type == "Restaurant":
        node.add("servesCuisine", v.text(rng.choice(_CUISINE)))
    for _ in range(rng.randint(0, 1 if lean else 2)):
        hours = Node("OpeningHoursSpecification")
        for day in rng.sample(_DAYS, rng.randint(1, 3)):
            hours.add("dayOfWeek", v.enum(day))
        opens = rng.randint(6, 11)
        hours.add("opens", v.time(opens))
        hours.add("closes", v.time(opens + rng.randint(4, 10)))
        node.add("openingHoursSpecification", hours)
    if not lean and rng.random() < 0.5:
        geo = Node("GeoCoordinates")
        geo.add("latitude", v.number(rng.randint(3600, 6900)))
        geo.add("longitude", v.number(rng.randint(100, 2900)))
        node.add("geo", geo)
    if not lean and rng.random() < 0.5:
        rating = Node("AggregateRating")
        rating.add("ratingValue", v.number(rng.randint(30, 50) * 10))
        rating.add("reviewCount", v.number(rng.randint(5, 900), integer=True))
        node.add("aggregateRating", rating)
    return node


def _lodging_business(v: _Values, lean: bool) -> Node:
    rng = v.rng
    node = Node(rng.choice(("LodgingBusiness", "Hotel")))
    node.add("name", v.text(f"{v.title(_ADJ, _NOUN)} {rng.choice(('Hotel', 'Inn', 'Lodge', 'Guesthouse'))}"))
    node.add("url", v.url("stay.example.com"))
    if rng.random() < 0.3:
        node.add("address", v.text(f"{rng.randint(1, 240)} {rng.choice(_STREET)}, {rng.choice(_CITY)}"))
    else:
        node.add("address", v.postal_address(full=not lean))
    if not lean:
        if rng.random() < 0.6:
            node.add("description", v.description())
        for _ in range(rng.randint(0, 2)):
            node.add("image", v.url("img.example.org", "image"))
        if rng.random() < 0.5:
            node.add("telephone", v.text(f"+351 21 {rng.randint(1000000, 9999999)}"))
    if rng.random() < 0.5:
        node.add("checkinTime", v.time(rng.randint(13, 16)))
        node.add("checkoutTime", v.time(rng.randint(9, 12)))
    if rng.random() < 0.4:
        allowed = rng.random() < 0.5
        node.add("petsAllowed", v.boolean(allowed, "Pets welcome" if allowed else "No pets"))
    if not lean and rng.random() < 0.5:
        rating = Node("Rating")
        rating.add("ratingValue", v.number(rng.randint(1, 5), integer=True))
        node.add("starRating", rating)
    if rng.random() < 0.5:
        node.add("priceRange", v.text(rng.choice(("Moderate", "Budget friendly", "Upscale"))))
    return node


_ROOT_MAKERS = {"event": _event, "local-business": _local_business,
             "lodging-business": _lodging_business}


# ---------------------------------------------------------------------------
# knockouts: each mutates one root and returns the (path, code) pairs it
# must produce, relative to the root path "$r"


def _ko_missing(v, node, doc):
    prop = {"event": "startDate", "local-business": "address",
            "lodging-business": "url"}[doc]
    del node.props[prop]
    return [(f".{prop}", "E302")]


def _ko_nested_missing(v, node, doc):
    if doc == "event":
        place = Node("Place")
        place.add("address", v.postal_address(full=False))
        node.props["location"] = [place]
        return [(".location", "E305"), (".location.name", "E302")]
    address = v.postal_address(full=True)
    if doc == "lodging-business":
        del address.props["streetAddress"]
        node.props["address"] = [address]
        return [(".address", "E305"), (".address.streetAddress", "E302")]
    hours = Node("OpeningHoursSpecification")
    hours.add("dayOfWeek", v.enum(v.rng.choice(_DAYS)))
    hours.add("closes", v.time(17))
    node.add("openingHoursSpecification", hours)
    path = value_path("", node, "openingHoursSpecification",
                      len(node.props["openingHoursSpecification"]) - 1)
    return [(path, "E305"), (path + ".opens", "E302")]


def _ko_cardinality(v, node, doc):
    node.add("name", v.text(v.title(_ADJ, _NOUN, _NOUN)))
    return [(".name", "E303")]


def _ko_unknown_property(v, node, doc):
    node.add("vibe", v.text(v.words(_WORDS, 2, 4)))
    return [(".vibe", "E202")]


def _ko_domain(v, node, doc):
    if doc == "local-business":
        node.add("checkinTime", v.time(15))
        return [(".checkinTime", "E203")]
    node.add("servesCuisine", v.text(v.rng.choice(_CUISINE)))
    return [(".servesCuisine", "E203")]


def _ko_malformed(v, node, doc):
    prop = "doorTime" if doc == "event" else "foundingDate"
    node.add(prop, v.text(v.words(_WORDS, 2, 3)))
    return [(f".{prop}", "E205")]


def _ko_range(v, node, doc):
    node.add("maximumAttendeeCapacity", v.number(v.rng.randint(101, 999) * 10 + 5))
    return [(".maximumAttendeeCapacity", "E204")]


def _ko_semantic(v, node, doc):
    start = v.calendar_date()
    node.props["startDate"] = [v.date(start)]
    node.props["endDate"] = [v.date(start - timedelta(days=v.rng.randint(1, 9)))]
    return [(".endDate", "E208")]


def _ko_not_permitted(v, node, doc):
    node.props["location"] = [v.postal_address(full=False)]
    return [(".location", "E304")]


def _ko_hidden_text(v, node, doc):
    nonce = " ".join("zq" + "".join(v.rng.choice("bcdfghjkmnpqrstvwxz")
                                    for _ in range(7)) for _ in range(3))
    node.props["description"] = [Leaf("text", nonce, nonce, None)]
    return [(".description", "E401")]


def _ko_hidden_url(v, node, doc):
    hidden = v.url("img.example.org", "image")
    hidden.shown = None
    node.add("image", hidden)
    return [(value_path("", node, "image", len(node.props["image"]) - 1), "E402")]


def _ko_hidden_number(v, node, doc):
    if doc == "event":
        # a year no visible date uses, after every start date
        hidden = v.date(v.calendar_date(2032))
        hidden.shown = None
        node.props["endDate"] = [hidden]
        return [(".endDate", "E403")]
    # three decimals: no visible numeral has three
    cents = v.rng.randint(36000, 69000)
    raw = f"{cents // 1000}.{cents % 1000:03d}"
    if raw.endswith("0"):
        raw = raw[:-1] + "7"
    node.props["latitude"] = [Leaf("number", raw, float(raw), None)]
    return [(".latitude", "E403")]


_KNOCKOUTS_ANY_ROOT = (_ko_missing, _ko_nested_missing, _ko_cardinality,
                      _ko_unknown_property, _ko_domain, _ko_malformed,
                      _ko_range)
STRUCTURAL_KNOCKOUTS = {
    # only events carry the dates and the location those two need
    "event": _KNOCKOUTS_ANY_ROOT + (_ko_semantic, _ko_not_permitted),
    "local-business": _KNOCKOUTS_ANY_ROOT,
    "lodging-business": _KNOCKOUTS_ANY_ROOT,
}
CONTENT_KNOCKOUTS = (_ko_hidden_text, _ko_hidden_url, _ko_hidden_number)


@dataclass
class Root:
    node: Node
    expected: list[tuple[str, str]]  # paths relative to the root path


def make_root(v: _Values, doc: str, lean: bool, structural: float,
              content: float) -> Root:
    """One compliant root, carrying at most one planted knockout."""
    node = _ROOT_MAKERS[doc](v, lean)
    draw = v.rng.random()
    expected: list[tuple[str, str]] = []
    if draw < structural:
        expected = v.rng.choice(STRUCTURAL_KNOCKOUTS[doc])(v, node, doc)
    elif draw < structural + content:
        expected = v.rng.choice(CONTENT_KNOCKOUTS)(v, node, doc)
    return Root(node, expected)


# ---------------------------------------------------------------------------
# rendering


def to_jsonld(node: Node, top: bool = True) -> dict:
    out: dict = {"@context": "https://schema.org"} if top else {}
    out["@type"] = node.type
    for prop, values in node.props.items():
        items = [to_jsonld(x, False) if isinstance(x, Node) else x.data
                 for x in values]
        out[prop] = items[0] if len(items) == 1 else items
    return out


def _visible_leaf(leaf: Leaf) -> str:
    if leaf.shown is None:
        return ""
    if leaf.kind == "url":
        return f'<p><a href="{html.escape(leaf.raw)}">website</a></p>\n'
    if leaf.kind == "image":
        return f'<img src="{html.escape(leaf.raw)}" alt="">\n'
    return f"<p>{html.escape(leaf.shown)}</p>\n"


def render_jsonld_block(node: Node) -> str:
    script = json.dumps(to_jsonld(node), ensure_ascii=False)
    card = "".join(_visible_leaf(leaf) for leaf in leaves(node))
    return (f'<script type="application/ld+json">{script}</script>\n'
            f'<div class="card">\n{card}</div>\n')


def _microdata_leaf(prop: str, leaf: Leaf) -> str:
    p = html.escape(prop)
    raw = html.escape(leaf.raw)
    if leaf.shown is None:
        return f'<meta itemprop="{p}" content="{raw}">\n'
    shown = html.escape(leaf.shown)
    if leaf.kind == "text":
        return f'<span itemprop="{p}">{shown}</span>\n'
    if leaf.kind == "url":
        return f'<a itemprop="{p}" href="{raw}">website</a>\n'
    if leaf.kind == "image":
        return f'<img itemprop="{p}" src="{raw}" alt="">\n'
    if leaf.kind in ("date", "time"):
        return f'<time itemprop="{p}" datetime="{raw}">{shown}</time>\n'
    if leaf.kind == "enum":
        return (f'<link itemprop="{p}" href="{SCHEMA}{raw}">'
                f'<span>{shown}</span>\n')
    # numbers and booleans: the value sits in markup, the wording is shown
    return f'<span itemprop="{p}" content="{raw}">{shown}</span>\n'


def render_microdata(node: Node, prop: str | None = None) -> str:
    attr = f' itemprop="{html.escape(prop)}"' if prop else ""
    parts = [f'<div{attr} itemscope itemtype="{SCHEMA}{node.type}">\n']
    for name, values in node.props.items():
        for value in values:
            if isinstance(value, Node):
                parts.append(render_microdata(value, name))
            else:
                parts.append(_microdata_leaf(name, value))
    parts.append("</div>\n")
    return "".join(parts)


def _page(title: str, body: list[str]) -> bytes:
    head = (f'<!DOCTYPE html>\n<html><head><meta charset="utf-8">'
            f"<title>{html.escape(title)}</title></head>\n<body>\n")
    return (head + "".join(body) + "</body></html>\n").encode("utf-8")


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Input:
    """One input file plus what a correct report on it must show."""
    name: str
    data: bytes
    doc: str
    fail_level: str
    expected: list[tuple[str, str]] = field(default_factory=list)
    values: int = 0        # literal values the generator emitted
    unverifiable: int = 0  # of which the content layer cannot score
    known_fault: str | None = None  # why today's program fails on it
    planted: bool = True  # False for probes: their findings are not known


def _absolute(roots: list[tuple[int, Root]]) -> list[tuple[str, str]]:
    return [(f"${ordinal}{rel}", code)
            for ordinal, root in roots for rel, code in root.expected]


def _count_values(inp: Input, roots: list[Root]) -> None:
    all_leaves = [leaf for root in roots for leaf in leaves(root.node)]
    inp.values = len(all_leaves)
    inp.unverifiable = sum(1 for leaf in all_leaves if not leaf.checkable)


def _filler(v: _Values, size: int) -> str:
    """About ``size`` bytes of visible prose: the rest of a page.

    Words only, so it adds no date, number, URL or hidden-value token.
    """
    parts = ['<article class="copy">\n']
    used = len(parts[0]) + len("</article>\n")
    while used < size:
        paragraph = f"<p>{v.words(_WORDS, 8, 16).capitalize()}.</p>\n"
        parts.append(paragraph)
        used += len(paragraph)
    parts.append("</article>\n")
    return "".join(parts)


def make_page(v: _Values, name: str, doc: str, blocks: int, fail_level: str,
              lean: bool = False, structural: float = 0.15,
              content: float = 0.15, pad_to: int | None = None) -> Input:
    """A page of ``blocks`` roots, each its own JSON-LD or Microdata block.

    Blocks are interleaved on the page, but the program numbers JSON-LD
    roots before Microdata ones, so ordinals follow that order.  With
    ``pad_to``, prose fills the page up to about that many bytes, so that
    its size depends on its position only, not on the seed.
    """
    made = [(make_root(v, doc, lean, structural, content),
             v.rng.random() < 0.5) for _ in range(blocks)]
    ordinal = 0
    numbered: list[tuple[int, Root]] = []
    for is_jsonld in (True, False):
        for root, as_jsonld in made:
            if as_jsonld is is_jsonld:
                numbered.append((ordinal, root))
                ordinal += 1
    body = [render_jsonld_block(root.node) if as_jsonld
            else render_microdata(root.node) for root, as_jsonld in made]
    if pad_to is not None:
        body.append(_filler(v, pad_to - len(_page(name, body))))
    inp = Input(name, _page(name, body), doc, fail_level,
                expected=_absolute(numbered))
    _count_values(inp, [root for root, _ in made])
    return inp


def make_standalone(v: _Values, name: str, doc: str, roots: int,
                    fail_level: str) -> Input:
    """A bare JSON-LD file: one object, or an array of root objects."""
    made = [make_root(v, doc, False, 0.3, 0.0) for _ in range(roots)]
    objects = [to_jsonld(root.node) for root in made]
    payload = objects[0] if roots == 1 else objects
    data = json.dumps(payload, indent=1, ensure_ascii=False).encode("utf-8")
    inp = Input(name, data + b"\n", doc, fail_level,
                expected=_absolute(list(enumerate(made))))
    _count_values(inp, made)
    return inp


def faulty_inputs() -> list[Input]:
    """Inputs on which today's program fails; none depends on the seed."""
    deep_divs = _page("nested", ["<div>" * 3000, "deep", "</div>" * 3000, "\n"])
    event = '{"@context": "https://schema.org", "@type": "Event", "name": "x"'
    deep_json = (event + ', "subEvent": {"@type": "Event", "name": "x"' * 1500
                 + "}" * 1501 + "\n").encode()
    big_integer = (event + ', "maximumAttendeeCapacity": 1' + "0" * 4999
                   + "}\n").encode()
    nan = (b'{"@context": "https://schema.org", "@type": "QuantitativeValue",'
           b' "minValue": NaN, "maxValue": 5}\n')
    probes = [
        Input("probe-nested-divs.html", deep_divs, "event", "error",
              known_fault="3,000 nested <div>: RecursionError in htmltree",
              planted=False),
        Input("probe-deep-jsonld.json", deep_json, "event", "error",
              known_fault="JSON-LD nested 1,500 deep: RecursionError in json.loads",
              planted=False),
        Input("probe-big-integer.json", big_integer, "event", "error",
              known_fault="5,000-digit integer: ValueError from the int-string limit",
              planted=False),
        Input("probe-nan.json", nan, "event", "error",
              known_fault="minValue NaN: decimal.InvalidOperation in value-order",
              planted=False),
    ]
    for i, href in enumerate(("/about", "contact.html", "../menu/")):
        body = (f'<div itemscope itemtype="{SCHEMA}LocalBusiness">\n'
                f'<span itemprop="name">Corner Shop {i + 1}</span>\n'
                f'<span itemprop="address">{i + 3} Mill Lane, Ghent</span>\n'
                f'<a itemprop="url" href="{href}">website</a>\n</div>\n')
        probes.append(Input(
            f"relative-link-{i + 1}.html", _page("shop", [body]),
            "local-business", "error",
            known_fault="relative Microdata link resolved against "
                        "file://<relative path>: false E205"))
    return probes


# ---------------------------------------------------------------------------
# workloads


# page sizes: above what any seed's blocks need (at most about 1 KB each)
_PAD_BASE = 2000
_PAD_PER_BLOCK = 1200


@dataclass
class Corpus:
    inputs: list[Input]  # one round of operations, in order

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for inp in self.inputs:
            (directory / inp.name).write_bytes(inp.data)


def cli_verify(seed: int) -> Corpus:
    """Standalone JSON-LD files and small pages, then the faulty inputs.

    Sizes and constraint documents are fixed by position, so every seed
    yields the same mix; the seed only draws the content.
    """
    v = _Values(random.Random(f"cli-verify:{seed}"))
    good: list[Input] = []
    for i in range(12):
        doc = DOC_NAMES[i % 3]
        level = FAIL_LEVELS[(i // 3) % 3]
        if i % 2 == 0:
            good.append(make_standalone(v, f"file-{i:02d}.json", doc,
                                        1 + (i // 2) % 3, level))
        else:
            blocks = 2 + 5 * (i // 2)
            good.append(make_page(v, f"page-{i:02d}.html", doc, blocks,
                                  level, pad_to=_PAD_BASE + _PAD_PER_BLOCK * blocks))
    faulty = faulty_inputs()
    ordered = []
    for i, inp in enumerate(good):
        ordered.append(inp)
        if i % 2 == 1 and faulty:
            ordered.append(faulty.pop(0))
    return Corpus(ordered + faulty)


def crawl_validate(seed: int) -> Corpus:
    """Medium pages, 80 to 120 blocks, all three constraint documents."""
    v = _Values(random.Random(f"crawl-validate:{seed}"))
    pages = []
    for i in range(18):
        blocks = 80 + (40 * i) // 17
        # every fourth page hides no value, so it must score 1.0
        pages.append(make_page(v, f"crawl-{i:02d}.html", DOC_NAMES[i % 3],
                               blocks, FAIL_LEVELS[(i // 3) % 3],
                               content=0.0 if i % 4 == 0 else 0.15,
                               pad_to=_PAD_BASE + _PAD_PER_BLOCK * blocks))
    # interleave sizes so a round is not sorted by size
    return Corpus(pages[0::2] + pages[1::2])


def dense_page(seed: int) -> Corpus:
    """One page of 4,000 lean event roots, many of them knocked out."""
    v = _Values(random.Random(f"dense-page:{seed}"))
    return Corpus([make_page(v, "dense.html", "event", 4000, "warning",
                             lean=True, structural=0.3, content=0.3)])


WORKLOADS = {"cli-verify": cli_verify, "crawl-validate": crawl_validate,
             "dense-page": dense_page}
