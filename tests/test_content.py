import re
from datetime import date
from decimal import Decimal

import pytest
from hypothesis import example, given, strategies as st

from sdocheck import content as c, pipeline
from sdocheck.annotation import Literal, Reference
from sdocheck.htmltree import parse_html
from helpers import parse_jsonld, report_order


def page_from(html: str, base="https://x.example/",
              config=None) -> c.PageContent:
    return c.extract_page_content(parse_html(html, base),
                                  config or c.ValidationConfig())


def score_graph(graph, page, vocab):
    """The content layer's entries and score for one graph."""
    items = c.collect_consistencies(graph, page, c.ValidationConfig(), vocab)
    return (c.consistency_entries(items),
            c.aggregate_scores([(i.score, i.status) for i in items]))


def literal(raw: str, datatype=None) -> Literal:
    from sdocheck.annotation import classify_literal
    return Literal(raw, datatype or classify_literal(raw))


class TestExtraction:
    def test_body_text_tokenized(self):
        page = page_from("<html><body>Hotel Alpenhof</body></html>")
        assert {"hotel", "alpenhof"} <= page.text_tokens

    def test_relative_href_resolved(self):
        page = page_from('<a href="/offers">deals</a>')
        assert "https://x.example/offers" in page.urls

    def test_annotation_block_does_not_corroborate_itself(self):
        page = page_from('<script type="application/ld+json">'
                         '{"name": "Secret Name"}</script><p>visible</p>')
        assert "secret" not in page.text_tokens
        assert "visible" in page.text_tokens

    def test_style_and_template_are_invisible(self):
        page = page_from("<style>bodyword {}</style>"
                         "<template><p>ghostword</p></template><p>realword</p>")
        assert "ghostword" not in page.text_tokens
        assert "bodyword" not in page.text_tokens
        assert "realword" in page.text_tokens

    def test_block_elements_break_tokens(self):
        page = page_from("<h1>Hotel</h1><p>Alpenhof</p>")
        assert {"hotel", "alpenhof"} <= page.text_tokens
        assert "hotelalpenhof" not in page.text_tokens

    def test_image_sources_and_links_share_one_pool(self):
        page = page_from('<img src="/pic.jpg"><a href="/page">x</a>')
        assert "https://x.example/pic.jpg" in page.urls
        assert "https://x.example/page" in page.urls

    def test_base_tag_overrides_fallback(self):
        page = page_from('<head><base href="https://cdn.example/"></head>'
                         '<body><a href="x">l</a></body>')
        assert "https://cdn.example/x" in page.urls

    def test_token_normalization_nfkc_and_case(self):
        page = page_from("<p>ＨＯＴＥＬ Straße rooms-42</p>")
        assert "hotel" in page.text_tokens
        assert "straße" in page.text_tokens
        assert {"rooms", "42"} <= page.text_tokens

    def test_empty_page(self):
        page = page_from("")
        assert page.text_tokens == frozenset()
        assert page.urls == frozenset()
        assert page.dates == frozenset()
        assert page.numbers == frozenset()

    def test_microdata_content_attribute_is_not_visible_text(self):
        page = page_from('<div itemscope itemtype="https://schema.org/Hotel">'
                         '<meta itemprop="petsAllowed" content="hiddenword">'
                         '<span itemprop="name">Alpenhof</span></div>')
        assert "hiddenword" not in page.text_tokens
        assert "alpenhof" in page.text_tokens


class TestDatePatterns:
    def test_iso_form(self):
        assert date(2026, 7, 10) in page_from("<p>2026-07-10</p>").dates

    def test_dotted_day_first(self):
        assert date(2020, 5, 1) in page_from("<p>1.5.2020</p>").dates

    def test_slashed_day_first(self):
        assert date(2020, 5, 1) in page_from("<p>1/5/2020</p>").dates

    def test_month_first_configuration(self):
        config = c.ValidationConfig(date_order="MDY")
        page = page_from("<p>5/1/2020</p>", config=config)
        assert date(2020, 5, 1) in page.dates

    def test_month_names(self):
        page = page_from("<p>May 1, 2020 and August 17 2021 and Dec 3, 1999</p>")
        assert {date(2020, 5, 1), date(2021, 8, 17),
                date(1999, 12, 3)} <= page.dates

    @pytest.mark.parametrize("text", ["10 July 2026", "10th July 2026",
                                      "Sat, 10 Jul 2026", "10. Jul. 2026"])
    def test_day_first_month_names(self, text):
        assert page_from(f"<p>{text}</p>").dates == {date(2026, 7, 10)}

    def test_invalid_calendar_dates_skipped(self):
        page = page_from("<p>2020-13-45 and 40.40.2020</p>")
        assert page.dates == frozenset()

    def test_digit_runs_inside_longer_numbers_not_dates(self):
        page = page_from("<p>12020-05-013</p>")
        assert date(2020, 5, 1) not in page.dates

    @given(st.text(alphabet="0123456789\u0663-./ aZ", max_size=40))
    def test_patterns_find_what_a_leading_lookbehind_finds(self, text):
        """Each date pattern checks for a digit before the match after
        reading its first digit; it finds what the same pattern with the
        lookbehind in front finds."""
        oracles = {
            c._ISO_DATE_RE: r"(?<!\d)(\d{4})-(\d{2})-(\d{2})(?!\d)",
            c._DOTTED_DATE_RE: r"(?<!\d)(\d{1,2})\.(\d{1,2})\.(\d{4})(?!\d)",
            c._SLASHED_DATE_RE: r"(?<!\d)(\d{1,2})/(\d{1,2})/(\d{4})(?!\d)",
        }
        for pattern, oracle in oracles.items():
            assert pattern.findall(text) == re.findall(oracle, text)

    # the one month-name pattern that tried every position of the text
    MONTH = r"(" + "|".join(sorted(c._MONTHS, key=len, reverse=True)) + r")\.?"
    DAY = r"(\d{1,2})(?:st|nd|rd|th)?"
    MONTH_NAME_ORACLE = re.compile(
        rf"\b(?=[\dadfjmnos])"
        rf"(?:{MONTH}\s+{DAY},?|{DAY}\.?\s+{MONTH},?)\s+(\d{{4}})\b",
        re.IGNORECASE)

    @given(st.lists(st.sampled_from(
        ["July", "jul.", "SEPT", "Sep", "may", "Mayday", "Auguſt", "Aprıl",
         "10", "1st", "2ND", "31th", "7.", "2026", "12026", "x", ",", ".",
         " ", "\n", "\u0663"]), max_size=12).map("".join))
    @example("Jul 10, 2026 and 3rd May 2026 or 10 July 2026")
    def test_month_name_patterns_find_what_one_pattern_finds(self, text):
        """The month-first and day-first patterns try only where an
        initial or a digit stands; together they find the dates that one
        pattern trying every position finds."""
        found = {(name.lower(), day, year) for name, day, year
                 in c._MONTH_FIRST_RE.findall(text)}
        found |= {(name.lower(), day, year) for day, name, year
                  in c._DAY_FIRST_RE.findall(text)}
        # a name that is no month's once raised KeyError; now it is no date
        expected = {((name1 or name2).lower(), day1 or day2, year)
                    for name1, day1, day2, name2, year
                    in self.MONTH_NAME_ORACLE.findall(text)
                    if (name1 or name2).lower() in c._MONTHS}
        assert found == expected

    def test_unicode_folds_of_month_letters_are_no_month(self):
        """"ı" and "ſ" fold to "i" and "s" but spell no month name; such a
        page once stopped validation with a KeyError."""
        page = page_from("<p>Aprıl 1, 2020 and 2 Auguſt 2021</p>")
        assert page.dates == frozenset()


class TestNumberPatterns:
    @pytest.mark.parametrize("text,expected", [
        ("price: 42", Decimal("42")),
        ("only 12.5 left", Decimal("12.5")),
        ("€ 1,234.56 per night", Decimal("1234.56")),
        ("ab 12,5 Grad", Decimal("12.5")),
        ("1,234 guests", Decimal("1234")),
    ])
    def test_default_point_separator(self, text, expected):
        assert expected in page_from(f"<p>{text}</p>").numbers

    def test_version_strings_are_not_numbers(self):
        page = page_from("<p>release 1.2.3</p>")
        assert Decimal("1.2") not in page.numbers
        assert Decimal("12.3") not in page.numbers

    def test_comma_separator_configuration(self):
        config = c.ValidationConfig(decimal_separator="comma")
        page = page_from("<p>1.234,56 und 4,5</p>", config=config)
        assert {Decimal("1234.56"), Decimal("4.5")} <= page.numbers

    def test_trailing_zero_equality(self):
        page = page_from("<p>120.50</p>")
        assert Decimal("120.5") in page.numbers

    @given(st.text(alphabet=st.one_of(st.characters(categories=["Nd"]),
                                      st.sampled_from(".,")), max_size=30))
    @example("1.234,5 ١٢٣,٤٥٦ 7,,8 9.")
    def test_every_numeral_run_reads_as_a_number_or_none(self, text):
        for run in c._NUMERAL_RE.findall(text):
            for separator in ("point", "comma"):
                value = c.parse_numeral(run, separator)
                assert value is None or isinstance(value, Decimal)


class TestValueScoring:
    def test_trailing_slash_normalization_matches(self):
        page = page_from('<a href="https://www.example.com/x">l</a>')
        result = c.consistency_of_value(
            literal("https://www.example.com/x/"), "url", page,
            c.ValidationConfig())
        assert result.score == 1.0
        assert result.status is c.MatchStatus.MATCHED

    def test_containment_ratio_hand_oracle(self):
        page = page_from("<p>hotel alpenhof fügen</p>")
        result = c.consistency_of_value(
            literal("Hotel Alpenhof Zillertal"), "name", page,
            c.ValidationConfig())
        assert result.score == pytest.approx(2 / 3)
        assert result.status is c.MatchStatus.UNMATCHED  # below 0.75

    def test_boolean_without_surface_forms_is_unverifiable(self):
        page = page_from("<p>pets allowed</p>")
        result = c.consistency_of_value(
            literal("true"), "petsAllowed", page, c.ValidationConfig())
        assert result.status is c.MatchStatus.UNVERIFIABLE

    def test_boolean_with_configured_forms(self):
        config = c.ValidationConfig(boolean_surface_forms={
            "petsAllowed": {"true": ["pets allowed", "pets welcome"],
                            "false": ["no pets"]}})
        page = page_from("<p>small pets welcome in all rooms</p>")
        result = c.consistency_of_value(literal("true"), "petsAllowed",
                                        page, config)
        assert result.status is c.MatchStatus.MATCHED
        assert result.score == 1.0

    def test_a_surface_form_without_tokens_scores_zero(self):
        config = c.ValidationConfig(
            boolean_surface_forms={"petsAllowed": {"true": ["!!"]}})
        page = page_from("<p>pets allowed !!</p>")
        result = c.consistency_of_value(literal("true"), "petsAllowed",
                                        page, config)
        assert (result.score, result.status) == (0.0,
                                                 c.MatchStatus.UNMATCHED)

    def test_enumeration_member_split_at_camel_case(self, vocab):
        page = page_from("<p>currently in stock</p>")
        result = c.consistency_of_value(
            literal("https://schema.org/InStock"), "availability", page,
            c.ValidationConfig(), vocab)
        assert result.value_kind is c.ValueKind.ENUMERATION
        assert result.score == 1.0

    def test_rating_kind_for_rating_properties(self, vocab):
        page = page_from("<p>rated 4.5 of 5</p>")
        result = c.consistency_of_value(literal("4.5"), "ratingValue",
                                        page, c.ValidationConfig(), vocab)
        assert result.value_kind is c.ValueKind.RATING
        assert result.score == 1.0

    def test_date_value_against_european_page(self):
        page = page_from("<p>ab dem 1.5.2020</p>")
        result = c.consistency_of_value(literal("2020-05-01"), "startDate",
                                        page, c.ValidationConfig())
        assert result.score == 1.0

    def test_datetime_value_matches_calendar_date(self):
        page = page_from("<p>on 2020-05-01 evening</p>")
        result = c.consistency_of_value(
            literal("2020-05-01T19:00:00"), "startDate", page,
            c.ValidationConfig())
        assert result.score == 1.0

    def test_time_values_are_unverifiable(self):
        page = page_from("<p>15:00</p>")
        result = c.consistency_of_value(literal("15:00"), "checkinTime",
                                        page, c.ValidationConfig())
        assert result.status is c.MatchStatus.UNVERIFIABLE

    def test_reference_scored_as_url(self):
        page = page_from('<a href="https://x.example/place">p</a>')
        result = c.consistency_of_value(
            Reference("https://x.example/place"), "location", page,
            c.ValidationConfig())
        assert result.value_kind is c.ValueKind.URL
        assert result.score == 1.0

    def test_a_blank_node_reference_is_unverifiable(self):
        page = page_from('<a href="_:nobody">p</a>')
        result = c.consistency_of_value(Reference("_:nobody"), "organizer",
                                        page, c.ValidationConfig())
        assert (result.status, result.evidence) == (
            c.MatchStatus.UNVERIFIABLE, "a blank node names no page URL")

    def test_an_empty_reference_is_unverifiable(self, vocab):
        page = (b'<script type="application/ld+json">{"@type": "Event", '
                b'"name": "x", "organizer": {"@id": ""}, '
                b'"location": {"@id": ""}}</script><a href="">x</a>')
        run = pipeline.run(page, "https://x.example/", vocab,
                           validate=c.ValidationConfig())
        assert run.entries == []
        assert run.content_score == (1.0, 1, 1, 2)
        result = c.consistency_of_value(Reference(""), "organizer",
                                        page_from('<a href="">x</a>'),
                                        c.ValidationConfig())
        assert (result.status, result.evidence) == (
            c.MatchStatus.UNVERIFIABLE,
            "an empty identifier names no page URL")

    def test_a_relative_reference_matches_its_resolved_link(self, vocab):
        page = (b'<script type="application/ld+json">{"@type": "Event", '
                b'"name": "Gala", "location": {"@id": "/venue/hall"}}'
                b'</script><p>Gala at <a href="/venue/hall">the hall</a></p>')
        run = pipeline.run(page, "https://x.example/e/1", vocab,
                           validate=c.ValidationConfig())
        assert run.entries == []
        assert run.content_score == (1.0, 2, 2, 0)

    def test_symbol_only_string_is_unverifiable(self):
        page = page_from("<p>whatever</p>")
        result = c.consistency_of_value(literal("!!!"), "name", page,
                                        c.ValidationConfig())
        assert result.status is c.MatchStatus.UNVERIFIABLE


class TestAggregation:
    def test_hand_oracle_mean(self):
        page = page_from('<a href="https://x.example/found">l</a>')
        config = c.ValidationConfig()
        items = [
            c.consistency_of_value(literal("https://x.example/found"),
                                   "url", page, config),
            c.consistency_of_value(literal("2026-01-01"), "startDate",
                                   page, config),
            c.consistency_of_value(literal("true"), "petsAllowed",
                                   page, config),
        ]
        summary = c.aggregate_scores([(i.score, i.status) for i in items])
        assert summary.score == pytest.approx(0.5)
        assert summary.checked == 2
        assert summary.matched == 1
        assert summary.unverifiable == 1

    def test_empty_aggregation_is_undefined(self):
        summary = c.aggregate_scores([])
        assert summary.score is None
        assert summary.checked == 0

    def test_validate_annotation_end_to_end(self, vocab):
        block = {"@context": "https://schema.org", "@type": "Hotel",
                 "name": "Hotel Alpenhof",
                 "url": "https://x.example/hotel",
                 "foundingDate": "1999-12-03"}
        graph, _ = parse_jsonld(block)
        page = page_from('<h1>Hotel Alpenhof</h1>'
                         '<a href="https://x.example/hotel">home</a>'
                         '<p>since Dec 3, 1999</p>')
        entries, score = score_graph(graph, page, vocab)
        assert entries == []
        assert score.score == 1.0
        assert score.checked == 3

    def test_unmatched_values_emit_coded_entries(self, vocab):
        block = {"@context": "https://schema.org", "@type": "Hotel",
                 "name": "Completely Different",
                 "url": "https://elsewhere.example/",
                 "foundingDate": "1999-12-03"}
        graph, _ = parse_jsonld(block)
        page = page_from("<p>unrelated content 2020-01-01</p>")
        entries, score = score_graph(graph, page, vocab)
        assert [(e.code, e.path) for e in report_order(entries)] == [
            ("E403", "$0.foundingDate"), ("E401", "$0.name"),
            ("E402", "$0.url")]
        assert score.score == 0.0


class TestNormalizationHelpers:
    @pytest.mark.parametrize("url,expected", [
        ("HTTPS://WWW.Example.COM/Path/", "https://www.example.com/Path"),
        ("https://x.example/a?b=1#frag", "https://x.example/a?b=1"),
        ("https://x.example/", "https://x.example"),
    ])
    def test_url_normalization(self, url, expected):
        assert c.normalize_url(url) == expected

    def test_camel_case_tokens(self):
        assert c.camel_case_tokens("InStock") == ["in", "stock"]
        assert c.camel_case_tokens("OfflineEventAttendanceMode") == [
            "offline", "event", "attendance", "mode"]

    @given(st.text(max_size=50))
    def test_tokenizer_never_returns_empty_tokens(self, text):
        assert all(c.tokenize(text))

    @given(st.lists(st.text(alphabet="abcdefg", min_size=1, max_size=6),
                    min_size=1, max_size=8))
    def test_scores_stay_in_unit_interval(self, words):
        page = page_from("<p>" + " ".join(words[: len(words) // 2]) + "</p>")
        value = literal(" ".join(words))
        result = c.consistency_of_value(value, "name", page,
                                        c.ValidationConfig())
        assert 0.0 <= result.score <= 1.0

    @given(st.sets(st.text(alphabet="abcdef", min_size=1, max_size=5),
                   min_size=1, max_size=6),
           st.sets(st.text(alphabet="abcdef", min_size=1, max_size=5),
                   max_size=4))
    def test_page_growth_never_lowers_containment(self, value_words, extra):
        value = literal(" ".join(sorted(value_words)))
        small = page_from("<p>" + " ".join(sorted(value_words)[:2]) + "</p>")
        big = page_from("<p>" + " ".join(sorted(value_words)[:2]) + " "
                        + " ".join(sorted(extra)) + "</p>")
        config = c.ValidationConfig()
        s_small = c.consistency_of_value(value, "name", small, config).score
        s_big = c.consistency_of_value(value, "name", big, config).score
        assert s_big >= s_small


def test_validation_config_loading(tmp_path):
    config_file = tmp_path / "validation.json"
    config_file.write_text(
        '{"threshold": 0.6, "dateOrder": "MDY", "decimalSeparator": "comma",'
        ' "booleanSurfaceForms": {"petsAllowed": {"true": ["pets ok"]}}}')
    config = c.load_validation_config(config_file.read_bytes())
    assert config.threshold == 0.6
    assert config.date_order == "MDY"
    assert config.decimal_separator == "comma"
    assert config.boolean_surface_forms["petsAllowed"]["true"] == ["pets ok"]
    assert config.boolean_surface_forms["petsAllowed"]["false"] == []


def test_validation_config_rejects_bad_values():
    with pytest.raises(ValueError):
        c.load_validation_config(b'{"dateOrder": "YDM"}')
    with pytest.raises(ValueError):
        c.load_validation_config(b'{"decimalSeparator": "space"}')
    with pytest.raises(ValueError, match="booleanSurfaceForms must be an "
                                         "object"):
        c.load_validation_config(b'{"booleanSurfaceForms": ["pets ok"]}')
    with pytest.raises(ValueError, match="^unknown key 'dateorder'$"):
        c.load_validation_config(b'{"treshold": 0.1, "dateorder": "MDY"}')
    with pytest.raises(ValueError, match="^booleanSurfaceForms of "
                                         "'petsAllowed': unknown key 'yes'$"):
        c.load_validation_config(b'{"booleanSurfaceForms": {"petsAllowed": '
                                 b'{"true": [], "yes": ["y"]}}}')


def test_a_loaded_validation_config_leaves_the_defaults_alone():
    loaded = c.load_validation_config(
        b'{"booleanSurfaceForms": {"petsAllowed": {"true": ["pets ok"]}}}')
    assert loaded == c.ValidationConfig(
        boolean_surface_forms={"petsAllowed": {"true": ["pets ok"],
                                               "false": []}})
    assert c.ValidationConfig().boolean_surface_forms == {}
    assert c.load_validation_config(b"{}") == c.ValidationConfig()


# NaN, the infinities and 1e400 are no JSON numbers: they fail at parse
@pytest.mark.parametrize("threshold", [
    "true", "false", '"0.9"', "-0.1", "1.5", "7", "null", "[0.5]"])
def test_validation_config_takes_a_threshold_from_0_to_1_only(threshold):
    with pytest.raises(ValueError, match="threshold must be a number from 0 "
                                         "to 1"):
        c.load_validation_config(f'{{"threshold": {threshold}}}'.encode())


@pytest.mark.parametrize("threshold", ["0", "1", "0.5", "1.0", "-0.0"])
def test_validation_config_reads_a_threshold_at_or_between_0_and_1(
        threshold):
    config = c.load_validation_config(f'{{"threshold": {threshold}}}'.encode())
    assert config.threshold == float(threshold)
    assert type(config.threshold) is float
