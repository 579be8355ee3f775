import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from sdocheck import annotation, cli, htmltree, pipeline, report, sdo_verifier
from sdocheck.vocab import MAX_DEPTH
from test_fetch import server  # noqa: F401  (a local HTTP server fixture)

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"
DS_DIR = SRC / "sdocheck" / "data" / "ds"


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "sdocheck", *args],
                          capture_output=True, timeout=60)


def machine_report(result):
    return json.loads(result.stdout.decode())


class TestVerifyExitCodes:
    @pytest.mark.parametrize("fail_level,expected", [
        ("error", 0), ("warning", 0), ("never", 0)])
    def test_clean_input(self, fail_level, expected):
        result = run_cli("verify", str(FIXTURES / "clean_event.json"),
                         "--fail-level", fail_level)
        assert result.returncode == expected, result.stderr

    @pytest.mark.parametrize("fail_level,expected", [
        ("error", 1), ("warning", 1), ("never", 0)])
    def test_error_input(self, fail_level, expected):
        result = run_cli("verify", str(FIXTURES / "error_event.json"),
                         "--fail-level", fail_level)
        assert result.returncode == expected

    @pytest.mark.parametrize("fail_level,expected", [
        ("error", 0), ("warning", 1), ("never", 0)])
    def test_warning_only_input(self, fail_level, expected):
        result = run_cli("verify", str(FIXTURES / "warn_event.json"),
                         "--fail-level", fail_level)
        assert result.returncode == expected

    @pytest.mark.parametrize("fail_level", ["error", "warning", "never"])
    def test_unreadable_input(self, fail_level):
        result = run_cli("verify", str(FIXTURES / "does_not_exist.json"),
                         "--fail-level", fail_level)
        assert result.returncode == 2
        assert result.stdout == b""
        assert b"cannot read input" in result.stderr

    def test_strict_turns_warning_input_into_failure(self):
        relaxed = run_cli("verify", str(FIXTURES / "warn_event.json"))
        strict = run_cli("verify", str(FIXTURES / "warn_event.json"),
                         "--strict")
        assert relaxed.returncode == 0
        assert strict.returncode == 1


class TestVerifyReports:
    def test_clean_machine_report(self):
        result = run_cli("verify", str(FIXTURES / "clean_event.json"))
        report = machine_report(result)
        assert report["entries"] == []
        assert report["summary"] == {"error": 0, "warning": 0, "info": 0}
        assert report["target"].endswith("clean_event.json")
        assert report["snapshot_id"].startswith("sha256:")

    def test_ds_violation_reported_with_exit_1(self):
        result = run_cli("verify", str(FIXTURES / "clean_event.json"),
                         "--ds", str(FIXTURES / "ds_name_required.json"))
        assert result.returncode == 1
        report = machine_report(result)
        assert [(e["code"], e["path"]) for e in report["entries"]] == [
            ("E302", "$0.description")]
        assert report["ds_name"] == "named-event"

    def test_human_format(self):
        result = run_cli("verify", str(FIXTURES / "error_event.json"),
                         "--format", "human")
        text = result.stdout.decode()
        assert any(line.startswith("ERROR E201 $0:")
                   for line in text.splitlines())

    def test_bad_ds_path_is_tool_failure(self):
        result = run_cli("verify", str(FIXTURES / "clean_event.json"),
                         "--ds", str(FIXTURES / "missing_ds.json"))
        assert result.returncode == 2

    def test_machine_output_is_deterministic(self):
        one = run_cli("verify", str(FIXTURES / "page_good.html"))
        two = run_cli("verify", str(FIXTURES / "page_good.html"))
        assert one.stdout == two.stdout

    def test_vocab_flag_accepts_explicit_snapshot(self, tmp_path):
        from importlib import resources
        data = resources.files("sdocheck.data").joinpath(
            "schemaorg.jsonld").read_bytes()
        snapshot = tmp_path / "vocab.jsonld"
        snapshot.write_bytes(data)
        result = run_cli("verify", str(FIXTURES / "clean_event.json"),
                         "--vocab", str(snapshot))
        assert result.returncode == 0


class TestValidate:
    def test_fully_consistent_page_scores_one(self):
        result = run_cli("validate", str(FIXTURES / "page_good.html"))
        assert result.returncode == 0, result.stdout
        report = machine_report(result)
        assert report["content_score"]["score"] == 1.0
        assert report["content_score"]["checked"] >= 3

    def test_inconsistent_page_scores_zero_and_fails_on_warning(self):
        result = run_cli("validate", str(FIXTURES / "page_bad.html"),
                         "--fail-level", "warning")
        assert result.returncode == 1
        report = machine_report(result)
        assert report["content_score"]["score"] == 0.0
        codes = {e["code"] for e in report["entries"]}
        assert {"E401", "E402", "E403"} <= codes

    def test_page_without_annotation_is_empty_annotation(self):
        result = run_cli("validate", str(FIXTURES / "page_none.html"))
        assert result.returncode == 1
        report = machine_report(result)
        assert [e["code"] for e in report["entries"]] == ["E102"]

    def test_annotation_file_is_rejected_for_validate(self):
        result = run_cli("validate", str(FIXTURES / "clean_event.json"))
        assert result.returncode == 2
        assert b"needs a web page" in result.stderr

    def test_validation_config_flag(self, tmp_path):
        config = tmp_path / "vc.json"
        config.write_text('{"threshold": 0.1}')
        result = run_cli("validate", str(FIXTURES / "page_good.html"),
                         "--validation-config", str(config))
        assert result.returncode == 0

    def test_validation_config_is_not_a_verify_option(self, tmp_path, capsys):
        config = tmp_path / "vc.json"
        config.write_text('{"threshold": 0.1}')
        with pytest.raises(SystemExit) as exited:
            cli.main(["verify", str(FIXTURES / "clean_event.json"),
                      "--validation-config", str(config)])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestExtract:
    def test_page_with_one_block(self):
        result = run_cli("extract", str(FIXTURES / "page_good.html"))
        assert result.returncode == 0
        dumps = json.loads(result.stdout.decode())
        assert len(dumps) == 1
        assert dumps[0]["format"] == "json-ld"
        assert dumps[0]["roots"] == ["$0"]
        root = dumps[0]["nodes"][0]
        assert (root["path"], root["types"]) == ("$0", ["Hotel"])
        assert root["properties"]["name"][0]["raw"] == "Hotel Alpenhof"

    def test_unparsed_block_has_no_roots_or_nodes(self, capsys):
        assert cli.main(["extract",
                         str(FIXTURES / "probes" / "nan_min_value.json")]) == 0
        [dump] = json.loads(capsys.readouterr().out)
        assert (dump["roots"], dump["nodes"]) == (None, None)
        assert [f["code"] for f in dump["findings"]] == ["E101"]

    def test_a_reference_is_written_with_its_iri(self, tmp_path, capsys):
        path = tmp_path / "reference.json"
        organizer = {"@id": "https://x.example/o"}
        path.write_text(json.dumps({"@context": "https://schema.org",
                                    "@type": "Event", "organizer": organizer}))
        assert cli.main(["extract", str(path)]) == 0
        [dump] = json.loads(capsys.readouterr().out)
        assert dump["nodes"][0]["properties"]["organizer"] == [
            {"kind": "reference", "path": "$0.organizer",
             "iri": "https://x.example/o"}]

    def test_page_without_blocks_is_empty_list(self):
        result = run_cli("extract", str(FIXTURES / "page_none.html"))
        assert result.returncode == 0
        assert json.loads(result.stdout.decode()) == []

    def test_mangled_html_is_best_effort(self):
        result = run_cli("extract", str(FIXTURES / "mangled.html"))
        assert result.returncode == 0
        assert json.loads(result.stdout.decode()) == []

    @pytest.mark.parametrize("option", ["--vocab", "--format"])
    def test_report_options_are_not_accepted(self, option, capsys):
        with pytest.raises(SystemExit) as exited:
            cli.main(["extract", str(FIXTURES / "page_good.html"),
                      option, "machine"])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestOnePassPerPage:
    """In-process runs: one HTML tree per page, and no recursion limit."""

    @pytest.mark.parametrize("command", ["verify", "validate"])
    def test_deeply_nested_page_reports_no_blocks(self, command, tmp_path,
                                                  capsysbinary):
        page = tmp_path / "deep.html"
        page.write_text("<html><body>" + "<div>" * 3000 + "deep"
                        + "</div>" * 3000 + "</body></html>")
        assert cli.main([command, str(page)]) == 1
        report = json.loads(capsysbinary.readouterr().out)
        assert [e["code"] for e in report["entries"]] == ["E102"]

    def test_validate_builds_one_html_tree(self, monkeypatch, capsysbinary):
        feeds = []
        feed = htmltree._TreeBuilder.feed

        def counted_feed(builder, data):
            feeds.append(len(data))
            return feed(builder, data)

        monkeypatch.setattr(htmltree._TreeBuilder, "feed", counted_feed)
        assert cli.main(["validate", str(FIXTURES / "page_good.html")]) == 0
        assert len(feeds) == 1


class TestRobustness:
    def test_file_inputs_do_not_import_http_modules(self):
        probe = ("import sys, sdocheck.cli; print(sorted({'urllib.request', "
                 "'http.client'} & set(sys.modules)))")
        result = subprocess.run([sys.executable, "-c", probe],
                                capture_output=True, timeout=60)
        assert result.stdout.decode().strip() == "[]", result.stderr

    @staticmethod
    def loaded_after(*argvs) -> tuple[set[str], set[str]]:
        """The modules loaded after ``import sdocheck.cli`` and then after
        ``cli.main(argv)`` for each of ``argvs``, in a fresh interpreter."""
        # -S: a site hook may import modules of its own (certifi, say)
        probe = ("import io, json, sys, sdocheck.cli as cli\n"
                 "before = sorted(sys.modules)\n"
                 "stdout = sys.stdout\n"
                 "sys.stdout = io.TextIOWrapper(io.BytesIO())\n"
                 f"for argv in {list(argvs)!r}: cli.main(argv)\n"
                 "stdout.write(json.dumps([before, sorted(sys.modules)]))\n")
        result = subprocess.run(
            [sys.executable, "-S", "-c", probe], capture_output=True,
            timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert result.returncode == 0, result.stderr
        before, after = json.loads(result.stdout)
        return set(before), set(after)

    def test_cli_import_loads_only_what_a_file_run_uses(self):
        page = str(FIXTURES / "page_good.html")
        imported, verified = self.loaded_after(
            ["verify", page, "--ds", str(DS_DIR / "event.json")])
        unused = {"dataclasses", "inspect", "importlib.resources",
                  "sdocheck.fetch", "urllib.request", "http.client",
                  "html.parser", "_markupbase"}
        assert imported & unused == set()
        # only content scoring reads the content layer and what it imports
        assert verified & (unused | {"sdocheck.content", "decimal",
                                     "unicodedata"}) == set()
        layers = {f"sdocheck.{name}" for name in (
            "vocab", "ds", "htmltree", "annotation", "sdo_verifier",
            "report", "pipeline")}
        assert layers <= imported

    def test_validate_loads_the_content_layer(self):
        _, validated = self.loaded_after(
            ["validate", str(FIXTURES / "page_good.html")])
        assert "sdocheck.content" in validated

    def test_relative_link_resolves_against_the_file_path(self, capsysbinary):
        probe = FIXTURES / "probes" / "relative_link.html"
        code = cli.main(["verify", str(probe),
                         "--ds", str(DS_DIR / "local-business.json")])
        report = json.loads(capsysbinary.readouterr().out)
        assert (code, report["entries"]) == (0, [])

    def test_a_url_scheme_is_read_in_any_case(self, server, capsysbinary):
        lower = f"{server}/latin1"
        upper = lower.replace("http", "HTTP", 1)
        assert cli.main(["verify", lower]) == 0
        report = capsysbinary.readouterr().out
        assert cli.main(["verify", upper]) == 0
        # the report names its target as given
        assert capsysbinary.readouterr() == (
            report.replace(lower.encode(), upper.encode()), b"")

    def test_an_upper_case_scheme_url_literal_is_a_url(self, capsysbinary):
        probe = FIXTURES / "probes" / "upper_case_scheme_url.json"
        code = cli.main(["verify", str(probe)])
        report = json.loads(capsysbinary.readouterr().out)
        assert (code, report["entries"]) == (0, [])

    def test_object_data_is_a_url(self, capsysbinary):
        probe = FIXTURES / "probes" / "microdata_value_elements.html"
        code = cli.main(["verify", str(probe)])
        report = json.loads(capsysbinary.readouterr().out)
        assert (code, report["entries"]) == (0, [])

    def test_object_data_is_in_the_page_url_pool(self, capsysbinary):
        probe = FIXTURES / "probes" / "microdata_value_elements.html"
        cli.main(["validate", str(probe)])
        report = json.loads(capsysbinary.readouterr().out)
        assert ("E402", "$0.url") not in [(e["code"], e["path"])
                                          for e in report["entries"]]

    @pytest.mark.parametrize("probe", ["relative_link.html",
                                       "utf8_bom_page.html",
                                       "utf16_bom_page.html",
                                       "latin1_meta_charset.html"])
    def test_page_probe_validates_clean(self, probe, capsysbinary):
        code = cli.main(["validate", str(FIXTURES / "probes" / probe)])
        report = json.loads(capsysbinary.readouterr().out)
        assert (code, report["entries"]) == (0, [])
        assert report["content_score"]["score"] == 1.0

    @pytest.mark.parametrize("head, body, text", [
        (b"", "café’".encode(), "café’"),
        (b'<meta charset="iso-8859-1">', b"caf\xe9\x92", "café’"),
        (b'<meta charset="US-ASCII">', b"caf\xe9\x92", "café’"),
        (b"<meta http-equiv=Content-Type "
         b"content='text/html; charset=iso-8859-15'>",
         "café €".encode("iso-8859-15"), "café €"),
        (b'<meta charset="no-such-encoding">', "café".encode(), "café"),
        (b'<meta charset="base64">', "café".encode(), "café"),
        (b'<meta charset="unicode_escape">', '\\"café'.encode(), '\\"café'),
        (b'<meta charset="utf-16">', "café".encode(), "café"),
        (b"<!--" + b" " * 1024 + b'--><meta charset="iso-8859-1">',
         "café".encode(), "café"),
    ], ids=["undeclared", "latin1-as-windows-1252", "ascii-as-windows-1252",
            "http-equiv", "unknown-label", "not-a-text-encoding",
            "python-only-label", "utf-16", "past-1024-bytes"])
    def test_page_decodes_as_its_meta_charset_declares(self, head, body,
                                                        text):
        assert htmltree.decode_html(head + body).endswith(text)

    @pytest.mark.parametrize("charset, data, text", [
        ("windows-1252", b'<meta charset="utf-8">caf\xe9', "caf\xe9"),
        ("UTF-8", b'<meta charset="iso-8859-1">caf\xc3\xa9', "caf\xe9"),
        (" latin1 ", b"caf\xe9\x92", "caf\xe9\u2019"),
        ("no-such", b'<meta charset="iso-8859-1">caf\xe9', "caf\xe9"),
        ("iso-8859-1", b"\xef\xbb\xbfcaf\xc3\xa9", "caf\xe9"),
        ("utf-8", '\ufeff<meta charset="iso-8859-1">caf\xe9'.encode(
            "utf-16-le"), "caf\xe9"),
        ("utf-8", '\ufeff<meta charset="iso-8859-1">caf\xe9'.encode(
            "utf-16-be"), "caf\xe9"),
        ("utf-16le", '<meta charset="utf-8">caf\xe9'.encode("utf-16-le"),
         "caf\xe9"),
        ("UTF-16", "<p>caf\xe9".encode("utf-16-le"), "caf\xe9"),
        ("utf-16be", "<p>caf\xe9".encode("utf-16-be"), "caf\xe9"),
        ("utf-16be", "\ufeff<p>caf\xe9".encode("utf-16-le"), "caf\xe9"),
    ], ids=["http-over-meta", "utf-8-label", "latin1-as-windows-1252",
            "unknown-label-ignored", "bom-over-http",
            "utf-16le-bom-over-http-and-meta",
            "utf-16be-bom-over-http-and-meta", "http-utf-16le-over-meta",
            "http-utf-16-is-le", "http-utf-16be", "bom-over-http-utf-16"])
    def test_http_charset_comes_between_bom_and_meta(self, charset, data,
                                                     text):
        assert htmltree.decode_html(data, charset).endswith(text)

    def test_byte_order_mark_wins_over_meta_charset(self):
        data = b'\xef\xbb\xbf<meta charset="iso-8859-1">' + "é".encode()
        assert htmltree.decode_html(data) == '<meta charset="iso-8859-1">é'

    @pytest.mark.parametrize("codec", ["utf-16-le", "utf-16-be"])
    def test_utf16_page_is_a_page(self, codec, tmp_path, capsysbinary):
        page = (FIXTURES / "probes" / "utf16_bom_page.html").read_bytes()
        path = tmp_path / "page.html"
        path.write_bytes(("\ufeff" + page.decode("utf-16")).encode(codec))
        assert cli.main(["verify", str(path)]) == 0
        assert json.loads(capsysbinary.readouterr().out)["entries"] == []
        assert cli.main(["extract", str(path)]) == 0
        block, = json.loads(capsysbinary.readouterr().out)
        assert block["format"] == "microdata"
        assert block["nodes"][0]["properties"]["name"][0]["raw"] == (
            "Café Müller")

    def test_jsonld_file_may_start_with_a_byte_order_mark(
            self, tmp_path, capsysbinary):
        path = tmp_path / "bom.json"
        path.write_bytes(b'\xef\xbb\xbf{"@context": "https://schema.org", '
                         b'"@type": "Thing", "name": "Caf\xc3\xa9"}')
        assert cli.main(["verify", str(path)]) == 0
        assert json.loads(capsysbinary.readouterr().out)["entries"] == []

    def test_jsonld_file_that_is_not_utf_8_is_e101(self, capsysbinary):
        probe = FIXTURES / "probes" / "latin1_standalone.json"
        assert cli.main(["verify", str(probe)]) == 1
        [entry] = json.loads(capsysbinary.readouterr().out)["entries"]
        assert (entry["code"], entry["path"]) == ("E101", "$")
        assert entry["description"].startswith(
            "block does not parse: 'utf-8' codec can't decode byte 0xe9")

    @pytest.mark.parametrize("probe", ["jsonld_graph_object.json",
                                       "jsonld_schema_prefix.json",
                                       "jsonld_context_list_object.json",
                                       "jsonld_keyword_aliases.json"])
    def test_jsonld_forms_of_one_event_are_checked_clean(self, probe,
                                                         capsysbinary):
        """A @graph object, schema: terms under a schema prefix, a context
        list whose schema.org entry is an object, and terms that alias @id
        and @type."""
        path = str(FIXTURES / "probes" / probe)
        assert cli.main(["verify", path]) == 0
        assert json.loads(capsysbinary.readouterr().out)["entries"] == []
        assert cli.main(["extract", path]) == 0
        [dump] = json.loads(capsysbinary.readouterr().out)
        assert [(node["path"], node["types"], list(node["properties"]))
                for node in dump["nodes"]] == [
            ("$0", ["Event"], ["name", "startDate", "location"]),
            ("$0.location", ["Place"], ["name"])]

    @pytest.mark.parametrize("probe, findings", [
        ("jsonld_vocab_schema_org_prefix_other.json",
         [("E201", "$0", "type 'https://x.example/Event'")]),
        ("jsonld_prefix_schema_org_vocab_other.json",
         [("E201", "$0", "type 'https://x.example/Event'"),
          ("E201", "$0.https://x.example/location",
           "type 'https://x.example/Place'"),
          ("E202", "$0.https://x.example/location",
           "property 'https://x.example/location'"),
          ("E202", "$0.https://x.example/location.https://x.example/name",
           "property 'https://x.example/name'"),
          ("E202", "$0.https://x.example/name",
           "property 'https://x.example/name'"),
          ("E202", "$0.https://x.example/startDate",
           "property 'https://x.example/startDate'")])])
    def test_names_a_context_maps_to_another_vocabulary_are_unknown(
            self, probe, findings, capsysbinary):
        assert cli.main(["verify", str(FIXTURES / "probes" / probe)]) == 1
        report = json.loads(capsysbinary.readouterr().out)
        assert [(e["code"], e["path"], e["description"])
                for e in report["entries"]] == [
            (code, path, f"{what} is not defined by the vocabulary")
            for code, path, what in findings]

    @pytest.mark.parametrize("probe", ["nan_min_value.json", "big_integer.json",
                                       "deep_nesting.json",
                                       "float_overflow.json"])
    def test_undecodable_jsonld_is_e101(self, probe, capsysbinary):
        assert cli.main(["verify", str(FIXTURES / "probes" / probe)]) == 1
        report = json.loads(capsysbinary.readouterr().out)
        assert [(e["code"], e["path"]) for e in report["entries"]] == [
            ("E101", "$")]

    PAGE_PROBES = ["bad_ipv6_microdata_href.html", "bad_ipv6_itemid.html",
                   "bad_ipv6_base.html", "bad_ipv6_page_link.html",
                   "bad_ipv6_reference.html", "unknown_marked_section.html"]

    @pytest.mark.parametrize("command, probe", [
        ("verify", "bad_ipv6_literal.json"),
        *[(command, probe) for probe in PAGE_PROBES
          for command in ("verify", "validate")]])
    def test_malformed_urls_and_marked_sections_get_a_report(
            self, command, probe, capsysbinary):
        code = cli.main([command, str(FIXTURES / "probes" / probe)])
        captured = capsysbinary.readouterr()
        assert code in (0, 1)
        assert b"internal error" not in captured.err
        json.loads(captured.out)

    @pytest.mark.parametrize("command, probe, finding", [
        ("verify", "bad_ipv6_literal.json", ("E205", "$0.url")),
        ("verify", "bad_ipv6_microdata_href.html", ("E205", "$0.url")),
        ("validate", "bad_ipv6_reference.html", ("E402", "$0.organizer")),
    ])
    def test_unparseable_url_is_text_or_unmatched(self, command, probe,
                                                  finding, capsysbinary):
        cli.main([command, str(FIXTURES / "probes" / probe)])
        report = json.loads(capsysbinary.readouterr().out)
        assert finding in [(e["code"], e["path"]) for e in report["entries"]]

    DEEP_DS = ('{"name": "deep", "root": ' + '{"targetTypes": ["Event"], '
               '"properties": [{"name": "subEvent", "ranges": [{"type": '
               '"Event", "node": ' * 199 + '{"targetTypes": ["Event"]}'
               + "}]}]}" * 199 + "}")
    # the shipped event document with a stray key and endDate's misspelt
    MISSPELT_DS = (resources.files("sdocheck.data").joinpath("ds/event.json")
                   .read_text()
                   .replace('"dsVersion"', '"bogus": 1, "dsVersion"')
                   .replace('"endDate", "isOptional"',
                            '"endDate", "isOptinal"'))

    @pytest.mark.parametrize("option, document, loader", [
        ("--ds", DEEP_DS, "domain specification"),
        ("--ds", MISSPELT_DS, "domain specification"),
        ("--vocab", '{"@graph": ' + "[" * 3000 + "]" * 3000 + "}",
         "vocabulary"),
        ("--validation-config", "[1, 2]", "validation config"),
        ("--validation-config", "[" * 3000 + "]" * 3000, "validation config"),
        ("--validation-config", '{"booleanSurfaceForms": {"petsAllowed": 3}}',
         "validation config"),
        ("--validation-config",
         '{"booleanSurfaceForms": {"petsAllowed": {"true": [3]}}}',
         "validation config"),
        ("--validation-config", '{"threshold": [1]}', "validation config"),
        ("--validation-config", '{"threshold": NaN}', "validation config"),
        ("--validation-config", '{"treshold": 0.1, "dateorder": "MDY"}',
         "validation config"),
        ("--validation-config",
         '{"booleanSurfaceForms": {"petsAllowed": {"yes": ["pets ok"]}}}',
         "validation config"),
    ], ids=["ds-200-deep", "ds-misspelt-key", "vocab-3000-deep",
            "config-list", "config-3000-deep", "config-forms-int",
            "config-phrase-int", "config-threshold-list",
            "config-threshold-nan", "config-misspelt-key",
            "config-forms-misspelt-key"])
    def test_unloadable_document_exits_2(self, option, document, loader,
                                         tmp_path, capsys):
        path = tmp_path / "document.json"
        path.write_text(document)
        code = cli.main(["validate", str(FIXTURES / "page_good.html"),
                         option, str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith(f"sdocheck: cannot load {loader}: ")

    @pytest.mark.parametrize("command, layer, name", [
        ("verify", sdo_verifier, "verify_schema_org"),
        ("extract", annotation, "parse_annotation"),
    ])
    def test_internal_error_exits_2_with_one_line(self, command, layer, name,
                                                   monkeypatch, capsys):
        def crash(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(layer, name, crash)
        assert cli.main([command, str(FIXTURES / "clean_event.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "sdocheck: internal error: "
            "RecursionError('maximum recursion depth exceeded')"]


class TestUnwritableStdout:
    """A stdout that cannot take the output exits 2, never 1 ("findings"),
    and prints no traceback."""

    COMMANDS = ["verify", "validate", "extract"]

    @staticmethod
    def run_with_stdout(command, stdout, **kwargs):
        return subprocess.run(
            [sys.executable, "-m", "sdocheck", command,
             str(FIXTURES / "page_bad.html")],
            stdout=stdout, stderr=subprocess.PIPE, timeout=60, **kwargs)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_pipe_closed_before_reading_exits_2_silently(self, command):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = self.run_with_stdout(command, write_end)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (2, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full on this system")
    @pytest.mark.parametrize("command", COMMANDS)
    def test_full_device_exits_2_with_one_line(self, command):
        with open("/dev/full", "wb") as full:
            result = self.run_with_stdout(command, full)
        assert result.returncode == 2
        assert result.stderr.decode().splitlines() == [
            "sdocheck: cannot write output: "
            "[Errno 28] No space left on device"]

    @pytest.mark.skipif(os.name != "posix", reason="needs POSIX descriptors")
    @pytest.mark.parametrize("command", COMMANDS)
    def test_closed_descriptor_exits_2_with_one_line(self, command):
        result = self.run_with_stdout(command, None,
                                      preexec_fn=lambda: os.close(1))
        assert result.returncode == 2
        assert result.stderr.decode().splitlines() == [
            "sdocheck: cannot write output: stdout is closed"]


class TestUnwritableStderr:
    """A closed or read-only stderr drops the diagnostic: a failed run still
    exits 2, never 1 ("findings"), and puts nothing on stdout."""

    CASES = {
        "unreadable input": ["verify", str(FIXTURES / "does_not_exist.json")],
        "bad --ds": ["verify", str(FIXTURES / "clean_event.json"),
                     "--ds", str(FIXTURES / "does_not_exist.json")],
        "full stdout": ["verify", str(FIXTURES / "clean_event.json")],
    }

    @pytest.mark.skipif(os.name != "posix" or not os.path.exists("/dev/full"),
                        reason="needs POSIX descriptors and /dev/full")
    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("stderr", ["closed", "read-only"])
    def test_failure_exits_2_with_nothing_on_stdout(self, case, stderr):
        with open("/dev/full", "wb") as full, \
                open(os.devnull, "rb") as read_only:
            result = subprocess.run(
                [sys.executable, "-m", "sdocheck", *self.CASES[case]],
                stdout=full if case == "full stdout" else subprocess.PIPE,
                stderr=read_only if stderr == "read-only" else None,
                preexec_fn=(lambda: os.close(2)) if stderr == "closed"
                else None, timeout=60)
        assert result.returncode == 2
        assert result.stdout in (None, b"")


class _Tally:
    """A stdout that keeps no text: counts one marker across writes."""

    def __init__(self, marker: str):
        self.marker, self.tail, self.count = marker, "", 0

    def write(self, text: str) -> int:
        window = self.tail + text
        self.count += window.count(self.marker)
        self.tail = window[1 - len(self.marker):]
        return len(text)

    def flush(self) -> None:
        pass


class TestDeepAnnotations:
    """Nesting deeper than the recursion limit still gets a full report.

    Each probe is a chain of ``subEvent`` items whose deepest one carries
    the misspelt property ``nmae``."""

    PROBES = [("jsonld_300_deep.html", 300),
              ("microdata_1200_nested.html", 1200)]

    @pytest.mark.parametrize("command", ["verify", "validate"])
    @pytest.mark.parametrize("probe, depth", PROBES)
    def test_deepest_node_is_checked(self, command, probe, depth,
                                     capsysbinary):
        code = cli.main([command, str(FIXTURES / "probes" / probe)])
        report = json.loads(capsysbinary.readouterr().out)
        assert code in (0, 1)
        deepest = "$0" + ".subEvent" * (depth - 1) + ".nmae"
        assert ("E202", deepest) in [(e["code"], e["path"])
                                     for e in report["entries"]]

    @pytest.mark.parametrize("probe, depth", PROBES)
    def test_extract_prints_every_level(self, probe, depth, monkeypatch):
        tally = _Tally('"kind": "entity"')
        monkeypatch.setattr(sys, "stdout", tally)
        assert cli.main(["extract", str(FIXTURES / "probes" / probe)]) == 0
        assert tally.count == depth - 1
        assert tally.tail.endswith("]\n")

    def test_extract_lists_each_node_once_by_path(self, capsys):
        probe = FIXTURES / "probes" / "jsonld_300_deep.html"
        assert cli.main(["extract", str(probe)]) == 0
        [dump] = json.loads(capsys.readouterr().out)
        paths = [node["path"] for node in dump["nodes"]]
        assert len(paths) == len(set(paths)) == 300
        assert dump["roots"] == ["$0"]
        entities = [value for node in dump["nodes"]
                    for values in node["properties"].values()
                    for value in values if value["kind"] == "entity"]
        assert len(entities) == 299
        assert {value["node"] for value in entities} <= set(paths)


def deep_event(depth: int) -> str:
    """A JSON-LD Event whose ``subEvent`` chain nests ``depth`` objects, the
    deepest carrying the misspelt property ``nmae``."""
    return ('{"@context": "https://schema.org", "@type": "Event", '
            '"name": "Level 0", "subEvent": '
            + "".join(f'{{"@type": "Event", "name": "Level {level}", '
                      '"subEvent": ' for level in range(1, depth - 1))
            + f'{{"@type": "Event", "name": "Level {depth - 1}", '
            '"nmae": "x"}' + "}" * (depth - 1) + "\n")


class TestDepthLimit:
    """A JSON input parses up to ``MAX_DEPTH`` levels of arrays and objects
    and fails one level deeper, with one report however it is run."""

    STARTS = (["-m", "sdocheck"],
              ["-c", "from sdocheck import cli; cli.entry_point()"])

    def test_the_probe_nests_exactly_to_the_limit(self):
        probe = FIXTURES / "probes" / "jsonld_500_deep.json"
        assert probe.read_text() == deep_event(MAX_DEPTH)

    @pytest.mark.parametrize("depth", [MAX_DEPTH, MAX_DEPTH + 1])
    def test_both_entry_points_report_as_the_pipeline(self, depth, tmp_path,
                                                      vocab):
        path = tmp_path / "deep.json"
        path.write_text(deep_event(depth))
        expected = report.serialize_report(pipeline.run(
            path.read_bytes(), path.as_uri(), vocab, target=str(path)))
        for start in self.STARTS:
            result = subprocess.run(
                [sys.executable, *start, "verify", str(path)],
                capture_output=True, timeout=60)
            assert (result.returncode, result.stderr) == (1, b"")
            assert result.stdout == expected
        entries = json.loads(expected)["entries"]
        if depth == MAX_DEPTH:
            assert [(e["code"], e["path"]) for e in entries] == [
                ("E202", "$0" + ".subEvent" * (depth - 1) + ".nmae")]
        else:
            assert [(e["code"], e["path"], e["description"])
                    for e in entries] == [
                ("E101", "$", "block does not parse: it nests deeper than "
                              f"{MAX_DEPTH} levels")]


class TestEntryPoint:
    """A process started either way hands back what ``cli.main`` returns and
    writes: exit code, stdout and stderr, byte for byte."""

    CASES = [
        *[["verify", str(FIXTURES / name), "--fail-level", level]
          for name in ("clean_event.json", "warn_event.json",
                       "error_event.json")
          for level in ("error", "warning", "never")],
        ["--help"],
        ["verify"],
        # a report of 481 KB, far more than a 64 KB pipe buffer holds
        ["validate", str(FIXTURES / "probes" / "jsonld_300_deep.html")],
    ]

    @pytest.mark.parametrize(
        "argv", CASES, ids=lambda argv: " ".join(Path(a).name for a in argv))
    def test_a_process_hands_back_what_main_returns(self, argv, monkeypatch,
                                                    capsysbinary):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to it
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsysbinary.readouterr()
        expected = (code, captured.out, captured.err)
        if argv == ["--help"]:
            assert code == 0 and captured.out.startswith(b"usage: sdocheck")
            assert captured.out.endswith(b"show this help message and exit\n")
        elif argv == ["verify"]:
            assert code == 2 and captured.out == b""
            assert captured.err.startswith(b"usage: sdocheck verify")
        elif argv[0] == "validate":
            assert len(captured.out) > 65536
        for start in TestDepthLimit.STARTS:
            result = subprocess.run([sys.executable, *start, *argv],
                                    capture_output=True, timeout=60)
            assert (result.returncode, result.stdout,
                    result.stderr) == expected, start
