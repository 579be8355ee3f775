import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sdocheck import annotation, cli, htmltree, sdo_verifier

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
    def test_file_inputs_do_not_import_requests(self):
        probe = "import sys, sdocheck.cli; print('requests' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", probe],
                                capture_output=True, timeout=60)
        assert result.stdout.decode().strip() == "False", result.stderr

    def test_cli_import_loads_only_what_a_file_run_uses(self):
        # -S: a site hook may import modules of its own (certifi, say)
        probe = ("import json, sys, sdocheck.cli; "
                 "print(json.dumps(sorted(sys.modules)))")
        result = subprocess.run(
            [sys.executable, "-S", "-c", probe], capture_output=True,
            timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert result.returncode == 0, result.stderr
        loaded = set(json.loads(result.stdout))
        unused = {"dataclasses", "inspect", "importlib.resources",
                  "sdocheck.fetch", "requests"}
        assert loaded & unused == set()
        # the benchmark's tracer finds its targets in sys.modules
        layers = {f"sdocheck.{name}" for name in (
            "vocab", "ds", "htmltree", "annotation", "sdo_verifier",
            "content", "report", "pipeline")}
        assert layers <= loaded

    def test_relative_link_resolves_against_the_file_path(self, capsysbinary):
        probe = FIXTURES / "probes" / "relative_link.html"
        code = cli.main(["verify", str(probe),
                         "--ds", str(DS_DIR / "local-business.json")])
        report = json.loads(capsysbinary.readouterr().out)
        assert (code, report["entries"]) == (0, [])

    @pytest.mark.parametrize("probe", ["relative_link.html",
                                       "utf8_bom_page.html",
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

    def test_byte_order_mark_wins_over_meta_charset(self):
        data = b'\xef\xbb\xbf<meta charset="iso-8859-1">' + "é".encode()
        assert htmltree.decode_html(data) == '<meta charset="iso-8859-1">é'

    def test_jsonld_file_may_start_with_a_byte_order_mark(
            self, tmp_path, capsysbinary):
        path = tmp_path / "bom.json"
        path.write_bytes(b'\xef\xbb\xbf{"@context": "https://schema.org", '
                         b'"@type": "Thing", "name": "Caf\xc3\xa9"}')
        assert cli.main(["verify", str(path)]) == 0
        assert json.loads(capsysbinary.readouterr().out)["entries"] == []

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

    @pytest.mark.parametrize("option, document, loader", [
        ("--ds", DEEP_DS, "domain specification"),
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
    ], ids=["ds-200-deep", "vocab-3000-deep", "config-list",
            "config-3000-deep", "config-forms-int", "config-phrase-int",
            "config-threshold-list"])
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
