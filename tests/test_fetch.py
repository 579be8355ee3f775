import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from sdocheck import cli, fetch as f

# a windows-1252 page that names its encoding in no <meta>: its text says
# "Caf\xe9 M\xfcller" in single bytes, its JSON-LD in JSON escapes
LATIN1_PAGE = (Path(__file__).parent / "fixtures" / "probes"
               / "latin1_meta_charset.html").read_bytes().replace(
                   b'<meta charset="iso-8859-1">', b"")
CONTENT_TYPES = {"/latin1": "text/html; charset=ISO-8859-1",
                 "/latin1-quoted": 'text/html;charset="iso-8859-1"',
                 "/latin1-undeclared": "text/html",
                 "/latin1-unknown-label": "text/html; charset=no-such"}


class Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_GET(self):
        if self.path in CONTENT_TYPES:
            self.send_response(200)
            self.send_header("Content-Type", CONTENT_TYPES[self.path])
            self.send_header("Content-Length", str(len(LATIN1_PAGE)))
            self.end_headers()
            self.wfile.write(LATIN1_PAGE)
        elif self.path == "/ok":
            body = b"<html><body>hello</body></html>"
            self.send_response(200)
            self.send_header("Content-Type", "text/html; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.path.startswith("/redirect/"):
            hops = int(self.path.rsplit("/", 1)[1])
            target = "/ok" if hops <= 1 else f"/redirect/{hops - 1}"
            self.send_response(302)
            self.send_header("Location", target)
            self.send_header("Content-Length", "0")
            self.end_headers()
        elif self.path == "/big":
            body = b"x" * (256 * 1024)
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_response(404)
            self.send_header("Content-Length", "0")
            self.end_headers()


@pytest.fixture(scope="module")
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()


def test_plain_fetch(server):
    result = f.fetch(f"{server}/ok")
    assert result.status == 200
    assert result.final_url == f"{server}/ok"
    assert b"hello" in result.body
    assert result.content_type.startswith("text/html")


def test_redirects_within_cap_record_final_url(server):
    result = f.fetch(f"{server}/redirect/3")
    assert result.status == 200
    assert result.final_url == f"{server}/ok"


def test_redirect_chain_beyond_cap(server):
    assert f.MAX_REDIRECTS == 5
    with pytest.raises(f.TooManyRedirects):
        f.fetch(f"{server}/redirect/6")


def test_body_cap(server, monkeypatch):
    monkeypatch.setattr(f, "MAX_BODY", 64 * 1024)
    with pytest.raises(f.TooLarge):
        f.fetch(f"{server}/big")


def test_non_2xx_is_returned_not_raised(server):
    result = f.fetch(f"{server}/nowhere")
    assert result.status == 404


def test_cli_warns_of_a_non_2xx_fetch(server, capsys):
    assert cli.main(["verify", f"{server}/missing"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"sdocheck: warning: HTTP 404 from {server}/missing"]
    assert json.loads(captured.out)["entries"]


@pytest.mark.parametrize("path, charset, codes", [
    ("/latin1", "ISO-8859-1", []),
    ("/latin1-quoted", "iso-8859-1", []),
    # no charset, or one no browser knows: the bytes are read as UTF-8
    ("/latin1-undeclared", None, ["E401"]),
    ("/latin1-unknown-label", "no-such", ["E401"]),
])
def test_http_charset_decodes_the_page(server, capsysbinary, path, charset,
                                       codes):
    assert f.fetch(f"{server}{path}").charset == charset
    assert cli.main(["validate", f"{server}{path}"]) == 0
    report = json.loads(capsysbinary.readouterr().out)
    assert [(e["code"], e["path"]) for e in report["entries"]] == [
        (code, "$0.name") for code in codes]


def test_refused_connection_is_a_network_error(monkeypatch):
    monkeypatch.setattr(f, "TIMEOUT", 2)
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(f.NetworkError):
        f.fetch(f"http://127.0.0.1:{port}/")


def test_relative_url_is_rejected():
    with pytest.raises(ValueError):
        f.fetch("ftp://example.com/x")
