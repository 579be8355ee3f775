import json
import os
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from sdocheck import cli, fetch as f

SRC = str(Path(__file__).parent.parent / "src")
# a windows-1252 page that names its encoding in no <meta>: its text says
# "Caf\xe9 M\xfcller" in single bytes, its JSON-LD in JSON escapes
LATIN1_PAGE = (Path(__file__).parent / "fixtures" / "probes"
               / "latin1_meta_charset.html").read_bytes().replace(
                   b'<meta charset="iso-8859-1">', b"")
CONTENT_TYPES = {"/latin1": "text/html; charset=ISO-8859-1",
                 "/latin1-quoted": 'text/html;charset="iso-8859-1"',
                 "/latin1-undeclared": "text/html",
                 "/latin1-unknown-label": "text/html; charset=no-such"}


# redirects by their headers, each answered with a 302
HOPS = {"/loop": [("Location", "/loop")],
        "/to-ftp": [("Location", "ftp://127.0.0.1/x")],
        "/to-file": [("Location", "file:///etc/hostname")],
        "/no-location": [],
        "/set-cookie": [("Set-Cookie", "consent=yes; Path=/"),
                        ("Location", "/need-cookie")],
        # a raw UTF-8 header, which http.server would write as Latin-1
        "/raw-location": [("Location",
                           "/echo/a b/caf\xe9".encode().decode("latin-1"))]}
STATUSES = {"/not-modified": 304, "/error": 500}


class Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def send_body(self, status, body):
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

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
        elif self.path.startswith("/echo"):
            headers = {k.lower(): v for k, v in self.headers.items()}
            self.send_body(200, json.dumps(
                {"path": self.path, "headers": headers}).encode())
        elif self.path in HOPS:
            self.send_response(302)
            for name, value in HOPS[self.path]:
                self.send_header(name, value)
            self.send_header("Content-Length", "0")
            self.end_headers()
        elif self.path in STATUSES:
            self.send_response(STATUSES[self.path])
            self.send_header("Content-Length", "0")
            self.end_headers()
        elif self.path == "/need-cookie":
            consented = "consent=yes" in self.headers.get("Cookie", "")
            self.send_body(200 if consented else 403, b"consent")
        elif self.path == "/garbage":
            self.wfile.write(b"NOT HTTP AT ALL\r\n\r\n")
        elif self.path == "/cut-short":
            self.send_response(200)
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b"ten bytes.")
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
    httpd.server_close()


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


@pytest.mark.parametrize("scheme", ["HTTP", "Http"])
def test_a_scheme_is_read_in_any_case(server, scheme):
    result = f.fetch(server.replace("http", scheme, 1) + "/ok")
    assert (result.status, result.final_url) == (200, f"{server}/ok")


def test_relative_url_is_rejected():
    with pytest.raises(ValueError):
        f.fetch("ftp://example.com/x")


@pytest.fixture
def resolve_to_loopback(monkeypatch):
    """Every host name resolves to 127.0.0.1, so no name leaves the
    machine."""
    getaddrinfo = socket.getaddrinfo
    monkeypatch.setattr(socket, "getaddrinfo", lambda host, *rest:
                        getaddrinfo("127.0.0.1", *rest))


def echoed(result):
    return json.loads(result.body)


class TestRedirects:
    def test_exactly_the_cap_succeeds(self, server):
        result = f.fetch(f"{server}/redirect/{f.MAX_REDIRECTS}")
        assert (result.status, result.final_url) == (200, f"{server}/ok")

    def test_a_location_without_a_fragment_keeps_the_last(self, server):
        result = f.fetch(f"{server}/redirect/2#top")
        assert result.final_url == f"{server}/ok#top"

    def test_a_loop_is_too_many_redirects(self, server):
        with pytest.raises(f.TooManyRedirects):
            f.fetch(f"{server}/loop")

    @pytest.mark.parametrize("path", ["/to-ftp", "/to-file"])
    def test_a_redirect_off_http_is_a_network_error(self, server, path):
        with pytest.raises(f.NetworkError):
            f.fetch(f"{server}{path}")

    @pytest.mark.parametrize("path, status", [
        ("/no-location", 302), ("/not-modified", 304), ("/error", 500)])
    def test_a_non_2xx_status_is_returned(self, server, path, status):
        result = f.fetch(f"{server}{path}")
        assert (result.status, result.final_url) == (status, f"{server}{path}")

    def test_a_cookie_set_by_a_hop_is_sent_on_the_next(self, server):
        result = f.fetch(f"{server}/set-cookie")
        assert (result.status, result.final_url) == (
            200, f"{server}/need-cookie")


class TestUrlPreparation:
    def test_spaces_and_non_ascii_are_percent_encoded(self, server):
        result = f.fetch(f"{server}/echo/caf\xe9 page?q=\xe9 x#frag")
        assert echoed(result)["path"] == (
            "/echo/caf%C3%A9%20page?q=%C3%A9%20x")
        assert result.final_url == (
            f"{server}/echo/caf%C3%A9%20page?q=%C3%A9%20x#frag")

    def test_a_raw_utf8_location_is_percent_encoded(self, server):
        result = f.fetch(f"{server}/raw-location")
        assert result.final_url == f"{server}/echo/a%20b/caf%C3%A9"
        assert echoed(result)["path"] == "/echo/a%20b/caf%C3%A9"

    def test_the_host_is_lower_cased(self, server, resolve_to_loopback):
        upper = server.replace("127.0.0.1", "LOCALHOST")
        result = f.fetch(f"{upper}/echo")
        assert result.final_url == server.replace(
            "127.0.0.1", "localhost") + "/echo"

    def test_an_empty_path_is_a_slash(self, server):
        assert f.fetch(server).final_url == f"{server}/"

    def test_userinfo_is_basic_authorization(self, server):
        port = server.rsplit(":", 1)[1]
        result = f.fetch(f"http://user:pw@127.0.0.1:{port}/echo")
        headers = echoed(result)["headers"]
        assert headers["authorization"] == "Basic dXNlcjpwdw=="
        assert headers["host"] == f"127.0.0.1:{port}"

    def test_an_idn_host_is_sent_in_punycode(self, server,
                                             resolve_to_loopback):
        port = server.rsplit(":", 1)[1]
        result = f.fetch(f"http://b\xfccher.example:{port}/echo/\xfc")
        assert result.final_url == (
            f"http://xn--bcher-kva.example:{port}/echo/%C3%BC")
        assert echoed(result)["headers"]["host"] == (
            f"xn--bcher-kva.example:{port}")

    def test_the_user_agent_is_sent(self, server):
        headers = echoed(f.fetch(f"{server}/echo"))["headers"]
        assert headers["user-agent"] == f.USER_AGENT


def test_an_overlong_host_label_is_a_fetch_failure(monkeypatch, capsys):
    def no_lookup(*args):
        raise AssertionError("the URL should fail before any lookup")

    monkeypatch.setattr(socket, "getaddrinfo", no_lookup)
    assert cli.main(["verify", "http://" + "a" * 300 + "/"]) == 2
    assert capsys.readouterr().err.startswith("sdocheck: fetch failed: ")


def test_a_fetch_needs_no_third_party_module(server):
    # None in sys.modules makes an import of that name fail
    probe = ("import sys\n"
             "sys.modules['requests'] = sys.modules['urllib3'] = None\n"
             "from sdocheck import fetch\n"
             f"print(fetch.fetch({server + '/ok'!r}).status)\n")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            timeout=60, env={**os.environ, "PYTHONPATH": SRC})
    assert result.stdout.decode().strip() == "200", result.stderr


@pytest.fixture
def silent_port(monkeypatch):
    """The port of a socket that listens and never answers."""
    monkeypatch.setattr(f, "TIMEOUT", 0.5)
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        yield listener.getsockname()[1]


@pytest.mark.parametrize("url", [
    "{server}/garbage", "{server}/cut-short", "{silent}", "{tls}/ok",
    "http://[::1/", "http://127.0.0.1:abc/", "http:///nohost"])
def test_a_broken_exchange_is_a_network_error(server, silent_port, url):
    url = url.format(server=server, silent=f"http://127.0.0.1:{silent_port}/",
                     tls=server.replace("http:", "https:"))
    with pytest.raises(f.NetworkError):
        f.fetch(url)
