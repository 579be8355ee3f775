import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from sdocheck import cli, fetch as f


class Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_GET(self):
        if self.path == "/ok":
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
    with pytest.raises(f.TooManyRedirects):
        f.fetch(f"{server}/redirect/6", f.FetchConfig(max_redirects=5))


def test_body_cap(server):
    with pytest.raises(f.TooLarge):
        f.fetch(f"{server}/big", f.FetchConfig(max_body=64 * 1024))


def test_non_2xx_is_returned_not_raised(server):
    result = f.fetch(f"{server}/nowhere")
    assert result.status == 404


def test_cli_warns_of_a_non_2xx_fetch(server, capsys):
    assert cli.main(["verify", f"{server}/missing"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"sdocheck: warning: HTTP 404 from {server}/missing"]
    assert json.loads(captured.out)["entries"]


def test_refused_connection_is_a_network_error():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(f.NetworkError):
        f.fetch(f"http://127.0.0.1:{port}/", f.FetchConfig(timeout=2))


def test_relative_url_is_rejected():
    with pytest.raises(ValueError):
        f.fetch("ftp://example.com/x")
