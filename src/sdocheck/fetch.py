"""Bounded, polite page retrieval on the standard library.

Enforces the redirect and body-size caps and maps transport failures onto
the package's exception types.  Redirects are followed here, so that only
http(s) targets are; a cookie set on one hop is sent on the next, and
proxies come from the environment.  No JavaScript: the served HTML is what
gets audited.
"""

from __future__ import annotations

import http.client
import re
from base64 import b64encode
from typing import NamedTuple
from urllib.parse import quote, unquote, urljoin, urlsplit, urlunsplit
from urllib.request import (HTTPCookieProcessor, HTTPHandler, HTTPSHandler,
                            OpenerDirector, ProxyHandler, Request)

TIMEOUT = 10.0  # seconds, to connect and between received bytes
MAX_REDIRECTS = 5
MAX_BODY = 8 * 1024 * 1024  # bytes
USER_AGENT = "sdocheck/0.1 (annotation verification tool)"


class FetchError(Exception):
    pass


class NetworkError(FetchError):
    """Timeout, DNS failure, TLS failure or refused connection."""


class TooLarge(FetchError):
    """The response body exceeded ``MAX_BODY``."""


class TooManyRedirects(FetchError):
    """The redirect chain exceeded ``MAX_REDIRECTS``."""


_CHARSET_PARAM_RE = re.compile(r';\s*charset\s*=\s*"?([^";\s]+)',
                               re.IGNORECASE)
_SAFE = "!#$%&'()*+,/:;=?@[]~"  # kept as written; an escape stays as well


class FetchResult(NamedTuple):
    final_url: str
    body: bytes
    status: int
    content_type: str

    @property
    def charset(self) -> str | None:
        """The ``charset`` parameter of the Content-Type header, or None."""
        match = _CHARSET_PARAM_RE.search(self.content_type)
        return match.group(1) if match else None


def _prepared(url: str) -> tuple[str, Request]:
    """``url`` as it is reported, and the request for it: the host
    lower-cased and IDNA-encoded, an empty path ``/``, each character but
    ``_SAFE`` percent-encoded as UTF-8, and userinfo sent as Basic auth."""
    parts = urlsplit(url)
    host = (parts.hostname or "").encode("idna").decode("ascii")
    if parts.scheme not in ("http", "https") or not host:
        raise NetworkError(f"not an http(s) URL with a host: {url}")
    host = f"[{host}]" if ":" in host else host
    netloc = host if parts.port is None else f"{host}:{parts.port}"
    headers = {"User-Agent": USER_AGENT}
    if parts.password is not None:
        credentials = f"{unquote(parts.username)}:{unquote(parts.password)}"
        headers["Authorization"] = "Basic " + b64encode(
            credentials.encode("latin-1")).decode()
    userinfo, at, _ = parts.netloc.rpartition("@")
    rest = quote(urlunsplit(("", "", parts.path or "/", parts.query,
                             parts.fragment)), safe=_SAFE)
    request = Request(f"{parts.scheme}://{netloc}{rest}", headers=headers)
    userinfo = quote(userinfo + at, safe=_SAFE)
    return f"{parts.scheme}://{userinfo}{netloc}{rest}", request


def fetch(url: str) -> FetchResult:
    """Retrieve one absolute http(s) URL.

    Redirects are followed up to the cap, a Location without a fragment
    keeping the one before, and the final URL (the base URL downstream) is
    reported.  A non-2xx final status is returned, not raised; transport
    failures raise NetworkError / TooLarge / TooManyRedirects.
    """
    if not url.lower().startswith(("http://", "https://")):
        raise ValueError(f"not an absolute http(s) URL: {url!r}")
    opener = OpenerDirector()  # no error processor: every status is returned
    for handler in (ProxyHandler(), HTTPCookieProcessor(), HTTPHandler(),
                    HTTPSHandler()):
        opener.add_handler(handler)
    target = url
    try:
        for _ in range(MAX_REDIRECTS + 1):
            target, request = _prepared(target)
            with opener.open(request, timeout=TIMEOUT) as response:
                location = response.headers.get("Location")
                if location is None or response.status not in (
                        301, 302, 303, 307, 308):
                    body = response.read(MAX_BODY + 1)
                    if len(body) > MAX_BODY:
                        raise TooLarge(f"body exceeds {MAX_BODY} bytes: {url}")
                    if response.length:  # closed before its Content-Length
                        raise http.client.IncompleteRead(body, response.length)
                    return FetchResult(
                        target, body, response.status,
                        response.headers.get("Content-Type", ""))
            location = location.encode("latin-1").decode()  # UTF-8 bytes
            fragment = urlsplit(target).fragment
            target = urljoin(target, location)
            if fragment and not urlsplit(target).fragment:
                target = f"{target.partition('#')[0]}#{fragment}"
    except (OSError, ValueError, http.client.HTTPException) as exc:
        raise NetworkError(str(exc)) from exc
    raise TooManyRedirects(f"Exceeded {MAX_REDIRECTS} redirects.")
