"""Bounded, polite page retrieval.

A thin wrapper over requests that enforces the redirect and body-size caps
and maps transport failures onto the package's exception types.  No cookie
persistence, no JavaScript: the served HTML is what gets audited.
"""

from __future__ import annotations

import re
from typing import NamedTuple

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


def fetch(url: str) -> FetchResult:
    """Retrieve one absolute http(s) URL.

    Redirects are followed up to the cap and the final URL is reported (it
    becomes the base URL downstream).  A non-2xx final status is returned,
    not raised; transport failures raise NetworkError / TooLarge /
    TooManyRedirects.
    """
    import requests  # imported here so that file inputs skip its import cost

    if not url.startswith(("http://", "https://")):
        raise ValueError(f"not an absolute http(s) URL: {url!r}")
    session = requests.Session()
    session.max_redirects = MAX_REDIRECTS
    try:
        response = session.get(
            url, timeout=TIMEOUT, stream=True,
            headers={"User-Agent": USER_AGENT})
        try:
            body = bytearray()
            for chunk in response.iter_content(chunk_size=65536):
                body += chunk
                if len(body) > MAX_BODY:
                    raise TooLarge(
                        f"body exceeds {MAX_BODY} bytes: {url}")
            return FetchResult(
                final_url=response.url,
                body=bytes(body),
                status=response.status_code,
                content_type=response.headers.get("Content-Type", ""),
            )
        finally:
            response.close()
    except requests.TooManyRedirects as exc:
        raise TooManyRedirects(str(exc)) from exc
    except requests.RequestException as exc:
        raise NetworkError(str(exc)) from exc
    finally:
        session.close()
