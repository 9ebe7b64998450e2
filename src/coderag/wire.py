"""The single LM wire protocol shared by probe, embedder, picker and
generator clients.

One endpoint, JSON over HTTP POST.  Request::

    {"version": 1, "type": "generate"|"score"|"embed"|"chat",
     "prompt" | "text": str, "max_tokens": int, "temperature": float,
     "want_logprobs": bool}

Response::

    {"version": 1, "text": str, "token_logprobs": [float], "embedding": [float]}

Responses carry only the fields the request type needs; bit-exactness
across servers is not required.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import threading
import urllib.parse
from importlib import resources
from typing import Any, Callable, Sequence

from .errors import (
    CodeRagError,
    EmbedderUnavailable,
    InvalidPickReply,
    PickerUnavailable,
    ProbeUnavailable,
)
from .fanout import FANOUT_WIDTH

PROTOCOL_VERSION = 1
DEFAULT_TIMEOUT_SECONDS = 60.0
PICK_MAX_TOKENS = 16  # a pick reply is one short selection like "[C] = 2"

_PICK_RE = re.compile(r"\[C\]\s*=\s*(\d+)")
_INT_RE = re.compile(r"\b(\d+)\b")

# Wire requests in flight in this process, whichever thread sends them:
# fan-out and the task threads of ``coderag evaluate`` together stay
# within the fan-out width.
_IN_FLIGHT = threading.BoundedSemaphore(FANOUT_WIDTH)


class WireError(CodeRagError):
    """Transport- or schema-level failure talking to the LM endpoint."""


def default_rerank_template() -> str:
    return (
        resources.files("coderag.data").joinpath("rerank_prompt.txt").read_text("utf-8")
    )


def render_rerank_prompt(template: str, query_text: str, window: Sequence[str]) -> str:
    """Fill the picker template; snippets are numbered from 1.

    Plain substring replacement, not str.format: code snippets are full of
    braces.
    """
    numbered = "\n\n".join(f"[{i + 1}]\n{text}" for i, text in enumerate(window))
    return template.replace("{query}", query_text).replace("{snippets}", numbered)


def parse_pick_reply(text: str, window_size: int) -> int:
    """0-based window index from a picker reply like ``[C] = 2``.

    Falls back to the first bare integer; anything else (or an
    out-of-window number) raises :class:`InvalidPickReply`.
    """
    match = _PICK_RE.search(text) or _INT_RE.search(text)
    if match is None:
        raise InvalidPickReply(f"no selection in reply: {text!r}")
    number = int(match.group(1))
    if not 1 <= number <= window_size:
        raise InvalidPickReply(f"selection {number} outside window of {window_size}")
    return number - 1


# Each thread keeps one open connection per endpoint, so a serial chain
# of calls (the tournament's leaf layer, the extraction replays) pays for
# one TCP handshake, not one per call.
_CONNECTIONS = threading.local()

# A server that writes its headers and its body as two sends with Nagle
# on (Python's http.server does) holds the body until the first send is
# acknowledged; on a reused connection the client's delayed ACK then
# stalls every call about 40 ms.  Linux clears the flag again on its
# own, so it is set before each reply is read.
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)


def _connection(endpoint: str, timeout: float) -> tuple[http.client.HTTPConnection, str]:
    """This thread's connection to ``endpoint`` and the request path."""
    conns = _CONNECTIONS.__dict__.setdefault("by_endpoint", {})
    entry = conns.get(endpoint)
    if entry is None:
        url = urllib.parse.urlsplit(endpoint)
        kinds = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}
        if url.scheme not in kinds or not url.hostname:
            raise WireError(f"endpoint {endpoint!r} is not an http(s) URL")
        path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        entry = conns[endpoint] = (kinds[url.scheme](url.hostname, url.port), path)
    conn, _ = entry
    conn.timeout = timeout
    if conn.sock is not None:
        conn.sock.settimeout(timeout)
    return entry


def _send(conn: http.client.HTTPConnection, path: str, body: bytes) -> http.client.HTTPResponse:
    """The reply's status line and headers; a bytes body goes out in the
    same send as the request headers."""
    conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
    if _QUICKACK is not None:
        conn.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
    return conn.getresponse()


def post_request(endpoint: str, payload: dict, timeout: float) -> dict:
    body = json.dumps(payload).encode("utf-8")
    conn, path = _connection(endpoint, timeout)
    try:
        try:
            resp = _send(conn, path, body)
        except (BrokenPipeError, ConnectionResetError):  # RemoteDisconnected included
            # Closed before a status line came back: most likely a
            # keep-alive connection the server had timed out.  One more
            # try, on a new connection.
            conn.close()
            resp = _send(conn, path, body)
        raw_bytes = resp.read()
    except (http.client.HTTPException, OSError) as exc:
        conn.close()
        raise WireError(f"endpoint {endpoint} unreachable: {exc}") from exc
    if resp.status != 200:
        raise WireError(f"endpoint {endpoint} returned HTTP {resp.status} {resp.reason}")
    raw = raw_bytes.decode("utf-8")
    try:
        reply = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise WireError(f"endpoint returned invalid JSON: {raw[:200]!r}") from exc
    if not isinstance(reply, dict):
        raise WireError(f"endpoint returned non-object reply: {raw[:200]!r}")
    return reply


class _WireClient:
    waits_on_io = True  # each call blocks on the endpoint; independent ones overlap
    unavailable: type[CodeRagError] = WireError  # the role's outage error

    def __init__(self, endpoint: str, timeout: float = DEFAULT_TIMEOUT_SECONDS):
        self.endpoint = endpoint
        self.timeout = timeout

    def _call(self, request_type: str, field: str, read: Callable[[Any], Any], **fields):
        """``read`` applied to the reply's ``field``.  A transport failure,
        a reply without the field, or a field ``read`` rejects raises the
        role's :attr:`unavailable` error."""
        payload = {"version": PROTOCOL_VERSION, "type": request_type, **fields}
        try:
            with _IN_FLIGHT:
                reply = post_request(self.endpoint, payload, self.timeout)
            return read(reply[field])
        except KeyError:
            raise self.unavailable(f"{request_type} reply missing {field!r}") from None
        except (WireError, TypeError, ValueError) as exc:
            raise self.unavailable(str(exc)) from exc


class WireProbeClient(_WireClient):
    """Summed per-step max log-probabilities via a ``score`` request."""

    unavailable = ProbeUnavailable

    def greedy_score(self, prompt: str, m: int) -> float:
        return self._call(
            "score", "token_logprobs", lambda logprobs: float(sum(float(v) for v in logprobs)),
            prompt=prompt, max_tokens=m, temperature=0.0, want_logprobs=True,
        )


class WireEmbedderClient(_WireClient):
    """Embeddings via an ``embed`` request; the dimension is learned from
    the first reply and every later reply must match it."""

    unavailable = EmbedderUnavailable

    def __init__(self, endpoint: str, timeout: float = DEFAULT_TIMEOUT_SECONDS):
        super().__init__(endpoint, timeout)
        self._dim: int | None = None
        self._dim_lock = threading.Lock()

    def embed(self, text: str) -> list[float]:
        vector = self._call("embed", "embedding", lambda v: [float(x) for x in v], text=text)
        with self._dim_lock:
            if self._dim is None:
                self._dim = len(vector)
            elif len(vector) != self._dim:
                raise EmbedderUnavailable(
                    f"dimension changed: got {len(vector)}, expected {self._dim}"
                )
        return vector

    def dimension(self) -> int:
        if self._dim is None:
            self.embed("")
        assert self._dim is not None
        return self._dim


class WirePickerClient(_WireClient):
    """BestFit picker over a ``chat`` request using the prompt template."""

    unavailable = PickerUnavailable

    def __init__(
        self,
        endpoint: str,
        template: str | None = None,
        timeout: float = DEFAULT_TIMEOUT_SECONDS,
    ):
        super().__init__(endpoint, timeout)
        self.template = template if template is not None else default_rerank_template()

    def pick(self, query_text: str, window: Sequence[str]) -> int:
        prompt = render_rerank_prompt(self.template, query_text, window)
        text = self._call(
            "chat", "text", str, prompt=prompt, max_tokens=PICK_MAX_TOKENS, temperature=0.0
        )
        return parse_pick_reply(text, len(window))


def _completion_text(text: object) -> str:
    if not isinstance(text, str):
        raise TypeError(f"generate reply text is {type(text).__name__}, not a string")
    return text


class WireGeneratorClient(_WireClient):
    """Completion generator. Exposes no tokenizer; prompt assembly falls
    back to the approximate counter with its safety margin.  A reply whose
    ``text`` is not a string raises :class:`WireError`."""

    def generate(self, prompt: str, config) -> str:
        return self._call(
            "generate", "text", _completion_text,
            prompt=prompt, max_tokens=config.max_new_tokens, temperature=config.temperature,
        )
