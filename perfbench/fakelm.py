"""Fake LM server for the wire workload, run as its own process.

It speaks the coderag wire protocol over HTTP/1.1 with ``Content-Length``
and keep-alive, so a client that reuses connections can show its gain.
Replies follow the in-process stub semantics (``StubProbe``,
``StubEmbedder``, ``OverlapPicker``, ``EchoGenerator``), which lets the
benchmark require every wire op to be byte-identical to an in-process
reference run.

Each request takes a deterministic model time before the reply is sent:
a fixed base per request type, plus a per-input-token term and a
per-output-token term (see :func:`injected_delay_s`).  The server's own
work on a request, from reading its request line on, counts towards that
time, so mainly the transport and the client's work lie outside it.

Run standalone::

    python3 perfbench/fakelm.py

It binds 127.0.0.1 on a free port, prints ``PORT <n>`` on stdout, and
exits when its standard input closes (so it never outlives its parent).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

# (base ms, ms per input token, ms per output token) per request type.
# Chosen so that injected model time is about two thirds of a wire-small
# op and the rest is our own transport and CPU: host-speed drift then
# moves wire latency by a third as much as CPU-bound latency.  Embeds stay
# cheap, so that wire-small's set-up measures embedding transport.
DELAY_MODEL = {
    "score": (0.9, 0.006, 0.06),
    "chat": (2.0, 0.0045, 0.03),
    "embed": (0.2, 0.001, 0.0),
    "generate": (4.5, 0.003, 0.075),
}
EMBED_DIM = 64
PROTOCOL_VERSION = 1


def injected_delay_s(payload: dict) -> float:
    """Model time the server sleeps for one request.

    Input tokens are counted with coderag's approximate counter over the
    prompt (or the embed text); output tokens are the requested
    ``max_tokens`` (0 for embeds).
    """
    from coderag.clients import approx_token_count

    base, per_in, per_out = DELAY_MODEL[payload["type"]]
    text = payload.get("prompt", payload.get("text", ""))
    out_tokens = 0 if payload["type"] == "embed" else int(payload.get("max_tokens", 0))
    return (base + per_in * approx_token_count(text) + per_out * out_tokens) / 1000.0


def split_rerank_prompt(template: str, prompt: str) -> tuple[str, list[str]]:
    """Recover (query, window texts) from a prompt rendered by
    ``coderag.wire.render_rerank_prompt`` with ``template``."""
    head, rest = template.split("{query}")
    mid, tail = rest.split("{snippets}")
    if not (prompt.startswith(head) and prompt.endswith(tail)):
        raise ValueError("prompt does not follow the rerank template")
    body = prompt[len(head) : len(prompt) - len(tail)]
    query, numbered = body.split(mid, 1)
    texts: list[str] = []
    index = 1
    while numbered:
        marker = f"[{index}]\n"
        if not numbered.startswith(marker):
            raise ValueError(f"snippet {index} missing")
        numbered = numbered[len(marker) :]
        nxt = numbered.find(f"\n\n[{index + 1}]\n")
        if nxt < 0:
            texts.append(numbered)
            break
        texts.append(numbered[:nxt])
        numbered = numbered[nxt + 2 :]
        index += 1
    return query, texts


class StubModel:
    """Answers each request type the way the in-process stubs would."""

    def __init__(self) -> None:
        from coderag.clients import EchoGenerator, OverlapPicker, StubEmbedder, StubProbe
        from coderag.wire import default_rerank_template

        self.probe = StubProbe()
        self.embedder = StubEmbedder(dim=EMBED_DIM)
        self.picker = OverlapPicker()
        self.generator = EchoGenerator()
        self.template = default_rerank_template()

    def reply(self, payload: dict) -> dict:
        kind = payload["type"]
        out: dict = {"version": PROTOCOL_VERSION}
        if kind == "score":
            steps = max(1, int(payload["max_tokens"]))
            score = self.probe.greedy_score(payload["prompt"], steps)
            out["token_logprobs"] = [score] + [0.0] * (steps - 1)
        elif kind == "embed":
            out["embedding"] = self.embedder.embed(payload["text"])
        elif kind == "chat":
            query, window = split_rerank_prompt(self.template, payload["prompt"])
            out["text"] = f"[C] = {self.picker.pick(query, window) + 1}"
        elif kind == "generate":
            out["text"] = self.generator.generate(payload["prompt"], None)
        else:
            raise ValueError(f"unknown request type {kind!r}")
        return out


def make_server(model: StubModel) -> ThreadingHTTPServer:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive when the client allows it

        def log_message(self, *args) -> None:
            pass

        def parse_request(self) -> bool:
            self.arrived = time.perf_counter()  # the request line has been read
            return super().parse_request()

        def do_POST(self) -> None:
            length = int(self.headers.get("Content-Length", "0"))
            try:
                payload = json.loads(self.rfile.read(length))
                delay = injected_delay_s(payload)
                reply = model.reply(payload)
            except (ValueError, KeyError, TypeError) as exc:
                self._send(400, {"error": str(exc)})
                return
            remaining = delay - (time.perf_counter() - self.arrived)
            if remaining > 0:
                time.sleep(remaining)
            self._send(200, reply)

        def _send(self, status: int, obj: dict) -> None:
            body = json.dumps(obj).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    server = make_server(StubModel())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    sys.stdin.read()  # parent closed our stdin: time to go
    server.shutdown()
    server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
