"""The LM wire protocol: request/response schema and all four clients,
exercised against an in-process HTTP server."""

from __future__ import annotations

import json
import re
import socket
import threading
import time
import zlib
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from coderag.cli import main
from coderag.clients import StubEmbedder, StubProbe
from coderag.config import RunConfig, make_clients
from coderag.errors import (
    EmbedderUnavailable,
    InvalidPickReply,
    PickerUnavailable,
    ProbeUnavailable,
)
from coderag.evaluation import evaluate, load_tasks, save_report
from coderag.fanout import FANOUT_WIDTH
from coderag.pipeline import RepoIndex, complete
from coderag.querybuild import construct_query
from coderag.rerank import heap_rerank
from coderag.wire import (
    PROTOCOL_VERSION,
    WireEmbedderClient,
    WireError,
    WireGeneratorClient,
    WirePickerClient,
    WireProbeClient,
    default_rerank_template,
    parse_pick_reply,
    render_rerank_prompt,
)

from .conftest import REPO10_FILES, write_repo


def send_json(handler: BaseHTTPRequestHandler, status: int, obj: dict) -> None:
    body = json.dumps(obj).encode("utf-8")
    handler.send_response(status)
    handler.send_header("Content-Type", "application/json")
    handler.send_header("Content-Length", str(len(body)))
    handler.end_headers()
    handler.wfile.write(body)


class StubServer:
    """Deterministic protocol server; records every request payload and
    counts the connections it accepts.  It speaks HTTP/1.0, so it closes
    each connection after its reply."""

    protocol = "HTTP/1.0"

    def __init__(self):
        self.requests: list[dict] = []
        self.accepted: list[socket.socket] = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = outer.protocol

            def log_message(self, *args):
                pass

            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                payload = json.loads(self.rfile.read(length))
                outer.requests.append(payload)
                outer.answer(self, payload)

        class Server(ThreadingHTTPServer):
            def process_request(self, request, client_address):
                outer.accepted.append(request)
                super().process_request(request, client_address)

        self.server = Server(("127.0.0.1", 0), Handler)
        # A short poll, because close() waits for the next one.
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self.thread.start()

    @property
    def connections(self) -> int:
        return len(self.accepted)

    def answer(self, handler: BaseHTTPRequestHandler, payload: dict) -> None:
        send_json(handler, 200, self.respond(payload))

    def drop_connections(self) -> None:
        """Close every accepted connection from the server's side, as a
        server does with idle keep-alive connections."""
        for sock in self.accepted:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed
                pass

    @property
    def endpoint(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}/"

    def close(self):
        self.server.shutdown()
        self.drop_connections()  # ends keep-alive handlers, so that close does not wait
        self.server.server_close()

    def respond(self, payload: dict) -> dict:
        kind = payload["type"]
        if kind == "score":
            return {
                "version": PROTOCOL_VERSION,
                "token_logprobs": [-1.5] * payload["max_tokens"],
            }
        if kind == "embed":
            return {"version": PROTOCOL_VERSION, "embedding": [0.5, 0.5, 0.0, 0.0]}
        if kind == "chat":
            if "GARBAGE" in payload["prompt"]:
                return {"version": PROTOCOL_VERSION, "text": "no clue"}
            return {"version": PROTOCOL_VERSION, "text": "The best is [C] = 2"}
        if kind == "generate":
            return {
                "version": PROTOCOL_VERSION,
                "text": f"gen<{payload['max_tokens']}@{payload['temperature']}>",
            }
        return {}


class ModelServer(StubServer):
    """Replies that depend on the request's content, each after a short
    wait; records the most requests it was handling at once."""

    def __init__(self):
        self.lock = threading.Lock()
        self.in_flight = self.peak = 0
        super().__init__()

    def respond(self, payload: dict) -> dict:
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(0.003)
            return {"version": PROTOCOL_VERSION, **self._answer(payload)}
        finally:
            with self.lock:
                self.in_flight -= 1

    @staticmethod
    def _answer(payload: dict) -> dict:
        kind = payload["type"]
        if kind == "score":
            return {"token_logprobs": [StubProbe().greedy_score(payload["prompt"], 1)]}
        if kind == "embed":
            return {"embedding": StubEmbedder(dim=8).embed(payload["text"])}
        prompt = payload["prompt"]
        if kind == "chat":
            window = len(re.findall(r"^\[\d+\]$", prompt, re.M))
            return {"text": f"[C] = {1 + zlib.crc32(prompt.encode()) % window}"}
        lines = prompt.split("\n")
        return {"text": lines[0] + lines[-1]}


@pytest.fixture
def server():
    srv = StubServer()
    yield srv
    srv.close()


def test_probe_client_sums_logprobs(server):
    probe = WireProbeClient(server.endpoint)
    assert probe.greedy_score("x = 1", m=8) == pytest.approx(-12.0)
    request = server.requests[-1]
    assert request["type"] == "score"
    assert request["version"] == PROTOCOL_VERSION
    assert request["max_tokens"] == 8
    assert request["temperature"] == 0.0
    assert request["want_logprobs"] is True
    assert request["prompt"] == "x = 1"


def test_embedder_client_and_dimension(server):
    embedder = WireEmbedderClient(server.endpoint)
    assert embedder.dimension() == 4
    assert embedder.embed("code") == [0.5, 0.5, 0.0, 0.0]
    assert server.requests[-1]["type"] == "embed"
    assert server.requests[-1]["text"] == "code"


def test_picker_client_parses_selection(server):
    picker = WirePickerClient(server.endpoint)
    assert picker.pick("the query", ["aaa", "bbb", "ccc"]) == 1
    request = server.requests[-1]
    assert list(request) == ["version", "type", "prompt", "max_tokens", "temperature"]
    assert (request["type"], request["max_tokens"], request["temperature"]) == ("chat", 16, 0.0)
    prompt = request["prompt"]
    assert "the query" in prompt
    assert "[1]\naaa" in prompt and "[3]\nccc" in prompt


def test_picker_client_invalid_reply_raises(server):
    picker = WirePickerClient(server.endpoint)
    with pytest.raises(InvalidPickReply):
        picker.pick("GARBAGE query", ["aaa", "bbb"])


def test_generator_client(server):
    generator = WireGeneratorClient(server.endpoint)
    out = generator.generate("prompt", RunConfig(max_new_tokens=48, temperature=0.0))
    assert out == "gen<48@0.0>"
    assert server.requests[-1]["type"] == "generate"


class FixedReplyServer(StubServer):
    """Answers every request with ``reply`` (plus the protocol version)
    under HTTP ``status``."""

    def __init__(self, reply: dict, status: int = 200):
        self.reply = reply
        self.status = status
        super().__init__()

    def answer(self, handler: BaseHTTPRequestHandler, payload: dict) -> None:
        send_json(handler, self.status, {"version": PROTOCOL_VERSION, **self.reply})


@dataclass(frozen=True)
class ServerError:
    """A reply that would be valid, sent with HTTP 500."""

    reply: dict


ROLE_CALLS = {
    "probe": (WireProbeClient, lambda c: c.greedy_score("x", 2)),
    "embedder": (WireEmbedderClient, lambda c: c.embed("x")),
    "picker": (WirePickerClient, lambda c: c.pick("q", ["a", "b"])),
    "generator": (WireGeneratorClient, lambda c: c.generate("p", RunConfig())),
}

DEAD = None  # nothing listens

# role -> the error each failed call raises, by what the endpoint did
FAILED_CALLS = {
    "probe": [
        ("dead endpoint", DEAD, ProbeUnavailable),
        ("no field", {}, ProbeUnavailable),
        ("wrong type", {"token_logprobs": 5}, ProbeUnavailable),
        ("wrong item type", {"token_logprobs": ["lots"]}, ProbeUnavailable),
        ("HTTP 500", ServerError({"token_logprobs": [-1.0]}), ProbeUnavailable),
    ],
    "embedder": [
        ("dead endpoint", DEAD, EmbedderUnavailable),
        ("no field", {}, EmbedderUnavailable),
        ("wrong type", {"embedding": 0.5}, EmbedderUnavailable),
        ("wrong item type", {"embedding": ["x"]}, EmbedderUnavailable),
        ("HTTP 500", ServerError({"embedding": [0.5]}), EmbedderUnavailable),
    ],
    "picker": [
        ("dead endpoint", DEAD, PickerUnavailable),
        ("no field", {}, PickerUnavailable),
        # A text field is read with str(), so a reply of another type is
        # text that names no snippet: an invalid pick, not an outage.
        ("wrong type", {"text": None}, InvalidPickReply),
        ("HTTP 500", ServerError({"text": "[C] = 1"}), PickerUnavailable),
    ],
    "generator": [
        ("dead endpoint", DEAD, WireError),
        ("no field", {}, WireError),
        # A completion must be text: null is not the completion "None".
        ("wrong type", {"text": None}, WireError),
        ("wrong item type", {"text": ["x"]}, WireError),
        ("HTTP 500", ServerError({"text": "x"}), WireError),
    ],
}


@pytest.mark.parametrize(
    "role,reply,error",
    [
        pytest.param(role, reply, error, id=f"{role}-{case}")
        for role, cases in FAILED_CALLS.items()
        for case, reply, error in cases
    ],
)
def test_failed_call_raises_its_role_error(role, reply, error):
    client_class, call = ROLE_CALLS[role]
    if reply is DEAD:
        with pytest.raises(error):
            call(client_class("http://127.0.0.1:9/", timeout=0.2))  # discard port
        return
    if isinstance(reply, ServerError):
        srv, match = FixedReplyServer(reply.reply, status=500), "HTTP 500"
    else:
        srv, match = FixedReplyServer(reply), None
    try:
        with pytest.raises(error, match=match):
            call(client_class(srv.endpoint))
    finally:
        srv.close()


@pytest.mark.parametrize("role", ROLE_CALLS)
def test_malformed_endpoint_raises_the_role_error(role):
    client_class, call = ROLE_CALLS[role]
    _, _, dead_endpoint_error = FAILED_CALLS[role][0]
    with pytest.raises(dead_endpoint_error):
        call(client_class("not-a-url"))


def test_picker_reply_of_another_type_falls_back_in_the_tournament():
    srv = FixedReplyServer({"text": None})
    try:
        outcome = heap_rerank(["a", "b"], ["x", "y"], "q", WirePickerClient(srv.endpoint), 1, 2)
    finally:
        srv.close()
    assert not outcome.degraded
    assert outcome.picker_calls == 2  # one retry, then window position 0
    assert [(e.chosen_id, e.fallback) for e in outcome.trace] == [("a", True)]


# --- one connection per thread and endpoint -------------------------------------


class KeepAliveServer(StubServer):
    """Keeps each connection open after its reply (HTTP/1.1)."""

    protocol = "HTTP/1.1"


class DroppingServer(StubServer):
    """Reads each request, then closes the connection without a reply."""

    def answer(self, handler: BaseHTTPRequestHandler, payload: dict) -> None:
        handler.close_connection = True


@pytest.fixture
def keep_alive_server():
    srv = KeepAliveServer()
    yield srv
    srv.close()


def test_sequential_calls_share_one_connection(keep_alive_server):
    embedder = WireEmbedderClient(keep_alive_server.endpoint)
    for i in range(20):
        assert embedder.embed(f"text {i}") == [0.5, 0.5, 0.0, 0.0]
    assert len(keep_alive_server.requests) == 20
    assert keep_alive_server.connections == 1


def test_fanned_out_probe_opens_a_connection_per_thread_at_most(keep_alive_server):
    probe = WireProbeClient(keep_alive_server.endpoint)
    text = "\n".join(f"x{i} = {i}" for i in range(13))  # 12 chunks before the target
    for _ in range(2):
        construct_query(text, f=1, m=2, g=1, probe=probe)
    assert len(keep_alive_server.requests) == 24
    assert keep_alive_server.connections <= FANOUT_WIDTH + 1


@pytest.mark.parametrize("role", ROLE_CALLS)
def test_connection_the_server_closed_is_reopened_once(keep_alive_server, role):
    client_class, call = ROLE_CALLS[role]
    client = client_class(keep_alive_server.endpoint)
    call(client)
    keep_alive_server.drop_connections()
    call(client)
    assert len(keep_alive_server.requests) == 2
    assert keep_alive_server.connections == 2


@pytest.mark.parametrize("role", ROLE_CALLS)
def test_server_that_drops_every_connection_fails_after_two_attempts(role):
    client_class, call = ROLE_CALLS[role]
    _, _, dead_endpoint_error = FAILED_CALLS[role][0]
    srv = DroppingServer()
    try:
        with pytest.raises(dead_endpoint_error):
            call(client_class(srv.endpoint))
    finally:
        srv.close()
    assert len(srv.requests) == 2
    assert srv.connections == 2


# --- template & reply parsing -------------------------------------------------


def test_render_template_survives_braces():
    template = default_rerank_template()
    prompt = render_rerank_prompt(template, "find {x}", ["def f(): return {}", "y = {1: 2}"])
    assert "find {x}" in prompt
    assert "[1]\ndef f(): return {}" in prompt
    assert "[2]\ny = {1: 2}" in prompt
    assert "[C] = <number>" in prompt


def test_parse_pick_reply_cases():
    assert parse_pick_reply("[C] = 2", 3) == 1
    assert parse_pick_reply("[C]=1", 3) == 0
    assert parse_pick_reply("I choose 3 because...", 3) == 2
    with pytest.raises(InvalidPickReply):
        parse_pick_reply("[C] = 0", 3)  # selections are 1-based
    with pytest.raises(InvalidPickReply):
        parse_pick_reply("[C] = 9", 3)
    with pytest.raises(InvalidPickReply):
        parse_pick_reply("none of them", 3)


# --- many threads, one cap ------------------------------------------------------


def test_evaluate_matches_one_task_at_a_time_and_caps_requests_in_flight(tmp_path, capsys):
    repo = write_repo(tmp_path / "repo", REPO10_FILES)
    body = "\n".join(f"rate_{i} = DEFAULTS['rate'] * {i}" for i in range(18))
    dataset = tmp_path / "tasks.jsonl"
    dataset.write_text("".join(
        json.dumps({
            "task_id": f"t{k}", "repo": str(repo), "file": "main.py",
            "prefix": f"from pkg.config import parse_config\n{body}\ncfg = parse_con{k}",
            "ground_truth": "cfg = parse_config(path)",
        }) + "\n"
        for k in range(6)
    ))
    srv = ModelServer()
    kinds = ("probe", "embed", "pick", "generate")
    try:
        flags = [f"--{kind}-endpoint={srv.endpoint}" for kind in kinds]
        report = tmp_path / "report.json"
        assert main(["evaluate", "--dataset", str(dataset), "--report", str(report), *flags]) == 0
        peak = srv.peak

        # The same tasks, one at a time on this thread.
        cfg = RunConfig(**{f"{kind}_endpoint": srv.endpoint for kind in kinds})
        clients = make_clients(cfg)
        tasks = load_tasks(dataset)
        index = RepoIndex.build(tasks[0].repo_root, clients.embedder)
        expected = tmp_path / "expected.json"
        outputs = [complete(t, index, clients, cfg).generated for t in tasks]
        save_report(evaluate(tasks, outputs), expected)
    finally:
        srv.close()
    assert report.read_text() == expected.read_text()
    assert not any(task["failed"] for task in json.loads(report.read_text())["per_task"])
    assert 1 < peak <= FANOUT_WIDTH
