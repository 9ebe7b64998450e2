"""Run configuration: tuned defaults, config-file loading, client wiring.

:class:`RunConfig` is the one place the tuned defaults are written down;
the pipeline, the CLI flags and config files all read them from here.
They follow the evaluation setup this engine targets: chunks of 3 lines
with 1 probe-selected chunk, 15 results per retrieval path, top 10 kept
after reranking, 48 generated tokens at temperature 0 within a
2048-token input budget.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path
from urllib.parse import urlsplit

from .clients import EchoGenerator, OverlapPicker, PipelineClients, StubEmbedder, StubProbe
from .retrieve import ALL_PATHS

CONFIG_VERSION = 1
STUB_ENDPOINT = "stub"
ENDPOINT_ENV_VAR = "CODERAG_LM_ENDPOINT"


@dataclass(frozen=True)
class RunConfig:
    f: int = 3  # chunk length in lines
    m: int = 8  # probe generation steps; not pinned upstream, small keeps probing cheap
    g: int = 1  # probe-selected chunks
    j: int = 15  # results per retrieval path
    u: int = 10  # knowledge pieces kept after reranking
    w: int = 3  # rerank window size
    max_new_tokens: int = 48
    temperature: float = 0.0
    max_input_tokens: int = 2048
    paths: tuple[str, ...] = ALL_PATHS
    probe_endpoint: str = ""  # empty: CODERAG_LM_ENDPOINT if set, else the stub
    embed_endpoint: str = ""
    pick_endpoint: str = ""
    generate_endpoint: str = ""
    rerank_template_path: str = ""
    embed_dim: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("f", "m", "g", "j", "u", "w"):
            value = getattr(self, name)
            minimum = 0 if name == "g" else 1
            if value < minimum:
                raise ValueError(f"{name} must be >= {minimum}, got {value}")
        if self.w < 2:
            raise ValueError("window size w must be >= 2")
        if not self.u < 2 * self.j + 1:
            raise ValueError(f"u must be < 2j+1 (u={self.u}, j={self.j})")
        unknown = set(self.paths) - set(ALL_PATHS)
        if unknown:
            raise ValueError(f"unknown retrieval paths: {sorted(unknown)}")
        if self.max_new_tokens < 1 or self.max_input_tokens < 1:
            raise ValueError("token limits must be positive")
        if not math.isfinite(self.temperature) or self.temperature < 0:
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        for name in ("probe_endpoint", "embed_endpoint", "pick_endpoint", "generate_endpoint"):
            _check_endpoint(name, getattr(self, name))

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["paths"] = list(self.paths)
        out["version"] = CONFIG_VERSION
        return out


def _check_endpoint(key: str, value: object) -> None:
    """An endpoint is the stub, empty (the environment fallback) or an
    ``http(s)://`` URL with a host; anything else raises ``ValueError``
    naming ``key``, before any model call could fail on it."""
    if value in ("", STUB_ENDPOINT):
        return
    try:
        url = urlsplit(value) if isinstance(value, str) else None
        ok = url is not None and url.scheme in ("http", "https") and bool(url.hostname)
    except ValueError:  # e.g. an unclosed IPv6 bracket
        ok = False
    if not ok:
        raise ValueError(
            f"{key} must be {STUB_ENDPOINT!r}, empty or an http(s):// URL with a host, "
            f"got {value!r}"
        )


def _check_value_type(name: str, value: object, default: object) -> None:
    """A config-file value must have its default's JSON type."""
    if name == "paths":
        expected = "a list of strings"
        ok = isinstance(value, list) and all(isinstance(p, str) for p in value)
    elif isinstance(default, float):
        expected = "a number"
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        expected = "an integer" if isinstance(default, int) else "a string"
        ok = type(value) is type(default)
    if not ok:
        raise ValueError(f"config key {name!r} must be {expected}, got {value!r}")


def load_config(path: str | Path) -> RunConfig:
    """Read a versioned JSON config file; missing keys take defaults.

    A top level that is not an object, an unknown key or a value of the
    wrong type raises ``ValueError``.
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"config file must hold a JSON object, got {type(raw).__name__}")
    version = raw.pop("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ValueError(f"unsupported config version {version}")
    known = {f.name for f in fields(RunConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    defaults = RunConfig()
    for name, value in raw.items():
        _check_value_type(name, value, getattr(defaults, name))
    if "paths" in raw:
        raw["paths"] = tuple(raw["paths"])
    return replace(defaults, **raw)


def _endpoint(configured: str) -> str:
    """The configured endpoint (``stub`` is the stub); if empty, the
    environment fallback, else the stub."""
    if configured:
        return configured
    fallback = os.environ.get(ENDPOINT_ENV_VAR, "")
    _check_endpoint(ENDPOINT_ENV_VAR, fallback)
    return fallback or STUB_ENDPOINT


def make_clients(config: RunConfig) -> PipelineClients:
    probe_ep = _endpoint(config.probe_endpoint)
    embed_ep = _endpoint(config.embed_endpoint)
    pick_ep = _endpoint(config.pick_endpoint)
    gen_ep = _endpoint(config.generate_endpoint)

    template = None
    if config.rerank_template_path:
        template = Path(config.rerank_template_path).read_text("utf-8")

    if {probe_ep, embed_ep, pick_ep, gen_ep} != {STUB_ENDPOINT}:
        # Imported only here, so an all-stub run never loads the HTTP stack.
        from . import wire

    return PipelineClients(
        probe=StubProbe() if probe_ep == STUB_ENDPOINT else wire.WireProbeClient(probe_ep),
        embedder=(
            StubEmbedder(dim=config.embed_dim)
            if embed_ep == STUB_ENDPOINT
            else wire.WireEmbedderClient(embed_ep)
        ),
        picker=(
            OverlapPicker()
            if pick_ep == STUB_ENDPOINT
            else wire.WirePickerClient(pick_ep, template=template)
        ),
        generator=(
            EchoGenerator() if gen_ep == STUB_ENDPOINT else wire.WireGeneratorClient(gen_ep)
        ),
    )
