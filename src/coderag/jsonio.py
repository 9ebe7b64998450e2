"""JSON input files: ``parse`` turns a decoded value into a record or raises
``ValueError``, re-raised naming the file (``<path>: …``) or line (``<path> line <n>: …``)."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, TypeVar

T = TypeVar("T")


def read_json_file(path: str | Path, parse: Callable[[object], T]) -> T:
    """``parse`` of the file's one JSON value."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except ValueError as exc:  # json.JSONDecodeError included
            raise ValueError(f"{path}: {exc}") from exc


def read_json_lines(path: str | Path, parse: Callable[[object], T]) -> list[T]:
    """``parse`` of each non-blank line's JSON value, in file order."""
    out: list[T] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    out.append(parse(json.loads(line)))
                except ValueError as exc:
                    raise ValueError(f"{path} line {lineno}: {exc}") from exc
    return out
