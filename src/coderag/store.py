"""The index directory: the one module that knows its four files and formats.

``sparse.idx`` and ``dense.vec`` share one binary container (:func:`_write`).
Their rows are positional over ``kb.jsonl`` (row i is item i), so item ids
are stored once, and a :func:`fingerprint` ties them to the ``kb.jsonl`` and
``manifest.json`` they were built with.  One :data:`FORMAT_VERSION`, held by
``manifest.json`` (read first) and both headers, covers the directory.  A
file that is damaged, foreign, of another version or built with another
``kb.jsonl`` raises :class:`IndexFormatError` naming it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .dense import DenseIndex
from .errors import IndexFormatError
from .kb import CodeKnowledgeBase, CodeKnowledgeItem, ItemKind, ParseFailure
from .sparse import SparseIndex, index_from_postings

KB_FILE_NAME = "kb.jsonl"
MANIFEST_FILE_NAME = "manifest.json"
# Bump on any change to what the four files hold, layout or contents.
FORMAT_VERSION = 4
_VERSION_TAG = f"coderag-kb/{FORMAT_VERSION}"  # how manifest.json records it


@dataclass(frozen=True)
class _Container:
    name: str
    magic: bytes
    header: struct.Struct  # magic, FORMAT_VERSION, the counts (the item count first), fingerprint
    arrays: Callable[[Sequence[int]], list[tuple[str, int]]]  # counts -> [(dtype, length)]
    tables: tuple[int, ...] = ()  # for each table, the count that is its length


# Counts: items, terms, postings.  Arrays: the CSR postings.  Table: the terms by id.
SPARSE = _Container(
    "sparse.idx", b"CRSI", struct.Struct("<4sI3I32s"),
    lambda c: [("<i8", c[1] + 1), ("<i4", c[2]), ("<i4", c[2])], (1,),
)
# Counts: items, dim.  Array: the row-major float32 matrix.
DENSE = _Container(
    "dense.vec", b"CRDV", struct.Struct("<4sI2I32s"), lambda c: [("<f4", c[0] * c[1])]
)


@contextlib.contextmanager
def _reading(path: Path, where: Callable[[], str] = lambda: ""):
    """Raise what goes wrong while reading ``path`` as :class:`IndexFormatError`:
    a short read, bad JSON or UTF-8, a missing key, a value of the wrong shape."""
    try:
        yield
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, struct.error) as exc:
        problem = f"a record has no {exc} key" if isinstance(exc, KeyError) else str(exc)
        raise IndexFormatError(path, f"is truncated or corrupt{where()} ({problem})") from exc


def save_knowledge_base(kb: CodeKnowledgeBase, out_dir: str | Path) -> None:
    """Write ``kb.jsonl`` (one item per line) and ``manifest.json``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / KB_FILE_NAME, "w", encoding="utf-8", newline="\n") as fh:
        for item in kb.items:
            record = {
                "id": item.id,
                "kind": item.kind.value,
                "qualified_name": item.qualified_name,
                "file_path": item.file_path,
                "line_span": list(item.line_span),
                "text": item.text,
            }
            fh.write(json.dumps(record, ensure_ascii=False))
            fh.write("\n")
    manifest = {
        "repo_root": kb.repo_root,
        "files": dict(sorted(kb.file_manifest.items())),
        "tool_version": _VERSION_TAG,
        "parse_errors": [
            {"file_path": e.file_path, "diagnostic": e.diagnostic} for e in kb.parse_errors
        ],
    }
    with open(out / MANIFEST_FILE_NAME, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def load_knowledge_base(kb_dir: str | Path) -> CodeKnowledgeBase:
    kb_dir = Path(kb_dir)
    path = kb_dir / MANIFEST_FILE_NAME
    with _reading(path), open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
        version = manifest.get("tool_version")
        if version != _VERSION_TAG:
            raise IndexFormatError(
                path, f"is not format version {FORMAT_VERSION} (it records {version!r})"
            )
        recorded = dict(
            repo_root=manifest["repo_root"],
            file_manifest=dict(manifest["files"]),
            parse_errors=[
                ParseFailure(e["file_path"], e["diagnostic"])
                for e in manifest.get("parse_errors", [])
            ],
        )
    items: list[CodeKnowledgeItem] = []
    path = kb_dir / KB_FILE_NAME
    # JSON errors give positions within a line, so name the line.
    with _reading(path, lambda: f" while reading line {len(items) + 1}"):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                items.append(
                    CodeKnowledgeItem(
                        id=rec["id"],
                        kind=ItemKind(rec["kind"]),
                        qualified_name=rec["qualified_name"],
                        file_path=rec["file_path"],
                        line_span=(rec["line_span"][0], rec["line_span"][1]),
                        text=rec["text"],
                    )
                )
    try:
        return CodeKnowledgeBase(items=items, **recorded)
    except ValueError as exc:  # duplicate ids, or an item's file not in the manifest
        raise IndexFormatError(kb_dir, f"is inconsistent ({exc})") from exc


def fingerprint(kb: CodeKnowledgeBase) -> bytes:
    """sha256 of the format version, the manifest's files with their hashes
    and the item ids in position order: what a container's rows were built
    from.  The fields are joined by NUL, the file count first."""
    files = [field for pair in sorted(kb.file_manifest.items()) for field in pair]
    ids = [item.id for item in kb.items]
    key = [str(FORMAT_VERSION), str(len(kb.file_manifest)), *files, *ids]
    return hashlib.sha256("\0".join(key).encode("utf-8")).digest()


def _write(spec: _Container, out_dir, counts, stamp: bytes, arrays, tables=()) -> None:
    """Little-endian: the magic, the u32 format version, the u32 counts, the 32-byte
    fingerprint, the arrays, then each table as a u32 byte length and UTF-8 JSON."""
    with open(Path(out_dir) / spec.name, "wb") as fh:
        fh.write(spec.header.pack(spec.magic, FORMAT_VERSION, *counts, stamp))
        for (dtype, _), array in zip(spec.arrays(counts), arrays):
            fh.write(np.ascontiguousarray(array, dtype=dtype).tobytes())
        for table in tables:
            blob = json.dumps(table, ensure_ascii=False).encode("utf-8")
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)


def _read(spec: _Container, kb_dir, n_items: int, stamp: bytes):
    """Path, counts, arrays and tables of a container whose rows must be
    the ``n_items`` items fingerprinted ``stamp``."""
    path = Path(kb_dir) / spec.name
    blob = path.read_bytes()
    if blob[:4] != spec.magic:
        raise IndexFormatError(path, f"is not a {spec.name} file")
    with _reading(path):
        (version,) = struct.unpack_from("<I", blob, 4)
        if version != FORMAT_VERSION:
            raise IndexFormatError(
                path, f"is not format version {FORMAT_VERSION} (its version field holds {version})"
            )
        _, _, *counts, stored = spec.header.unpack_from(blob)
        if counts[0] != n_items or stored != stamp:
            other = "another repository or other file contents"
            raise IndexFormatError(path, f"was built from {other} than {KB_FILE_NAME}")
        offset, arrays, tables = spec.header.size, [], []
        for dtype, length in spec.arrays(counts):
            raw = np.frombuffer(blob, dtype=dtype, count=length, offset=offset)
            arrays.append(raw.astype(raw.dtype.newbyteorder("=")))
            offset += raw.nbytes
        for count in spec.tables:
            (length,) = struct.unpack_from("<I", blob, offset)
            tables.append(json.loads(blob[offset + 4 : offset + 4 + length].decode("utf-8")))
            offset += 4 + length
            if len(tables[-1]) != counts[count]:
                raise ValueError(f"a table of {len(tables[-1])}, not {counts[count]}, entries")
    return path, counts, arrays, tables


def _check_postings(n_items: int, term_ptr, post_pos, post_tf) -> None:
    """Each term owns a non-empty run of the postings, and each posting
    names one of the ``n_items`` items and counts the term at least once."""
    if term_ptr[0] != 0 or term_ptr[-1] != len(post_pos) or np.any(np.diff(term_ptr) <= 0):
        raise ValueError("term pointers do not split the postings into non-empty runs")
    if len(post_pos) and (post_pos.min() < 0 or post_pos.max() >= n_items):
        raise ValueError(f"a posting names no item of the {n_items}")
    if len(post_tf) and post_tf.min() < 1:
        raise ValueError("a posting has a term frequency below 1")


def save(
    out_dir: str | Path, kb: CodeKnowledgeBase, sparse: SparseIndex, dense: DenseIndex
) -> None:
    """Write the four files; the rows of ``sparse`` and ``dense`` are ``kb``'s items."""
    save_knowledge_base(kb, out_dir)
    stamp = fingerprint(kb)
    terms = sorted(sparse.vocabulary, key=sparse.vocabulary.get)
    arrays = [sparse.term_ptr, sparse.post_pos, sparse.post_tf]
    _write(SPARSE, out_dir, (len(kb), len(terms), len(sparse.post_pos)), stamp, arrays, [terms])
    _write(DENSE, out_dir, (len(kb), dense.dim), stamp, [dense.vectors])


def load(kb_dir: str | Path) -> tuple[CodeKnowledgeBase, SparseIndex, DenseIndex]:
    """Read the four files; both indexes share the knowledge base's id list."""
    kb = load_knowledge_base(kb_dir)
    item_ids = [item.id for item in kb.items]
    stamp = fingerprint(kb)
    path, _, arrays, (terms,) = _read(SPARSE, kb_dir, len(kb), stamp)
    with _reading(path):
        _check_postings(len(kb), *arrays)
        vocabulary = {term: tid for tid, term in enumerate(terms)}
        sparse = index_from_postings(item_ids, vocabulary, *arrays)
    path, (count, dim), (vectors,), _ = _read(DENSE, kb_dir, len(kb), stamp)
    with _reading(path):  # rows that are not unit vectors
        matrix = vectors.reshape(count, dim).astype(np.float64)
        dense = DenseIndex(item_ids=item_ids, vectors=matrix, dim=dim)
    return kb, sparse, dense
