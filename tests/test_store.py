"""The index directory: one container for sparse.idx and dense.vec, rows
positional over kb.jsonl, and a file that is damaged, of an older
version, or built with another kb.jsonl refused at load."""

from __future__ import annotations

import json
import shutil
import struct

import numpy as np
import pytest

from coderag.clients import StubEmbedder
from coderag.errors import IndexFormatError
from coderag.pipeline import RepoIndex
from coderag.store import fingerprint

from .conftest import MINI_REPO_FILES, write_repo

# Same spans, hence the same item ids, as MINI_REPO_FILES; other bytes.
EDITED_FILES = {**MINI_REPO_FILES, "util.py": MINI_REPO_FILES["util.py"].replace("1", "2")}

# A header is the magic, the u32 version, the u32 counts (sparse: items,
# terms, postings; dense: items, dim) and the 32-byte fingerprint: 52
# bytes for sparse.idx, 48 for dense.vec.  `other` is the same file of an
# index built from other file contents with the same item ids.
DAMAGES = {
    "another build": lambda blob, other: other,
    "bad magic": lambda blob, other: b"XXXX" + blob[4:],
    "unknown version": lambda blob, other: blob[:4] + (99).to_bytes(4, "little") + blob[8:],
    "first 10 bytes": lambda blob, other: blob[:10],
    "cut in the arrays": lambda blob, other: blob[:60],
    "cut in the matrix": lambda blob, other: blob[:56],
    "cut in the tables": lambda blob, other: blob[:-3],
}
SPARSE_DAMAGES = sorted(set(DAMAGES) - {"cut in the matrix"})
DENSE_DAMAGES = sorted(set(DAMAGES) - {"cut in the arrays", "cut in the tables"})


def build_and_save(repo_files: dict[str, str], root, out) -> RepoIndex:
    index = RepoIndex.build(write_repo(root, repo_files), StubEmbedder())
    index.save(out)
    return index


def assert_damaged_file_asks_for_reindex(tmp_path, name: str, damage: str) -> None:
    """The one check behind test_sparse's and test_dense's damage tests."""
    build_and_save(MINI_REPO_FILES, tmp_path / "repo", tmp_path / "idx")
    build_and_save(EDITED_FILES, tmp_path / "edited", tmp_path / "other")
    path = tmp_path / "idx" / name
    other = (tmp_path / "other" / name).read_bytes()
    path.write_bytes(DAMAGES[damage](path.read_bytes(), other))
    with pytest.raises(IndexFormatError) as exc_info:
        RepoIndex.load(tmp_path / "idx")
    assert exc_info.value.path == path
    assert str(path) in str(exc_info.value)
    assert "re-run `coderag index`" in str(exc_info.value)


def test_rows_are_positional_and_share_the_kb_ids(mini_repo, tmp_path):
    index = RepoIndex.build(mini_repo, StubEmbedder())
    index.save(tmp_path)
    loaded = RepoIndex.load(tmp_path)
    ids = [item.id for item in loaded.kb.items]
    assert loaded.sparse.item_ids == ids and loaded.sparse.item_ids is loaded.dense.item_ids
    for name in ("sparse.idx", "dense.vec"):
        blob = (tmp_path / name).read_bytes()
        assert ids[0].encode() not in blob
        assert fingerprint(index.kb) in blob


@pytest.mark.parametrize("name", ["sparse.idx", "dense.vec"])
def test_file_from_another_repository_is_refused(tmp_path, name):
    build_and_save(MINI_REPO_FILES, tmp_path / "mini", tmp_path / "idx")
    other = {f"pkg/{path}": text for path, text in MINI_REPO_FILES.items()}
    other["extra.py"] = "EXTRA = 1\n"
    build_and_save(other, tmp_path / "other", tmp_path / "other_idx")
    shutil.copy(tmp_path / "other_idx" / name, tmp_path / "idx" / name)
    with pytest.raises(IndexFormatError, match="another repository") as exc_info:
        RepoIndex.load(tmp_path / "idx")
    assert exc_info.value.path == tmp_path / "idx" / name


def test_content_edit_keeping_every_span_is_refused(tmp_path):
    old = build_and_save(MINI_REPO_FILES, tmp_path / "repo", tmp_path / "idx")
    new = build_and_save(EDITED_FILES, tmp_path / "repo", tmp_path / "new")
    assert [item.id for item in new.kb.items] == [item.id for item in old.kb.items]
    for name in ("kb.jsonl", "manifest.json"):  # sparse.idx and dense.vec are stale
        shutil.copy(tmp_path / "new" / name, tmp_path / "idx" / name)
    with pytest.raises(IndexFormatError, match="other file contents") as exc_info:
        RepoIndex.load(tmp_path / "idx")
    assert exc_info.value.path == tmp_path / "idx" / "sparse.idx"
    assert "re-run `coderag index`" in str(exc_info.value)


def _table(values: list) -> bytes:
    blob = json.dumps(values).encode("utf-8")
    return struct.pack("<I", len(blob)) + blob


def write_previous_version(index: RepoIndex, out, name: str) -> None:
    """The layouts before the fingerprint: sparse version 2 and dense
    version 1, each with its own item-id table."""
    ids = [item.id for item in index.kb.items]
    if name == "sparse.idx":
        sp = index.sparse
        terms = sorted(sp.vocabulary, key=sp.vocabulary.get)
        blob = b"CRSI" + struct.pack("<IIII", 2, len(ids), len(terms), len(sp.post_pos))
        blob += sp.term_ptr.astype("<i8").tobytes() + sp.post_pos.astype("<i4").tobytes()
        blob += sp.post_tf.astype("<i4").tobytes() + _table(terms) + _table(ids)
    else:
        dn = index.dense
        blob = b"CRDV" + struct.pack("<III", dn.dim, len(ids), 1)
        blob += np.asarray(dn.vectors, dtype="<f4").tobytes() + _table(ids)
    (out / name).write_bytes(blob)


@pytest.mark.parametrize("name", ["sparse.idx", "dense.vec"])
def test_previous_version_is_refused(mini_repo, tmp_path, name):
    index = RepoIndex.build(mini_repo, StubEmbedder())
    index.save(tmp_path)
    write_previous_version(index, tmp_path, name)
    with pytest.raises(IndexFormatError, match="is not format version") as exc_info:
        RepoIndex.load(tmp_path)
    assert exc_info.value.path == tmp_path / name
    assert "re-run `coderag index`" in str(exc_info.value)

