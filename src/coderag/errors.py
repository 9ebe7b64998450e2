"""Exception types shared across the pipeline.

Every stage failure carries enough context to identify the failing input;
soft failures (a single unparsable file, a missing dataflow dependency)
are represented by return values, not exceptions.
"""

from __future__ import annotations


class CodeRagError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CodeRagError):
    """A source file could not be parsed. The file is skipped, not fatal."""

    def __init__(self, file_path: str, diagnostic: str):
        super().__init__(f"{file_path}: {diagnostic}")
        self.file_path = file_path
        self.diagnostic = diagnostic


class EmptyRepository(CodeRagError):
    """No source files were found under the repository root."""


class EmptyFile(CodeRagError):
    """The file to be completed has zero lines."""


class ProbeUnavailable(CodeRagError):
    """The scoring model could not be reached while probing chunks."""


class EmbedderUnavailable(CodeRagError):
    """The embedding model could not be reached."""


class PickerUnavailable(CodeRagError):
    """The reranking picker could not be reached at all (connection-level)."""


class InvalidPickReply(CodeRagError):
    """The picker answered, but the reply does not name an in-window snippet."""


class GraphUnavailable(CodeRagError):
    """The unfinished file could not be analyzed even at the lexical level."""


class BudgetImpossible(CodeRagError):
    """The tail of the prefix alone does not fit in the prompt token budget."""


class PipelineStageError(CodeRagError):
    """Wraps a failure with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


class IndexFormatError(CodeRagError):
    """An index file is not in the format this version reads, or is
    truncated or corrupt.  The remedy is always a rebuild."""

    def __init__(self, path, problem: str):
        super().__init__(f"{path} {problem}; re-run `coderag index` to rebuild it")
        self.path = path


class EmbeddingDimensionMismatch(CodeRagError):
    """A query embedding does not have the dense index's dimension."""

    def __init__(self, index_dim: int, query_dim: int):
        super().__init__(
            f"query embedding has dimension {query_dim}, but the dense index was "
            f"built with dimension {index_dim}; query with the embedder the index "
            f"was built with, or re-run `coderag index`"
        )
        self.index_dim = index_dim
        self.query_dim = query_dim
