"""Repository-aware retrieval-augmented code completion engine."""

from .clients import PipelineClients
from .config import RunConfig, make_clients
from .kb import CodeKnowledgeBase, CodeKnowledgeItem, ItemKind, build_knowledge_base
from .pipeline import CompletionTask, RepoIndex, complete

__version__ = "0.1.0"

__all__ = [
    "CodeKnowledgeBase",
    "CodeKnowledgeItem",
    "CompletionTask",
    "ItemKind",
    "PipelineClients",
    "RepoIndex",
    "RunConfig",
    "build_knowledge_base",
    "complete",
    "make_clients",
    "__version__",
]
