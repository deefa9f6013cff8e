"""issuetriage: classify issue objectives and predict issue priorities."""

from .corpus import (
    CommentRecord,
    Corpus,
    EventRecord,
    FilterConfig,
    IssueRecord,
    ObjectiveClass,
    PriorityClass,
    UserProfile,
    filter_corpus,
    load_corpus,
    save_corpus,
)
from .labelmap import canonicalize_label, label_features, load_label_maps
from .textnorm import TokenizedDoc, normalize_pipeline

__version__ = "0.1.0"

__all__ = [
    "CommentRecord",
    "Corpus",
    "EventRecord",
    "FilterConfig",
    "IssueRecord",
    "ObjectiveClass",
    "PriorityClass",
    "TokenizedDoc",
    "UserProfile",
    "canonicalize_label",
    "filter_corpus",
    "label_features",
    "load_corpus",
    "load_label_maps",
    "normalize_pipeline",
    "save_corpus",
    "__version__",
]
