"""Q-tangle words: parsing, validation, evaluation, and the linking oracle."""

from .words import (
    Slice,
    parse_word,
    render_word,
    validate_word,
    linking_matrix,
    BoundaryState,
)
from .engine import (
    TangleResult,
    integrate,
    evaluate_fragment,
    graft,
    finalize,
    crossing_term,
    max_truncation,
    associator_sign,
    pentagon_identity,
    hexagon_identity,
)
from .corpus import corpus_names, corpus_path, load_corpus_word, corpus_linking

__all__ = [
    "Slice", "parse_word", "render_word", "validate_word", "linking_matrix",
    "BoundaryState", "TangleResult", "integrate",
    "evaluate_fragment", "graft", "finalize", "crossing_term",
    "max_truncation", "associator_sign", "pentagon_identity",
    "hexagon_identity",
    "corpus_names", "corpus_path", "load_corpus_word", "corpus_linking",
]
