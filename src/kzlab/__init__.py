"""Exact chord diagram calculus and a truncated invariant engine for
q-tangle words.

The layers, bottom up: `diagrams` holds canonical chord diagrams on
labeled circles, their enumeration by type, and the 4T quotient;
`algebra` holds word series, wheels, and the unknot value; `qtangle`
parses and evaluates slice words; `invariants` ties engine output to
linking-number functionals; `cli` and `selftest` wrap everything in
reproducible runs.
"""

import sys

from .diagrams import (
    ChordDiagram, TypeMatrix, all_type_matrices,
    canonical_code, connected_sum, enumerate_by_degree, enumerate_by_matrix,
    four_t_relators, quotient_dimension, reduce_mod_4t,
)
from .algebra import (
    MAX_TRUNCATION, closed_connected_product, interval_product, interval_sqrt,
    sqrt_unknot_series, unknot_series_closed, wheel_attachment_sum,
    wheel_coefficients,
)
from .errors import (
    CorpusLookupError, InputError, KzlabError, TruncationUnsupportedError,
    WordParseError, WordValidationError,
)
from .invariants import (
    VerificationReport, check_recursion, class_sum, degree_class_sum,
    degree_sum_identity, kinked_unknot_series, linking_monomial,
    variation_match, verify_theorem,
)
from .qtangle import (
    Slice, TangleResult, corpus_names, integrate, linking_matrix,
    load_corpus_word, parse_word, validate_word,
)
from .selftest import run_selftest, section_names

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every lru_cache of the library's loaded modules, as at a cold
    start: the diagram and series tables, the word traces, the whole-word
    integrations and crossing terms, and the engine's per-truncation
    scale.  Cached values depend only on their arguments, so this changes
    timings, not answers.
    """
    for name, module in list(sys.modules.items()):
        if name == __name__ or name.startswith(__name__ + "."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


__all__ = [
    "ChordDiagram", "TypeMatrix",
    "all_type_matrices", "canonical_code", "connected_sum", "enumerate_by_degree",
    "enumerate_by_matrix", "four_t_relators", "quotient_dimension",
    "reduce_mod_4t",
    "MAX_TRUNCATION", "closed_connected_product", "interval_product",
    "interval_sqrt", "sqrt_unknot_series",
    "unknot_series_closed", "wheel_attachment_sum", "wheel_coefficients",
    "CorpusLookupError", "InputError", "KzlabError", "TruncationUnsupportedError",
    "WordParseError", "WordValidationError",
    "VerificationReport", "check_recursion", "class_sum", "degree_class_sum",
    "degree_sum_identity", "kinked_unknot_series", "linking_monomial",
    "variation_match", "verify_theorem",
    "Slice", "TangleResult", "corpus_names", "integrate", "linking_matrix",
    "load_corpus_word", "parse_word", "validate_word",
    "run_selftest", "section_names",
    "clear_caches", "__version__",
]
