"""Exact chord diagram calculus and a truncated invariant engine for
q-tangle words.

The layers, bottom up: `diagrams` holds canonical chord diagrams on
labeled circles, their enumeration by type, and the 4T quotient;
`algebra` holds word series, wheels, and the unknot value; `qtangle`
parses and evaluates slice words; `invariants` ties engine output to
linking-number functionals; `cli` and `selftest` wrap everything in
reproducible runs.
"""

from .diagrams import (
    ChordDiagram, Mod4TForm, TypeMatrix, all_type_matrices,
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

__all__ = [
    "ChordDiagram", "Mod4TForm", "TypeMatrix",
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
    "__version__",
]
