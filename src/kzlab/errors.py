"""Exception types shared across the package.

Every user-facing failure mode gets its own class so the CLI can map
errors to stable exit codes without string matching.
"""


class KzlabError(Exception):
    """Base class for all package-specific errors."""


class WordParseError(KzlabError):
    """A q-tangle word could not be tokenized or has malformed slices."""


class WordValidationError(KzlabError):
    """A syntactically valid word fails structural checks.

    Examples: a cap applied to leaves with incompatible directions, an
    association address that does not name a rebracketable position, a
    word whose boundary is nonempty at the end.
    """


class InputError(KzlabError, ValueError):
    """An argument is out of its documented range: a malformed type
    matrix, a circle permutation of the wrong size, a negative or non-int
    degree or chord count, a type matrix whose size differs from the
    circle count, an unknown selftest section.  A plain ValueError is not one: it
    means an internal fault, not bad input.
    """


class TruncationUnsupportedError(KzlabError):
    """The requested truncation degree exceeds what the engine supports,
    or a degree read from a series (a type sum, a degree part, an
    identity's S or degree) exceeds the series' truncation."""


class CorpusLookupError(KzlabError):
    """A named corpus entry does not exist."""
