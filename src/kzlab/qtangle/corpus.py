"""Bundled example words and their independently tabulated linking data.

Each entry pairs a word file with the framed linking matrix of the link
it presents, computed by hand from the diagram.  The matrices serve as an
oracle: tests and the self-check compare them against both the crossing
count and the engine's degree-1 output, so a name always loads the
bundled word that its matrix describes.  The word files sit in the data
directory beside this module and are read by file path, so the package
must be installed as files (not run from a zip archive).  Any other word
is read from a file, on the command line with --word PATH.
"""

from __future__ import annotations

import os
from fractions import Fraction

from ..errors import CorpusLookupError
from .words import Slice, parse_word

_MANIFEST: dict[str, tuple[str, tuple[tuple[str, ...], ...]]] = {
    "u0": ("u0.qtw", (("0",),)),
    "u1": ("u1.qtw", (("1/2",),)),
    "hopf+": ("hopf+.qtw", (("0", "1"), ("1", "0"))),
    "hopf-": ("hopf-.qtw", (("0", "-1"), ("-1", "0"))),
    "hopf+alt": ("hopf+alt.qtw", (("0", "1"), ("1", "0"))),
    "trefoil": ("trefoil.qtw", (("3/2",),)),
    "chain2": ("chain2.qtw", (("0", "1"), ("1", "0"))),
    "chain3": ("chain3.qtw", (("0", "1", "0"), ("1", "0", "1"), ("0", "1", "0"))),
    "unlink2": ("unlink2.qtw", (("0", "0"), ("0", "0"))),
}


def corpus_names() -> tuple[str, ...]:
    return tuple(sorted(_MANIFEST))


def _entry(name: str) -> tuple[str, tuple[tuple[str, ...], ...]]:
    """The manifest's (file name, linking rows) for name; CorpusLookupError
    naming the known words unless name is one of them."""
    entry = _MANIFEST.get(name) if type(name) is str else None
    if entry is None:
        raise CorpusLookupError(
            f"unknown corpus word {name!r}; known: {', '.join(corpus_names())}")
    return entry


def corpus_path(name: str) -> str:
    """Filesystem path of the bundled word file for name, as a str."""
    filename, _ = _entry(name)
    path = os.path.join(os.path.dirname(__file__), "data", filename)
    if not os.path.isfile(path):
        raise CorpusLookupError(f"corpus file not found: {path}")
    return path


def load_corpus_word(name: str) -> tuple[Slice, ...]:
    with open(corpus_path(name), encoding="utf-8") as handle:
        return parse_word(handle.read())


def corpus_linking(name: str) -> tuple[tuple[Fraction, ...], ...]:
    """The tabulated framed linking matrix (diagonal holds framing/2)."""
    _, rows = _entry(name)
    return tuple(tuple(Fraction(x) for x in row) for row in rows)
