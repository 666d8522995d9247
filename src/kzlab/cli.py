"""Command-line surface: compute, verify, enumerate, selftest.

Every command reads a word from a file or the bundled corpus, runs in
exact rational arithmetic, and renders either human-readable text or
machine-readable JSON.  All numbers are emitted as integer-fraction
strings, and output ordering is canonical, so identical inputs give
byte-identical JSON apart from measured timings.

Exit codes: 0 all checks pass, 1 an identity failed, 2 input could not
be parsed or found (a missing, inapplicable or conflicting flag
included, and a word file over MAX_WORD_CHARS characters), 3 a word or
argument failed validation, 4 requested truncation not supported.
Exit 3 comes only from the package's own checks (WordValidationError,
InputError); any other exception is a fault in the program and is not
reported as bad input.  A reader that closes stdout early (as `head`
does) drops the rest of the output but leaves the exit code unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Sequence

from .diagrams import (
    ChordDiagram, all_type_matrices, enumerate_by_degree, enumerate_by_matrix,
)
from .errors import (
    CorpusLookupError, InputError, TruncationUnsupportedError, WordParseError,
    WordValidationError,
)
from .invariants import (
    _CrossingChange, check_recursion, degree_sum_identity, verify_theorem,
)
from .qtangle.corpus import corpus_names, load_corpus_word
from .qtangle.engine import _check_cutoff, integrate
from .qtangle.words import Slice, linking_matrix, parse_word
from .selftest import run_selftest, section_names

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_VALIDATE = 3
EXIT_TRUNCATION = 4

# The longest word file read, in characters; a longer one exits 2.
MAX_WORD_CHARS = 1_000_000


def _load_word(args: argparse.Namespace) -> tuple[str, tuple[Slice, ...]]:
    if args.corpus:
        return args.corpus, load_corpus_word(args.corpus)
    try:
        with open(args.word, encoding="utf-8") as handle:
            text = handle.read(MAX_WORD_CHARS + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise WordParseError(f"cannot read {args.word}: {exc}") from exc
    if len(text) > MAX_WORD_CHARS:
        raise WordParseError(f"{args.word} is longer than "
                             f"{MAX_WORD_CHARS:,} characters")
    return args.word, parse_word(text)


def _parse_matrix(text: str | None) -> tuple[tuple[int, ...], ...] | None:
    if text is None:
        return None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WordParseError(f"--S is not valid JSON: {exc}") from exc
    if (not isinstance(data, list)
            or not all(isinstance(row, list) for row in data)):
        raise WordParseError("--S must be a JSON list of lists")
    if not all(type(x) is int for row in data for x in row):
        raise WordParseError("--S entries must be integers")
    return tuple(tuple(row) for row in data)


def _parse_perm(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        return tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError as exc:
        raise WordParseError(f"--relabel must be integers: {text!r}") from exc


def _render_code(diagram: ChordDiagram) -> str:
    return " ".join("(" + " ".join(str(t) for t in word) + ")"
                    for word in diagram.code)


def _series_json(result) -> dict:
    terms = [{"diagram": diagram.json_dict(),
              "coeff": str(result.coefficients[diagram])}
             for diagram in sorted(result.coefficients)]
    return {"circles": result.circles, "truncation": result.truncation,
            "terms": terms}


def _write(text: str) -> None:
    """Print one line to stdout.  Once the reader has gone (a closed
    pipe), stdout points at the null device, so the rest of the output
    is dropped and the command still returns its own verdict."""
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(payload) -> None:
    _write(json.dumps(payload, indent=2))


def cmd_compute(args: argparse.Namespace) -> int:
    relabel = _parse_perm(args.relabel)
    word_id, word = _load_word(args)
    result = integrate(word, args.degree)
    if relabel is not None:
        result = result.relabeled(relabel)
    if args.format == "json":
        _emit(_series_json(result))
        return EXIT_OK
    _write(f"word: {word_id}")
    _write(f"circles: {result.circles}  truncation: {result.truncation}")
    for k in range(result.truncation + 1):
        part = result.degree_part(k)
        total = sum(part.values(), Fraction(0))
        _write(f"degree {k} (sum {total}):")
        for diagram in sorted(part):
            _write(f"  {part[diagram]!s:>10}  {_render_code(diagram)}")
    return EXIT_OK


def _chosen_matrices(args: argparse.Namespace, given,
                     word: Sequence[Slice]) -> list:
    """The one --S given, or under --all-S every type matrix on the word's
    circles of degree 0 up to --degree, once the word supports --degree."""
    if not args.all_S:
        return [given]
    m = len(linking_matrix(word))
    _check_cutoff(word, args.degree)
    return [S for k in range(args.degree + 1) for S in all_type_matrices(m, k)]


def cmd_verify(args: argparse.Namespace) -> int:
    relabel = _parse_perm(getattr(args, "relabel", None))
    given = _parse_matrix(getattr(args, "S", None))
    word_id, word = _load_word(args)
    if args.identity == "theorem":
        reports = [verify_theorem(word, S, args.degree, word_id, relabel=relabel)
                   for S in _chosen_matrices(args, given, word)]
    elif args.identity == "degree-sum":
        reports = [degree_sum_identity(word, args.k, args.degree, word_id)]
    elif not args.all_S:
        reports = check_recursion(word, args.crossing, given, args.degree, word_id)
    else:
        matrices = _chosen_matrices(args, given, word)
        change = _CrossingChange(word, args.crossing, args.degree, word_id)
        reports = [report for S in matrices
                   for report in change.check_recursion(S)]
    if args.format == "json":
        _emit([r.as_dict() for r in reports])
    else:
        for r in reports:
            _write(r.render())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAILED


def cmd_enumerate(args: argparse.Namespace) -> int:
    """--circles goes with --k; under --S the circle count is len(S)."""
    S = _parse_matrix(args.S)
    if S is None:
        circles = 1 if args.circles is None else args.circles
        if circles < 1:
            raise InputError("--circles must be at least 1")
        diagrams = enumerate_by_degree(circles, args.k)
    elif args.circles is not None:
        raise WordParseError("--circles is not read with --S, whose size "
                             "is the circle count")
    elif not S:
        raise InputError("--S must have at least one row")
    else:
        circles = len(S)
        diagrams = enumerate_by_matrix(S)
    if args.format == "json":
        _emit({"circles": circles, "count": len(diagrams),
               "diagrams": [d.json_dict() for d in diagrams]})
    else:
        for d in diagrams:
            _write(_render_code(d))
        _write(f"count: {len(diagrams)}")
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    results = run_selftest(args.section or None)
    ok = all(r.passed for r in results)
    if args.as_json:
        _emit({"pass": ok, "sections": [r.as_dict() for r in results]})
    else:
        for r in results:
            _write(r.render())
        _write("all sections pass" if ok else "FAILURES above")
    return EXIT_OK if ok else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kzlab",
        description="Exact truncated link invariants from q-tangle words.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_word_command(commands, name: str,
                         summary: str) -> argparse.ArgumentParser:
        """A command reading one word, truncated at --degree."""
        p = commands.add_parser(name, help=summary)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--word", metavar="PATH",
                           help=f"word file (.qtw), at most "
                                f"{MAX_WORD_CHARS:,} characters")
        group.add_argument("--corpus", metavar="NAME",
                           choices=corpus_names(),
                           help="bundled word: " + ", ".join(corpus_names()))
        p.add_argument("--degree", type=int, default=3, metavar="N",
                       help="truncation degree (default 3)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    compute = add_word_command(sub, "compute", "print the truncated invariant")
    checks = sub.add_parser("verify", help="check identities on one word"
                            ).add_subparsers(dest="identity", required=True)
    theorem = add_word_command(checks, "theorem",
                               "linking monomials against class sums")
    add_word_command(checks, "degree-sum", "all degree-k coefficients summed"
                     ).add_argument("--k", type=int, metavar="INT",
                                    required=True, help="degree of the sum")
    recursion = add_word_command(checks, "recursion",
                                 "the crossing-change expansion")
    for p in (compute, theorem):
        p.add_argument("--relabel", metavar="PERM",
                       help="circle relabeling, e.g. 2,1")
    for p in (theorem, recursion):
        chosen = p.add_mutually_exclusive_group(required=True)
        chosen.add_argument("--S", metavar="JSON",
                            help="type matrix, e.g. [[0,1],[1,0]]")
        chosen.add_argument("--all-S", action="store_true", dest="all_S",
                            help="sweep every symmetric S up to --degree")
    recursion.add_argument("--crossing", type=int, metavar="INT", required=True,
                           help="1-based slice index of the designated crossing")

    p = sub.add_parser("enumerate", help="list chord diagrams")
    p.add_argument("--circles", type=int, metavar="INT",
                   help="circle count for --k (default 1)")
    chosen = p.add_mutually_exclusive_group(required=True)
    chosen.add_argument("--k", type=int, metavar="INT", help="chord count")
    chosen.add_argument("--S", metavar="JSON", help="type matrix")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("selftest", help="run the full identity sweep")
    p.add_argument("--section", action="append", default=[],
                   choices=section_names(), metavar="NAME",
                   help="run only the named section (repeatable)")
    p.add_argument("--json", action="store_true", dest="as_json")
    return parser


_COMMANDS = {
    "compute": cmd_compute,
    "verify": cmd_verify,
    "enumerate": cmd_enumerate,
    "selftest": cmd_selftest,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (WordParseError, CorpusLookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TruncationUnsupportedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except (WordValidationError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATE


if __name__ == "__main__":
    sys.exit(main())
