"""Command-line surface: compute, verify, enumerate, selftest.

Every command reads a word from a file or the bundled corpus, runs in
exact rational arithmetic, and renders either human-readable text or
machine-readable JSON.  All numbers are emitted as integer-fraction
strings, and output ordering is canonical, so identical inputs give
byte-identical JSON apart from measured timings.

Exit codes: 0 all checks pass, 1 an identity failed, 2 input could not
be parsed or found, 3 a word or argument failed validation, 4 requested
truncation not supported.  Exit 3 comes only from the package's own
checks (WordValidationError, InputError); any other exception is a fault
in the program and is not reported as bad input.  A reader that closes
stdout early (as `head` does) drops the rest of the output but leaves
the exit code unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Callable, Sequence

from .diagrams import (
    ChordDiagram, all_type_matrices, enumerate_by_degree, enumerate_by_matrix,
)
from .errors import (
    CorpusLookupError, InputError, TruncationUnsupportedError, WordParseError,
    WordValidationError,
)
from .invariants import check_recursion, degree_sum_identity, verify_theorem
from .qtangle.corpus import corpus_names, load_corpus_word
from .qtangle.engine import integrate
from .qtangle.words import Slice, linking_matrix, parse_word
from .selftest import run_selftest, section_names

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_VALIDATE = 3
EXIT_TRUNCATION = 4


def _load_word(args: argparse.Namespace) -> tuple[str, tuple[Slice, ...]]:
    if args.corpus:
        return args.corpus, load_corpus_word(args.corpus)
    try:
        text = open(args.word, encoding="utf-8").read()
    except (OSError, UnicodeDecodeError) as exc:
        raise WordParseError(f"cannot read {args.word}: {exc}") from exc
    return args.word, parse_word(text)


def _parse_matrix(text: str | None) -> tuple[tuple[int, ...], ...] | None:
    if not text:
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
    if not text:
        return None
    try:
        return tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError as exc:
        raise WordParseError(f"--relabel must be integers: {text!r}") from exc


def _render_code(diagram: ChordDiagram) -> str:
    return " ".join("(" + " ".join(str(t) for t in word) + ")"
                    for word in diagram.code)


def _series_json(result) -> dict:
    terms = []
    for diagram in sorted(result.coefficients):
        coeff = result.coefficients[diagram]
        if coeff == 0:
            continue
        terms.append({"diagram": diagram.json_dict(), "coeff": str(coeff)})
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
    result = integrate(word, args.degree, relabel=relabel)
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
            if part[diagram]:
                _write(f"  {part[diagram]!s:>10}  {_render_code(diagram)}")
    return EXIT_OK


def _chosen_matrices(args: argparse.Namespace, given,
                     circles: Callable[[], int]) -> list:
    """The one --S given, or under --all-S every type matrix on the word's
    circles of degree up to --max-degree."""
    if args.all_S:
        m = circles()
        if args.max_degree < 0:
            raise InputError("--max-degree must be nonnegative")
        return [S for k in range(args.max_degree + 1)
                for S in all_type_matrices(m, k)]
    if given is None:
        raise WordValidationError(f"verify {args.identity} needs --S or --all-S")
    return [given]


def cmd_verify(args: argparse.Namespace) -> int:
    relabel = _parse_perm(args.relabel)
    given = _parse_matrix(args.S)
    word_id, word = _load_word(args)
    if args.identity == "theorem":
        result = integrate(word, args.degree, relabel=relabel)
        reports = [verify_theorem(word, S, args.degree, word_id, relabel=relabel)
                   for S in _chosen_matrices(args, given, lambda: result.circles)]
    elif args.identity == "degree-sum":
        if args.k is None:
            raise WordValidationError("verify degree-sum needs --k")
        reports = [degree_sum_identity(word, args.k, args.degree, word_id)]
    elif args.identity == "recursion":
        if args.crossing is None:
            raise WordValidationError("verify recursion needs --crossing")
        matrices = _chosen_matrices(args, given,
                                    lambda: len(linking_matrix(word)))
        reports = [report for S in matrices
                   for report in check_recursion(word, args.crossing, S,
                                                 args.degree, word_id)]
    else:
        raise WordValidationError(f"unknown identity {args.identity!r}")
    if args.format == "json":
        _emit([r.as_dict() for r in reports])
    else:
        for r in reports:
            _write(r.render())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAILED


def cmd_enumerate(args: argparse.Namespace) -> int:
    S = _parse_matrix(args.S)
    if args.circles < 1:
        raise InputError("--circles must be at least 1")
    if S is not None:
        if len(S) != args.circles:
            raise WordValidationError("--S size must match --circles")
        diagrams = enumerate_by_matrix(S)
    elif args.k is not None:
        diagrams = enumerate_by_degree(args.circles, args.k)
    else:
        raise WordValidationError("enumerate needs --S or --k")
    if args.format == "json":
        _emit({"circles": args.circles, "count": len(diagrams),
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

    def add_word_flags(p: argparse.ArgumentParser) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--word", metavar="PATH", help="word file (.qtw)")
        group.add_argument("--corpus", metavar="NAME",
                           choices=corpus_names(),
                           help="bundled word: " + ", ".join(corpus_names()))

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--degree", type=int, default=3, metavar="N",
                       help="truncation degree (default 3)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--relabel", metavar="PERM",
                       help="circle relabeling, e.g. 2,1")

    p = sub.add_parser("compute", help="print the truncated invariant")
    add_word_flags(p)
    add_common(p)

    p = sub.add_parser("verify", help="check identities on one word")
    p.add_argument("identity", choices=("theorem", "degree-sum", "recursion"))
    add_word_flags(p)
    add_common(p)
    p.add_argument("--S", metavar="JSON", help="type matrix, e.g. [[0,1],[1,0]]")
    p.add_argument("--all-S", action="store_true", dest="all_S",
                   help="sweep every symmetric S up to --max-degree")
    p.add_argument("--max-degree", type=int, default=3, metavar="INT")
    p.add_argument("--k", type=int, metavar="INT", help="degree for degree-sum")
    p.add_argument("--crossing", type=int, metavar="INT",
                   help="1-based slice index of the designated crossing")

    p = sub.add_parser("enumerate", help="list chord diagrams")
    p.add_argument("--circles", type=int, default=1, metavar="INT")
    p.add_argument("--k", type=int, metavar="INT", help="chord count")
    p.add_argument("--S", metavar="JSON", help="type matrix")
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
