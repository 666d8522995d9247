"""One benchmark sample, run in a fresh interpreter by run.py.

    python3 bench/child.py WORKLOAD SEED MODE [SPANS_PATH]

MODE is `plain` (the workload body through the library's entry points,
no tracing), `traced` (the same work through the public functions those
entry points call, each wrapped in a span) or `probe` (first calls of the
shared series tables, nothing else).  The child sets up, runs the body
once and prints one JSON object on stdout.  A speed probe (speed.py)
runs from just after its own import to the end of the body, every
5 ms during set-up and every 25 ms during the body, except in traced
children, whose spans it would distort.
"""

from __future__ import annotations

import sys
import time

from speed import SETUP_PROBE_EVERY_S, SpeedProbe

# Set-up is timed from here, just after the probe's own import, so it
# holds every other import but not the interpreter's start, which no
# change to the library or the benchmark can move.
PROBE = SpeedProbe()
PLAIN = __name__ == "__main__" and sys.argv[3:4] == ["plain"]
if PLAIN:
    PROBE.start(SETUP_PROBE_EVERY_S)
STARTED = time.perf_counter()

import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import SpanRecorder  # noqa: E402
from workloads import (  # noqa: E402
    DEGREE, GENERATED, SELFTEST_CHECKS, WARMUP, GeneratedWord, generate,
)

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import kzlab  # noqa: E402 - from the checkout's own source tree
from kzlab import (  # noqa: E402
    all_type_matrices, class_sum, enumerate_by_matrix, integrate,
    linking_matrix, linking_monomial, parse_word, validate_word,
    verify_theorem,
)
from kzlab.algebra import sqrt_unknot_series  # noqa: E402
from kzlab.qtangle import (  # noqa: E402
    associator_sign, evaluate_fragment, finalize, graft,
)

# Library caches whose hit ratio and size the traced run reports.
CACHED = {
    "enumerate_by_matrix": "kzlab.diagrams",
    "enumerate_by_degree": "kzlab.diagrams",
    "all_type_matrices": "kzlab.diagrams",
    "four_t_relators": "kzlab.diagrams",
    "unknot_series_closed": "kzlab.algebra",
    "sqrt_unknot_series": "kzlab.algebra",
    "wheel_attachment_sum": "kzlab.algebra",
    "strand_monomials": "kzlab.qtangle.engine",
}


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)


def series_json(result) -> dict:
    """The series in the shape `kzlab compute --format json` prints."""
    terms = [{"diagram": d.json_dict(), "coeff": str(result.coefficients[d])}
             for d in sorted(result.coefficients) if result.coefficients[d]]
    return {"circles": result.circles, "truncation": result.truncation,
            "terms": terms}


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def type_matrices(workload: str, word: GeneratedWord, circles: int):
    """The type matrices S whose theorem instance each word is checked on."""
    if workload == "wide-nests":
        return [tuple(tuple(int(i == j == c) for j in range(circles))
                      for i in range(circles)) for c in word.checked]
    top = 3 if workload == "long-braids" else 1
    return [S for k in range(top + 1) for S in all_type_matrices(circles, k)]


def cells(S) -> list[list[int]]:
    return [[i, j, v] for i, row in enumerate(S) for j, v in enumerate(row)
            if v and i <= j]


def halves(slices, cutoff: int):
    """The word evaluated as two fragments, split at the middle slice."""
    cut = len(slices) // 2
    lower = evaluate_fragment(slices[:cut], cutoff)
    upper = evaluate_fragment(slices[cut:], cutoff, initial=lower.spec_out,
                              slice_offset=cut)
    return lower, upper


def unlinked(lk) -> bool:
    return all(not lk[i][j] for i in range(len(lk)) for j in range(len(lk)) if i != j)


def set_up(workload: str, seed: int, tally: Tally) -> list[GeneratedWord]:
    """Generate and validate the batch, then integrate the warm-up word."""
    words = generate(workload, seed)
    tally.check(len({w.text for w in words}) == len(words), "duplicate words")
    for word in words:
        slices = parse_word(word.text)
        validate_word(slices)
        circles = len(linking_matrix(slices))
        tally.check(circles == word.circles,
                    f"{word.text[:40]}...: {circles} circles, "
                    f"construction gives {word.circles}")
    integrate(parse_word(WARMUP[workload]), DEGREE[workload])
    return words


def plain_word(workload: str, word: GeneratedWord, tally: Tally):
    """One word through integrate and verify_theorem, as a library user
    calls them."""
    cutoff = DEGREE[workload]
    label = word.text[:40]
    slices = parse_word(word.text)
    result = integrate(slices, cutoff)
    tally.check(result.circles == word.circles, f"{label}: circles")
    if workload == "long-braids":
        grafted = finalize(graft(*halves(slices, cutoff)))
        tally.check(grafted.coefficients == result.coefficients,
                    f"{label}: graft != integrate")
    if workload == "wide-nests":
        tally.check(unlinked(linking_matrix(slices)),
                    f"{label}: unlink with nonzero linking")
    checks = []
    for S in type_matrices(workload, word, result.circles):
        report = verify_theorem(slices, S, cutoff)
        tally.check(report.passed, f"{label}: theorem fails at {cells(S)}")
        checks.append((S, report.lhs, report.rhs))
    return result, checks


def traced_word(workload: str, word: GeneratedWord, tally: Tally,
                rec: SpanRecorder, wid: str):
    """The work of plain_word through the functions integrate and
    verify_theorem call, in their order, one span per call."""
    cutoff = DEGREE[workload]
    label = word.text[:40]
    span = rec.span
    with span("word", wid):
        with span("words.parse", wid):
            slices = parse_word(word.text)
        with span("words.validate", wid):
            validate_word(slices)
        with span("engine.evaluate", wid):
            fragment = evaluate_fragment(slices, cutoff)
        with span("engine.finalize", wid):
            result = finalize(fragment)
        tally.check(result.circles == word.circles, f"{label}: circles")
        if workload == "long-braids":
            with span("engine.evaluate", wid):
                lower, upper = halves(slices, cutoff)
            with span("engine.graft", wid):
                joined = graft(lower, upper)
            with span("engine.finalize", wid):
                grafted = finalize(joined)
            tally.check(grafted.coefficients == result.coefficients,
                        f"{label}: graft != integrate")
        if workload == "wide-nests":
            with span("words.linking", wid):
                lk = linking_matrix(slices)
            tally.check(unlinked(lk), f"{label}: unlink with nonzero linking")
        checks = []
        for S in type_matrices(workload, word, result.circles):
            with span("theorem", wid):
                with span("words.linking", wid):
                    oracle = linking_matrix(slices)
                with span("diagrams.enumerate", wid):
                    enumerate_by_matrix(S)
                with span("invariants.class_sum", wid):
                    rhs = class_sum(result, S)
                with span("invariants.monomial", wid):
                    lhs = linking_monomial(oracle, S)
            tally.check(lhs == rhs, f"{label}: theorem fails at {cells(S)}")
            checks.append((S, lhs, rhs))
    return result, checks, len(fragment.terms)


def generated_digest(out: list) -> str:
    return digest([{"word": word.text, "series": series_json(result),
                    "theorem": [[cells(S), str(lhs), str(rhs)]
                                for S, lhs, rhs in checks]}
                   for word, result, checks in out])


def selftest_report(results, tally: Tally) -> str:
    for r in results:
        tally.check(r.passed, f"selftest section {r.name}: {r.detail}")
    counts = {r.name: r.checks for r in results}
    tally.check(counts == SELFTEST_CHECKS,
                f"selftest check counts {counts} != {SELFTEST_CHECKS}")
    return digest([[r.name, r.passed, r.checks, r.detail] for r in results])


def cache_stats() -> dict:
    stats = {}
    for name, module in CACHED.items():
        info = getattr(importlib.import_module(module), name).cache_info()
        calls = info.hits + info.misses
        stats[name] = {"hit_ratio": info.hits / calls if calls else 0.0,
                       "size": info.currsize}
    return stats


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    if not Path(kzlab.__file__).resolve().is_relative_to(SRC):
        print(f"kzlab imported from {kzlab.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    report: dict = {}
    if mode == "probe":
        cutoff = DEGREE.get(workload, 3)
        started = time.perf_counter()
        sqrt_unknot_series(cutoff)
        report["tables_s"] = time.perf_counter() - started
        started = time.perf_counter()
        associator_sign()
        report["associator_sign_s"] = time.perf_counter() - started
        print(json.dumps(report))
        return 0

    tally = Tally()
    rec = SpanRecorder()
    words = set_up(workload, seed, tally) if workload in GENERATED else []
    if PLAIN:
        PROBE.start()
    started = time.perf_counter()
    out, results, terms = [], [], 0
    for index, word in enumerate(words):
        try:
            if mode == "traced":
                result, checks, size = traced_word(workload, word, tally, rec,
                                                   str(index))
                terms += size
            else:
                result, checks = plain_word(workload, word, tally)
            out.append((word, result, checks))
        except Exception as exc:  # noqa: BLE001 - a failed operation, counted
            tally.check(False, f"{word.text[:40]}: {exc!r}")
    if workload not in GENERATED and mode == "traced":
        for name in kzlab.section_names():
            with rec.span("selftest." + name):
                results.extend(kzlab.run_selftest([name]))
    elif workload not in GENERATED:
        results = kzlab.run_selftest()
    ended = time.perf_counter()
    PROBE.stop()
    caches = cache_stats()
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if workload in GENERATED:
        expected = sum(len(type_matrices(workload, w, w.circles)) for w in words)
        checks = sum(len(c) for _, _, c in out)
        tally.check(checks == expected,
                    f"{checks} theorem checks made, {expected} expected")
        report["digest"] = generated_digest(out)
        report["checks"] = checks
    else:
        report["digest"] = selftest_report(results, tally)
        report["sections"] = {r.name: r.checks for r in results}
        report["checks"] = sum(r.checks for r in results)
    if mode == "traced":
        report["body_s"] = ended - started
        report["layers"] = rec.self_times()
        report["diagrams_per_term"] = (
            sum(len(r.coefficients) for _, r, _ in out) / terms if terms else 0.0)
        if len(argv) > 4:
            rec.write(Path(argv[4]))
    else:
        report["body_s"], report["body_probes"], _ = PROBE.window(started, ended)
        report["setup_s"], report["setup_probes"], _ = PROBE.window(STARTED, started)
        report["cache"] = caches
    report.update(attempted=tally.attempted, failed=tally.failed,
                  errors=tally.errors)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
