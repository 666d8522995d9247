"""kzlab benchmark: one workload per command, each sample in a fresh child.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Without tracing, children run the workload body one after another until
S seconds have passed (at least three); the end-to-end metrics are the
medians over them, with times counted by the speed probe of speed.py.
With tracing, untraced and traced children alternate
after one probe child, and the per-layer metrics are medians over the
traced ones.  Every child's output is checked: theorem verdicts, graft
against integrate, selftest check counts, and a SHA-256 digest of the
canonical output.  For the default seed the digest must equal the one in
reference.json; for any other seed, one extra child runs the default
seed first so the recorded digest is compared on every run.

The last line printed is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  The exit code is 1 when any check failed and 2
when the library source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, GENERATED, SELFTEST_CHECKS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
SPANS_DIR = BENCH / "out"
MIN_CHILDREN = 3
TIME_LIMIT_S = 170.0  # per workload; a child still running then is killed
# Untraced children count their work in lengths of a speed probe (speed.py);
# run_s and setup_s are that count times this nominal probe length.
REFERENCE_PROBE_S = 0.001

LAYERS = ("words.parse", "words.validate", "words.linking", "engine.evaluate",
          "engine.finalize", "engine.graft", "diagrams.enumerate",
          "invariants.class_sum", "invariants.monomial")


class ChildFailed(Exception):
    pass


def run_child(workload: str, seed: int, mode: str, timeout: float,
              spans: Path | None = None) -> dict:
    """Run one child to completion and return its report."""
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed), mode]
    if spans is not None:
        cmd.append(str(spans))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child still running after {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed(f"{mode} child exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Run:
    """The children of one command and the checks made across them."""

    def __init__(self, workload: str, seed: int, reference: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[int, str] = {}
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def child(self, seed: int, mode: str, spans: Path | None = None) -> dict | None:
        try:
            report = run_child(self.workload, seed, mode,
                               max(self.deadline - time.monotonic(), 1.0), spans)
        except ChildFailed as exc:
            self.check(False, str(exc))
            return None
        if mode == "probe":
            return report
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        self.errors.extend(report["errors"])
        # The same inputs must give the same output in every child, and
        # the default seed's output must be the recorded one.
        if self.workload not in GENERATED or seed == DEFAULT_SEED:
            expected = self.reference["digests"][self.workload]
        else:
            expected = self.digests.setdefault(seed, report["digest"])
        self.check(report["digest"] == expected,
                   f"{mode} child, seed {seed}: digest {report['digest'][:12]} "
                   f"!= {expected[:12]}")
        return report

    def reference_check(self) -> None:
        if self.workload in GENERATED and self.seed != DEFAULT_SEED:
            self.child(DEFAULT_SEED, "plain")


def measure(run: Run, seconds: float) -> list[dict]:
    run.reference_check()
    reports = []
    started = time.monotonic()
    while len(reports) < MIN_CHILDREN or time.monotonic() - started < seconds:
        report = run.child(run.seed, "plain")
        if report is None:
            break
        reports.append(report)
    return reports


def run_s(report: dict) -> float:
    """A child's body time in seconds at the reference probe speed."""
    return report["body_probes"] * REFERENCE_PROBE_S


def setup_s(report: dict) -> float:
    """A child's set-up time in seconds at the reference probe speed."""
    return report["setup_probes"] * REFERENCE_PROBE_S


def probe_s(report: dict) -> float:
    """The probe's mean length while the body ran."""
    return report["body_s"] / report["body_probes"]


def end_to_end(reports: list[dict]) -> dict:
    def metric(values, unit: str) -> dict:
        return {"value": statistics.median(values), "unit": unit}
    return {"run_s": metric([run_s(r) for r in reports], "s"),
            "setup_s": metric([setup_s(r) for r in reports], "s"),
            "peak_rss_mb": metric([r["rss_mb"] for r in reports], "MiB")}


def raw_times(reports: list[dict]) -> str:
    median = statistics.median
    return (f"# unscaled medians: body {median(r['body_s'] for r in reports)!r} s, "
            f"set-up {median(r['setup_s'] for r in reports)!r} s, "
            f"probe {median(probe_s(r) for r in reports)!r} s")


def measure_traced(run: Run, seconds: float) -> tuple[list, list, dict | None]:
    run.reference_check()
    probe = run.child(run.seed, "probe")
    plain, traced = [], []
    started = time.monotonic()
    while not traced or time.monotonic() - started < seconds:
        spans = SPANS_DIR / f"spans-{run.workload}-{run.seed}-{len(traced)}.json"
        pair = run.child(run.seed, "plain"), run.child(run.seed, "traced", spans)
        if None in pair:
            break
        plain.append(pair[0])
        traced.append(pair[1])
    return plain, traced, probe


def per_layer(plain: list[dict], traced: list[dict], probe: dict | None) -> dict:
    median = statistics.median
    out: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        put(f"{layer}_s", median(t["layers"].get(layer, 0.0) for t in traced), "s")
    put("engine.diagrams_per_term", median(t["diagrams_per_term"] for t in traced),
        "ratio")
    put("invariants.checks", median(t["checks"] for t in traced), "count")
    put("algebra.tables_s", probe["tables_s"] if probe else 0.0, "s")
    put("engine.associator_sign_s", probe["associator_sign_s"] if probe else 0.0, "s")
    for section in SELFTEST_CHECKS:
        put(f"selftest.{section}_s",
            median(t["layers"].get(f"selftest.{section}", 0.0) for t in traced), "s")
        put(f"selftest.{section}.checks",
            median(t.get("sections", {}).get(section, 0) for t in traced), "count")
    put("machine.probe_s", median(probe_s(p) for p in plain), "s")
    for name in plain[0]["cache"]:
        put(f"cache.{name}.hit_ratio",
            median(p["cache"][name]["hit_ratio"] for p in plain), "ratio")
        put(f"cache.{name}.size", median(p["cache"][name]["size"] for p in plain), "count")
    put("trace.overhead", median(t["body_s"] for t in traced)
        / median(p["body_s"] for p in plain) - 1, "ratio")
    return out


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 reference: dict) -> bool:
    """Measure one workload, print its metrics; True when every check held."""
    run = Run(workload, seed, reference)
    if trace:
        plain, traced, probe = measure_traced(run, seconds)
        metrics = per_layer(plain, traced, probe) if traced else {}
        reports = plain
    else:
        reports = measure(run, seconds)
        metrics = end_to_end(reports) if reports else {}
    correct = run.failed == 0 and bool(metrics)
    print(f"# workload {workload}, seed {seed}, {len(reports)} "
          f"{'traced and untraced ' if trace else ''}samples, machine {machine()}")
    if reports:
        print(raw_times(reports))
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"fail_ratio = {ratio!r} ratio ({run.failed} of {run.attempted} "
          "operations failed)")
    for error in run.errors[:10]:
        print(f"# FAILED: {error}")
    result = {"correct": correct, "attempted": max(run.attempted, 1),
              "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kzlab" / "__init__.py").is_file():
        print(f"no kzlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for workload in chosen:
        correct &= run_workload(workload, args.seed, args.seconds,
                                bool(args.trace), reference)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
