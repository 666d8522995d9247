"""Properties of the benchmark's own code: seeded generation, the output
shape its digests hash, span self times and speed-probe accounting.

    python3 -m pytest bench/tests -q
"""

import gc
import io
import json
from contextlib import redirect_stdout

import pytest

from child import series_json
from kzlab import integrate, linking_matrix, load_corpus_word, parse_word, validate_word
from kzlab.cli import main as kzlab_main
from spans import SpanRecorder
from speed import SpeedProbe, probe_pass
from workloads import GENERATED, WARMUP, generate


@pytest.mark.parametrize("workload", GENERATED)
def test_same_seed_same_words(workload):
    assert generate(workload, 5) == generate(workload, 5)
    assert generate(workload, 5) != generate(workload, 6)


@pytest.mark.parametrize("workload", GENERATED)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_words_close_with_the_constructed_circle_count(workload, seed):
    words = generate(workload, seed)
    assert len({w.text for w in words} | {WARMUP[workload]}) == len(words) + 1
    for word in words:
        slices = parse_word(word.text)
        validate_word(slices)
        assert len(linking_matrix(slices)) == word.circles


@pytest.mark.parametrize("workload", GENERATED)
def test_warmup_word_is_closed(workload):
    validate_word(parse_word(WARMUP[workload]))


def test_digested_series_is_the_compute_json():
    out = io.StringIO()
    with redirect_stdout(out):
        assert kzlab_main(["compute", "--corpus", "chain2", "--degree", "3",
                           "--format", "json"]) == 0
    assert series_json(integrate(load_corpus_word("chain2"), 3)) == \
        json.loads(out.getvalue())


def test_self_time_excludes_direct_children():
    rec = SpanRecorder()
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        with rec.span("inner"):
            pass
    (_, _, o0, o1, parent, _), inner1, inner2 = rec.spans
    assert parent == -1 and inner1[4] == inner2[4] == 0
    inner = (inner1[3] - inner1[2]) + (inner2[3] - inner2[2])
    times = rec.self_times()
    assert times["inner"] == pytest.approx(inner)
    assert times["outer"] == pytest.approx(o1 - o0 - inner)


def test_probe_window_counts_work_against_neighbouring_probes():
    probe = SpeedProbe()
    probe.probes = [(1.0, 0.1), (2.0, 0.3)]
    seconds, passes, probed = probe.window(0.5, 2.5)
    # Work: 0.5 s before the first probe, 0.9 s between, 0.2 s after.
    assert seconds == pytest.approx(1.6)
    assert passes == pytest.approx(0.5 / 0.1 + 0.9 / 0.2 + 0.2 / 0.3)
    assert probed == pytest.approx(0.4)


def test_probe_pass_leaves_collections_to_the_program():
    # Bring the youngest generation to the brink of a collection, which
    # the probe's own allocations would then trigger if it ran one.
    phases = []
    gc.collect()
    keep = [[] for _ in range(gc.get_threshold()[0] - 5)]
    gc.callbacks.append(lambda phase, info: phases.append(phase))
    try:
        probe_pass()
    finally:
        gc.callbacks.pop()
        del keep
    assert phases == [] and gc.isenabled()
