"""Seeded inputs for the benchmark's workloads.

Three generated link families, each sized so that one batch takes a
roughly fixed amount of work whatever the seed: word sizes come from
fixed strata, and the seed picks sizes within a stratum, crossing signs,
closures, which circles carry a kink and which circles are checked.  The
seed never changes how many words there are or which strata they come
from.

`selftest` has no generated input: it runs the package's fixed sweep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 1
WORKLOADS = ("selftest", "long-braids", "kinked-unlinks", "wide-nests")
GENERATED = WORKLOADS[1:]

# Truncation degree per generated family.
DEGREE = {"long-braids": 3, "kinked-unlinks": 4, "wide-nests": 1}

# One word per family that no batch contains (every batch word is larger);
# integrating it before timing fills the series tables shared by all words.
WARMUP = {
    "long-braids": "cup@1;cup@3;assoc-@3;x+@2;x-@2;x+@2;x+@2;x-@2;cap@2;cap@1",
    "kinked-unlinks": "cup@1;cup@1;x+@1;cap'@1;cap@1",
    "wide-nests": ";".join(["cup@1"] * 8 + ["x-@1", "cap'@1"] + ["cap@1"] * 7),
}

# Selftest check counts per section, in section order, on the bundled corpus.
SELFTEST_CHECKS = {
    "theorem": 213, "linking": 24, "degree-sum": 36, "framing-powers": 13,
    "wheels": 7, "relators": 164, "recursion": 2560, "variation": 1540,
    "pentagon": 3, "enumeration": 283, "representation": 4,
}

# Batch sizes.  Braids: one word from each 30-wide stratum of 16..255
# crossings.  Unlinks: two words each of 3..6 circles.  Nests: one word each.
BRAID_STRATA = [16 + 30 * i for i in range(8)]
BRAID_WIDTH = 30
UNLINK_CIRCLES = [3, 4, 5, 6]
NEST_CIRCLES = [60, 90, 120, 150]
NEST_CHECKS = 3


@dataclass(frozen=True)
class GeneratedWord:
    """One benchmark input: word text, the circle count its construction
    must close with, and (wide-nests only) the 0-based circles whose
    unit-diagonal type matrix gets checked."""

    text: str
    circles: int
    checked: tuple[int, ...] = ()


def braid_word(signs: list[int], two_circles: bool = False) -> str:
    """Closed 2-braid at the middle of four points.

    An odd crossing count closes with cap@2;cap@1 (one circle); an even
    count closes with cap'@2;cap@1 (one circle) or, for two_circles,
    with assoc+@3;cap@3;cap@1 (two circles).
    """
    crossings = [f"x{'+' if s > 0 else '-'}@2" for s in signs]
    if len(signs) % 2:
        closure = ["cap@2", "cap@1"]
    elif two_circles:
        closure = ["assoc+@3", "cap@3", "cap@1"]
    else:
        closure = ["cap'@2", "cap@1"]
    return ";".join(["cup@1", "cup@3", "assoc-@3"] + crossings + closure)


def nested_unlink(kinks: list[int]) -> str:
    """Unlink of len(kinks) nested circles, closed innermost first.

    kinks[i] is 0 for a plain cap@1, or the sign of the kink x+/-@1;cap'@1
    that closes the i-th circle to be closed.
    """
    parts = ["cup@1"] * len(kinks)
    for sign in kinks:
        if sign:
            parts += [f"x{'+' if sign > 0 else '-'}@1", "cap'@1"]
        else:
            parts.append("cap@1")
    return ";".join(parts)


def _kinks(rng: random.Random, circles: int, kinked: int) -> list[int]:
    chosen = set(rng.sample(range(circles), kinked))
    return [rng.choice((1, -1)) if i in chosen else 0 for i in range(circles)]


def _long_braids(rng: random.Random) -> list[GeneratedWord]:
    # Strata are paired smallest with largest.  A pair shares a closure
    # kind, and its two offsets into the strata add up to the same total,
    # so the crossing count of the batch, and that of its two-circle words
    # (20 theorem checks each instead of 4), hardly vary with the seed.
    kinds = ["odd", "odd", "even", "even-two"]
    rng.shuffle(kinds)
    counts: dict[int, tuple[int, str]] = {}
    for i, kind in enumerate(kinds):
        offset = rng.randrange(BRAID_WIDTH)
        for stratum, at in ((i, offset), (7 - i, BRAID_WIDTH - 1 - offset)):
            n = BRAID_STRATA[stratum] + at
            if (n % 2 == 1) != (kind == "odd"):
                n += 1 if at == 0 else -1
            counts[stratum] = (n, kind)
    words = []
    for stratum in range(len(BRAID_STRATA)):
        n, kind = counts[stratum]
        signs = [rng.choice((1, -1)) for _ in range(n)]
        two = kind == "even-two"
        words.append(GeneratedWord(braid_word(signs, two), 2 if two else 1))
    return words


def _kinked_unlinks(rng: random.Random) -> list[GeneratedWord]:
    # The two words of each size kink complementary sets of circles: a
    # kink costs more the more strands are still open when it closes, so
    # a pair costs about the same whichever set the seed picks.
    words = []
    for m in UNLINK_CIRCLES:
        kinked = set(rng.sample(range(m), m // 2))
        for chosen in (kinked, set(range(m)) - kinked):
            kinks = [rng.choice((1, -1)) if i in chosen else 0 for i in range(m)]
            words.append(GeneratedWord(nested_unlink(kinks), m))
    rng.shuffle(words)
    return words


def _wide_nests(rng: random.Random) -> list[GeneratedWord]:
    words = []
    for m in NEST_CIRCLES:
        checked = tuple(sorted(rng.sample(range(m), NEST_CHECKS)))
        words.append(GeneratedWord(nested_unlink(_kinks(rng, m, m // 8)), m, checked))
    return words


_FAMILIES = {
    "long-braids": _long_braids,
    "kinked-unlinks": _kinked_unlinks,
    "wide-nests": _wide_nests,
}


def generate(workload: str, seed: int) -> list[GeneratedWord]:
    """The batch for a generated workload; the same seed gives the same
    words.  A draw that repeats an earlier word of the batch, or the
    warm-up word, is replaced by a fresh draw."""
    rng = random.Random(f"{workload}/{seed}")
    seen = {WARMUP[workload]}
    while True:
        words = _FAMILIES[workload](rng)
        if len({w.text for w in words} | seen) == len(words) + 1:
            return words
