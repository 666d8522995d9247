"""
Acceptance gate: one test per verification section, all exact.

Each test runs a single named section of the identity sweep, prints
its pass/fail line and checks how many instances the section verified.  A failure here means an exact rational identity
broke, never a tolerance.

Core claims:
     1. theorem        linking monomials equal class sums on every
                       corpus word for every symmetric type up to
                       degree 3 (degree 4 where the word allows it)
     2. linking        degree-1 coefficients are half the framed
                       linking numbers from the hand-tabulated oracle
     3. degree-sum     summing all monomials of one degree matches the
                       engine's total coefficient at that degree
     4. framing-powers kinked-unknot diagonal values are 1/(k! 2^k) by
                       both the direct and the surgery route; the bare
                       unknot's vanish
     5. wheels         the bare unknot's series matches the closed
                       even-wheel exponential mod 4T through degree 4
     6. relators       every class sum kills every 4T relator
     7. recursion      bare-block shift, vanishing, and inversion hold
                       at every positive corpus crossing
     8. variation      crossing-change differences match the odd-block
                       series and the linking-side binomial expansion
     9. pentagon       the associator passes pentagon and both
                       hexagons, with a uniquely pinned sign
    10. enumeration    each degree list holds one least code per
                       rotation orbit, the orbits summing to the
                       placement count; type families partition it
    11. representation two presentations of the same link agree mod 4T
"""

from kzlab.selftest import run_selftest


# Instances each section verifies; a dropped or doubled check shows here.
CHECKS = {
    "theorem": 213, "linking": 24, "degree-sum": 36, "framing-powers": 13,
    "wheels": 7, "relators": 164, "recursion": 2560, "variation": 1540,
    "pentagon": 3, "enumeration": 283, "representation": 4,
}


def _check(section: str) -> None:
    result, = run_selftest([section])
    print(result.render())
    assert result.passed, result.render()
    assert result.checks == CHECKS[section]


def test_criterion_01_theorem():
    _check("theorem")


def test_criterion_02_linking():
    _check("linking")


def test_criterion_03_degree_sum():
    _check("degree-sum")


def test_criterion_04_framing_powers():
    _check("framing-powers")


def test_criterion_05_wheels():
    _check("wheels")


def test_criterion_06_relators():
    _check("relators")


def test_criterion_07_recursion():
    _check("recursion")


def test_criterion_08_variation():
    _check("variation")


def test_criterion_09_pentagon():
    _check("pentagon")


def test_criterion_10_enumeration():
    _check("enumeration")


def test_criterion_11_representation():
    _check("representation")
