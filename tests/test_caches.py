"""
The library's caches are bounded, except a few with small domains.

Core claims:
    - No lru_cache in src/kzlab is unbounded (maxsize=None, or
      functools.cache) but the small-domain ones listed here with their
      reason; each listed one still exists and is still unbounded, so
      the list does not outlive its entries; the scan itself finds an
      unbounded cache however it is spelled
    - The six (m, k)-keyed table caches (degree lists, type matrices, 4T
      relators and quotients, strand monomials and quotients) share one
      bound, TABLE_CACHE_SIZE, keep typed keys, and stay at or under it
      while tables are listed for more circle and strand counts than it
      holds, at degree 1 (degree 0 for the dense type matrices); an
      evicted list comes back equal
    - The bound is above a full selftest sweep's working set: the sweep
      run section by section in one process evicts no table
"""

import ast
from pathlib import Path

import kzlab
from kzlab import diagrams
from kzlab.qtangle import engine
from kzlab.selftest import run_selftest, section_names

SRC = Path(kzlab.__file__).resolve().parent

# Unbounded caches whose keys come from a small, fixed domain, so what
# they keep is bounded by the domain, not by the caller.
SMALL_DOMAIN = {
    # one series per truncation, 0..MAX_TRUNCATION
    ("algebra.py", "unknot_series_closed"),
    ("algebra.py", "sqrt_unknot_series"),
    # the wheel tables: orders up to MAX_WHEEL_ORDER, legs up to 7 in all
    ("algebra.py", "_wheel_coefficients"),
    ("algebra.py", "_wheel_attachment_sum"),
    # one int per truncation
    ("qtangle/engine.py", "_kernel_scale"),
    # no argument: one value
    ("qtangle/engine.py", "associator_sign"),
}

TABLES = (diagrams.enumerate_by_degree, diagrams.all_type_matrices,
          diagrams.four_t_relators, diagrams._reducer, engine.strand_monomials,
          engine._strand_reducer)


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _unbounded(node, decorator=False):
    """True for lru_cache(None) or lru_cache(maxsize=None) anywhere, and
    for a bare cache (functools.cache) used as a decorator."""
    if isinstance(node, ast.Call) and _name(node.func) == "lru_cache":
        sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
        return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)
    target = node.func if isinstance(node, ast.Call) else node
    return decorator and _name(target) == "cache"


def _unbounded_caches(source, path):
    """(path, function name or line) of each unbounded cache in source."""
    tree = ast.parse(source, path)
    found = []
    decorators = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                decorators.add(id(dec))
                if _unbounded(dec, decorator=True):
                    found.append((path, node.name))
    found += [(path, f"line {node.lineno}") for node in ast.walk(tree)
              if id(node) not in decorators and _unbounded(node)]
    return found


def test_the_scan_finds_every_spelling():
    source = """
import functools
from functools import cache, lru_cache

@lru_cache(maxsize=None)
def a(n): ...

@functools.lru_cache(None, typed=True)
def b(n): ...

@cache
def c(n): ...

@functools.cache
def d(n): ...

e = lru_cache(maxsize=None)(len)

@lru_cache(maxsize=64, typed=True)
def bounded(n): ...

@lru_cache
def default(n): ...
"""
    assert _unbounded_caches(source, "x.py") == [
        ("x.py", "a"), ("x.py", "b"), ("x.py", "c"), ("x.py", "d"), ("x.py", "line 17")]


def test_no_unbounded_cache_but_the_small_domain_ones():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += _unbounded_caches(path.read_text(encoding="utf-8"),
                                   path.relative_to(SRC).as_posix())
    assert sorted(set(found) - SMALL_DOMAIN) == []
    assert sorted(SMALL_DOMAIN - set(found)) == []


def test_table_caches_keep_at_most_their_bound():
    bound = diagrams.TABLE_CACHE_SIZE
    assert engine.TABLE_CACHE_SIZE is bound
    for table in TABLES:
        assert table.cache_parameters() == {"maxsize": bound, "typed": True}
    kzlab.clear_caches()
    first = diagrams.enumerate_by_degree(1, 1)
    for m in range(1, bound + 9):
        for table in TABLES:
            # Past 20 circles the enumeration limit refuses the dense
            # degree-1 type matrices, so that table lists degree 0.
            table(m, 0 if table is diagrams.all_type_matrices else 1)
            assert table.cache_info().currsize <= bound, (table.__name__, m)
    assert all(table.cache_info().currsize == bound for table in TABLES)
    # The first list was evicted, and comes back equal.
    assert diagrams.enumerate_by_degree(1, 1) == first
    kzlab.clear_caches()


def test_a_selftest_sweep_evicts_no_table():
    kzlab.clear_caches()
    for name in section_names():
        run_selftest([name])
    for table in TABLES:
        info = table.cache_info()
        assert info.misses == info.currsize < diagrams.TABLE_CACHE_SIZE, table.__name__
    kzlab.clear_caches()
