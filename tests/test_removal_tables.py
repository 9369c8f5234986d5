"""The five partition successor functions, answered from one removal table
per shape: their order is pinned, their answers are fresh lists, and the
tables are module-level functools caches that can be emptied."""

import hashlib
import sys

import pytest

import goldens
from combinv.brick import part_decrements, sub_multisets_of_size
from combinv.core import partitions
from combinv.kostka import srh_successors, strip_removals
from combinv.rimhook import hook_successors

SUCCESSORS = [
    strip_removals,
    srh_successors,
    hook_successors,
    part_decrements,
    sub_multisets_of_size,
]


def _module_caches():
    """Every functools cache held at module level in a loaded combinv module."""
    return [
        value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "combinv" or name.startswith("combinv."))
        for value in list(vars(module).values())
        if callable(getattr(value, "cache_clear", None))
    ]


@pytest.mark.parametrize("succ", SUCCESSORS, ids=lambda f: f.__name__)
def test_golden_digest(succ):
    # `enumerate --kind rht` and every chain walk list in the successor order
    lines = [
        "%r %d %r" % (lam, length, succ(lam, length))
        for n in range(13)
        for lam in partitions(n)
        for length in range(n + 2)
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == goldens.SUCCESSOR_SHA256[succ.__name__]


def test_size_zero():
    for lam in [(1,), (3, 1, 1), (4, 2, 2, 1)]:
        assert part_decrements(lam, 0) == [lam]
        assert sub_multisets_of_size(lam, 0) == [lam]
        assert strip_removals(lam, 0) == []
        assert srh_successors(lam, 0) == []
        assert hook_successors(lam, 0) == []
    assert part_decrements((), 0) == []
    assert sub_multisets_of_size((), 0) == [()]


@pytest.mark.parametrize("succ", SUCCESSORS, ids=lambda f: f.__name__)
def test_answer_is_a_fresh_list(succ):
    lam = (4, 2, 2, 1)
    for length in range(1, 10):
        first = succ(lam, length)
        expected = list(first)
        first.append((99,))
        first.reverse()
        assert succ(lam, length) == expected
        assert succ(lam, length) is not succ(lam, length)


@pytest.mark.parametrize("succ", SUCCESSORS, ids=lambda f: f.__name__)
def test_tables_are_module_caches(succ):
    # the benchmark empties every module-level `cache_clear` before each
    # item, so a table held anywhere else would make later items warm
    lam = (5, 3, 3, 1)
    expected = succ(lam, 3)
    for cache in _module_caches():
        cache.cache_clear()
    assert succ(lam, 3) == expected
    assert sum(cache.cache_info().currsize for cache in _module_caches()) > 0
    for cache in _module_caches():
        cache.cache_clear()
    assert sum(cache.cache_info().currsize for cache in _module_caches()) == 0
    assert succ(lam, 3) == expected
