import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_file", Path(__file__).resolve().parent.parent / "tools" / "bench_file.py")
bench_file = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_file)


def test_pair_summary_odd_count():
    got = bench_file.pair_summary([5, 1, 3, 4, 2], [4, 2, 2, 3, 1], "lower")
    assert got == {
        "parent": [5, 1, 3, 4, 2],
        "change": [4, 2, 2, 3, 1],
        "median": {"parent": 3, "change": 2},
        "quartiles": {"parent": [2, 4], "change": [2, 3]},
        "change_won": 4,
        "ties": 0,
        "beyond_parent_iqr": False,  # the medians differ by 1, the parent's IQR is 2
    }


def test_pair_summary_even_count_with_a_tie():
    got = bench_file.pair_summary([1.0, 2.0, 3.0, 4.0], [1.0, 1.5, 2.5, 3.0], "lower")
    assert got["median"] == {"parent": 2.5, "change": 2.0}
    assert got["quartiles"] == {"parent": [1.75, 3.25], "change": [1.375, 2.625]}
    assert (got["change_won"], got["ties"], got["beyond_parent_iqr"]) == (3, 1, False)


@pytest.mark.parametrize("change, won, ties, beyond", [
    ([1, 2, 1], 2, 1, True),    # any better median is beyond an IQR of zero
    ([2, 2, 2], 0, 3, False),   # an equal median is not
    ([3, 1, 3], 1, 0, False),   # and a worse one is not
])
def test_pair_summary_parent_iqr_zero(change, won, ties, beyond):
    got = bench_file.pair_summary([2, 2, 2], change, "lower")
    assert got["quartiles"]["parent"] == [2, 2]
    assert (got["change_won"], got["ties"], got["beyond_parent_iqr"]) == (won, ties, beyond)


def test_pair_summary_higher_is_better():
    got = bench_file.pair_summary([2, 4, 1], [5, 4, 0], "higher")
    assert got["quartiles"]["parent"] == [1.5, 3]
    assert (got["change_won"], got["ties"], got["beyond_parent_iqr"]) == (1, 1, True)
    assert bench_file.pair_summary([1.0, 1.0], [1.0, 0.9], "higher")["change_won"] == 0
