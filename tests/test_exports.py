"""The package's export list: sorted, without duplicates, every name real."""

import approvalmle


def test_all_is_sorted_distinct_and_resolves():
    names = approvalmle.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(approvalmle, name)]
    assert missing == []
