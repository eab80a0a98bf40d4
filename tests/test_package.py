"""The top-level package namespace: what ``from tridiff import *`` gives."""

import tridiff


def test_all_names_resolve():
    missing = [name for name in tridiff.__all__ if not hasattr(tridiff, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(tridiff.__all__) == len(set(tridiff.__all__))
