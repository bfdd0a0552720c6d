"""The package's public names."""

import su2gap


def test_every_exported_name_resolves():
    missing = [name for name in su2gap.__all__ if not hasattr(su2gap, name)]
    assert missing == []
    assert len(set(su2gap.__all__)) == len(su2gap.__all__)


def test_star_import():
    namespace = {}
    exec("from su2gap import *", namespace)
    assert set(su2gap.__all__) <= set(namespace)
