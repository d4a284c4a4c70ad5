"""The package's public surface: every exported name exists."""

import revplane


def test_every_exported_name_resolves():
    missing = [name for name in revplane.__all__ if not hasattr(revplane, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from revplane import *", namespace)
    assert set(revplane.__all__) <= set(namespace)
