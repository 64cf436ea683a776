"""The package's public names: each one in ``__all__`` resolves, so a name
deleted from a module cannot linger in the package's export list."""

import schlichtlab


def test_every_exported_name_resolves():
    assert [name for name in schlichtlab.__all__ if not hasattr(schlichtlab, name)] == []
    assert len(set(schlichtlab.__all__)) == len(schlichtlab.__all__)


def test_star_import():
    namespace = {}
    exec("from schlichtlab import *", namespace)
    assert set(schlichtlab.__all__) <= set(namespace)
