"""The package's public names: every name ``__all__`` lists resolves."""

import acdroute


def test_every_exported_name_resolves():
    assert [name for name in acdroute.__all__ if not hasattr(acdroute, name)] == []
    assert len(set(acdroute.__all__)) == len(acdroute.__all__)


def test_star_import_runs():
    namespace = {}
    exec("from acdroute import *", namespace)
    assert set(acdroute.__all__) <= set(namespace)
