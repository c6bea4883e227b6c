import mppkit


def test_every_exported_name_resolves_once():
    # `from mppkit import *` fails on a name left in __all__ after its object is gone
    names = mppkit.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(mppkit, name)] == []
    namespace = {}
    exec("from mppkit import *", namespace)
    assert set(names) <= set(namespace)
