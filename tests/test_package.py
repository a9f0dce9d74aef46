import ffheight


def test_star_import_resolves_every_public_name():
    # a stale __all__ entry makes the star import raise AttributeError
    namespace = {}
    exec("from ffheight import *", namespace)
    assert set(ffheight.__all__) <= set(namespace)
