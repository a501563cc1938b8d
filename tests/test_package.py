"""The package's export list."""

import types

import anisoclusters as ac


def test_all_names_each_public_name_once():
    names = ac.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(ac, name), name
    public = {
        name
        for name, value in vars(ac).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(names)) == []
