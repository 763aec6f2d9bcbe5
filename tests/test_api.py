import forbidposet


def test_every_exported_name_resolves():
    assert [name for name in forbidposet.__all__ if not hasattr(forbidposet, name)] == []
