import pytest

from mfpricelab.conditioning import TreeConditioner


@pytest.fixture
def conditioner_builds(monkeypatch):
    """The min_count of every TreeConditioner built while the test runs."""
    built = []
    init = TreeConditioner.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.min_count)

    monkeypatch.setattr(TreeConditioner, "__init__", spy)
    return built
