import pytest

from distid import bounds, distributions


@pytest.fixture
def kernel_passes(monkeypatch) -> list:
    """The size of each family that `bounds` passes over the distance
    kernel's blocks, in order."""
    passes = []

    def counted(family):
        passes.append(len(family))
        return distributions._upper_blocks(family)

    monkeypatch.setattr(bounds, "_upper_blocks", counted)
    return passes
